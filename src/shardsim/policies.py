"""Placement and migration policies.

Three policies are provided: a stable hash baseline, a precomputed-partition
baseline, and the load/alignment-driven scheduler.  The two baselines need no
policy object: they never migrate, and the engine places an account that its
initial placement (under partition, also the partition table) left unplaced
on ``hash_place(account, k)`` when its first transaction arrives.  The
scheduler plans each transaction as a pure function of the transaction plus
snapshots of the mapping, the published shard loads, and the alignment
totals, so any plan can be replayed and verified bit-for-bit.  A migration
out of a shard in ``refuse_migrations_from`` is dropped: the account stays and
its shard joins the final shards.

Plans are read-only.  A transaction whose accounts are all placed on one shard
runs there with nothing to place or migrate, so the scheduler returns one
shared plan per (shard, base cost), as the engine shares one plan per
footprint lane under the static policies, instead of building a new one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .core import (
    CA,
    AccountId,
    AlignmentBook,
    CostModel,
    MappingService,
    MigrationOp,
    ShardId,
    Transaction,
)

HASH = "hash"
PARTITION = "partition"
SCHEDULER = "scheduler"
POLICY_KINDS = (HASH, PARTITION, SCHEDULER)

MODE_2PC = "2pc"
MODE_MUTEX = "mutex"
MODES = (MODE_2PC, MODE_MUTEX)


# Not frozen: a frozen dataclass's __init__ sets each field through
# object.__setattr__, a cost the scheduler pays on every plan it builds.
@dataclass(slots=True)
class TxPlan:
    new_placements: dict
    migrations: tuple
    final_shards: frozenset
    per_shard_charges: dict


def hash_place(account: AccountId, k: int) -> ShardId:
    """Stable uniform placement: first 8 bytes of SHA-256 of the id, mod k.

    The id is hashed as its UTF-8 bytes and the 8-byte prefix is read
    big-endian, so the mapping is identical across runs and platforms.
    """
    if k < 1:
        raise ValueError("k must be positive")
    digest = hashlib.sha256(account.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % k


def should_migrate(current: ShardId, totals: dict, c_cross: int) -> bool:
    """Migrate unless the account's window alignment favors staying put.

    The account leaves iff c_cross * alignment(current) is strictly below the
    alignment accumulated toward all other shards.
    """
    own = totals.get(current, 0)
    rest = sum(totals.values()) - own
    return c_cross * own < rest


class SchedulerPolicy:
    """Load-based main-shard selection plus alignment-gated migrations."""

    def __init__(self, k: int, mode: str = MODE_2PC, ca_migration: bool = False,
                 refuse_migrations_from: frozenset = frozenset()):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.k = k
        self.mode = mode
        self.ca_migration = ca_migration
        # scripted adversary: an account on one of these shards never migrates
        self.refuse_migrations_from = refuse_migrations_from
        self._one_shard_plans: dict = {}  # (shard, base_cost) -> shared TxPlan

    def plan(
        self,
        tx: Transaction,
        mapping: MappingService,
        loads: dict,
        book: AlignmentBook,
        cost_model: CostModel,
        accounts: dict | None = None,
    ) -> TxPlan:
        # A write set placed on one shard runs there: its shared plan.
        placed = list(map(mapping.assignment.get, tx.write_set))
        own = placed[0]
        if own is not None and placed.count(own) == len(placed):
            key = (own, tx.base_cost)
            plan = self._one_shard_plans.get(key)
            if plan is None:
                plan = self._one_shard_plans[key] = TxPlan(
                    new_placements={},
                    migrations=(),
                    final_shards=frozenset((own,)),
                    per_shard_charges={own: cost_model.per_shard_charge(tx.base_cost, 1)},
                )
            return plan
        return self._general_plan(tx, placed, loads, book, cost_model, accounts)

    def _general_plan(self, tx, placed, loads, book, cost_model, accounts) -> TxPlan:
        """Plan tx from placed, its accounts' current shards (None if new).

        The main shard is the least-loaded shard among the placed accounts',
        ties to the lowest id.
        """
        main = main_load = None
        for shard in placed:
            if shard is not None and shard != main:
                load = loads[shard]
                if main is None or load < main_load or (load == main_load and shard < main):
                    main, main_load = shard, load
        if main is None:  # an all-new write set goes to the least-loaded shard overall
            main = min(loads.keys(), key=lambda s: (loads[s], s))
        new_placements = {}
        migrations = []
        final = {main}
        refused = self.refuse_migrations_from
        for acc, current in zip(tx.write_set, placed):
            if current is None:
                new_placements[acc] = main  # a new account lands on main
                continue
            if current == main:
                continue
            account = accounts.get(acc) if accounts else None
            is_ca = account is not None and account.kind == CA
            if self.mode == MODE_MUTEX:
                migrate = True  # mutex consensus needs every account in one shard
            elif is_ca and not self.ca_migration:
                migrate = False
            else:
                migrate = should_migrate(current, book.totals(acc), cost_model.cross_shard_cost)
            if migrate and current not in refused:
                migrations.append(
                    MigrationOp(acc, current, main, cost_model.migration_cost(account))
                )
            else:
                final.add(current)
        return TxPlan(
            new_placements=new_placements,
            migrations=tuple(migrations),
            final_shards=frozenset(final),
            per_shard_charges=dict.fromkeys(
                final, cost_model.per_shard_charge(tx.base_cost, len(final))
            ),
        )

