"""Placement and migration policies.

Three policies are provided: a stable hash baseline, a precomputed-partition
baseline, and the load/alignment-driven scheduler.  The two baselines need no
policy object: they never migrate, and the engine places every account before
round 0 on its initial shard, else its partition table shard under partition,
else ``hash_place(account, k)``.  ``SchedulerPolicy`` holds only its
configuration: its ``plan`` builds each plan as a pure function of the
transaction, its accounts' shards, the published shard loads, each account's
two alignment sums and the configuration, so any plan can be replayed and
verified bit-for-bit.  It reads no account-to-shard dict: the engine hands it
the shards it has already read.  ``SchedulerPolicy.never_migrates`` is its one
rule for an account that stays put: the account stays and its shard joins the
final shards.  Any other account off the main shard moves to it under mutex,
and under 2pc the paper's rule reads the book's (own, rest) pair: the account
leaves iff c_cross * own < rest, its alignment toward its current shard
against its alignment toward all other shards.  Plans are read-only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .core import (
    CA,
    AccountId,
    AlignmentBook,
    CostModel,
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
    digest = hashlib.sha256(account.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % k


class SchedulerPolicy:
    """Load-based main-shard selection plus alignment-gated migrations."""

    def __init__(self, mode: str = MODE_2PC, ca_migration: bool = False,
                 refuse_migrations_from: frozenset = frozenset()):
        self.mode = mode
        # scripted adversary: an account on one of these shards never migrates
        self.refuse_migrations_from = refuse_migrations_from
        self._contracts_stay = mode == MODE_2PC and not ca_migration

    def never_migrates(self, shard: ShardId, account) -> bool:
        """Whether account, an Account or None, never leaves shard: the shard
        refuses migrations, or it is a contract account under 2pc without
        contract migration."""
        return shard in self.refuse_migrations_from or (
            self._contracts_stay and account is not None and account.kind == CA)

    def plan(
        self,
        tx: Transaction,
        placed: tuple,
        loads: dict,
        book: AlignmentBook,
        cost_model: CostModel,
        accounts: dict | None = None,
    ) -> TxPlan:
        """Plan tx, whose write-set accounts sit on the shards placed, in
        write-set order, with None for an unplaced account.

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
        mutex = self.mode == MODE_MUTEX
        c_cross = cost_model.cross_shard_cost
        for acc, current in zip(tx.write_set, placed):
            if current is None:
                new_placements[acc] = main  # a new account lands on main
                continue
            if current == main:
                continue
            account = accounts.get(acc) if accounts else None
            if not self.never_migrates(current, account):
                if mutex:  # mutex consensus needs every account that can move in one shard
                    leaves = True
                else:  # leave iff c_cross * alignment(current) < alignment(elsewhere)
                    own, rest = book.totals(acc)
                    leaves = c_cross * own < rest
                if leaves:
                    migrations.append(
                        MigrationOp(acc, current, main, cost_model.migration_cost(account)))
                    continue
            final.add(current)
        return TxPlan(
            new_placements=new_placements,
            migrations=tuple(migrations),
            final_shards=frozenset(final),
            per_shard_charges=dict.fromkeys(
                final, cost_model.per_shard_charge(tx.base_cost, len(final))
            ),
        )

