"""Round-based simulation loop.

Each round tops up the fixed-size FIFO mempool from the workload, resets
per-shard residual capacity, then walks the mempool in arrival order.  Every
pending transaction is planned against snapshots of the mapping and the
previous round's published loads, and admitted atomically: the transaction
charge plus all enabling migration charges either land together or not at
all.  Deferred transactions stay in the mempool in arrival order.

The walk skips work whose outcome is already decided.  A deferred
transaction is re-planned only when it could fit: under the static hash and
partition policies its per-shard charges are fixed by its first plan, so it
waits while any of those shards lacks the residual; under the scheduler it
waits while every shard of its placed accounts has less residual than the
transaction's base cost, which the main shard is always charged.  The
alignment book is maintained only under the scheduler, the one policy that
reads it.  A run whose state stops changing raises Livelock instead of spinning.

Admission reuses what the plan already holds: a plan without migrations is
checked and charged from its own per-shard charges, and a fee with one final
shard is credited to that shard without a split.  Simulation rejects, with a
ConfigError naming the account, any initial shard that is not an in-range int
and any accounts entry that is not an Account under its own id.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

from .core import (
    Account,
    AlignmentBook,
    CostModel,
    MappingService,
    ShardState,
    Transaction,
    update_alignments,
)
from .economics import DECOUPLED, FEE_SCHEMES, IncentiveLedger, split_fee
from .partitioner import graph_from_transactions, partition_greedy
from .policies import MODE_2PC, MODES, POLICY_KINDS, SCHEDULER, TxPlan, make_policy


class ConfigError(Exception):
    pass


class EmptyRun(Exception):
    pass


class Livelock(Exception):
    """The run reached a fixed point with transactions still pending."""


@dataclass(frozen=True)
class SimConfig:
    k_shards: int = 16
    cross_shard_cost: int = 2
    shard_capacity: int = 200
    mempool_ratio: float = 1.0
    window: int = 100
    policy: str = "hash"
    mode: str = MODE_2PC
    epoch_length: int = 10
    miners_per_shard: int = 3
    seed: int = 0
    max_rounds: int | None = None
    economics: bool = False
    ca_migration: bool = False
    fee_scheme: str = DECOUPLED
    default_fee: int = 1
    # scripted-adversary hook: shards whose miners refuse outgoing migrations
    refuse_migrations_from: frozenset = frozenset()

    def validate(self) -> None:
        if self.k_shards < 1 or self.shard_capacity < 1 or self.window < 1:
            raise ConfigError("k_shards, shard_capacity and window must be positive")
        if self.cross_shard_cost < 1:
            raise ConfigError("cross_shard_cost must be positive")
        if self.mempool_ratio <= 0:
            raise ConfigError("mempool_ratio must be positive")
        if self.policy not in POLICY_KINDS:
            raise ConfigError(f"unknown policy {self.policy!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.epoch_length < 1 or self.miners_per_shard < 1:
            raise ConfigError("epoch_length and miners_per_shard must be positive")
        if self.fee_scheme not in FEE_SCHEMES:
            raise ConfigError(f"unknown fee scheme {self.fee_scheme!r}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ConfigError("max_rounds must be positive")
        if self.default_fee < 0:
            raise ConfigError("default_fee must be nonnegative")

    @property
    def mempool_size(self) -> int:
        return math.ceil(self.mempool_ratio * self.k_shards * self.shard_capacity)


class LiveLoads:
    """Read-through view of per-shard window load, including the current block.

    Publishing only the previous round's sums would send every placement of a
    round to the same argmin shard; folding in the charges applied so far
    keeps placement spread while staying fully deterministic.
    """

    def __init__(self, shards):
        self._shards = shards

    def __getitem__(self, shard_id):
        return self._shards[shard_id].window_sum

    def keys(self):
        return range(len(self._shards))


class Mempool:
    """Fixed-size FIFO of pending transactions."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._queue: deque = deque()
        self.first_seen: dict = {}

    def __len__(self):
        return len(self._queue)

    def top_up(self, source, round_index: int) -> int:
        added = 0
        while len(self._queue) < self.capacity:
            tx = next(source, None)
            if tx is None:
                break
            self._queue.append(tx)
            self.first_seen[tx.tx_id] = round_index
            added += 1
        return added

    def drain(self):
        """Yield all pending txs; callers re-add the deferred ones via retain."""
        queue, self._queue = self._queue, deque()
        return queue

    def retain(self, tx: Transaction) -> None:
        self._queue.append(tx)

    def head(self) -> Transaction:
        return self._queue[0]


@dataclass
class RoundReport:
    round_index: int
    topped_up: int
    mempool_start: int
    mempool_end: int
    processed_count: int
    processed_cost: dict  # shard -> capacity units charged this round
    residuals: dict  # shard -> residual at end of processing
    migrations_executed: int
    cross_shard_tx_count: int
    latency_samples: tuple  # completion_round - first_seen_round per executed tx


@dataclass(frozen=True)
class FinalSummary:
    rounds: int
    executed: int
    migrations: int
    cross_shard_txs: int
    throughput: float
    latency: float
    wasted_capacity: int
    cross_shard_ratio: float
    total_fees: int = 0


EXECUTED = "executed"
DEFERRED = "deferred"


class Simulation:
    """Single deterministic run of one policy over one workload."""

    def __init__(self, config: SimConfig, workload, initial_assignment=None, accounts=None):
        config.validate()
        if not workload:
            raise ConfigError("workload must be nonempty")
        seen = set()
        for tx in workload:
            if tx.tx_id in seen:
                raise ConfigError(f"duplicate tx_id {tx.tx_id!r} in workload")
            seen.add(tx.tx_id)
        self.config = config
        self.workload = workload
        self.cost_model = CostModel(config.cross_shard_cost)
        self.mapping = MappingService()
        for acc, shard in (initial_assignment or {}).items():
            if not isinstance(shard, int) or isinstance(shard, bool):
                raise ConfigError(f"initial shard {shard!r} of account {acc!r} is not an int")
            if not 0 <= shard < config.k_shards:
                raise ConfigError(f"initial shard {shard} of account {acc!r} out of range")
            self.mapping.place(acc, shard)
        self.accounts = dict(accounts or {})  # account id -> Account (CA registry)
        for acc, account in self.accounts.items():
            if not isinstance(account, Account):
                raise ConfigError(f"account {acc!r}: expected an Account, got {account!r}")
            if account.id != acc:
                raise ConfigError(f"account {acc!r}: Account id {account.id!r} differs from its key")
        self.shards = [
            ShardState(s, config.shard_capacity, config.window)
            for s in range(config.k_shards)
        ]
        self.book = AlignmentBook(config.window)
        self.mempool = Mempool(config.mempool_size)
        partition_assignment = None
        if config.policy == "partition":
            partition_assignment = self._precompute_partition()
        self.policy = make_policy(
            config.policy,
            config.k_shards,
            mode=config.mode,
            partition_assignment=partition_assignment,
            ca_migration=config.ca_migration,
        )
        self.ledger = (
            IncentiveLedger(config.k_shards, config.miners_per_shard, config.seed, config.fee_scheme)
            if config.economics
            else None
        )
        self.reports: list[RoundReport] = []

    def _precompute_partition(self) -> dict:
        # The partition baseline reads the full workload before round 0.
        graph = graph_from_transactions(self.workload)
        n = len(graph)
        if n == 0:
            return {}
        cap = math.ceil(n / self.config.k_shards)
        part = partition_greedy(graph, self.config.k_shards, cap, seed=self.config.seed)
        return part.assignment

    # -- execution ---------------------------------------------------------

    def plan(self, tx: Transaction, loads: dict) -> TxPlan:
        return self.policy.plan(
            tx, self.mapping, loads, self.book, self.cost_model, accounts=self.accounts
        )

    def _veto(self, tx: Transaction, plan: TxPlan) -> TxPlan:
        blocked = self.config.refuse_migrations_from
        if not plan.migrations:
            return plan
        kept = tuple(m for m in plan.migrations if m.source not in blocked)
        if len(kept) == len(plan.migrations):
            return plan
        final = set(plan.final_shards)
        for m in plan.migrations:
            if m.source in blocked:
                final.add(m.source)
        charge = self.cost_model.per_shard_charge(tx.base_cost, len(final))
        return replace(
            plan,
            migrations=kept,
            final_shards=frozenset(final),
            per_shard_charges={s: charge for s in final},
        )

    def try_execute(self, tx: Transaction, plan: TxPlan, round_index: int) -> str:
        shards = self.shards
        required = plan.per_shard_charges
        if plan.migrations:
            required = {}
            for m in plan.migrations:
                required[m.source] = required.get(m.source, 0) + m.cost
                required[m.dest] = required.get(m.dest, 0) + m.cost
            for s, c in plan.per_shard_charges.items():
                required[s] = required.get(s, 0) + c
        for s, amount in required.items():
            if amount > shards[s].residual:
                return DEFERRED
        for acc, shard in plan.new_placements.items():
            self.mapping.place(acc, shard)
        for m in plan.migrations:
            self.mapping.migrate(m.account, m.dest)
            self.book.reset(m.account)  # alignment is dropped on migration
        for s, amount in required.items():
            shards[s].charge(amount)
        if not self.policy.static_placement:  # only the scheduler reads alignment
            update_alignments(tx, self.mapping, self.cost_model, self.book)
        ledger = self.ledger
        if ledger is not None:
            fee = tx.fee or self.config.default_fee
            final = plan.final_shards
            if len(final) > 1:
                for s, share in split_fee(fee, final).items():
                    ledger.credit(s, round_index, share)
            elif fee:
                (shard,) = final
                ledger.credit(shard, round_index, fee)
        return EXECUTED

    # -- round loop --------------------------------------------------------

    def run(self):
        config = self.config
        source = iter(self.workload)
        static = self.policy.static_placement
        blocked = config.refuse_migrations_from
        shards = self.shards
        assignment = self.mapping.assignment
        retain = self.mempool.retain
        first_seen = self.mempool.first_seen
        # static policies: tx_id -> (ShardState, charge) pairs of a deferred tx
        pending_charges: dict = {}
        idle_rounds = 0
        round_index = 0
        while True:
            mempool_start = len(self.mempool)
            added = self.mempool.top_up(source, round_index)
            if len(self.mempool) == 0:
                break  # workload drained and nothing pending
            for shard in shards:
                shard.residual = shard.capacity_per_round
            loads = LiveLoads(shards)
            processed = 0
            migrations = 0
            cross = 0
            latencies = []
            cost_before = {s.id: s.window_sum for s in shards}
            for tx in self.mempool.drain():
                if static:
                    charges = pending_charges.get(tx.tx_id)
                    if charges is not None and _lacks_residual(charges):
                        retain(tx)
                        continue
                else:
                    # A scheduler plan charges its main shard, one of the
                    # placed accounts' shards, at least the base cost, so it
                    # cannot land while each of them has less residual.
                    fits = True
                    for acc in tx.write_set:
                        shard = assignment.get(acc)
                        if shard is not None:
                            fits = shards[shard].residual >= tx.base_cost
                            if fits:
                                break
                    if not fits:
                        retain(tx)
                        continue
                plan = self.plan(tx, loads)
                if blocked:
                    plan = self._veto(tx, plan)
                if self.try_execute(tx, plan, round_index) == EXECUTED:
                    processed += 1
                    migrations += len(plan.migrations)
                    if len(plan.final_shards) > 1:
                        cross += 1
                    latencies.append(round_index - first_seen.pop(tx.tx_id))
                    if static:
                        pending_charges.pop(tx.tx_id, None)
                else:
                    if static:
                        pending_charges[tx.tx_id] = [
                            (shards[s], c) for s, c in plan.per_shard_charges.items()
                        ]
                    retain(tx)
            self.reports.append(
                RoundReport(
                    round_index=round_index,
                    topped_up=added,
                    mempool_start=mempool_start,
                    mempool_end=len(self.mempool),
                    processed_count=processed,
                    processed_cost={s.id: s.window_sum - cost_before[s.id] for s in shards},
                    residuals={s.id: s.residual for s in shards},
                    migrations_executed=migrations,
                    cross_shard_tx_count=cross,
                    latency_samples=tuple(latencies),
                )
            )
            for shard in shards:
                shard.advance_block()
            self.book.advance_block()
            if self.ledger is not None and (round_index + 1) % config.epoch_length == 0:
                self.ledger.close_epoch()
            # After window + 1 rounds with no execution and no arrival every
            # load and alignment window is empty, so each later round would
            # repeat this one exactly.
            idle_rounds = 0 if processed or added else idle_rounds + 1
            if idle_rounds > config.window:
                head = self.mempool.head()
                raise Livelock(
                    f"round {round_index}: no transaction executed for {idle_rounds} rounds; "
                    f"head transaction {head.tx_id!r} (pending since round "
                    f"{self.mempool.first_seen[head.tx_id]}) can never be admitted"
                )
            round_index += 1
            if config.max_rounds is not None and round_index >= config.max_rounds:
                break
        if self.ledger is not None:
            self.ledger.close_epoch()  # flush the final (possibly partial) epoch
        return self.reports, finalize(
            self.reports, total_fees=self.ledger.total_fees() if self.ledger else 0
        )


def _lacks_residual(charges) -> bool:
    """True if some (ShardState, charge) pair's shard cannot take its charge."""
    for shard, charge in charges:
        if shard.residual < charge:
            return True
    return False


def finalize(reports, total_fees: int = 0) -> FinalSummary:
    if not reports:
        raise EmptyRun("no rounds were executed")
    executed = sum(r.processed_count for r in reports)
    migrations = sum(r.migrations_executed for r in reports)
    cross = sum(r.cross_shard_tx_count for r in reports)
    wasted = sum(sum(r.residuals.values()) for r in reports)
    latencies = [sample for r in reports for sample in r.latency_samples]
    return FinalSummary(
        rounds=len(reports),
        executed=executed,
        migrations=migrations,
        cross_shard_txs=cross,
        throughput=executed / len(reports),
        latency=(sum(latencies) / len(latencies)) if latencies else 0.0,
        wasted_capacity=wasted,
        # each migration is accounted as one extra cross-shard transaction
        cross_shard_ratio=((cross + migrations) / executed) if executed else 0.0,
        total_fees=total_fees,
    )


def run(config: SimConfig, workload, initial_assignment=None, accounts=None):
    """Convenience wrapper: build a Simulation and run it to completion."""
    sim = Simulation(config, workload, initial_assignment=initial_assignment, accounts=accounts)
    return sim.run()
