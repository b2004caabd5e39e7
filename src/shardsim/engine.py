"""Round-based simulation loop.

Each round tops up the fixed-size FIFO mempool from the workload, then admits
pending transactions in arrival order against each shard's residual capacity,
which is full again once the block advances.  Each is admitted atomically
under its plan: the transaction charge plus all enabling migration charges
either land together or not at all, and the scheduler's placements and
migrations are written into the account-to-shard dict, Simulation.assignment,
only then.  The scheduler plans against snapshots of that dict and the live
shard loads.  Deferred transactions stay in the mempool in arrival order.

Every policy walks the one mempool queue in arrival order and skips work
whose outcome is already decided.  The scheduler is the one policy object;
the static hash and partition baselines never plan or migrate.  Under them
every workload account is placed before round 0 and keeps that shard for the
whole run: its initial shard, else its partition table shard under partition,
else hash_place(account, k).  The partition table's co-occurrence graph and
partition are built with the cyclic collector paused (core.collector_paused):
both are acyclic, and the collections their construction triggered freed 0
objects.  Each round files its static arrivals into lanes keyed by their
footprint: the set of shards and the base cost, which fixes the per-shard
charge.  An arrival finds its lane by one lookup of its ordered key: the
shard of each account in write-set order, then the base cost.  Each lane has
one shared plan, and a lane queue beside the mempool queue holds each
retained transaction's lane in the same order.  Once a transaction is
deferred its lane is blocked for the round and its later transactions are
retained without being offered, because residuals only fall within a round,
so every later transaction of that footprint would be deferred too.  Only the
static policies use lanes; each caller of _lane builds the ordered key once
and hands it over.  Under the scheduler _admit_fifo reads each write set's
shards once.  A write set placed on one shard runs there with no placement,
migration or cross-shard charge, so it is admitted inline, with no plan: it is
retained while that shard's residual is below its base cost, and otherwise
charges the shard its base cost, adds base_cost * (n - 1) to each account's
own-shard alignment through one AlignmentBook.add_each call, adds its fee to the
shard's round tally and leaves the cross-shard and migration tallies as they
are.  Every other write set's shards go to Simulation.plan, which hands them
to SchedulerPolicy.plan, and its plan to try_execute; such a transaction waits
unplanned while every shard of its placed accounts has less residual than its
base cost, which the main shard is always charged.  The alignment book is
maintained only under the scheduler, the one policy that reads it.  A run
whose state stops changing raises Livelock instead of spinning.

Admission reuses what the plan already holds: a plan charges one amount,
plan.charge, on each of its final shards, so a plan without migrations, every
lane plan among them, is refused if any final shard has less residual than
that charge and otherwise lowers each by it, with no per-plan dict; only a
plan with migrations builds the per-shard amounts it requires, adding each
migration's cost on its source and its destination; the alignment update is
given the plan's final shards, and on one final shard, where every account
then is, it reads no account's shard; and a fee with one final shard goes to
that shard without a split.

Admission records what it admits: try_execute adds each admitted plan's
migrations to the round's migration tally and, when the plan has more than one
final shard, one to its cross-shard tally, and run() writes both into the
round report and zeroes them.  Fees are credited once per shard per round:
admission adds each fee share to the round's per-shard tally, and run()
credits each shard's tally right after the round's admissions, before the
round report, an epoch close, Livelock or the max_rounds exit.  This is exact
because a shard's leader is fixed by the epoch assignment, the shard and the
round, and deposits, contributions, collected fees and naive-scheme balances
are all sums of integers (the balances are integer-valued floats far below
2**53, so their sums do not depend on grouping).

Each offer calls try_execute looked up on the instance, so a traced or
overridden try_execute still runs, and a Simulation stores no bound method or
closure over itself: it holds no reference cycle, so reference counting frees
it, with its workload, once its last reference goes.  A benchmark that builds
one Simulation after another relies on that for its peak memory, instead of on
a full collection.

SimConfig.validate rejects, with a ConfigError naming the field or shard, a
field of the wrong type, a negative seed and a refused shard outside [0, k).
Simulation takes the workload as a list or tuple of transactions, because
set-up walks it before run() walks it again, and refuses any other type, such
as a generator, naming that type.  It is the one gate for every field of a
transaction or account that the run reads; it refuses with a ConfigError,
naming the tx_id, the first of these: a field of the wrong type (tx_id a str,
write_set a tuple of str ids, fee and base_cost ints, never bool), a
write_set that is empty or repeats an account, a negative fee, a base_cost
below 1, or above shard_capacity, which no plan can admit as each charges its
main shard the base cost; then a repeated tx_id.  The run never reads
arrival_index, so it is not checked.  Naming the account: an initial account
that is not a str or whose shard is not an in-range int, and an accounts
entry that is not an Account under its own id with typed fields, either an
EOA of size 1 or a CA of size >= 1.  Last, naming the
tx_id, its shards, the charge and the capacity: a transaction whose
per-shard charge exceeds shard_capacity on shards that every plan of it
charges: under hash and partition the shards of its lane, and under the
scheduler the shards of its pinned accounts, those placed before the run
that SchedulerPolicy.never_migrates keeps in every plan's final shards.  So
only the scheduler can raise Livelock: a static head transaction fits every
round's full capacity.  A Simulation runs once: a second run() call raises
RuntimeError instead of replaying the workload into the same state.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import islice

from .core import (
    CA,
    EOA,
    Account,
    AlignmentBook,
    CostModel,
    ShardState,
    Transaction,
    collector_paused,
    field_type_error,
    update_alignments,
)
from .economics import DECOUPLED, FEE_SCHEMES, IncentiveLedger, split_fee
from .partitioner import graph_from_transactions, partition_greedy
from .policies import MODE_2PC, MODES, POLICY_KINDS, SchedulerPolicy, TxPlan, hash_place


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
        wrong_type = field_type_error(self)
        if wrong_type:
            raise ConfigError(wrong_type)
        for name in ("k_shards", "shard_capacity", "window", "cross_shard_cost",
                     "epoch_length", "miners_per_shard"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)!r}")
        # the mempool holds ceil(mempool_ratio * k_shards * shard_capacity) txs
        if not 0 < self.mempool_ratio * self.k_shards * self.shard_capacity < math.inf:
            raise ConfigError(f"mempool_ratio must be positive and finite, got {self.mempool_ratio!r}")
        if self.policy not in POLICY_KINDS:
            raise ConfigError(f"unknown policy {self.policy!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.fee_scheme not in FEE_SCHEMES:
            raise ConfigError(f"unknown fee scheme {self.fee_scheme!r}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ConfigError("max_rounds must be positive")
        for name in ("seed", "default_fee"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative, got {getattr(self, name)!r}")
        for shard in sorted(self.refuse_migrations_from, key=repr):
            if not isinstance(shard, int) or isinstance(shard, bool):
                raise ConfigError(f"refuse_migrations_from shard {shard!r} is not an int")
            if not 0 <= shard < self.k_shards:
                raise ConfigError(
                    f"refuse_migrations_from shard {shard} out of range [0, {self.k_shards})"
                )

    @property
    def mempool_size(self) -> int:
        return math.ceil(self.mempool_ratio * self.k_shards * self.shard_capacity)


class LiveLoads:
    """Read-through view of per-shard window load, including the current block.

    This is the one definition of a shard's window load: the closed blocks'
    sum plus the live block's load, capacity_per_round - residual.
    Publishing only the previous round's sums would send every placement of a
    round to the same argmin shard; folding in the charges applied so far
    keeps placement spread while staying fully deterministic.
    """

    def __init__(self, shards):
        self._shards = shards

    def __getitem__(self, shard_id):
        shard = self._shards[shard_id]
        return shard.closed_sum + shard.capacity_per_round - shard.residual

    def keys(self):
        return range(len(self._shards))


class Mempool:
    """Fixed-size FIFO of pending transactions.

    drain() hands a walk the pending queue and the bound append of a fresh
    one, through which the walk re-adds its deferred transactions in order.
    Under hash and partition the Simulation's lane queue holds each retained
    transaction's lane in this queue's order; the walk files the round's
    arrivals into it and rebuilds both.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.first_seen: dict = {}
        self._queue: deque = deque()

    def __len__(self):
        return len(self._queue)

    def top_up(self, source, round_index: int) -> int:
        arrivals = list(islice(source, self.capacity - len(self._queue)))
        self._queue.extend(arrivals)
        self.first_seen.update(dict.fromkeys([tx.tx_id for tx in arrivals], round_index))
        return len(arrivals)

    def drain(self):
        """(pending queue, append of the fresh queue that replaces it)."""
        queue, self._queue = self._queue, deque()
        return queue, self._queue.append

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


def footprint_plan(shards: frozenset, base_cost: int, cost_model: CostModel) -> TxPlan:
    """The plan of a transaction that runs on shards, where its accounts are."""
    return TxPlan(new_placements={}, migrations=(), final_shards=shards,
                  charge=cost_model.per_shard_charge(base_cost, len(shards)))


def _refusal(tx: Transaction, capacity: int) -> str | None:
    """The first reason, in the module docstring's order, to refuse tx, or None."""
    for name, kind in (("tx_id", str), ("write_set", tuple), ("fee", int), ("base_cost", int)):
        value = getattr(tx, name)
        if isinstance(value, bool) or not isinstance(value, kind):
            return f"{name} must be {kind.__name__}, got {value!r}"
    write_set, fee, cost = tx.write_set, tx.fee, tx.base_cost
    for acc in write_set:
        if not isinstance(acc, str):
            return f"write_set account {acc!r} is not a str"
    if not 0 < len(set(write_set)) == len(write_set):
        return f"write_set {write_set!r} is empty or repeats an account"
    if fee < 0:
        return f"fee must be nonnegative, got {fee}"
    if cost < 1:
        return f"base_cost must be positive, got {cost}"
    if cost > capacity:
        return f"base_cost {cost} exceeds shard_capacity {capacity}, so no plan can admit it"
    return None


class Simulation:
    """Single deterministic run of one policy over one workload."""

    def __init__(self, config: SimConfig, workload, initial_assignment=None, accounts=None):
        # set-up and run() each walk the workload, which a one-shot iterator cannot serve
        if not isinstance(workload, (list, tuple)):
            raise ConfigError(f"workload must be a list or tuple, got {type(workload).__name__}")
        config.validate()
        if not workload:
            raise ConfigError("workload must be nonempty")
        ids = []
        capacity = config.shard_capacity
        static = config.policy != "scheduler"
        # a cross-shard footprint is charged cost * cross_shard_cost per shard
        most = capacity // config.cross_shard_cost
        heavy = []  # transactions whose charge would exceed capacity if cross-shard
        is_str = str.__instancecheck__  # isinstance(x, str), mapped without a lambda
        for tx in workload:
            tx_id, write_set, fee, cost = tx.tx_id, tx.write_set, tx.fee, tx.base_cost
            ids.append(tx_id)
            # cheap tests; _refusal names the first bad field, or passes a heavy tx
            if not (type(tx_id) is str and type(write_set) is tuple and type(fee) is int
                    and type(cost) is int and fee >= 0 and 0 < cost <= most
                    and all(map(is_str, write_set)) and 0 < len(set(write_set)) == len(write_set)):
                refusal = _refusal(tx, capacity)
                if refusal:
                    raise ConfigError(f"transaction {tx_id!r}: {refusal}")
                if cost > most:
                    heavy.append(tx)
        if len(set(ids)) != len(ids):  # walk again only to name the first repeat
            seen = set()
            for tx_id in ids:
                if tx_id in seen:
                    raise ConfigError(f"duplicate tx_id {tx_id!r} in workload")
                seen.add(tx_id)
        self.config = config
        self.workload = workload
        self.cost_model = CostModel(config.cross_shard_cost)
        # account -> shard (phi); admission writes placements and migrations
        self.assignment: dict = dict(initial_assignment or {})
        for acc, shard in self.assignment.items():
            if not isinstance(acc, str):
                raise ConfigError(f"initial account {acc!r} is not a str")
            if not isinstance(shard, int) or isinstance(shard, bool):
                raise ConfigError(f"initial shard {shard!r} of account {acc!r} is not an int")
            if not 0 <= shard < config.k_shards:
                raise ConfigError(f"initial shard {shard} of account {acc!r} out of range")
        self.accounts = dict(accounts or {})  # account id -> Account (CA registry)
        for acc, account in self.accounts.items():
            if not isinstance(account, Account):
                raise ConfigError(f"account {acc!r}: expected an Account, got {account!r}")
            wrong_type = field_type_error(account)
            if wrong_type:
                raise ConfigError(f"account {acc!r}: {wrong_type}")
            if account.id != acc:
                raise ConfigError(f"account {acc!r}: Account id {account.id!r} differs from its key")
            kind, size = account.kind, account.size
            if not (kind == EOA and size == 1 or kind == CA and size >= 1):
                raise ConfigError(f"account {acc!r}: kind {kind!r} of size {size} is neither "
                                  f"an {EOA!r} of size 1 nor a {CA!r} of size >= 1")
        self.shards = [
            ShardState(config.shard_capacity, config.window) for _ in range(config.k_shards)
        ]
        self.book = AlignmentBook(config.window)
        # hash and partition never plan: each static account is placed here
        self.policy = None if static else SchedulerPolicy(
            config.mode, config.ca_migration, config.refuse_migrations_from
        )
        assignment = self.assignment
        if config.policy == "partition":  # the table covers every workload account
            for acc, shard in self._precompute_partition().items():
                if acc not in assignment:
                    assignment[acc] = shard
        elif static:
            for tx in workload:
                for acc in tx.write_set:
                    if acc not in assignment:
                        assignment[acc] = hash_place(acc, config.k_shards)
        # footprint or ordered key -> lane index (see _lane), and each lane's shared plan
        self._lanes: dict = {}
        self._lane_plans: list[TxPlan] = []
        self._lane_queue: deque = deque()  # the lane of each retained tx, in mempool order
        for tx in heavy:  # the shards that every admission of tx charges
            if static:
                ordered = (*map(assignment.get, tx.write_set), tx.base_cost)
                plan = self._lane_plans[self._lane(ordered)]
                shards, charge = plan.final_shards, plan.charge
            else:
                shards = {assignment[acc] for acc in tx.write_set if acc in assignment
                          and self.policy.never_migrates(assignment[acc], self.accounts.get(acc))}
                charge = self.cost_model.per_shard_charge(tx.base_cost, len(shards))
            if charge > capacity:
                raise ConfigError(f"transaction {tx.tx_id!r}: cross-shard charge {charge} on "
                                  f"{'' if static else 'pinned '}shards {sorted(shards)} exceeds "
                                  f"shard_capacity {capacity}, so it can never be admitted")
        self.mempool = Mempool(config.mempool_size)
        self.ledger = (
            IncentiveLedger(config.k_shards, config.miners_per_shard, config.seed, config.fee_scheme)
            if config.economics
            else None
        )
        # shard -> fees of the transactions admitted so far this round
        self._round_fees = [0] * config.k_shards if self.ledger is not None else None
        # the cross-shard executions and the migrations admitted so far this round
        self._round_cross = self._round_migrations = 0
        self.reports: list[RoundReport] = []

    @collector_paused()
    def _precompute_partition(self) -> dict:
        # The partition baseline reads the full workload before round 0.
        graph = graph_from_transactions(self.workload)
        cap = math.ceil(len(graph) / self.config.k_shards)
        return partition_greedy(graph, self.config.k_shards, cap, seed=self.config.seed)

    # -- execution ---------------------------------------------------------

    def plan(self, tx: Transaction, placed: tuple, loads: dict) -> TxPlan:
        """The scheduler's plan for tx, whose accounts sit on the shards
        placed, read once by _admit_fifo.  _admit_fifo calls it through the
        instance attribute, so a traced or overridden plan still runs."""
        return self.policy.plan(tx, placed, loads, self.book, self.cost_model,
                                accounts=self.accounts)

    def try_execute(self, tx: Transaction, plan: TxPlan) -> bool:
        """Admit tx under plan and return True, or defer it untouched and
        return False.

        A plan without migrations, every lane plan among them, is admitted
        iff each final shard has plan.charge left, and then each is lowered
        by it.  Only a plan with migrations builds the amounts it requires:
        the charge on each final shard plus each migration's cost on its
        source and its destination.  An admitted transaction is added to the
        round's tallies: its fee, its migrations and, if it runs on more than
        one shard, the cross-shard count.  run() reports and zeroes them at
        the end of the round's admissions.
        """
        shards = self.shards
        final, charge, migrations = plan.final_shards, plan.charge, plan.migrations
        if migrations:
            required = dict.fromkeys(final, charge)
            for m in migrations:
                required[m.source] = required.get(m.source, 0) + m.cost
                required[m.dest] = required.get(m.dest, 0) + m.cost
            for s, amount in required.items():
                if amount > shards[s].residual:
                    return False
            for s, amount in required.items():
                shards[s].residual -= amount
            for m in migrations:
                self.assignment[m.account] = m.dest
                self.book.reset(m.account)  # alignment is dropped on migration
            self._round_migrations += len(migrations)
        else:
            for s in final:
                if shards[s].residual < charge:
                    return False
            for s in final:
                shards[s].residual -= charge
        if plan.new_placements:  # lane plans have none
            self.assignment.update(plan.new_placements)
        if self.policy is not None:  # only the scheduler reads alignment
            update_alignments(tx, final, self.assignment, self.cost_model, self.book)
        fees = self._round_fees  # run() credits the round's fees once per shard
        if len(final) > 1:
            self._round_cross += 1
            if fees is not None:
                fee = tx.fee or self.config.default_fee
                for s, share in split_fee(fee, final).items():
                    fees[s] += share
        elif fees is not None:
            (shard,) = final
            fees[shard] += tx.fee or self.config.default_fee
        return True

    def _lane(self, ordered: tuple) -> int:
        """The index of the lane of a transaction's ordered key: the shard of
        each account in write-set order, then the base cost.  Its caller has
        built that key and missed it in the lane table: static admission for
        every arrival and the run-boundary refusal for a static heavy
        transaction.  The scheduler files no lanes: it admits a write set
        placed on one shard inline and plans every other.  The lane is keyed
        by its footprint, (frozen shard set, base cost).  For a fixed shard
        set the per-shard charge is a one-to-one function of the base cost,
        so these keys number the footprints exactly.  The lane is also cached
        under the ordered key, which no footprint key equals, so write sets
        that order the same shards differently share one lane."""
        shards, base_cost = frozenset(ordered[:-1]), ordered[-1]
        key = (shards, base_cost)
        lane = self._lanes.get(key)
        if lane is None:
            lane = self._lanes[key] = len(self._lane_plans)
            self._lane_plans.append(footprint_plan(shards, base_cost, self.cost_model))
        self._lanes[ordered] = lane
        return lane

    # -- round loop --------------------------------------------------------

    def _admit_lanes(self, round_index: int, latencies: list) -> None:
        """Admit the static policies' pending transactions in arrival order.

        Residuals only fall within a round, so once a transaction is deferred
        every later one of its lane, with the same shards and charge, would be
        deferred too: the lane is blocked and retained unoffered for the round.
        The round's arrivals are filed after the retained lanes, and the lane
        queue is rebuilt in lockstep with the retained transactions.
        """
        plans = self._lane_plans
        first_seen = self.mempool.first_seen
        try_execute = self.try_execute
        pending, retain = self.mempool.drain()
        lanes, self._lane_queue = self._lane_queue, deque()
        file_lane = lanes.append
        lane_of = self._lanes.get
        shard_of = self.assignment.get
        for tx in islice(pending, len(lanes), None):  # the round's arrivals
            ordered = (*map(shard_of, tx.write_set), tx.base_cost)
            lane = lane_of(ordered)
            file_lane(self._lane(ordered) if lane is None else lane)
        keep = self._lane_queue.append
        blocked = set()
        for tx, lane in zip(pending, lanes):
            if lane in blocked:
                retain(tx)
                keep(lane)
                continue
            if try_execute(tx, plans[lane]):
                latencies.append(round_index - first_seen.pop(tx.tx_id))
            else:
                blocked.add(lane)
                retain(tx)
                keep(lane)

    def _admit_fifo(self, round_index: int, latencies: list) -> None:
        """Admit the scheduler's pending transactions in arrival order: a
        write set placed on one shard inline, every other through its plan."""
        shards = self.shards
        shard_of = self.assignment.get
        first_seen = self.mempool.first_seen
        add_each = self.book.add_each
        fees = self._round_fees
        default_fee = self.config.default_fee
        # instance attributes, so a traced or overridden plan or try_execute still runs
        plan_of = self.plan
        try_execute = self.try_execute
        loads = LiveLoads(shards)
        pending, retain = self.mempool.drain()
        for tx in pending:
            write_set, cost = tx.write_set, tx.base_cost
            placed = (*map(shard_of, write_set),)
            own = placed[0]
            if own is not None and placed.count(own) == len(placed):
                # the one-shard plan: charge own the base cost, nothing else
                state = shards[own]
                if state.residual < cost:
                    retain(tx)
                    continue
                state.residual -= cost
                if len(write_set) > 1:
                    add_each(write_set, cost * (len(write_set) - 1))
                if fees is not None:
                    fees[own] += tx.fee or default_fee
                latencies.append(round_index - first_seen.pop(tx.tx_id))
                continue
            # A scheduler plan charges its main shard, one of the placed
            # accounts' shards, at least the base cost, so it cannot land
            # while each of them has less residual.
            fits = True
            for shard in placed:
                if shard is not None:
                    fits = shards[shard].residual >= cost
                    if fits:
                        break
            if not fits:
                retain(tx)
                continue
            if try_execute(tx, plan_of(tx, placed, loads)):
                latencies.append(round_index - first_seen.pop(tx.tx_id))
            else:
                retain(tx)

    def run(self):
        if self.reports:
            raise RuntimeError("this Simulation has already run; build a new one to run again")
        config = self.config
        source = iter(self.workload)
        admit = self._admit_lanes if self.policy is None else self._admit_fifo
        shards = self.shards
        ledger = self.ledger
        idle_rounds = 0
        round_index = 0
        while True:
            mempool_start = len(self.mempool)
            added = self.mempool.top_up(source, round_index)
            if len(self.mempool) == 0:
                break  # workload drained and nothing pending
            latencies = []
            admit(round_index, latencies)
            if ledger is not None:
                fees = self._round_fees
                for shard, fee in enumerate(fees):
                    if fee:
                        ledger.credit(shard, round_index, fee)
                        fees[shard] = 0
            processed = len(latencies)
            self.reports.append(
                RoundReport(
                    round_index=round_index,
                    topped_up=added,
                    mempool_start=mempool_start,
                    mempool_end=len(self.mempool),
                    processed_count=processed,
                    processed_cost={
                        i: s.capacity_per_round - s.residual for i, s in enumerate(shards)
                    },
                    residuals={i: s.residual for i, s in enumerate(shards)},
                    migrations_executed=self._round_migrations,
                    cross_shard_tx_count=self._round_cross,
                    latency_samples=tuple(latencies),
                )
            )
            self._round_cross = self._round_migrations = 0
            for shard in shards:
                shard.advance_block()
            self.book.advance_block()
            if ledger is not None and (round_index + 1) % config.epoch_length == 0:
                ledger.close_epoch()
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
        if ledger is not None and round_index % config.epoch_length:
            ledger.close_epoch()  # flush the final, partial epoch
        return self.reports, finalize(
            self.reports, total_fees=ledger.total_fees() if ledger else 0
        )


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
