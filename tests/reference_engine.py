"""Literal reference engine: the round semantics of all three policies.

Every round re-plans every pending transaction from scratch, in FIFO order,
with none of the engine's shortcuts (lanes, shared or skipped plans, the flat
alignment ring, per-round fee tallies) and against state kept here: per-shard
window loads; alignment as per-block buckets of (account, shard) -> amount,
filled by the ordered-pair rule, summed per shard and emptied of an account
when it migrates; and fee shares, remainder to the lowest shard, credited at
admission.  Nothing here comes from the alignment book, the alignment update,
the cost model or the fee split, so a fault in one cannot hide on both sides.
The book's two sums per account, toward its own shard and toward the rest,
are compared with these per-shard totals projected onto the account's
current shard (project); the migration rule reads the same projection.
"""

import math
import re
from dataclasses import dataclass
from itertools import islice

import pytest
from hypothesis import Phase
from hypothesis import strategies as st

from shardsim.core import CA, Account, Transaction
from shardsim.economics import FEE_SCHEMES, IncentiveLedger
from shardsim.engine import (
    ConfigError,
    LiveLoads,
    Livelock,
    RoundReport,
    SimConfig,
    Simulation,
    finalize,
)
from shardsim.partitioner import graph_from_transactions, partition_greedy
from shardsim.policies import MODES, hash_place

DRAINED, TRUNCATED, LIVELOCK, REFUSED = "drained", "truncated", "livelock", "refused"

# The differential tests skip Hypothesis's shrink phase: they generate the
# same examples, so a regression is still caught, but a failure is reported
# in seconds instead of after minutes of shrinking.
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


def pairwise_deltas(write_set, shard_of, charge) -> dict:
    """The ordered-pair rule: for every ordered pair (i, j) of distinct
    accounts, i gains charge toward j's shard."""
    deltas = {i: {} for i in write_set}
    for i in write_set:
        for j in write_set:
            if i != j:
                deltas[i][shard_of[j]] = deltas[i].get(shard_of[j], 0) + charge
    return deltas


def project(per_shard: dict, current) -> tuple:
    """(own, rest): per-shard alignment projected onto an account's current
    shard, the two sums the alignment book keeps."""
    own = per_shard.get(current, 0)
    return own, sum(per_shard.values()) - own


@dataclass
class ReferenceRun:
    outcome: str  # DRAINED, TRUNCATED, LIVELOCK or REFUSED
    culprit: tuple = ()  # REFUSED: (the ConfigError's reason,); LIVELOCK: (head, first seen)
    reports: list = ()
    ledger: IncentiveLedger | None = None
    mapping: dict | None = None  # the end state: account -> shard,
    loads: list | None = None  # each shard's window load,
    alignment: dict | None = None  # account -> shard -> in-window alignment


def _alignment(buckets) -> dict:
    """account -> shard -> its sum over the buckets."""
    totals = {}
    for bucket in buckets:
        for (a, s), amount in bucket.items():
            per_shard = totals.setdefault(a, {})
            per_shard[s] = per_shard.get(s, 0) + amount
    return totals


def _plan(cfg, tx, mapping, shard_of, loads, buckets, contracts):
    """(placements, migrations, final shards) of tx, from scratch.

    Static: every account is on its mapped shard, else on shard_of's.
    Scheduler: the main shard is the least-loaded shard of the placed
    accounts (of all shards if none is placed), ties to the lowest id; new
    accounts land on main; every other account migrates to main under mutex,
    stays if it is a contract account without contract migration, and
    otherwise migrates iff c * alignment(current) < alignment(elsewhere); a
    migration out of a refusing shard is dropped and its account stays.
    """
    if shard_of is not None:
        placements = {a: shard_of(a) for a in tx.write_set if a not in mapping}
        return placements, [], {mapping.get(a, placements.get(a)) for a in tx.write_set}
    c = cfg.cross_shard_cost
    placed = {mapping[a] for a in tx.write_set if a in mapping}
    main = min(placed or range(cfg.k_shards), key=lambda s: (sum(b[s] for b in loads), s))
    placements, migrations, final = {}, [], {main}
    for a in tx.write_set:
        current = mapping.get(a)
        if current is None:
            placements[a] = main
        elif current != main:
            if cfg.mode == "mutex":
                move = True
            elif a in contracts and not cfg.ca_migration:
                move = False
            else:
                own, rest = project(_alignment(buckets).get(a, {}), current)
                move = c * own < rest
            if move and current not in cfg.refuse_migrations_from:
                migrations.append((a, current, main, c * contracts.get(a, 1)))
            else:
                final.add(current)
    return placements, migrations, final


def reference_run(cfg, txs, initial, contracts) -> ReferenceRun:
    """Run txs under cfg literally; contracts maps contract accounts to sizes."""
    k, capacity, c, window = cfg.k_shards, cfg.shard_capacity, cfg.cross_shard_cost, cfg.window
    for tx in txs:  # every plan charges its main shard at least the base cost
        if tx.base_cost > capacity:
            return ReferenceRun(REFUSED, (f"{tx.tx_id!r}: base_cost {tx.base_cost} exceeds "
                                          f"shard_capacity {capacity}",))
    table = {}  # the partition baseline reads the whole workload before round 0
    if cfg.policy == "partition":
        graph = graph_from_transactions(txs)
        table = partition_greedy(graph, k, math.ceil(len(graph) / k), seed=cfg.seed)
    shard_of = None if cfg.policy == "scheduler" else lambda a: table.get(a, hash_place(a, k))
    mapping = dict(initial)
    # A static footprint never changes.  Under the scheduler an account placed
    # before the run on a refusing shard, or a contract account under 2pc
    # without contract migration, never moves, and a plan keeps every such
    # account on its shard.
    for tx in txs:
        if shard_of is not None:
            shards, where = {mapping.get(a, shard_of(a)) for a in tx.write_set}, "shards"
        else:
            shards, where = {mapping[a] for a in tx.write_set if a in mapping and (
                mapping[a] in cfg.refuse_migrations_from
                or cfg.mode == "2pc" and not cfg.ca_migration and a in contracts)}, "pinned shards"
        if len(shards) > 1 and tx.base_cost * c > capacity:
            return ReferenceRun(REFUSED, (f"{tx.tx_id!r}: cross-shard charge {tx.base_cost * c} "
                                          f"on {where} {sorted(shards)} exceeds "
                                          f"shard_capacity {capacity}",))
    loads = [[0] * k for _ in range(window)]  # per block, each shard's charges
    buckets = [{} for _ in range(window)]  # per block, (account, shard) -> alignment
    ledger = (IncentiveLedger(k, cfg.miners_per_shard, cfg.seed, cfg.fee_scheme)
              if cfg.economics else None)
    source = iter(txs)
    pending, first_seen, reports = [], {}, []
    idle = round_index = executed = 0
    outcome, culprit = None, ()
    while True:
        start = len(pending)
        arrivals = list(islice(source, math.ceil(cfg.mempool_ratio * k * capacity) - start))
        first_seen.update((tx.tx_id, round_index) for tx in arrivals)
        pending += arrivals
        if not pending:
            break
        residual = [capacity] * k
        deferred, latencies, cross, moved = [], [], 0, 0
        for tx in pending:
            placements, migrations, final = _plan(
                cfg, tx, mapping, shard_of, loads, buckets, contracts)
            charge = tx.base_cost * (c if len(final) > 1 else 1)
            required = [charge if s in final else 0 for s in range(k)]
            for _, source_shard, dest, cost in migrations:
                required[source_shard] += cost
                required[dest] += cost
            if any(residual[s] < required[s] for s in range(k)):
                deferred.append(tx)
                continue
            for s in range(k):
                residual[s] -= required[s]
                loads[-1][s] += required[s]
            mapping.update(placements)
            for a, _, dest, _ in migrations:  # alignment is dropped on migration
                mapping[a] = dest
                buckets = [{key: v for key, v in b.items() if key[0] != a} for b in buckets]
            for a, deltas in pairwise_deltas(tx.write_set, mapping, charge).items():
                for s, amount in deltas.items():
                    buckets[-1][a, s] = buckets[-1].get((a, s), 0) + amount
            if ledger is not None:
                order = sorted(final)
                share, remainder = divmod(tx.fee or cfg.default_fee, len(order))
                for s in order:  # credit ignores a zero share
                    ledger.credit(s, round_index, share + (remainder if s == order[0] else 0))
            moved += len(migrations)
            cross += len(final) > 1
            latencies.append(round_index - first_seen.pop(tx.tx_id))
        pending = deferred
        executed += len(latencies)
        reports.append(RoundReport(
            round_index, len(arrivals), start, len(pending), len(latencies),
            {s: capacity - r for s, r in enumerate(residual)}, dict(enumerate(residual)),
            moved, cross, tuple(latencies),
        ))
        loads, buckets = loads[1:] + [[0] * k], buckets[1:] + [{}]
        if ledger is not None and (round_index + 1) % cfg.epoch_length == 0:
            ledger.close_epoch()
        idle = 0 if latencies or arrivals else idle + 1
        if idle > window:
            outcome, culprit = LIVELOCK, (pending[0].tx_id, first_seen[pending[0].tx_id])
            break
        round_index += 1
        if cfg.max_rounds is not None and round_index >= cfg.max_rounds:
            break
    if ledger is not None and outcome is None and round_index % cfg.epoch_length:
        ledger.close_epoch()
    return ReferenceRun(
        outcome or (DRAINED if executed == len(txs) else TRUNCATED), culprit, reports,
        ledger, mapping, [sum(b[s] for b in loads) for s in range(k)], _alignment(buckets))


# Static cases draw base costs 1-3 against capacities 1-9, so some
# transactions can never be admitted, alone or across shards; one such
# transaction gets the whole run refused, so half the cases clamp base costs
# so that a cross-shard charge fits the capacity too, where base cost 1 can.
# Scheduler cases draw at least two accounts, most of them placed, so that
# plans span shards and migrate.  One in four pins two accounts on different
# shards before the run, each on a refusing shard or a contract account under
# 2pc without contract migration, and gives one transaction over both a base
# cost whose cross-shard charge exceeds the capacity.
_RANGES = {
    "static": dict(accounts=(1, 8), base_cost=(1, 3), capacity=(1, 9)),
    "scheduler": dict(accounts=(2, 6), base_cost=(1, 2), capacity=(1, 16)),
}


@st.composite
def engine_cases(draw, policies):
    """(cfg, txs, initial assignment, contract sizes) under one of policies."""
    policy = draw(st.sampled_from(policies))
    ranges = _RANGES["scheduler" if policy == "scheduler" else "static"]
    pinned = policy == "scheduler" and draw(st.integers(0, 3)) == 0
    k = draw(st.integers(1 + pinned, 4))
    accounts = [f"{i:02x}" for i in range(draw(st.integers(*ranges["accounts"])))]
    write_sets = st.lists(st.sampled_from(accounts), min_size=1,
                          max_size=min(3, len(accounts)), unique=True).map(tuple)
    fees, base_costs = st.integers(0, 5), st.integers(*ranges["base_cost"])
    capacity, c = draw(st.integers(*ranges["capacity"])), draw(st.integers(1 + pinned, 3))
    most = max(1, capacity // c) if draw(st.booleans()) else math.inf
    txs = [
        Transaction(f"t{i}", i, draw(write_sets), fee=draw(fees),
                    base_cost=min(draw(base_costs), most))
        for i in range(draw(st.integers(1, 30)))
    ]
    shards = draw(st.lists(st.none() | st.integers(0, k - 1),
                           min_size=len(accounts), max_size=len(accounts)))
    initial = {a: s for a, s in zip(accounts, shards) if s is not None}
    contracts = draw(st.dictionaries(st.sampled_from(accounts), st.integers(1, 3)))
    mode, ca_migration = draw(st.sampled_from(MODES)), draw(st.booleans())
    refused = set(draw(st.sets(st.integers(0, k - 1), max_size=2)))
    if pinned:
        pair = draw(st.permutations(accounts))[:2]
        first = draw(st.integers(0, k - 1))
        second = (first + draw(st.integers(1, k - 1))) % k
        for a, s in zip(pair, (first, second)):
            initial[a] = s
            if draw(st.booleans()):
                refused.add(s)
            else:
                contracts.setdefault(a, 1)
                mode, ca_migration = "2pc", False
        i = draw(st.integers(0, len(txs) - 1))
        txs[i] = Transaction(f"t{i}", i, tuple(pair), fee=draw(fees),
                             base_cost=draw(st.integers(capacity // c + 1, capacity)))
    cfg = SimConfig(
        k_shards=k,
        policy=policy,
        mode=mode,
        ca_migration=ca_migration,
        refuse_migrations_from=frozenset(refused),
        cross_shard_cost=c,
        shard_capacity=capacity,
        mempool_ratio=draw(st.sampled_from([0.25, 0.5, 1.0, 2.0])),
        window=draw(st.integers(1, 3)),
        economics=draw(st.sampled_from([True, True, False])),
        fee_scheme=draw(st.sampled_from(FEE_SCHEMES)),
        epoch_length=draw(st.integers(1, 3)),
        miners_per_shard=draw(st.integers(1, 2)),
        default_fee=draw(st.integers(0, 2)),
        seed=draw(st.integers(0, 3)),
        max_rounds=draw(st.none() | st.integers(1, 12)),
    )
    return cfg, txs, initial, contracts


def check_engine_against_reference(case) -> str:
    """Assert that Simulation and the reference agree on one engine_cases
    case: refusal, Livelock, reports, summary, ledger and mapping.  Returns
    the reference's outcome."""
    cfg, txs, initial, contracts = case
    ref = reference_run(cfg, txs, initial, contracts)
    registry = {a: Account(a, kind=CA, size=size) for a, size in contracts.items()}
    if ref.outcome == REFUSED:
        with pytest.raises(ConfigError, match=re.escape(ref.culprit[0])):
            Simulation(cfg, txs, initial_assignment=initial, accounts=registry)
        return ref.outcome
    sim = Simulation(cfg, txs, initial_assignment=initial, accounts=registry)
    if ref.outcome == LIVELOCK:
        with pytest.raises(Livelock) as raised:
            sim.run()
        head, since = ref.culprit
        assert f"head transaction {head!r} (pending since round {since})" in str(raised.value)
    else:
        _, summary = sim.run()
        assert summary == finalize(ref.reports, ref.ledger.total_fees() if ref.ledger else 0)
    assert sim.reports == ref.reports
    loads = LiveLoads(sim.shards)
    assert [loads[s] for s in loads.keys()] == ref.loads
    if ref.ledger is not None:
        assert sim.ledger.epoch_rows == ref.ledger.epoch_rows
        assert sim.ledger.balances == ref.ledger.balances
        assert sim.ledger.shard_collected == ref.ledger.shard_collected
    if cfg.policy == "scheduler":
        assert sim.assignment == ref.mapping
        # every mapped account, those with zero sums included
        book = {a: tuple(sim.book.totals(a)) for a in ref.mapping}
        assert book == {a: project(ref.alignment.get(a, {}), shard)
                        for a, shard in ref.mapping.items()}
    else:  # the engine places every static account before round 0, the reference at admission
        assert sim.assignment.items() >= ref.mapping.items()
    return ref.outcome
