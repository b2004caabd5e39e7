"""End-to-end acceptance criteria.

Each criterion's test prints one `criterion N (...): PASS|FAIL` line
(outside pytest's capture) and then asserts, so a plain
`pytest tests/test_acceptance.py` shows the full scorecard.  The two
unnumbered tests widen criterion 9's draw and keep perfbench's copy of the
headline experiment equal to `experiments/headline.cfg`.
"""

import itertools
import os
import random
from pathlib import Path

import pytest

from shardsim import Account, SimConfig, Simulation, Transaction, run
from shardsim.cli import (
    build_parser,
    build_workload,
    make_config,
    resolve_settings,
    workload_source,
)
from shardsim.cli import main as cli_main
from shardsim.economics import (
    FEE_SCHEMES,
    NAIVE,
    ShardDeposit,
    EpochAssignment,
    cash_in,
    miner_ids,
    record_fee,
    shuffle_epoch,
)
from shardsim.partitioner import partition_greedy
from shardsim.policies import MODES, POLICY_KINDS, SchedulerPolicy
from shardsim.core import CA, AlignmentBook, CostModel
from shardsim.workload import SyntheticSpec, generate

from oracles import cut_weight, expected_reward, partition_bruteforce


@pytest.fixture
def announce(capsys):
    def _announce(number, label, ok):
        with capsys.disabled():
            print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    return _announce


EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"


def _experiment_settings(name, seed=0):
    """The settings `shardsim run --config experiments/<name>.cfg --seed <seed>`
    resolves, through the CLI's own code."""
    args = build_parser().parse_args(
        ["run", "--config", str(EXPERIMENTS / f"{name}.cfg"), "--seed", str(seed),
         "--out", os.devnull])
    return resolve_settings(args)


def test_perfbench_headline_spec_matches_the_experiment(monkeypatch):
    # perfbench/run.py still writes the headline spec out itself; this keeps
    # its copy equal to experiments/headline.cfg until it reads the file
    monkeypatch.syspath_prepend(str(EXPERIMENTS.parent / "perfbench"))
    from run import headline_spec

    for seed in (0, 1):
        assert headline_spec(seed) == workload_source(_experiment_settings("headline", seed))


HEADLINE_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def headline_runs():
    """Scheduler vs hash summaries of the headline experiment for k in
    {8, 16, 32}, seeds 0..4."""
    results = {}
    for seed in HEADLINE_SEEDS:
        settings = _experiment_settings("headline", seed)
        workload, _ = build_workload(workload_source(settings))
        for k in (8, 16, 32):
            for policy in ("scheduler", "hash"):
                cfg = make_config(dict(settings, shards=k, policy=policy))
                _, summary = run(cfg, workload)
                results[(seed, k, policy)] = summary
    return results


# ---------------------------------------------------------------------------
# 1. three-shard cash-in example is exact


def test_criterion_1_cash_in_exact(announce):
    deposits = [ShardDeposit() for _ in range(3)]
    prev = EpochAssignment({"m0": 0, "m1": 1, "m2": 1, "m3": 2})
    record_fee(deposits[0], "m0", 100)
    record_fee(deposits[1], "m1", 5)   # 10% of shard 1's 50 coins
    record_fee(deposits[1], "m2", 45)
    record_fee(deposits[2], "m3", 50)
    new = EpochAssignment({"m0": 0, "m1": 2, "m2": 1, "m3": 1})
    payout = cash_in("m1", deposits, prev, new)
    ok = payout == 5.0
    announce(1, "three-shard cash-in example", ok)
    assert ok, payout


# ---------------------------------------------------------------------------
# 2. expected-reward law under uniform reshuffling


def test_criterion_2_expected_reward_law(announce):
    n_shuffles = 100_000
    ok = True
    details = []
    for k in (2, 4, 16):
        miners = miner_ids(k, 3)
        deposits = [ShardDeposit() for _ in range(k)]
        prev = shuffle_epoch(miners, k, 0, seed=0)
        rng = random.Random(k)
        for s in range(k):
            for m in prev.miners_of(s):
                record_fee(deposits[s], m, rng.randint(5, 50))
        miner = prev.miners_of(0)[0]
        fraction = deposits[0].fraction(miner)
        total = sum(d.total for d in deposits)
        mean = sum(
            cash_in(miner, deposits, prev, shuffle_epoch(miners, k, 1, seed=i))
            for i in range(n_shuffles)
        ) / n_shuffles
        target = expected_reward(fraction, total, k)
        details.append((k, mean, target))
        ok &= abs(mean - target) <= 0.02 * target
    announce(2, "expected reward f*x_tot/k", ok)
    assert ok, details


# ---------------------------------------------------------------------------
# 3. throughput: scheduler beats hash, gap grows with shard count


def test_criterion_3_throughput_trend(announce, headline_runs):
    ok = True
    for seed in HEADLINE_SEEDS:
        gap = {}
        for k in (8, 16, 32):
            sched = headline_runs[(seed, k, "scheduler")].throughput
            hashed = headline_runs[(seed, k, "hash")].throughput
            gap[k] = sched - hashed
            ok &= sched > hashed
        ok &= gap[32] > gap[8]
    announce(3, "throughput gap widens with k", ok)
    assert ok


# ---------------------------------------------------------------------------
# 4. scheduler cross-shard ratio adapts to the cross-shard cost


def test_criterion_4_cross_ratio_adaptivity(announce):
    settings = _experiment_settings("cross_cost")
    workload, _ = build_workload(workload_source(settings))
    sched, hashed = [], []
    for c in (1, 2, 4, 6, 8, 10):
        _, s = run(make_config(dict(settings, cross_cost=c, policy="scheduler")), workload)
        _, h = run(make_config(dict(settings, cross_cost=c, policy="hash")), workload)
        sched.append(s.cross_shard_ratio)
        hashed.append(h.cross_shard_ratio)
    nonincreasing = all(b - a <= 0.005 for a, b in zip(sched, sched[1:]))
    hash_flat = max(hashed) - min(hashed) < 0.005
    ok = nonincreasing and hash_flat
    announce(4, "cross-ratio nonincreasing in c_cross", ok)
    assert ok, (sched, hashed)


# ---------------------------------------------------------------------------
# 5. wasted capacity: scheduler below hash at 16 shards


def test_criterion_5_wasted_capacity(announce, headline_runs):
    ok = all(
        headline_runs[(seed, 16, "scheduler")].wasted_capacity
        < headline_runs[(seed, 16, "hash")].wasted_capacity
        for seed in HEADLINE_SEEDS
    )
    announce(5, "scheduler wastes less capacity at k=16", ok)
    assert ok


# ---------------------------------------------------------------------------
# 6. hash collision law on uniform random pair workloads


def test_criterion_6_hash_collision_law(announce):
    rng = random.Random(123)
    accounts = ["%040x" % rng.getrandbits(160) for _ in range(5000)]
    txs = [
        Transaction(f"t{i}", i, tuple(rng.sample(accounts, 2)))
        for i in range(100_000)
    ]
    ok = True
    measured = {}
    for k in (2, 8, 16):
        _, summary = run(SimConfig(k_shards=k, policy="hash"), txs)
        measured[k] = summary.cross_shard_ratio
        ok &= abs(measured[k] - (1 - 1 / k)) <= 0.03
    announce(6, "hash cross ratio = 1 - 1/k", ok)
    assert ok, measured


# ---------------------------------------------------------------------------
# 7. greedy partitioner vs exact enumeration


def test_criterion_7_partitioner_oracle(announce):
    rng = random.Random(42)
    ok = True
    for trial in range(200):
        n = rng.randint(2, 10)
        names = [f"v{i}" for i in range(n)]
        g = {v: {} for v in names}
        for u, v in itertools.combinations(names, 2):
            if rng.random() < 0.45:
                g[u][v] = g[v][u] = rng.randint(1, 9)
        k = 2 if n < 6 else rng.choice((2, 3))
        cap = -(-n // k) + rng.randint(0, 1)
        exact = cut_weight(g, partition_bruteforce(g, k, cap))
        greedy = cut_weight(g, partition_greedy(g, k, cap, seed=trial))
        ok &= greedy >= exact
    # planted structure: two cliques joined by one bridge must cut exactly it
    for size in (3, 4, 5, 6):
        left = [f"l{i}" for i in range(size)]
        right = [f"r{i}" for i in range(size)]
        g = {v: {} for v in left + right}
        for group in (left, right):
            for u, v in itertools.combinations(group, 2):
                g[u][v] = g[v][u] = 1
        g[left[0]][right[0]] = g[right[0]][left[0]] = 1
        ok &= cut_weight(g, partition_greedy(g, 2, size, seed=0)) == 1
    announce(7, "greedy cut vs brute-force oracle", ok)
    assert ok


# ---------------------------------------------------------------------------
# 8. determinism: byte-identical CSVs and replayable plans


class _FrozenBook:
    def __init__(self, totals):
        self._totals = totals

    def totals(self, account):
        return self._totals.get(account, (0, 0))


class _RecordingSimulation(Simulation):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.records = []

    def plan(self, tx, placed, loads):
        snapshot = (
            placed,
            {s: loads[s] for s in loads.keys()},
            {a: tuple(self.book.totals(a)) for a in tx.write_set},
        )
        plan = super().plan(tx, placed, loads)
        self.records.append((tx, snapshot, plan))
        return plan


def test_criterion_8_determinism(announce, tmp_path):
    args = lambda out: [
        "run", "--synthetic", "communities", "--policy", "scheduler",
        "--shards", "8", "--capacity", "50", "--seed", "13", "--economics",
        "--out", str(out),
    ]
    assert cli_main(args(tmp_path / "a")) == 0
    assert cli_main(args(tmp_path / "b")) == 0
    byte_identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("summary.csv", "rounds.csv", "epochs.csv")
    )

    # every recorded plan replays identically from its snapshots
    workload = generate(SyntheticSpec(generator="communities", n_accounts=300,
                                      n_txs=2000, seed=5, n_communities=30,
                                      p_inter=0.2))
    sim = _RecordingSimulation(
        SimConfig(k_shards=4, shard_capacity=50, policy="scheduler"), workload
    )
    sim.run()
    replayable = bool(sim.records)
    for tx, (placed, loads, totals), recorded in sim.records:
        replayed = sim.policy.plan(
            tx, placed, loads, _FrozenBook(totals),
            sim.cost_model, accounts=sim.accounts,
        )
        replayable &= replayed == recorded
    ok = byte_identical and replayable
    announce(8, "byte-identical reruns, replayable plans", ok)
    assert ok, (byte_identical, replayable)


# ---------------------------------------------------------------------------
# 9. conservation and safety invariants under fuzzing


def test_criterion_9_invariant_fuzzing(announce):
    master = random.Random(2024)
    cases = 0
    ok = True
    for _ in range(600):
        rng = random.Random(master.getrandbits(32))
        k = rng.choice((1, 2, 4))
        capacity = rng.randint(8, 16)
        accounts = [f"f{i:02d}" for i in range(rng.randint(2, 12))]
        txs = []
        for i in range(rng.randint(1, 50)):
            size = rng.randint(1, min(3, len(accounts)))
            txs.append(Transaction(f"t{i}", i, tuple(rng.sample(accounts, size))))
        cfg = SimConfig(k_shards=k, shard_capacity=capacity,
                        policy=rng.choice(("hash", "scheduler")),
                        cross_shard_cost=rng.randint(1, 2),
                        seed=rng.randrange(2 ** 16), max_rounds=500)
        sim = Simulation(cfg, txs)

        migration_alignment_ok = True
        original = sim.try_execute

        def checked(tx, plan):
            outcome = original(tx, plan)
            if outcome == "executed":
                charge = sim.cost_model.per_shard_charge(
                    tx.base_cost, len(plan.final_shards))
                shards = [sim.assignment[a] for a in tx.write_set]
                for mig in plan.migrations:
                    # post-migration alignment holds only this tx's update:
                    # charge per other account on main, the account's new
                    # shard, toward its own shard, and per account elsewhere
                    # toward the rest
                    on_main = shards.count(mig.dest)
                    nonlocal migration_alignment_ok
                    migration_alignment_ok &= tuple(sim.book.totals(mig.account)) == (
                        charge * (on_main - 1), charge * (len(shards) - on_main))
            return outcome

        sim.try_execute = checked
        reports, summary = sim.run()
        ok &= summary.executed == len(txs)
        ok &= migration_alignment_ok
        for r in reports:
            cases += 1
            ok &= r.mempool_start + r.topped_up == r.processed_count + r.mempool_end
            for s, residual in r.residuals.items():
                ok &= 0 <= residual <= capacity
                ok &= r.processed_cost[s] + residual == capacity
    ok &= cases >= 1000  # at least 10^3 checked round-cases
    announce(9, "conservation invariants under fuzzing", ok)
    assert ok, cases


def test_invariant_fuzzing_wide_draw():
    """Criterion 9's invariants, plus fee conservation, over every policy and
    mode, contract accounts, refusing shards and both fee schemes."""
    master = random.Random(2025)
    cases = migrations = deferrals = 0
    for _ in range(600):
        rng = random.Random(master.getrandbits(32))
        k = rng.choice((1, 2, 4))
        c_cross = rng.randint(1, 3)
        # the worst plan, two contract accounts of size 3 migrating into a
        # cross-shard main shard, charges it 8 * c_cross: every round admits
        # its first plan, so the run drains
        capacity = rng.randint(8 * c_cross, 8 * c_cross + 8)
        accounts = [f"f{i:02d}" for i in range(rng.randint(2, 12))]
        contracts = {a: Account(a, CA, size=rng.randint(1, 3))
                     for a in rng.sample(accounts, rng.randint(0, len(accounts)))}
        txs = []
        for i in range(rng.randint(1, 60)):
            size = rng.randint(1, min(3, len(accounts)))
            txs.append(Transaction(f"t{i}", i, tuple(rng.sample(accounts, size)),
                                   fee=rng.randint(0, 5), base_cost=rng.randint(1, 2)))
        cfg = SimConfig(
            k_shards=k, shard_capacity=capacity, cross_shard_cost=c_cross,
            policy=rng.choice(POLICY_KINDS), mode=rng.choice(MODES),
            ca_migration=rng.random() < 0.5,
            refuse_migrations_from=frozenset(rng.sample(range(k), rng.randint(0, k - 1))),
            mempool_ratio=rng.choice((0.05, 0.2, 1.0)), window=rng.randint(1, 5),
            economics=True, fee_scheme=rng.choice(FEE_SCHEMES),
            epoch_length=rng.randint(1, 4), miners_per_shard=rng.randint(1, 2),
            default_fee=rng.randint(0, 2), seed=rng.randrange(2 ** 16),
        )
        sim = Simulation(cfg, txs, accounts=contracts)
        reports, summary = sim.run()
        assert summary.executed == len(txs)
        for r in reports:
            cases += 1
            deferrals += r.mempool_end
            assert r.mempool_start + r.topped_up == r.processed_count + r.mempool_end
            for shard, residual in r.residuals.items():
                assert 0 <= residual <= capacity
                assert r.processed_cost[shard] + residual == capacity
        migrations += summary.migrations
        fees = sum(tx.fee or cfg.default_fee for tx in txs)
        assert summary.total_fees == sum(sim.ledger.shard_collected.values()) == fees
        if cfg.fee_scheme == NAIVE:
            assert sum(sim.ledger.balances.values()) == fees
    # the draw reaches deferral and migration, not only trivial runs
    assert cases >= 1000 and deferrals and migrations, (cases, deferrals, migrations)


# ---------------------------------------------------------------------------
# 10. hand-simulated micro-scenarios


def test_criterion_10_micro_scenarios(announce):
    # (a) one shard, capacity 2, five unit transactions
    txs = [Transaction(f"t{i}", i, (f"m{i}".encode().hex(),)) for i in range(5)]
    cfg = SimConfig(k_shards=1, shard_capacity=2, mempool_ratio=2.5, policy="hash")
    _, summary = run(cfg, txs)
    micro_ok = (
        summary.rounds == 3
        and summary.executed == 5
        and summary.throughput == pytest.approx(5 / 3)
        and summary.latency == pytest.approx(0.8)
        and summary.wasted_capacity == 1
        and summary.cross_shard_ratio == 0.0
    )

    # (b) worked scheduler plan: main shard selection plus one migration
    book = AlignmentBook(10)
    book.add("aa", 1, 8)  # 1 toward its own shard 0, 8 toward the rest
    plan = SchedulerPolicy().plan(
        Transaction("t0", 0, ("aa", "bb")), (0, 1), {0: 90, 1: 20}, book, CostModel(2)
    )
    plan_ok = (
        plan.new_placements == {}
        and len(plan.migrations) == 1
        and plan.migrations[0].account == "aa"
        and plan.migrations[0].source == 0
        and plan.migrations[0].dest == 1
        and plan.migrations[0].cost == 2
        and plan.final_shards == frozenset({1})
        and plan.per_shard_charges == {1: 1}
    )
    ok = micro_ok and plan_ok
    announce(10, "hand-simulated micro-scenarios", ok)
    assert ok, (micro_ok, plan_ok)
