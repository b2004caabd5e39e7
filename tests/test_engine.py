"""Round loop: admission control, deferral, metrics, epoch wiring."""

import gc
import hashlib
import json
import math
from dataclasses import asdict, replace
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardsim import engine
from shardsim.core import CA, EOA, Account, Transaction
from shardsim.engine import (
    ConfigError,
    EmptyRun,
    LiveLoads,
    Livelock,
    Mempool,
    SimConfig,
    Simulation,
    finalize,
    run,
)
from shardsim.partitioner import Infeasible, graph_from_transactions, partition_greedy
from shardsim.policies import hash_place
from shardsim.workload import ParseError, SyntheticSpec, generate, load_trace

from reference_engine import (
    NO_SHRINK,
    check_engine_against_reference,
    engine_cases,
    reference_run,
)


def _unit_txs(n, accounts_per_tx=1, prefix="a"):
    txs = []
    for i in range(n):
        ws = tuple(f"{prefix}{i}x{j}".encode().hex() for j in range(accounts_per_tx))
        txs.append(Transaction(f"t{i}", i, ws))
    return txs


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    # each message names the field it refuses, from validate and again from
    # Simulation, the gate that core, policies and economics trust; a field
    # that only the ledger or the scheduler reads is refused where one is built
    for field, bad in (
        ("k_shards", dict(k_shards=0)),
        # the base-cost check names shard_capacity too, so match validate's words
        ("shard_capacity must be positive", dict(shard_capacity=0)),
        ("cross_shard_cost", dict(cross_shard_cost=0)),
        ("mempool_ratio", dict(mempool_ratio=0.0)),
        ("window", dict(window=0)),
        ("policy", dict(policy="nope")),
        ("mode", dict(policy="scheduler", mode="nope")),
        ("epoch_length", dict(economics=True, epoch_length=0)),
        ("miners_per_shard", dict(economics=True, miners_per_shard=0)),
        ("fee scheme", dict(economics=True, fee_scheme="nope")),
        ("max_rounds", dict(max_rounds=0)),
        ("default_fee", dict(economics=True, default_fee=-3)),
        ("seed", dict(seed=-1)),
    ):
        with pytest.raises(ConfigError, match=field):
            SimConfig(**bad).validate()
        with pytest.raises(ConfigError, match=field):
            Simulation(SimConfig(**bad), _pair_workload())
    SimConfig(economics=True, default_fee=0).validate()
    SimConfig(mempool_ratio=2, refuse_migrations_from=frozenset({0, 15})).validate()


_WRONG_CONFIGS = {
    "shard_capacity": dict(shard_capacity=2.5),
    "cross_shard_cost": dict(cross_shard_cost=1.5),
    "k_shards": dict(k_shards=2.0),
    "k_shards must be int, got True": dict(k_shards=True),
    "max_rounds": dict(max_rounds=3.0),
    "mempool_ratio": dict(mempool_ratio=True),
    "economics": dict(economics=1),
    "shard 4": dict(k_shards=4, refuse_migrations_from=frozenset({4})),
    "shard -1": dict(k_shards=4, refuse_migrations_from=frozenset({-1})),
    "shard '0'": dict(refuse_migrations_from=frozenset({"0"})),
}


@pytest.mark.parametrize("named", sorted(_WRONG_CONFIGS))
def test_config_rejects_wrong_types_and_shards(named):
    with pytest.raises(ConfigError, match=named):
        SimConfig(**_WRONG_CONFIGS[named]).validate()


@pytest.mark.parametrize("ratio", [float("nan"), float("inf"), 1e308])
def test_config_rejects_non_finite_mempool_ratio(ratio):
    # before, Simulation(...) failed in mempool_size with ValueError/OverflowError
    with pytest.raises(ConfigError, match="mempool_ratio"):
        Simulation(SimConfig(k_shards=2, mempool_ratio=ratio), _pair_workload())


def _pair_workload():
    return [Transaction("t0", 0, ("aa", "bb"))]


@pytest.mark.parametrize("policy", ["hash", "partition", "scheduler"])
def test_one_shot_workload_is_refused(policy):
    # set-up walks the workload before run() does; a generator ran nothing
    txs = [Transaction(f"t{i}", i, (f"a{i % 7}", f"a{(i + 3) % 7}")) for i in range(20)]
    cfg = SimConfig(k_shards=2, shard_capacity=10, policy=policy)
    with pytest.raises(ConfigError, match="got generator"):
        Simulation(cfg, (tx for tx in txs))
    _, summary = Simulation(cfg, tuple(txs)).run()
    assert summary.executed == 20


def test_accounts_value_must_be_an_account():
    cfg = SimConfig(k_shards=2, policy="scheduler")
    with pytest.raises(ConfigError, match="'aa'"):
        Simulation(cfg, _pair_workload(), initial_assignment={"aa": 0, "bb": 1},
                   accounts={"aa": "ca"})


def test_account_id_must_match_its_key():
    with pytest.raises(ConfigError, match="'aa'.*'bb'"):
        Simulation(SimConfig(k_shards=2), _pair_workload(), accounts={"aa": Account("bb", CA)})


@pytest.mark.parametrize(
    "fields, problem",
    [
        (dict(kind="contract"), "kind 'contract' of size 1 is neither"),
        (dict(kind=EOA, size=3), "kind 'eoa' of size 3 is neither"),
        (dict(kind=CA, size=0), "kind 'ca' of size 0 is neither"),
        (dict(kind=CA, size=2.0), "size must be int"),
        (dict(id=7, kind=CA), "id must be str"),
    ],
    ids=["unknown-kind", "large-eoa", "empty-ca", "float-size", "int-id"],
)
def test_account_fields_are_checked(fields, problem):
    # before this check a "contract" account of size 3 ran: never pinned as a
    # contract account, yet charged the contract rate for each migration
    account = Account(**{"id": "aa", **fields})
    with pytest.raises(ConfigError, match=f"account 'aa': {problem}"):
        Simulation(SimConfig(k_shards=2), _pair_workload(), accounts={"aa": account})


def test_initial_shard_must_be_an_int():
    # each error names the account; a non-str key is refused, not kept beside
    # the str account it may resemble
    for initial, name in [({"aa": 1.5}, "'aa'"), ({5: 0}, "5"), ({b"aa": 1}, "b'aa'")]:
        with pytest.raises(ConfigError, match=f"account {name} "):
            Simulation(SimConfig(k_shards=2), _pair_workload(), initial_assignment=initial)


def test_mempool_size_formula():
    assert SimConfig(k_shards=16, shard_capacity=200).mempool_size == 3200
    assert SimConfig(k_shards=3, shard_capacity=7, mempool_ratio=0.5).mempool_size == 11
    assert SimConfig(k_shards=1, shard_capacity=2, mempool_ratio=2.5).mempool_size == 5


def test_empty_workload_rejected():
    with pytest.raises(ConfigError):
        Simulation(SimConfig(), [])


def test_duplicate_tx_ids_rejected():
    txs = _unit_txs(3) + [Transaction("t1", 3, ("ab",))]
    with pytest.raises(ConfigError, match="'t1'"):
        Simulation(SimConfig(), txs)


@pytest.mark.parametrize(
    "named, changes",
    [
        ("'t1': fee", {"fee": 1.5}),
        ("'t1': fee", {"fee": True}),
        ("'t1': base_cost", {"base_cost": 1.5}),
        ("'t1': base_cost", {"base_cost": True}),
        ("'t1': write_set", {"write_set": ["ab", "cd"]}),
        ("'t1': write_set account 7", {"write_set": ("ab", 7)}),
        (r"'t1': write_set account \['ab'\]", {"write_set": (["ab"],)}),
        (r"'t1': write_set \(\) is empty", {"write_set": ()}),
        (r"'t1': write_set \('ab', 'ab'\) is empty or repeats", {"write_set": ("ab", "ab")}),
        ("'t1': fee must be nonnegative", {"fee": -1}),
        ("'t1': base_cost must be positive", {"base_cost": 0}),
        ("1: tx_id must be str", {"tx_id": 1}),
        (r"\['t1'\]: tx_id must be str", {"tx_id": ["t1"]}),
    ],
    ids=["float-fee", "bool-fee", "float-cost", "bool-cost", "list-write-set", "int-account",
         "list-account", "empty-write-set", "repeated-account", "negative-fee", "zero-cost",
         "int-tx-id", "list-tx-id"],
)
def test_transaction_of_wrong_type_rejected(named, changes):
    # before this check a float fee ran and summed into total_fees, an int
    # account id crashed hash_place, an int tx_id ran, and a list account or
    # tx_id crashed with an unhashable-type TypeError
    txs = _unit_txs(3)
    txs[1] = replace(txs[1], **changes)
    with pytest.raises(ConfigError, match=f"transaction {named}"):
        Simulation(SimConfig(economics=True), txs)


def test_finalize_requires_rounds():
    with pytest.raises(EmptyRun):
        finalize([])


# ---------------------------------------------------------------------------
# mempool


def test_mempool_fifo_top_up_and_drain():
    pool = Mempool(3)
    txs = _unit_txs(5)
    source = iter(txs)
    assert pool.top_up(source, 0) == 3
    drained, retain = pool.drain()
    assert [t.tx_id for t in drained] == ["t0", "t1", "t2"] and len(pool) == 0
    retain(drained[1])  # the walk re-adds a deferred transaction
    assert pool.top_up(source, 1) == 2
    assert [t.tx_id for t in pool.drain()[0]] == ["t1", "t3", "t4"]


def test_mempool_records_first_seen_round():
    pool = Mempool(2)
    source = iter(_unit_txs(3))
    pool.top_up(source, 0)
    pool.drain()
    pool.top_up(source, 4)
    assert pool.first_seen == {"t0": 0, "t1": 0, "t2": 4}


# ---------------------------------------------------------------------------
# hand-simulated micro-scenario (k=1, C=2, five unit transactions)


def test_micro_scenario_metrics_exact():
    cfg = SimConfig(k_shards=1, shard_capacity=2, mempool_ratio=2.5, policy="hash")
    reports, summary = run(cfg, _unit_txs(5))
    assert summary.rounds == 3
    assert summary.executed == 5
    assert [r.processed_count for r in reports] == [2, 2, 1]
    assert summary.throughput == pytest.approx(5 / 3)
    assert summary.latency == pytest.approx(0.8)  # (0+0+1+1+2)/5
    assert summary.wasted_capacity == 1  # one idle slot in the final round
    assert summary.cross_shard_ratio == 0.0
    assert summary.migrations == 0


# ---------------------------------------------------------------------------
# admission control


def _single_shard_pair_sim(c_cross=2, capacity=10):
    """Two accounts on different shards, scheduler policy, alignment set so
    the first transaction migrates `aa` into `bb`'s shard."""
    tx = Transaction("t0", 0, ("aa", "bb"))
    cfg = SimConfig(k_shards=2, shard_capacity=capacity, cross_shard_cost=c_cross,
                    policy="scheduler")
    sim = Simulation(cfg, [tx], initial_assignment={"aa": 0, "bb": 1})
    sim.book.add("aa", 1, 8)  # 1 toward its own shard 0, 8 toward the rest
    return sim, tx


def test_migration_charges_source_and_dest():
    # EOA migration (cost 2) plus the now-intra transaction (base 1):
    # source pays 2, destination pays 2 + 1.
    sim, tx = _single_shard_pair_sim()
    for shard in sim.shards:
        shard.residual = shard.capacity_per_round
    plan = sim.plan(tx, (0, 1), {0: 90, 1: 20})
    assert len(plan.migrations) == 1
    assert sim.try_execute(tx, plan) == "executed"
    assert sim.shards[0].residual == 10 - 2
    assert sim.shards[1].residual == 10 - 3
    assert sim.assignment["aa"] == 1


@pytest.mark.parametrize("source_residual,dest_residual,expected",
                         [(2, 3, "executed"), (1, 10, "deferred"), (10, 2, "deferred")])
def test_all_or_nothing_admission(source_residual, dest_residual, expected):
    sim, tx = _single_shard_pair_sim()
    plan = sim.plan(tx, (0, 1), {0: 90, 1: 20})
    sim.shards[0].residual = source_residual
    sim.shards[1].residual = dest_residual
    assert sim.try_execute(tx, plan) == expected


def test_deferred_transaction_mutates_nothing():
    sim, tx = _single_shard_pair_sim()
    plan = sim.plan(tx, (0, 1), {0: 90, 1: 20})
    sim.shards[0].residual = 0
    before_mapping = dict(sim.assignment)
    before_totals = tuple(sim.book.totals("aa"))
    assert sim.try_execute(tx, plan) == "deferred"
    assert sim.assignment == before_mapping
    assert tuple(sim.book.totals("aa")) == before_totals == (1, 8)
    assert sim.shards[1].residual == 10


def test_migration_resets_alignment():
    sim, tx = _single_shard_pair_sim()
    plan = sim.plan(tx, (0, 1), {0: 90, 1: 20})
    assert sim.try_execute(tx, plan) == "executed"
    # the old sums are gone; only this transaction's own update remains, toward
    # aa's new shard 1
    assert tuple(sim.book.totals("aa")) == (1, 0)


def test_migration_veto_hook_blocks_sources():
    tx = Transaction("t0", 0, ("aa", "bb"))
    cfg = SimConfig(k_shards=2, shard_capacity=10, policy="scheduler",
                    refuse_migrations_from=frozenset({0}))
    sim = Simulation(cfg, [tx], initial_assignment={"aa": 0, "bb": 1})
    sim.book.add("aa", 0, 8)
    plan = sim.plan(tx, (0, 1), {0: 90, 1: 20})
    assert plan.migrations == ()
    assert plan.final_shards == frozenset({0, 1})
    assert plan.per_shard_charges == {0: 2, 1: 2}  # back to a cross-shard tx


# ---------------------------------------------------------------------------
# loads view


def test_live_loads_reflect_current_round_charges():
    cfg = SimConfig(k_shards=2, shard_capacity=10)
    sim = Simulation(cfg, _unit_txs(1))
    loads = LiveLoads(sim.shards)
    assert loads[0] == 0 and loads[1] == 0
    sim.shards[0].residual -= 4
    assert loads[0] == 4 and loads[1] == 0
    assert list(loads.keys()) == [0, 1]


# ---------------------------------------------------------------------------
# run loop invariants


def test_run_stops_at_max_rounds():
    cfg = SimConfig(k_shards=1, shard_capacity=1, mempool_ratio=5.0, max_rounds=2)
    reports, summary = run(cfg, _unit_txs(5))
    assert summary.rounds == 2
    assert summary.executed == 2


def test_round_reports_mempool_conservation():
    cfg = SimConfig(k_shards=2, shard_capacity=3, policy="scheduler")
    reports, _ = run(cfg, _unit_txs(40, accounts_per_tx=2))
    for r in reports:
        assert (
            r.mempool_start + r.topped_up
            == r.processed_count + r.mempool_end
        )


def test_processed_cost_matches_capacity_spent():
    cfg = SimConfig(k_shards=2, shard_capacity=5, policy="hash")
    reports, _ = run(cfg, _unit_txs(30, accounts_per_tx=2))
    for r in reports:
        for s, cost in r.processed_cost.items():
            assert cost + r.residuals[s] == 5


@pytest.mark.parametrize("policy", ["hash", "partition", "scheduler"])
def test_processed_cost_is_what_the_admitted_plans_charged(policy):
    # The test above holds by construction: run() reports processed_cost as
    # capacity less residual.  Here each round's cost is rebuilt from what
    # its admitted plans charged: the per-shard charges, and each migration's
    # cost on both its source and its destination.  The scheduler admits a
    # write set placed on one shard with no plan, so its costs are rebuilt by
    # the literal reference engine, which plans every transaction.
    workload = generate(SyntheticSpec(generator="communities", n_accounts=120,
                                      n_txs=1500, seed=3, n_communities=10))
    cfg = SimConfig(k_shards=4, shard_capacity=40, window=5, policy=policy)
    sim = Simulation(cfg, workload)
    charged = {}  # round -> shard -> units its admitted plans charged
    try_execute = sim.try_execute

    def recorded(tx, plan):
        outcome = try_execute(tx, plan)
        if outcome == "executed":
            spent = charged.setdefault(len(sim.reports), dict.fromkeys(range(4), 0))
            for s, charge in plan.per_shard_charges.items():
                spent[s] += charge
            for m in plan.migrations:
                spent[m.source] += m.cost
                spent[m.dest] += m.cost
        return outcome

    sim.try_execute = recorded
    reports, summary = sim.run()
    assert (summary.migrations > 0) == (policy == "scheduler")
    if policy == "scheduler":
        expected = [r.processed_cost for r in reference_run(cfg, workload, {}, {}).reports]
    else:
        idle = dict.fromkeys(range(4), 0)
        expected = [charged.get(r.round_index, idle) for r in reports]
    assert [r.processed_cost for r in reports] == expected


def test_latency_counts_rounds_waited():
    # capacity 1, three txs arriving in round 0: latencies 0, 1, 2
    cfg = SimConfig(k_shards=1, shard_capacity=1, mempool_ratio=3.0)
    _, summary = run(cfg, _unit_txs(3))
    assert summary.latency == pytest.approx(1.0)


def test_cross_ratio_counts_migrations_as_cross():
    sim, tx = _single_shard_pair_sim(capacity=100)
    # bias the published loads so shard 1 is the main shard in round 0
    sim.shards[0].residual -= 90
    sim.shards[1].residual -= 20
    reports, summary = sim.run()
    # single tx turned intra by one migration: (0 cross + 1 mig) / 1 executed
    assert summary.executed == 1
    assert summary.migrations == 1
    assert summary.cross_shard_txs == 0
    assert summary.cross_shard_ratio == pytest.approx(1.0)


def test_hash_run_is_deterministic():
    cfg = SimConfig(k_shards=4, shard_capacity=5, policy="scheduler", seed=3)
    txs = _unit_txs(60, accounts_per_tx=2)
    r1, s1 = run(cfg, txs)
    r2, s2 = run(cfg, txs)
    assert s1 == s2
    assert r1 == r2


@given(
    seed=st.integers(min_value=0, max_value=10 ** 6),
    policy=st.sampled_from(["hash", "scheduler"]),
    k=st.sampled_from([1, 2, 4]),
    capacity=st.integers(min_value=8, max_value=16),
)
@settings(max_examples=120, deadline=None)
def test_run_invariants_random_workloads(seed, policy, k, capacity):
    """Capacity, conservation and termination invariants under fuzzing."""
    import random

    rng = random.Random(seed)
    accounts = [f"f{i:02d}" for i in range(rng.randint(2, 12))]
    txs = []
    for i in range(rng.randint(1, 60)):
        ws = tuple(rng.sample(accounts, rng.randint(1, min(3, len(accounts)))))
        txs.append(Transaction(f"t{i}", i, ws))
    # capacity always admits the worst single plan (two migrations plus the
    # transaction charge), so the run is guaranteed to drain
    cfg = SimConfig(k_shards=k, shard_capacity=capacity, policy=policy,
                    cross_shard_cost=rng.randint(1, 2), seed=seed,
                    max_rounds=400)
    reports, summary = run(cfg, txs)
    assert summary.executed == len(txs)  # everything drains eventually
    for r in reports:
        assert r.mempool_start + r.topped_up == r.processed_count + r.mempool_end
        for s, residual in r.residuals.items():
            assert 0 <= residual <= capacity
            assert r.processed_cost[s] + residual == capacity


@pytest.mark.parametrize("policy", ["hash", "partition", "scheduler"])
def test_first_seen_pruned_on_execution(policy):
    cfg = SimConfig(k_shards=2, shard_capacity=3, policy=policy)
    sim = Simulation(cfg, _unit_txs(20, accounts_per_tx=2))
    _, summary = sim.run()
    assert summary.executed == 20 and len(sim.mempool) == 0
    # no per-transaction state outlives its execution
    assert sim.mempool.first_seen == {}
    assert not sim._lane_queue


@pytest.mark.parametrize("policy", ["hash", "partition"])
def test_lane_queue_follows_the_mempool(policy):
    # base costs 1-3 on a few accounts: lanes share shard sets but differ in
    # charge, and a run stopped early leaves blocked lanes pending
    txs = [replace(tx, base_cost=1 + i % 3) for i, tx in enumerate(_unit_txs(80, accounts_per_tx=2))]
    cfg = SimConfig(k_shards=3, shard_capacity=6, cross_shard_cost=2, policy=policy, max_rounds=3)
    sim = Simulation(cfg, txs)
    reports, _ = sim.run()
    lanes = list(sim._lane_queue)
    pending, _ = sim.mempool.drain()
    assert len(lanes) == len(pending) == reports[-1].mempool_end > 0
    assert len({tx.base_cost for tx in pending}) == 3
    for tx, lane in zip(pending, lanes):
        plan = sim._lane_plans[lane]
        shards = {sim.assignment[acc] for acc in tx.write_set}
        charge = sim.cost_model.per_shard_charge(tx.base_cost, len(shards))
        assert plan.final_shards == shards
        assert plan.per_shard_charges == dict.fromkeys(sorted(shards), charge)


@pytest.mark.parametrize("max_rounds", [None, 1000])
def test_unadmittable_transaction_raises_livelock(max_rounds):
    # t0 and t1 place the contract accounts aa and bb on shards 0 and 1 during
    # the run, where they may not migrate: every scheduler plan of t2 charges
    # 2 per shard against capacity 1, so no round can ever admit it
    cfg = SimConfig(k_shards=2, shard_capacity=1, cross_shard_cost=2,
                    policy="scheduler", max_rounds=max_rounds)
    txs = [Transaction("t0", 0, ("aa",)), Transaction("t1", 1, ("bb",)),
           Transaction("t2", 2, ("aa", "bb"))]
    sim = Simulation(cfg, txs, accounts={a: Account(a, kind=CA) for a in ("aa", "bb")})
    with pytest.raises(Livelock, match=r"'t2' \(pending since round 1\)"):
        sim.run()
    assert sim.assignment == {"aa": 0, "bb": 1}
    # rounds 0 and 1 admit t0 and t1 and top up t2; the window + 1 idle
    # rounds after them prove the fixed point
    assert len(sim.reports) == 2 + cfg.window + 1
    assert [r.processed_count for r in sim.reports[:2]] == [2, 0]
    assert all(r.processed_count == 0 for r in sim.reports[1:])


@pytest.mark.parametrize("pin", ["contract", "refusing shards"])
@pytest.mark.parametrize("max_rounds", [None, 5])
def test_scheduler_pinned_cross_shard_charge_over_capacity_is_refused(pin, max_rounds):
    # aa and bb are placed on shards 0 and 1 before the run and never migrate,
    # so every plan of t0 charges 2 per shard against capacity 1: the run must
    # not idle into Livelock or truncate silently
    options = (dict(accounts={a: Account(a, kind=CA) for a in ("aa", "bb")})
               if pin == "contract" else {})
    refused = frozenset({0, 1}) if pin == "refusing shards" else frozenset()
    cfg = SimConfig(k_shards=2, shard_capacity=1, cross_shard_cost=2, policy="scheduler",
                    refuse_migrations_from=refused, max_rounds=max_rounds)
    pair = Transaction("t0", 0, ("aa", "bb"))
    with pytest.raises(ConfigError, match=r"transaction 't0': cross-shard charge 2 on "
                                          r"pinned shards \[0, 1\] exceeds shard_capacity 1"):
        Simulation(cfg, [pair], initial_assignment={"aa": 0, "bb": 1}, **options)
    # a base-cost refusal is named first, even for a later transaction
    with pytest.raises(ConfigError, match="transaction 't1': base_cost 2 exceeds"):
        Simulation(cfg, [pair, Transaction("t1", 1, ("cc",), base_cost=2)],
                   initial_assignment={"aa": 0, "bb": 1}, **options)
    # the same pair runs when one account is unplaced, or both share a shard
    for initial in ({"aa": 0}, {"aa": 1, "bb": 1}):
        _, summary = run(cfg, [pair], initial_assignment=initial, **options)
        assert summary.executed == 1


@pytest.mark.parametrize("max_rounds", [None, 5])
def test_base_cost_over_capacity_is_refused(max_rounds):
    # every plan charges its main shard at least the base cost, so no round
    # can admit t1: the run must not idle into Livelock or truncate silently
    txs = _unit_txs(3)
    cfg = SimConfig(k_shards=2, shard_capacity=2, max_rounds=max_rounds)
    with pytest.raises(ConfigError, match="transaction 't1': base_cost 3 exceeds shard_capacity 2"):
        Simulation(cfg, [txs[0], replace(txs[1], base_cost=3), txs[2]])
    # a wrong type is still named first
    with pytest.raises(ConfigError, match="transaction 't1': fee"):
        Simulation(cfg, [txs[0], replace(txs[1], fee=1.5, base_cost=3)])
    _, summary = run(cfg, [txs[0], replace(txs[1], base_cost=2)])
    assert summary.executed == 2


@pytest.mark.parametrize("policy", ["hash", "partition"])
@pytest.mark.parametrize("max_rounds", [None, 5])
def test_static_cross_shard_charge_over_capacity_is_refused(policy, max_rounds):
    # a static footprint is fixed: the pair is charged 2 on each of shards 0
    # and 1 against capacity 1, so the run must not idle into Livelock or
    # truncate silently
    cfg = SimConfig(k_shards=2, shard_capacity=1, cross_shard_cost=2, policy=policy,
                    max_rounds=max_rounds)
    pair = Transaction("t0", 0, ("aa", "bb"))
    initial = {"aa": 0, "bb": 1}
    with pytest.raises(ConfigError, match=r"transaction 't0': cross-shard charge 2 on "
                                          r"shards \[0, 1\] exceeds shard_capacity 1"):
        Simulation(cfg, [pair], initial_assignment=initial)
    # a base-cost refusal is named first, even for a later transaction
    with pytest.raises(ConfigError, match="transaction 't1': base_cost 2 exceeds"):
        Simulation(cfg, [pair, Transaction("t1", 1, ("cc",), base_cost=2)],
                   initial_assignment=initial)
    # the same pair on one shard is charged its base cost and runs
    _, summary = run(cfg, [pair], initial_assignment={"aa": 1, "bb": 1})
    assert summary.executed == 1


def test_partition_table_places_what_the_initial_placement_left():
    txs = _unit_txs(30, accounts_per_tx=2)
    cfg = SimConfig(k_shards=4, shard_capacity=5, policy="partition", seed=0)
    table = Simulation(cfg, txs).assignment
    # the table covers every workload account, so none is left to hash
    assert table.keys() == {acc for tx in txs for acc in tx.write_set}
    first = txs[0].write_set[0]
    initial = {first: (table[first] + 1) % 4}
    sim = Simulation(cfg, txs, initial_assignment=initial)
    assert sim.assignment == {**table, **initial}


@pytest.mark.parametrize("policy", ["hash", "partition"])
def test_static_accounts_are_placed_before_round_0(policy):
    # every static account keeps one shard for the whole run: its initial
    # shard, else its partition table shard, else its hash shard
    txs = _unit_txs(30, accounts_per_tx=2)
    cfg = SimConfig(k_shards=4, shard_capacity=5, policy=policy, seed=0)
    graph = graph_from_transactions(txs)
    table = (partition_greedy(graph, 4, math.ceil(len(graph) / 4), seed=0)
             if policy == "partition" else {})
    first = txs[0].write_set[0]
    initial = {first: min({0, 1, 2, 3} - {table.get(first), hash_place(first, 4)})}
    sim = Simulation(cfg, txs, initial_assignment=initial)
    accounts = {acc for tx in txs for acc in tx.write_set}
    assert sim.assignment == {
        acc: initial[acc] if acc in initial else table.get(acc, hash_place(acc, 4))
        for acc in accounts
    }
    before = dict(sim.assignment)
    sim.assignment = MappingProxyType(dict(before))  # any write by the run raises
    _, summary = sim.run()
    assert summary.executed == len(txs)
    assert sim.assignment == before


@pytest.mark.parametrize("policy", ["hash", "scheduler"])
def test_second_run_is_refused(policy):
    # a second call would replay the workload into the same state
    sim = Simulation(SimConfig(k_shards=2, shard_capacity=3, policy=policy),
                     _unit_txs(5, accounts_per_tx=2))
    _, summary = sim.run()
    with pytest.raises(RuntimeError, match="already run"):
        sim.run()
    assert summary.executed == 5 and len(sim.reports) == summary.rounds


def _count_plans_and_admits(sim):
    """Record sim's plan and try_execute calls: (planned ids, admitted ids)."""
    plans, attempts = [], []
    plan, try_execute = sim.plan, sim.try_execute

    def counted_plan(tx, placed, loads):
        plans.append(tx.tx_id)
        return plan(tx, placed, loads)

    def counted_admit(tx, tx_plan):
        attempts.append(tx.tx_id)
        return try_execute(tx, tx_plan)

    sim.plan, sim.try_execute = counted_plan, counted_admit
    return plans, attempts


@pytest.mark.parametrize("policy,admits", [("hash", 5), ("scheduler", 1)])
def test_deferred_tx_not_replanned_while_its_shard_is_full(policy, admits):
    # k=1, capacity 1, three txs on one account: one executes per round.
    # Planning every pending tx every round would cost 3 + 2 + 1 = 6 plans.
    # hash never plans; its one lane admits its head and tries the next,
    # which is deferred and closes the lane for the round: 2 + 2 + 1 admits.
    # The scheduler plans t0, whose account is new, and admits it.  t1 and
    # t2 then sit on one shard: each is retained unplanned while the shard
    # is full and admitted inline in the next round, so 1 plan and 1 admit.
    cfg = SimConfig(k_shards=1, shard_capacity=1, mempool_ratio=3.0, policy=policy)
    sim = Simulation(cfg, [Transaction(f"t{i}", i, ("aa",)) for i in range(3)])
    plans, attempts = _count_plans_and_admits(sim)
    reports, summary = sim.run()
    assert summary.executed == 3 and summary.rounds == 3
    assert len(attempts) == admits
    assert plans == ([] if policy == "hash" else ["t0"])
    assert [r.latency_samples for r in reports] == [(0,), (1,), (2,)]


def test_two_shard_tx_not_planned_while_both_its_shards_are_full():
    # k=2, capacity 1, cross-shard cost 1: t0 fills shard 0 and t1 shard 1,
    # both inline.  t2 spans both shards, whose residuals are then below its
    # base cost, so it waits unplanned in round 0 and is planned once, and
    # admitted cross-shard, in round 1.  Planning it while both shards are
    # full would cost a second plan and a second admit.
    txs = [Transaction("t0", 0, ("aa",)), Transaction("t1", 1, ("bb",)),
           Transaction("t2", 2, ("aa", "bb"))]
    cfg = SimConfig(k_shards=2, shard_capacity=1, cross_shard_cost=1, mempool_ratio=2.0,
                    policy="scheduler")
    sim = Simulation(cfg, txs, initial_assignment={"aa": 0, "bb": 1})
    plans, attempts = _count_plans_and_admits(sim)
    reports, summary = sim.run()
    assert plans == attempts == ["t2"]
    assert [r.processed_count for r in reports] == [2, 1]
    assert summary.cross_shard_txs == 1 and summary.migrations == 0


def test_deferred_lane_blocks_only_its_own_footprint():
    # Capacity 2 on each of two shards.  t0 (cost 2) fills shard 0, so t1 on
    # shard 0 is deferred, yet t2 on shard 1 still runs in round 0.  On
    # shard 1, t3 (cost 2) no longer fits beside t2, but t4 (cost 1) does.
    txs = [
        Transaction("t0", 0, ("aa",), base_cost=2),
        Transaction("t1", 1, ("aa",)),
        Transaction("t2", 2, ("bb",)),
        Transaction("t3", 3, ("bb",), base_cost=2),
        Transaction("t4", 4, ("bb",)),
    ]
    cfg = SimConfig(k_shards=2, shard_capacity=2, mempool_ratio=2.0, policy="hash")
    sim = Simulation(cfg, txs, initial_assignment={"aa": 0, "bb": 1})
    admitted = []
    try_execute = sim.try_execute

    def recorded(tx, plan):
        outcome = try_execute(tx, plan)
        if outcome == "executed":
            admitted.append((len(sim.reports), tx.tx_id))
        return outcome

    sim.try_execute = recorded
    reports, _ = sim.run()
    assert admitted == [(0, "t0"), (0, "t2"), (0, "t4"), (1, "t1"), (1, "t3")]
    assert [r.processed_count for r in reports] == [3, 2]


def test_reordered_write_set_shares_its_twins_blocked_lane():
    # t0 (cost 2, cross-shard) fills both shards, so t1 is deferred and
    # blocks the lane of its footprint.  t2 names the same accounts in the
    # other order: same shards, same charge, so it is retained unoffered in
    # round 0.  A lane per ordered write set would offer t2 in round 0 too.
    txs = [
        Transaction("t0", 0, ("aa", "bb"), base_cost=2),
        Transaction("t1", 1, ("aa", "bb")),
        Transaction("t2", 2, ("bb", "aa")),
    ]
    cfg = SimConfig(k_shards=2, shard_capacity=4, mempool_ratio=2.0, policy="hash")
    sim = Simulation(cfg, txs, initial_assignment={"aa": 0, "bb": 1})
    offers = []
    try_execute = sim.try_execute

    def counted_admit(tx, tx_plan):
        offers.append(tx.tx_id)
        return try_execute(tx, tx_plan)

    sim.try_execute = counted_admit
    _, summary = sim.run()
    assert offers == ["t0", "t1", "t1", "t2"]
    assert summary.executed == 3 and summary.rounds == 2


# Differential tests against the literal reference engine in
# tests/reference_engine.py, one per policy family over its one strategy.


@given(case=engine_cases(("hash", "partition")))
@settings(max_examples=200, deadline=None, phases=NO_SHRINK)
def test_static_lanes_match_literal_reference(case):
    check_engine_against_reference(case)


@given(case=engine_cases(("scheduler",)))
@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
def test_scheduler_matches_literal_reference(case):
    check_engine_against_reference(case)


# ---------------------------------------------------------------------------
# metamorphic relation, which holds across any change of results: with one
# shard there is nothing to place, move or split, so hash, partition and the
# scheduler admit the same transactions in the same rounds


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("generator", ["communities", "zipf_hotspot", "bursty", "all_cross"])
def test_policies_agree_at_one_shard(generator, seed):
    """At k = 1 every policy yields the same round reports, so the same rounds,
    executed count, latency samples, processed counts, mempool sizes and
    wasted capacity, and the same summary."""
    txs = generate(SyntheticSpec(generator=generator, n_accounts=300, n_txs=3000,
                                 seed=seed, accounts_per_tx=3))
    # the mempool holds 1.5 rounds of capacity, so transactions wait, and 3,000
    # is no multiple of 70, so the last round leaves capacity idle
    cfg = SimConfig(k_shards=1, shard_capacity=70, mempool_ratio=1.5, seed=seed)
    runs = {policy: run(replace(cfg, policy=policy), txs)
            for policy in ("hash", "partition", "scheduler")}
    reports, summary = runs["hash"]
    assert summary.executed == len(txs) and summary.rounds == 43
    assert summary.latency > 0 and summary.wasted_capacity == 10
    for policy in ("partition", "scheduler"):
        assert runs[policy] == (reports, summary), policy


# bb, a contract account, is placed on shard 1; t2 aligns it toward shard 0,
# so the scheduler moves it on t3 unless contract migration is off.
CA_TRACE = "0 t0 1 aa\n0 t1 1 bb|CA\n0 t2 1 aa,bb\n0 t3 1 aa,bb\n"


def test_trace_contract_accounts_reach_the_scheduler(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text(CA_TRACE)
    txs, accounts = load_trace(path)
    migrations = {}
    for ca_migration in (False, True):
        cfg = SimConfig(k_shards=2, policy="scheduler", ca_migration=ca_migration)
        _, summary = run(cfg, txs, accounts=accounts)
        migrations[ca_migration] = summary.migrations
    assert migrations == {False: 0, True: 1}


def test_static_policies_leave_alignment_book_empty():
    cfg = SimConfig(k_shards=2, shard_capacity=5, policy="hash")
    sim = Simulation(cfg, _unit_txs(30, accounts_per_tx=2))
    sim.run()
    assert all(sim.book.totals(a) == (0, 0) for tx in sim.workload for a in tx.write_set)


# ---------------------------------------------------------------------------
# the cyclic collector around set-up: paused inside, settled and restored after


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def collector_check(request):
    """Enable or disable the collector; yield a check of its state after a call.

    check(young) asserts, for a collector enabled on entry, that it is enabled
    again, that young (generation 0's count, read right after the call) is not
    past its threshold, and that a generation-1 collection, the settling
    pass, ran during the call; for one disabled on entry, that it is still
    disabled and collected nothing.  The counts start at zero, and these calls
    are too small to reach a generation-1 collection on their own.
    """
    was_enabled = gc.isenabled()
    collected = []  # the generation of each collection since the last check

    def hook(phase, info):
        if phase == "start":
            collected.append(info["generation"])

    def check(young=0):
        if request.param:
            assert gc.isenabled()
            assert young <= gc.get_threshold()[0]
            assert 1 in collected
        else:
            assert not gc.isenabled()
            assert collected == []
        collected.clear()

    gc.collect()  # zeroes every generation's count
    (gc.enable if request.param else gc.disable)()
    gc.callbacks.append(hook)
    yield check
    gc.callbacks.remove(hook)
    (gc.enable if was_enabled else gc.disable)()


def _trace_lines(n):
    return [f"{i // 50} t{i} 1 {i % 97:04x},{i % 89 + 200:04x}" for i in range(n)]


def test_load_trace_pauses_and_settles_the_collector(tmp_path, collector_check):
    path = tmp_path / "trace.txt"
    path.write_text("\n".join(_trace_lines(2000)) + "\n")
    txs, _ = load_trace(path)
    collector_check(gc.get_count()[0])
    assert len(txs) == 2000
    path.write_text("\n".join(_trace_lines(2000) + ["0 bad 1 zz"]) + "\n")
    with pytest.raises(ParseError):
        load_trace(path)
    collector_check()


def test_partition_setup_pauses_and_settles_the_collector(monkeypatch, collector_check):
    txs = _unit_txs(300, accounts_per_tx=3)
    cfg = SimConfig(k_shards=4, shard_capacity=5, policy="partition", seed=0)
    sim = Simulation(cfg, txs)
    collector_check(gc.get_count()[0])
    assert len(sim.assignment) == 900
    # a bad transaction, refused after the partition table is built
    cfg = SimConfig(k_shards=2, shard_capacity=1, cross_shard_cost=2, policy="partition")
    with pytest.raises(ConfigError, match="cross-shard charge"):
        Simulation(cfg, [Transaction("t0", 0, ("aa", "bb"))], initial_assignment={"aa": 0, "bb": 1})
    collector_check()
    # a failure inside the paused block
    monkeypatch.setattr(engine, "partition_greedy", _raise_infeasible)
    with pytest.raises(Infeasible):
        Simulation(SimConfig(k_shards=4, policy="partition"), txs)
    collector_check()


def _raise_infeasible(*args, **kwargs):
    raise Infeasible("refused for the test")


# ---------------------------------------------------------------------------
# economics wiring


def test_fees_are_conserved_per_executed_tx():
    cfg = SimConfig(k_shards=2, shard_capacity=4, policy="hash", economics=True,
                    epoch_length=2)
    txs = [
        Transaction(f"t{i}", i, (f"p{i}a".encode().hex(), f"p{i}b".encode().hex()), fee=5)
        for i in range(20)
    ]
    _, summary = run(cfg, txs)
    assert summary.total_fees == 20 * 5


def test_default_fee_covers_zero_fee_transactions():
    cfg = SimConfig(k_shards=2, shard_capacity=4, policy="hash", economics=True,
                    default_fee=3)
    txs = [
        Transaction(f"t{i}", i, (f"q{i}".encode().hex(),), fee=0) for i in range(8)
    ]
    _, summary = run(cfg, txs)
    assert summary.total_fees == 8 * 3


def test_epochs_close_on_schedule():
    cases = [
        # the last epoch is partial
        (dict(k_shards=2, shard_capacity=2, epoch_length=3), _unit_txs(24, accounts_per_tx=2), 16),
        # the last round ends an epoch, so no empty epoch follows it
        (dict(k_shards=1, shard_capacity=1, epoch_length=2, miners_per_shard=1), _unit_txs(4), 4),
    ]
    for fields, txs, rounds in cases:
        cfg = SimConfig(policy="hash", economics=True, mempool_ratio=1.0, **fields)
        sim = Simulation(cfg, txs)
        reports, _ = sim.run()
        assert len(reports) == rounds
        expected = math.ceil(rounds / cfg.epoch_length)
        assert sorted({row[0] for row in sim.ledger.epoch_rows}) == list(range(expected))
        assert sim.ledger.epoch == expected


def test_partition_policy_end_to_end():
    txs = _unit_txs(30, accounts_per_tx=2)
    cfg = SimConfig(k_shards=4, shard_capacity=5, policy="partition", seed=0)
    _, summary = run(cfg, txs)
    assert summary.executed == 30


# ---------------------------------------------------------------------------
# golden outputs: the round loop's shortcuts must not change any result


def _golden_workload():
    return generate(SyntheticSpec(generator="communities", n_accounts=80, n_txs=400,
                                  seed=7, accounts_per_tx=3, n_communities=8,
                                  p_inter=0.2, p_hotspot=0.05))


# Grid cells: SimConfig overrides on top of capacity 10, window 5, seed 3.
# Capacity 10 defers heavily yet always admits the largest single plan (two
# size-2 contract migrations plus the transaction charge).  The window-2 cell
# runs 31 rounds with 32 migrations, so alignment deltas are evicted many
# times, including deltas of accounts reset by a migration.
_GOLDEN_GRID = {
    **{f"{policy}-k{k}": dict(policy=policy, k_shards=k)
       for policy in ("hash", "partition", "scheduler") for k in (2, 4)},
    "scheduler-mutex": dict(policy="scheduler", k_shards=4, mode="mutex"),
    "scheduler-ca-on": dict(policy="scheduler", k_shards=4, ca_migration=True),
    "scheduler-ca-off": dict(policy="scheduler", k_shards=4),
    "scheduler-refuse": dict(policy="scheduler", k_shards=4,
                             refuse_migrations_from=frozenset({0})),
    "hash-initial": dict(policy="hash", k_shards=4),
    "scheduler-econ": dict(policy="scheduler", k_shards=4, economics=True, epoch_length=3),
    "scheduler-window2": dict(policy="scheduler", k_shards=4, window=2),
}


# SHA-256 over asdict(FinalSummary) and every asdict(RoundReport). They were
# recorded with every pending transaction planned every round, so any skip
# that changes an admission decision changes a digest.
GOLDEN_DIGESTS = {
    "hash-k2": "ae71242d170dbcbb1be7a33d3e6fdb688e2ab98ec2f3e527e70773de8b8f84f0",
    "hash-k4": "c53ccad335db8b04469dac897ea4298741fa068fe4db81b0dddfccb06ec8a842",
    "partition-k2": "c3d61abd5a805c6a0c4be491afeea614a33e1f8cc3052335b8c7f0d74c655c29",
    "partition-k4": "1e2194da6469e4f07d0034aeb6e8951b39d64f19c37b51bdf9862deaa0dc92ff",
    "scheduler-k2": "8c8f5e4b7d57c763ecc3cc033c53a8cbc4beff8e6dfd1fe39e8a79fa8abf821f",
    "scheduler-k4": "ec67afb1feca069f348a079c74514a34cae3bec8f752dcc78e996704c05ebd75",
    "scheduler-mutex": "3ad4a06847df7e79ae9401ee340a8aee190be6db01f2efd0f2d3ffa9435b2ae8",
    "scheduler-ca-on": "528fa361e0a46642743c85985e11e7ba6a0c5d789a0934bba15f36b8ca14f0de",
    "scheduler-ca-off": "c8a851aad4959e9e9c1ee85a4c66457d4c2dd81d768dd476808dc911b9c09a1f",
    "scheduler-refuse": "54b2318a321dc8cd03b68568a43ffdf632126faba94e95131f0e9bc07dc7f678",
    "hash-initial": "beb728a17b20caf47318f7a9675668deaa108ba51b405176cdc63d60ca20937f",
    "scheduler-econ": "22080f2771f2f95659ab2ff700fd714287c7048d72a35cd7609aac8ad172cc34",
    "scheduler-window2": "23fd4dedfbd244952b0692add617e9ab5eb0144cc26c6ea59a54158b32af9b1b",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_outputs_unchanged(name):
    txs = _golden_workload()
    cfg = SimConfig(**{"shard_capacity": 10, "window": 5, "seed": 3, **_GOLDEN_GRID[name]})
    accounts_in_order = list(dict.fromkeys(acc for tx in txs for acc in tx.write_set))
    accounts = assignment = None
    if name.startswith("scheduler-ca"):
        accounts = {a: Account(a, kind=CA, size=2) for a in accounts_in_order[::7]}
    if name == "hash-initial":  # disagrees with hash_place on 30 accounts
        assignment = {a: (hash_place(a, 4) + 1) % 4 for a in accounts_in_order[:30]}
    sim = Simulation(cfg, txs, initial_assignment=assignment, accounts=accounts)
    reports, summary = sim.run()
    digest = hashlib.sha256()
    for record in (summary, *reports):
        digest.update(json.dumps(asdict(record), sort_keys=True).encode())
    assert summary.executed == len(txs)
    assert digest.hexdigest() == GOLDEN_DIGESTS[name]


# Ledger cells: the golden workload with fee = arrival_index % 4, so that
# zero-fee transactions fall back to default_fee and cross-shard splits leave
# remainders.  SHA-256 over the epoch rows, the sorted balances and the
# per-shard collected fees, recorded with every fee split by split_fee.  The
# runs take 27 rounds at epoch length 3, so they close epochs 0-8 and no more.
_LEDGER_GRID = {
    "scheduler-econ": _GOLDEN_GRID["scheduler-econ"],
    "scheduler-econ-naive": dict(_GOLDEN_GRID["scheduler-econ"], fee_scheme="naive"),
}
LEDGER_DIGESTS = {
    "scheduler-econ": "f3603416cc91c37223256fb63c405e11526de3242dc0ebf789f691e6f8e6e502",
    "scheduler-econ-naive": "30dc0fba730fa827a0cd582013ac1cedf1d011c00bf0c81e21d009fd9516ce90",
}


@pytest.mark.parametrize("name", sorted(LEDGER_DIGESTS))
def test_golden_ledger_unchanged(name):
    txs = [replace(tx, fee=tx.arrival_index % 4) for tx in _golden_workload()]
    cfg = SimConfig(**{"shard_capacity": 10, "window": 5, "seed": 3, **_LEDGER_GRID[name]})
    sim = Simulation(cfg, txs)
    _, summary = sim.run()
    ledger = sim.ledger
    record = [ledger.epoch_rows, sorted(ledger.balances.items()), ledger.shard_collected]
    assert summary.executed == len(txs)
    assert summary.cross_shard_txs > 0
    assert hashlib.sha256(json.dumps(record).encode()).hexdigest() == LEDGER_DIGESTS[name]


def _ledger_after_run(name):
    txs = [replace(tx, fee=tx.arrival_index % 4) for tx in _golden_workload()]
    cfg = SimConfig(**{"shard_capacity": 10, "window": 5, "seed": 3, **_LEDGER_GRID[name]})
    sim = Simulation(cfg, txs)
    sim.run()
    return sim.ledger


def test_decoupled_payouts_are_exact_pro_rata_shares():
    # Each closed epoch pays a miner contribution / old-shard total times the
    # closed deposit of the miner's new shard; the epoch rows alone give all
    # three, and the next epoch's rows (or the open assignment) the new shard.
    ledger = _ledger_after_run("scheduler-econ")
    rows_of = {}
    for row in ledger.epoch_rows:
        rows_of.setdefault(row[0], []).append(row)
    assert sorted(rows_of) == list(range(ledger.epoch)) and ledger.epoch >= 3
    paid = dict.fromkeys(ledger.miners, 0.0)
    for epoch, rows in sorted(rows_of.items()):
        deposit_of = {shard: total for _, shard, total, *_ in rows}
        if epoch + 1 < ledger.epoch:
            new_shard = {miner: shard for _, shard, _, miner, *_ in rows_of[epoch + 1]}
        else:
            new_shard = ledger.assignment.shard_of
        for _, shard, total, miner, contribution, payout in rows:
            exact = Fraction(contribution, total) * deposit_of[new_shard[miner]] if total else 0
            assert abs(Fraction(payout) - exact) <= 2 * Fraction(math.ulp(float(exact))), (
                epoch, miner, payout, exact)
            paid[miner] += payout
    assert any(paid.values())
    assert ledger.balances == paid


def test_naive_scheme_pays_nothing_at_epoch_close():
    ledger = _ledger_after_run("scheduler-econ-naive")
    assert ledger.epoch >= 3
    assert all(row[5] == 0.0 for row in ledger.epoch_rows)
    assert sum(ledger.balances.values()) == ledger.total_fees() > 0
