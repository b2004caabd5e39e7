"""Placement policies: hash baseline, partition baseline, scheduler."""

import copy
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardsim.core import (
    CA,
    Account,
    AlignmentBook,
    CostModel,
    Transaction,
)
from shardsim.engine import LiveLoads, SimConfig, Simulation
from shardsim.policies import (
    MODE_2PC,
    MODE_MUTEX,
    SchedulerPolicy,
    hash_place,
)


# ---------------------------------------------------------------------------
# hash placement


def test_hash_place_frozen_values():
    # frozen sha256-prefix oracle values; placement must never drift
    assert hash_place("00ff", 16) == 14
    assert hash_place("deadbeef", 16) == 1
    assert hash_place("deadbeef", 97) == 44
    assert hash_place("0a" * 32, 8) == 3


def test_hash_place_range_and_determinism():
    rng = random.Random(0)
    for _ in range(200):
        acc = "%040x" % rng.getrandbits(160)
        s = hash_place(acc, 16)
        assert 0 <= s < 16
        assert s == hash_place(acc, 16)


def test_hash_place_is_roughly_uniform():
    rng = random.Random(1)
    counts = Counter(
        hash_place("%040x" % rng.getrandbits(160), 8) for _ in range(16_000)
    )
    for shard in range(8):
        assert counts[shard] == pytest.approx(2000, rel=0.15)


# ---------------------------------------------------------------------------
# main shard selection


def _mutex_plan(phi, write_set, loads):
    # under mutex every placed account moves to the main shard, so the plan's
    # only final shard is the main shard
    tx = Transaction("t0", 0, write_set)
    return SchedulerPolicy(mode=MODE_MUTEX).plan(
        tx, tuple(map(phi.get, write_set)), loads, AlignmentBook(10), CostModel(2)
    )


def test_main_shard_least_loaded_involved():
    plan = _mutex_plan({"aa": 0, "bb": 1}, ("aa", "bb"), {0: 90, 1: 20, 2: 0})
    assert plan.final_shards == {1}  # shard 2 is lighter but not involved
    assert [(m.account, m.source, m.dest) for m in plan.migrations] == [("aa", 0, 1)]
    assert plan.new_placements == {}


def test_main_shard_all_new_uses_global_minimum():
    plan = _mutex_plan({}, ("aa", "bb"), {0: 5, 1: 3, 2: 7})
    assert plan.final_shards == {1}
    assert plan.new_placements == {"aa": 1, "bb": 1}
    assert plan.migrations == ()


def test_main_shard_tie_breaks_to_lowest_id():
    plan = _mutex_plan({"aa": 2, "bb": 1}, ("aa", "bb"), {0: 0, 1: 4, 2: 4})
    assert plan.final_shards == {1}
    assert [(m.account, m.source, m.dest) for m in plan.migrations] == [("aa", 2, 1)]


def test_main_shard_partial_write_set():
    plan = _mutex_plan({"aa": 2}, ("aa", "new1"), {0: 0, 1: 0, 2: 9})
    assert plan.final_shards == {2}  # only involved shard
    assert plan.new_placements == {"new1": 2}
    assert plan.migrations == ()


# ---------------------------------------------------------------------------
# migration rule: under 2pc an account leaves its shard for main iff
# c_cross * own < rest, with (own, rest) its two alignment sums


def _leaves(own, rest, c_cross):
    """Whether aa, on shard 0 with alignment sums (own, rest), leaves for
    bb's shard 1, the main shard."""
    book = AlignmentBook(10)
    if own or rest:
        book.add("aa", own, rest)
    plan = SchedulerPolicy().plan(
        Transaction("t0", 0, ("aa", "bb")), (0, 1), {0: 90, 1: 20}, book, CostModel(c_cross)
    )
    moved = [(m.account, m.source, m.dest) for m in plan.migrations]
    assert moved in ([], [("aa", 0, 1)])
    assert plan.final_shards == ({1} if moved else {0, 1})
    return bool(moved)


def test_plan_migration_rule_trivial_cases():
    assert _leaves(3, 10, 2) is True     # 6 < 10
    assert _leaves(10, 5, 2) is False    # 20 < 5 fails
    assert _leaves(0, 0, 2) is False     # nothing anywhere
    assert _leaves(0, 1, 5) is True      # 0 < 1


def test_plan_migration_rule_boundary_is_strict():
    assert _leaves(5, 10, 2) is False    # 10 < 10 is false: equality stays put
    assert _leaves(5, 11, 2) is True     # one unit more toward the rest leaves
    assert _leaves(10, 10, 1) is False
    assert _leaves(9, 10, 1) is True     # one unit less toward its own shard leaves


# ---------------------------------------------------------------------------
# hash placement in the engine


def test_hash_policy_respects_existing_placement():
    # an initial placement elsewhere than the hash shard wins over hash_place
    cfg = SimConfig(k_shards=16, policy="hash")
    sim = Simulation(cfg, [Transaction("t0", 0, ("00ff", "deadbeef"))],
                     initial_assignment={"00ff": 5})
    reports, summary = sim.run()
    assert sim.assignment == {"00ff": 5, "deadbeef": 1}
    assert summary.migrations == 0
    assert {s: c for s, c in reports[0].processed_cost.items() if c} == {5: 2, 1: 2}


# ---------------------------------------------------------------------------
# scheduler policy


def test_scheduler_worked_plan_migration():
    """Hand-derived plan: a@0 under load 90, b@1 under load 20.

    a's window sums are 1 toward its own shard 0 and 8 toward the rest, and
    c_cross=2, so main is shard 1 and a leaves: 2*1 < 8.  The transaction
    lands intra-shard on shard 1.
    """
    book = AlignmentBook(10)
    book.add("aa", 1, 8)
    policy = SchedulerPolicy()
    plan = policy.plan(
        Transaction("t0", 0, ("aa", "bb")), (0, 1), {0: 90, 1: 20}, book, CostModel(2)
    )
    assert plan.new_placements == {}
    assert len(plan.migrations) == 1
    mig = plan.migrations[0]
    assert (mig.account, mig.source, mig.dest, mig.cost) == ("aa", 0, 1, 2)
    assert plan.final_shards == frozenset({1})
    assert plan.charge == 1  # intra after the migration


def test_scheduler_keeps_strongly_aligned_account():
    book = AlignmentBook(10)
    book.add("aa", 10, 4)
    plan = SchedulerPolicy().plan(
        Transaction("t0", 0, ("aa", "bb")), (0, 1), {0: 90, 1: 20}, book, CostModel(2)
    )
    assert plan.migrations == ()
    assert plan.final_shards == frozenset({0, 1})
    assert plan.charge == 2


def test_scheduler_mutex_mode_forces_single_shard():
    book = AlignmentBook(10)
    book.add("aa", 100, 0)  # would veto the move under 2pc
    plan = SchedulerPolicy(mode=MODE_MUTEX).plan(
        Transaction("t0", 0, ("aa", "bb", "cc")), (0, 1, 2), {0: 1, 1: 0, 2: 2}, book,
        CostModel(2),
    )
    assert plan.final_shards == frozenset({1})
    assert {m.account for m in plan.migrations} == {"aa", "cc"}


def test_scheduler_ca_pinned_by_default():
    accounts = {"ca1": Account("ca1", kind=CA, size=4)}
    book = AlignmentBook(10)
    book.add("ca1", 0, 50)  # overwhelming pull away from its shard 0
    plan = SchedulerPolicy().plan(
        Transaction("t0", 0, ("ca1", "bb")), (0, 1), {0: 9, 1: 0}, book, CostModel(2),
        accounts=accounts,
    )
    assert plan.migrations == ()
    assert plan.final_shards == frozenset({0, 1})


def test_scheduler_ca_migration_opt_in_scales_cost():
    accounts = {"ca1": Account("ca1", kind=CA, size=4)}
    book = AlignmentBook(10)
    book.add("ca1", 0, 50)
    plan = SchedulerPolicy(ca_migration=True).plan(
        Transaction("t0", 0, ("ca1", "bb")), (0, 1), {0: 9, 1: 0}, book, CostModel(2),
        accounts=accounts,
    )
    assert len(plan.migrations) == 1
    assert plan.migrations[0].cost == 8  # c_cross * size


def test_scheduler_all_new_write_set_is_intra():
    plan = SchedulerPolicy().plan(
        Transaction("t0", 0, ("aa", "bb")), (None, None), {0: 3, 1: 1, 2: 5, 3: 1},
        AlignmentBook(10), CostModel(2),
    )
    assert plan.new_placements == {"aa": 1, "bb": 1}
    assert plan.final_shards == frozenset({1})
    assert plan.charge == 1


@pytest.mark.parametrize("room", ["fits", "full"])
@pytest.mark.parametrize("fee", ["no-econ", "fee-0", "fee-3"])
@pytest.mark.parametrize("accounts", [1, 3])
@pytest.mark.parametrize("mode", [MODE_2PC, MODE_MUTEX])
@pytest.mark.parametrize("base_cost", [1, 2])
def test_inline_one_shard_admission_equals_the_general_plan(base_cost, mode, accounts, fee,
                                                            room):
    # The engine admits a write set placed on one shard inline, with no plan.
    # An identical Simulation admits it through the policy's plan and
    # try_execute, as _admit_fifo does every other write set.  Both leave the
    # same state behind.  "full" leaves the shard below the base cost.
    write_set = ("aa", "bb", "cc")[:accounts]
    tx = Transaction("t0", 0, write_set, fee=0 if fee == "fee-0" else 3, base_cost=base_cost)
    cfg = SimConfig(k_shards=2, shard_capacity=10, policy="scheduler", mode=mode,
                    economics=fee != "no-econ", default_fee=2)
    sims = []
    for _ in range(2):
        sim = Simulation(cfg, [tx], initial_assignment=dict.fromkeys(write_set, 1))
        sim.book.add("aa", 0, 50)  # a pull elsewhere does not matter: nothing leaves main
        sim.shards[0].residual = 3
        sim.shards[1].residual = base_cost - 1 if room == "full" else 7
        sim.mempool.top_up(iter([tx]), 0)
        sims.append(sim)
    inline, general = sims
    latencies = []
    inline._admit_fifo(2, latencies)
    pending, retain = general.mempool.drain()
    placed = tuple(map(general.assignment.get, write_set))
    plan = general.policy.plan(tx, placed, LiveLoads(general.shards), general.book,
                               general.cost_model, accounts=general.accounts)
    if general.try_execute(tx, plan) is True:
        expected = [2 - general.mempool.first_seen.pop(tx.tx_id)]
    else:
        expected = []
        retain(tx)
    assert latencies == expected == ([] if room == "full" else [2])
    for name in ("assignment", "_round_fees", "_round_cross", "_round_migrations"):
        assert getattr(inline, name) == getattr(general, name), name
    assert [s.residual for s in inline.shards] == [s.residual for s in general.shards]
    assert ({a: tuple(inline.book.totals(a)) for a in write_set}
            == {a: tuple(general.book.totals(a)) for a in write_set})
    assert list(inline.mempool._queue) == list(general.mempool._queue)
    assert inline.mempool.first_seen == general.mempool.first_seen


def test_scheduler_run_leaves_the_policy_unchanged():
    # the policy keeps only its configuration, which a run leaves as it was
    txs = [Transaction(f"t{i}", i, (f"a{i % 5}", f"a{(i + 1) % 5}")) for i in range(20)]
    sim = Simulation(SimConfig(k_shards=2, shard_capacity=10, policy="scheduler"), txs)
    before = copy.deepcopy(vars(sim.policy))
    _, summary = sim.run()
    assert summary.executed == 20
    assert vars(sim.policy) == before


# ---------------------------------------------------------------------------
# properties


@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       k=st.sampled_from([2, 4, 8]))
@settings(max_examples=150, deadline=None)
def test_scheduler_plans_are_internally_consistent(seed, k):
    """Structural plan invariants over random placements and alignments."""
    rng = random.Random(seed)
    phi = {}
    book = AlignmentBook(10)
    accounts = [f"a{i}" for i in range(rng.randint(1, 5))]
    for acc in accounts:
        if rng.random() < 0.7:
            phi[acc] = rng.randrange(k)
            for _ in range(rng.randint(0, 3)):
                book.add(acc, rng.randint(0, 9), rng.randint(0, 9))
    loads = {s: rng.randint(0, 50) for s in range(k)}
    model = CostModel(rng.randint(1, 4))
    plan = SchedulerPolicy().plan(
        Transaction("t0", 0, tuple(accounts)), tuple(map(phi.get, accounts)), loads, book, model
    )
    placed_after = {}
    for acc in accounts:
        placed_after[acc] = phi.get(acc)
    placed_after.update(plan.new_placements)
    for mig in plan.migrations:
        assert placed_after[mig.account] == mig.source
        placed_after[mig.account] = mig.dest
    # final shards are exactly the post-plan shards of the write set
    assert plan.final_shards == frozenset(placed_after.values())
    # the one per-shard charge follows the intra/cross rule
    assert plan.charge == model.per_shard_charge(1, len(plan.final_shards))
    # migrations only ever target the main shard
    assert len({m.dest for m in plan.migrations}) <= 1
