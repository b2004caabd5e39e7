"""Epoch deposits, reshuffling, and fee cash-in rules."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardsim.economics import (
    DECOUPLED,
    NAIVE,
    EpochAssignment,
    IncentiveLedger,
    ShardDeposit,
    cash_in,
    miner_ids,
    record_fee,
    rotate_leader,
    shuffle_epoch,
    split_fee,
)

from oracles import expected_reward


# ---------------------------------------------------------------------------
# deposits


def test_record_fee_accumulates():
    dep = ShardDeposit()
    record_fee(dep, "m0", 4)
    record_fee(dep, "m0", 1)
    record_fee(dep, "m1", 5)
    assert dep.total == 10
    assert dep.fraction("m0") == pytest.approx(0.5)
    assert dep.fraction("m1") == pytest.approx(0.5)


def test_empty_deposit_fraction_is_zero():
    assert ShardDeposit().fraction("m0") == 0.0


# ---------------------------------------------------------------------------
# cash-in (the three-shard worked example)


def _three_shard_deposits():
    """Epoch-n deposits of 100, 50 and 50 coins on shards 0, 1, 2."""
    deposits = [ShardDeposit() for _ in range(3)]
    asn = EpochAssignment({"m0": 0, "m1": 1, "m2": 1, "m3": 2})
    record_fee(deposits[0], "m0", 100)
    record_fee(deposits[1], "m1", 5)   # m1 holds 10% of shard 1
    record_fee(deposits[1], "m2", 45)
    record_fee(deposits[2], "m3", 50)
    return deposits, asn


def test_cash_in_worked_example_exact():
    # 10% contribution in the old shard, reassigned to a 50-coin shard: 5 coins
    deposits, prev = _three_shard_deposits()
    new = EpochAssignment({"m0": 0, "m1": 2, "m2": 1, "m3": 1})
    assert cash_in("m1", deposits, prev, new) == pytest.approx(5.0)


def test_cash_in_scales_with_new_shard_deposit():
    deposits, prev = _three_shard_deposits()
    new = EpochAssignment({"m0": 0, "m1": 0, "m2": 1, "m3": 1})
    # same 10% fraction, but the new shard locked 100 coins
    assert cash_in("m1", deposits, prev, new) == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# expected reward law


def test_expected_reward_closed_form():
    assert expected_reward(0.1, 200, 2) == pytest.approx(10.0)
    assert expected_reward(1.0, 160, 16) == pytest.approx(10.0)
    assert expected_reward(0.0, 999, 4) == 0.0


def test_monte_carlo_matches_expected_reward():
    # small-scale version of the acceptance run: k=4, 20k shuffles
    k, per_shard = 4, 3
    miners = miner_ids(k, per_shard)
    deposits = [ShardDeposit() for _ in range(k)]
    prev = shuffle_epoch(miners, k, 0, seed=0)
    amounts = {0: 40, 1: 100, 2: 20, 3: 40}
    for s in range(k):
        for m in prev.miners_of(s):
            record_fee(deposits[s], m, amounts[s] // per_shard)
    miner = prev.miners_of(1)[0]
    fraction = deposits[1].fraction(miner)
    total = sum(d.total for d in deposits)
    payouts = [
        cash_in(miner, deposits, prev, shuffle_epoch(miners, k, 1, seed=i))
        for i in range(20_000)
    ]
    mean = sum(payouts) / len(payouts)
    assert mean == pytest.approx(expected_reward(fraction, total, k), rel=0.02)


# ---------------------------------------------------------------------------
# leader rotation and reshuffling


def test_rotate_leader_round_robin():
    asn = EpochAssignment({"m2": 0, "m0": 0, "m1": 0})
    leaders = [rotate_leader(asn, 0, r) for r in range(5)]
    assert leaders == ["m0", "m1", "m2", "m0", "m1"]


def test_shuffle_epoch_is_balanced_and_deterministic():
    miners = miner_ids(4, 3)
    a = shuffle_epoch(miners, 4, epoch=7, seed=11)
    b = shuffle_epoch(miners, 4, epoch=7, seed=11)
    assert a == b
    sizes = Counter(a.shard_of.values())
    assert sizes == {0: 3, 1: 3, 2: 3, 3: 3}
    assert shuffle_epoch(miners, 4, epoch=8, seed=11) != a


def test_shuffle_is_roughly_uniform():
    miners = miner_ids(2, 2)
    landed = Counter(
        shuffle_epoch(miners, 2, epoch=e, seed=0).shard_of["m0000"]
        for e in range(2000)
    )
    assert landed[0] == pytest.approx(1000, rel=0.1)


# ---------------------------------------------------------------------------
# fee splitting


def test_split_fee_even():
    assert split_fee(6, {0, 1, 2}) == {0: 2, 1: 2, 2: 2}


def test_split_fee_remainder_to_lowest_shard():
    assert split_fee(7, {3, 1}) == {1: 4, 3: 3}


def test_split_fee_drops_zero_shares():
    assert split_fee(1, {2, 5}) == {2: 1}


def _literal_split(fee, shards):
    """The rule written out: each shard's equal share, the remainder to the
    lowest id, zero shares dropped."""
    ordered = sorted(shards)
    share, remainder = divmod(fee, len(ordered))
    split = {shard: share + (remainder if shard == ordered[0] else 0) for shard in ordered}
    return {shard: amount for shard, amount in split.items() if amount}


@pytest.mark.parametrize("ids", [(0, 1, 2, 3, 4), (2, 9, 4, 30, 17), (31, 12, 5, 3, 0)],
                         ids=["contiguous", "gaps-unsorted", "descending"])
def test_split_fee_matches_literal_rule(ids):
    for size in range(1, 6):
        for shards in (ids[:size], frozenset(ids[:size])):
            for fee in range(13):
                assert split_fee(fee, shards) == _literal_split(fee, shards), (fee, shards)


@given(fee=st.integers(min_value=0, max_value=10 ** 6),
       shards=st.sets(st.integers(min_value=0, max_value=31), min_size=1, max_size=8))
@settings(max_examples=200)
def test_split_fee_conserves_total(fee, shards):
    assert sum(split_fee(fee, shards).values()) == fee


# ---------------------------------------------------------------------------
# ledger integration


def test_ledger_decoupled_pays_from_new_shard_deposit():
    ledger = IncentiveLedger(k=2, miners_per_shard=1, seed=0, scheme=DECOUPLED)
    ledger.credit(0, 0, 10)
    ledger.credit(1, 0, 30)
    assert all(v == 0.0 for v in ledger.balances.values())  # locked until close
    ledger.close_epoch()
    assert sum(ledger.balances.values()) == pytest.approx(40.0)
    # single miner per shard: fraction 1.0 of the new shard's deposit
    new_shard = {m: s for m, s in ledger.assignment.shard_of.items()}
    for miner, balance in ledger.balances.items():
        expected = {0: 10.0, 1: 30.0}[new_shard[miner]]
        assert balance == pytest.approx(expected)


def test_ledger_naive_pays_immediately():
    ledger = IncentiveLedger(k=2, miners_per_shard=2, seed=0, scheme=NAIVE)
    leader = rotate_leader(ledger.assignment, 0, 0)
    ledger.credit(0, 0, 7)
    assert ledger.balances[leader] == 7
    ledger.close_epoch()
    assert sum(ledger.balances.values()) == 7  # nothing extra on close


def test_ledger_epoch_rows_record_contributions():
    ledger = IncentiveLedger(k=2, miners_per_shard=1, seed=3)
    ledger.credit(0, 0, 4)
    ledger.close_epoch()
    rows = [r for r in ledger.epoch_rows if r[1] == 0]
    assert len(rows) == 1
    epoch, shard, total, miner, contribution, payout = rows[0]
    assert (epoch, shard, total, contribution) == (0, 0, 4, 4)


def test_ledger_total_fees_tracks_all_schemes():
    for scheme in (DECOUPLED, NAIVE):
        ledger = IncentiveLedger(k=2, miners_per_shard=1, seed=0, scheme=scheme)
        ledger.credit(0, 0, 5)
        ledger.credit(1, 1, 2)
        assert ledger.total_fees() == 7


def test_decoupled_conserves_deposits_under_equal_fractions():
    # with one miner per shard every fraction is 1.0, so the reshuffle is a
    # permutation of the deposits and cash-in conserves the total exactly
    ledger = IncentiveLedger(k=4, miners_per_shard=1, seed=5, scheme=DECOUPLED)
    rng = random.Random(0)
    total = 0
    for shard in range(4):
        fee = rng.randint(1, 50)
        ledger.credit(shard, 0, fee)
        total += fee
    ledger.close_epoch()
    assert sum(ledger.balances.values()) == pytest.approx(total)


def test_miner_ids_shape():
    assert miner_ids(2, 2) == ["m0000", "m0001", "m0002", "m0003"]
