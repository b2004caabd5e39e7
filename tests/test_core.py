"""Domain-type unit tests: cost model, rolling windows, the alignment book."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardsim.core import (
    CA,
    Account,
    AlignmentBook,
    CostModel,
    ShardState,
    Transaction,
    _shuffle,
    update_alignments,
)
from shardsim.engine import LiveLoads

from reference_engine import pairwise_deltas, project


# ---------------------------------------------------------------------------
# cost model


def test_intra_charge_is_base_cost():
    assert CostModel(2).per_shard_charge(1, 1) == 1
    assert CostModel(7).per_shard_charge(3, 1) == 3


def test_cross_charge_scales_with_cost_factor():
    # every involved shard pays base * c_cross, independent of shard count
    model = CostModel(2)
    assert model.per_shard_charge(1, 2) == 2
    assert model.per_shard_charge(1, 5) == 2
    assert CostModel(4).per_shard_charge(3, 2) == 12


def test_migration_cost_eoa_and_ca():
    model = CostModel(2)
    assert model.migration_cost(None) == 2
    assert model.migration_cost(Account("aa")) == 2
    assert model.migration_cost(Account("bb", kind=CA, size=5)) == 10


# ---------------------------------------------------------------------------
# shard state: residual capacity + rolling load window
#
# Admission charges a shard by lowering its residual, after checking that it
# covers the charge; these tests charge the same way, and read the window load
# through the engine's LiveLoads, its one definition.


def _load(s):
    return LiveLoads([s])[0]


def test_charge_reduces_residual_and_window():
    s = ShardState(10, 4)
    s.residual -= 3
    s.residual -= 2
    assert s.residual == 5
    assert _load(s) == 5


def test_advance_block_restores_residual():
    s = ShardState(5, 3)
    s.residual -= 5
    s.advance_block()
    assert s.residual == 5
    assert _load(s) == 5  # still inside the window


def test_window_sum_evicts_old_blocks():
    s = ShardState(100, 3)
    for amount in (5, 7, 1, 2):
        s.residual -= amount
        s.advance_block()
    # the window covers the live block plus the previous two closed blocks
    assert _load(s) == 3


@given(
    charges=st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=60),
    window=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=200)
def test_window_sum_matches_naive_oracle(charges, window):
    s = ShardState(10, window)
    history = []
    for amount in charges:
        s.residual -= amount
        history.append(amount)
        # before the advance the window holds the live block and W - 1 closed ones
        assert _load(s) == sum(history[-window:])
        s.advance_block()
    # the live block is still empty after the final advance
    assert _load(s) == sum(history[-(window - 1):]) if window > 1 else _load(s) == 0


# ---------------------------------------------------------------------------
# alignment book: two window sums per account, toward its own shard and
# toward the rest.  Each test keeps the accounts' shards, as the engine does,
# and compares per-shard expectations through reference_engine.project.


def _add(book, where, account, shard, amount):
    """Add amount toward shard to account, which sits on where[account]."""
    own = shard == where[account]
    book.add(account, amount if own else 0, 0 if own else amount)


def _sums(book, account):
    return tuple(book.totals(account))


def test_alignment_add_and_totals():
    book = AlignmentBook(window=10)
    where = {"aa": 0}
    _add(book, where, "aa", 0, 3)
    _add(book, where, "aa", 1, 2)
    _add(book, where, "aa", 0, 1)
    assert _sums(book, "aa") == project({0: 4, 1: 2}, 0) == (4, 2)
    book.add_each(("aa", "bb"), 5)  # toward each account's own shard
    assert _sums(book, "aa") == (9, 2) and _sums(book, "bb") == (5, 0)
    assert _sums(book, "cc") == (0, 0)  # no record


def test_alignment_window_eviction():
    book = AlignmentBook(window=3)
    where = {"aa": 0}
    _add(book, where, "aa", 0, 5)
    _add(book, where, "aa", 1, 4)
    book.advance_block()
    _add(book, where, "aa", 1, 2)
    book.advance_block()
    book.advance_block()  # block 0 contribution now out of the window
    assert _sums(book, "aa") == project({1: 2}, 0) == (0, 2)


def test_alignment_reset_on_migration():
    book = AlignmentBook(window=10)
    book.add("aa", 5, 3)
    book.reset("aa")
    assert _sums(book, "aa") == (0, 0)


def test_reset_drops_only_earlier_triples():
    book = AlignmentBook(window=2)
    where = {"aa": 0, "bb": 1}
    _add(book, where, "aa", 0, 5)
    _add(book, where, "bb", 0, 1)  # toward the rest
    book.reset("aa")
    where["aa"] = 1  # migrated
    _add(book, where, "aa", 1, 3)  # same block, after the reset
    _add(book, where, "aa", 0, 6)
    assert _sums(book, "aa") == project({1: 3, 0: 6}, 1) == (3, 6)
    book.advance_block()
    _add(book, where, "aa", 0, 2)
    book.reset("aa")  # a second reset drops every triple so far
    where["aa"] = 2
    _add(book, where, "aa", 2, 4)
    assert _sums(book, "aa") == (4, 0)
    book.advance_block()  # evicts block 0: all of aa's triples there lie before a reset
    assert _sums(book, "aa") == (4, 0) and _sums(book, "bb") == (0, 0)
    book.advance_block()  # evicts block 1, the post-reset triple included
    assert _sums(book, "aa") == (0, 0) and _sums(book, "bb") == (0, 0)
    assert not any(book._ring)


def test_inactive_vectors_are_dropped():
    book = AlignmentBook(window=2)
    book.add("aa", 1, 1)
    book.add("bb", 2, 3)
    book.reset("bb")
    for _ in range(2):
        book.advance_block()
    # once the window has passed, every account's sums are zero and no delta is held
    assert _sums(book, "aa") == (0, 0) and _sums(book, "bb") == (0, 0)
    assert not any(book._ring)


_ACCOUNTS = ("aa", "bb", "cc")


@given(
    events=st.lists(
        st.one_of(
            st.tuples(st.just("add"), st.sampled_from(_ACCOUNTS),
                      st.integers(min_value=0, max_value=4),    # shard
                      st.integers(min_value=1, max_value=9)),   # amount
            st.tuples(st.just("each"), st.lists(st.sampled_from(_ACCOUNTS), unique=True),
                      st.integers(min_value=1, max_value=9)),   # amount
            st.tuples(st.just("advance")),
            st.tuples(st.just("reset"), st.sampled_from(_ACCOUNTS),
                      st.integers(min_value=0, max_value=4)),   # the shard it moves to
        ),
        min_size=1,
        max_size=60,
    ),
    window=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=300)
def test_alignment_totals_match_bucket_oracle(events, window):
    """Each account's (own, rest) pair always equals the per-shard sums of its
    in-window contributions since its last reset, projected onto the shard it
    has sat on since then, and neither side is ever negative."""
    book = AlignmentBook(window=window)
    where = dict.fromkeys(_ACCOUNTS, 0)
    log = []  # (block, account, shard, amount)
    for event in events:
        if event[0] == "add":
            _, account, shard, amount = event
            _add(book, where, account, shard, amount)
            log.append((book.block, account, shard, amount))
        elif event[0] == "each":
            _, accounts, amount = event
            book.add_each(accounts, amount)
            log += [(book.block, account, where[account], amount) for account in accounts]
        elif event[0] == "advance":
            book.advance_block()
        else:
            _, account, where[account] = event
            log = [entry for entry in log if entry[1] != account]
            book.reset(account)
        for account in _ACCOUNTS:
            expected = {}
            for block, acc, shard, amount in log:
                if acc == account and block > book.block - window:
                    expected[shard] = expected.get(shard, 0) + amount
            sums = _sums(book, account)
            assert sums == project(expected, where[account])
            assert min(sums) >= 0


# ---------------------------------------------------------------------------
# pairwise alignment update: the engine passes the executed plan's final
# shards, the set of the write set's post-admission shards


def _update(tx, phi, model, book):
    update_alignments(tx, frozenset(phi[a] for a in tx.write_set), phi, model, book)


def test_two_account_cross_shard_update():
    # a in shard 0, b in shard 1, c_cross=2: each gains 2 toward the other
    phi = {"aa": 0, "bb": 1}
    book = AlignmentBook(window=10)
    _update(Transaction("t0", 0, ("aa", "bb")), phi, CostModel(2), book)
    assert _sums(book, "aa") == project({1: 2}, 0) == (0, 2)
    assert _sums(book, "bb") == project({0: 2}, 1) == (0, 2)


def test_three_account_update_mixed_shards():
    # x, y in shard 0, z in shard 1, c_cross=2
    phi = {"x0": 0, "y0": 0, "z0": 1}
    book = AlignmentBook(window=10)
    _update(Transaction("t0", 0, ("x0", "y0", "z0")), phi, CostModel(2), book)
    assert _sums(book, "x0") == project({0: 2, 1: 2}, 0) == (2, 2)
    assert _sums(book, "y0") == project({0: 2, 1: 2}, 0) == (2, 2)
    assert _sums(book, "z0") == project({0: 4}, 1) == (0, 4)


def test_intra_shard_update_uses_base_cost():
    phi = {"aa": 3, "bb": 3}
    book = AlignmentBook(window=10)
    _update(Transaction("t0", 0, ("aa", "bb")), phi, CostModel(5), book)
    assert _sums(book, "aa") == project({3: 1}, 3) == (1, 0)


@given(
    n_accounts=st.integers(min_value=1, max_value=6),
    shard_seed=st.integers(min_value=0, max_value=10 ** 6),
    c_cross=st.integers(min_value=1, max_value=6),
    base_cost=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=300)
def test_pairwise_update_matches_oracle(n_accounts, shard_seed, c_cross, base_cost):
    rng = random.Random(shard_seed)
    accounts = [f"a{i:02d}" for i in range(n_accounts)]
    shard_of = {acc: rng.randrange(4) for acc in accounts}
    model = CostModel(c_cross)
    charge = model.per_shard_charge(base_cost, len(set(shard_of.values())))
    book = AlignmentBook(window=10)
    add = book.add

    def checked_add(account, own, rest):  # the book takes no other amounts
        assert own >= 0 and rest > 0, (account, own, rest)
        add(account, own, rest)

    book.add = checked_add
    tx = Transaction("t0", 0, tuple(accounts), base_cost=base_cost)
    _update(tx, shard_of, model, book)
    expected = pairwise_deltas(accounts, shard_of, charge)
    for acc in accounts:
        assert _sums(book, acc) == project(expected[acc], shard_of[acc])


# ---------------------------------------------------------------------------
# seeded shuffle: the partition's refinement order and the epoch assignment

# (seed, length) -> _shuffle(random.Random(seed), list(range(length)))
_PINNED_SHUFFLES = {
    (0, 1): [0],
    (1, 2): [1, 0],
    (0, 10): [7, 8, 1, 5, 3, 4, 2, 0, 9, 6],
    (7, 10): [8, 3, 1, 4, 7, 0, 9, 6, 2, 5],
    ("epoch:0:1", 12): [9, 2, 5, 1, 4, 7, 11, 0, 6, 8, 3, 10],
    (2021, 33): [6, 16, 24, 3, 29, 13, 12, 30, 0, 4, 21, 26, 22, 19, 11, 27, 31, 5, 23, 32, 9,
                 8, 10, 2, 18, 15, 14, 1, 20, 28, 7, 17, 25],
}


@pytest.mark.parametrize("seed,length", list(_PINNED_SHUFFLES))
def test_shuffle_is_pinned_and_matches_random_shuffle(seed, length):
    # the literals hold on every interpreter; Random.shuffle is compared on
    # the running one, and both leave the generator at the same point
    rng, ref = random.Random(seed), random.Random(seed)
    items, expected = list(range(length)), list(range(length))
    _shuffle(rng, items)
    ref.shuffle(expected)
    assert items == _PINNED_SHUFFLES[seed, length]
    assert items == expected
    assert rng.random() == ref.random()
