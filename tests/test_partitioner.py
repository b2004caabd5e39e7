"""Balanced k-way partitioning: exact oracle comparisons and guards."""

import itertools
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from shardsim import partitioner
from shardsim.core import Transaction
from shardsim.partitioner import Infeasible, graph_from_transactions, partition_greedy

from oracles import (TooLarge, UncoveredVertex, cut_weight, partition_bruteforce,
                     partition_multilevel)


def _add_edge(adj, u, v, weight=1):
    """Add weight to the undirected edge u-v, creating its ends in that order."""
    adj.setdefault(u, {})[v] = adj.get(u, {}).get(v, 0) + weight
    adj.setdefault(v, {})[u] = adj[u][v]


def _edges(adj):
    return [(u, v, w) for u, nbrs in adj.items() for v, w in nbrs.items() if u < v]


def _random_graph(rng, n_vertices, p_edge=0.4, max_weight=9):
    names = [f"v{i:02d}" for i in range(n_vertices)]
    g = {v: {} for v in names}
    for u, v in itertools.combinations(names, 2):
        if rng.random() < p_edge:
            _add_edge(g, u, v, rng.randint(1, max_weight))
    return g


def _largest_cluster(assignment, k):
    """Vertex count of the largest cluster; every cluster index is in [0, k)."""
    sizes = Counter(assignment.values())
    assert set(sizes) <= set(range(k))
    return max(sizes.values())


def _two_cliques_with_bridge(size, weight=1):
    """Two complete graphs joined by a single bridge edge."""
    g = {}
    left = [f"l{i}" for i in range(size)]
    right = [f"r{i}" for i in range(size)]
    for group in (left, right):
        for u, v in itertools.combinations(group, 2):
            _add_edge(g, u, v, weight)
    _add_edge(g, left[0], right[0], weight)
    return g, left, right


# ---------------------------------------------------------------------------
# graph basics


def test_graph_from_transactions_counts_pairings():
    txs = [
        Transaction("t0", 0, ("a", "b")),
        Transaction("t1", 1, ("a", "b", "c")),
        Transaction("t2", 2, ("d",)),
    ]
    g = graph_from_transactions(txs)
    assert g["a"]["b"] == 2
    assert g["a"]["c"] == 1
    assert g["b"]["c"] == 1
    assert "d" in g and not g["d"]


@given(write_sets=st.lists(
    st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=4, unique=True), max_size=30))
@settings(max_examples=200, deadline=None)
def test_graph_from_transactions_matches_add_edge_order(write_sets):
    # partition_greedy walks adj in insertion order, so the order must match
    # a graph accumulated pairing by pairing
    expected = {}
    for ws in write_sets:
        for acc in ws:
            expected.setdefault(acc, {})
        for a, b in itertools.combinations(ws, 2):
            _add_edge(expected, a, b)
    txs = [Transaction(f"t{i}", i, tuple(ws)) for i, ws in enumerate(write_sets)]
    got = graph_from_transactions(txs)
    assert [(v, list(nbrs.items())) for v, nbrs in got.items()] == [
        (v, list(nbrs.items())) for v, nbrs in expected.items()
    ]


def test_graph_from_transactions_folds_both_orientations():
    # the a-b edge is first paired as ("b", "a") and last as ("a", "b"): its
    # weights sum, and it keeps its first-seen place in both neighbour dicts,
    # ahead of a-c and b-d, which are first paired in between
    txs = [
        Transaction("t0", 0, ("b", "a")),
        Transaction("t1", 1, ("a", "c")),
        Transaction("t2", 2, ("d", "b")),
        Transaction("t3", 3, ("a", "b")),
    ]
    got = graph_from_transactions(txs)
    assert [(v, list(nbrs.items())) for v, nbrs in got.items()] == [
        ("b", [("a", 2), ("d", 1)]),
        ("a", [("b", 2), ("c", 1)]),
        ("c", [("a", 1)]),
        ("d", [("b", 1)]),
    ]


def test_graph_from_transactions_keeps_first_pairing_order_not_sorted_order():
    # c-d is paired first and a-b last, so c lists d before a, and a lists c
    # before b; filling adj from the sorted pairs would list a-b first
    txs = [
        Transaction("t0", 0, ("c", "d")),
        Transaction("t1", 1, ("a", "c")),
        Transaction("t2", 2, ("b", "a")),
    ]
    got = graph_from_transactions(txs)
    assert [(v, list(nbrs.items())) for v, nbrs in got.items()] == [
        ("c", [("d", 1), ("a", 1)]),
        ("d", [("c", 1)]),
        ("a", [("c", 1), ("b", 1)]),
        ("b", [("a", 1)]),
    ]


# ---------------------------------------------------------------------------
# cut weight


def test_cut_weight_single_cluster_is_zero():
    g = _random_graph(random.Random(0), 6)
    assert cut_weight(g, dict.fromkeys(g, 0)) == 0


def test_cut_weight_bridge_only():
    g, left, right = _two_cliques_with_bridge(3)
    assignment = {v: 0 for v in left} | {v: 1 for v in right}
    assert cut_weight(g, assignment) == 1


def test_cut_weight_single_edge():
    g = {}
    _add_edge(g, "a", "b", 5)
    assert cut_weight(g, {"a": 0, "b": 1}) == 5


def test_cut_weight_uncovered_vertex():
    g = {}
    _add_edge(g, "a", "b", 1)
    with pytest.raises(UncoveredVertex):
        cut_weight(g, {"a": 0})


def test_cut_weight_uncovered_isolated_vertex():
    with pytest.raises(UncoveredVertex):
        cut_weight({"a": {}}, {})


# ---------------------------------------------------------------------------
# brute force oracle


def test_bruteforce_finds_bridge_cut():
    g, left, right = _two_cliques_with_bridge(3)
    part = partition_bruteforce(g, 2, 3)
    assert cut_weight(g, part) == 1


def test_bruteforce_respects_balance_cap():
    g = _random_graph(random.Random(1), 6)
    part = partition_bruteforce(g, 3, 2)
    assert _largest_cluster(part, 3) <= 2


def test_bruteforce_too_large():
    g = _random_graph(random.Random(0), 13, p_edge=0.2)
    with pytest.raises(TooLarge):
        partition_bruteforce(g, 2, 13)


def test_bruteforce_infeasible_cap():
    g = _random_graph(random.Random(0), 5)
    with pytest.raises(Infeasible):
        partition_bruteforce(g, 2, 2)


def test_bruteforce_tie_break_is_lexicographic():
    # two isolated vertices, k=2: both-zero beats any split of equal cut 0
    assert partition_bruteforce({"a": {}, "b": {}}, 2, 2) == {"a": 0, "b": 0}


# ---------------------------------------------------------------------------
# greedy partitioner


def test_greedy_respects_balance_cap():
    rng = random.Random(2)
    for _ in range(20):
        g = _random_graph(rng, rng.randint(6, 40))
        k = rng.randint(2, 5)
        cap = -(-len(g) // k) + rng.randint(0, 2)
        part = partition_greedy(g, k, cap, seed=0)
        assert _largest_cluster(part, k) <= cap
        assert set(part) == set(g)


def test_greedy_never_beats_bruteforce():
    # the exact enumerator lower-bounds every feasible assignment
    rng = random.Random(3)
    for trial in range(200):
        n = rng.randint(2, 10)
        g = _random_graph(rng, n, p_edge=0.5)
        k = rng.randint(2, 3)
        cap = -(-n // k) + rng.randint(0, 1)
        exact = cut_weight(g, partition_bruteforce(g, k, cap))
        greedy = cut_weight(g, partition_greedy(g, k, cap, seed=trial))
        assert greedy >= exact


def test_greedy_exact_on_planted_bridges():
    for size in (3, 4, 5):
        g, left, right = _two_cliques_with_bridge(size)
        part = partition_greedy(g, 2, size, seed=0)
        assert cut_weight(g, part) == 1


def test_greedy_is_deterministic():
    g = _random_graph(random.Random(4), 50)
    a = partition_greedy(g, 4, 15, seed=9)
    b = partition_greedy(g, 4, 15, seed=9)
    assert a == b


def test_greedy_k1_and_empty():
    g = _random_graph(random.Random(5), 8)
    assert set(partition_greedy(g, 1, 8).values()) == {0}
    assert partition_greedy({}, 3, 1) == {}


def test_greedy_infeasible_cap():
    g = _random_graph(random.Random(6), 9)
    with pytest.raises(Infeasible):
        partition_greedy(g, 2, 4)


def test_greedy_scales_past_coarsening_threshold():
    # enough vertices to force at least one coarsening level
    g = _random_graph(random.Random(7), 120, p_edge=0.08)
    part = partition_greedy(g, 4, 35, seed=0)
    assert set(part) == set(g)
    assert _largest_cluster(part, 4) <= 35


@given(seed=st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=50, deadline=None)
def test_greedy_cut_matches_recount(seed):
    rng = random.Random(seed)
    g = _random_graph(rng, rng.randint(4, 25))
    k = rng.randint(2, 4)
    cap = -(-len(g) // k) + 1
    part = partition_greedy(g, k, cap, seed=seed)
    # cut_weight is consistent with a naive edge scan
    naive = sum(w for u, v, w in _edges(g) if part[u] != part[v])
    assert cut_weight(g, part) == naive


# ---------------------------------------------------------------------------
# differential test against the multilevel oracle, which builds every level
# with sort-based choices and has no packing shortcut


_NAMES = ["".join(t) for size in (1, 2, 3, 4) for t in itertools.product("abc", repeat=size)]


@st.composite
def _partition_cases(draw):
    # short names inserted in random order, so name order and insertion
    # order disagree; few distinct weights, so ties are common
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(1, 60))
        k = draw(st.integers(1, 8))
        cap = -(-n // k) + draw(st.integers(0, 3))  # slack 0 leaves no room
    else:
        # zero slack at an odd cap above the coarsening threshold, where the
        # parity bound can stop coarsening
        k = draw(st.integers(2, 8))
        cap = draw(st.sampled_from([c for c in range(3, 46, 2) if max(2 * k, 16) < k * c <= 90]))
        n = k * cap
    names = rng.sample(_NAMES, n)
    density = draw(st.sampled_from([0.05, 0.15, 0.4]))
    max_weight = draw(st.integers(1, 3))
    g = {v: {} for v in names}
    for u, v in itertools.combinations(names, 2):
        if rng.random() < density:
            _add_edge(g, u, v, rng.randint(1, max_weight))
    return g, k, cap, draw(st.integers(0, 100))


@given(case=_partition_cases())
# no shrink phase: a failure is reported in seconds, not after minutes
@settings(max_examples=300, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
def test_greedy_matches_sort_based_reference(case):
    g, k, cap, seed = case
    try:
        expected = partition_multilevel(g, k, cap, seed=seed)
    except Infeasible as exc:
        expected = type(exc)
    try:
        got = partition_greedy(g, k, cap, seed=seed)
    except Infeasible as exc:
        got = type(exc)
    # the same table, in the same key order
    assert got == expected
    if isinstance(got, dict):
        assert list(got) == list(expected)


# ---------------------------------------------------------------------------
# the parity bound that stops coarsening


def _packs(weights, k, cap):
    """Exhaustive search: can the weights go into k clusters of at most cap?"""
    def place(i, sizes):
        if i == len(weights):
            return True
        tried = set()
        for c in range(k):
            if sizes[c] + weights[i] <= cap and sizes[c] not in tried:
                tried.add(sizes[c])  # clusters of equal size are interchangeable
                sizes[c] += weights[i]
                if place(i + 1, sizes):
                    return True
                sizes[c] -= weights[i]
        return False
    return place(0, [0] * k)


def test_bound_on_small_examples():
    # three pairs fill two clusters of 3 exactly, but a cluster of pairs
    # holds 2: the bound fires and no packing exists
    assert partitioner._cannot_pack([2, 2, 2], 2, 3)
    assert not _packs([2, 2, 2], 2, 3)
    # two odd nodes let both clusters reach 3: no fire, and 1 + 2 | 2 + 1 packs
    assert not partitioner._cannot_pack([1, 2, 2, 1], 2, 3)
    assert _packs([1, 2, 2, 1], 2, 3)
    # an even cap never fires while the total fits k * cap
    assert not partitioner._cannot_pack([2, 2, 2], 3, 2)
    # with at least k odd nodes the bound is k * cap: only an overfull total fires
    assert partitioner._cannot_pack([1, 1, 1], 2, 1)
    assert not partitioner._cannot_pack([1, 1, 1], 3, 1)


@st.composite
def _bound_cases(draw, max_nodes, max_k, max_cap):
    # mostly odd caps and mostly even weights that nearly fill the k
    # clusters, where the bound has room to fire
    k = draw(st.integers(1, max_k))
    cap = 2 * draw(st.integers(1, max_cap // 2)) + (draw(st.integers(0, 3)) > 0)
    weights = []
    while len(weights) < max_nodes:
        w = 2 * draw(st.integers(1, cap // 2)) - (draw(st.integers(0, 3)) == 0)
        if sum(weights) + w > k * cap:
            break
        weights.append(w)
    return weights, k, cap


@given(case=_bound_cases(max_nodes=8, max_k=3, max_cap=9))
@settings(max_examples=400, deadline=None)
def test_bound_fires_only_where_nothing_packs(case):
    weights, k, cap = case
    if partitioner._cannot_pack(weights, k, cap):
        assert not _packs(weights, k, cap)


@given(case=_bound_cases(max_nodes=30, max_k=8, max_cap=25), data=st.data())
@settings(max_examples=300, deadline=None)
def test_bound_survives_every_merge(case, data):
    # coarsening only merges nodes, so a level the bound certifies certifies
    # every coarser level
    weights, k, cap = case
    assume(len(weights) >= 2)
    i, j = data.draw(st.lists(st.integers(0, len(weights) - 1), min_size=2, max_size=2,
                              unique=True))
    merged = [w for x, w in enumerate(weights) if x not in (i, j)] + [weights[i] + weights[j]]
    if partitioner._cannot_pack(weights, k, cap):
        assert partitioner._cannot_pack(merged, k, cap)


def _paired_graph(n):
    """n vertices, each with a heavy edge to its partner, on a sparse ring."""
    g = {f"v{i:03d}": {} for i in range(n)}
    for i in range(0, n, 2):
        _add_edge(g, f"v{i:03d}", f"v{i + 1:03d}", 5)
    for i in range(n):
        _add_edge(g, f"v{i:03d}", f"v{(i + 1) % n:03d}")
    return g


def _work(g, k, cap):
    with mock.patch.object(partitioner, "_contract", wraps=partitioner._contract) as contract, \
            mock.patch.object(partitioner, "_initial_assign",
                              wraps=partitioner._initial_assign) as assign:
        part = partition_greedy(g, k, cap, seed=0)
    assert _largest_cluster(part, k) <= cap
    assert part == partition_multilevel(g, k, cap, seed=0)
    return contract.call_count, assign.call_count


def test_zero_slack_odd_cap_contracts_no_level():
    # level 1 is 50 pairs of weight 2 and no odd node: 4 clusters of 25 can
    # hold 24 each at most, so the level is certified and never contracted
    g = _paired_graph(100)
    assert _work(g, 4, 25) == (0, 1)


@pytest.mark.parametrize("k, cap", [(4, 26), (5, 20)])
def test_even_cap_still_coarsens(k, cap):
    contracted, assigned = _work(_paired_graph(100), k, cap)
    assert contracted >= 1
    assert assigned >= 1
