"""Balanced k-way partitioning: exact oracle comparisons and guards."""

import itertools
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from shardsim import partitioner
from shardsim.core import Transaction
from shardsim.partitioner import Infeasible, graph_from_transactions, partition_greedy

from oracles import TooLarge, UncoveredVertex, cut_weight, partition_bruteforce


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
# differential test against the sort-based coarsening and initial assignment


def _reference_coarsen(adj, node_weight, balance_cap):
    matched = {}
    merge_limit = max(2, balance_cap // 2)
    order = sorted(adj, key=lambda v: (-max(adj[v].values(), default=0), v))
    for v in order:
        if v in matched:
            continue
        best = None
        for n, w in sorted(adj[v].items(), key=lambda kv: (-kv[1], kv[0])):
            if n not in matched and node_weight[v] + node_weight[n] <= merge_limit:
                best = n
                break
        matched[v] = best if best is not None else v
        if best is not None:
            matched[best] = v
    rep = {}
    for v, m in matched.items():
        rep[v] = v if m == v else min(v, m)
    coarse_adj = {}
    coarse_weight = {}
    for v in adj:
        r = rep[v]
        coarse_adj.setdefault(r, {})
        coarse_weight[r] = coarse_weight.get(r, 0) + node_weight[v]
    for v, nbrs in adj.items():
        rv = rep[v]
        for n, w in nbrs.items():
            rn = rep[n]
            if rv != rn:
                coarse_adj[rv][rn] = coarse_adj[rv].get(rn, 0) + w
    return coarse_adj, coarse_weight, rep


def _reference_initial_assign(adj, node_weight, k, balance_cap):
    assignment = {}
    sizes = [0] * k
    for v in sorted(adj, key=lambda v: (-node_weight[v], v)):
        gains = [0] * k
        for n, w in adj[v].items():
            if n in assignment:
                gains[assignment[n]] += w
        candidates = [
            c for c in range(k) if sizes[c] + node_weight[v] <= balance_cap
        ]
        if not candidates:
            raise Infeasible("no cluster can absorb a coarse node within the cap")
        c = max(candidates, key=lambda c: (gains[c], -sizes[c], -c))
        assignment[v] = c
        sizes[c] += node_weight[v]
    return assignment


_NAMES = ["".join(t) for size in (1, 2, 3, 4) for t in itertools.product("abc", repeat=size)]


@st.composite
def _partition_cases(draw):
    # short names inserted in random order, so name order and insertion
    # order disagree; few distinct weights, so ties are common
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    names = rng.sample(_NAMES, draw(st.integers(1, 60)))
    density = draw(st.sampled_from([0.05, 0.15, 0.4]))
    max_weight = draw(st.integers(1, 3))
    g = {v: {} for v in names}
    for u, v in itertools.combinations(names, 2):
        if rng.random() < density:
            _add_edge(g, u, v, rng.randint(1, max_weight))
    k = draw(st.integers(1, 8))
    cap = -(-len(names) // k) + draw(st.integers(0, 3))  # slack 0 leaves no room
    return g, k, cap, draw(st.integers(0, 100))


@given(case=_partition_cases())
# no shrink phase: a failure is reported in seconds, not after minutes
@settings(max_examples=300, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
def test_greedy_matches_sort_based_reference(case):
    g, k, cap, seed = case
    try:
        with mock.patch.multiple(partitioner, _coarsen=_reference_coarsen,
                                 _initial_assign=_reference_initial_assign):
            expected = partition_greedy(g, k, cap, seed=seed)
    except Infeasible as exc:
        expected = type(exc)
    try:
        got = partition_greedy(g, k, cap, seed=seed)
    except Infeasible as exc:
        got = type(exc)
    assert got == expected
