"""Exact oracles that only tests call: the small-instance partition
enumerator with its cut weight, and the closed-form expected cash-in of the
epoch shuffle."""

import itertools

from shardsim.partitioner import Infeasible


class UncoveredVertex(Exception):
    pass


class TooLarge(Exception):
    pass


def _edges(adj: dict):
    """Each edge of adj once, as (u, v, weight) with u < v."""
    for u, nbrs in adj.items():
        for v, w in nbrs.items():
            if u < v:
                yield u, v, w


def cut_weight(adj: dict, assignment: dict) -> int:
    total = 0
    for u, v, w in _edges(adj):
        if u not in assignment or v not in assignment:
            raise UncoveredVertex(u if u not in assignment else v)
        if assignment[u] != assignment[v]:
            total += w
    for v in adj:
        if v not in assignment:
            raise UncoveredVertex(v)
    return total


def partition_bruteforce(adj: dict, k: int, balance_cap: int) -> dict:
    """Exact minimum-cut feasible assignment by exhaustive enumeration.

    Ties break toward the lexicographically smallest assignment vector over
    the sorted vertex order.  Only meant for graphs with at most 12 vertices.
    """
    vertices = sorted(adj)
    if len(vertices) > 12:
        raise TooLarge(f"{len(vertices)} vertices exceeds the enumeration budget")
    if k < 1 or balance_cap * k < len(vertices):
        raise Infeasible("balance cap times k below vertex count")
    edge_list = [(vertices.index(u), vertices.index(v), w) for u, v, w in _edges(adj)]
    best = None
    best_cut = None
    for labels in itertools.product(range(k), repeat=len(vertices)):
        sizes = [0] * k
        ok = True
        for c in labels:
            sizes[c] += 1
            if sizes[c] > balance_cap:
                ok = False
                break
        if not ok:
            continue
        cut = sum(w for i, j, w in edge_list if labels[i] != labels[j])
        if best_cut is None or cut < best_cut:
            best_cut = cut
            best = labels
    return dict(zip(vertices, best))


def expected_reward(fraction: float, deposits_total: int, k: int) -> float:
    """Closed-form expected cash-in under a uniform shuffle: f * x_tot / k."""
    return fraction * deposits_total / k
