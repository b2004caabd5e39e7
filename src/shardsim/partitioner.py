"""Weighted balanced k-way graph partitioning.

Implements the offline partitioning used by the partition baseline policy.
A graph is an adjacency dict, vertex -> {neighbour: weight}, that stores each
undirected edge under both ends, with positive integer weights and no
self-loops; a partition is an assignment dict, vertex -> cluster index in
[0, k).  Heavy-edge coarsening is followed by greedy single-vertex
refinement moves under a hard per-cluster vertex cap.  Coarsening matches
each vertex with its heaviest unmatched neighbour that fits the merge limit,
ties going to the smallest name; the initial assignment puts each coarse node
in the cluster with the highest gain that has room, then the smallest, then
the lowest index.  Each choice is one linear scan.  The co-occurrence graph
is built by counting each write set's account pairs as ordered in the write
set and then orienting each pair as its (min, max) edge.

Coarsening stops at the first level that a parity bound shows cannot be
packed.  A cluster of even-weight nodes alone holds at most cap - cap % 2,
and only the clusters that hold one of the m odd-weight nodes can reach an
odd cap, so no assignment fits a total weight above
min(m, k) * cap + (k - min(m, k)) * (cap - cap % 2).  The initial assignment
would raise Infeasible on such a level and on every coarser one, and then
retry one level finer, so stopping there gives the same partition.  With an
even cap the bound is k * cap and never fires.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain, combinations, repeat

from .core import _shuffle


_REFINE_PASSES = 8  # most refinement sweeps over the vertices


class Infeasible(Exception):
    pass


def graph_from_transactions(txs) -> dict:
    """Co-occurrence graph: edge weight counts write-set pairings.

    Vertices and neighbours appear in order of first occurrence, as if every
    pairing were added to the dict one at a time; Simulation accepts only
    write sets of distinct accounts, so no pairing is a self-loop.  The
    oriented pairs are counted first, in C, and then folded into their
    (min, max) edge in the counter's first-seen order, which is the order of
    first pairing of each edge.
    """
    write_sets = [tx.write_set for tx in txs]
    adj = {acc: {} for acc in dict.fromkeys(chain.from_iterable(write_sets))}
    oriented = Counter(chain.from_iterable(map(combinations, write_sets, repeat(2))))
    pairs = {}  # (u, v) with u < v -> weight, in order of first pairing
    for (a, b), n in oriented.items():
        key = (a, b) if a < b else (b, a)
        pairs[key] = pairs.get(key, 0) + n
    for (u, v), weight in pairs.items():
        adj[u][v] = weight
        adj[v][u] = weight
    return adj


def _match(adj: dict, node_weight: dict, balance_cap: int):
    """One heavy-edge matching pass.

    Returns rep, vertex -> the vertex naming its merged node, and the weight
    of each merged node, keyed in order of first appearance in adj.
    """
    matched = {}
    # Merged nodes stay at half the cap or below so the initial assignment
    # can still bin-pack them; full-cap nodes leave no packing slack.
    merge_limit = max(2, balance_cap // 2)
    order = sorted(adj, key=lambda v: (-max(adj[v].values(), default=0), v))
    for v in order:
        if v in matched:
            continue
        # the heaviest eligible neighbour, ties to the smallest name
        best = best_w = None
        room = merge_limit - node_weight[v]
        for n, w in adj[v].items():
            if n in matched or node_weight[n] > room:
                continue
            if best is None or w > best_w or (w == best_w and n < best):
                best, best_w = n, w
        matched[v] = best if best is not None else v
        if best is not None:
            matched[best] = v
    # the smaller vertex names the merged node
    rep = {v: v if m == v else min(v, m) for v, m in matched.items()}
    coarse_weight: dict = {}
    for v in adj:
        r = rep[v]
        coarse_weight[r] = coarse_weight.get(r, 0) + node_weight[v]
    return rep, coarse_weight


def _contract(adj: dict, rep: dict, coarse_weight: dict) -> dict:
    """The coarser graph: merged nodes joined by their summed edge weights."""
    coarse_adj: dict = {r: {} for r in coarse_weight}
    for v, nbrs in adj.items():
        rv = rep[v]
        for n, w in nbrs.items():
            rn = rep[n]
            if rv != rn:
                coarse_adj[rv][rn] = coarse_adj[rv].get(rn, 0) + w
    return coarse_adj


def _cannot_pack(weights, k: int, balance_cap: int) -> bool:
    """Parity bound: True only if no assignment to k clusters fits the cap.

    A cluster of even-weight nodes alone has an even total, so it holds at
    most cap - cap % 2; only a cluster with an odd-weight node can reach an
    odd cap, and at most min(m, k) clusters have one, for m odd nodes.
    Merging two nodes never adds an odd node, so a level the bound holds for
    passes it to every coarser level.  weights is re-iterable (a list or a
    dict view).
    """
    odd = min(k, sum(w & 1 for w in weights))
    return sum(weights) > odd * balance_cap + (k - odd) * (balance_cap - balance_cap % 2)


def _initial_assign(adj, node_weight, k, balance_cap):
    assignment = {}
    sizes = [0] * k
    for v in sorted(adj, key=lambda v: (-node_weight[v], v)):
        gains = [0] * k
        for n, w in adj[v].items():
            if n in assignment:
                gains[assignment[n]] += w
        # highest gain, then smallest size, then lowest index, within the cap
        best = best_gain = best_size = None
        room = balance_cap - node_weight[v]
        for c in range(k):
            size = sizes[c]
            if size > room:
                continue
            gain = gains[c]
            if best is None or gain > best_gain or (gain == best_gain and size < best_size):
                best, best_gain, best_size = c, gain, size
        if best is None:
            raise Infeasible("no cluster can absorb a coarse node within the cap")
        assignment[v] = best
        sizes[best] += node_weight[v]
    return assignment


def _refine(adj, node_weight, assignment, k, balance_cap, rng):
    sizes = [0] * k
    for v, c in assignment.items():
        sizes[c] += node_weight[v]
    order = sorted(adj)
    for _ in range(_REFINE_PASSES):
        _shuffle(rng, order)
        improved = False
        for v in order:
            cur = assignment[v]
            link = [0] * k
            for n, w in adj[v].items():
                link[assignment[n]] += w
            best_c = cur
            best_gain = 0
            for c in range(k):
                if c == cur or sizes[c] + node_weight[v] > balance_cap:
                    continue
                gain = link[c] - link[cur]  # cut reduction of moving v to c
                better = gain > best_gain or (
                    # equal-cut tie-break: spread intra weight toward the
                    # lighter cluster, then the lower index
                    gain == best_gain
                    and gain > 0
                    and (sizes[c], c) < (sizes[best_c], best_c)
                )
                if better:
                    best_gain = gain
                    best_c = c
            if best_c != cur:
                assignment[v] = best_c
                sizes[cur] -= node_weight[v]
                sizes[best_c] += node_weight[v]
                improved = True
        if not improved:
            break
    return assignment


def partition_greedy(adj: dict, k: int, balance_cap: int, seed: int = 0) -> dict:
    """Heavy-edge coarsening plus greedy boundary refinement.

    Deterministic for a fixed seed; the assignment always respects the vertex
    cap.  adj is read only: every level builds new maps.  The initial
    assignment runs on the coarsest level and, after each Infeasible, one
    level finer.  A level whose merged weights fail the parity bound of
    _cannot_pack is never contracted: the assignment would fail there and on
    every coarser level, and a failed attempt reads nothing else and draws
    nothing from the rng, so the partition is the one that building and
    trying every level gives.  With an even cap the bound is k * cap and
    never fires.
    """
    n = len(adj)
    if balance_cap * k < n:
        raise Infeasible("balance cap times k below vertex count")
    if k == 1:
        return dict.fromkeys(adj, 0)

    rng = random.Random(seed)
    weight = {v: 1 for v in adj}
    levels = []  # (fine_adj, fine_weight, rep) per coarsening step
    while len(adj) > max(2 * k, 16):
        rep, coarse_weight = _match(adj, weight, balance_cap)
        # a level that cannot be packed would only fail below, and so would
        # every coarser one: it is not contracted
        if len(coarse_weight) == len(adj) or _cannot_pack(coarse_weight.values(), k, balance_cap):
            break
        levels.append((adj, weight, rep))
        adj, weight = _contract(adj, rep, coarse_weight), coarse_weight

    while True:
        try:
            assignment = _initial_assign(adj, weight, k, balance_cap)
            break
        except Infeasible:
            if not levels:
                raise  # unit weights: genuinely infeasible
            # coarse nodes would not bin-pack; retry one level finer
            adj, weight, _ = levels.pop()
    assignment = _refine(adj, weight, assignment, k, balance_cap, rng)

    for fine_adj, fine_weight, rep in reversed(levels):
        assignment = {v: assignment[r] for v, r in rep.items()}
        assignment = _refine(fine_adj, fine_weight, assignment, k, balance_cap, rng)
    return assignment
