"""Exact oracles that only tests call: the small-instance partition
enumerator with its cut weight, the multilevel partitioner that builds every
coarse level with sort-based choices, the closed-form expected cash-in of
the epoch shuffle, and the communities generator that draws call by call."""

import itertools
import random

import numpy as np

from shardsim.partitioner import Infeasible, _refine
from shardsim.workload import _community_slices, _WeightedSampler, _zipf_weights


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


def _coarsen_by_sort(adj, node_weight, balance_cap):
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


def _initial_assign_by_sort(adj, node_weight, k, balance_cap):
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


def partition_multilevel(adj: dict, k: int, balance_cap: int, seed: int = 0) -> dict:
    """partition_greedy without its shortcut: every coarse level is built,
    then the initial assignment is tried coarsest first, one level finer
    after each Infeasible; refinement is the partitioner's own."""
    if balance_cap * k < len(adj):
        raise Infeasible("balance cap times k below vertex count")
    if k == 1:
        return dict.fromkeys(adj, 0)
    rng = random.Random(seed)
    weight = {v: 1 for v in adj}
    levels = []
    while len(adj) > max(2 * k, 16):
        coarse_adj, coarse_weight, rep = _coarsen_by_sort(adj, weight, balance_cap)
        if len(coarse_adj) == len(adj):
            break
        levels.append((adj, weight, rep))
        adj, weight = coarse_adj, coarse_weight
    while True:
        try:
            assignment = _initial_assign_by_sort(adj, weight, k, balance_cap)
            break
        except Infeasible:
            if not levels:
                raise
            adj, weight, _ = levels.pop()
    assignment = _refine(adj, weight, assignment, k, balance_cap, rng)
    for fine_adj, fine_weight, rep in reversed(levels):
        assignment = {v: assignment[r] for v, r in rep.items()}
        assignment = _refine(fine_adj, fine_weight, assignment, k, balance_cap, rng)
    return assignment


def expected_reward(fraction: float, deposits_total: int, k: int) -> float:
    """Closed-form expected cash-in under a uniform shuffle: f * x_tot / k."""
    return fraction * deposits_total / k


def communities_reference(spec, rng, ids):
    """workload._gen_communities as it was before its loop was inlined: every
    draw goes through _Stream.random, integers and distinct and through
    _WeightedSampler.draw and draw_distinct."""
    slices = _community_slices(spec.n_accounts, spec.n_communities)
    if spec.community_zipf_exponent > 0:
        popularity = _zipf_weights(spec.n_communities, spec.community_zipf_exponent)
    else:
        popularity = np.full(spec.n_communities, 1.0 / spec.n_communities)
    pick_community = _WeightedSampler(rng, popularity)
    n = spec.accounts_per_tx
    hub_sampler = None
    if spec.p_hotspot > 0:
        weights = _zipf_weights(spec.n_accounts, spec.zipf_exponent)
        hub_sampler = _WeightedSampler(rng, weights, n)
    random, integers = rng.random, rng.integers
    last_seen = [-1] * spec.n_accounts  # index of each account's latest transaction
    recency = max(1, spec.n_txs // 25)
    out = []
    for t in range(spec.n_txs):
        if hub_sampler is not None and random() < spec.p_hotspot:
            picks = hub_sampler.draw_distinct(n)
        else:
            picks = None
            c = pick_community.draw()
            members = slices[c]
            if random() < spec.p_inter:
                d = integers(spec.n_communities - 1)
                if d >= c:
                    d += 1
                # An outsider joins a home-community group: n-1 members plus
                # one account from another community.  Inter-community
                # transactions only involve recently active accounts; a fresh
                # account always makes its first appearance inside its own
                # community.
                horizon = max(0, t - recency)
                active = [j for j in members if last_seen[j] >= horizon]
                active_d = [j for j in slices[d] if last_seen[j] >= horizon]
                if len(active) >= n - 1 and active_d:
                    outsider = active_d[integers(len(active_d))]
                    picks = (*sorted(rng.distinct(active, n - 1)), outsider)
                # else fall through to an intra-community transaction
            if picks is None:
                picks = sorted(rng.distinct(members, min(n, len(members))))
        for j in picks:
            last_seen[j] = t
        out.append(tuple([ids[j] for j in picks]))
    return out
