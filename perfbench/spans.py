"""In-memory span recording around calls into shardsim, from outside the program.

Instrumentation replaces bound methods on one Simulation's own objects and, for
the duration of a ``with patched(tracer):`` block, the module attributes the
engine resolves at call time.  The program itself is not modified.

A span is (name, parent, start, end).  Calls are single-threaded and nested,
so a span's children never overlap and its self time is its duration minus
the sum of its children's durations.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# Counters that must repeat exactly across two traced runs of one seed.
DETERMINISTIC = (
    "policies.plan_calls",
    "policies.plans_per_tx",
    "core.update_alignments_calls",
    "core.book_add_calls",
    "core.book_totals_calls",
    "engine.rounds",
    "engine.admit_calls",
    "engine.deferrals",
    "engine.admit_yield",
    "engine.round_ms_tail_pct",
    "engine.first_seen_entries",
    "economics.credit_calls",
    "economics.close_epoch_calls",
    "partitioner.vertices",
)

# Highest ladder percentile that still leaves this many samples beyond it.
TAIL_MIN_BEYOND = 10
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Tracer:
    """Append-only span store plus plain call counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._name_id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def count(self, name: str, fn):
        """Return ``fn`` wrapped so that each call bumps a counter only."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict:
        """Per span name: call count, summed duration and summed self time."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        calls = np.bincount(a["name"], minlength=n_names)
        total = np.bincount(a["name"], weights=dur, minlength=n_names)
        own = np.bincount(a["name"], weights=self_time, minlength=n_names)
        return {
            name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }

    def starts_of(self, name: str) -> np.ndarray:
        a = self.arrays()
        nid = self._ids.get(name)
        if nid is None:
            return np.empty(0)
        return a["start"][a["name"] == nid]


@contextmanager
def patched(tracer: Tracer):
    """Trace the module attributes the engine resolves at call time.

    ``ShardState`` uses ``__slots__``, so its ``advance_block`` is traced on
    the class; everything is restored on exit.
    """
    from shardsim import core, engine

    saved = {
        name: getattr(engine, name)
        for name in ("update_alignments", "graph_from_transactions", "partition_greedy")
    }
    shard_advance = core.ShardState.advance_block
    traced_graph = tracer.wrap("partitioner.graph", saved["graph_from_transactions"])

    def graph_from_transactions(txs):
        graph = traced_graph(txs)
        tracer.counts["partitioner.vertices"] += len(graph)
        return graph

    engine.update_alignments = tracer.wrap("core.update_alignments", saved["update_alignments"])
    engine.graph_from_transactions = graph_from_transactions
    engine.partition_greedy = tracer.wrap("partitioner.partition", saved["partition_greedy"])
    core.ShardState.advance_block = tracer.wrap("core.shard_advance", shard_advance)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(engine, name, fn)
        core.ShardState.advance_block = shard_advance


def instrument(sim, tracer: Tracer) -> None:
    """Trace the instance methods the round loop calls on one Simulation."""
    sim.plan = tracer.wrap("policies.plan", sim.plan)
    sim.try_execute = tracer.wrap("engine.try_execute", sim.try_execute)
    sim.mempool.top_up = tracer.wrap("engine.top_up", sim.mempool.top_up)
    book = sim.book
    # book.add runs six times per 3-account transaction; a counter keeps the
    # overhead down, and its time stays inside core.update_alignments.
    book.add = tracer.count("core.book_add", book.add)
    book.totals = tracer.wrap("core.book_totals", book.totals)
    book.advance_block = tracer.wrap("core.book_advance", book.advance_block)
    if sim.ledger is not None:
        sim.ledger.credit = tracer.wrap("economics.credit", sim.ledger.credit)
        sim.ledger.close_epoch = tracer.wrap("economics.close_epoch", sim.ledger.close_epoch)


def tail(samples) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    TAIL_MIN_BEYOND samples beyond it, by nearest rank."""
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n * (1 - pct / 100) >= TAIL_MIN_BEYOND:
            rank = max(1, int(np.ceil(pct / 100 * n)))
            return pct, float(ordered[rank - 1])
    return 0.0, float(ordered[0]) if n else 0.0


def layer_metrics(tracer: Tracer, sim, summary) -> dict:
    """Per-module counts and times of one traced run (values only)."""
    t = tracer.totals()

    def calls(name):
        return t.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return t.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return t.get(name, (0, 0.0, 0.0))[2]

    executed = summary.executed
    admits = calls("engine.try_execute")
    round_ms = np.diff(tracer.starts_of("engine.top_up")) * 1000.0
    tail_pct, tail_ms = tail(round_ms)
    return {
        "workload.generate_s": total_s("workload.generate"),
        "workload.load_trace_s": total_s("workload.load_trace"),
        "partitioner.graph_s": total_s("partitioner.graph"),
        "partitioner.partition_s": total_s("partitioner.partition"),
        "partitioner.vertices": tracer.counts["partitioner.vertices"],
        "policies.plan_calls": calls("policies.plan"),
        "policies.plan_s": self_s("policies.plan"),
        "policies.plans_per_tx": calls("policies.plan") / executed,
        "core.update_alignments_calls": calls("core.update_alignments"),
        "core.update_alignments_s": total_s("core.update_alignments"),
        "core.book_add_calls": tracer.counts["core.book_add"],
        "core.book_totals_calls": calls("core.book_totals"),
        "core.book_totals_s": total_s("core.book_totals"),
        "core.book_advance_s": total_s("core.book_advance"),
        "engine.rounds": summary.rounds,
        "engine.admit_calls": admits,
        "engine.deferrals": admits - executed,
        "engine.admit_yield": executed / admits,
        "engine.admit_self_s": self_s("engine.try_execute"),
        "engine.loop_self_s": self_s("engine.run"),
        "engine.round_ms_p50": float(np.median(round_ms)) if len(round_ms) else 0.0,
        "engine.round_ms_tail": tail_ms,
        "engine.round_ms_tail_pct": tail_pct,
        "engine.first_seen_entries": len(sim.mempool.first_seen),
        "economics.credit_calls": calls("economics.credit"),
        "economics.credit_s": total_s("economics.credit"),
        "economics.close_epoch_calls": calls("economics.close_epoch"),
        "economics.close_epoch_s": total_s("economics.close_epoch"),
    }
