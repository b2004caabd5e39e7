"""shardsim benchmark: host throughput, set-up time and memory of cells of
the acceptance headline workload, plus a traced per-module split.

Run from the repository root:

    python3 perfbench/run.py --workload scheduler-k16-econ --seed 0 --seconds 60 --trace 0

The benchmark is a closed loop: one process, one thread, one simulation at a
time.  ``--seed s`` names a panel of P workload seeds, P*s up to P*s + P - 1,
where P is the workload's panel size.  Each simulation sets up (workload
build plus ``Simulation(...)``) and runs (``Simulation.run()``) one seed.
The run goes through the panel once, then cycles through it again while one
more simulation is expected to end within ``--seconds``; every simulation's
output is checked.  The last line of standard output holds the metrics,
pooled over all simulations of the run.  With ``--trace 1`` the panel's
first seed alone is run, untraced and then twice traced, and the per-module
metrics are printed instead.  NOTES.md explains the choices.

    python3 perfbench/run.py --record-reference --workload partition-k32-trace --seed 0

records the output digests of one panel in reference_digests.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from spans import DETERMINISTIC, Tracer, instrument, layer_metrics, patched

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_FILE = BENCH_DIR / "reference_digests.json"

TRACE_BLOCK_SIZE = 100  # transactions per block in the written trace file
TRACED_RUNS = 2  # counters must repeat exactly across these
PROBE_REFERENCE_S = 0.15  # probe() time at which a host counts as reference speed

END_TO_END_UNITS = {"setup_s": "s", "tx_per_s": "1/s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "workload.generate_s": "s",
    "workload.load_trace_s": "s",
    "partitioner.graph_s": "s",
    "partitioner.partition_s": "s",
    "partitioner.vertices": "count",
    "policies.plan_calls": "count",
    "policies.plan_s": "s",
    "policies.plans_per_tx": "ratio",
    "core.update_alignments_calls": "count",
    "core.update_alignments_s": "s",
    "core.book_add_calls": "count",
    "core.book_totals_calls": "count",
    "core.book_totals_s": "s",
    "core.book_advance_s": "s",
    "engine.rounds": "count",
    "engine.admit_calls": "count",
    "engine.deferrals": "count",
    "engine.admit_yield": "ratio",
    "engine.admit_self_s": "s",
    "engine.loop_self_s": "s",
    "engine.round_ms_p50": "ms",
    "engine.round_ms_tail": "ms",
    "engine.round_ms_tail_pct": "%",
    "engine.first_seen_entries": "count",
    "economics.credit_calls": "count",
    "economics.credit_s": "s",
    "economics.close_epoch_calls": "count",
    "economics.close_epoch_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Cell:
    policy: str
    k_shards: int
    panel: int  # workload seeds per --seed
    economics: bool = False
    from_trace: bool = False

    def seeds(self, seed: int) -> range:
        return range(self.panel * seed, self.panel * seed + self.panel)


# Why these cells (and not the 3x3 policy-by-k matrix) is in NOTES.md.
# BENCHMARK.json lists the last two; hash-k8 is kept for manual comparisons.
# Partition's run time follows its round count, which ranges from 65 to 170
# across workload seeds, so that cell runs more distinct seeds per run.
WORKLOADS = {
    "hash-k8": Cell("hash", 8, panel=3),
    "scheduler-k16-econ": Cell("scheduler", 16, panel=5, economics=True),
    "partition-k32-trace": Cell("partition", 32, panel=6, from_trace=True),
}


def import_program():
    """Import shardsim from this checkout's sources, never from elsewhere."""
    if not (SRC / "shardsim" / "__init__.py").is_file():
        raise SystemExit(f"error: shardsim sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import shardsim

    if Path(shardsim.__file__).resolve().parent != (SRC / "shardsim").resolve():
        raise SystemExit(f"error: imported shardsim from {shardsim.__file__}, not {SRC}")


def headline_spec(seed: int):
    """The acceptance suite's headline workload (communities, 100k txs)."""
    from shardsim import SyntheticSpec

    return SyntheticSpec(
        generator="communities",
        n_accounts=4000,
        n_txs=100_000,
        seed=seed,
        accounts_per_tx=3,
        n_communities=400,
        p_inter=0.05,
        community_zipf_exponent=0.6,
        p_hotspot=0.02,
        zipf_exponent=0.8,
    )


def sim_config(cell: Cell, seed: int):
    from shardsim import SimConfig

    return SimConfig(
        k_shards=cell.k_shards, policy=cell.policy, seed=seed, economics=cell.economics
    )


# -- inputs ------------------------------------------------------------------


def write_trace(txs, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tx in txs:
            fh.write(
                f"{tx.arrival_index // TRACE_BLOCK_SIZE} {tx.tx_id} {tx.fee} "
                f"{','.join(tx.write_set)}\n"
            )


def workload_digest(txs) -> str:
    h = hashlib.sha256()
    for tx in txs:
        h.update(repr((tx.tx_id, tx.arrival_index, tx.write_set, tx.fee, tx.base_cost)).encode())
    return h.hexdigest()


class Inputs:
    """One workload seed's input.  The trace cell writes its file on entry,
    before any timing, and deletes it on exit."""

    def __init__(self, cell: Cell, seed: int):
        self.cell = cell
        self.seed = seed
        self.trace_path = None
        self.expected_digest = None

    def __enter__(self):
        from shardsim import generate

        if self.cell.from_trace:
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            generated = generate(headline_spec(self.seed))
            self.expected_digest = workload_digest(generated)
            self.trace_path = OUT_DIR / f"trace-seed{self.seed}.txt"
            write_trace(generated, self.trace_path)
        return self

    def __exit__(self, *exc):
        if self.trace_path is not None:
            self.trace_path.unlink(missing_ok=True)

    def build(self, tracer=None):
        from shardsim import generate, load_trace

        if self.cell.from_trace:
            fn, name, arg = (lambda p: load_trace(p)[0]), "workload.load_trace", self.trace_path
        else:
            fn, name, arg = generate, "workload.generate", headline_spec(self.seed)
        return tracer.call(name, fn, arg) if tracer else fn(arg)


# -- output checks -----------------------------------------------------------


def output_digest(reports, summary) -> str:
    """SHA-256 over the FinalSummary fields and every per-round report."""
    h = hashlib.sha256(json.dumps(asdict(summary), sort_keys=True).encode())
    for report in reports:
        h.update(json.dumps(asdict(report), sort_keys=True).encode())
    return h.hexdigest()


def check_run(sim, workload, reports, summary) -> list[str]:
    """Conservation invariants that hold on every seed."""
    problems = []
    if summary.executed != len(workload):
        problems.append(f"executed {summary.executed} != workload {len(workload)}")
    capacity = sim.config.shard_capacity
    for r in reports:
        if r.mempool_start + r.topped_up != r.processed_count + r.mempool_end:
            problems.append(f"round {r.round_index}: mempool not conserved")
        for shard, cost in r.processed_cost.items():
            if cost + r.residuals[shard] != capacity:
                problems.append(f"round {r.round_index} shard {shard}: cost + residual != capacity")
        if len(problems) > 10:
            break
    if sim.ledger is not None:
        collected = sum(sim.ledger.shard_collected.values())
        fees = sum(tx.fee if tx.fee > 0 else sim.config.default_fee for tx in workload)
        if summary.total_fees != collected or collected != fees:
            problems.append(
                f"total_fees {summary.total_fees}, collected {collected}, tx fees {fees}"
            )
    return problems


def load_references() -> dict:
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


# -- runs --------------------------------------------------------------------


@dataclass
class Sample:
    seed: int
    setup_s: float
    run_s: float
    executed: int
    digest: str
    probe_s: list = field(default_factory=list)  # probe() before set-up, between, after run
    problems: list = field(default_factory=list)


def one_run(cell: Cell, seed: int, tracer=None, between=None):
    """Set up and run one simulation; returns (Sample, sim, summary).
    Untraced, `between()` is called untimed between set-up and run."""
    from shardsim import Simulation

    config = sim_config(cell, seed)
    probes = []
    with Inputs(cell, seed) as inputs:
        if tracer is None:
            t0 = time.perf_counter()
            workload = inputs.build()
            sim = Simulation(config, workload)
            setup_s = time.perf_counter() - t0
            if between is not None:
                probes.append(between())
            t1 = time.perf_counter()
            reports, summary = sim.run()
            run_s = time.perf_counter() - t1
        else:
            with patched(tracer):
                t0 = time.perf_counter()
                workload = inputs.build(tracer)
                sim = tracer.call("engine.init", Simulation, config, workload)
                setup_s = time.perf_counter() - t0
                t1 = time.perf_counter()
                instrument(sim, tracer)
                reports, summary = tracer.call("engine.run", sim.run)
                run_s = time.perf_counter() - t1
    sample = Sample(seed, setup_s, run_s, summary.executed, output_digest(reports, summary))
    sample.probe_s = probes
    sample.problems = check_run(sim, workload, reports, summary)
    if inputs.expected_digest is not None and workload_digest(workload) != inputs.expected_digest:
        sample.problems.append("trace round trip changed the workload")
    return sample, sim, summary


def report(problems) -> None:
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)


class Tally:
    """Counts attempted and failed runs; a run fails on any check or exception.

    A digest must match the recorded reference for its seed, if there is one,
    and every earlier run of the same seed in this process.
    """

    def __init__(self, references: dict):
        self.references = dict(references)
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0

    def fail(self, problems) -> None:
        report(problems)
        self.failed += 1

    def record(self, run):
        """Call ``run()``, which returns ``one_run``'s tuple; None if it failed."""
        self.attempted += 1
        try:
            result = run()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        sample = result[0]
        first = self.digests.setdefault(sample.seed, sample.digest)
        if sample.digest != first:
            sample.problems.append(f"seed {sample.seed}: digest differs between runs")
        reference = self.references.get(str(sample.seed))
        if reference is not None and sample.digest != reference:
            sample.problems.append(f"seed {sample.seed}: digest != reference {reference}")
        if sample.problems:
            self.fail(sample.problems)
            return None
        return result


class _Record:
    __slots__ = ("key", "shard", "cost")

    def __init__(self, key, shard, cost):
        self.key, self.shard, self.cost = key, shard, cost


def probe() -> float:
    """Host seconds of a fixed pure-Python load that calls no shardsim code.

    It does what the simulator spends its time on, string-keyed dict lookups,
    slot reads and small-int updates, over a working set larger than a core's
    private caches, so its time follows the host's speed for the simulator.
    """
    n = 50_000
    # A collection here would traverse the live simulation's objects and time
    # its heap, not the host; the probe makes no cycles, so none is needed.
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        keys = [f"a{i}" for i in range(n)]
        table = {k: _Record(k, i % 16, 1) for i, k in enumerate(keys)}
        loads = {}
        x = 1
        for _ in range(150_000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            record = table[keys[x % n]]
            loads[record.shard] = loads.get(record.shard, 0) + record.cost
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def measure(cell, seeds, seconds, tally) -> list[Sample]:
    """Untraced simulations of `seeds` in turn, cycling: every seed once, then
    more only while one more, as long as the average so far, ends within
    `seconds`.  Probes before set-up, between set-up and run, and after the
    run give the host's speed during each phase."""
    samples = []
    start = time.perf_counter()
    probe()  # the first call in a process also pays for fresh memory
    before = probe()
    for done in itertools.count(1):
        s = seeds[(done - 1) % len(seeds)]
        result = tally.record(lambda: one_run(cell, s, between=probe))
        sample = None if result is None else result[0]
        del result  # free the simulation before the probe and the next build
        after = probe()
        if sample is not None:
            sample.probe_s = [before, *sample.probe_s, after]
            samples.append(sample)
        before = after
        elapsed = time.perf_counter() - start
        if done >= len(seeds) and elapsed * (done + 1) / done > seconds:
            return samples


def end_to_end(samples, scaled=True) -> dict:
    """Throughput and wall time pooled over every simulation of the run, so
    that seeds with more rounds weigh by their time; set-up is a median.
    Each phase's time is divided by its slowdown, the mean of the probes on
    either side over PROBE_REFERENCE_S, unless `scaled` is false."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux

    def slowdown(probes) -> float:
        return statistics.fmean(probes) / PROBE_REFERENCE_S if scaled else 1.0

    setup = [s.setup_s / slowdown(s.probe_s[:2]) for s in samples]
    run = [s.run_s / slowdown(s.probe_s[1:]) for s in samples]
    return {
        "setup_s": statistics.median(setup),
        "tx_per_s": sum(s.executed for s in samples) / sum(run),
        "wall_s": statistics.fmean(a + b for a, b in zip(setup, run)),
        "peak_rss_mb": peak_kib / 1024,
    }


def traced(cell, seed, workload_name, untraced, tally) -> dict:
    """Two traced runs of one seed: per-module medians, counters must repeat."""
    runs = []
    for i in range(TRACED_RUNS):
        tracer = Tracer()
        result = tally.record(lambda: one_run(cell, seed, tracer))
        if result is None:
            continue
        sample, sim, summary = result
        layers = layer_metrics(tracer, sim, summary)
        layers["trace.run_s"] = sample.run_s
        runs.append(layers)
        if i == 0:
            tracer.save(OUT_DIR / f"spans-{workload_name}-seed{seed}.npz")
        del tracer, sim, summary, result
    if not runs:
        return {}
    repeat = [
        f"{name} differs between traced runs: {[run[name] for run in runs]}"
        for name in DETERMINISTIC
        if len({run[name] for run in runs}) != 1
    ]
    if repeat:
        tally.fail(repeat)
    metrics = {name: statistics.median(run[name] for run in runs) for name in runs[0]}
    metrics.update({name: runs[0][name] for name in DETERMINISTIC})
    baseline = statistics.median(s.run_s for s in untraced)
    metrics["trace.overhead_ratio"] = metrics.pop("trace.run_s") / baseline
    return metrics


# -- environment stamp -------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; src_sha256 still names the code
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int, seeds) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "workload_seeds": list(seeds),
    }


# -- entry points ------------------------------------------------------------


def record_reference(workload_name: str, seed: int) -> int:
    """Store the panel's digests; the trace cell must match its generate twin."""
    cell = WORKLOADS[workload_name]
    refs = load_references()
    recorded = refs.setdefault(workload_name, {})
    status = 0
    for s in cell.seeds(seed):
        sample = one_run(cell, s)[0]
        if cell.from_trace:
            twin = one_run(replace(cell, from_trace=False), s)[0]
            sample.problems += twin.problems
            if twin.digest != sample.digest:
                sample.problems.append("trace-driven digest differs from generate-driven")
        if sample.problems:
            report(sample.problems)
            status = 1
            continue
        recorded[str(s)] = sample.digest
        print(f"{workload_name} workload seed {s}: {sample.digest}")
    REFERENCE_FILE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    if args.record_reference:
        return record_reference(args.workload, args.seed)

    cell = WORKLOADS[args.workload]
    seeds = cell.seeds(args.seed)[:1] if args.trace else cell.seeds(args.seed)
    stamp = environment(args.seed, seeds)
    tally = Tally(load_references().get(args.workload, {}))
    untraced = measure(cell, seeds, args.seconds, tally)
    as_measured = end_to_end(untraced, scaled=False) if untraced else {}
    if not untraced:
        metrics = {}
    elif args.trace:
        metrics = traced(cell, seeds[0], args.workload, untraced, tally)
    else:
        metrics = end_to_end(untraced)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": tally.failed == 0 and set(metrics) >= set(units),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": stamp,
        "digests": {str(s): d for s, d in sorted(tally.digests.items())},
        "samples": [asdict(s) for s in untraced],
        "as_measured": as_measured,
        **result,
    }
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("environment " + json.dumps(stamp, sort_keys=True))
    print("as measured, not scaled to reference speed " + json.dumps(as_measured))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
