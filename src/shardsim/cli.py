"""Experiment orchestration: single runs, parameter sweeps, CSV reports.

Configuration precedence is flags > key=value config file > defaults.  All
randomness derives from the single --seed; workload generation and epoch
shuffles use labeled sub-seeds so each stage is independently reproducible.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import sys
from dataclasses import replace

from .engine import ConfigError, Livelock, SimConfig, Simulation
from .workload import GENERATORS, InvalidSpec, ParseError, SyntheticSpec, generate, load_trace

SWEEP_AXES = {
    "shards": "k_shards",
    "cross-cost": "cross_shard_cost",
    "capacity": "shard_capacity",
    "mempool-ratio": "mempool_ratio",
}

_CONFIG_KEYS = {
    "policy": str,
    "mode": str,
    "shards": int,
    "cross_cost": int,
    "capacity": int,
    "mempool_ratio": float,
    "window": int,
    "epoch_length": int,
    "miners_per_shard": int,
    "seed": int,
    "max_rounds": int,
    "economics": lambda v: v.lower() in ("1", "true", "yes"),
    "ca_migration": lambda v: v.lower() in ("1", "true", "yes"),
    "synthetic": str,
    "trace": str,
    # synthetic workload parameters
    "n_accounts": int,
    "n_txs": int,
    "accounts_per_tx": int,
    "zipf_exponent": float,
    "n_communities": int,
    "p_inter": float,
    "community_zipf_exponent": float,
    "p_hotspot": float,
    "burst_period": int,
    "burst_amplitude": float,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def sub_seed(seed: int, label: str) -> int:
    """Labeled 32-bit sub-seed so stages draw from independent streams."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def load_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            values[key] = _CONFIG_KEYS[key](raw.strip())
    return values


def _add_run_flags(parser):
    parser.add_argument("--policy", choices=("hash", "partition", "scheduler"))
    parser.add_argument("--mode", choices=("2pc", "mutex"))
    parser.add_argument("--shards", type=int, dest="shards")
    parser.add_argument("--cross-cost", type=int, dest="cross_cost")
    parser.add_argument("--capacity", type=int)
    parser.add_argument("--mempool-ratio", type=float, dest="mempool_ratio")
    parser.add_argument("--window", type=int)
    parser.add_argument("--epoch-length", type=int, dest="epoch_length")
    parser.add_argument("--miners-per-shard", type=int, dest="miners_per_shard")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--max-rounds", type=int, dest="max_rounds")
    parser.add_argument("--economics", action="store_true", default=None)
    parser.add_argument("--ca-migration", action="store_true", default=None, dest="ca_migration")
    parser.add_argument("--trace")
    parser.add_argument("--synthetic", choices=GENERATORS)
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--out", required=True, help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="shardsim")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="single simulation run")
    _add_run_flags(run_p)
    sweep_p = sub.add_parser("sweep", help="one-axis parameter sweep")
    _add_run_flags(sweep_p)
    sweep_p.add_argument("--axis", choices=sorted(SWEEP_AXES), required=True)
    sweep_p.add_argument("--values", required=True, help="comma-separated axis values")
    sweep_p.add_argument(
        "--policies", default="hash,partition,scheduler", help="comma-separated policy list"
    )
    return parser


_DEFAULTS = {
    "policy": "hash",
    "mode": "2pc",
    "shards": 16,
    "cross_cost": 2,
    "capacity": 200,
    "mempool_ratio": 1.0,
    "window": 100,
    "epoch_length": 10,
    "miners_per_shard": 3,
    "seed": 0,
    "max_rounds": None,
    "economics": False,
    "ca_migration": False,
    "trace": None,
    "synthetic": None,
    "n_accounts": 1000,
    "n_txs": 10000,
    "accounts_per_tx": 2,
    "zipf_exponent": None,
    "n_communities": 50,
    "p_inter": 0.05,
    "community_zipf_exponent": 0.0,
    "p_hotspot": 0.0,
    "burst_period": 2000,
    "burst_amplitude": 20.0,
}


def resolve_settings(args) -> dict:
    settings = dict(_DEFAULTS)
    if getattr(args, "config", None):
        settings.update(load_config_file(args.config))
    for key in settings:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    return settings


def make_config(settings) -> SimConfig:
    return SimConfig(
        k_shards=settings["shards"],
        cross_shard_cost=settings["cross_cost"],
        shard_capacity=settings["capacity"],
        mempool_ratio=settings["mempool_ratio"],
        window=settings["window"],
        policy=settings["policy"],
        mode=settings["mode"],
        epoch_length=settings["epoch_length"],
        miners_per_shard=settings["miners_per_shard"],
        seed=settings["seed"],
        max_rounds=settings["max_rounds"],
        economics=settings["economics"],
        ca_migration=settings["ca_migration"],
    )


def build_workload(settings):
    """(transactions, contract accounts); only traces mark contract accounts."""
    if settings["trace"] and settings["synthetic"]:
        raise ConfigError("pass either a trace or a synthetic generator, not both")
    if settings["trace"]:
        return load_trace(settings["trace"])
    if not settings["synthetic"]:
        raise ConfigError("no workload: pass --trace or --synthetic")
    kwargs = dict(
        generator=settings["synthetic"],
        n_accounts=settings["n_accounts"],
        n_txs=settings["n_txs"],
        seed=sub_seed(settings["seed"], "workload"),
        accounts_per_tx=settings["accounts_per_tx"],
        k_shards=settings["shards"],
        n_communities=settings["n_communities"],
        p_inter=settings["p_inter"],
        community_zipf_exponent=settings["community_zipf_exponent"],
        p_hotspot=settings["p_hotspot"],
        burst_period=settings["burst_period"],
        burst_amplitude=settings["burst_amplitude"],
    )
    if settings["zipf_exponent"] is not None:
        kwargs["zipf_exponent"] = settings["zipf_exponent"]
    return generate(SyntheticSpec(**kwargs)), {}


SUMMARY_FIELDS = (
    "policy",
    "mode",
    "shards",
    "cross_cost",
    "capacity",
    "mempool_ratio",
    "seed",
    "rounds",
    "executed",
    "migrations",
    "throughput",
    "latency",
    "wasted_capacity",
    "cross_shard_ratio",
)


def summary_row(config: SimConfig, summary) -> dict:
    return {
        "policy": config.policy,
        "mode": config.mode,
        "shards": config.k_shards,
        "cross_cost": config.cross_shard_cost,
        "capacity": config.shard_capacity,
        "mempool_ratio": _fmt(config.mempool_ratio),
        "seed": config.seed,
        "rounds": summary.rounds,
        "executed": summary.executed,
        "migrations": summary.migrations,
        "throughput": _fmt(summary.throughput),
        "latency": _fmt(summary.latency),
        "wasted_capacity": summary.wasted_capacity,
        "cross_shard_ratio": _fmt(summary.cross_shard_ratio),
    }


def write_rounds_csv(path, reports, k: int) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["round", "processed", "wasted", "cross_count", "migrations"]
            + [f"load_s{s}" for s in range(k)]
        )
        for r in reports:
            writer.writerow(
                [
                    r.round_index,
                    r.processed_count,
                    sum(r.residuals.values()),
                    r.cross_shard_tx_count,
                    r.migrations_executed,
                ]
                + [r.processed_cost[s] for s in range(k)]
            )


def write_summary_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_epochs_csv(path, ledger) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "shard", "deposit_total", "miner", "contribution", "payout"])
        for epoch, shard, total, miner, contribution, payout in ledger.epoch_rows:
            writer.writerow([epoch, shard, total, miner, contribution, _fmt(payout)])


def _run_single(config: SimConfig, workload, out_dir) -> dict:
    txs, accounts = workload
    sim = Simulation(config, txs, accounts=accounts)
    reports, summary = sim.run()
    os.makedirs(out_dir, exist_ok=True)
    write_rounds_csv(os.path.join(out_dir, "rounds.csv"), reports, config.k_shards)
    row = summary_row(config, summary)
    write_summary_csv(os.path.join(out_dir, "summary.csv"), [row])
    if sim.ledger is not None:
        write_epochs_csv(os.path.join(out_dir, "epochs.csv"), sim.ledger)
    return row


def cmd_run(args) -> int:
    settings = resolve_settings(args)
    config = make_config(settings)
    workload = build_workload(settings)
    _run_single(config, workload, args.out)
    return 0


def cmd_sweep(args) -> int:
    settings = resolve_settings(args)
    field = SWEEP_AXES[args.axis]
    caster = float if args.axis == "mempool-ratio" else int
    values = [caster(v) for v in args.values.split(",") if v]
    if not values:
        raise ConfigError("empty --values list")
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    rows = []
    for value in values:
        for policy in policies:
            point = dict(settings, policy=policy)
            config = replace(make_config(point), **{field: value})
            if field == "k_shards":
                point["shards"] = value  # hash buckets of synthetic specs follow k
            workload = build_workload(point)
            out_dir = os.path.join(args.out, f"{policy}_{args.axis}_{value}")
            rows.append(_run_single(config, workload, out_dir))
    os.makedirs(args.out, exist_ok=True)
    write_summary_csv(os.path.join(args.out, "sweep.csv"), rows)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_sweep(args)
    except (ConfigError, InvalidSpec, Livelock, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
