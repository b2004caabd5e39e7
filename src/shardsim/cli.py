"""Experiment orchestration: single runs, parameter sweeps, CSV reports.

Configuration precedence is flags > key=value config file > defaults.  All
randomness derives from the single --seed: a synthetic workload is generated
with it as its own seed, so ``shardsim run --synthetic ... --seed s`` runs the
workload ``generate(SyntheticSpec(..., seed=s))``, and it seeds the epoch
shuffles.  The committed experiments under ``experiments/`` are config files
for ``--config``.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import MISSING, fields
from typing import NamedTuple, get_args, get_type_hints

from .engine import ConfigError, Livelock, SimConfig, Simulation
from .policies import MODES, POLICY_KINDS
from .workload import (
    GENERATORS,
    SHARD_AWARE,
    InvalidSpec,
    ParseError,
    SyntheticSpec,
    generate,
    load_trace,
    undecodable_line,
)

# Every run and workload setting is a field of SimConfig or SyntheticSpec; the
# tables below hold only what the fields cannot say.  Setting names double as
# config-file keys and, with "-" for "_", as flags.
RENAMES = {
    "k_shards": "shards",
    "cross_shard_cost": "cross_cost",
    "shard_capacity": "capacity",
    "generator": "synthetic",
}
CHOICES = {"policy": POLICY_KINDS, "mode": MODES, "synthetic": GENERATORS}
# API-only fields; the spec's seed is the run's seed, and its k_shards the
# run's shards for a shard-aware generator
WITHHELD = {
    SimConfig: {"fee_scheme", "default_fee", "refuse_migrations_from"},
    SyntheticSpec: {"seed", "k_shards"},
}
SWEEP_AXES = ("shards", "cross-cost", "capacity", "mempool-ratio")
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


class Setting(NamedTuple):
    owner: type | None  # None: the trace path, which no dataclass holds
    field: str | None
    type: type
    default: object


def _settings() -> dict:
    settings = {}
    for owner, withheld in WITHHELD.items():
        hints = get_type_hints(owner)
        for f in fields(owner):
            if f.name not in withheld:
                hint = hints[f.name]  # X | None parses as X
                kind = next((a for a in get_args(hint) if a is not type(None)), hint)
                default = None if f.default is MISSING else f.default
                settings[RENAMES.get(f.name, f.name)] = Setting(owner, f.name, kind, default)
    settings["trace"] = Setting(None, None, str, None)
    return settings


SETTINGS = _settings()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_value(name: str, raw: str):
    """Text -> the setting's type; ValueError says what was expected."""
    kind = SETTINGS[name].type
    if kind is bool:
        if raw.lower() not in _BOOLS:
            raise ValueError(f"expected one of {'/'.join(_BOOLS)}, got {raw!r}")
        return _BOOLS[raw.lower()]
    if name in CHOICES and raw not in CHOICES[name]:
        raise ValueError(f"expected one of {', '.join(CHOICES[name])}, got {raw!r}")
    return kind(raw)


def _flag_value(name: str):
    """argparse type of a flag: _parse_value, its ValueError named by the flag."""
    def parse(raw):
        try:
            return _parse_value(name, raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def load_config_file(path) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        line_no, reason = undecodable_line(path)
        raise ConfigError(f"{path}:{line_no}: {reason}") from None
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in SETTINGS:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        try:
            values[key] = _parse_value(key, raw.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{line_no}: {key}: {exc}") from None
    return values


def _add_run_flags(parser):
    for name, setting in SETTINGS.items():
        flag = "--" + name.replace("_", "-")
        if setting.type is bool:  # a bare flag is true; a value overrides the file either way
            parser.add_argument(flag, nargs="?", const=True, type=_flag_value(name),
                                metavar="BOOL")
        else:
            parser.add_argument(flag, type=setting.type, choices=CHOICES.get(name))
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


def resolve_settings(args) -> dict:
    settings = {name: setting.default for name, setting in SETTINGS.items()}
    if getattr(args, "config", None):
        settings.update(load_config_file(args.config))
    for key in settings:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    return settings


def _build(owner, settings, **derived):
    values = {s.field: settings[name] for name, s in SETTINGS.items() if s.owner is owner}
    return owner(**values, **derived)


def make_config(settings) -> SimConfig:
    return _build(SimConfig, settings)


def workload_source(settings):
    """The trace path, or the resolved SyntheticSpec, that the run's workload is built from."""
    if settings["trace"] and settings["synthetic"]:
        raise ConfigError("pass either a trace or a synthetic generator, not both")
    if settings["trace"]:
        return settings["trace"]
    if not settings["synthetic"]:
        raise ConfigError("no workload: pass --trace or --synthetic")
    # only a shard-aware generator reads k_shards; leaving it at its default
    # elsewhere lets a sweep over shards build the workload once
    derived = {"k_shards": settings["shards"]} if settings["synthetic"] in SHARD_AWARE else {}
    return _build(SyntheticSpec, settings, seed=settings["seed"], **derived)


def build_workload(source):
    """(transactions, contract accounts); only traces mark contract accounts."""
    if isinstance(source, SyntheticSpec):
        return generate(source), {}
    return load_trace(source)


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
    "total_fees",
)


def summary_row(config: SimConfig, summary) -> dict:
    """The run's settings, then its FinalSummary fields, under SUMMARY_FIELDS names.

    A float's str is its repr, the shortest text that parses back to the same
    float, so every cell reads back as the exact simulated value.
    """
    row = {}
    for name in SUMMARY_FIELDS:
        source, attr = (config, SETTINGS[name].field) if name in SETTINGS else (summary, name)
        row[name] = str(getattr(source, attr))
    return row


def write_csv(path, header, rows) -> None:
    """Write one output CSV, the dialect of every file a run writes: UTF-8,
    "\n" line ends and the csv module's minimal quoting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_rounds_csv(path, reports, k: int) -> None:
    header = ["round", "processed", "wasted", "cross_count", "migrations"]
    header += [f"load_s{s}" for s in range(k)]
    rows = (
        [r.round_index, r.processed_count, sum(r.residuals.values()), r.cross_shard_tx_count,
         r.migrations_executed, *(r.processed_cost[s] for s in range(k))]
        for r in reports
    )
    write_csv(path, header, rows)


def _run_single(config: SimConfig, workload, out_dir) -> dict:
    txs, accounts = workload
    sim = Simulation(config, txs, accounts=accounts)
    reports, summary = sim.run()
    os.makedirs(out_dir, exist_ok=True)
    write_rounds_csv(os.path.join(out_dir, "rounds.csv"), reports, config.k_shards)
    row = summary_row(config, summary)
    write_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_FIELDS, [row.values()])
    if sim.ledger is not None:
        header = ["epoch", "shard", "deposit_total", "miner", "contribution", "payout"]
        write_csv(os.path.join(out_dir, "epochs.csv"), header, sim.ledger.epoch_rows)
    return row


def cmd_run(args) -> int:
    settings = resolve_settings(args)
    config = make_config(settings)
    _run_single(config, build_workload(workload_source(settings)), args.out)
    return 0


def _split(raw: str, what: str) -> list:
    items = [item.strip() for item in raw.split(",") if item.strip()]
    if not items:
        raise ConfigError(f"empty {what} list")
    return items


def cmd_sweep(args) -> int:
    settings = resolve_settings(args)
    name = args.axis.replace("-", "_")
    try:
        values = [_parse_value(name, v) for v in _split(args.values, "--values")]
    except ValueError as exc:
        raise ConfigError(f"--values: {exc}") from None
    policies = _split(args.policies, "--policies")
    points = []  # (config, workload source, output directory), all checked before any runs
    for value in values:
        for policy in policies:
            point = dict(settings, policy=policy, **{name: value})
            config = make_config(point)
            config.validate()
            source = workload_source(point)
            if isinstance(source, SyntheticSpec):
                source.validate()
            points.append((config, source, os.path.join(args.out, f"{policy}_{args.axis}_{value}")))
    workloads = {}  # workload source -> its workload, built once per sweep
    rows = []
    for config, source, out_dir in points:
        if source not in workloads:
            workloads[source] = build_workload(source)
        rows.append(_run_single(config, workloads[source], out_dir))
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "sweep.csv"), SUMMARY_FIELDS, (row.values() for row in rows))
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
