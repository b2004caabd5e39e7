"""Command-line workflows: config resolution, CSV outputs, error paths."""

import csv
import os
import re
from dataclasses import fields

import pytest

from shardsim import cli
from shardsim.cli import (
    SETTINGS,
    WITHHELD,
    build_parser,
    load_config_file,
    main,
    make_config,
    resolve_settings,
    summary_row,
)
from shardsim.engine import ConfigError, SimConfig, run
from shardsim.workload import SyntheticSpec, generate


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# configuration resolution


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# experiment defaults\n"
        "policy = scheduler\n"
        "shards=8\n"
        "mempool_ratio = 1.5\n"
        "economics = true\n"
        "\n"
    )
    values = load_config_file(path)
    assert values == {
        "policy": "scheduler",
        "shards": 8,
        "mempool_ratio": 1.5,
        "economics": True,
    }


def test_load_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("frobnicate=1\n")
    with pytest.raises(ConfigError):
        load_config_file(path)


def test_load_config_file_bad_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just a line\n")
    with pytest.raises(ConfigError):
        load_config_file(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("shards=abc", "shards: invalid literal for int()"),
        ("max_rounds=", "max_rounds: invalid literal for int()"),
        ("economics=maybe", "economics: expected one of 1/true/yes/0/false/no"),
        ("policy=nope", "policy: expected one of hash, partition, scheduler, got 'nope'"),
    ],
    ids=["bad-int", "empty", "bad-bool", "bad-choice"],
)
def test_load_config_file_bad_value_names_line_and_key(tmp_path, line, message):
    path = tmp_path / "run.cfg"
    path.write_text(f"policy=scheduler\n{line}\n")
    with pytest.raises(ConfigError, match=re.escape(f"run.cfg:2: {message}")):
        load_config_file(path)
    assert main(["run", "--config", str(path), "--synthetic", "zipf_hotspot",
                 "--out", str(tmp_path / "out")]) == 1


def test_every_dataclass_field_is_a_setting_or_withheld(tmp_path):
    for owner in (SimConfig, SyntheticSpec):
        exposed = {s.field for s in SETTINGS.values() if s.owner is owner}
        assert exposed | WITHHELD[owner] == {f.name for f in fields(owner)}
        assert not exposed & WITHHELD[owner]
    # adding a setting adds an option: it must be a deliberate change here
    assert set(SETTINGS) == {
        "policy", "mode", "shards", "cross_cost", "capacity", "mempool_ratio", "window",
        "epoch_length", "miners_per_shard", "seed", "max_rounds", "economics",
        "ca_migration", "synthetic", "trace", "n_accounts", "n_txs", "accounts_per_tx",
        "zipf_exponent", "n_communities", "p_inter", "community_zipf_exponent",
        "p_hotspot", "burst_period", "burst_amplitude",
    }
    args = build_parser().parse_args(["run", "--out", str(tmp_path)])
    assert make_config(resolve_settings(args)) == SimConfig()


def test_synthetic_flags_match_config_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n_accounts=300\np_inter=0.2\nzipf_exponent=1.5\n")
    parser = build_parser()
    from_file = resolve_settings(parser.parse_args(["run", "--config", str(path),
                                                    "--out", str(tmp_path)]))
    from_flags = resolve_settings(parser.parse_args(
        ["run", "--n-accounts", "300", "--p-inter", "0.2", "--zipf-exponent", "1.5",
         "--out", str(tmp_path)]))
    assert from_file == from_flags
    assert from_flags["n_accounts"] == 300 and from_flags["p_inter"] == 0.2


def test_flag_overrides_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("shards=8\npolicy=scheduler\n")
    parser = build_parser()
    args = parser.parse_args(
        ["run", "--config", str(path), "--shards", "4", "--synthetic",
         "zipf_hotspot", "--out", str(tmp_path)]
    )
    settings = resolve_settings(args)
    assert settings["shards"] == 4        # flag wins
    assert settings["policy"] == "scheduler"  # file beats default
    assert settings["capacity"] == 200    # default


# ---------------------------------------------------------------------------
# run command


def _run_args(tmp_path, *extra):
    return [
        "run", "--synthetic", "zipf_hotspot", "--shards", "2",
        "--capacity", "20", "--seed", "3", "--out", str(tmp_path / "out"),
        "--max-rounds", "40",
    ] + list(extra)


def test_run_writes_summary_and_rounds(tmp_path):
    assert main(_run_args(tmp_path)) == 0
    summary = _read_csv(tmp_path / "out" / "summary.csv")
    assert len(summary) == 1
    row = summary[0]
    assert row["policy"] == "hash"
    assert int(row["executed"]) > 0
    rounds = _read_csv(tmp_path / "out" / "rounds.csv")
    assert len(rounds) == int(row["rounds"])
    assert "load_s0" in rounds[0] and "load_s1" in rounds[0]


def test_run_is_byte_identical_across_invocations(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        args = [
            "run", "--synthetic", "communities", "--policy", "scheduler",
            "--shards", "4", "--capacity", "30", "--seed", "7",
            "--out", str(out),
        ]
        assert main(args) == 0
    for name in ("summary.csv", "rounds.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_seeds_the_workload_with_its_seed(tmp_path):
    # the CLI runs the workload that generate() builds from the same seed, so
    # a CLI run reproduces a direct API run
    assert main(["run", "--synthetic", "communities", "--n-accounts", "300", "--n-txs", "2000",
                 "--n-communities", "30", "--policy", "scheduler", "--shards", "4",
                 "--capacity", "30", "--seed", "7", "--out", str(tmp_path)]) == 0
    spec = SyntheticSpec(generator="communities", n_accounts=300, n_txs=2000,
                         n_communities=30, seed=7, k_shards=4)
    config = SimConfig(k_shards=4, shard_capacity=30, policy="scheduler", seed=7)
    _, summary = run(config, generate(spec))
    assert _read_csv(tmp_path / "summary.csv") == [summary_row(config, summary)]


def test_summary_floats_read_back_exactly(tmp_path):
    assert main(["run", "--synthetic", "communities", "--n-accounts", "300", "--n-txs", "2000",
                 "--n-communities", "30", "--policy", "scheduler", "--shards", "3",
                 "--capacity", "30", "--seed", "7", "--out", str(tmp_path)]) == 0
    spec = SyntheticSpec(generator="communities", n_accounts=300, n_txs=2000,
                         n_communities=30, seed=7)
    _, summary = run(SimConfig(k_shards=3, shard_capacity=30, policy="scheduler", seed=7),
                     generate(spec))
    row = _read_csv(tmp_path / "summary.csv")[0]
    floats = [f.name for f in fields(summary) if isinstance(getattr(summary, f.name), float)]
    assert floats == ["throughput", "latency", "cross_shard_ratio"]
    for name in floats:
        assert float(row[name]) == getattr(summary, name), name


def test_run_economics_writes_epochs(tmp_path):
    assert main(_run_args(tmp_path, "--economics", "--epoch-length", "5")) == 0
    epochs = _read_csv(tmp_path / "out" / "epochs.csv")
    assert epochs and set(epochs[0]) == {
        "epoch", "shard", "deposit_total", "miner", "contribution", "payout"
    }


def test_bool_flag_overrides_a_true_config_value(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("economics = 1\n")
    assert main(_run_args(tmp_path / "file", "--config", str(config))) == 0
    assert (tmp_path / "file" / "out" / "epochs.csv").exists()
    assert main(_run_args(tmp_path / "flag", "--config", str(config), "--economics", "no")) == 0
    assert not (tmp_path / "flag" / "out" / "epochs.csv").exists()


def test_bool_flag_rejects_a_bad_value(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_run_args(tmp_path, "--economics", "maybe"))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "argument --economics: expected one of 1/true/yes/0/false/no, got 'maybe'" in err


def test_summary_reports_total_fees(tmp_path):
    # t1 pays no fee, so the default fee of 1 is collected in its place
    trace = tmp_path / "trace.txt"
    trace.write_text("0 t0 5 aa,bb\n0 t1 0 cc\n1 t2 3 dd,aa\n")
    fees = {}
    for flags in ([], ["--economics"]):
        out = tmp_path / f"out{len(flags)}"
        args = ["run", "--trace", str(trace), "--shards", "2", "--policy", "scheduler",
                "--out", str(out), *flags]
        assert main(args) == 0
        fees[bool(flags)] = _read_csv(out / "summary.csv")[0]["total_fees"]
    assert fees == {False: "0", True: str(5 + 1 + 3)}


def test_run_from_trace(tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text("0 t0 1 aa,bb\n1 t1 2 cc\n")
    args = ["run", "--trace", str(trace), "--shards", "2", "--out",
            str(tmp_path / "out")]
    assert main(args) == 0
    row = _read_csv(tmp_path / "out" / "summary.csv")[0]
    assert int(row["executed"]) == 2


def test_ca_migration_flag_applies_to_trace_markers(tmp_path):
    # bb, a contract account, would migrate on t3 were it an EOA
    trace = tmp_path / "trace.txt"
    trace.write_text("0 t0 1 aa\n0 t1 1 bb|CA\n0 t2 1 aa,bb\n0 t3 1 aa,bb\n")
    migrations = []
    for flags in ([], ["--ca-migration"]):
        out = tmp_path / f"out{len(flags)}"
        args = ["run", "--trace", str(trace), "--shards", "2", "--policy", "scheduler",
                "--out", str(out), *flags]
        assert main(args) == 0
        migrations.append(_read_csv(out / "summary.csv")[0]["migrations"])
    assert migrations == ["0", "1"]


# ---------------------------------------------------------------------------
# sweep command


def _count_generate(monkeypatch):
    calls = []

    def counting(spec):
        calls.append(spec)
        return generate(spec)

    monkeypatch.setattr(cli, "generate", counting)
    return calls


def test_sweep_writes_per_point_and_combined(tmp_path, monkeypatch):
    generated = _count_generate(monkeypatch)
    args = [
        "sweep", "--synthetic", "zipf_hotspot", "--axis", "shards",
        "--values", "2,4", "--policies", "hash,scheduler",
        "--capacity", "20", "--seed", "0", "--out", str(tmp_path / "sweep"),
        "--max-rounds", "30",
    ]
    assert main(args) == 0
    combined = _read_csv(tmp_path / "sweep" / "sweep.csv")
    assert len(combined) == 4  # 2 values x 2 policies
    assert {r["shards"] for r in combined} == {"2", "4"}
    assert os.path.isdir(tmp_path / "sweep" / "hash_shards_2")
    assert os.path.isdir(tmp_path / "sweep" / "scheduler_shards_4")
    # zipf_hotspot does not read the shard count, so one workload serves both values
    assert len(generated) == 1


def test_sweep_over_shards_rebuilds_a_shard_aware_workload(tmp_path, monkeypatch):
    generated = _count_generate(monkeypatch)
    args = [
        "sweep", "--synthetic", "all_intra", "--axis", "shards", "--values", "2,4",
        "--policies", "hash,scheduler", "--capacity", "20", "--seed", "0",
        "--n-txs", "200", "--out", str(tmp_path / "sweep"),
    ]
    assert main(args) == 0
    # all_intra draws its write sets from the shard count's hash buckets
    assert [spec.k_shards for spec in generated] == [2, 4]


@pytest.mark.parametrize("axis,values,policies,field", [
    ("shards", "2,4", "hash,sharded", "policy"),
    ("shards", "2,0", "hash,scheduler", "k_shards"),
    ("capacity", "50,-1", "hash,scheduler", "shard_capacity"),
])
def test_sweep_refuses_a_bad_point_before_running_any(tmp_path, capsys, axis, values,
                                                       policies, field):
    # the bad point comes last, so a sweep that runs points as it builds
    # them writes the earlier points' directories first
    out = tmp_path / "sweep"
    assert main(["sweep", "--synthetic", "communities", "--n-txs", "200",
                 "--n-accounts", "100", "--n-communities", "10", "--axis", axis,
                 "--values", values, "--policies", policies, "--out", str(out)]) == 1
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_sweep_cross_cost_axis(tmp_path, monkeypatch):
    generated = _count_generate(monkeypatch)
    args = [
        "sweep", "--synthetic", "communities", "--axis", "cross-cost",
        "--values", "1,2,4", "--policies", "hash,scheduler", "--shards", "2",
        "--capacity", "20", "--seed", "1", "--out", str(tmp_path / "s"),
        "--max-rounds", "30",
    ]
    assert main(args) == 0
    combined = _read_csv(tmp_path / "s" / "sweep.csv")
    assert [r["cross_cost"] for r in combined] == ["1", "1", "2", "2", "4", "4"]
    assert len(generated) == 1  # the cost does not change the workload


# ---------------------------------------------------------------------------
# error paths exit with status 1


def test_missing_workload_source_errors(tmp_path):
    assert main(["run", "--out", str(tmp_path)]) == 1


def test_trace_and_synthetic_conflict(tmp_path):
    trace = tmp_path / "t.txt"
    trace.write_text("0 t0 1 aa\n")
    assert main(["run", "--trace", str(trace), "--synthetic", "zipf_hotspot",
                 "--out", str(tmp_path)]) == 1


def test_nonexistent_trace_errors(tmp_path):
    assert main(["run", "--trace", str(tmp_path / "missing.txt"),
                 "--out", str(tmp_path)]) == 1


def test_negative_seed_errors_on_a_trace_run(tmp_path, capsys):
    # a trace carries no seed of its own, so only SimConfig sees this one
    trace = tmp_path / "t.txt"
    trace.write_text("0 t0 1 aa\n")
    assert main(["run", "--trace", str(trace), "--seed", "-1",
                 "--out", str(tmp_path / "out")]) == 1
    assert "seed must be nonnegative" in capsys.readouterr().err


def test_malformed_trace_errors(tmp_path):
    trace = tmp_path / "t.txt"
    trace.write_text("garbage\n")
    assert main(["run", "--trace", str(trace), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("lead", [1, 2000])
def test_non_utf8_trace_names_its_line(tmp_path, capsys, lead):
    # 2,000 leading records put the bad byte past the first block that text
    # mode decodes, so the reported line counts from the start of the file
    trace = tmp_path / "t.txt"
    records = b"".join(b"0 t%d 1 aa\n" % i for i in range(lead))
    trace.write_bytes(records + b"0 tx 1 bb,\xffcc\n")
    assert main(["run", "--trace", str(trace), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"error: line {lead + 1}: not UTF-8: " in err and "0xff" in err


def test_non_utf8_config_names_its_line(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"shards = 2\r\n# caf\xe9\r\npolicy = hash\r\n")
    assert main(["run", "--config", str(config), "--synthetic", "zipf_hotspot",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"error: {config}:2: not UTF-8: " in err and "0xe9" in err


def test_bad_flag_exits_one(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--policy", "nope", "--out", str(tmp_path)])
    assert exc.value.code == 1


def test_empty_sweep_values_error(tmp_path):
    assert main(["sweep", "--synthetic", "zipf_hotspot", "--axis", "shards",
                 "--values", ",", "--out", str(tmp_path)]) == 1


def test_sweep_bad_value_errors(tmp_path, capsys):
    assert main(["sweep", "--synthetic", "zipf_hotspot", "--axis", "shards",
                 "--values", "2,x", "--out", str(tmp_path)]) == 1
    assert "--values" in capsys.readouterr().err


def test_empty_sweep_policies_error(tmp_path, capsys):
    assert main(["sweep", "--synthetic", "zipf_hotspot", "--axis", "shards",
                 "--values", "2", "--policies", ",", "--out", str(tmp_path)]) == 1
    assert "empty --policies list" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_livelocked_run_errors(tmp_path, capsys):
    # aa and bb hash to different shards; the pair's charge of 2 per shard
    # exceeds capacity 1 forever
    trace = tmp_path / "t.txt"
    trace.write_text("0 t0 1 aa,bb\n")
    assert main(["run", "--trace", str(trace), "--shards", "2", "--capacity", "1",
                 "--cross-cost", "2", "--window", "3", "--out", str(tmp_path)]) == 1
    assert "'t0'" in capsys.readouterr().err
