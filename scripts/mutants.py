#!/usr/bin/env python3
"""Re-runnable mutation checks: each listed fault must be caught by a test.

A mutant is one fault written as an exact text replacement in one module of
``src/shardsim``, with the ids of the tests that must catch it.  For each
mutant the script copies ``src/`` to a temporary directory, replaces the old
text, which must occur exactly once in that module, and runs the mutant's
killing tests with ``PYTHONPATH`` set to the copy.  The mutant is killed only
when pytest exits with status 1, which means that tests ran and one failed;
status 0 is a survivor, and any other status, such as a test id that no longer
exists, is an error.  The killers are tests that draw nothing with
Hypothesis, so every run of a mutant runs the same cases.

The script prints one line per mutant and exits non-zero if any mutant
survives, errors, or has lost its old text, so a refactor that moves the text
of a mutant must update its entry:

    python3 scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (id, module under src/shardsim, exact old text, new text, killing test ids)
MUTANTS = [
    (
        # the scheduler plans a migration from an account's shard to itself
        "self-migration",
        "policies.py",
        "            if current == main:\n                continue\n",
        "",
        [
            "tests/test_policies.py::test_scheduler_mutex_mode_forces_single_shard",
            "tests/test_policies.py::test_main_shard_least_loaded_involved",
            "tests/test_engine.py::test_golden_outputs_unchanged[scheduler-k4]",
            "tests/test_engine.py::test_golden_ledger_unchanged[scheduler-econ]",
        ],
    ),
    (
        # an EOA migration costs nothing
        "zero-cost-eoa-migration",
        "core.py",
        "        if account is None or account.kind == EOA:\n"
        "            return self.cross_shard_cost\n",
        "        if account is None or account.kind == EOA:\n"
        "            return 0\n",
        [
            "tests/test_core.py::test_migration_cost_eoa_and_ca",
            "tests/test_engine.py::test_migration_charges_source_and_dest",
            "tests/test_engine.py::test_golden_ledger_unchanged[scheduler-econ]",
        ],
    ),
    (
        # Simulation runs a config that validate refuses; core, policies and
        # economics check none of its fields
        "simulation-skips-validate",
        "engine.py",
        "        config.validate()\n        if not workload:\n",
        "        if not workload:\n",
        [
            "tests/test_engine.py::test_config_validation",
            "tests/test_engine.py::test_config_rejects_non_finite_mempool_ratio",
        ],
    ),
    (
        # credit pays a fee to a miner of another shard
        "credit-pays-next-shards-leader",
        "economics.py",
        "leader = rotate_leader(self.assignment, shard, round_index)",
        "leader = rotate_leader(self.assignment, (shard + 1) % self.k, round_index)",
        [
            "tests/test_economics.py::test_ledger_naive_pays_immediately",
            "tests/test_economics.py::test_ledger_epoch_rows_record_contributions",
            "tests/test_engine.py::test_golden_ledger_unchanged[scheduler-econ]",
        ],
    ),
    (
        # validate accepts a window below 1, which ShardState and AlignmentBook trust
        "validate-skips-window",
        "engine.py",
        '("k_shards", "shard_capacity", "window", "cross_shard_cost",',
        '("k_shards", "shard_capacity", "cross_shard_cost",',
        [
            "tests/test_engine.py::test_config_validation",
        ],
    ),
    (
        # a negative fee passes the transaction check and reaches the ledger
        "fast-check-skips-negative-fee",
        "engine.py",
        "type(cost) is int and fee >= 0 and 0 < cost <= most",
        "type(cost) is int and 0 < cost <= most",
        [
            "tests/test_engine.py::test_transaction_of_wrong_type_rejected[negative-fee]",
        ],
    ),
    (
        # the ledger has a miner count that k shards do not split evenly
        "miner-count-not-divisible",
        "economics.py",
        'return [f"m{i:04d}" for i in range(k * miners_per_shard)]',
        'return [f"m{i:04d}" for i in range(k * miners_per_shard + 1)]',
        [
            "tests/test_economics.py::test_miner_ids_shape",
            "tests/test_economics.py::test_ledger_naive_pays_immediately",
            "tests/test_engine.py::test_golden_ledger_unchanged[scheduler-econ]",
        ],
    ),
    (
        # an epoch's reshuffle leaves a ledger miner without a shard
        "epoch-drops-a-miner",
        "economics.py",
        "    order = sorted(miners)\n",
        "    order = sorted(miners)[1:]\n",
        [
            "tests/test_economics.py::test_shuffle_epoch_is_balanced_and_deterministic",
            "tests/test_economics.py::test_ledger_epoch_rows_record_contributions",
            "tests/test_engine.py::test_golden_ledger_unchanged[scheduler-econ]",
        ],
    ),
    (
        # every epoch reshuffles the miners into the same shards
        "shuffle-ignores-epoch",
        "economics.py",
        'random.Random(f"epoch:{seed}:{epoch}")',
        'random.Random(f"epoch:{seed}")',
        [
            "tests/test_economics.py::test_shuffle_epoch_is_balanced_and_deterministic",
            "tests/test_economics.py::test_shuffle_is_roughly_uniform",
            "tests/test_engine.py::test_golden_ledger_unchanged[scheduler-econ]",
        ],
    ),
    (
        # admission checks and charges a migrating plan's transaction charge only
        "migrations-charged-nothing",
        "engine.py",
        "        if plan.migrations:\n            required = {}\n",
        "        if False:\n            required = {}\n",
        [
            "tests/test_engine.py::test_migration_charges_source_and_dest",
            "tests/test_engine.py::test_all_or_nothing_admission[1-10-deferred]",
            "tests/test_engine.py::test_all_or_nothing_admission[10-2-deferred]",
            "tests/test_engine.py::test_deferred_transaction_mutates_nothing",
            "tests/test_engine.py::test_golden_outputs_unchanged[scheduler-k4]",
            "tests/test_engine.py::test_golden_ledger_unchanged[scheduler-econ]",
            "tests/test_engine.py::test_processed_cost_is_what_the_admitted_plans_charged[scheduler]",
        ],
    ),
    (
        # each round reports the run's cross-shard executions and migrations so far
        "round-tallies-never-zeroed",
        "engine.py",
        "            self._round_cross = self._round_migrations = 0\n",
        "",
        [
            "tests/test_engine.py::test_golden_outputs_unchanged[hash-k2]",
            "tests/test_engine.py::test_golden_outputs_unchanged[scheduler-k4]",
            "tests/test_acceptance.py::test_criterion_6_hash_collision_law",
        ],
    ),
    (
        # admission applies a plan's migrations without counting them
        "migrations-not-tallied",
        "engine.py",
        "            self._round_migrations += len(plan.migrations)\n",
        "",
        [
            "tests/test_engine.py::test_cross_ratio_counts_migrations_as_cross",
            "tests/test_engine.py::test_trace_contract_accounts_reach_the_scheduler",
            "tests/test_engine.py::test_golden_outputs_unchanged[scheduler-k4]",
        ],
    ),
    (
        # a lane is keyed by the ordered write set alone: write sets that
        # order the same shards differently get lanes of their own
        "lane-skips-footprint-lookup",
        "engine.py",
        "        lane = self._lanes.get(key)\n",
        "        lane = None\n",
        [
            "tests/test_engine.py::test_reordered_write_set_shares_its_twins_blocked_lane",
        ],
    ),
    (
        # a footprint key without its base cost: one lane, and the plan of its
        # first base cost, serves every base cost on the same shards
        "lane-key-drops-base-cost",
        "engine.py",
        "        key = (shards, base_cost)\n",
        "        key = shards\n",
        [
            "tests/test_engine.py::test_deferred_lane_blocks_only_its_own_footprint",
            "tests/test_engine.py::test_lane_queue_follows_the_mempool[hash]",
        ],
    ),
    (
        # a write set placed on one shard is admitted inline even when that
        # shard's residual is below its base cost
        "inline-one-shard-skips-residual-check",
        "engine.py",
        "                if state.residual < cost:\n"
        "                    retain(tx)\n"
        "                    continue\n",
        "",
        [
            "tests/test_policies.py::"
            "test_inline_one_shard_admission_equals_the_general_plan[1-2pc-1-no-econ-full]",
            "tests/test_policies.py::"
            "test_inline_one_shard_admission_equals_the_general_plan[2-mutex-3-fee-3-full]",
            "tests/test_engine.py::"
            "test_deferred_tx_not_replanned_while_its_shard_is_full[scheduler-1]",
            "tests/test_engine.py::test_golden_outputs_unchanged[scheduler-k4]",
        ],
    ),
    (
        # a write set admitted inline on one shard adds nothing to its
        # accounts' alignment
        "inline-one-shard-drops-alignment",
        "engine.py",
        "                    add_each(write_set, cost * (len(write_set) - 1))\n",
        "                    pass\n",
        [
            "tests/test_policies.py::"
            "test_inline_one_shard_admission_equals_the_general_plan[1-2pc-3-no-econ-fits]",
            "tests/test_policies.py::"
            "test_inline_one_shard_admission_equals_the_general_plan[2-mutex-3-fee-0-fits]",
            "tests/test_engine.py::test_golden_outputs_unchanged[scheduler-k4]",
        ],
    ),
    (
        # a write set placed on one shard is retained when that shard's
        # residual exactly covers its base cost
        "inline-residual-check-strict",
        "engine.py",
        "                if state.residual < cost:\n",
        "                if state.residual <= cost:\n",
        [
            "tests/test_engine.py::test_policies_agree_at_one_shard[communities-0]",
            "tests/test_engine.py::test_policies_agree_at_one_shard[all_cross-1]",
        ],
    ),
    (
        # a multi-shard update adds each account's own-shard alignment to its
        # rest sum and its rest alignment to its own-shard sum
        "alignment-sides-swapped",
        "core.py",
        "        add(acc, charge * (m - 1), charge * (n - m))\n",
        "        add(acc, charge * (n - m), charge * (m - 1))\n",
        [
            "tests/test_core.py::test_two_account_cross_shard_update",
            "tests/test_core.py::test_three_account_update_mixed_shards",
            "tests/test_engine.py::test_golden_outputs_unchanged[scheduler-k4]",
        ],
    ),
    (
        # a block leaving the window takes back only its own-shard amounts,
        # so the rest sums only grow
        "eviction-keeps-rest",
        "core.py",
        "            sums[1] -= rest\n",
        "",
        [
            "tests/test_core.py::test_alignment_window_eviction",
            "tests/test_core.py::test_reset_drops_only_earlier_triples",
            "tests/test_engine.py::test_golden_outputs_unchanged[scheduler-k4]",
        ],
    ),
    (
        # a migrating account keeps the alignment it gathered on its old shard
        "reset-keeps-record",
        "core.py",
        "        self._sums.pop(account, None)\n",
        "        pass\n",
        [
            "tests/test_core.py::test_alignment_reset_on_migration",
            "tests/test_core.py::test_reset_drops_only_earlier_triples",
            "tests/test_engine.py::test_migration_resets_alignment",
            "tests/test_acceptance.py::test_criterion_9_invariant_fuzzing",
        ],
    ),
    (
        # the scheduler plans a transaction while every shard of its placed
        # accounts is too full for its base cost; its plan is then deferred,
        # so only the plan count changes
        "scheduler-plans-full-shards",
        "engine.py",
        "            if not fits:\n"
        "                retain(tx)\n"
        "                continue\n",
        "",
        [
            "tests/test_engine.py::test_two_shard_tx_not_planned_while_both_its_shards_are_full",
        ],
    ),
    (
        # the inlined communities loop keeps its own kept half-word after an
        # inter-community or hub draw, not the one the stream left
        "inline-loop-keeps-stale-half",
        "workload.py",
        "            words, pos, half = rng._words, rng._pos, rng._half\n",
        "            words, pos = rng._words, rng._pos\n",
        [
            "tests/test_workload.py::test_generated_workloads_are_pinned[communities-0]",
            "tests/test_workload.py::test_generated_workloads_are_pinned[communities-7]",
            "tests/test_workload.py::test_communities_matches_stream_reference[inter-heavy]",
            "tests/test_workload.py::test_communities_matches_stream_reference[sampler-refills]",
        ],
    ),
    (
        # the inlined intra-community draw accepts every Lemire draw; with a
        # threshold below the member count, only crafted words reach it
        "inline-distinct-skips-rejection",
        "workload.py",
        "                if m & 0xFFFFFFFF >= threshold:\n"
        "                    chosen.add(start + (m >> 32))\n",
        "                if True:\n"
        "                    chosen.add(start + (m >> 32))\n",
        [
            "tests/test_workload.py::test_communities_matches_stream_reference[lemire-rejects]",
        ],
    ),
    (
        # the co-occurrence graph lists each vertex's neighbours in sorted pair
        # order, not in order of first pairing; the golden digests pass
        "adj-from-sorted-pairs",
        "partitioner.py",
        "    for (u, v), weight in pairs.items():\n",
        "    for (u, v), weight in sorted(pairs.items()):\n",
        [
            "tests/test_partitioner.py::"
            "test_graph_from_transactions_keeps_first_pairing_order_not_sorted_order",
        ],
    ),
]


def run_mutant(old, new, module, killers) -> str:
    """'killed', 'survived', 'lost' or 'error: ...' for one mutant."""
    with tempfile.TemporaryDirectory(prefix="shardsim-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "shardsim" / module
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return "lost"
        path.write_text(text.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run(
            [sys.executable, "-c", "import shardsim; print(shardsim.__file__)"],
            capture_output=True, text=True, env=env, cwd=ROOT,
        )
        if not where.stdout.startswith(str(src)):
            return f"error: imported shardsim from {where.stdout.strip() or where.stderr}"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *killers],
            capture_output=True, text=True, env=env, cwd=ROOT,
        )
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    return f"error: pytest exit status {proc.returncode}\n{(proc.stdout + proc.stderr)[-2000:]}"


def main() -> int:
    failed = 0
    for mutant_id, module, old, new, killers in MUTANTS:
        outcome = run_mutant(old, new, module, killers) if killers else "error: no killing tests"
        print(f"{mutant_id:38s} {outcome}", flush=True)
        failed += outcome != "killed"
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
