#!/usr/bin/env python3
"""Compare naive and decoupled fee payout schemes on one workload.

Under the naive scheme the per-round leader keeps every fee immediately, so
the payouts equal the fees collected.  Under the decoupled scheme fees sit in
per-shard epoch deposits and are cashed in after the epoch's miner reshuffle:
a miner is paid its share of its old shard's deposit times its new shard's
deposit, so the payouts equal the fees collected only in expectation (with
--txs 20000 --shards 16 it collects 20,000 and pays out 18,116.3).  The
decoupled scheme breaks the link between where a miner earned and where it is
paid, which is the point.

Example:
    python3 scripts/economics_demo.py --shards 8 --epochs 20
"""

import argparse
import statistics
import sys

from shardsim import SimConfig, Simulation, SyntheticSpec, generate


def gini(values) -> float:
    xs = sorted(values)
    n = len(xs)
    total = sum(xs)
    if n == 0 or total == 0:
        return 0.0
    cum = 0.0
    for i, x in enumerate(xs, start=1):
        cum += i * x
    return (2 * cum) / (n * total) - (n + 1) / n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--epoch-length", type=int, default=10)
    parser.add_argument("--miners-per-shard", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--txs", type=int, default=30_000)
    args = parser.parse_args()

    workload = generate(SyntheticSpec(
        generator="zipf_hotspot",
        n_accounts=2000,
        n_txs=args.txs,
        seed=args.seed,
    ))

    for scheme in ("naive", "decoupled"):
        cfg = SimConfig(
            k_shards=args.shards,
            policy="hash",
            economics=True,
            fee_scheme=scheme,
            epoch_length=args.epoch_length,
            miners_per_shard=args.miners_per_shard,
            seed=args.seed,
        )
        sim = Simulation(cfg, workload)
        _, summary = sim.run()
        balances = list(sim.ledger.balances.values())
        print(f"scheme={scheme}")
        print(f"  total fees collected : {summary.total_fees}")
        print(f"  total paid out       : {sum(balances):.1f}")
        print(f"  mean miner balance   : {statistics.mean(balances):.2f}")
        print(f"  stdev miner balance  : {statistics.pstdev(balances):.2f}")
        print(f"  gini of balances     : {gini(balances):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
