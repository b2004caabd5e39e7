#!/usr/bin/env python3
"""Find the smallest Zipf exponent with the target top-quintile mass.

The default hotspot generator aims for a heavily skewed access pattern:
the most popular 20% of accounts should draw at least --target of all
write-set slots.  This script bisects the exponent for a given account
count and prints the concentration curve around the result; the shipped
DEFAULT_ZIPF_EXPONENT in shardsim.workload was frozen from its output.
"""

import argparse

from shardsim.workload import _zipf_weights


def top_quintile_share(exponent: float, n_accounts: int) -> float:
    weights = _zipf_weights(n_accounts, exponent)
    top = max(1, n_accounts // 5)
    return float(weights[:top].sum())


def bisect_exponent(n_accounts: int, target: float, tol: float = 1e-4) -> float:
    lo, hi = 0.0, 8.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if top_quintile_share(mid, n_accounts) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--accounts", type=int, default=1000)
    parser.add_argument("--target", type=float, default=0.92,
                        help="required top-20%% share of accesses")
    args = parser.parse_args()

    exponent = bisect_exponent(args.accounts, args.target)
    print(f"n_accounts={args.accounts} target={args.target}")
    print(f"minimal exponent: {exponent:.4f}")
    print()
    print("exponent  top-20% share")
    for e in (1.0, 1.2, 1.4, round(exponent, 2), 1.6, 1.8, 2.0):
        share = top_quintile_share(e, args.accounts)
        print(f"{e:8.2f}  {share:.4f}")


if __name__ == "__main__":
    main()
