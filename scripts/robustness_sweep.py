#!/usr/bin/env python3
"""Perturbation-size sweep of the weak-value error bound, emitted as CSV
(delta, k, worst deviation, bound) for external plotting.

Usage:  python scripts/robustness_sweep.py --trials 100 --seed 0 > sweep.csv
"""

import argparse
import sys

from weakdetect.robustness import bound_check
from weakdetect.states import random_mixed, werner


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--state-seed", type=int, default=None,
                        help="random full-rank state; Werner(1/2) if omitted")
    args = parser.parse_args()

    try:
        for flag, value in (("--seed", args.seed), ("--state-seed", args.state_seed)):
            if value is not None and value < 0:
                raise ValueError(f"{flag} must be non-negative, got {value}")
        rho = werner(0.5) if args.state_seed is None else random_mixed(args.state_seed)
        reports = [bound_check(rho, 10.0**-exponent, trials=args.trials, seed=args.seed)
                   for exponent in range(4, 0, -1)]
    except ValueError as exc:
        sys.exit(f"{parser.prog}: error: {exc}")
    print("delta,k,worst_deviation,bound")
    for report in reports:
        for delta_value, k, deviation, bound in report.csv_rows():
            print(f"{delta_value!r},{k},{deviation!r},{bound!r}")


if __name__ == "__main__":
    main()
