#!/usr/bin/env python3
"""Coupling-strength sweep: pointer-readout error against the exact weak
values as epsilon shrinks, for one random full-rank state.

Usage:  python scripts/pointer_convergence.py --seed 11 --steps 6
"""

import argparse
import sys

from weakdetect.pointer import default_config, estimate_weak_values
from weakdetect.protocol import weak_values_batch
from weakdetect.states import random_mixed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--steps", type=int, default=6)
    parser.add_argument("--epsilon", type=float, default=1e-2,
                        help="largest coupling; halved each step")
    args = parser.parse_args()

    # every row is computed before the header, so bad input prints nothing
    try:
        for flag, value in (("--seed", args.seed), ("--steps", args.steps)):
            if value < 0:
                raise ValueError(f"{flag} must be non-negative, got {value}")
        rho = random_mixed(args.seed)
        flipped, probabilities, exact, defined, _ = (
            a[0] for a in weak_values_batch(rho.matrix[None]))
        epsilons = [args.epsilon / 2**i for i in range(args.steps)]
        errors = []
        for eps in epsilons:
            read, estimates, _ = estimate_weak_values(flipped, probabilities, defined,
                                                      default_config(eps))
            errors.append(max(abs(complex(e - x)) for e, x in zip(estimates[read], exact[read])))
    except ValueError as exc:
        sys.exit(f"{parser.prog}: error: {exc}")

    print(f"{'epsilon':>12}  {'max |est - exact|':>18}  {'ratio to previous':>18}")
    previous = None
    for eps, err in zip(epsilons, errors):
        ratio = f"{previous / err:18.3f}" if previous else f"{'-':>18}"
        print(f"{eps:12.2e}  {err:18.3e}  {ratio}")
        previous = err


if __name__ == "__main__":
    main()
