#!/usr/bin/env python3
"""Coupling-strength sweep: pointer-readout error against the exact weak
values as epsilon shrinks, for one random full-rank state.

Usage:  python scripts/pointer_convergence.py --seed 11 --steps 6
"""

import argparse

from weakdetect.pointer import default_config, estimate_weak_values
from weakdetect.protocol import weak_values_all
from weakdetect.states import random_mixed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--steps", type=int, default=6)
    parser.add_argument("--epsilon", type=float, default=1e-2,
                        help="largest coupling; halved each step")
    args = parser.parse_args()

    rho = random_mixed(args.seed)
    exact = weak_values_all(rho)

    print(f"{'epsilon':>12}  {'max |est - exact|':>18}  {'ratio to previous':>18}")
    previous = None
    eps = args.epsilon
    for _ in range(args.steps):
        readouts = estimate_weak_values(rho, default_config(eps))
        err = max(abs(r.estimate - exact.values[r.k]) for r in readouts)
        ratio = f"{previous / err:18.3f}" if previous else f"{'-':>18}"
        print(f"{eps:12.2e}  {err:18.3e}  {ratio}")
        previous = err
        eps /= 2


if __name__ == "__main__":
    main()
