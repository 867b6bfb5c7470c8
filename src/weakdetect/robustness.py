"""Weak-value error bound under a miscalibrated interaction.

If the interaction generator H is replaced by H_e with ||H - H_e||_1 <= delta,
every measured weak value moves by at most delta/m, where m is the minimum of
the pairwise products {p,q,r,s} x {p,q,r,s} = (min diagonal)^2. This module
checks the bound on random perturbations P = H - H_e of trace norm delta.
The weak value at outcome k moves by <u_k|P (rho x rho)|u_k> / <u_k|rho x rho|u_k>,
so the trials run in stacked passes: one batched eigvalsh rescales CHUNK draws
and one contraction with rho x rho gives all their deviations. Trial i draws
from child i of SeedSequence(seed), whatever the stacking or trial count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocol import TAU_DEN, TAU_DIAG
from .states import TwoQubitState

# Trials per stacked pass. Each trial holds about 24 kB of temporaries, so at
# 32 the peak resident set stays at that of a per-trial loop.
CHUNK = 32


class RankDeficientError(ValueError):
    """State has a vanishing diagonal, so the bound's m is undefined."""


@dataclass(frozen=True)
class RobustnessReport:
    """Worst observed weak-value deviation per outcome against the bound."""

    delta: float
    m: float
    bound: float
    trials: int
    deviations: dict[int, float]
    margin: float
    violations: int

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "m": self.m,
            "bound": self.bound,
            "trials": self.trials,
            "deviations": {str(k): v for k, v in sorted(self.deviations.items())},
            "margin": self.margin,
            "violations": self.violations,
        }

    def csv_rows(self) -> list[list]:
        return [
            [self.delta, k, self.deviations[k], self.bound]
            for k in sorted(self.deviations)
        ]


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta < np.inf:
        raise ValueError(f"delta must be finite and non-negative, got {delta!r}")


def perturbations(delta: float, streams) -> np.ndarray:
    """(len(streams), 16, 16) Hermitian parts of complex Gaussian matrices,
    one per SeedSequence in ``streams``, rescaled to trace norm ``delta``."""
    _check_delta(delta)
    draws = np.array([np.random.default_rng(s).standard_normal((2, 16, 16)) for s in streams])
    g = draws[:, 0] + 1j * draws[:, 1]
    herm = (g + g.conj().swapaxes(1, 2)) / 2
    norms = np.abs(np.linalg.eigvalsh(herm)).sum(axis=1)
    return herm * (delta / norms)[:, None, None]


def bound_check(rho: TwoQubitState, delta: float, trials: int, seed: int) -> RobustnessReport:
    """Draw ``trials`` random perturbations of trace norm ``delta`` and check
    every defined outcome's deviation against delta/m.

    Requires all diagonals above TAU_DIAG (otherwise m = 0 and the bound is
    vacuous). ``deviations`` keeps outcomes whose worst deviation is above 0.
    """
    _check_delta(delta)
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    diag = rho.diagonal()
    dmin = min(diag)
    if dmin <= TAU_DIAG:
        raise RankDeficientError(f"diagonal {diag} has a vanishing entry; "
                                 "delta/m bound undefined")
    m = dmin * dmin
    bound = delta / m

    joint = np.kron(rho.matrix, rho.matrix)
    probabilities = joint.diagonal().real
    signal = probabilities > TAU_DEN
    outcomes = np.flatnonzero(signal) + 1
    columns = joint[:, signal] / probabilities[signal]
    worst = np.zeros(np.count_nonzero(signal))
    violations = 0
    # spawn numbers children consecutively, so spawning one pass at a time
    # gives trial i child i without holding all ``trials`` seeds at once.
    parent = np.random.SeedSequence(seed)
    for lo in range(0, trials, CHUNK):
        stack = perturbations(delta, parent.spawn(min(CHUNK, trials - lo)))
        dev = np.abs(np.einsum("tkl,lk->tk", stack[:, signal], columns))
        violations += int(np.count_nonzero(dev > bound))
        worst = np.maximum(worst, dev.max(axis=0))
    hit = worst > 0
    return RobustnessReport(
        delta=delta,
        m=m,
        bound=bound,
        trials=trials,
        deviations=dict(zip(outcomes[hit].tolist(), worst[hit].tolist())),
        margin=float(np.min(bound - worst[hit])) if hit.any() else bound,
        violations=violations,
    )
