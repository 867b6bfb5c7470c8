"""Gaussian-pointer readout of weak values.

A 1-d pointer prepared in a Gaussian of position spread sigma is coupled to
the two-copy system by exp(-i epsilon H (x) P), then the system is
post-selected in the computational basis. The surviving pointer's mean
position and momentum shifts encode the real and imaginary parts of the
weak value (Aharonov, Albert & Vaidman, PRL 60, 1351, 1988; Jozsa, PRA 76,
044103, 2007). The input pointer sits at <x>_in = <p>_in = 0, so

    Re A = <x>_post / epsilon
    Im A = <p>_post / (2 epsilon Var_in(p)),  Var_in(p) = 1/(4 sigma^2)

The evolution is exact, not first order, and needs no state decomposition.
H squares to the identity, so the coupling shifts the pointer by
+epsilon on H's +1 eigenspace and by -epsilon on its -1 eigenspace. A system
branch psi post-selected on outcome k = j + 1 leaves the pointer
psi[j] phi_s + psi[pi(j)] phi_d, where phi_s and phi_d are half the sum and
half the difference of the two shifted Gaussians and pi = PERM. Over
the mixed two-copy state J = rho x rho the post-selected pointer is
therefore the 2x2 mixture

    P |phi_s><phi_s| + N* |phi_s><phi_d| + N |phi_d><phi_s| + Q |phi_d><phi_d|,

with P = J[j, j], N = J[pi(j), j] and Q = J[pi(j), pi(j)]. These come
from the caller's post-selection record, protocol.weak_values_batch, passed
in as (flipped, probabilities) with the record's defined mask; the layer
never reads rho itself. Each moment sum is linear in these four
coefficients, weighted by the overlaps <phi_b|O|phi_a> for the three
moments the readout divides, O = 1, x, p. For Gaussians shifted by a (bra)
and b (ket), with s2 = sigma^2, g = exp(-(a - b)^2 / (8 s2)),
m = (a + b) / 2 and k = (a - b) / (4 s2):

    <1> = g,  <x> = g m,  <p> = i g k.

hbar = 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocol import PERM, TAU_DEN


# The largest grid the flags accept (README's input contract).
MAX_GRID_N = 2**20


def _check_square(name: str, value: float) -> None:
    # Input contract of --sigma and --grid-l: the squares of sigma, the
    # half-extent, the spacing and the momentum cutoff must each be a
    # finite, non-zero float.
    if not 0.0 < value * value < np.inf:
        raise ValueError(f"{name} {value!r} is out of range: its square must be "
                         "finite and non-zero")


@dataclass(frozen=True)
class PointerGrid:
    """The grid x_j = -L + j dx, j = 0..n-1, dx = 2L/n, named by the
    ``--grid-n`` and ``--grid-l`` flags. The readout is closed-form and
    builds no grid; the grid bounds the inputs the readout accepts."""

    n: int
    half_extent: float

    def __post_init__(self) -> None:
        if self.n < 256 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 256, got {self.n}")
        if self.n > MAX_GRID_N:
            raise ValueError(f"grid size must be at most {MAX_GRID_N}, got {self.n}")
        if not self.half_extent > 0:
            raise ValueError("half_extent must be positive")
        _check_square("grid half-extent", self.half_extent)
        _check_square("grid spacing", self.dx)
        _check_square("grid momentum cutoff pi/dx", np.pi / self.dx)
        # Input contract: the position weight L^2 dx must be finite too.
        if not self.half_extent * self.half_extent * self.dx < np.inf:
            raise ValueError(f"grid half-extent {self.half_extent!r} is out of range: "
                             "the position weight L^2 dx overflows")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_extent / self.n


@dataclass(frozen=True)
class SimConfig:
    """Weak-measurement simulation parameters.

    ``epsilon`` is the dimensionless coupling; the weak regime cap is
    enforced. epsilon = 0 is allowed (no coupling) for probability checks,
    but readout needs epsilon > 0, and a non-zero epsilon must be a normal
    float, so that the readout keeps its digits. The grid must hold the
    pointer in both domains: the half-extent at least 10 sigma, and the
    momentum cutoff pi/dx at least 10 momentum widths 1/(2 sigma).
    """

    epsilon: float
    sigma: float
    grid: PointerGrid

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 0.1:
            raise ValueError(f"epsilon must be in [0, 0.1], got {self.epsilon}")
        if 0.0 < self.epsilon < np.finfo(float).tiny:
            raise ValueError(f"epsilon {self.epsilon!r} is out of range: it must be 0 or normal")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        _check_square("sigma", self.sigma)
        if self.grid.half_extent < 10.0 * self.sigma:
            raise ValueError(
                f"grid half-extent {self.grid.half_extent} too small for sigma {self.sigma} "
                "(need >= 10 sigma to keep boundary tails negligible)"
            )
        if self.sigma < 5.0 * self.grid.dx / np.pi:
            raise ValueError(
                f"grid spacing {self.grid.dx} too coarse for sigma {self.sigma} "
                "(need sigma >= 5 dx / pi to keep momentum tails negligible)"
            )


def default_config(epsilon: float = 1e-3, sigma: float = 1.0) -> SimConfig:
    return SimConfig(epsilon=epsilon, sigma=sigma, grid=PointerGrid(n=4096, half_extent=40.0))


def moment_sums(flipped: np.ndarray, probabilities: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """(16, 3) moment sums of the unnormalised post-selected pointer, outcome
    k in row k - 1: the post-selection probability, sum x and sum p.

    ``flipped`` and ``probabilities`` are one state's row of the record of
    :func:`protocol.weak_values_batch`, N = J[PERM[j], j] and P = J[j, j],
    and Q = P[PERM]. With k = epsilon / (2 s2), g = exp(-epsilon k) and
    h = 1 - g from expm1 (so phi_d keeps its relative precision as
    epsilon / sigma -> 0), the overlaps of the module docstring give

        sum 1 = P (1 + g) / 2 + Q h / 2,  sum x = Re N epsilon,  sum p = Im N g k
    """
    eps, s2 = cfg.epsilon, cfg.sigma * cfg.sigma
    k = eps / (2.0 * s2)
    g, h = math.exp(-eps * k), -math.expm1(-eps * k)
    return np.stack([probabilities * ((1 + g) / 2) + probabilities[PERM] * (h / 2),
                     flipped.real * eps, flipped.imag * (g * k)], axis=1)


def estimate_weak_values(flipped: np.ndarray, probabilities: np.ndarray, defined: np.ndarray,
                         cfg: SimConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pointer-simulated weak values of one state, from its row of the record
    of :func:`protocol.weak_values_batch`: (16,) arrays of the outcomes read
    out, their estimates (0 elsewhere) and the post-selection probabilities,
    outcome k at index k - 1.

    An outcome is read out when the record defines its weak value (silent
    outcomes pick up O(epsilon^2) probability from the exact evolution
    without carrying one) and its post-interaction probability is at least
    TAU_DEN. Each estimate is the mean position and momentum shift of the
    post-selected pointer (see the module docstring).
    """
    if not cfg.epsilon > 0:
        raise ValueError("readout needs epsilon > 0")
    sums = moment_sums(flipped, probabilities, cfg)
    read = defined & (sums[:, 0] >= TAU_DEN)
    rows = sums[read]
    real = rows[:, 1] / (rows[:, 0] * cfg.epsilon)
    imag = 2.0 * cfg.sigma**2 * rows[:, 2] / (rows[:, 0] * cfg.epsilon)
    estimates = np.zeros(16, dtype=complex)
    estimates[read] = real + 1j * imag
    return read, estimates, np.clip(sums[:, 0], 0.0, 1.0)
