"""Gaussian-pointer readout of weak values.

A 1-d pointer prepared in a Gaussian is coupled to the two-copy system by
exp(-i epsilon H (x) P), then the system is post-selected in the
computational basis. The surviving pointer's mean position and momentum
shifts encode the real and imaginary parts of the weak value:

    Re A = (  <x>_post - <x>_in) / epsilon
    Im A = (  <p>_post - <p>_in) / (2 epsilon Var_in(p)),  Var_in(p) = 1/(4 sigma^2)

The evolution is exact, not first order, and needs no state decomposition.
H squares to the identity, so the coupling translates the pointer by
+epsilon on H's +1 eigenspace and by -epsilon on its -1 eigenspace. A system
branch psi post-selected on outcome k = j + 1 leaves the pointer
psi[j] phi_s + psi[pi(j)] phi_d, where phi_s and phi_d are half the sum and
half the difference of the two translated Gaussians and pi = PERM. Over
the mixed two-copy state J = rho x rho the post-selected pointer is
therefore the 2x2 mixture

    P |phi_s><phi_s| + N* |phi_s><phi_d| + N |phi_d><phi_s| + Q |phi_d><phi_d|,

with P = J[j, j], N = J[pi(j), j] and Q = J[pi(j), pi(j)]. These come
from the caller's post-selection record, protocol.weak_values_batch, passed
in as (flipped, probabilities) with the record's defined mask; the layer
never reads rho itself. Each moment sum is the contraction of these four
coefficients with the overlaps <phi_b|O|phi_a> for O = 1, x, x^2, p, p^2,
a table built once per (grid, sigma, epsilon) and process. The translation
is spectral (multiplication by exp(-i epsilon p) in the Fourier domain,
exact for waves with negligible boundary tails) and momentum moments are
sums over the FFT grid.
hbar = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .protocol import PERM, TAU_DEN


MAX_GRID_N = 2**20


def _check_square(name: str, value: float) -> None:
    # The overlap table squares the largest position, the largest momentum,
    # the spacing and sigma; each square must be a finite, non-zero float.
    if not 0.0 < value * value < np.inf:
        raise ValueError(f"{name} {value!r} is out of range: its square must be "
                         "finite and non-zero")


@dataclass(frozen=True)
class PointerGrid:
    """Uniform position grid x_j = -L + j dx, j = 0..n-1, dx = 2L/n."""

    n: int
    half_extent: float

    def __post_init__(self) -> None:
        if self.n < 256 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 256, got {self.n}")
        # Checked here, before any array is allocated: at 2**20 points the
        # overlap table's temporaries already peak near 250 MB.
        if self.n > MAX_GRID_N:
            raise ValueError(f"grid size must be at most {MAX_GRID_N}, got {self.n}")
        if not self.half_extent > 0:
            raise ValueError("half_extent must be positive")
        _check_square("grid half-extent", self.half_extent)
        _check_square("grid spacing", self.dx)
        _check_square("grid momentum cutoff pi/dx", np.pi / self.dx)
        # The table weighs x^2 by dx, so that product must be finite too.
        if not self.half_extent * self.half_extent * self.dx < np.inf:
            raise ValueError(f"grid half-extent {self.half_extent!r} is out of range: "
                             "the position weight L^2 dx overflows")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_extent / self.n

    @property
    def positions(self) -> np.ndarray:
        return -self.half_extent + self.dx * np.arange(self.n)

    @property
    def momenta(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)


@dataclass(frozen=True)
class SimConfig:
    """Weak-measurement simulation parameters.

    ``epsilon`` is the dimensionless coupling; the weak regime cap is
    enforced. epsilon = 0 is allowed (no coupling) for probability checks,
    but readout needs epsilon > 0. The grid must hold the pointer in both
    domains: the half-extent at least 10 sigma, and the momentum cutoff
    pi/dx at least 10 momentum widths 1/(2 sigma).
    """

    epsilon: float
    sigma: float
    grid: PointerGrid

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 0.1:
            raise ValueError(f"epsilon must be in [0, 0.1], got {self.epsilon}")
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


def gaussian_pointer(sigma: float, grid: PointerGrid) -> np.ndarray:
    """Gaussian exp(-x^2/(4 sigma^2)) normalized on the grid (Var(x) = sigma^2)."""
    x = grid.positions
    amp = np.exp(-(x**2) / (4.0 * sigma**2)).astype(complex)
    amp /= np.sqrt(np.sum(np.abs(amp) ** 2) * grid.dx)
    return amp


def translate(wave: np.ndarray, grid: PointerGrid, delta: float) -> np.ndarray:
    """Shift the wave by delta via the Fourier domain (exact for clean tails)."""
    return np.fft.ifft(np.fft.fft(wave) * np.exp(-1j * grid.momenta * delta))


# One entry is under 1 kB. A run that cycles through more configs than the
# cache holds would miss on every call, so the bound leaves room for a sweep
# over a few grids, sigmas and epsilons (pointer-sim asks for epsilon and
# epsilon / 2).
@lru_cache(maxsize=64)
def pointer_overlaps(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Overlaps of the post-selected pointer's basis, and the input pointer's moments.

    Returns the (2, 2, 5) table <phi_b|O|phi_a> for phi_a, phi_b in
    (phi_s, phi_d) (see the module docstring) and O = 1, x, x^2, p, p^2, and
    the (5,) row <phi|O|phi> of the input Gaussian itself. Momentum terms are
    sums over the FFT grid.

    The pair is built once per config and process and shared between
    callers, so both arrays are read-only.
    """
    grid = cfg.grid
    phi_in = gaussian_pointer(cfg.sigma, grid)
    plus = translate(phi_in, grid, +cfg.epsilon)
    minus = translate(phi_in, grid, -cfg.epsilon)
    waves = np.stack([(plus + minus) / 2, (plus - minus) / 2, phi_in])
    x, p = grid.positions, grid.momenta
    position = np.einsum("bj,mj,aj->abm", waves.conj(),
                         np.stack([np.ones_like(x), x, x**2]) * grid.dx, waves)
    spectra = np.fft.fft(waves, axis=1)
    dp = 2.0 * np.pi / (grid.n * grid.dx)
    momentum = np.einsum("bj,mj,aj->abm", spectra.conj(),
                         np.stack([p, p**2]) * (grid.dx**2 / (2.0 * np.pi) * dp), spectra)
    table = np.concatenate([position, momentum], axis=2)
    overlaps, reference = table[:2, :2].copy(), table[2, 2].real.copy()
    overlaps.setflags(write=False)
    reference.setflags(write=False)
    return overlaps, reference


def moment_table(flipped: np.ndarray, probabilities: np.ndarray,
                 overlaps: np.ndarray) -> np.ndarray:
    """(16, 5) moment sums of the unnormalised post-selected pointer, outcome
    k in row k - 1. The columns are the post-selection probability,
    sum x, sum x^2, sum p and sum p^2.

    ``flipped`` and ``probabilities`` are one state's row of the record of
    :func:`protocol.weak_values_batch`, J[PERM[j], j] and J[j, j]. ``overlaps``
    is the first table of :func:`pointer_overlaps`. Every row, silent
    outcomes included, contracts it with the 2x2 coefficients of the module
    docstring.
    """
    coefficients = np.array([[probabilities, flipped.conj()],
                             [flipped, probabilities[PERM]]])
    return np.einsum("abk,abm->km", coefficients, overlaps).real


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
    post-selected pointer from the input pointer's moments (see
    :func:`pointer_overlaps`).
    """
    if not cfg.epsilon > 0:
        raise ValueError("readout needs epsilon > 0")
    overlaps, reference = pointer_overlaps(cfg)
    sums = moment_table(flipped, probabilities, overlaps)
    read = defined & (sums[:, 0] >= TAU_DEN)
    rows = sums[read]
    var_p_in = 1.0 / (4.0 * cfg.sigma**2)
    real = (rows[:, 1] / rows[:, 0] - reference[1]) / cfg.epsilon
    imag = (rows[:, 3] / rows[:, 0] - reference[3]) / (2.0 * cfg.epsilon * var_p_in)
    estimates = np.zeros(16, dtype=complex)
    estimates[read] = real + 1j * imag
    return read, estimates, np.clip(sums[:, 0], 0.0, 1.0)
