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

with P = J[j, j], N = J[pi(j), j] and Q = J[pi(j), pi(j)] gathered from
rho. Each moment sum is the contraction of these four coefficients with
the overlaps <phi_b|O|phi_a> for O = 1, x, x^2, p, p^2, a table built once
per (grid, sigma, epsilon) and process. The translation is spectral
(multiplication by exp(-i epsilon p) in the Fourier domain, exact for waves
with negligible boundary tails) and momentum moments are sums over the FFT
grid.
hbar = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .protocol import PERM, TAU_DEN, joint_entries
from .states import TwoQubitState


MAX_GRID_N = 2**20


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

    @property
    def dx(self) -> float:
        return 2.0 * self.half_extent / self.n

    @property
    def positions(self) -> np.ndarray:
        return -self.half_extent + self.dx * np.arange(self.n)

    @property
    def momenta(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)


@dataclass(frozen=True, eq=False)
class PointerWave:
    """Normalized wavefunction sampled on a PointerGrid."""

    grid: PointerGrid
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.amplitudes.shape != (self.grid.n,):
            raise ValueError("amplitude array does not match the grid")
        norm = float(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.dx)
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-10:
            raise ValueError(f"wave norm is {norm!r}, expected 1")
        self.amplitudes.setflags(write=False)


@dataclass(frozen=True)
class SimConfig:
    """Weak-measurement simulation parameters.

    ``epsilon`` is the dimensionless coupling; the weak regime cap is
    enforced. epsilon = 0 is allowed (no coupling) for probability checks,
    but readout needs epsilon > 0.
    """

    epsilon: float
    sigma: float
    grid: PointerGrid

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 0.1:
            raise ValueError(f"epsilon must be in [0, 0.1], got {self.epsilon}")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class WeakReadout:
    k: int
    estimate: complex
    postselect_prob: float


def default_grid() -> PointerGrid:
    return PointerGrid(n=4096, half_extent=40.0)


def default_config(epsilon: float = 1e-3, sigma: float = 1.0) -> SimConfig:
    return SimConfig(epsilon=epsilon, sigma=sigma, grid=default_grid())


def gaussian_pointer(sigma: float, grid: PointerGrid) -> PointerWave:
    """Gaussian exp(-x^2/(4 sigma^2)) normalized on the grid (Var(x) = sigma^2)."""
    if grid.half_extent < 10.0 * sigma:
        raise ValueError(
            f"grid half-extent {grid.half_extent} too small for sigma {sigma} "
            "(need >= 10 sigma to keep boundary tails negligible)"
        )
    x = grid.positions
    amp = np.exp(-(x**2) / (4.0 * sigma**2)).astype(complex)
    amp /= np.sqrt(np.sum(np.abs(amp) ** 2) * grid.dx)
    return PointerWave(grid, amp)


def translate(wave: PointerWave, delta: float) -> PointerWave:
    """Shift the wave by delta via the Fourier domain (exact for clean tails)."""
    shifted = np.fft.ifft(np.fft.fft(wave.amplitudes) * np.exp(-1j * wave.grid.momenta * delta))
    return PointerWave(wave.grid, shifted)


def pointer_overlaps(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Overlaps of the post-selected pointer's basis, and the input pointer's moments.

    Returns the (2, 2, 5) table <phi_b|O|phi_a> for phi_a, phi_b in
    (phi_s, phi_d) (see the module docstring) and O = 1, x, x^2, p, p^2, and
    the (5,) row <phi|O|phi> of the input Gaussian itself. Momentum terms are
    sums over the FFT grid.

    The pair is built once per config and process and shared between
    callers, so both arrays are read-only.
    """
    return _overlap_table(cfg)


# One entry is under 1 kB. A run that cycles through more configs than the
# cache holds would miss on every call, so the bound leaves room for a sweep
# over a few grids, sigmas and epsilons (pointer-sim asks for epsilon and
# epsilon / 2).
@lru_cache(maxsize=64)
def _overlap_table(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    grid = cfg.grid
    phi_in = gaussian_pointer(cfg.sigma, grid)
    plus = translate(phi_in, +cfg.epsilon).amplitudes
    minus = translate(phi_in, -cfg.epsilon).amplitudes
    waves = np.stack([(plus + minus) / 2, (plus - minus) / 2, phi_in.amplitudes])
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


def moment_table(rho: TwoQubitState, overlaps: np.ndarray) -> np.ndarray:
    """(16, 5) moment sums of the unnormalised post-selected pointer, outcome
    k in row k - 1. The columns are the post-selection probability,
    sum x, sum x^2, sum p and sum p^2.

    ``overlaps`` is the first table of :func:`pointer_overlaps`. Every row,
    silent outcomes included, contracts it with the 2x2 coefficients of the
    module docstring.
    """
    flipped, probabilities = joint_entries(rho.matrix[None])
    p, n = probabilities[0], flipped[0]
    coefficients = np.array([[p, n.conj()], [n, p[PERM]]])
    return np.einsum("abk,abm->km", coefficients, overlaps).real


def readout_weak_value(
    sums: np.ndarray,
    reference: np.ndarray,
    epsilon: float,
    sigma: float,
) -> np.ndarray:
    """Complex weak values from rows (..., 5) of the moment table: the mean
    position and momentum shifts of the post-selected pointer from the input
    pointer's moments ``reference`` (see :func:`pointer_overlaps`)."""
    if not epsilon > 0:
        raise ValueError("readout needs epsilon > 0")
    var_p_in = 1.0 / (4.0 * sigma**2)
    real = (sums[..., 1] / sums[..., 0] - reference[1]) / epsilon
    imag = (sums[..., 3] / sums[..., 0] - reference[3]) / (2.0 * epsilon * var_p_in)
    return real + 1j * imag


def estimate_weak_values(rho: TwoQubitState, cfg: SimConfig) -> list[WeakReadout]:
    """Pointer-simulated weak values for every outcome that carries signal.

    Outcomes are screened on the pre-interaction probability
    <u_k| rho x rho |u_k> (the "no signal before coupling" check), since
    silent outcomes pick up O(epsilon^2) probability from the exact
    evolution without carrying a weak value. An outcome whose
    post-selection probability is below TAU_DEN is left out as well.
    """
    overlaps, reference = pointer_overlaps(cfg)
    sums = moment_table(rho, overlaps)
    signal = (joint_entries(rho.matrix[None])[1][0] > TAU_DEN) & (sums[:, 0] >= TAU_DEN)
    estimates = readout_weak_value(sums[signal], reference, cfg.epsilon, cfg.sigma)
    probabilities = np.clip(sums[signal, 0], 0.0, 1.0)
    return [
        WeakReadout(k=int(k), estimate=complex(estimate), postselect_prob=float(prob))
        for k, estimate, prob in zip(np.flatnonzero(signal) + 1, estimates, probabilities)
    ]
