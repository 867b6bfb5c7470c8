import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakdetect.pointer import (
    PointerGrid,
    SimConfig,
    default_config,
    estimate_weak_values,
    moment_sums,
)
from weakdetect.protocol import HAMILTONIAN, PERM, TAU_DEN
from weakdetect.states import bell_phi_plus, random_mixed, random_pure, validate, werner

from conftest import bits, record

seeds = st.integers(0, 10**6)


def table(rho, cfg):
    return moment_sums(*record(rho)[:2], cfg)


def readout(rho, cfg):
    """estimate_weak_values on one state's record: (read, estimates,
    post-selection probabilities)."""
    flipped, probabilities, _, defined, _ = record(rho)
    return estimate_weak_values(flipped, probabilities, defined, cfg)


# --- the overlap-table reference --------------------------------------------
#
# The readout's earlier form: the (2, 2, 5) table of overlaps <phi_b|O|phi_a>,
# O = 1, x, x^2, p, p^2, contracted with the 2x2 coefficients of every
# outcome. moment_sums must return its 1, x and p columns bit for bit.

# The moment columns the readout divides, 1, x and p, in the (16, 5) table.
MOMENTS = [0, 1, 3]


def reference_overlaps(cfg):
    """The (2, 2, 5) table <phi_b|O|phi_a> for phi_a, phi_b in
    (phi_s, phi_d) and O = 1, x, x^2, p, p^2, from the closed forms of the
    pointer module docstring; at epsilon = 0 the (phi_s, phi_s) row is the
    input pointer's own, (1, 0, s2, 0, 1/(4 s2))."""
    eps, s2 = cfg.epsilon, cfg.sigma * cfg.sigma
    q, k = 0.25 / s2, eps / (2.0 * s2)
    g, h = math.exp(-eps * k), -math.expm1(-eps * k)
    ip = 0.5j * g * k
    return np.array([
        [[(1 + g) / 2, 0, (eps * eps + (1 + g) * s2) / 2, 0, ((1 + g) * q - g * k * k) / 2],
         [0, eps / 2, 0, ip, 0]],
        [[0, eps / 2, 0, -ip, 0],
         [h / 2, 0, (eps * eps + h * s2) / 2, 0, (h * q + g * k * k) / 2]],
    ])


def reference_moment_table(flipped, probabilities, overlaps):
    """(16, 5) moment sums: the 2x2 coefficients [[P, N*], [N, Q]] of every
    outcome contracted with a (2, 2, 5) overlap table."""
    coefficients = np.array([[probabilities, flipped.conj()],
                             [flipped, probabilities[PERM]]])
    return np.einsum("abk,abm->km", coefficients, overlaps).real


def reference_readout(flipped, probabilities, defined, cfg):
    """estimate_weak_values through the overlap-table contraction."""
    sums = reference_moment_table(flipped, probabilities, reference_overlaps(cfg))
    read = defined & (sums[:, 0] >= TAU_DEN)
    rows = sums[read]
    real = rows[:, 1] / (rows[:, 0] * cfg.epsilon)
    imag = 2.0 * cfg.sigma**2 * rows[:, 3] / (rows[:, 0] * cfg.epsilon)
    estimates = np.zeros(16, dtype=complex)
    estimates[read] = real + 1j * imag
    return read, estimates, np.clip(sums[:, 0], 0.0, 1.0)


# A record whose rows 0, 1, 4 and 8 carry the coefficient patterns P = 1,
# Q = 1 (PERM[1] = 0), N = 1 and N = i, and every other row zeros: each
# overlap the readout reads enters some row alone.
UNIT_FLIPPED = np.zeros(16, dtype=complex)
UNIT_FLIPPED[[4, 8]] = [1, 1j]
UNIT_PROBABILITIES = np.eye(16)[0]


# --- the grid reference -----------------------------------------------------
#
# The pointer evolved on an FFT grid: the reference that the closed-form
# moment sums are checked against.

def positions(grid):
    return -grid.half_extent + grid.dx * np.arange(grid.n)


def momenta(grid):
    return 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)


def momentum_weight(grid):
    """Weight of |fft(wave)|^2 in a momentum sum: dx^2 / (2 pi) times dp."""
    return grid.dx**2 / (2.0 * np.pi) * (2.0 * np.pi / (grid.n * grid.dx))


def gaussian_pointer(sigma, grid):
    """Gaussian exp(-x^2/(4 sigma^2)) normalized on the grid (Var(x) = sigma^2)."""
    amp = np.exp(-(positions(grid) ** 2) / (4.0 * sigma**2)).astype(complex)
    amp /= np.sqrt(np.sum(np.abs(amp) ** 2) * grid.dx)
    return amp


def translate(wave, grid, delta):
    """Shift the wave by delta via the Fourier domain (exact for clean tails)."""
    return np.fft.ifft(np.fft.fft(wave) * np.exp(-1j * momenta(grid) * delta))


def grid_overlaps(cfg):
    """The (2, 2, 5) overlap table on the grid, and the input pointer's row
    <phi|O|phi>, O = 1, x, x^2, p, p^2, with momentum sums over the FFT grid."""
    grid = cfg.grid
    phi_in = gaussian_pointer(cfg.sigma, grid)
    plus = translate(phi_in, grid, +cfg.epsilon)
    minus = translate(phi_in, grid, -cfg.epsilon)
    waves = np.stack([(plus + minus) / 2, (plus - minus) / 2, phi_in])
    x, p = positions(grid), momenta(grid)
    position = np.einsum("bj,mj,aj->abm", waves.conj(),
                         np.stack([np.ones_like(x), x, x**2]) * grid.dx, waves)
    spectra = np.fft.fft(waves, axis=1)
    momentum = np.einsum("bj,mj,aj->abm", spectra.conj(),
                         np.stack([p, p**2]) * momentum_weight(grid), spectra)
    table = np.concatenate([position, momentum], axis=2)
    return table[:2, :2], table[2, 2].real


def _ensemble(joint, cutoff=1e-14):
    """Eigen-ensemble of the two-copy density matrix, largest weight first."""
    weights, vectors = np.linalg.eigh((joint + joint.conj().T) / 2)
    return [(float(weights[i]), vectors[:, i])
            for i in range(len(weights) - 1, -1, -1) if weights[i] > cutoff]


def ensemble_moment_table(rho, cfg):
    """Reference for moment_sums: evolve each branch of the eigen-ensemble
    of rho x rho with the pointer, post-select, and sum the branches'
    moments 1, x and p on the grid, with one FFT per branch and outcome."""
    h = HAMILTONIAN
    branches = _ensemble(np.kron(rho.matrix, rho.matrix))
    phi_in = gaussian_pointer(cfg.sigma, cfg.grid)
    grid = cfg.grid
    phi_plus = translate(phi_in, grid, +cfg.epsilon)
    phi_minus = translate(phi_in, grid, -cfg.epsilon)
    x, p = positions(grid), momenta(grid)
    sums = np.zeros((16, 3))
    for idx in range(16):
        for weight, psi in branches:
            flipped = h @ psi
            a_plus = 0.5 * (psi[idx] + flipped[idx])
            a_minus = 0.5 * (psi[idx] - flipped[idx])
            chi = a_plus * phi_plus + a_minus * phi_minus
            density = np.abs(chi) ** 2 * grid.dx
            momentum_density = np.abs(np.fft.fft(chi)) ** 2 * momentum_weight(grid)
            sums[idx] += weight * np.array([
                np.sum(density), np.sum(x * density), np.sum(p * momentum_density),
            ])
    return sums


class TestGrid:
    def test_spacing_and_positions(self):
        grid = PointerGrid(n=512, half_extent=16.0)
        assert grid.dx == pytest.approx(2 * 16.0 / 512)
        assert positions(grid)[0] == -16.0
        assert positions(grid)[1] - positions(grid)[0] == pytest.approx(grid.dx)

    def test_rejects_small_or_odd_sizes(self):
        with pytest.raises(ValueError):
            PointerGrid(n=128, half_extent=16.0)
        with pytest.raises(ValueError):
            PointerGrid(n=500, half_extent=16.0)


def input_moments(sigma):
    """(mean x, var x, mean p, var p) of the input Gaussian on the grid: the
    readout's Im A = <p> / (2 epsilon Var(p)) takes Var(p) = 1/(4 sigma^2)."""
    _, x, x2, p, p2 = grid_overlaps(default_config(0.0, sigma))[1]
    return x, x2 - x**2, p, p2 - p**2


def position_moments(wave, grid):
    density = np.abs(wave) ** 2 * grid.dx
    mean = np.sum(positions(grid) * density)
    return mean, np.sum((positions(grid) - mean) ** 2 * density)


class TestGaussianPointer:
    def test_moments(self):
        mean_x, var_x, _, var_p = input_moments(1.0)
        assert mean_x == pytest.approx(0.0, abs=1e-10)
        assert var_x == pytest.approx(1.0, abs=1e-8)
        assert var_p == pytest.approx(0.25, abs=1e-6)

    def test_minimum_uncertainty(self):
        _, var_x, _, var_p = input_moments(1.0)
        assert var_x * var_p == pytest.approx(0.25, abs=1e-6)

    def test_doubling_sigma_quarters_momentum_variance(self):
        v1 = input_moments(1.0)[3]
        v2 = input_moments(2.0)[3]
        assert v2 == pytest.approx(v1 / 4, rel=1e-6)

    def test_grid_too_small(self):
        with pytest.raises(ValueError, match="10 sigma"):
            SimConfig(epsilon=1e-3, sigma=5.0, grid=PointerGrid(n=512, half_extent=16.0))


class TestOverlapTable:
    @pytest.mark.parametrize("eps", [0.0, 2.5e-4, 5e-4, 1e-3, 2e-3, 4e-3, 0.05])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [256, 1024, 4096, 16384])
    def test_closed_form_matches_grid(self, n, sigma, eps):
        # relative to each moment's size in the input pointer:
        # 1, sigma, sigma^2, 1/(2 sigma), 1/(4 sigma^2)
        cfg = SimConfig(epsilon=eps, sigma=sigma, grid=PointerGrid(n=n, half_extent=40.0))
        overlaps, reference = grid_overlaps(cfg)
        scale = np.array([1.0, sigma, sigma**2, 0.5 / sigma, 0.25 / sigma**2])
        want = reference_moment_table(UNIT_FLIPPED, UNIT_PROBABILITIES, overlaps)[:, MOMENTS]
        got = moment_sums(UNIT_FLIPPED, UNIT_PROBABILITIES, cfg)
        assert (np.abs(got - want) <= 1e-12 * scale[MOMENTS]).all()
        row = np.array([1.0, 0.0, sigma**2, 0.0, 0.25 / sigma**2])
        assert (np.abs(row - reference) <= 1e-12 * scale).all()


class TestTranslate:
    @given(st.floats(-2.0, 2.0))
    @settings(max_examples=10)
    def test_shifts_mean_exactly(self, delta):
        grid = default_config().grid
        wave = gaussian_pointer(1.0, grid)
        shifted = translate(wave, grid, delta)
        assert position_moments(shifted, grid)[0] - position_moments(wave, grid)[0] == (
            pytest.approx(delta, abs=1e-10)
        )

    def test_preserves_norm_and_shape(self):
        grid = default_config().grid
        shifted = translate(gaussian_pointer(1.0, grid), grid, 0.7)
        assert position_moments(shifted, grid)[1] == pytest.approx(1.0, abs=1e-8)


class TestSimConfig:
    def test_rejects_strong_coupling(self):
        with pytest.raises(ValueError):
            SimConfig(epsilon=0.2, sigma=1.0, grid=default_config().grid)

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            SimConfig(epsilon=-1e-3, sigma=1.0, grid=default_config().grid)

    def test_zero_epsilon_allowed(self):
        SimConfig(epsilon=0.0, sigma=1.0, grid=default_config().grid)


class TestEvolveAndPostselect:
    def test_zero_coupling_probabilities_exact(self):
        rho = random_mixed(21)
        joint = np.kron(rho.matrix, rho.matrix)
        probabilities = table(rho, default_config(0.0))[:, 0]
        assert (np.abs(probabilities - np.diag(joint).real) <= 1e-12).all()

    def test_zero_coupling_pointer_unchanged(self):
        prob, sum_x, sum_p = table(random_mixed(22), default_config(0.0))[15]
        assert sum_x / prob == pytest.approx(0.0, abs=1e-12)
        assert sum_p / prob == pytest.approx(0.0, abs=1e-12)

    def test_bell_k16_first_order_shift(self):
        # exact weak value w/s = 1: the whole wave translates by epsilon
        prob, sum_x, sum_p = table(bell_phi_plus(), default_config(1e-3))[15]
        assert prob == pytest.approx(0.25, abs=1e-12)
        assert sum_x / prob == pytest.approx(1e-3, abs=1e-12)
        assert sum_p / prob == pytest.approx(0.0, abs=1e-12)

    def test_pure_state_single_branch(self):
        bell = bell_phi_plus()
        branches = _ensemble(np.kron(bell.matrix, bell.matrix))
        assert len(branches) == 1
        assert branches[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_no_signal(self):
        cfg = default_config(1e-3)
        assert table(bell_phi_plus(), cfg)[5, 0] < TAU_DEN
        assert not readout(bell_phi_plus(), cfg)[0][5]

    def test_total_probability_unity(self):
        rho = random_mixed(23)
        for eps in (0.0, 1e-3, 0.05):
            total = table(rho, default_config(eps))[:, 0].sum()
            assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("grid_n", [4096, 16384])
    @pytest.mark.parametrize("eps", [0.0, 5e-4, 1e-3, 4e-3, 0.05])
    def test_matches_ensemble_oracle(self, grid_n, eps):
        cfg = SimConfig(epsilon=eps, sigma=1.0, grid=PointerGrid(n=grid_n, half_extent=40.0))
        states = (random_mixed(31), werner(0.37), random_pure(32).to_state(), bell_phi_plus())
        for rho in states:
            want = ensemble_moment_table(rho, cfg)
            scale = np.maximum(np.abs(want).max(axis=1, keepdims=True), TAU_DEN)
            assert (np.abs(table(rho, cfg) - want) <= 1e-12 * scale).all()


class TestReadout:
    def test_bell_real_weak_value(self):
        cfg = default_config(1e-3)
        read, estimates, _ = readout(bell_phi_plus(), cfg)
        assert read[15]
        estimate = estimates[15]
        assert estimate.real == pytest.approx(1.0, abs=1e-6)
        # real weak value: momentum shift vanishes to O(eps^2)
        assert abs(estimate.imag) <= 10 * cfg.epsilon**2

    def test_imaginary_weak_value(self):
        # (|00> + i|11>)/sqrt(2): w = a d* = -i/2, s = 1/2, so w/s = -i
        psi = np.array([1, 0, 0, 1j], dtype=complex) / np.sqrt(2)
        rho = validate(np.outer(psi, psi.conj()))
        cfg = default_config(1e-3)
        row = table(rho, cfg)[15]
        var_p = 1.0 / (4 * cfg.sigma**2)
        assert row[2] / row[0] == pytest.approx(-2 * cfg.epsilon * var_p, rel=1e-4)
        read, estimates, _ = readout(rho, cfg)
        assert read[15]
        assert estimates[15].imag == pytest.approx(-1.0, abs=1e-5)
        assert abs(estimates[15].real) <= 1e-6

    def test_requires_positive_epsilon(self):
        with pytest.raises(ValueError, match="epsilon > 0"):
            readout(bell_phi_plus(), default_config(0.0))


FAMILY_STATES = {
    "ginibre": lambda: [random_mixed(seed) for seed in range(12)],
    "pure": lambda: [random_pure(seed).to_state() for seed in range(12)],
    "werner": lambda: [werner(p) for p in np.linspace(0.0, 1.0, 12)],
}


class TestMatchesOverlapTable:
    """The three moment sums against the overlap-table contraction they
    replace: every returned array equal bit for bit, signed zeros included."""

    @pytest.mark.parametrize("family", FAMILY_STATES)
    def test_bits_match_contraction(self, family):
        for rho in FAMILY_STATES[family]():
            flipped, probabilities, _, defined, _ = record(rho)
            for eps in np.geomspace(1e-5, 0.1, 9):
                for sigma in np.geomspace(0.03, 1000.0, 9):
                    grid = PointerGrid(n=4096, half_extent=40.0 * sigma)
                    cfg = SimConfig(epsilon=float(eps), sigma=float(sigma), grid=grid)
                    want = reference_moment_table(flipped, probabilities,
                                                  reference_overlaps(cfg))[:, MOMENTS]
                    assert np.array_equal(bits(moment_sums(flipped, probabilities, cfg)),
                                          bits(want))
                    got = estimate_weak_values(flipped, probabilities, defined, cfg)
                    want = reference_readout(flipped, probabilities, defined, cfg)
                    assert np.array_equal(got[0], want[0])
                    assert np.array_equal(bits(got[1]), bits(want[1]))
                    assert np.array_equal(bits(got[2]), bits(want[2]))


class TestEstimateWeakValues:
    def test_werner_k16(self):
        read, estimates, postselect = readout(werner(0.5), default_config(1e-3))
        assert read[15]
        assert abs(estimates[15] - 2 / 3) <= 5e-3
        assert postselect[15] == pytest.approx((3 / 8) ** 2, abs=1e-6)

    def test_maximally_mixed_estimates_vanish(self, maximally_mixed):
        read, estimates, _ = readout(maximally_mixed, default_config(1e-3))
        assert read.all()
        assert np.abs(estimates).max() <= 1e-6

    def test_undefined_outcomes_skipped(self):
        read, estimates, _ = readout(bell_phi_plus(), default_config(1e-3))
        assert set(np.flatnonzero(read) + 1) == {1, 4, 13, 16}
        assert (estimates[~read] == 0).all()

    @given(seeds)
    @settings(max_examples=5)
    def test_close_to_exact(self, seed):
        rho = random_mixed(seed)
        _, _, exact, defined, _ = record(rho)
        eps = 1e-3
        read, estimates, _ = readout(rho, default_config(eps))
        assert not (read & ~defined).any()
        assert (np.abs(estimates - exact)[read] <= 5 * eps).all()

    def test_error_halving_ratio(self):
        rho = random_mixed(404)
        _, _, exact, defined, _ = record(rho)
        assert defined.all()

        def max_err(eps):
            read, estimates, _ = readout(rho, default_config(eps))
            return np.abs(estimates - exact)[read].max()

        ratio = max_err(1e-3) / max_err(5e-4)
        assert 1.7 <= ratio <= 4.3


class TestRangeChecks:
    """Configs the grid cannot represent are refused when built, before any
    array is allocated."""

    @pytest.mark.parametrize("n, half_extent", [
        (4096, 1e200),   # L^2 overflows
        (256, 1e104),    # L^2 is finite, L^2 dx overflows
        (4096, 1e-159),  # dx^2 underflows to 0
        (4096, 1e-152),  # dx^2 is non-zero, (pi/dx)^2 overflows
    ])
    def test_grid(self, n, half_extent):
        with pytest.raises(ValueError, match="out of range"):
            PointerGrid(n, half_extent)

    @pytest.mark.parametrize("sigma, half_extent, match", [
        (1e200, 40.0, "out of range"),   # sigma^2 overflows
        (1e-300, 40.0, "out of range"),  # sigma^2 underflows to 0
        (1e-30, 1.0, "too coarse"),      # narrower than the spacing dx = 4.9e-4
        (7.7e-4, 1.0, "too coarse"),     # just below 5 dx / pi = 7.8e-4
    ])
    def test_sigma(self, sigma, half_extent, match):
        grid = PointerGrid(4096, half_extent)
        with pytest.raises(ValueError, match=match):
            SimConfig(epsilon=1e-3, sigma=sigma, grid=grid)

    def test_edges_pass(self):
        grid = PointerGrid(4096, 1.0)
        SimConfig(epsilon=1e-3, sigma=5 * grid.dx / np.pi, grid=grid)
        SimConfig(epsilon=1e-3, sigma=0.1, grid=grid)

    def test_epsilon_is_zero_or_normal(self):
        tiny = float(np.finfo(float).tiny)
        SimConfig(epsilon=tiny, sigma=1.0, grid=default_config().grid)
        for epsilon in (np.nextafter(tiny, 0), 5e-324):
            with pytest.raises(ValueError, match="out of range"):
                SimConfig(epsilon=epsilon, sigma=1.0, grid=default_config().grid)
