import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakdetect import pointer
from weakdetect.pointer import (
    PointerGrid,
    PointerWave,
    SimConfig,
    default_config,
    default_grid,
    estimate_weak_values,
    gaussian_pointer,
    moment_table,
    pointer_overlaps,
    readout_weak_value,
    translate,
)
from weakdetect.protocol import HAMILTONIAN, TAU_DEN
from weakdetect.states import bell_phi_plus, random_mixed, random_pure, validate, werner

from conftest import record

seeds = st.integers(0, 10**6)


def table(rho, cfg):
    return moment_table(rho, pointer_overlaps(cfg)[0])


def _ensemble(joint, cutoff=1e-14):
    """Eigen-ensemble of the two-copy density matrix, largest weight first."""
    weights, vectors = np.linalg.eigh((joint + joint.conj().T) / 2)
    return [(float(weights[i]), vectors[:, i])
            for i in range(len(weights) - 1, -1, -1) if weights[i] > cutoff]


def ensemble_moment_table(rho, cfg):
    """Reference for moment_table: evolve each branch of the eigen-ensemble
    of rho x rho with the pointer, post-select, and sum the branches' moments
    on the grid, with one FFT per branch and outcome."""
    h = HAMILTONIAN
    branches = _ensemble(np.kron(rho.matrix, rho.matrix))
    phi_in = gaussian_pointer(cfg.sigma, cfg.grid)
    phi_plus = translate(phi_in, +cfg.epsilon).amplitudes
    phi_minus = translate(phi_in, -cfg.epsilon).amplitudes
    grid = cfg.grid
    x, p = grid.positions, grid.momenta
    dp = 2.0 * np.pi / (grid.n * grid.dx)
    momentum_weight = grid.dx**2 / (2.0 * np.pi) * dp
    sums = np.zeros((16, 5))
    for idx in range(16):
        for weight, psi in branches:
            flipped = h @ psi
            a_plus = 0.5 * (psi[idx] + flipped[idx])
            a_minus = 0.5 * (psi[idx] - flipped[idx])
            chi = a_plus * phi_plus + a_minus * phi_minus
            density = np.abs(chi) ** 2 * grid.dx
            momentum_density = np.abs(np.fft.fft(chi)) ** 2 * momentum_weight
            sums[idx] += weight * np.array([
                np.sum(density), np.sum(x * density), np.sum(x**2 * density),
                np.sum(p * momentum_density), np.sum(p**2 * momentum_density),
            ])
    return sums


class TestGrid:
    def test_spacing_and_positions(self):
        grid = PointerGrid(n=512, half_extent=16.0)
        assert grid.dx == pytest.approx(2 * 16.0 / 512)
        assert grid.positions[0] == -16.0
        assert grid.positions[1] - grid.positions[0] == pytest.approx(grid.dx)

    def test_rejects_small_or_odd_sizes(self):
        with pytest.raises(ValueError):
            PointerGrid(n=128, half_extent=16.0)
        with pytest.raises(ValueError):
            PointerGrid(n=500, half_extent=16.0)


def input_moments(sigma):
    """(mean x, var x, mean p, var p) of the input Gaussian, from the
    reference row of pointer_overlaps."""
    _, (_, x, x2, p, p2) = pointer_overlaps(default_config(0.0, sigma))
    return x, x2 - x**2, p, p2 - p**2


def position_moments(wave):
    density = np.abs(wave.amplitudes) ** 2 * wave.grid.dx
    mean = np.sum(wave.grid.positions * density)
    return mean, np.sum((wave.grid.positions - mean) ** 2 * density)


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
        with pytest.raises(ValueError):
            gaussian_pointer(5.0, PointerGrid(n=512, half_extent=16.0))


class TestTranslate:
    @given(st.floats(-2.0, 2.0))
    @settings(max_examples=10)
    def test_shifts_mean_exactly(self, delta):
        wave = gaussian_pointer(1.0, default_grid())
        shifted = translate(wave, delta)
        assert position_moments(shifted)[0] - position_moments(wave)[0] == pytest.approx(
            delta, abs=1e-10
        )

    def test_preserves_norm_and_shape(self):
        wave = gaussian_pointer(1.0, default_grid())
        shifted = translate(wave, 0.7)
        assert position_moments(shifted)[1] == pytest.approx(1.0, abs=1e-8)


class TestSimConfig:
    def test_rejects_strong_coupling(self):
        with pytest.raises(ValueError):
            SimConfig(epsilon=0.2, sigma=1.0, grid=default_grid())

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            SimConfig(epsilon=-1e-3, sigma=1.0, grid=default_grid())

    def test_zero_epsilon_allowed(self):
        SimConfig(epsilon=0.0, sigma=1.0, grid=default_grid())


class TestEvolveAndPostselect:
    def test_zero_coupling_probabilities_exact(self):
        rho = random_mixed(21)
        joint = np.kron(rho.matrix, rho.matrix)
        probabilities = table(rho, default_config(0.0))[:, 0]
        assert (np.abs(probabilities - np.diag(joint).real) <= 1e-12).all()

    def test_zero_coupling_pointer_unchanged(self):
        prob, sum_x, sum_x2, _, _ = table(random_mixed(22), default_config(0.0))[15]
        assert sum_x / prob == pytest.approx(0.0, abs=1e-12)
        assert sum_x2 / prob - (sum_x / prob) ** 2 == pytest.approx(1.0, abs=1e-8)

    def test_bell_k16_first_order_shift(self):
        # exact weak value w/s = 1: the whole wave translates by epsilon
        prob, sum_x, _, sum_p, _ = table(bell_phi_plus(), default_config(1e-3))[15]
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
        assert 6 not in {r.k for r in estimate_weak_values(bell_phi_plus(), cfg)}

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
        overlaps, reference = pointer_overlaps(cfg)
        row = moment_table(bell_phi_plus(), overlaps)[15]
        estimate = readout_weak_value(row, reference, cfg.epsilon, cfg.sigma)
        assert estimate.real == pytest.approx(1.0, abs=1e-6)
        # real weak value: momentum shift vanishes to O(eps^2)
        assert abs(estimate.imag) <= 10 * cfg.epsilon**2

    def test_imaginary_weak_value(self):
        # (|00> + i|11>)/sqrt(2): w = a d* = -i/2, s = 1/2, so w/s = -i
        psi = np.array([1, 0, 0, 1j], dtype=complex) / np.sqrt(2)
        rho = validate(np.outer(psi, psi.conj()))
        cfg = default_config(1e-3)
        overlaps, reference = pointer_overlaps(cfg)
        row = moment_table(rho, overlaps)[15]
        var_p = 1.0 / (4 * cfg.sigma**2)
        assert row[3] / row[0] == pytest.approx(-2 * cfg.epsilon * var_p, rel=1e-4)
        estimate = readout_weak_value(row, reference, cfg.epsilon, cfg.sigma)
        assert estimate.imag == pytest.approx(-1.0, abs=1e-5)
        assert abs(estimate.real) <= 1e-6

    def test_requires_positive_epsilon(self):
        cfg = default_config(1e-3)
        overlaps, reference = pointer_overlaps(cfg)
        row = moment_table(bell_phi_plus(), overlaps)[15]
        with pytest.raises(ValueError):
            readout_weak_value(row, reference, 0.0, cfg.sigma)


class TestEstimateWeakValues:
    def test_werner_k16(self):
        readouts = estimate_weak_values(werner(0.5), default_config(1e-3))
        by_k = {r.k: r for r in readouts}
        assert abs(by_k[16].estimate - 2 / 3) <= 5e-3
        assert by_k[16].postselect_prob == pytest.approx((3 / 8) ** 2, abs=1e-6)

    def test_maximally_mixed_estimates_vanish(self, maximally_mixed):
        readouts = estimate_weak_values(maximally_mixed, default_config(1e-3))
        assert len(readouts) == 16
        assert max(abs(r.estimate) for r in readouts) <= 1e-6

    def test_undefined_outcomes_skipped(self):
        readouts = estimate_weak_values(bell_phi_plus(), default_config(1e-3))
        assert {r.k for r in readouts} == {1, 4, 13, 16}

    @given(seeds)
    @settings(max_examples=5)
    def test_close_to_exact(self, seed):
        rho = random_mixed(seed)
        exact, _, defined, _ = record(rho)
        eps = 1e-3
        readouts = estimate_weak_values(rho, default_config(eps))
        for readout in readouts:
            assert defined[readout.k - 1]
            assert abs(readout.estimate - exact[readout.k - 1]) <= 5 * eps

    def test_error_halving_ratio(self):
        rho = random_mixed(404)
        exact, _, defined, _ = record(rho)
        assert defined.all()

        def max_err(eps):
            readouts = estimate_weak_values(rho, default_config(eps))
            return max(abs(r.estimate - exact[r.k - 1]) for r in readouts)

        ratio = max_err(1e-3) / max_err(5e-4)
        assert 1.7 <= ratio <= 4.3


def small_config(n=256, half_extent=20.0, sigma=1.0, epsilon=1e-3):
    return SimConfig(epsilon=epsilon, sigma=sigma, grid=PointerGrid(n, half_extent))


class TestOverlapCache:
    """pointer_overlaps memoises its table per SimConfig."""

    def setup_method(self):
        pointer._overlap_table.cache_clear()

    def counts(self):
        info = pointer._overlap_table.cache_info()
        return info.hits, info.misses

    def test_equal_configs_hit_and_each_field_misses(self):
        first = pointer_overlaps(small_config())
        again = pointer_overlaps(small_config())  # equal, not the same object
        assert again[0] is first[0] and again[1] is first[1]
        assert self.counts() == (1, 1)
        for changed in (small_config(n=512), small_config(half_extent=25.0),
                        small_config(sigma=1.5), small_config(epsilon=2e-3)):
            pointer_overlaps(changed)
        assert self.counts() == (1, 5)

    def test_tables_reject_writes(self):
        overlaps, reference = pointer_overlaps(small_config())
        assert overlaps.flags.owndata and reference.flags.owndata
        with pytest.raises(ValueError):
            overlaps[0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            reference[0] = 0.0

    @pytest.mark.parametrize("cfg", [small_config(), small_config(sigma=0.5, epsilon=0.05),
                                     default_config(1e-3, 1.0)],
                             ids=["small", "narrow-strong", "default"])
    def test_cached_equals_uncached_bit_for_bit(self, cfg):
        uncached = pointer._overlap_table.__wrapped__(cfg)
        for _ in range(2):  # a miss, then a hit
            cached = pointer_overlaps(cfg)
            for got, want in zip(cached, uncached):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_evicted_configs_rebuild_correctly(self):
        maxsize = pointer._overlap_table.cache_parameters()["maxsize"]
        assert maxsize >= 64
        configs = [small_config(epsilon=(i + 1) * 1e-4) for i in range(maxsize + 6)]
        for cfg in configs:
            pointer_overlaps(cfg)
        assert pointer._overlap_table.cache_info().currsize == maxsize
        for cfg in configs[:3]:  # the oldest, evicted
            rebuilt = pointer_overlaps(cfg)
            for got, want in zip(rebuilt, pointer._overlap_table.__wrapped__(cfg)):
                assert got.tobytes() == want.tobytes()
        assert self.counts() == (0, maxsize + 9)

    def test_cached_estimates_match_a_cold_build(self):
        rho, cfg = random_mixed(5), small_config()
        cold = estimate_weak_values(rho, cfg)
        assert estimate_weak_values(rho, cfg) == cold
        assert self.counts() == (1, 1)


def test_pointer_wave_rejects_unnormalized():
    grid = PointerGrid(n=256, half_extent=12.0)
    with pytest.raises(ValueError):
        PointerWave(grid, np.ones(256, dtype=complex))
