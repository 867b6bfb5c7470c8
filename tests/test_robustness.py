import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakdetect import robustness
from weakdetect.protocol import HAMILTONIAN, NoSignalError
from weakdetect.robustness import RankDeficientError, bound_check, perturbations
from weakdetect.states import random_mixed, werner

from conftest import exact_weak_value, record, trace_norm

seeds = st.integers(0, 10**6)

H = HAMILTONIAN


def draw(delta, seed):
    """One perturbation, drawn from the stream SeedSequence(seed)."""
    return perturbations(delta, [np.random.SeedSequence(seed)])[0]


def weak_value_deviation(rho, perturbation, k):
    """|weak value under H - weak value under H_e| with H_e = H - P."""
    return abs(exact_weak_value(rho, H, k) - exact_weak_value(rho, H - perturbation, k))


def coupling_miscalibration(eta):
    """Structured error H_e = (1 + eta) H, i.e. P = -eta H with
    ||P||_1 = 16 |eta| (H has sixteen unit-magnitude eigenvalues);
    returns (P, its trace norm)."""
    return -eta * H, 16.0 * abs(eta)


def reference_bound_check(rho, delta, trials, seed):
    """The per-trial loop ``bound_check`` replaces, kept as its oracle.

    Trial i seeds its own generator with child i of SeedSequence(seed) and
    draws the real and then the imaginary part of a complex Gaussian
    matrix; its Hermitian part is rescaled by its trace norm. Each
    outcome's deviation is the weak value of P itself, computed one outcome
    at a time: weak values are linear in the generator, so this is
    |wv(H) - wv(H - P)| without the cancellation of that difference.
    """
    bound = delta / min(a * b for a in rho.diagonal() for b in rho.diagonal())
    worst, violations = {}, 0
    for stream in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(stream)
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        herm = (g + g.conj().T) / 2
        p = herm * (delta / trace_norm(herm))
        for k in range(1, 17):
            try:
                dev = abs(exact_weak_value(rho, p, k))
            except NoSignalError:
                continue
            violations += dev > bound
            if dev > worst.get(k, 0.0):
                worst[k] = dev
    margin = min((bound - dev for dev in worst.values()), default=bound)
    return worst, margin, violations


class TestRandomPerturbation:
    @given(seeds)
    @settings(max_examples=10)
    def test_trace_norm_equals_delta(self, seed):
        stack = perturbations(1e-2, np.random.SeedSequence(seed).spawn(3))
        assert stack.shape == (3, 16, 16)
        for matrix in stack:
            assert abs(trace_norm(matrix) - 1e-2) <= 1e-10

    def test_zero_delta_gives_zero_matrix(self):
        assert np.all(perturbations(0.0, np.random.SeedSequence(3).spawn(4)) == 0)

    def test_seed_reproducible(self):
        np.testing.assert_array_equal(draw(1e-3, 42), draw(1e-3, 42))

    def test_hermitian(self):
        stack = perturbations(1e-2, np.random.SeedSequence(0).spawn(5))
        np.testing.assert_allclose(stack, stack.conj().swapaxes(1, 2), atol=1e-15)

    def test_stacking_draws_each_stream_alone(self):
        streams = np.random.SeedSequence(5).spawn(6)
        stack = perturbations(1e-2, streams)
        for stream, matrix in zip(streams, stack):
            np.testing.assert_array_equal(perturbations(1e-2, [stream])[0], matrix)

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            perturbations(-1.0, np.random.SeedSequence(0).spawn(1))


class TestWeakValueDeviation:
    def test_zero_perturbation(self):
        zero = np.zeros((16, 16), dtype=complex)
        for k in (1, 4, 16):
            assert weak_value_deviation(werner(0.5), zero, k) == 0.0

    def test_scaling_linearity(self):
        rho = werner(0.5)
        base = draw(1e-2, 11)
        for k in range(1, 17):
            d1 = weak_value_deviation(rho, base, k)
            d2 = weak_value_deviation(rho, 2 * base, k)
            assert abs(d2 - 2 * d1) <= 1e-10

    def test_werner_bound_sampled(self):
        # min diagonal 1/8, so m = 1/64 and the bound is 0.64 at delta 1e-2
        rho = werner(0.5)
        bound = 1e-2 / (1 / 64)
        assert bound == pytest.approx(0.64)
        for pert in perturbations(1e-2, np.random.SeedSequence(0).spawn(100)):
            for k in range(1, 17):
                assert weak_value_deviation(rho, pert, k) <= bound

    @given(seeds)
    @settings(max_examples=10)
    def test_batched_deviations_match_literal(self, seed):
        rho = random_mixed(seed)
        report = bound_check(rho, 1e-2, trials=1, seed=seed + 1)
        pert = perturbations(1e-2, np.random.SeedSequence(seed + 1).spawn(1))[0]
        for k, dev in report.deviations.items():
            assert dev == pytest.approx(
                weak_value_deviation(rho, pert, k), rel=1e-10, abs=1e-15
            )


class TestBoundCheck:
    def test_werner_small_delta(self):
        report = bound_check(werner(0.5), 1e-3, trials=100, seed=1)
        assert report.bound == pytest.approx(6.4e-2)
        assert report.violations == 0
        assert report.margin > 0
        assert max(report.deviations.values()) <= 6.4e-2

    def test_maximally_mixed(self, maximally_mixed):
        report = bound_check(maximally_mixed, 1e-2, trials=50, seed=2)
        assert report.m == pytest.approx(1 / 16)
        assert report.bound == pytest.approx(0.16)
        assert report.violations == 0

    @given(seeds)
    @settings(max_examples=10)
    def test_bound_is_min_diagonal_squared(self, seed):
        rho = random_mixed(seed)
        report = bound_check(rho, 1e-2, trials=5, seed=0)
        assert report.bound == pytest.approx(1e-2 / min(rho.diagonal()) ** 2)

    def test_rank_deficient_rejected(self, bell):
        with pytest.raises(RankDeficientError):
            bound_check(bell, 1e-2, trials=5, seed=0)

    @pytest.mark.parametrize("delta, trials", [
        (-1e-3, 5), (-1e-3, 0), (float("nan"), 5), (float("inf"), 5), (1e-2, -1),
    ])
    def test_rejects_bad_delta_or_trials(self, delta, trials):
        with pytest.raises(ValueError):
            bound_check(werner(0.5), delta, trials=trials, seed=0)

    def test_deterministic(self):
        a = bound_check(werner(0.5), 1e-2, trials=20, seed=9)
        b = bound_check(werner(0.5), 1e-2, trials=20, seed=9)
        assert a == b

    def test_stacking_leaves_report_unchanged(self, monkeypatch):
        whole = bound_check(random_mixed(4), 1e-2, trials=40, seed=6)
        monkeypatch.setattr(robustness, "CHUNK", 7)
        assert bound_check(random_mixed(4), 1e-2, trials=40, seed=6) == whole

    def test_peak_memory_does_not_grow_with_trials(self):
        # Child seeds are spawned one pass at a time. Spawning all of them up
        # front holds about 370 B per trial: 0.7 MB more at 2048 trials.
        def peak(trials):
            tracemalloc.start()
            try:
                bound_check(werner(0.5), 1e-2, trials=trials, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few = peak(4 * robustness.CHUNK)
        many = peak(64 * robustness.CHUNK)
        assert many < few + 256 * 1024

    def test_prefix_of_trials(self):
        short = bound_check(random_mixed(12), 1e-2, trials=20, seed=3)
        longer = bound_check(random_mixed(12), 1e-2, trials=40, seed=3)
        assert short.deviations.keys() == longer.deviations.keys()
        for k, dev in short.deviations.items():
            assert dev <= longer.deviations[k]

    @pytest.mark.parametrize("rho", [werner(0.5), random_mixed(17)], ids=["werner", "ginibre"])
    @pytest.mark.parametrize("delta", [0.0, 1e-3, 1e-1])
    @pytest.mark.parametrize("trials", [0, 1, 31, 32, 33, 300])
    def test_matches_per_trial_reference(self, rho, delta, trials):
        report = bound_check(rho, delta, trials=trials, seed=trials + 5)
        worst, margin, violations = reference_bound_check(rho, delta, trials, trials + 5)
        assert report.deviations.keys() == worst.keys()
        assert report.violations == violations
        for k, dev in worst.items():
            assert abs(report.deviations[k] - dev) <= 1e-12 * dev
        assert abs(report.margin - margin) <= 1e-12 * report.bound

    def test_report_serialization(self):
        report = bound_check(werner(0.5), 1e-2, trials=10, seed=3)
        doc = report.to_json_dict()
        assert doc["bound"] == pytest.approx(0.64)
        assert set(doc["deviations"]) == {str(k) for k in range(1, 17)}
        rows = report.csv_rows()
        assert len(rows) == 16
        assert rows[0][0] == 1e-2 and rows[0][1] == 1
        assert all(row[3] == report.bound for row in rows)

    def test_no_trials_or_zero_delta_report_no_outcomes(self):
        for delta, trials in ((1e-2, 0), (0.0, 10)):
            report = bound_check(werner(0.5), delta, trials=trials, seed=0)
            assert report.deviations == {}
            assert report.margin == report.bound
            assert report.violations == 0


class TestCouplingMiscalibration:
    def test_trace_norm(self):
        # H has sixteen unit-magnitude eigenvalues, so ||eta H||_1 = 16 |eta|
        pert, delta = coupling_miscalibration(1e-3)
        assert delta == pytest.approx(16e-3)
        assert trace_norm(pert) == pytest.approx(16e-3, abs=1e-12)

    def test_bound_holds(self):
        rho = werner(0.5)
        pert, delta = coupling_miscalibration(1e-3)
        bound = delta / min(rho.diagonal()) ** 2
        for k in range(1, 17):
            assert weak_value_deviation(rho, pert, k) <= bound

    def test_scaled_hamiltonian_shifts_weak_values_proportionally(self):
        # H_e = (1+eta) H multiplies every weak value by (1+eta)
        rho = werner(0.5)
        eta = 1e-3
        pert, _ = coupling_miscalibration(eta)
        values, _, defined, _ = record(rho)
        for k in np.flatnonzero(defined) + 1:
            expected = abs(values[k - 1]) * eta
            assert weak_value_deviation(rho, pert, k) == pytest.approx(
                expected, abs=1e-12
            )
