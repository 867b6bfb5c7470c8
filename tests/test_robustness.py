import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakdetect import robustness
from weakdetect.protocol import HAMILTONIAN, NoSignalError
from weakdetect.robustness import RankDeficientError, bound_check, perturbations
from weakdetect.states import random_mixed, random_pure, validate, werner

from conftest import exact_weak_value, record, trace_norm

seeds = st.integers(0, 10**6)

H = HAMILTONIAN


def draw(delta, seed):
    """One perturbation, drawn from the stream SeedSequence(seed)."""
    return perturbations(delta, [np.random.SeedSequence(seed)])[0]


def reference_hermitian(streams):
    """The Hermitian parts (g + g^H) / 2 of g = real + 1j * imag from each
    stream's draws, in seven complex steps with a complex product and
    quotient: the reference for ``_hermitian``."""
    streams = list(streams)
    draws = np.empty((len(streams), 2, 16, 16))
    for row, stream in zip(draws, streams):
        np.random.Generator(np.random.PCG64(stream)).standard_normal(out=row)
    herm, scratch = np.empty((2, len(streams), 16, 16), complex)
    np.copyto(herm, draws[:, 1])
    np.multiply(1j, herm, out=herm)
    np.copyto(scratch, draws[:, 0])
    np.add(scratch, herm, out=herm)
    np.copyto(scratch, herm.swapaxes(1, 2))
    np.add(herm, np.conjugate(scratch, out=scratch), out=herm)
    return np.divide(herm, 2, out=herm)


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

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 100])
    def test_bits_match_complex_reference(self, n):
        streams = np.random.SeedSequence(n).spawn(n)
        herm = reference_hermitian(streams)
        expected = robustness._scale(1e-2, herm, np.empty_like(herm))
        np.testing.assert_array_equal(perturbations(1e-2, streams).view(np.uint64),
                                      expected.view(np.uint64))
        draws = np.empty((robustness.CHUNK, 2, 16, 16))
        out, scratch = np.empty((2, robustness.CHUNK, 16, 16), complex)
        part = robustness._hermitian(streams[:robustness.CHUNK], draws, out, scratch)
        np.testing.assert_array_equal(part.view(np.uint64),
                                      herm[:robustness.CHUNK].view(np.uint64))

    def test_pass_allocates_no_ufunc_buffer(self):
        # a buffered or overlap-copying ufunc would allocate at least 64 KiB
        streams = np.random.SeedSequence(8).spawn(robustness.CHUNK)
        draws = np.empty((robustness.CHUNK, 2, 16, 16))
        herm, scratch = np.empty((2, robustness.CHUNK, 16, 16), complex)
        robustness._hermitian(streams, draws, herm, scratch)
        tracemalloc.start()
        try:
            robustness._hermitian(streams, draws, herm, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024


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
        monkeypatch.setattr(robustness, "BLOCK", 10)
        assert bound_check(random_mixed(4), 1e-2, trials=40, seed=6) == whole

    def test_no_child_spawned_and_one_eigvalsh_per_pass(self, monkeypatch):
        spawned, solved = [], []

        class SpawnSpy(np.random.SeedSequence):
            def spawn(self, n_children):
                spawned.append(n_children)
                return super().spawn(n_children)

        eigvalsh = np.linalg.eigvalsh

        def eigvalsh_spy(a, *args, **kwargs):
            solved.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", SpawnSpy)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_spy)
        trials = 1000
        bound_check(random_mixed(4), 1e-2, trials=trials, seed=6)
        assert spawned == []
        # at most one solve per pass, each on at most one pass of rows
        assert len(solved) <= -(-trials // robustness.CHUNK)
        assert all(0 < n <= robustness.CHUNK for n in solved)
        # the trace-norm screen leaves about a quarter of the trials to solve
        assert sum(solved) <= 0.4 * trials

    def test_peak_memory_does_not_grow_with_trials(self):
        # Child words are hashed BLOCK children (32 kB) at a time and the pass
        # buffers are allocated once per request, so nothing held grows with
        # the trial count.
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

    @pytest.mark.parametrize("rho", [werner(0.5), random_mixed(4), validate(np.eye(4) / 4)],
                             ids=["werner", "ginibre", "maximally-mixed"])
    @pytest.mark.parametrize("trials", [0, 1, 1000])
    def test_zero_delta_draws_and_solves_nothing(self, monkeypatch, rho, trials):
        expected = unscreened_bound_check(rho, 0.0, trials, seed=4)
        drawn, solved = [], []
        generator, eigvalsh = np.random.Generator, np.linalg.eigvalsh

        def generator_spy(*args, **kwargs):
            drawn.append(1)
            return generator(*args, **kwargs)

        def eigvalsh_spy(a, *args, **kwargs):
            solved.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", generator_spy)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_spy)
        report = bound_check(rho, 0.0, trials, seed=4)
        assert drawn == [] and solved == []
        assert report == expected
        assert (report.deviations, report.margin, report.violations) == ({}, 0.0, 0)


SEEDS = [0, 1, 2**31 - 2, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5, 10**40]
# Across the pass boundaries at 32 and the hash block boundary at 1024.
OFFSETS = [0, 31, 32, 33, 1023, 1024, 1025]


def numpy_words(child):
    return child.generate_state(4, np.uint64)


class TestChildStreams:
    """The hashed words must be NumPy's own: what SeedSequence(seed).spawn
    hands PCG64, child by child."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_words_match_spawned_children(self, seed):
        run = robustness._run_pool(seed)
        children = np.random.SeedSequence(seed).spawn(OFFSETS[-1] + 3)
        streams = list(robustness._child_streams(run, OFFSETS[-1] + 3))
        for lo in OFFSETS:
            direct = robustness._child_words(run, lo, 3)
            assert direct.flags.c_contiguous
            for j in range(3):
                expected = numpy_words(children[lo + j])
                np.testing.assert_array_equal(direct[j], expected)
                np.testing.assert_array_equal(streams[lo + j].generate_state(4, np.uint64),
                                              expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_two_word_spawn_keys(self, seed):
        # From child 2^32 on the spawn key is two words; build each child as
        # spawn does, from its key, rather than spawning 2^32 of them.
        lo = 2**32 - 3
        words = robustness._child_words(robustness._run_pool(seed), lo, 6)
        for j in range(6):
            child = np.random.SeedSequence(seed, spawn_key=(lo + j,))
            np.testing.assert_array_equal(words[j], numpy_words(child))

    @pytest.mark.parametrize("seed", [0, 3, 2**32])
    def test_draws_match_default_rng(self, seed):
        children = np.random.SeedSequence(seed).spawn(40)
        streams = list(robustness._child_streams(robustness._run_pool(seed), 40))
        for i in (0, 1, 31, 32, 39):
            got = np.random.Generator(np.random.PCG64(streams[i])).standard_normal((2, 16, 16))
            want = np.random.default_rng(children[i]).standard_normal((2, 16, 16))
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(perturbations(1e-2, streams[:5]),
                                      perturbations(1e-2, children[:5]))

    def test_child_holds_only_pcg64_words(self):
        (child,) = robustness._child_streams(robustness._run_pool(0), 1)
        for n_words, dtype in ((4, np.uint32), (2, np.uint64)):
            with pytest.raises(ValueError):
                child.generate_state(n_words, dtype)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_seed_numpy_rejects(self, seed):
        with pytest.raises((TypeError, ValueError)):
            np.random.SeedSequence(seed)
        with pytest.raises((TypeError, ValueError)):
            bound_check(werner(0.5), 1e-2, trials=0, seed=seed)
        with pytest.raises((TypeError, ValueError)):  # delta = 0 draws nothing
            bound_check(werner(0.5), 0.0, trials=10, seed=seed)


def near_rank_deficient(amplitudes, t, seed):
    """A pure state mixed with weight t of a Ginibre state: full rank, with
    three eigenvalues of order t."""
    amplitudes = np.asarray(amplitudes) / np.linalg.norm(amplitudes)
    pure = np.outer(amplitudes, amplitudes.conj())
    return validate((1 - t) * pure + t * random_mixed(seed).matrix)


def haar_amplitudes(seed):
    psi = random_pure(seed)
    return [psi.a, psi.b, psi.c, psi.d]


SUPREMUM_STATES = (
    [random_mixed(s) for s in range(4)]
    + [near_rank_deficient(haar_amplitudes(s), t, s + 100) for s in range(3) for t in (1e-2, 1e-4)]
    # one diagonal about 1.5e-4: J_kk goes down to 2e-8 and delta/m up to 5e5
    + [near_rank_deficient([1, 1j, -1, 2e-2], 1e-4, 7)]
    + [werner(p) for p in (0.1, 1 / 3, 0.5, 0.9)]
)


class TestClosedFormSupremum:
    """The worst deviation of outcome k over every Hermitian P with
    ||P||_1 = delta is delta (1 + ||c_k||) / 2, with c_k = J e_k / J_kk and
    J = rho x rho, attained at delta |e><e|, e ~ e_k + c_k / ||c_k||."""

    @pytest.mark.parametrize("rho", SUPREMUM_STATES)
    def test_sampled_deviations_within_supremum_within_bound(self, rho):
        delta = 1e-2
        report = bound_check(rho, delta, trials=200, seed=5)
        joint = np.kron(rho.matrix, rho.matrix)
        _, _, _, defined, _ = record(rho)
        for k in np.flatnonzero(defined) + 1:
            c = joint[:, k - 1] / joint[k - 1, k - 1]
            supremum = delta * (1 + np.linalg.norm(c)) / 2
            assert report.deviations.get(k, 0.0) <= supremum * (1 + 1e-12)
            assert supremum <= report.bound
            e = np.eye(16)[k - 1] + c / np.linalg.norm(c)
            e /= np.linalg.norm(e)
            worst = delta * np.outer(e, e.conj())
            assert trace_norm(worst) == pytest.approx(delta, rel=1e-12)
            assert abs(exact_weak_value(rho, worst, k)) == pytest.approx(supremum, rel=1e-12)


def unscreened_bound_check(rho, delta, trials, seed):
    """``bound_check`` with every trial solved: the whole stack from
    ``perturbations``, then the same gather and einsum as the exact path."""
    _, probabilities, _, signal, _ = record(rho)
    joint = np.kron(rho.matrix, rho.matrix)
    columns = joint[:, signal] / probabilities[signal]
    stack = perturbations(delta, np.random.SeedSequence(seed).spawn(trials))
    dev = np.abs(np.einsum("tkl,lk->tk", stack[:, signal], columns))
    m = min(rho.diagonal()) ** 2
    bound = delta / m
    worst = dev.max(axis=0, initial=0.0)
    hit = worst > 0
    return robustness.RobustnessReport(
        delta=delta, m=m, bound=bound, trials=trials,
        deviations=dict(zip((np.flatnonzero(signal)[hit] + 1).tolist(), worst[hit].tolist())),
        margin=float(np.min(bound - worst[hit])) if hit.any() else bound,
        violations=int(np.count_nonzero(dev > bound)),
    )


def largest_delta(rho):
    """The largest delta whose bound delta/m is still finite."""
    m = min(rho.diagonal()) ** 2
    delta = float(np.finfo(float).max) * m
    while not delta / m < np.inf:
        delta = float(np.nextafter(delta, 0.0))
    return delta


SCREEN_STATES = {
    "ginibre": random_mixed(21),
    "werner": werner(0.5),
    # every outcome's column is e_k: ties between outcomes
    "maximally-mixed": validate(np.eye(4) / 4),
    "near-rank-deficient": near_rank_deficient(haar_amplitudes(2), 1e-4, 102),
    "small-diagonal": near_rank_deficient([1, 1j, -1, 2e-2], 1e-4, 7),
}


class TestTraceNormScreen:
    """The screen skips eigvalsh only on trials that cannot change the
    report, so reports equal those of solving every trial, bit for bit."""

    @pytest.mark.parametrize("name", SCREEN_STATES)
    @pytest.mark.parametrize("delta", [0.0, 1e-3, 1e-1, "largest"])
    @pytest.mark.parametrize("trials", [0, 1, 31, 32, 33, 1000])
    def test_report_equals_every_trial_solved(self, name, delta, trials):
        rho = SCREEN_STATES[name]
        delta = largest_delta(rho) if delta == "largest" else delta
        seed = trials + 11
        assert bound_check(rho, delta, trials, seed) == unscreened_bound_check(rho, delta, trials, seed)

    def test_largest_delta_is_accepted_and_next_refused(self):
        rho = SCREEN_STATES["small-diagonal"]
        delta = largest_delta(rho)
        assert bound_check(rho, delta, 1, 0).bound < np.inf
        for beyond in (float(np.nextafter(delta, np.inf)), np.nextafter(delta, np.inf)):
            with pytest.raises(ValueError):
                bound_check(rho, beyond, 1, 0)

    @pytest.mark.parametrize("family", ["random", "rank-1", "diagonal", "symmetric-spectrum"])
    def test_bounds_bracket_the_trace_norm(self, family):
        rng = np.random.default_rng(3)
        n = 64
        g = rng.standard_normal((n, 16, 16)) + 1j * rng.standard_normal((n, 16, 16))
        unitaries = np.linalg.qr(g)[0]
        scales = 10.0 ** rng.uniform(-3, 3, (n, 1))
        if family == "random":
            herm = (g + g.conj().swapaxes(1, 2)) / 2
        else:
            spectra = {
                "rank-1": np.eye(16)[[0] * n] * rng.standard_normal((n, 1)),
                "diagonal": rng.standard_normal((n, 16)),
                "symmetric-spectrum": np.repeat([1.0, -1.0], 8) * rng.uniform(0.5, 2, (n, 1)),
            }[family] * scales
            if family == "diagonal":
                herm = np.zeros((n, 16, 16), complex)
                herm[:, np.arange(16), np.arange(16)] = spectra
            else:
                herm = (unitaries * spectra[:, None, :]) @ unitaries.conj().swapaxes(1, 2)
        herm = np.ascontiguousarray(herm, complex)
        rownorms, lower, upper = robustness._trace_norm_bounds(herm, np.empty_like(herm))
        norm = np.abs(np.linalg.eigvalsh(herm)).sum(axis=1)
        np.testing.assert_allclose(rownorms, np.linalg.norm(herm, axis=2), rtol=1e-14)
        assert np.all(lower <= norm * (1 + robustness._SLACK))
        assert np.all(norm <= upper * (1 + robustness._SLACK))
        if family == "symmetric-spectrum":
            # |l| constant: L = ||H||_1 = 4 ||H||_F, so both bounds are tight
            np.testing.assert_allclose(lower, norm, rtol=1e-12)
            np.testing.assert_allclose(upper, norm, rtol=1e-12)


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
        _, _, values, defined, _ = record(rho)
        for k in np.flatnonzero(defined) + 1:
            expected = abs(values[k - 1]) * eta
            assert weak_value_deviation(rho, pert, k) == pytest.approx(
                expected, abs=1e-12
            )
