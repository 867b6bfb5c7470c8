import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weakdetect.protocol import (
    ELEMENT_OUTCOME,
    HAMILTONIAN,
    PERM,
    DecisionPath,
    NoSignalError,
    TAU_DEN,
    TAU_DIAG,
    _FALLBACK,
    _LOCAL_PERM,
    _DET_TERMS,
    _FACTORS,
    _PRIMARY,
    _TERM_SIGNS,
    _det_terms,
    _elements,
    detect,
    detect_batch,
    detect_pure_local,
    reconstruct_batch,
    weak_values_batch,
)
from weakdetect.states import (
    TAU_DET,
    PositivityError,
    PureAmplitudes,
    Verdict,
    ppt_entangled,
    ppt_oracle,
    random_mixed,
    random_mixed_batch,
    random_pure,
    trace_distance,
    trace_distance_batch,
    validate,
    validate_batch,
    werner,
)

from conftest import (
    bits, build_local_hamiltonian, det_ptb, exact_weak_value, record, round_trip,
)

seeds = st.integers(0, 10**6)

# the twelve informative outcomes and the element ratios they measure
RATIO_ORACLE = {
    1: lambda m: np.conj(m[0, 1]) / m[0, 0].real,
    2: lambda m: m[0, 1] / m[1, 1].real,
    3: lambda m: np.conj(m[2, 3]) / m[2, 2].real,
    4: lambda m: m[2, 3] / m[3, 3].real,
    9: lambda m: np.conj(m[0, 2]) / m[0, 0].real,
    10: lambda m: np.conj(m[1, 3]) / m[1, 1].real,
    11: lambda m: m[0, 2] / m[2, 2].real,
    12: lambda m: m[1, 3] / m[3, 3].real,
    13: lambda m: np.conj(m[0, 3]) / m[0, 0].real,
    14: lambda m: np.conj(m[1, 2]) / m[1, 1].real,
    15: lambda m: m[1, 2] / m[2, 2].real,
    16: lambda m: m[0, 3] / m[3, 3].real,
}


def oracle_det_terms(m):
    """The 24 terms of the table ``detect_batch`` evaluates, fed with the
    matrix's own diagonals and off-diagonals u, v, w, x, y, z."""
    u, v, w, x, y, z = m[0, 1], m[0, 2], m[0, 3], m[1, 2], m[1, 3], m[2, 3]
    return _det_terms(np.diag(m).real[None], np.array([[u, v, w, x, y, z]]))[0]


def element_terms(m):
    """The 24 terms of det(rho^TB) as element expressions."""
    p, q, r, s = np.diag(m).real
    u, v, w = m[0, 1], m[0, 2], m[0, 3]
    x, y, z = m[1, 2], m[1, 3], m[2, 3]
    c = np.conj
    return [
        +u * c(u) * z * c(z),
        -u * v * c(y) * c(z),
        -u * c(w) * x * z,
        -c(u) * c(v) * y * z,
        -c(u) * w * c(x) * c(z),
        +v * c(v) * y * c(y),
        -v * c(w) * c(x) * y,
        -c(v) * w * x * c(y),
        +w * c(w) * x * c(x),
        +u * v * c(w) * s,
        +c(u) * c(v) * w * s,
        +u * x * c(y) * r,
        +c(u) * c(x) * y * r,
        -u * c(u) * r * s,
        +v * c(x) * c(z) * q,
        +c(v) * x * z * q,
        -v * c(v) * q * s,
        -x * c(x) * q * r,
        +w * c(y) * c(z) * p,
        +c(w) * y * z * p,
        -w * c(w) * p * s,
        -y * c(y) * p * r,
        -z * c(z) * p * q,
        p * q * r * s,
    ]


# Row t holds the indices into _FACTORS of term t's four factors.
GATHER = np.array([[_FACTORS.index(f) for f in term.split()[1:]] for term in _DET_TERMS])


def reference_det_terms(diagonal, elements):
    """The terms as a gather of an (N, 24, 4) stack of factors and its
    product along the last axis."""
    factors = np.concatenate([diagonal, elements, elements.conj()], axis=1)
    return _TERM_SIGNS * factors[:, GATHER].prod(axis=2)


def term_inputs(stack):
    """The (N, 4) diagonals and (N, 6) off-diagonals u..z that detect_batch
    passes to _det_terms for a stack."""
    _, _, values, defined, diagonal = weak_values_batch(stack)
    return diagonal, _elements(values, defined, diagonal, stack[:, *np.triu_indices(4, 1)])


def basis_state(i):
    m = np.zeros((4, 4), dtype=complex)
    m[i, i] = 1.0
    return validate(m)


class TestBuildHamiltonian:
    def test_flip_amplitudes(self):
        h = HAMILTONIAN
        assert not h.flags.writeable
        # |0000> -> |0001| block flips the last qubit
        assert h[1, 0] == 1
        # |1111> -> |1100|: the |11> block flips both second-copy qubits
        assert h[12, 15] == 1

    def test_squares_to_identity(self):
        h = HAMILTONIAN
        np.testing.assert_allclose(h @ h, np.eye(16), atol=1e-15)

    def test_hermitian(self):
        h = HAMILTONIAN
        np.testing.assert_allclose(h, h.conj().T, atol=1e-15)

    def test_block_structure(self):
        # the generator built block by block from np.kron: X on qubit 3 in
        # the |00> and |01> blocks, X on qubit 2 in |10>, X (x) X in |11>
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        eye2 = np.eye(2, dtype=complex)
        blocks = (np.kron(eye2, sx), np.kron(eye2, sx), np.kron(sx, eye2), np.kron(sx, sx))
        h = np.zeros((16, 16), dtype=complex)
        for i, block in enumerate(blocks):
            h[4 * i : 4 * i + 4, 4 * i : 4 * i + 4] = block
        assert np.array_equal(bits(HAMILTONIAN), bits(h))
        np.testing.assert_array_equal(PERM, np.argmax(h.real, axis=1))

    def test_local_hamiltonian(self):
        h = build_local_hamiltonian()
        assert not h.flags.writeable
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        np.testing.assert_allclose(h, np.kron(np.eye(8), sx))
        np.testing.assert_allclose(h @ h, np.eye(16), atol=1e-15)


class TestExactWeakValue:
    def test_werner_k16(self):
        # w/s = (1/4) / (3/8) = 2/3
        h = HAMILTONIAN
        value = exact_weak_value(werner(0.5), h, 16)
        assert value == pytest.approx(2 / 3, abs=1e-14)

    def test_werner_k1_zero(self):
        value = exact_weak_value(werner(0.5), HAMILTONIAN, 1)
        assert value == 0

    def test_bell_k16(self, bell):
        assert exact_weak_value(bell, HAMILTONIAN, 16) == pytest.approx(1.0)

    def test_no_signal(self, bell):
        with pytest.raises(NoSignalError):
            exact_weak_value(bell, HAMILTONIAN, 6)  # probability q^2 = 0

    def test_bad_outcome_index(self, bell):
        with pytest.raises(ValueError):
            exact_weak_value(bell, HAMILTONIAN, 17)


class TestWeakValuesAll:
    @given(seeds)
    def test_identities(self, seed):
        rho = random_mixed(seed)
        _, _, values, defined, _ = record(rho)
        assert defined.all()
        for k, oracle in RATIO_ORACLE.items():
            assert abs(values[k - 1] - oracle(rho.matrix)) <= 1e-12

    @given(seeds)
    def test_redundant_outcomes(self, seed):
        values = record(random_mixed(seed))[2]
        for k in (5, 6, 7, 8):
            assert abs(values[k - 1] - values[k - 5]) <= 1e-12

    @given(seeds)
    def test_gather_matches_definition(self, seed):
        # <u_k| H (rho x rho) |u_k> / <u_k| rho x rho |u_k> through the full
        # two-copy matrices, for the conditional flip and for the local flip
        # of detect_pure_local
        rho = random_mixed(seed)
        for perm, hamiltonian in ((PERM, HAMILTONIAN), (_LOCAL_PERM, build_local_hamiltonian())):
            values = record(rho, perm)[2]
            for k in range(1, 17):
                want = exact_weak_value(rho, hamiltonian, k)
                assert abs(values[k - 1] - want) <= 1e-12 * (1 + abs(want))

    def test_maximally_mixed_all_zero(self, maximally_mixed):
        _, _, values, defined, _ = record(maximally_mixed)
        assert defined.all()
        assert (values == 0).all()

    def test_defined_mask_tracks_probabilities(self, bell):
        _, probabilities, _, defined, _ = record(bell)
        assert set(np.flatnonzero(defined) + 1) == {1, 4, 13, 16}
        assert probabilities[5] == 0.0
        assert probabilities[15] == pytest.approx(0.25)

    @given(seeds)
    def test_ratio_table_matches_oracle(self, seed):
        # ELEMENT_OUTCOME is derived from PERM; read off the matrix, each
        # element ratio rho[row, col] / rho[col, col] must be the one
        # RATIO_ORACLE names for its outcome
        m = random_mixed(seed).matrix
        for (row, col), k in ELEMENT_OUTCOME.items():
            want = RATIO_ORACLE[k](m)
            assert abs(m[row, col] / m[col, col].real - want) <= 1e-12 * (1 + abs(want))

    def test_derived_outcome_lists(self):
        # the informative outcomes and the outcomes measuring u, v, w, x, y, z
        # (primary) or their conjugates (fallback) are derived from
        # ELEMENT_OUTCOME, not typed in
        assert set(ELEMENT_OUTCOME.values()) == set(RATIO_ORACLE)
        assert tuple(_PRIMARY + 1) == (2, 11, 16, 15, 12, 4)
        assert tuple(_FALLBACK + 1) == (1, 9, 13, 14, 10, 3)


class TestDiagonalsFromPostselection:
    def test_werner_half(self):
        # Pr(k=1) = p^2 = (3/8)^2 = 9/64
        _, probabilities, _, _, (p, q, r, s) = record(werner(0.5))
        assert probabilities[0] == pytest.approx(9 / 64, abs=1e-14)
        assert (p, s) == (pytest.approx(3 / 8), pytest.approx(3 / 8))
        assert (q, r) == (pytest.approx(1 / 8), pytest.approx(1 / 8))

    def test_maximally_mixed(self, maximally_mixed):
        assert record(maximally_mixed)[4] == pytest.approx((0.25, 0.25, 0.25, 0.25))

    def test_basis_state(self):
        assert record(basis_state(1))[4].tolist() == [0.0, 1.0, 0.0, 0.0]

    @given(seeds)
    def test_matches_diagonal(self, seed):
        rho = random_mixed(seed)
        np.testing.assert_allclose(record(rho)[4], rho.diagonal(), atol=1e-12)


class TestDetBracket:
    @given(seeds)
    def test_matches_determinant(self, seed):
        rho = random_mixed(seed)
        det = oracle_det_terms(rho.matrix).sum().real
        pqrs = np.prod(rho.diagonal())
        lu = det_ptb(rho)
        assert abs(det - lu) <= 1e-10 * max(abs(lu), pqrs)

    @given(seeds)
    def test_ratio_route_equals_element_route(self, seed):
        rho = random_mixed(seed)
        via_wv = detect_batch(rho.matrix[None]).det_scaled[0]
        via_elements = oracle_det_terms(rho.matrix).sum().real / np.prod(rho.diagonal())
        assert via_wv == pytest.approx(via_elements, rel=1e-9, abs=1e-12)

    def test_term_table_audit(self):
        """Each documented term must equal its direct element expression."""
        rho = random_mixed(99)
        terms = oracle_det_terms(rho.matrix)
        expected = element_terms(rho.matrix)
        pqrs = np.prod(rho.diagonal())
        assert len(terms) == 24
        # abs is relative to pqrs, the scale of the terms
        for got, want in zip(terms, expected):
            assert got == pytest.approx(want, rel=1e-10, abs=1e-13 * pqrs)

    @given(seeds)
    def test_conjugate_consistency(self, seed):
        # conj(u*/p) * p must equal (u/q) * q whenever all four are defined
        rho = random_mixed(seed)
        _, _, values, _, (p, q, _, _) = record(rho)
        lhs = np.conj(values[0]) * p
        rhs = values[1] * q
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


class TestDetTerms:
    @pytest.mark.parametrize("n", [2, 3, 255, 256, 257])
    def test_bits_match_gather_reference(self, n):
        args = term_inputs(random_mixed_batch(np.random.default_rng(n), n))
        np.testing.assert_array_equal(bits(_det_terms(*args)), bits(reference_det_terms(*args)))

    def test_single_state_within_roundoff_of_gather_reference(self):
        # A one-row gather is reduced by another numpy loop than the
        # elementwise products, so the bits may differ, by a few units of
        # roundoff u = 2^-53 of the terms' scale.
        stack = np.concatenate([mixed_stack(0),
                                random_mixed_batch(np.random.default_rng(1), 200)])
        for m in stack:
            args = term_inputs(m[None])
            got, want = _det_terms(*args)[0], reference_det_terms(*args)[0]
            scale = 4 * 2.0**-53 * np.abs(want).sum()
            assert np.all(np.abs(got - want) <= scale)
            assert abs(got.sum() - want.sum()) <= scale

    def test_forms_no_stack_of_factors(self):
        args = term_inputs(random_mixed_batch(np.random.default_rng(5), 256))
        _det_terms(*args)
        tracemalloc.start()
        try:
            _det_terms(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 24 * 4 * np.dtype(complex).itemsize  # the (256, 24, 4) gather


class TestDetect:
    def test_bell_case_ii(self, bell):
        report = detect(bell)
        assert report.path is DecisionPath.CASE_II
        assert report.verdict is Verdict.ENTANGLED
        assert report.det_value == pytest.approx(-1 / 16, abs=1e-12)
        assert report.det_scaled is None
        assert report.e_estimate == pytest.approx(1 / 16, abs=1e-12)

    def test_basis_state_case_i_separable(self):
        report = detect(basis_state(1))  # p = 0 then r = 0
        assert report.path is DecisionPath.CASE_I
        assert report.verdict is Verdict.SEPARABLE
        assert report.det_value == 0.0

    def test_psi_plus_case_i_entangled(self):
        # (|01> + |10>)/sqrt(2): p = s = 0, x = 1/2 decides
        m = np.zeros((4, 4), dtype=complex)
        m[1, 1] = m[2, 2] = 0.5
        m[1, 2] = m[2, 1] = 0.5
        report = detect(validate(m))
        assert report.path is DecisionPath.CASE_I
        assert report.verdict is Verdict.ENTANGLED
        assert report.det_value == pytest.approx(-1 / 16, abs=1e-12)

    def test_werner_general_separable(self):
        report = detect(werner(0.2))
        assert report.path is DecisionPath.GENERAL
        assert report.verdict is Verdict.SEPARABLE
        assert report.det_value == pytest.approx(1.2**3 * 0.4 / 256, abs=1e-12)

    def test_werner_general_entangled(self):
        report = detect(werner(0.5))
        assert report.path is DecisionPath.GENERAL
        assert report.verdict is Verdict.ENTANGLED
        assert report.det_value == pytest.approx(-27 / 4096, abs=1e-12)
        assert report.det_scaled == pytest.approx(
            report.det_value / np.prod(werner(0.5).diagonal()), rel=1e-9
        )

    def test_rank_deficient_s_zero_probes_x(self):
        # s = 0 silences every outcome that measures x; x is read off the
        # matrix and the polynomial still classifies correctly
        psi = np.array([0.6, 0.48, 0.64, 0.0], dtype=complex)
        rho = validate(np.outer(psi, psi.conj()))
        report = detect(rho)
        assert report.path is DecisionPath.CASE_I
        assert report.verdict is Verdict.ENTANGLED
        assert ppt_oracle(rho) is Verdict.ENTANGLED
        assert report.det_value == pytest.approx(det_ptb(rho), rel=1e-10)

    @given(seeds)
    def test_verdict_agreement(self, seed):
        rho = random_mixed(seed)
        if abs(det_ptb(rho)) > 1e-9:
            assert detect(rho).verdict is ppt_oracle(rho)

    def test_named_families_agreement(self):
        for p_mix in (0.0, 0.1, 1 / 3, 0.34, 0.6, 1.0):
            rho = werner(p_mix)
            assert detect(rho).verdict is ppt_oracle(rho)

    def test_report_weak_values_included(self, bell):
        report = detect(bell)
        assert set(report.weak_values) == {1, 4, 13, 16}
        doc = report.to_json_dict()
        assert doc["verdict"] == "Entangled"
        assert doc["path"] == "CaseII"
        assert doc["weak_values"]["16"] == [1.0, 0.0]


def reference_decision(m):
    """(path, entangled, det(rho^TB), roundoff scale of det) from the element
    polynomial on the matrix's own elements; the path labels the diagonals."""
    p, q, r, s = np.diag(m).real
    if p <= TAU_DIAG or s <= TAU_DIAG:
        path = DecisionPath.CASE_I
    elif q <= TAU_DIAG or r <= TAU_DIAG:
        path = DecisionPath.CASE_II
    else:
        path = DecisionPath.GENERAL
    terms = element_terms(m)
    det = sum(terms).real
    return path, det < -TAU_DET, det, sum(abs(t) for t in terms)


def mixed_stack(seed):
    """Ginibre, near-threshold Werner, Bell, basis, zero-diagonal,
    rank-deficient, diagonal and small-diagonal states in one (N, 4, 4)
    stack."""
    rng = np.random.default_rng(seed)
    h = 1 / np.sqrt(2)

    def haar():
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        return v / np.linalg.norm(v)

    mats = [random_mixed(rng).matrix for _ in range(4)]
    mats += [werner(1 / 3 + d).matrix for d in (1e-6, -1e-6, 1e-3, -1e-3)]
    for bell_vector in ((h, 0, 0, h), (h, 0, 0, -h), (0, h, h, 0), (0, h, -h, 0)):
        mats.append(np.outer(bell_vector, bell_vector).astype(complex))
    mats += [basis_state(i).matrix for i in range(4)]
    for a, b in ((1, 2), (0, 3)):  # labelled CaseI (p = s = 0), CaseII (q = r = 0)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        block = g @ g.conj().T
        m = np.zeros((4, 4), dtype=complex)
        m[np.ix_((a, b), (a, b))] = block / np.trace(block).real
        mats.append(m)
    for i in range(4):  # one vanishing diagonal: CaseI for p or s, CaseII for q or r
        v = haar()
        v[i] = 0
        mats.append(np.outer(v, v.conj()) / np.vdot(v, v).real)
    first, second = haar(), haar()
    mats.append(0.3 * np.outer(first, first.conj()) + 0.7 * np.outer(second, second.conj()))
    for t in (1e-2, 1e-4, 1e-6):
        mats.append((1 - t) * np.outer(first, first.conj()) + t * random_mixed(rng).matrix)
    mats += [np.diag(rng.dirichlet(np.ones(4))).astype(complex) for _ in range(2)]
    mats.append(np.diag([0.5, 0.0, 0.25, 0.25]).astype(complex))
    # smallest diagonal s = 1e-8: General, with w from its conjugate partner
    # (outcome 16 is silent); s = 1e-12: below TAU_DIAG, so labelled CaseI,
    # with w and x read off the matrix (outcomes 13-16 are silent)
    for s in (1e-8, 1e-12):
        v = haar()
        v[3] = 0
        mats.append((1 - 4 * s) * np.outer(v, v.conj()) / np.vdot(v, v).real + s * np.eye(4))
    # s exactly TAU_DIAG: labelled CaseI as well
    psi = np.array([0.6, 0.48, 0.64, 0.0])
    mats.append((1 - 4 * TAU_DIAG) * np.outer(psi, psi) + TAU_DIAG * np.eye(4))
    return validate_batch(np.array(mats))


def product_stack(rng, n):
    """(n, 4, 4) product pure states a x b, with |a_1| and |b_1| log-uniform
    in [1e-7, 1e-2] and random phases on every amplitude."""
    def factor():
        small = 10.0 ** rng.uniform(-7.0, -2.0, n)
        phases = np.exp(2j * np.pi * rng.random((n, 2)))
        return np.stack([np.sqrt(1 - small**2), small], axis=1) * phases

    v = (factor()[:, :, None] * factor()[:, None, :]).reshape(n, 4)
    return validate_batch(v[:, :, None] * v.conj()[:, None, :])


class TestProductStates:
    # small second amplitudes make s = |a_1 b_1|^2 tiny (1e-28 to 1e-8)
    # while q and r stay far above it
    @given(seeds)
    def test_small_amplitude_products_are_separable(self, seed):
        stack = product_stack(np.random.default_rng(seed), 80)
        assert not ppt_entangled(stack).any()
        assert not detect_batch(stack).entangled.any()

    def test_named_product_is_separable(self):
        # a = b proportional to (1, 1e-3): s = 1e-12, q = r = 1e-6
        a = np.array([1.0, 1e-3]) / np.hypot(1.0, 1e-3)
        v = np.kron(a, a)
        rho = validate(np.outer(v, v))
        report = detect(rho)
        assert report.path is DecisionPath.CASE_I
        assert report.verdict is Verdict.SEPARABLE is ppt_oracle(rho)


class TestDetectBatch:
    @given(seeds)
    def test_matches_element_reference(self, seed):
        stack = mixed_stack(seed)
        batch = detect_batch(stack)
        for i, m in enumerate(stack):
            path, entangled, det, scale = reference_decision(m)
            report = batch.report(i)
            assert report.path is path
            assert (report.verdict is Verdict.ENTANGLED) == entangled
            d = np.diag(m).real
            assert set(report.weak_values) == {
                k for k in range(1, 17) if d[(k - 1) // 4] * d[(k - 1) % 4] > TAU_DEN
            }
            # relative to |det|, or to the roundoff scale pqrs * sum |terms|
            # of the 24-term sum where that is larger (near-singular mixes)
            assert abs(report.det_value - det) <= 1e-12 * max(abs(det), scale)
        diagonal = [i for i, m in enumerate(stack) if not np.any(m - np.diag(np.diag(m)))]
        rebuilt = reconstruct_batch(batch.weak_values[diagonal], batch.defined[diagonal],
                                    batch.diagonal[diagonal])
        assert len(rebuilt) == 7  # basis and diagonal states
        assert np.all(rebuilt - rebuilt * np.eye(4) == 0)

    def test_verdicts_do_not_depend_on_batch_size(self):
        # each state's det_value is the same sum in the same order whether
        # it is decided alone or in a stack, so its bits and verdict agree
        stack = random_mixed_batch(np.random.default_rng(3), 2000)
        whole = detect_batch(stack)
        alone = [detect_batch(m[None]) for m in stack]
        np.testing.assert_array_equal([a.entangled[0] for a in alone], whole.entangled)
        det_alone = np.array([a.det_value[0] for a in alone])
        np.testing.assert_array_equal(bits(det_alone), bits(whole.det_value))

    def test_oracle_disagreements_lie_in_the_gate_band(self):
        # every verdict that differs from the partial-transpose oracle has
        # |det| <= TAU_DET, the band of an absolute determinant gate. Seeds
        # 0-499 hold two such rows: seed 185's s = 1e-8 mix and seed 160's
        # pure state with s = 0 and q = 3e-5 (det -4.3e-10, smallest
        # partial-transpose eigenvalue -4.5e-3).
        stack = np.concatenate([mixed_stack(seed) for seed in range(500)])
        batch = detect_batch(stack)
        off = batch.entangled != ppt_entangled(stack)
        assert np.all(np.abs(batch.det_value[off]) <= TAU_DET)


class TestReconstruct:
    @given(seeds)
    def test_round_trip(self, seed):
        rho = random_mixed(seed)
        assert trace_distance(rho, round_trip(rho)) <= 1e-8

    def test_maximally_mixed_exact(self, maximally_mixed):
        rebuilt = round_trip(maximally_mixed)
        np.testing.assert_array_equal(rebuilt.matrix, maximally_mixed.matrix)

    def test_bell_from_defined_ratios(self, bell):
        # only outcomes 1, 4, 13, 16 carry signal; w comes from 16, the rest
        # fall back to zero
        rebuilt = round_trip(bell)
        assert trace_distance(bell, rebuilt) <= 1e-12
        assert rebuilt.matrix[0, 3] == pytest.approx(0.5)
        assert rebuilt.matrix[1, 2] == 0

    def test_fallback_to_conjugate_partner(self):
        rho = random_mixed(17)
        _, _, values, defined, diagonal = weak_values_batch(rho.matrix[None])
        # strip the primary outcomes so every element uses its fallback
        defined &= np.isin(np.arange(1, 17), (1, 3, 9, 10, 13, 14))
        values = np.where(defined, values, 0.0)
        rebuilt = reconstruct_batch(values, defined, diagonal)
        assert trace_distance_batch(rho.matrix[None], rebuilt)[0] <= 1e-8

    def test_rejects_bad_diagonal_sum(self):
        _, _, values, defined, _ = weak_values_batch(werner(0.5).matrix[None])
        with pytest.raises(ValueError):
            reconstruct_batch(values, defined, np.array([[0.5, 0.5, 0.5, 0.5]]))

    def test_rejects_negative_diagonal(self):
        _, _, values, defined, _ = weak_values_batch(werner(0.5).matrix[None])
        with pytest.raises(ValueError):
            reconstruct_batch(values, defined, np.array([[1.2, -0.2, 0.0, 0.0]]))

    def test_unmeasured_element_raises_no_signal(self):
        # r = 0: outcomes 10 and 12 (y = rho[1, 3], between q and s) are
        # silent; v = rho[0, 2] is silent too but must be 0, since r = 0
        psi = np.array([0.6, 0.48, 0.0, 0.64])
        rho = validate(np.outer(psi, psi))
        message = r"for element \(1, 3\) \(outcomes 12 and 10\), rebuilt as 0$"
        with pytest.raises(NoSignalError, match=message):
            round_trip(rho)

    def test_refusal_solves_only_rows_that_lost_an_element(self, monkeypatch):
        # validate_batch solves only the row that fails its screen to refuse
        # the stack; naming the culprit then solves only the pure state's
        # row, the one row whose element y went unmeasured
        psi = np.array([0.6, 0.48, 0.0, 0.64])
        ginibre = random_mixed_batch(np.random.default_rng(0), 256)
        _, _, values, defined, diagonal = weak_values_batch(
            np.concatenate([ginibre, np.outer(psi, psi)[None]]))
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        with pytest.raises(NoSignalError, match=r"element \(1, 3\) \(outcomes 12 and 10\)"):
            reconstruct_batch(values, defined, diagonal)
        assert shapes == [(1, 4, 4), (1, 4, 4)]

    def test_unmeasured_element_kept_at_zero_when_still_valid(self):
        # p = s = 0 silences both outcomes of x = rho[1, 2]; x = 0 stays a
        # valid state, so reconstruction returns it rather than raising
        psi = np.array([0.0, 0.6, 0.8, 0.0])
        rho = validate(np.outer(psi, psi))
        rebuilt = round_trip(rho)
        np.testing.assert_allclose(rebuilt.matrix, np.diag(np.diag(rho.matrix)), atol=1e-15)

    def test_rejects_inconsistent_data(self, bell):
        # Bell weak values give w/s = 1, so w = s after recovery; forcing
        # s > p makes the (|00>, |11>) block indefinite
        _, _, values, defined, _ = weak_values_batch(bell.matrix[None])
        with pytest.raises(PositivityError):
            reconstruct_batch(values, defined, np.array([[0.02, 0.0, 0.0, 0.98]]))


class TestDetectPureLocal:
    def test_bell_entangled(self):
        psi = PureAmplitudes(1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2))
        report = detect_pure_local(psi)
        assert report.verdict is Verdict.ENTANGLED
        assert report.path is DecisionPath.PURE_LOCAL
        # |ad - bc| = 1/2
        assert report.det_value == pytest.approx(-(0.5**4), abs=1e-12)

    def test_product_state_separable(self):
        psi = PureAmplitudes(1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0)
        assert detect_pure_local(psi).verdict is Verdict.SEPARABLE

    def test_full_support_entangled(self):
        # u/q = 1 while z/s = -1: unequal weak values flag entanglement
        psi = PureAmplitudes(0.5, 0.5, 0.5, -0.5)
        report = detect_pure_local(psi)
        assert report.verdict is Verdict.ENTANGLED
        assert report.weak_values[2] == pytest.approx(1.0)
        assert report.weak_values[4] == pytest.approx(-1.0)

    def test_full_support_separable(self):
        v = np.kron([0.6, 0.8], [0.8, 0.6j]).astype(complex)
        psi = PureAmplitudes(*v)
        assert detect_pure_local(psi).verdict is Verdict.SEPARABLE

    @given(seeds)
    def test_agreement_with_discriminant_oracle(self, seed):
        psi = random_pure(seed)
        oracle = abs(psi.a * psi.d - psi.b * psi.c) > 1e-9
        got = detect_pure_local(psi).verdict is Verdict.ENTANGLED
        assert got == oracle

    @given(seeds)
    def test_matches_ppt_on_pure_states(self, seed):
        psi = random_pure(seed)
        assert detect_pure_local(psi).verdict is ppt_oracle(psi.to_state())

    @given(seeds)
    def test_gather_matches_local_hamiltonian(self, seed):
        psi = random_pure(seed)
        report = detect_pure_local(psi)
        local = build_local_hamiltonian()
        for k in (2, 4):
            want = exact_weak_value(psi.to_state(), local, k)
            assert abs(report.weak_values[k] - want) <= 1e-12 * (1 + abs(want))

    def test_silent_probe_outcome_decides_by_amplitudes(self):
        # p q = 1e-12 leaves outcome 2 without signal although every
        # |amplitude|^2 is above TAU_DIAG; |ad - bc| = 2e-4
        d = np.sqrt(1 - 2e-6 - 0.36)
        report = detect_pure_local(PureAmplitudes(1e-3, 1e-3, 0.6, d))
        assert report.verdict is Verdict.ENTANGLED
        assert report.weak_values == {}


def test_element_ratio_no_signal(bell):
    # outcome 14 measures conj(rho[1, 2]) / q, and q = 0 for |Phi+>
    with pytest.raises(NoSignalError):
        exact_weak_value(bell, HAMILTONIAN, 14)
    assert not record(bell)[3][13]


def test_case_thresholds_respected():
    # diagonal entries just above TAU_DIAG still route to the general path
    m = np.diag([0.5 - 1e-6, 1e-6, 1e-6, 0.5 - 1e-6]).astype(complex)
    report = detect(validate(m))
    assert report.path is DecisionPath.GENERAL
    assert report.verdict is Verdict.SEPARABLE
