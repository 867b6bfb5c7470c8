import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weakdetect.protocol import RECONSTRUCT_POSITIVITY_TOL, det_ptb_expansion
from weakdetect.states import (
    PPT_MARGIN,
    TAU_DET,
    VALIDATION_ATOL,
    HermiticityError,
    NormalizationError,
    PositivityError,
    PureAmplitudes,
    SchemaError,
    StateValidationError,
    TraceError,
    TwoQubitState,
    Verdict,
    amplitudes_from_json_dict,
    bell_phi_plus,
    ppt_entangled,
    ppt_oracle,
    random_mixed,
    random_mixed_batch,
    random_pure,
    state_from_json_dict,
    state_to_json_dict,
    trace_distance,
    validate,
    validate_batch,
    werner,
)

from conftest import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    amplitudes_to_json_dict,
    det_ptb,
    entanglement_estimate,
    exact_ppt_entangled,
    negativity,
    partial_transpose_b,
)

seeds = st.integers(0, 10**6)


def werner_det_closed_form(p_mix):
    """Partial-transpose eigenvalues are (1+p)/4 three times and (1-3p)/4."""
    return (1 + p_mix) ** 3 * (1 - 3 * p_mix) / 256


def random_product_state(rng):
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    rho_a = np.outer(a, a.conj())
    rho_b = np.outer(b, b.conj())
    return validate(np.kron(rho_a, rho_b))


class TestValidate:
    def test_maximally_mixed(self, maximally_mixed):
        assert maximally_mixed.diagonal() == (0.25, 0.25, 0.25, 0.25)
        assert maximally_mixed.matrix[0, 1] == 0

    def test_bell(self, bell):
        m = bell.matrix
        assert m[0, 0] == pytest.approx(0.5)
        assert m[3, 3] == pytest.approx(0.5)
        assert m[0, 3] == pytest.approx(0.5)
        assert m[1, 1] == m[2, 2] == 0

    def test_negative_eigenvalue_rejected(self):
        # 2x2 block [[1/2, 0.6], [0.6, 1/2]] has eigenvalues 1/2 +/- 0.6.
        # As one row of a stack of valid states it is named the same way.
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        m[0, 1] = m[1, 0] = 0.6
        message = "smallest eigenvalue -1.000e-01 below -1e-10"
        with pytest.raises(PositivityError) as alone:
            validate(m)
        assert str(alone.value) == message
        valid = np.stack([random_mixed(seed).matrix for seed in range(256)])
        for row in (0, 137, 255):
            stack = valid.copy()
            stack[row] = m
            with pytest.raises(PositivityError) as stacked:
                validate_batch(stack)
            assert str(stacked.value) == message

    def test_refusal_solves_only_rows_that_fail_the_screen(self, monkeypatch):
        # Two bad rows in 256: the eigen-solve sees those two, and the
        # message names the first, as a solve of the whole stack would.
        bad = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        bad[0, 1] = bad[1, 0] = 0.6
        worse = bad.copy()
        worse[0, 1] = worse[1, 0] = 0.7
        stack = np.stack([random_mixed(seed).matrix for seed in range(256)])
        stack[40], stack[200] = bad, worse
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        with pytest.raises(PositivityError, match=r"^smallest eigenvalue -1\.000e-01 below"):
            validate_batch(stack)
        assert shapes == [(2, 4, 4)]

    @pytest.mark.parametrize("entries, message", [
        # finiteness is worded first, wherever the non-finite entry sits
        ({(0, 0, 1): 5.0, (2, 1, 3): np.nan}, "matrix entries must be finite (no NaN/Inf)"),
        ({(0, 0, 1): np.nan, (2, 1, 3): 5.0}, "matrix entries must be finite (no NaN/Inf)"),
        ({(1, 3, 3): complex(-np.inf, np.nan)}, "matrix entries must be finite (no NaN/Inf)"),
        ({(1, 2, 0): 3.0}, "entry of magnitude 3.000e+00 exceeds 1, the bound for a "
                           "density matrix"),
    ])
    def test_entry_refusal_order(self, entries, message):
        stack = np.stack([np.eye(4, dtype=complex) / 4] * 3)
        for index, value in entries.items():
            stack[index] = value
        with pytest.raises(StateValidationError) as refused:
            validate_batch(stack)
        assert type(refused.value) is StateValidationError
        assert str(refused.value) == message

    def test_non_hermitian_stack_names_largest_deviation(self):
        stack = np.stack([np.eye(4, dtype=complex) / 4] * 3)
        stack[0, 0, 1] = 0.1
        stack[1, 2, 3] = 0.3j
        stack[2, 1, 0] = 0.2
        with pytest.raises(HermiticityError, match=r"^matrix deviates from Hermitian by "
                                                   r"3\.000e-01$"):
            validate_batch(stack)

    def test_non_hermitian_rejected(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(HermiticityError):
            validate(m)

    def test_bad_trace_rejected(self):
        with pytest.raises(TraceError):
            validate(np.eye(4, dtype=complex) / 2)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            validate(np.eye(3, dtype=complex) / 3)

    def test_symmetrizes_roundoff(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 1e-13
        rho = validate(m)
        assert rho.matrix[1, 0] == np.conj(rho.matrix[0, 1])

    def test_matrix_readonly(self, bell):
        with pytest.raises(ValueError):
            bell.matrix[0, 0] = 1.0


def with_spectrum(rng, spectrum):
    """U diag(spectrum) U^dag with U Haar-random (QR of a complex Gaussian)."""
    q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    u = q * (r.diagonal() / np.abs(r.diagonal()))
    return (u * np.asarray(spectrum)) @ u.conj().T


def eigvalsh_refusal(m, tol):
    """The message of an eigenvalue-only positivity test, or None: the
    reference for the Cholesky screen in ``validate_batch``."""
    smallest = np.linalg.eigvalsh(((m + m.conj().T) / 2)[None])[0, 0]
    if smallest < -tol:
        return f"smallest eigenvalue {smallest:.3e} below -{tol:.0e}"
    return None


class TestPositivityEdge:
    """States whose smallest eigenvalue sits at -tol * (1 + r)."""

    @pytest.mark.parametrize("tol", [VALIDATION_ATOL, RECONSTRUCT_POSITIVITY_TOL])
    @pytest.mark.parametrize("r", [0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3])
    def test_matches_eigenvalue_reference(self, tol, r):
        rng = np.random.default_rng(11)
        refused = 0
        for _ in range(40):
            smallest = -tol * (1 + r)
            rest = rng.dirichlet(np.ones(3)) * (1 - smallest)
            m = with_spectrum(rng, [smallest, *rest])
            expected = eigvalsh_refusal(m, tol)
            if expected is None:
                validate_batch(m[None], positivity_tol=tol)
                continue
            refused += 1
            with pytest.raises(PositivityError) as err:
                validate_batch(m[None], positivity_tol=tol)
            assert str(err.value) == expected
        # Roundoff (~1e-16) decides rows nearer the edge; these are clear.
        if tol * abs(r) > 1e-13:
            assert refused == (40 if r > 0 else 0)

    @pytest.mark.parametrize("spectrum", [[1, 0, 0, 0], [0.5, 0.5, 0, 0],
                                          [0.25, 0.25, 0.25, 0.25]])
    def test_rank_deficient_and_mixed_pass_the_screen(self, spectrum, monkeypatch):
        rng = np.random.default_rng(7)
        stack = np.stack([with_spectrum(rng, spectrum) for _ in range(64)])
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *_: pytest.fail("screen fell back"))
        for tol in (VALIDATION_ATOL, RECONSTRUCT_POSITIVITY_TOL):
            assert np.array_equal(validate_batch(stack, positivity_tol=tol),
                                  (stack + stack.conj().swapaxes(1, 2)) / 2)


class TestPartialTranspose:
    def test_diagonal_unchanged(self, maximally_mixed):
        np.testing.assert_allclose(
            partial_transpose_b(maximally_mixed), maximally_mixed.matrix
        )

    def test_bell_entries(self, bell):
        pt = partial_transpose_b(bell)
        assert pt[0, 0] == pytest.approx(0.5)
        assert pt[3, 3] == pytest.approx(0.5)
        assert pt[1, 2] == pytest.approx(0.5)
        assert pt[2, 1] == pytest.approx(0.5)
        assert pt[0, 3] == 0 and pt[3, 0] == 0

    @given(seeds)
    def test_involution(self, seed):
        rho = random_mixed(seed)
        pt = partial_transpose_b(rho)
        twice = pt.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        np.testing.assert_allclose(twice, rho.matrix, atol=1e-15)

    @given(seeds)
    def test_preserves_trace_and_hermiticity(self, seed):
        pt = partial_transpose_b(random_mixed(seed))
        assert np.trace(pt).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(pt - pt.conj().T)) <= 1e-14


class TestDetPtb:
    def test_maximally_mixed(self, maximally_mixed):
        assert det_ptb(maximally_mixed) == pytest.approx(1 / 256, abs=1e-14)

    def test_bell(self, bell):
        assert det_ptb(bell) == pytest.approx(-1 / 16, abs=1e-12)

    def test_werner_closed_form(self):
        assert werner_det_closed_form(0.5) == pytest.approx(-27 / 4096)
        assert det_ptb(werner(0.5)) == pytest.approx(-27 / 4096, abs=1e-14)

    @given(st.floats(0.0, 1.0))
    def test_werner_family(self, p_mix):
        assert det_ptb(werner(p_mix)) == pytest.approx(
            werner_det_closed_form(p_mix), abs=1e-13
        )


class TestDetPtbExpansion:
    def test_maximally_mixed(self, maximally_mixed):
        assert det_ptb_expansion(maximally_mixed) == pytest.approx(1 / 256, abs=1e-14)

    def test_werner(self):
        assert det_ptb_expansion(werner(0.5)) == pytest.approx(-27 / 4096, abs=1e-14)

    @given(seeds)
    def test_matches_lu_determinant(self, seed):
        rho = random_mixed(seed)
        lu = det_ptb(rho)
        assert abs(det_ptb_expansion(rho) - lu) <= 1e-10 * abs(lu)

    def test_degenerate_states_match_lu(self, bell):
        # zero diagonals: the polynomial divides by none of them
        psi_plus = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
        s_zero = np.array([0.6, 0.48, 0.64, 0.0])
        assert det_ptb_expansion(bell) == pytest.approx(-1 / 16, abs=1e-14)
        for rho in [bell] + [validate(np.outer(v, v.conj())) for v in (psi_plus, s_zero)]:
            lu = det_ptb(rho)
            assert abs(det_ptb_expansion(rho) - lu) <= 1e-10 * abs(lu)
        # det(rho^TB) = 0: an absolute bound
        product = np.kron([0.6, 0.8j], [0.8, 0.6])
        for m in (np.outer(product, product.conj()), np.diag([0.5, 0.0, 0.25, 0.25])):
            rho = validate(m)
            assert abs(det_ptb_expansion(rho) - det_ptb(rho)) <= 1e-14


class TestPptOracle:
    def test_bell_entangled(self, bell):
        assert ppt_oracle(bell) is Verdict.ENTANGLED

    @given(seeds)
    def test_product_states_separable(self, seed):
        rho = random_product_state(np.random.default_rng(seed))
        assert ppt_oracle(rho) is Verdict.SEPARABLE

    def test_werner_below_threshold(self):
        # min partial-transpose eigenvalue is (1 - 3 * 0.2)/4 = 0.1 > 0
        assert ppt_oracle(werner(0.2)) is Verdict.SEPARABLE

    @given(seeds)
    def test_determinant_sign_matches_oracle(self, seed):
        rho = random_mixed(seed)
        det = det_ptb(rho)
        if abs(det) > 1e-9:
            assert (det < 0) == (ppt_oracle(rho) is Verdict.ENTANGLED)


def haar_local(rng, n):
    """(n, 4, 4) local unitaries U_A (x) U_B, each factor Haar-random."""
    g = rng.standard_normal((n, 2, 2, 2)) + 1j * rng.standard_normal((n, 2, 2, 2))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (phases / np.abs(phases))[..., None, :]
    return np.einsum("nab,ncd->nacbd", u[:, 0], u[:, 1]).reshape(n, 4, 4)


def rotated(rng, stack):
    """Each state of the stack under its own random local unitary: the
    partial-transpose spectrum, and so the verdict, is unchanged."""
    u = haar_local(rng, len(stack))
    return validate_batch(u @ stack @ u.conj().swapaxes(1, 2))


def pure_stack(vectors):
    v = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    return validate_batch(v[:, :, None] * v.conj()[:, None, :])


def partial_transposes(stack):
    return stack.reshape(-1, 2, 2, 2, 2).swapaxes(2, 4).reshape(-1, 4, 4)


def smallest_pt_eigenvalue(stack):
    return np.linalg.eigvalsh(partial_transposes(stack))[:, 0]


def ginibre_family(rng):
    return random_mixed_batch(rng, 256)


def werner_stack(p):
    """Werner states p |Phi+><Phi+| + (1 - p) I/4, one per mixing p."""
    m = np.zeros((len(p), 4, 4), dtype=complex)
    m[:, 0, 0] = m[:, 3, 3] = (1 + p) / 4
    m[:, 1, 1] = m[:, 2, 2] = (1 - p) / 4
    m[:, 0, 3] = m[:, 3, 0] = p / 2
    return m


def werner_edge_family(rng):
    # p = 1/3 +/- 10^-k, k = 1..15, each under 8 local rotations
    p = 1 / 3 + np.outer([1, -1], 10.0 ** -np.arange(1, 16)).ravel()
    return rotated(rng, np.repeat(werner_stack(p), 8, axis=0))


def weak_pure_family(rng):
    # (|00> + |01> + |10>)/2 + (1/2 + eta)|11>: entangled by eta alone
    eta = 10.0 ** rng.uniform(-6, -1, 200)
    v = np.column_stack([np.full(200, 0.5), np.full(200, 0.5), np.full(200, 0.5), 0.5 + eta])
    return rotated(rng, pure_stack(v.astype(complex)))


def rank_deficient_family(rng):
    # rank 1, 2 or 3 mixes of Haar-random pure states
    spectra = [[*rng.dirichlet(np.ones(k)), *[0.0] * (4 - k)] for k in np.arange(200) % 3 + 1]
    return validate_batch(np.stack([with_spectrum(rng, s) for s in spectra]))


def zero_diagonal_family(rng):
    # One or two amplitudes zero: rho has zero diagonals, and rho^TB
    # exact-zero entries, as in the detector's CaseI and CaseII
    v = rng.standard_normal((200, 4)) + 1j * rng.standard_normal((200, 4))
    rows = np.arange(200)
    v[rows, rows % 4] = 0
    v[rows[::2], (rows[::2] + 1) % 4] = 0
    return pure_stack(v)


def product_family(rng):
    # pure (x) pure, then full-rank mixed (x) mixed, the factors being the
    # reduced states of Ginibre states
    pure = np.stack([random_product_state(rng).matrix for _ in range(100)])
    a = random_mixed_batch(rng, 100).reshape(100, 2, 2, 2, 2).trace(axis1=2, axis2=4)
    b = random_mixed_batch(rng, 100).reshape(100, 2, 2, 2, 2).trace(axis1=1, axis2=3)
    mixed = np.einsum("nab,ncd->nacbd", a, b).reshape(100, 4, 4)
    return validate_batch(np.concatenate([pure, mixed]))


FAMILIES = {f.__name__: f for f in (ginibre_family, werner_edge_family, weak_pure_family,
                                    rank_deficient_family, zero_diagonal_family,
                                    product_family)}


def at_edge(rng, tau, r):
    """States with lambda_min(rho^TB) = -tau * (1 + r): an entangled
    Ginibre state mixed with 1/4 just enough to lift its smallest
    partial-transpose eigenvalue there."""
    stack = random_mixed_batch(rng, 256)
    low = smallest_pt_eigenvalue(stack)
    stack, low = stack[low < -0.01], low[low < -0.01]
    target = -tau * (1 + r)
    t = (target - low) / (0.25 - low)
    return validate_batch((1 - t)[:, None, None] * stack + t[:, None, None] * np.eye(4) / 4)


TAUS = [TAU_DET, 0.0, 1e-3]


class TestPptScreen:
    """``ppt_entangled`` against its definition, ``eigvalsh(rho^TB)[:, 0] <
    -tau``, solved for every row."""

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_eigenvalue_reference(self, family, tau):
        stack = FAMILIES[family](np.random.default_rng(5))
        expected = smallest_pt_eigenvalue(stack) < -tau
        assert np.array_equal(ppt_entangled(stack, tau=tau), expected)

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("r", [0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6])
    def test_matches_eigenvalue_reference_at_edge(self, tau, r):
        stack = at_edge(np.random.default_rng(6), tau, r)
        smallest = smallest_pt_eigenvalue(stack)
        # the built edge holds to roundoff
        np.testing.assert_allclose(smallest, -tau * (1 + r), rtol=0, atol=1e-15)
        verdict = ppt_entangled(stack, tau=tau)
        assert np.array_equal(verdict, smallest < -tau)
        if tau * abs(r) > 10 * PPT_MARGIN:  # outside the band: decided by the sign of r
            assert (verdict == (r > 0)).all()

    def test_ginibre_stack_needs_no_eigen_solve(self, monkeypatch):
        stack = random_mixed_batch(np.random.default_rng(8), 256)
        expected = smallest_pt_eigenvalue(stack) < -TAU_DET
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *_: pytest.fail("oracle solved"))
        assert np.array_equal(ppt_entangled(stack), expected)

    def test_band_rows_alone_are_solved(self, monkeypatch):
        # At tau = 0 a pure product state has lambda_min(rho^TB) = 0, inside
        # the band; a full-rank mixed product is far from it.
        stack = product_family(np.random.default_rng(9))
        band = np.abs(smallest_pt_eigenvalue(stack)) <= PPT_MARGIN
        assert band.sum() == 100
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            solved.append(np.array(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        ppt_entangled(stack, tau=0.0)
        assert len(solved) == 1
        assert np.array_equal(solved[0], partial_transposes(stack)[band])

    @pytest.mark.parametrize("tau", [1.0, 1e300, 4.5e307, 1.7e308, np.finfo(float).max])
    def test_matches_eigenvalue_reference_at_large_tau(self, tau):
        # the margin PPT_MARGIN * (1 + 4 tau) overflows above about 4.5e307
        stack = np.concatenate([FAMILIES[name](np.random.default_rng(7))
                                for name in ("ginibre_family", "product_family")])
        expected = smallest_pt_eigenvalue(stack) < -tau
        assert np.array_equal(ppt_entangled(stack, tau=tau), expected)


def exact_product_states():
    """The 36 products of the six Pauli eigenstates (1 + n.sigma) / 2, every
    entry exact."""
    pures = [(np.eye(2) + sign * pauli) / 2 for pauli in (SIGMA_X, SIGMA_Y, SIGMA_Z)
             for sign in (1, -1)]
    return np.stack([np.kron(a, b) for a in pures for b in pures])


def exact_reference_stratum(name, rng):
    """200 locally rotated states of one stratum near or on the boundary."""
    if name == "ginibre":
        return rotated(rng, random_mixed_batch(rng, 200))
    if name == "weak_pure":
        eta = 10.0 ** rng.uniform(-6, -1, 200)
        v = np.zeros((200, 4), dtype=complex)
        v[:, 0], v[:, 3] = np.sqrt(1 - eta), np.sqrt(eta)
        return rotated(rng, pure_stack(v))
    if name == "werner_edge":
        p = 1 / 3 + rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(-12, -2, 200)
        return rotated(rng, werner_stack(p))
    return rotated(rng, pure_stack(np.tile(np.eye(4, dtype=complex)[0], (200, 1))))


class TestExactReference:
    """``ppt_entangled`` against the exact rational verdict of
    ``conftest.exact_ppt_entangled``, which has no roundoff band."""

    def test_known_verdicts(self, bell, maximally_mixed):
        assert exact_ppt_entangled(bell.matrix)
        assert exact_ppt_entangled(werner(1 / 3 + 1e-3).matrix)
        assert not exact_ppt_entangled(werner(1 / 3 - 1e-3).matrix)
        assert not exact_ppt_entangled(maximally_mixed.matrix)
        assert not any(exact_ppt_entangled(m) for m in exact_product_states())

    @pytest.mark.parametrize("name", ["ginibre", "weak_pure", "werner_edge", "pure_product"])
    def test_oracle_disagreements_lie_in_the_band(self, name):
        stack = exact_reference_stratum(name, np.random.default_rng(13))
        exact = np.array([exact_ppt_entangled(m) for m in stack])
        off = ppt_entangled(stack, tau=0.0) != exact
        assert (np.abs(smallest_pt_eigenvalue(stack[off])) <= PPT_MARGIN).all()


class TestNegativity:
    def test_bell(self, bell):
        assert negativity(bell) == pytest.approx(0.5, abs=1e-12)

    def test_separable_zero(self):
        rho = random_product_state(np.random.default_rng(12))
        assert negativity(rho) == pytest.approx(0.0, abs=1e-10)

    def test_werner_half(self):
        # single negative eigenvalue (1 - 3/2)/4 = -1/8
        assert negativity(werner(0.5)) == pytest.approx(1 / 8, abs=1e-12)

    @given(seeds)
    def test_zero_iff_separable(self, seed):
        rho = random_mixed(seed)
        if negativity(rho) > 1e-9:
            assert ppt_oracle(rho) is Verdict.ENTANGLED
        else:
            assert ppt_oracle(rho) is Verdict.SEPARABLE


class TestEntanglementEstimate:
    def test_bell(self, bell):
        assert entanglement_estimate(bell) == pytest.approx(1 / 16, abs=1e-12)

    def test_maximally_mixed(self, maximally_mixed):
        assert entanglement_estimate(maximally_mixed) == 0.0

    def test_werner_half(self):
        assert entanglement_estimate(werner(0.5)) == pytest.approx(27 / 4096, abs=1e-13)


def reference_random_mixed_batch(rng, n):
    """Ginibre states in complex arithmetic: g = real + 1j * imag, then a
    complex quotient of g g^H by its real trace."""
    g = rng.standard_normal((n, 2, 4, 4))
    g = g[:, 0] + 1j * g[:, 1]
    a = g @ g.conj().swapaxes(1, 2)
    return validate_batch(a / np.trace(a, axis1=1, axis2=2).real[:, None, None])


class TestRandomStates:
    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257])
    def test_batch_bits_match_complex_reference(self, n):
        for seed in range(20):
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = random_mixed_batch(rng, n)
            want = reference_random_mixed_batch(reference_rng, n)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_mixed_deterministic(self):
        a, b = random_mixed(123), random_mixed(123)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_mixed_all_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            rho = random_mixed(rng)
            assert isinstance(rho, TwoQubitState)

    def test_pure_deterministic(self):
        assert random_pure(7) == random_pure(7)

    def test_pure_haar_symmetry(self):
        rng = np.random.default_rng(1)
        mean = np.mean([abs(random_pure(rng).a) ** 2 for _ in range(1000)])
        assert mean == pytest.approx(0.25, abs=0.02)

    def test_pure_normalized(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            psi = random_pure(rng)
            total = sum(abs(c) ** 2 for c in (psi.a, psi.b, psi.c, psi.d))
            assert total == pytest.approx(1.0, abs=1e-10)


class TestPureAmplitudes:
    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            PureAmplitudes(1.0, 1.0, 0.0, 0.0)

    def test_to_state_round_trip(self):
        psi = random_pure(5)
        rho = psi.to_state()
        np.testing.assert_allclose(
            rho.matrix, np.outer(psi.vector, psi.vector.conj()), atol=1e-12
        )


class TestJsonSchema:
    def test_state_round_trip(self, bell):
        doc = json.loads(json.dumps(state_to_json_dict(bell)))
        assert trace_distance(state_from_json_dict(doc), bell) <= 1e-12

    def test_missing_key(self):
        with pytest.raises(SchemaError):
            state_from_json_dict({"rows": []})

    def test_bad_pair(self):
        doc = state_to_json_dict(bell_phi_plus())
        doc["matrix"][0][0] = [1.0]
        with pytest.raises(SchemaError):
            state_from_json_dict(doc)

    def test_wrong_shape(self):
        with pytest.raises(SchemaError):
            state_from_json_dict({"matrix": [[[1.0, 0.0]] * 4] * 3})

    def test_amplitudes_round_trip(self):
        psi = random_pure(9)
        doc = json.loads(json.dumps(amplitudes_to_json_dict(psi)))
        back = amplitudes_from_json_dict(doc)
        assert back == psi

    def test_amplitudes_schema_error(self):
        with pytest.raises(SchemaError):
            amplitudes_from_json_dict({"amplitudes": [[1.0, 0.0]]})


def test_trace_distance_properties(bell, maximally_mixed):
    assert trace_distance(bell, bell) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(bell, maximally_mixed) > 0

    # hand value: difference has diagonal (1/4, -1/4, -1/4, 1/4) plus the
    # w off-diagonal block; eigenvalues are +-1/4 and 1/4 +- 1/2
    diff_eigs = np.linalg.eigvalsh(bell.matrix - maximally_mixed.matrix)
    assert trace_distance(bell, maximally_mixed) == pytest.approx(
        np.sum(np.abs(diff_eigs)), abs=1e-12
    )
