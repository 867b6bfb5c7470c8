import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weakdetect.protocol import det_ptb_expansion
from weakdetect.states import (
    HermiticityError,
    NormalizationError,
    PositivityError,
    PureAmplitudes,
    SchemaError,
    TraceError,
    TwoQubitState,
    Verdict,
    amplitudes_from_json_dict,
    bell_phi_plus,
    ppt_oracle,
    random_mixed,
    random_pure,
    state_from_json_dict,
    state_to_json_dict,
    trace_distance,
    validate,
    werner,
)

from conftest import det_ptb, entanglement_estimate, negativity, partial_transpose_b

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
        # 2x2 block [[1/2, 0.6], [0.6, 1/2]] has eigenvalues 1/2 +/- 0.6
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        m[0, 1] = m[1, 0] = 0.6
        with pytest.raises(PositivityError):
            validate(m)

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


class TestRandomStates:
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
        from weakdetect.states import amplitudes_to_json_dict

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
