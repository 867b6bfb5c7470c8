"""Checks of the matrix references the other tests compare the program
against: the ``eigh`` exponential and the singular-value trace norm. They
replaced the ``weakdetect.qmat`` wrappers of the same names."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import SIGMA_X, SIGMA_Z, expm_hermitian, trace_norm

I2 = np.eye(2, dtype=complex)


def random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


class TestTraceNorm:
    def test_sigma_z(self):
        assert trace_norm(SIGMA_Z) == pytest.approx(2.0)

    def test_diagonal(self):
        assert trace_norm(np.diag([0.1, -0.2]).astype(complex)) == pytest.approx(0.3)

    def test_zero_matrix(self):
        h = (lambda a: (a + a.conj().T) / 2)(random_complex(np.random.default_rng(1), 4))
        assert trace_norm(h - h) == pytest.approx(0.0, abs=1e-15)

    def test_non_square(self):
        with pytest.raises(ValueError):
            trace_norm(np.ones((2, 3)))

    def test_general_matrix_matches_singular_values(self):
        a = random_complex(np.random.default_rng(7), 4)
        assert trace_norm(a) == pytest.approx(np.sum(np.linalg.svd(a)[1]), rel=1e-12)

    @given(st.integers(0, 10**6))
    def test_bounds_trace(self, seed):
        a = random_complex(np.random.default_rng(seed), 4)
        herm = (a + a.conj().T) / 2
        assert trace_norm(herm) >= abs(np.trace(herm)) - 1e-12


class TestExpmHermitian:
    def test_sigma_x_closed_form(self):
        # sigma_x squares to 1, so exp(-i e X) = cos(e) 1 - i sin(e) X
        eps = 0.1
        expected = np.cos(eps) * I2 - 1j * np.sin(eps) * SIGMA_X
        np.testing.assert_allclose(expm_hermitian(SIGMA_X, -1j * eps), expected, atol=1e-14)

    def test_zero_scale(self):
        rng = np.random.default_rng(5)
        a = random_complex(rng, 4)
        herm = (a + a.conj().T) / 2
        np.testing.assert_allclose(expm_hermitian(herm, 0.0), np.eye(4), atol=1e-12)

    def test_xx_closed_form(self):
        eps = 0.1
        xx = np.kron(SIGMA_X, SIGMA_X)
        expected = np.cos(eps) * np.eye(4) - 1j * np.sin(eps) * xx
        np.testing.assert_allclose(expm_hermitian(xx, -1j * eps), expected, atol=1e-14)

    def test_unitary_for_imaginary_scale(self):
        rng = np.random.default_rng(9)
        a = random_complex(rng, 4)
        herm = (a + a.conj().T) / 2
        u = expm_hermitian(herm, -1j * 0.37)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12

    @given(st.integers(0, 10**6))
    def test_inverse_pairing(self, seed):
        a = random_complex(np.random.default_rng(seed), 4)
        herm = (a + a.conj().T) / 2
        eps = 0.2
        prod = expm_hermitian(herm, -1j * eps) @ expm_hermitian(herm, 1j * eps)
        assert np.max(np.abs(prod - np.eye(4))) <= 1e-12

    def test_rejects_non_hermitian(self):
        # eigh would read one triangle and return a wrong exponential
        with pytest.raises(ValueError):
            expm_hermitian(np.array([[0, 1], [0, 0]], dtype=complex), -1j)
