import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repo",
    deadline=None,
    derandomize=True,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def expm_hermitian(a, scale):
    """exp(scale * A) for Hermitian A, from its eigendecomposition: the
    reference the closed forms cos(eps) 1 - i sin(eps) A are checked against."""
    if not np.allclose(a, a.conj().T, rtol=0.0, atol=1e-10):
        raise ValueError("expm_hermitian needs a Hermitian matrix")
    w, v = np.linalg.eigh(a)
    return (v * np.exp(complex(scale) * w)) @ v.conj().T


def trace_norm(a):
    """Sum of singular values: the trace norm by its definition, independent
    of the batched ``eigvalsh`` the program rescales with."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"trace_norm needs a square matrix, got shape {a.shape}")
    return float(np.linalg.svd(a, compute_uv=False).sum())


@pytest.fixture
def bell():
    from weakdetect.states import bell_phi_plus

    return bell_phi_plus()


@pytest.fixture
def maximally_mixed():
    from weakdetect.states import validate

    return validate(np.eye(4, dtype=complex) / 4)
