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


def exact_weak_value(rho, hamiltonian, k):
    """<u_k| H (rho x rho) |u_k> / <u_k| rho x rho |u_k> for outcome k, from
    the formed 16x16 two-copy matrix: the reference the gathers of
    ``protocol.weak_values_batch`` are checked against.

    Works for any 16x16 generator; raises NoSignalError when the
    post-selection probability is at or below TAU_DEN.
    """
    from weakdetect.protocol import TAU_DEN, NoSignalError

    if not isinstance(k, (int, np.integer)) or not 1 <= k <= 16:
        raise ValueError(f"outcome index must be in 1..16, got {k!r}")
    joint = np.kron(rho.matrix, rho.matrix)
    den = float(joint[k - 1, k - 1].real)
    if den <= TAU_DEN:
        raise NoSignalError(f"outcome {k} has post-selection probability {den:.3e}")
    num = complex(hamiltonian[k - 1, :] @ joint[:, k - 1])
    return num / den


def build_local_hamiltonian():
    """Single-qubit flip on the last qubit, the interaction of
    ``detect_pure_local``: acts locally on all four qubits (read-only)."""
    h = np.kron(np.eye(8, dtype=complex), SIGMA_X)
    h.setflags(write=False)
    return h


def partial_transpose_b(rho):
    """Transpose the second qubit's indices: (ik),(jl) -> (il),(jk)."""
    return rho.matrix.reshape(2, 2, 2, 2).swapaxes(1, 3).reshape(4, 4)


def det_ptb(rho):
    """det(rho^TB) via pivoted LU; real part (imaginary residue is roundoff)."""
    return float(np.linalg.det(partial_transpose_b(rho)).real)


def negativity(rho):
    """(||rho^TB||_1 - 1)/2 = |sum of negative partial-transpose eigenvalues|."""
    return float(np.abs(np.linalg.eigvalsh(partial_transpose_b(rho))).sum() - 1.0) / 2.0


def entanglement_estimate(rho):
    """max{0, -det(rho^TB)}: zero for separable states, positive otherwise."""
    return max(0.0, -det_ptb(rho))


def record(rho):
    """``weak_values_batch`` on one state: its weak values, probabilities and
    defined mask, outcome k at index k - 1, and its diagonals (p, q, r, s)."""
    from weakdetect.protocol import weak_values_batch

    return tuple(a[0] for a in weak_values_batch(rho.matrix[None]))


def round_trip(rho):
    """The ``tomo`` pipeline on one state: its post-selection record,
    rebuilt by ``reconstruct_batch``, as a TwoQubitState."""
    from weakdetect.protocol import reconstruct_batch, weak_values_batch
    from weakdetect.states import TwoQubitState

    values, _, defined, diagonal = weak_values_batch(rho.matrix[None])
    return TwoQubitState(reconstruct_batch(values, defined, diagonal)[0])


@pytest.fixture
def bell():
    from weakdetect.states import bell_phi_plus

    return bell_phi_plus()


@pytest.fixture
def maximally_mixed():
    from weakdetect.states import validate

    return validate(np.eye(4, dtype=complex) / 4)
