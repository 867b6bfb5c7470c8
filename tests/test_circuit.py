import numpy as np
import pytest

from weakdetect import circuit
from weakdetect.circuit import (
    DIM,
    HADAMARD,
    N_QUBITS,
    CircuitSpec,
    Gate,
    assemble_unitary,
    build_detection_circuit,
    embed_gate,
    format_circuit,
    unitary_vs_hamiltonian,
    verify_equivalence,
    weak_interaction_unitary,
    x_rotation,
)
from weakdetect.protocol import HAMILTONIAN

from conftest import SIGMA_X, expm_hermitian

EPSILONS = (1e-3, 0.1, 1.0)
# Closed forms are exact for every coupling, not just weak ones.
CLOSED_FORM_EPSILONS = (0.0, 1e-3, 0.1, 1.0, np.pi / 2, 2.0)


def reference_embed_gate(gate):
    """Per-column embedding of a gate into the 16-dimensional unitary: the
    oracle for ``embed_gate``. Column ``col`` is left alone unless every
    control matches; then its target bits are read in target order and the
    gate's column is scattered to the rows with those bits rewritten."""
    def bit(state, qubit):
        return (state >> (N_QUBITS - 1 - qubit)) & 1

    def set_bits(state, local):
        for pos, qubit in enumerate(gate.targets):
            bitval = (local >> (len(gate.targets) - 1 - pos)) & 1
            mask = 1 << (N_QUBITS - 1 - qubit)
            state = (state | mask) if bitval else (state & ~mask)
        return state

    full = np.zeros((DIM, DIM), dtype=complex)
    for col in range(DIM):
        if any(bit(col, q) != v for q, v in gate.controls):
            full[col, col] = 1.0
            continue
        local_in = 0
        for qubit in gate.targets:
            local_in = (local_in << 1) | bit(col, qubit)
        for local_out in range(len(gate.matrix)):
            full[set_bits(col, local_out), col] += gate.matrix[local_out, local_in]
    return full


def random_unitary(seed, d):
    g = np.random.default_rng(seed).standard_normal((2, d, d))
    q, r = np.linalg.qr(g[0] + 1j * g[1])
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestClosedForms:
    @pytest.mark.parametrize("eps", CLOSED_FORM_EPSILONS)
    def test_x_rotation(self, eps):
        assert np.max(np.abs(x_rotation(eps) - expm_hermitian(SIGMA_X, -1j * eps))) <= 1e-12

    @pytest.mark.parametrize("eps", CLOSED_FORM_EPSILONS)
    def test_xx_block(self, eps):
        # the |11> block of U is exp(-i eps X(x)X)
        block = weak_interaction_unitary(eps)[12:, 12:]
        expected = expm_hermitian(np.kron(SIGMA_X, SIGMA_X), -1j * eps)
        assert np.max(np.abs(block - expected)) <= 1e-12

    @pytest.mark.parametrize("eps", CLOSED_FORM_EPSILONS)
    def test_hamiltonian_exponential(self, eps):
        closed = circuit._exp_involution(HAMILTONIAN, eps)
        assert np.max(np.abs(closed - expm_hermitian(HAMILTONIAN, -1j * eps))) <= 1e-12


class TestWeakInteractionUnitary:
    def test_zero_coupling_is_identity(self):
        np.testing.assert_allclose(weak_interaction_unitary(0.0), np.eye(16), atol=1e-15)

    def test_unitary(self):
        u = weak_interaction_unitary(0.37)
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) <= 1e-12

    @pytest.mark.parametrize("eps", CLOSED_FORM_EPSILONS)
    def test_matches_hamiltonian_exponential(self, eps):
        u = weak_interaction_unitary(eps)
        expected = expm_hermitian(HAMILTONIAN, -1j * eps)
        assert np.max(np.abs(u - expected)) <= 1e-12
        assert unitary_vs_hamiltonian(eps) <= 1e-12


class TestHadamard:
    def test_maps_plus_to_zero(self):
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(HADAMARD @ plus, [1, 0], atol=1e-15)

    def test_maps_minus_to_one(self):
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(HADAMARD @ minus, [0, 1], atol=1e-15)

    def test_self_inverse(self):
        np.testing.assert_allclose(HADAMARD @ HADAMARD, np.eye(2), atol=1e-15)


class TestDetectionCircuit:
    def test_gate_list_structure(self):
        spec = build_detection_circuit(0.1)
        assert len(spec.gates) == 6
        controls = [g.controls for g in spec.gates]
        assert controls[0] == ((0, 0),)
        assert controls[1] == ((0, 1), (1, 0))
        assert controls[2] == ()
        assert controls[3] == ((0, 1), (1, 1), (2, 0))
        assert controls[4] == ((0, 1), (1, 1), (2, 1))
        assert controls[5] == ()
        targets = [g.targets for g in spec.gates]
        assert targets == [(3,), (2,), (2,), (3,), (3,), (2,)]

    def test_zero_coupling_assembles_to_identity(self):
        u = assemble_unitary(build_detection_circuit(0.0))
        np.testing.assert_allclose(u, np.eye(16), atol=1e-14)

    @pytest.mark.parametrize("eps", EPSILONS)
    def test_matches_target_unitary(self, eps):
        assert verify_equivalence(eps) <= 1e-12

    def test_exact_for_epsilon_grid(self):
        for eps in np.linspace(0.0, 2.0, 9):
            assert verify_equivalence(float(eps)) <= 1e-12

    def test_rotation_convention(self):
        # the caption convention exp(+i eps X) is the inverse of the branch gates
        eps = 0.2
        inverse = x_rotation(-eps)
        np.testing.assert_allclose(
            inverse @ x_rotation(eps), np.eye(2), atol=1e-14
        )


class TestEmbedGate:
    def test_single_target_lowest_qubit(self):
        eps = 0.3
        rx = x_rotation(eps)
        gate = Gate("RX", (3,), rx)
        np.testing.assert_allclose(embed_gate(gate), np.kron(np.eye(8), rx), atol=1e-14)

    def test_single_target_highest_qubit(self):
        rx = x_rotation(0.3)
        gate = Gate("RX", (0,), rx)
        np.testing.assert_allclose(embed_gate(gate), np.kron(rx, np.eye(8)), atol=1e-14)

    def test_anticontrolled_gate(self):
        rx = x_rotation(0.3)
        gate = Gate("RX", (3,), rx, controls=((0, 0),))
        expected = np.kron(np.diag([1.0, 0.0]), np.kron(np.eye(4), rx)) + np.kron(
            np.diag([0.0, 1.0]), np.eye(8)
        )
        np.testing.assert_allclose(embed_gate(gate), expected, atol=1e-14)

    def test_two_qubit_target(self):
        rxx = expm_hermitian(np.kron(SIGMA_X, SIGMA_X), -0.3j)
        gate = Gate("RXX", (2, 3), rxx)
        np.testing.assert_allclose(embed_gate(gate), np.kron(np.eye(4), rxx), atol=1e-14)

    @pytest.mark.parametrize("targets, controls", [
        ((3, 0), ()),
        ((1, 3), ()),
        ((3, 0), ((1, 1), (2, 0))),
        ((1, 3), ((0, 0), (2, 1))),
        ((2, 0), ((3, 1),)),
        ((1,), ((0, 1), (2, 0), (3, 1))),
        ((0,), ((3, 0),)),
        ((), ((0, 1), (2, 0))),  # a controlled global phase
    ], ids=str)
    def test_matches_per_column_reference(self, targets, controls):
        # asymmetric gates, so a reversed or permuted target order shows
        gate = Gate("U", targets, random_unitary(len(targets) + 7 * len(controls), 2 ** len(targets)),
                    controls=controls)
        assert np.max(np.abs(embed_gate(gate) - reference_embed_gate(gate))) <= 1e-15

    @pytest.mark.parametrize("eps", CLOSED_FORM_EPSILONS)
    def test_detection_gates_match_per_column_reference(self, eps):
        for gate in build_detection_circuit(eps).gates:
            assert np.max(np.abs(embed_gate(gate) - reference_embed_gate(gate))) <= 1e-15

    def test_embedding_is_unitary(self):
        for gate in build_detection_circuit(0.7).gates:
            u = embed_gate(gate)
            assert np.max(np.abs(u.conj().T @ u - np.eye(16))) <= 1e-12

    def test_rejects_non_unitary(self):
        bad = Gate("BAD", (0,), np.array([[1, 0], [0, 2]], dtype=complex))
        with pytest.raises(ValueError):
            embed_gate(bad)

    def test_rejects_non_finite(self):
        bad = Gate("NAN", (0,), np.array([[np.nan, 0], [0, 1]], dtype=complex))
        with pytest.raises(ValueError, match="not unitary"):
            embed_gate(bad)

    def test_rejects_repeated_target(self):
        with pytest.raises(ValueError, match="repeated target"):
            embed_gate(Gate("RXX", (2, 2), np.eye(4, dtype=complex)))

    def test_rejects_control_overlapping_target(self):
        gate = Gate("RX", (2,), x_rotation(0.1), controls=((2, 1),))
        with pytest.raises(ValueError):
            embed_gate(gate)

    def test_rejects_out_of_range_qubit(self):
        gate = Gate("RX", (4,), x_rotation(0.1))
        with pytest.raises(ValueError):
            embed_gate(gate)


def test_assemble_respects_order():
    # X then projector-conditioned phase differs from the reverse order
    x = Gate("X", (3,), np.array([[0, 1], [1, 0]], dtype=complex))
    cz = Gate("Z", (3,), np.diag([1.0, -1.0]).astype(complex), controls=((0, 1),))
    forward = assemble_unitary(CircuitSpec((x, cz), 0.0))
    backward = assemble_unitary(CircuitSpec((cz, x), 0.0))
    np.testing.assert_allclose(forward, embed_gate(cz) @ embed_gate(x), atol=1e-14)
    assert np.max(np.abs(forward - backward)) > 0.5


def test_format_circuit_lists_gates():
    text = format_circuit(build_detection_circuit(0.25))
    lines = text.splitlines()
    assert len(lines) == 7
    assert "H_D" in text and "q0=1" in text and "targets: q3" in text
