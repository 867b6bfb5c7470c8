"""Gate-level realization of the weak interaction on four qubits.

Qubit layout: qubits 0, 1 are the first copy (whose basis state selects the
interaction), qubits 2, 3 the second copy; qubit 0 is the most significant
bit of the 16-dimensional index. The closed-form conditional unitary is

    U = |0><0| (x) 1 (x) 1 (x) Rx(-eps)
      + |10><10| (x) Rx(-eps) (x) 1
      + |11><11| (x) exp(-i eps X(x)X)

with Rx(-eps) = exp(-i eps X). The two-qubit block factors over the X
eigenbasis, exp(-i eps X(x)X) = |+><+| (x) Rx(-eps) + |-><-| (x) Rx(+eps),
so a Hadamard sandwich on qubit 2 turns it into two controlled single-qubit
rotations. The assembled gate list must reproduce U exactly for every eps,
not just in the weak regime. X, X(x)X and the conditional-flip generator H
all square to the identity, so each exponential is exp(-i eps A) =
cos(eps) 1 - i sin(eps) A; U's generator and gate layouts are built once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .protocol import HAMILTONIAN

N_QUBITS = 4
DIM = 16

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

# H_D = |0><+| + |1><-|: swaps the |+>,|-> basis with |0>,|1>.
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class Gate:
    """One gate: 2x2 unitary ``matrix`` on qubit ``target``, fired when
    every (qubit, value) control matches."""

    label: str
    target: int
    matrix: np.ndarray
    controls: tuple[tuple[int, int], ...] = ()


def _exp_involution(a: np.ndarray, epsilon: float) -> np.ndarray:
    """exp(-i epsilon A) = cos(eps) 1 - i sin(eps) A for A with A @ A = 1."""
    return np.cos(epsilon) * np.eye(len(a)) - 1j * np.sin(epsilon) * a


def x_rotation(epsilon: float) -> np.ndarray:
    """exp(-i epsilon X) = cos(eps) 1 - i sin(eps) X."""
    return _exp_involution(_SIGMA_X, epsilon)


# U's generator: X on qubit 3 in the |0x> branch, X on qubit 2 in the |10>
# branch and X(x)X on qubits 2, 3 in the |11> branch.
_GENERATOR = (np.kron(np.diag([1.0, 0.0]), np.kron(np.eye(4), _SIGMA_X))
              + np.kron(np.diag([0.0, 0.0, 1.0, 0.0]), np.kron(_SIGMA_X, np.eye(2)))
              + np.kron(np.diag([0.0, 0.0, 0.0, 1.0]), np.kron(_SIGMA_X, _SIGMA_X)))


def weak_interaction_unitary(epsilon: float) -> np.ndarray:
    """The closed-form 16x16 conditional unitary generated by the
    conditional-flip Hamiltonian at coupling epsilon."""
    return _exp_involution(_GENERATOR, epsilon)


def build_detection_circuit(epsilon: float) -> tuple[Gate, ...]:
    """Gate list implementing the conditional unitary.

    * Rx(-eps) on qubit 3, anti-controlled on qubit 0 = 0 (covers the |00>
      and |01> branches).
    * Rx(-eps) on qubit 2, controlled on qubit 0 = 1, qubit 1 = 0.
    * The |11> branch as a Hadamard sandwich on qubit 2 around a pair of
      triply-controlled rotations on qubit 3: Rx(-eps) when qubit 2 = 0
      (the |+> branch after the basis change), Rx(+eps) when qubit 2 = 1.
      The Hadamards carry no controls; outside the |11> branch they cancel.
    """
    rx_minus = x_rotation(epsilon)
    rx_plus = x_rotation(-epsilon)
    return (
        Gate("RX(-eps)", 3, rx_minus, controls=((0, 0),)),
        Gate("RX(-eps)", 2, rx_minus, controls=((0, 1), (1, 0))),
        Gate("H_D", 2, HADAMARD),
        Gate("RX(-eps)", 3, rx_minus, controls=((0, 1), (1, 1), (2, 0))),
        Gate("RX(+eps)", 3, rx_plus, controls=((0, 1), (1, 1), (2, 1))),
        Gate("H_D", 2, HADAMARD),
    )


@functools.cache
def _layout(target: int, controls: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Read-only indices of embed_gate's entries into [*matrix.flat, 0, 1]."""
    index = np.arange(DIM)
    mask = 1 << (N_QUBITS - 1 - target)
    bit = (index & mask) // mask
    fires = np.ones(DIM, dtype=bool)
    for qubit, value in controls:
        fires &= (index >> (N_QUBITS - 1 - qubit)) & 1 == value
    # entry 2 bit(r) + bit(c) of the matrix where r, c agree off the target
    g = np.where((index[:, None] ^ index) | mask == mask, 2 * bit[:, None] + bit, 4)
    # rows outside P are those of 1: 5 (one) on the diagonal, 4 (zero) off it
    source = np.where(fires[:, None], g, 4 + np.eye(DIM, dtype=int))
    source.setflags(write=False)
    return source


def embed_gate(gate: Gate) -> np.ndarray:
    """Expand a single-qubit gate into the full 16-dimensional unitary
    1 - P + P G: G[r, c] = matrix[bit(r), bit(c)] when r and c agree off the
    target, and P projects onto the basis states whose controls match."""
    return np.append(gate.matrix, (0, 1)).take(_layout(gate.target, tuple(gate.controls)))


def assemble_unitary(gates: tuple[Gate, ...]) -> np.ndarray:
    """Product of the gate embeddings in application order."""
    total = np.eye(DIM, dtype=complex)
    for gate in gates:
        total = embed_gate(gate) @ total
    return total


def verify_equivalence(epsilon: float) -> float:
    """Max-entry deviation between the assembled circuit and the
    closed-form conditional unitary."""
    assembled = assemble_unitary(build_detection_circuit(epsilon))
    return float(np.max(np.abs(assembled - weak_interaction_unitary(epsilon))))


def unitary_vs_hamiltonian(epsilon: float) -> float:
    """Max-entry deviation between U(eps) and exp(-i eps H)."""
    direct = weak_interaction_unitary(epsilon)
    return float(np.max(np.abs(direct - _exp_involution(HAMILTONIAN, epsilon))))
