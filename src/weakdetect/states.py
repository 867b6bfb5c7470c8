"""Two-qubit density matrices and the partial-transpose separability test.

The density matrix lives in the computational basis |00>, |01>, |10>, |11>
with named elements

        [ p   u   v   w ]
        [ u*  q   x   y ]
        [ v*  x*  r   z ]
        [ w*  y*  z*  s ]

where p, q, r, s are real non-negative diagonals summing to 1 and
u, v, w, x, y, z are complex. The module provides validation, the
partial-transpose verdict oracle used as ground truth (det(rho^TB) as one
24-term polynomial in these elements lives in ``protocol``, next to the
weak values that measure them), trace distances, and random-state
generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# |det(rho^TB)| below this is treated as zero when classifying verdicts:
# ~1000x above accumulated kernel roundoff, far below physical magnitudes
# (the Bell value is 6.25e-2).
TAU_DET = 1e-9

VALIDATION_ATOL = 1e-10


class StateValidationError(ValueError):
    """A 4x4 matrix failed one of the density-matrix checks."""


class HermiticityError(StateValidationError):
    """Matrix is not Hermitian within tolerance."""


class TraceError(StateValidationError):
    """Trace differs from 1 beyond tolerance."""


class PositivityError(StateValidationError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class NormalizationError(StateValidationError):
    """Pure-state amplitudes are not normalized."""


class SchemaError(ValueError):
    """A JSON document does not match the documented file schema."""


class Verdict(Enum):
    ENTANGLED = "Entangled"
    SEPARABLE = "Separable"


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Validated two-qubit density matrix. Construct via :func:`validate`."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix.setflags(write=False)

    def diagonal(self) -> tuple[float, float, float, float]:
        return tuple(float(d) for d in self.matrix.diagonal().real)


@dataclass(frozen=True)
class PureAmplitudes:
    """Amplitudes of a pure state a|00> + b|01> + c|10> + d|11>."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self) -> None:
        try:
            norm = abs(self.a) ** 2 + abs(self.b) ** 2 + abs(self.c) ** 2 + abs(self.d) ** 2
        except OverflowError:  # a finite amplitude whose square exceeds the float range
            norm = math.inf
        if not np.isfinite(norm) or abs(norm - 1.0) > VALIDATION_ATOL:
            raise NormalizationError(f"|a|^2+|b|^2+|c|^2+|d|^2 = {norm!r}, expected 1")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d], dtype=complex)

    def to_state(self) -> TwoQubitState:
        v = self.vector
        return validate(np.outer(v, v.conj()))


def validate(m) -> TwoQubitState:
    """Check Hermiticity, unit trace and positivity; return the state.

    The matrix is symmetrized to (M + M^dag)/2 once the Hermiticity check
    passes. The smallest eigenvalue may sit VALIDATION_ATOL below zero.
    """
    try:
        stack = np.asarray(m, dtype=complex)[None]
    except ValueError as exc:
        raise StateValidationError(str(exc)) from exc
    return TwoQubitState(validate_batch(stack)[0])


def validate_batch(stack, *, positivity_tol: float = VALIDATION_ATOL) -> np.ndarray:
    """:func:`validate` for an (N, 4, 4) stack: finite and bounded entries,
    Hermiticity, unit trace and positivity, checked for every state.

    Returns the symmetrized stack; the first failed check raises.
    """
    arr = np.asarray(stack, dtype=complex)
    if arr.ndim != 3 or arr.shape[1:] != (4, 4):
        raise StateValidationError(f"expected 4x4 matrices, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise StateValidationError("matrix entries must be finite (no NaN/Inf)")
    # A density matrix has no entry above 1 in magnitude. The bound 2 leaves
    # room for the tolerances, so no valid state is rejected, and keeps the
    # checks below (and eigvalsh) free of overflow.
    big = np.abs(arr).max(initial=0.0)
    if big > 2.0:
        raise StateValidationError(f"entry of magnitude {big:.3e} exceeds 1, the bound "
                                   "for a density matrix")
    adjoint = arr.conj().swapaxes(1, 2)
    dev = np.abs(arr - adjoint).max(axis=(1, 2), initial=0.0)
    if (dev > VALIDATION_ATOL).any():
        raise HermiticityError(f"matrix deviates from Hermitian by {dev.max():.3e}")
    trace = np.trace(arr, axis1=1, axis2=2)
    off = np.abs(trace - 1.0) > VALIDATION_ATOL
    if off.any():
        raise TraceError(f"trace is {complex(trace[off][0])!r}, expected 1")
    sym = (arr + adjoint) / 2
    smallest = np.linalg.eigvalsh(sym)[:, 0]
    low = smallest < -positivity_tol
    if low.any():
        raise PositivityError(
            f"smallest eigenvalue {smallest[low][0]:.3e} below -{positivity_tol:.0e}"
        )
    return sym


def _partial_transpose(m: np.ndarray) -> np.ndarray:
    """Transpose the second qubit's indices of (..., 4, 4) matrices:
    (ik),(jl) -> (il),(jk)."""
    return m.reshape(*m.shape[:-2], 2, 2, 2, 2).swapaxes(-1, -3).reshape(m.shape)


def ppt_entangled(stack: np.ndarray, *, tau: float = TAU_DET) -> np.ndarray:
    """Ground-truth verdicts (True = entangled) for an (N, 4, 4) stack of
    states, from the smallest partial-transpose eigenvalue."""
    return np.linalg.eigvalsh(_partial_transpose(stack))[:, 0] < -tau


def ppt_oracle(rho: TwoQubitState) -> Verdict:
    """Ground-truth verdict from the partial-transpose spectrum."""
    entangled = ppt_entangled(rho.matrix[None])[0]
    return Verdict.ENTANGLED if entangled else Verdict.SEPARABLE


def trace_distance_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Trace norms of a - b for two (N, 4, 4) stacks of Hermitian matrices."""
    return np.abs(np.linalg.eigvalsh(a - b)).sum(axis=1)


def trace_distance(rho: TwoQubitState, other: TwoQubitState) -> float:
    """Trace norm of the difference of the two density matrices."""
    return float(trace_distance_batch(rho.matrix[None], other.matrix[None])[0])


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_mixed_batch(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 4, 4) validated stack of full-rank random states; draws the same
    stream as n calls of :func:`random_mixed` on ``rng``."""
    g = rng.standard_normal((n, 2, 4, 4))
    g = g[:, 0] + 1j * g[:, 1]
    a = g @ g.conj().swapaxes(1, 2)
    return validate_batch(a / np.trace(a, axis1=1, axis2=2).real[:, None, None])


def random_mixed(seed) -> TwoQubitState:
    """Full-rank random state G G^dag / tr(G G^dag), G complex Gaussian.

    ``seed`` may be an int or a numpy Generator (drawn from, for streams).
    """
    return TwoQubitState(random_mixed_batch(_as_generator(seed), 1)[0])


def random_pure(seed) -> PureAmplitudes:
    """Haar-random pure state (normalized complex Gaussian 4-vector)."""
    rng = _as_generator(seed)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = v / np.linalg.norm(v)
    return PureAmplitudes(*(complex(c) for c in v))


def werner(p_mix: float) -> TwoQubitState:
    """p_mix |Phi+><Phi+| + (1 - p_mix) I/4; entangled iff p_mix > 1/3."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = (1 + p_mix) / 4
    m[1, 1] = m[2, 2] = (1 - p_mix) / 4
    m[0, 3] = m[3, 0] = p_mix / 2
    return validate(m)


def bell_phi_plus() -> TwoQubitState:
    """|Phi+><Phi+| with Phi+ = (|00> + |11>)/sqrt(2)."""
    return werner(1.0)


# --- JSON file schemas (consumed by the CLI) -------------------------------
#
# State file:      {"matrix": 4x4 array of [re, im] pairs}, row-major,
#                  basis order |00>, |01>, |10>, |11>.
# Amplitude file:  {"amplitudes": 4 [re, im] pairs}.


def _pair_to_complex(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise SchemaError(f"expected an [re, im] pair, got {pair!r}")
    re, im = pair
    # bool is an int in Python, but JSON true/false are not numbers.
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in pair):
        raise SchemaError(f"expected numeric [re, im] pair, got {pair!r}")
    try:
        return complex(re, im)
    except OverflowError:  # an integer beyond the float range
        raise SchemaError("[re, im] pair out of the float range") from None


def state_to_json_dict(rho: TwoQubitState) -> dict:
    return {
        "matrix": [
            [[float(e.real), float(e.imag)] for e in row] for row in rho.matrix
        ]
    }


def state_from_json_dict(doc) -> TwoQubitState:
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise SchemaError('state file must be an object with a "matrix" key')
    rows = doc["matrix"]
    if not isinstance(rows, list) or len(rows) != 4 or any(
        not isinstance(row, list) or len(row) != 4 for row in rows
    ):
        raise SchemaError('"matrix" must be a 4x4 array of [re, im] pairs')
    m = np.array([[_pair_to_complex(e) for e in row] for row in rows], dtype=complex)
    return validate(m)


def amplitudes_to_json_dict(psi: PureAmplitudes) -> dict:
    return {
        "amplitudes": [
            [float(c.real), float(c.imag)] for c in (psi.a, psi.b, psi.c, psi.d)
        ]
    }


def amplitudes_from_json_dict(doc) -> PureAmplitudes:
    if not isinstance(doc, dict) or "amplitudes" not in doc:
        raise SchemaError('amplitude file must be an object with an "amplitudes" key')
    amps = doc["amplitudes"]
    if not isinstance(amps, list) or len(amps) != 4:
        raise SchemaError('"amplitudes" must be 4 [re, im] pairs')
    return PureAmplitudes(*(_pair_to_complex(pair) for pair in amps))
