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

# Slack between the Cholesky positivity screen and the tolerance it clears
# (see validate_batch): 64 units of roundoff u = 2^-53, over ten times the
# backward error of a 4x4 factorisation of a unit-trace matrix.
CHOLESKY_MARGIN = 64 * 2.0**-53

# Half-width, per unit of trace, of the band around -tau inside which the
# partial-transpose oracle falls back to eigvalsh: 256 units of roundoff
# (derived in ppt_entangled).
PPT_MARGIN = 256 * 2.0**-53


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

    Positivity is screened by one batched Cholesky factorisation of
    ``sym + (positivity_tol - CHOLESKY_MARGIN) * 1``. If every matrix
    factors, every smallest eigenvalue is at least ``-positivity_tol``: the
    computed factor satisfies ``R^H R = A + dA`` with
    ``|dA| <= gamma_5 |R^H| |R|`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., Thm 10.5), so
    ``||dA||_2 <= gamma_5 ||R||_F^2 ~= gamma_5 tr(A) ~= 5u``, since the trace
    was checked to be 1. The margin of 64u covers that bound, the larger
    constants of complex arithmetic and the rounding of the shift. If any
    matrix does not factor, the same shifted factorisation runs row by row
    (:func:`_cholesky_completes`) and ``eigvalsh`` decides only the rows
    that do not factor: a refusal names the smallest eigenvalue, and rows
    within the margin of the tolerance need the eigenvalue itself. A row
    that factors clears ``-positivity_tol`` by the margin less the backward
    error above, so it cannot be the first low row, and the message is the
    one a solve of the whole stack gives.
    """
    arr = np.asarray(stack, dtype=complex)
    if arr.ndim != 3 or arr.shape[1:] != (4, 4):
        raise StateValidationError(f"expected 4x4 matrices, got shape {arr.shape}")
    # A density matrix has no entry above 1 in magnitude. The bound 2 leaves
    # room for the tolerances, so no valid state is rejected, and keeps the
    # checks below (Cholesky and eigvalsh included) free of overflow. The max
    # propagates NaN and abs(Inf) is Inf, so one comparison also screens
    # finiteness; isfinite runs only to word a refusal, finiteness first.
    big = np.abs(arr).max(initial=0.0)
    if not big <= 2.0:
        if not np.isfinite(arr).all():
            raise StateValidationError("matrix entries must be finite (no NaN/Inf)")
        raise StateValidationError(f"entry of magnitude {big:.3e} exceeds 1, the bound "
                                   "for a density matrix")
    adjoint = arr.conj().swapaxes(1, 2)
    dev = np.abs(arr - adjoint).max(initial=0.0)
    if dev > VALIDATION_ATOL:
        raise HermiticityError(f"matrix deviates from Hermitian by {dev:.3e}")
    trace = np.trace(arr, axis1=1, axis2=2)
    off = np.abs(trace - 1.0) > VALIDATION_ATOL
    if off.any():
        raise TraceError(f"trace is {complex(trace[off][0])!r}, expected 1")
    sym = (arr + adjoint) / 2
    shifted = sym + (positivity_tol - CHOLESKY_MARGIN) * np.eye(4)
    try:
        np.linalg.cholesky(shifted)
        return sym
    except np.linalg.LinAlgError:
        pass
    smallest = np.linalg.eigvalsh(sym[~_cholesky_completes(shifted)])[:, 0]
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


def _cholesky_completes(a: np.ndarray) -> np.ndarray:
    """Rows of an (N, 4, 4) Hermitian stack whose Cholesky factorisation
    runs to completion with every pivot positive.

    The factorisation is the square-root-free form ``L D L^H`` (so
    ``R = D^1/2 L^H`` and pivot ``d_k = r_kk^2``), right-looking and
    vectorised over the stack; ``a`` is overwritten with the Schur
    complements. A row whose pivot is not positive is marked and carried on
    with an infinite pivot, which leaves its remaining entries alone.
    """
    completes = np.ones(len(a), dtype=bool)
    with np.errstate(all="ignore"):  # a tiny positive pivot may overflow a row that fails anyway
        for k in range(4):
            pivot = a[:, k, k].real
            completes &= pivot > 0
            column = a[:, k + 1:, k] / np.where(completes, pivot, np.inf)[:, None]
            a[:, k + 1:, k + 1:] -= column[:, :, None] * a[:, None, k, k + 1:]
    return completes


def ppt_entangled(stack: np.ndarray, *, tau: float = TAU_DET) -> np.ndarray:
    """Ground-truth verdicts (True = entangled) for an (N, 4, 4) stack of
    states: ``eigvalsh(rho^TB)[:, 0] < -tau``, row for row.

    The question is whether ``rho^TB + tau * 1`` is positive definite. A
    Cholesky factorisation answers it for every row outside a band of
    half-width ``m = PPT_MARGIN * (1 + 4 |tau|)`` around ``-tau``; both
    shifts ``c = tau -/+ m`` are screened in one stacked pass of
    :func:`_cholesky_completes`. With u = 2^-53, ``A = rho^TB + c * 1`` and
    ``R = D^1/2 L^H``:

    - Separable. If ``rho^TB + (tau - m) * 1`` factors, then
      ``R^H R = A + dA`` with ``|dA| <= gamma_5 |R^H| |R|`` (Higham,
      *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Thm 10.5),
      so ``||dA||_2 <= gamma_5 ||R||_F^2 = gamma_5 tr(A + dA)``. As
      ``tr(A) = 1 + 4c``, ``lambda_min(rho^TB) >= -tau + m - 5u (1 + 4c)``
      to first order.
    - Entangled. If ``rho^TB + (tau + m) * 1`` meets a pivot <= 0, the
      unit-diagonal scaling ``H = D_A^-1/2 A D_A^-1/2`` has
      ``lambda_min(H) <= n gamma_(n+1) ~= 20u`` (Thm 10.7, after Demmel,
      1989). So ``lambda_min(A) <= 20u max_i a_ii <= 20u (1 + c)`` and
      ``lambda_min(rho^TB) <= -tau - m + 20u (1 + c)``.
    - ``eigvalsh`` computes each eigenvalue of ``rho^TB`` to within
      ``p(4) u ||rho^TB||_2``, and ``||rho^TB||_2 <= 1`` for a state.

    Complex arithmetic enlarges the gamma constants by a small factor (up
    to 4: 20u and 80u per unit of trace), and the shift rounds by
    ``u (1 + |c|)``. A margin of 256u per unit of trace leaves over 150u
    for ``p(4) u``, so a row that either test settles gets the verdict that
    ``eigvalsh`` gives. Rows that neither settles have
    ``|lambda_min + tau|`` within about ``m``. There roundoff decides the
    sign, so they keep ``eigvalsh``, whose verdict is the definition the
    oracle answers to. Product states with an exact zero eigenvalue land
    there at ``tau = 0``.

    The margin is summed as ``PPT_MARGIN + 4 PPT_MARGIN |tau|``, the
    product's float wherever that is finite (PPT_MARGIN is a power of two),
    and capped at the distance from ``|tau|`` to the largest float, so no
    shift overflows. The cap binds only for ``|tau|`` within a relative
    ``1024u`` of the float range, where a state's shifted matrix has
    diagonal ``~|tau|`` against entries of at most 1 off it, so both tests
    give the ``eigvalsh`` verdict.
    """
    pt = _partial_transpose(stack)
    n = len(pt)
    margin = min(PPT_MARGIN + 4 * PPT_MARGIN * abs(tau), np.finfo(float).max - abs(tau))
    shifts = np.array([tau - margin, tau + margin])
    completes = _cholesky_completes((pt + shifts[:, None, None, None] * np.eye(4))
                                    .reshape(2 * n, 4, 4))
    entangled = ~completes[:n]
    band = np.flatnonzero(entangled & completes[n:])
    if band.size:
        entangled[band] = np.linalg.eigvalsh(pt[band])[:, 0] < -tau
    return entangled


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
    stream as n calls of :func:`random_mixed` on ``rng``.

    The draws are copied into the real and imaginary halves of one complex
    buffer, which holds ``real + 1j * imag`` bit for bit (1j * imag adds only
    a signed zero to the real part). Scaling the float view of ``G G^H`` by
    the reciprocal of its real trace gives the complex quotient by that trace
    bit for bit: numpy divides by a complex number with zero imaginary part
    by multiplying with the reciprocal of its real part.
    """
    draws = rng.standard_normal((n, 2, 4, 4))
    g = np.empty((n, 4, 4), complex)
    np.copyto(g.real, draws[:, 0])
    np.copyto(g.imag, draws[:, 1])
    a = g @ g.conj().swapaxes(1, 2)
    flat = a.view(float)
    np.multiply(flat, (1 / np.trace(a, axis1=1, axis2=2).real)[:, None, None], out=flat)
    return validate_batch(a)


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


def amplitudes_from_json_dict(doc) -> PureAmplitudes:
    if not isinstance(doc, dict) or "amplitudes" not in doc:
        raise SchemaError('amplitude file must be an object with an "amplitudes" key')
    amps = doc["amplitudes"]
    if not isinstance(amps, list) or len(amps) != 4:
        raise SchemaError('"amplitudes" must be 4 [re, im] pairs')
    return PureAmplitudes(*(_pair_to_complex(pair) for pair in amps))
