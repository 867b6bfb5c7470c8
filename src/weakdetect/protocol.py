"""Two-copy weak-value detection protocol.

Two copies of the state are post-selected in the 16-outcome computational
basis after a weak interaction generated by a conditional-flip Hamiltonian:
the first copy's basis state selects which bit-flip acts on the second copy.
Each informative outcome k then carries a weak value equal to one ratio of
a density-matrix element to a diagonal element:

    k=1: u*/p   k=2: u/q    k=3: z*/r   k=4: z/s
    k=9: v*/p   k=10: y*/q  k=11: v/r   k=12: y/s
    k=13: w*/p  k=14: x*/q  k=15: x/r   k=16: w/s

Outcomes 5-8 duplicate 1-4. Each ratio times the diagonal measured from
the post-selection probabilities gives back one element. det(rho^TB) is a
24-term polynomial in the elements, with no division, so one formula
decides every state (entangled iff the determinant is negative), with no
decision tree and no probes. The same elements rebuild the full state. For
pure states a local variant's interaction acts on a single qubit.

The Hamiltonian is a permutation matrix, so the weak value at outcome
k = 4a + b + 1 is a gather, rho[a', a] rho[b', b] / (rho[a, a] rho[b, b])
with 4a' + b' = PERM[k - 1]. :func:`weak_values_batch` gathers the whole
post-selection record of an (N, 4, 4) stack that way, never forming
rho x rho. It alone screens outcomes and divides; detection, reconstruction,
the pure-state variant (under its own permutation), the pointer readout and
the robustness check all read that one record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .states import (
    PositivityError,
    PureAmplitudes,
    TAU_DET,
    TwoQubitState,
    Verdict,
    validate_batch,
)

# Diagonal at or below TAU_DIAG counts as "no signal before the interaction":
# it labels a detection report CaseI or CaseII (the decision is the same
# formula on every path) and sends detect_pure_local to its amplitude test.
# Exact simulation makes true zeros exact up to kernel roundoff; a
# statistics-driven front end would retune this.
TAU_DIAG = 1e-10

# Magnitudes below TAU_WV count as zero in the pure-local test, on the weak
# values and on the amplitude discriminant (matched to the TAU_DET scale).
TAU_WV = 1e-9

# Post-selection probability at or below TAU_DEN means the weak value for
# that outcome is undefined.
TAU_DEN = 1e-12

# Smallest eigenvalue a rebuilt state may have: reconstruction works from
# measured data, so it allows more than VALIDATION_ATOL.
RECONSTRUCT_POSITIVITY_TOL = 1e-6


class NoSignalError(RuntimeError):
    """No outcome carried signal for an element that :func:`reconstruct_batch`
    needs to rebuild a valid state."""


class DecisionPath(Enum):
    GENERAL = "General"
    CASE_I = "CaseI"
    CASE_II = "CaseII"
    PURE_LOCAL = "PureLocal"


# Path labels of detect_batch, by the code it reports per state.
BATCH_PATHS = (DecisionPath.GENERAL, DecisionPath.CASE_I, DecisionPath.CASE_II)


@dataclass(frozen=True)
class DetectionReport:
    verdict: Verdict
    path: DecisionPath
    det_scaled: float | None
    det_value: float | None
    e_estimate: float
    weak_values: dict[int, complex] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "path": self.path.value,
            "det_scaled": self.det_scaled,
            "det_value": self.det_value,
            "e_estimate": self.e_estimate,
            "weak_values": {
                str(k): [float(v.real), float(v.imag)]
                for k, v in sorted(self.weak_values.items())
            },
        }


@dataclass(frozen=True, eq=False)
class BatchReport:
    """Results of :func:`detect_batch`, one row per state. ``path`` indexes
    BATCH_PATHS; ``det_scaled`` is NaN off the General path."""

    weak_values: np.ndarray    # (N, 16) complex, 0 where not defined
    defined: np.ndarray        # (N, 16) bool
    diagonal: np.ndarray       # (N, 4), from the post-selection probabilities
    path: np.ndarray           # (N,) int
    entangled: np.ndarray      # (N,) bool
    det_scaled: np.ndarray     # (N,)
    det_value: np.ndarray      # (N,)

    def report(self, i: int) -> DetectionReport:
        path = BATCH_PATHS[self.path[i]]
        det_value = float(self.det_value[i])
        return DetectionReport(
            verdict=Verdict.ENTANGLED if self.entangled[i] else Verdict.SEPARABLE,
            path=path,
            det_scaled=float(self.det_scaled[i]) if path is DecisionPath.GENERAL else None,
            det_value=det_value,
            e_estimate=max(0.0, -det_value),
            weak_values={k: complex(self.weak_values[i, k - 1])
                         for k in range(1, 17) if self.defined[i, k - 1]},
        )


# The conditional-flip generator on two copies (qubits 0,1 | 2,3) is a
# permutation matrix: row j holds a single 1, in column PERM[j]. The first
# copy's basis state a = j // 4 picks the second-copy bits it flips: qubit 3
# for |00> and |01>, qubit 2 for |10>, both for |11>. So H is block diagonal
# over the first copy and squares to the identity.
PERM = np.arange(16) ^ np.repeat([1, 1, 2, 3], 4)
HAMILTONIAN = np.eye(16, dtype=complex)[PERM]
HAMILTONIAN.setflags(write=False)

# The interaction of detect_pure_local flips only the last qubit, so it maps
# outcome index j to j ^ 1.
_LOCAL_PERM = np.arange(16) ^ 1

# Outcome j = 4a + b (0-based) post-selects |a>|b>.
_A, _B = np.divmod(np.arange(16), 4)
# Outcomes 1, 6, 11, 16 post-select both copies on one basis state: p^2 .. s^2.
_SQUARE_OUTCOMES = 5 * np.arange(4)

# (row, col) -> the first outcome k whose weak value is the element ratio
# rho[row, col] / rho[col, col]. H is block diagonal over the first copy
# (a' = a), so with j = k - 1 the gather rho[a', a] rho[b', b] /
# (rho[a, a] rho[b, b]) is rho[b', b] / rho[b, b], b' = PERM[j] % 4.
# Outcomes 5-8 repeat 1-4, so twelve outcomes measure the twelve elements.
ELEMENT_OUTCOME: dict[tuple[int, int], int] = {
    (int(PERM[j] % 4), j % 4): j + 1 for j in reversed(range(16))
}

# Off-diagonal (i, j), i < j, in the order u, v, w, x, y, z: the column of
# the primary outcome, measuring rho[i, j] / rho[j, j], and of the fallback
# outcome, measuring rho[j, i] / rho[i, i].
_UPPER = np.triu_indices(4, 1)
_PRIMARY = np.array([ELEMENT_OUTCOME[i, j] for i, j in zip(*_UPPER)]) - 1
_FALLBACK = np.array([ELEMENT_OUTCOME[j, i] for i, j in zip(*_UPPER)]) - 1


def _elements(values: np.ndarray, defined: np.ndarray, diagonal: np.ndarray,
              unmeasured) -> np.ndarray:
    """(N, 6) off-diagonals u, v, w, x, y, z from (N, 16) weak values and
    their defined mask and (N, 4) diagonals: ratio * diagonal from the
    primary outcome, else from its conjugate partner, else ``unmeasured``
    (a scalar or an (N, 6) array)."""
    k1, k2 = _PRIMARY, _FALLBACK
    return np.where(
        defined[:, k1],
        values[:, k1] * diagonal[:, _UPPER[1]],
        np.where(defined[:, k2], values[:, k2].conj() * diagonal[:, _UPPER[0]], unmeasured),
    )


def weak_values_batch(
    stack: np.ndarray, perm: np.ndarray = PERM,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The post-selection record of an (N, 4, 4) stack under the interaction
    that maps outcome index j to perm[j]: (J[perm[j], j], J[j, j], weak
    values, defined mask), each (N, 16) with outcome k in column k - 1, and
    the (N, 4) diagonals (p, q, r, s).

    J = rho x rho is never formed: with j = 4a + b and perm[j] = 4a' + b'
    the entries are the gathers rho[a', a] rho[b', b] and rho[a, a] rho[b, b].
    The second is the post-selection probability, real and unclipped.
    Outcomes at or below TAU_DEN are undefined, with weak value 0; the rest
    have weak value J[perm[j], j] / J[j, j]. Outcomes 1, 6, 11, 16
    post-select both copies on the same basis state, so their probabilities
    are p^2, q^2, r^2, s^2 and give the diagonals.
    """
    flat = stack.reshape(-1, 16)
    diagonal = flat[:, ::5].real
    flipped = flat[:, 4 * (perm // 4) + _A] * flat[:, 4 * (perm % 4) + _B]
    probabilities = diagonal[:, _A] * diagonal[:, _B]
    defined = probabilities > TAU_DEN
    values = np.where(defined, flipped / np.where(defined, probabilities, 1.0), 0.0)
    return flipped, probabilities, values, defined, np.sqrt(probabilities[:, _SQUARE_OUTCOMES])


# det(rho^TB) as 24 signed products of four factors each: the diagonals
# p, q, r, s, the off-diagonals u, v, w, x, y, z (rho[0, 1], rho[0, 2],
# rho[0, 3], rho[1, 2], rho[1, 3], rho[2, 3]) and their conjugates (starred).
# No term divides, so the polynomial holds on every state.
_DET_TERMS = (
    "+ u u* z z*", "- u v y* z*", "- u w* x z", "- u* v* y z", "- u* w x* z*",
    "+ v v* y y*", "- v w* x* y", "- v* w x y*", "+ w w* x x*",
    "+ u v w* s", "+ u* v* w s", "+ u x y* r", "+ u* x* y r", "- u u* r s",
    "+ v x* z* q", "+ v* x z q", "- v v* q s", "- x x* q r",
    "+ w y* z* p", "+ w* y z p", "- w w* p s", "- y y* p r", "- z z* p q",
    "+ p q r s",
)
_FACTORS = ("p", "q", "r", "s", "u", "v", "w", "x", "y", "z",
            "u*", "v*", "w*", "x*", "y*", "z*")
_TERM_SIGNS = np.array([1.0 if term[0] == "+" else -1.0 for term in _DET_TERMS])
# Column j holds the index into _FACTORS of every term's j-th factor.
_TERM_FACTORS = np.array([[_FACTORS.index(f) for f in term.split()[1:]] for term in _DET_TERMS]).T


def _det_terms(diagonal: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """(N, 24) terms of det(rho^TB) from (N, 4) diagonals and (N, 6)
    off-diagonals u..z; their sum is real up to roundoff.

    Each term is ((f0 f1) f2) f3, three in-place products of (N, 24) column
    gathers, so no (N, 24, 4) stack of factors is formed.
    """
    factors = np.concatenate([diagonal, elements, elements.conj()], axis=1)
    first, *rest = _TERM_FACTORS
    terms = factors[:, first]
    for column in rest:
        terms *= factors[:, column]
    terms *= _TERM_SIGNS
    return terms


def _det(diagonal: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """(N,) det(rho^TB), its 24 terms summed left to right at every N."""
    return np.add.accumulate(_det_terms(diagonal, elements).real, axis=1)[:, -1]


def det_ptb_expansion(rho: TwoQubitState) -> float:
    """det(rho^TB) from the 24-term polynomial that :func:`detect_batch`
    evaluates, fed with the matrix's own elements; valid on every state."""
    m = rho.matrix
    return float(_det(m.diagonal().real[None], m[_UPPER][None])[0])


def detect_batch(stack: np.ndarray, *, tau_det: float = TAU_DET) -> BatchReport:
    """Decide entangled/separable for every state of an (N, 4, 4) stack
    from weak values and post-selection data.

    Each off-diagonal is its weak value times the measured diagonal, from
    the primary outcome or else its conjugate partner; an element that no
    outcome measures is read off the matrix. det(rho^TB) is the 24-term
    polynomial in these elements and the diagonals, and every state is
    entangled iff det < -tau_det. There is no decision tree: ``path`` only
    labels the diagonals, CaseI when p or s is at or below TAU_DIAG, else
    CaseII when q or r is, else General, where det_scaled is det/pqrs.
    """
    _, _, values, defined, diagonal = weak_values_batch(stack)
    elements = _elements(values, defined, diagonal, stack[:, _UPPER[0], _UPPER[1]])
    det_value = _det(diagonal, elements)
    small = diagonal <= TAU_DIAG
    path = np.where(small[:, 0] | small[:, 3], 1, np.where(small[:, 1] | small[:, 2], 2, 0))
    pqrs = diagonal.prod(axis=1)
    general = path == 0
    return BatchReport(
        weak_values=values,
        defined=defined,
        diagonal=diagonal,
        path=path,
        entangled=det_value < -tau_det,
        det_scaled=np.where(general, det_value / np.where(general, pqrs, 1.0), np.nan),
        det_value=det_value,
    )


def detect(rho: TwoQubitState, *, tau_det: float = TAU_DET) -> DetectionReport:
    """Decide entangled/separable from weak values and post-selection data
    (one state; see :func:`detect_batch` for the decision)."""
    return detect_batch(rho.matrix[None], tau_det=tau_det).report(0)


def reconstruct_batch(values: np.ndarray, defined: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """Rebuild (N, 4, 4) density matrices from weak values and their defined
    mask (N, 16) and measured diagonals (N, 4).

    Off-diagonals come from the element gather that :func:`detect_batch`
    uses: ratio * diagonal, falling back to the conjugate partner outcome
    and finally to 0 when neither outcome carried signal.
    The diagonal is renormalized to sum exactly 1 and the result is
    validated (positivity within RECONSTRUCT_POSITIVITY_TOL; a failure signals
    inconsistent input data). Returns the validated stack. A rebuilt matrix
    that fails positivity while an off-diagonal between two non-zero
    diagonals went unmeasured raises NoSignalError naming those elements.
    """
    diagonal = np.asarray(diagonal, dtype=float)
    negative = (diagonal < 0).any(axis=1)
    if negative.any():
        raise ValueError(f"diagonals must be non-negative, got {diagonal[negative][0]}")
    total = diagonal.sum(axis=1)
    off = np.abs(total - 1.0) > 1e-6
    if off.any():
        raise ValueError(f"diagonals sum to {total[off][0]!r}, expected 1 within 1e-6")
    diagonal = diagonal / total[:, None]
    upper = _elements(values, defined, diagonal, 0.0)
    m = np.zeros((len(diagonal), 4, 4), dtype=complex)
    m[:, _UPPER[0], _UPPER[1]] = upper
    m[:, _UPPER[1], _UPPER[0]] = upper.conj()
    m[:, np.arange(4), np.arange(4)] = diagonal
    try:
        return validate_batch(m, positivity_tol=RECONSTRUCT_POSITIVITY_TOL)
    except PositivityError as exc:
        # An unmeasured element between two non-zero diagonals may be
        # non-zero in the true state; rebuilt as 0 it can break positivity.
        rows, cols = _UPPER
        k1, k2 = _PRIMARY, _FALLBACK
        lost = ~(defined[:, k1] | defined[:, k2]) & (diagonal[:, rows] * diagonal[:, cols] > 0)
        suspects = np.flatnonzero(lost.any(axis=1))
        if not suspects.size:
            raise
        culprits = suspects[np.linalg.eigvalsh(m[suspects])[:, 0] < -RECONSTRUCT_POSITIVITY_TOL]
        if not culprits.size:
            raise
        named = ", ".join(f"element ({rows[e]}, {cols[e]}) (outcomes {k1[e] + 1} and {k2[e] + 1})"
                          for e in np.flatnonzero(lost[culprits[0]]))
        raise NoSignalError(f"{exc}: no outcome carried signal for {named}, "
                            "rebuilt as 0") from exc


def detect_pure_local(psi: PureAmplitudes) -> DetectionReport:
    """Pure-state detection with the locally-implementable interaction.

    The state a|00> + b|01> + c|10> + d|11> is separable iff ad - bc = 0.
    When some |amplitude|^2 vanishes, or outcome 2 or 4 carries no signal,
    |ad - bc| decides outright. Otherwise the single-qubit-flip interaction
    yields the weak values u/q and z/s at outcomes 2 and 4 (i.e. a/b and
    c/d), gathered through the flip's permutation j -> j ^ 1, and their
    equality is the separability test.
    """
    a, b, c, d = psi.a, psi.b, psi.c, psi.d
    discriminant = a * d - b * c
    det_value = 0.0 - abs(discriminant) ** 4  # avoids -0.0 for product states
    diag = (abs(a) ** 2, abs(b) ** 2, abs(c) ** 2, abs(d) ** 2)
    weak_values: dict[int, complex] = {}
    entangled = abs(discriminant) > TAU_WV
    if min(diag) >= TAU_DIAG:
        _, _, values, defined, _ = weak_values_batch(psi.to_state().matrix[None], _LOCAL_PERM)
        if defined[0, [1, 3]].all():
            wv2, wv4 = (complex(v) for v in values[0, [1, 3]])
            weak_values = {2: wv2, 4: wv4}
            entangled = abs(wv2 - wv4) > TAU_WV
    return DetectionReport(
        verdict=Verdict.ENTANGLED if entangled else Verdict.SEPARABLE,
        path=DecisionPath.PURE_LOCAL,
        det_scaled=None,
        det_value=det_value,
        e_estimate=max(0.0, -det_value),
        weak_values=weak_values,
    )
