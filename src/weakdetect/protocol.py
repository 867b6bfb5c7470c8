"""Two-copy weak-value detection protocol.

Two copies of the state are post-selected in the 16-outcome computational
basis after a weak interaction generated by a conditional-flip Hamiltonian:
the first copy's basis state selects which bit-flip acts on the second copy.
Each informative outcome k then carries a weak value equal to one ratio of
a density-matrix element to a diagonal element:

    k=1: u*/p   k=2: u/q    k=3: z*/r   k=4: z/s
    k=9: v*/p   k=10: y*/q  k=11: v/r   k=12: y/s
    k=13: w*/p  k=14: x*/q  k=15: x/r   k=16: w/s

Outcomes 5-8 duplicate 1-4. From these ratios plus the post-selection
probabilities the protocol evaluates the sign of det(rho^TB) (entangled iff
negative), handles the degenerate branches where a diagonal vanishes,
reconstructs the full state, and - for pure states - runs the local variant
whose interaction acts on a single qubit.

The Hamiltonian is a permutation matrix, so the weak value at outcome
k = 4a + b + 1 is a gather, rho[a', a] rho[b', b] / (rho[a, a] rho[b, b])
with 4a' + b' = PERM[k - 1]. :func:`weak_values_batch` gathers the whole
post-selection record of an (N, 4, 4) stack that way, never forming
rho x rho; detection and reconstruction both read that one record.
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
    ZeroDiagonalError,
    validate_batch,
)

# Diagonal at or below TAU_DIAG counts as "no signal before the interaction"
# and routes detection into the degenerate branches. Exact simulation makes
# true zeros exact up to kernel roundoff; a statistics-driven front end
# would retune this.
TAU_DIAG = 1e-10

# Weak-value magnitudes below TAU_WV count as zero in the degenerate
# branches and in the pure-local equality test (matched to the TAU_DET
# scale).
TAU_WV = 1e-9

# Post-selection probability below TAU_DEN means the weak value for that
# outcome is undefined.
TAU_DEN = 1e-12

# Smallest eigenvalue a rebuilt state may have: reconstruction works from
# measured data, so it allows more than VALIDATION_ATOL.
RECONSTRUCT_POSITIVITY_TOL = 1e-6


class NoSignalError(RuntimeError):
    """Post-selection probability vanished for the requested outcome."""


class DecisionPath(Enum):
    GENERAL = "General"
    CASE_I = "CaseI"
    CASE_II = "CaseII"
    PURE_LOCAL = "PureLocal"


# Decision paths of detect_batch, by the code it reports per state.
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


_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _conditional_flip() -> np.ndarray:
    """Conditional-flip generator on two copies (qubits 0,1 | 2,3).

    Block diagonal over the first copy's basis: the |00> and |01> blocks
    flip qubit 3, the |10> block flips qubit 2, the |11> block flips both.
    Each block is a tensor of X/identity factors, so the whole operator
    squares to the identity.
    """
    eye2 = np.eye(2, dtype=complex)
    blocks = (np.kron(eye2, _SIGMA_X), np.kron(eye2, _SIGMA_X),
              np.kron(_SIGMA_X, eye2), np.kron(_SIGMA_X, _SIGMA_X))
    h = np.zeros((16, 16), dtype=complex)
    for i, block in enumerate(blocks):
        h[4 * i:4 * i + 4, 4 * i:4 * i + 4] = block
    return h


HAMILTONIAN = _conditional_flip()
HAMILTONIAN.setflags(write=False)

# H is a permutation matrix: row j holds a single 1, in column PERM[j].
PERM = np.argmax(HAMILTONIAN.real, axis=1)

# The interaction of detect_pure_local flips only the last qubit, so it maps
# outcome index j to j ^ 1.
_LOCAL_PERM = np.arange(16) ^ 1

# Outcome j = 4a + b (0-based) post-selects |a>|b>.
_A, _B = np.divmod(np.arange(16), 4)
# Outcomes 1, 6, 11, 16 post-select both copies on one basis state: p^2 .. s^2.
_SQUARE_OUTCOMES = 5 * np.arange(4)

# outcome k -> (row, col, diagonal index) of the element ratio it measures:
# weak value at k equals matrix[row, col] / matrix[diag, diag]. H is block
# diagonal over the first copy (a' = a), so with j = k - 1 the gather
# rho[a', a] rho[b', b] / (rho[a, a] rho[b, b]) is rho[b', b] / rho[b, b],
# b' = PERM[j] % 4.
OUTCOME_RATIO_INDEX: dict[int, tuple[int, int, int]] = {
    j + 1: (int(PERM[j] % 4), int(_B[j]), int(_B[j])) for j in range(16)
}
_RATIO_ROW, _RATIO_COL, _RATIO_DIAG = np.array(list(OUTCOME_RATIO_INDEX.values())).T

# The first outcome measuring each element (row, col). Outcomes 5-8 repeat
# 1-4, so these are the twelve informative outcomes.
_FIRST_OUTCOME = {index[:2]: k for k, index in reversed(OUTCOME_RATIO_INDEX.items())}
INFORMATIVE_OUTCOMES = tuple(sorted(_FIRST_OUTCOME.values()))
_INFORMATIVE = np.array(INFORMATIVE_OUTCOMES) - 1


def _measuring(row: int, col: int) -> tuple[int, int]:
    """(column, diagonal index) of the first outcome measuring
    matrix[row, col] / matrix[diag, diag]."""
    k = _FIRST_OUTCOME[row, col]
    return k - 1, OUTCOME_RATIO_INDEX[k][2]


# Columns of the degenerate-branch probes: x*/q (CaseI) and w/s (CaseII).
_CASE_I_PROBE = _measuring(2, 1)[0]
_CASE_II_PROBE = _measuring(0, 3)[0]


def _element_ratios(stack: np.ndarray) -> np.ndarray:
    """(N, 16) ratios read off the matrices through OUTCOME_RATIO_INDEX;
    NaN where the ratio's diagonal is at or below TAU_DIAG."""
    den = stack[:, _RATIO_DIAG, _RATIO_DIAG].real
    readable = den > TAU_DIAG
    return np.where(readable, stack[:, _RATIO_ROW, _RATIO_COL] / np.where(readable, den, 1.0),
                    np.nan)


def joint_entries(stack: np.ndarray, perm: np.ndarray = PERM) -> tuple[np.ndarray, np.ndarray]:
    """(J[perm[j], j], J[j, j]) of the two-copy matrix J = rho x rho for every
    state of an (N, 4, 4) stack, each (N, 16), outcome k in column k - 1.

    With j = 4a + b and perm[j] = 4a' + b' these are the gathers
    rho[a', a] rho[b', b] and rho[a, a] rho[b, b]; J is never formed. The
    second is the post-selection probability (real).
    """
    flat = stack.reshape(-1, 16)
    diagonal = flat[:, ::5].real
    flipped = flat[:, 4 * (perm // 4) + _A] * flat[:, 4 * (perm % 4) + _B]
    return flipped, diagonal[:, _A] * diagonal[:, _B]


def weak_values_batch(
    stack: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The post-selection record of an (N, 4, 4) stack: (weak values,
    post-selection probabilities, defined mask), each (N, 16) with outcome k
    in column k - 1, and the (N, 4) diagonals (p, q, r, s).

    Outcomes at or below TAU_DEN are undefined, with weak value 0. Outcomes
    1, 6, 11, 16 post-select both copies on the same basis state, so their
    probabilities are p^2, q^2, r^2, s^2 and give the diagonals.
    """
    numerators, probabilities = joint_entries(stack)
    defined = probabilities > TAU_DEN
    values = np.where(defined, numerators / np.where(defined, probabilities, 1.0), 0.0)
    probabilities = np.maximum(probabilities, 0.0)
    return values, probabilities, defined, np.sqrt(probabilities[:, _SQUARE_OUTCOMES])


# The 24 terms of det(rho^TB)/(pqrs) as (sign, factors). Factor k is the
# ratio outcome k measures and -k its conjugate. Two terms (|x|^2/(ps) and
# |w|^2/(qr)) are not pure products of the twelve ratios: they carry the
# diagonal cross-factors qr/(ps) and ps/(qr), which come from the same
# post-selection statistics as the diagonals themselves. The comment on
# each line names the term as an element-ratio product.
_QR_PS, _PS_QR = 17, 18
_BRACKET_TERMS = (
    (+1, (1, 2, 3, 4)),          # + u u* z z* / pqrs
    (-1, (2, -9, -12, 3)),       # - u v y* z* / pqrs
    (-1, (2, 13, 15, 4)),        # - u w* x z / pqrs
    (-1, (-2, 9, 12, -3)),       # - u* v* y z / pqrs
    (-1, (-2, -13, -15, -4)),    # - u* w x* z* / pqrs
    (+1, (9, 11, 10, 12)),       # + v v* y y* / pqrs
    (-1, (11, 13, 14, 12)),      # - v w* x* y / pqrs
    (-1, (-11, -13, -14, -12)),  # - v* w x y* / pqrs
    (+1, (13, 16, 14, 15)),      # + w w* x x* / pqrs
    (+1, (2, 11, 13)),           # + u v w* / pqr
    (+1, (-2, -11, -13)),        # + u* v* w / pqr
    (+1, (-1, -14, -12)),        # + u x y* / pqs
    (+1, (1, 14, 12)),           # + u* x* y / pqs
    (-1, (1, 2)),                # - u u* / pq
    (+1, (-9, -15, -4)),         # + v x* z* / prs
    (+1, (9, 15, 4)),            # + v* x z / prs
    (-1, (9, 11)),               # - v v* / pr
    (-1, (14, 15, _QR_PS)),      # - x x* / ps
    (+1, (16, 10, 3)),           # + w y* z* / qrs
    (+1, (-16, -10, -3)),        # + w* y z / qrs
    (-1, (13, 16, _PS_QR)),      # - w w* / qr
    (-1, (10, 12)),              # - y y* / qs
    (-1, (3, 4)),                # - z z* / rs
    (+1, ()),                    # + 1
)
_TERM_SIGNS = np.array([sign for sign, _ in _BRACKET_TERMS], dtype=float)
# Columns into [1, ratios 1..16, qr/(ps), ps/(qr), conj ratios 1..16];
# missing factors are 1 (column 0).
_TERM_FACTORS = np.array([(*factors, 0, 0, 0, 0)[:4] for _, factors in _BRACKET_TERMS])
_TERM_FACTORS = np.where(_TERM_FACTORS >= 0, _TERM_FACTORS, _PS_QR - _TERM_FACTORS)


def _bracket_terms(ratios: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """(N, 24) bracket terms from (N, 16) ratios and (N, 4) diagonals."""
    p, q, r, s = diagonal.T
    factors = np.concatenate([
        np.ones((len(ratios), 1)), ratios,
        ((q * r) / (p * s))[:, None], ((p * s) / (q * r))[:, None], ratios.conj(),
    ], axis=1)
    terms = _TERM_SIGNS * factors[:, _TERM_FACTORS[:, 0]]
    for column in _TERM_FACTORS[:, 1:].T:
        terms *= factors[:, column]
    return terms


def _bracket(ratios: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """(N,) det(rho^TB)/(pqrs) (real part; the residue is roundoff)."""
    return _bracket_terms(ratios, diagonal).sum(axis=1).real


def det_ptb_expansion(rho: TwoQubitState) -> float:
    """det(rho^TB) as pqrs times the 24-term bracket that :func:`detect_batch`
    evaluates, fed with the element ratios read off the matrix.

    A diagonal at or below TAU_DIAG raises ZeroDiagonalError; the
    degenerate decision branches handle those states.
    """
    diagonal = rho.matrix.diagonal().real[None]
    if diagonal.min() <= TAU_DIAG:
        p, q, r, s = diagonal[0]
        raise ZeroDiagonalError(
            f"diagonal ({p:.3e}, {q:.3e}, {r:.3e}, {s:.3e}) has a zero entry"
        )
    return float(diagonal.prod() * _bracket(_element_ratios(rho.matrix[None]), diagonal)[0])


def detect_batch(stack: np.ndarray, *, tau_det: float = TAU_DET) -> BatchReport:
    """Decide entangled/separable for every state of an (N, 4, 4) stack
    from weak values and post-selection data.

    Decision tree, per state:

    * p or s is at or below TAU_DIAG (CaseI): the determinant collapses to
      -|x|^2 qr, so the verdict is Separable when q or r is also at or below
      it, else follows the outcome-14 probe x*/q.
    * q or r is at or below TAU_DIAG (CaseII): the determinant collapses to
      -|w|^2 ps and the outcome-16 probe w/s decides.
    * otherwise (General): assemble the scaled determinant bracket from the
      twelve ratios; entangled iff bracket < -tau_det/(pqrs).

    A probe decides Entangled when its magnitude exceeds TAU_WV. A probe
    whose outcome carries no signal is read off the matrix (e.g. the s=0
    sub-case of CaseI). On the General path, diagonals in (TAU_DIAG, ~1e-6)
    give probabilities at or below TAU_DEN; all twelve ratios are then read
    off the matrix.
    """
    values, _, defined, diagonal = weak_values_batch(stack)
    p, q, r, s = diagonal.T
    # _element_ratios reads no ratio over a diagonal at or below TAU_DIAG,
    # so exactly those states take a degenerate branch.
    small = diagonal <= TAU_DIAG
    case_i = small[:, 0] | small[:, 3]
    q_or_r = small[:, 1] | small[:, 2]
    general = ~(case_i | q_or_r)

    matrix = _element_ratios(stack)
    probe = np.where(defined, values, matrix)
    x_over_q = np.abs(probe[:, _CASE_I_PROBE])
    w_over_s = np.abs(probe[:, _CASE_II_PROBE])
    det_value = np.where(
        case_i,
        np.where(q_or_r, 0.0, -((x_over_q * q) ** 2) * q * r),
        -((w_over_s * s) ** 2) * p * s,
    )
    entangled = np.where(case_i, ~q_or_r & (x_over_q > TAU_WV), w_over_s > TAU_WV)

    silent = ~defined[general][:, _INFORMATIVE].all(axis=1)
    ratios = np.where(silent[:, None], matrix[general], values[general])
    bracket = _bracket(ratios, diagonal[general])
    pqrs = diagonal[general].prod(axis=1)
    det_scaled = np.full(len(diagonal), np.nan)
    det_scaled[general] = bracket
    det_value[general] = bracket * pqrs
    entangled[general] = bracket < -(tau_det / pqrs)
    if np.isnan(det_value).any():
        raise NoSignalError("a ratio the decision needs has no signal and its "
                            f"diagonal is at or below {TAU_DIAG:.0e}")
    return BatchReport(
        weak_values=values,
        defined=defined,
        diagonal=diagonal,
        path=np.where(general, 0, np.where(case_i, 1, 2)),
        entangled=entangled,
        det_scaled=det_scaled,
        det_value=det_value,
    )


def detect(rho: TwoQubitState, *, tau_det: float = TAU_DET) -> DetectionReport:
    """Decide entangled/separable from weak values and post-selection data
    (one state; see :func:`detect_batch` for the decision tree)."""
    return detect_batch(rho.matrix[None], tau_det=tau_det).report(0)


# Off-diagonal (i, j), i < j: the primary outcome measures rho[i, j] / d and
# the fallback outcome rho[j, i] / d', as (column, diagonal index) pairs.
_UPPER = np.triu_indices(4, 1)
_PRIMARY = np.array([_measuring(i, j) for i, j in zip(*_UPPER)]).T
_FALLBACK = np.array([_measuring(j, i) for i, j in zip(*_UPPER)]).T


def reconstruct_batch(values: np.ndarray, defined: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """Rebuild (N, 4, 4) density matrices from weak values and their defined
    mask (N, 16) and measured diagonals (N, 4).

    Off-diagonals come from ratio * diagonal, falling back to the conjugate
    partner outcome and finally to 0 when neither outcome carried signal.
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
    (k1, d1), (k2, d2) = _PRIMARY, _FALLBACK
    upper = np.where(
        defined[:, k1],
        values[:, k1] * diagonal[:, d1],
        np.where(defined[:, k2], values[:, k2].conj() * diagonal[:, d2], 0.0),
    )
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
        failed = np.linalg.eigvalsh(m)[:, 0] < -RECONSTRUCT_POSITIVITY_TOL
        lost = ~(defined[:, k1] | defined[:, k2]) & (diagonal[:, rows] * diagonal[:, cols] > 0)
        culprits = np.flatnonzero(failed & lost.any(axis=1))
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
        numerators, probabilities = joint_entries(psi.to_state().matrix[None], _LOCAL_PERM)
        numerators, probabilities = numerators[0, [1, 3]], probabilities[0, [1, 3]]
        if (probabilities > TAU_DEN).all():
            wv2, wv4 = (complex(v) for v in numerators / probabilities)
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
