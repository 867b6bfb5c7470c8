"""Weak-value error bound under a miscalibrated interaction.

If the interaction generator H is replaced by H_e with ||H - H_e||_1 <= delta,
every measured weak value moves by at most delta/m, where m is the minimum of
the pairwise products {p,q,r,s} x {p,q,r,s} = (min diagonal)^2. This module
checks the bound on random perturbations P = H - H_e of trace norm delta.
The weak value at outcome k moves by <u_k|P (rho x rho)|u_k> / <u_k|rho x rho|u_k>
= <e_k|P|c_k>, with c_k the k-th column of rho x rho over its diagonal entry.
A trial draws a Hermitian H_t and sets P = delta H_t / ||H_t||_1, so its
deviation delta |<e_k|H_t|c_k>| / ||H_t||_1 is linear in H_t but for the
trace norm, and only the largest deviation per outcome is reported.

The trials run in stacked passes of CHUNK. H_t = S + iA (S symmetric, A
antisymmetric, both real) takes copies, one add and one halving (_hermitian).
One einsum gives every overlap |<e_k|H_t|c_k>|, and the trace norms are
bounded from both sides without an eigen-solve (_trace_norm_bounds). A trial
whose deviations are all bounded from above below delta/m, and below the
larger of the running worst and the best bound from below in its pass, can
neither set a reported maximum nor violate the bound. One batched eigvalsh
rescales only the other trials, which are then contracted with rho x rho as
every trial was before the screen, so reports are bit-identical to solving
every trial. Trial i draws from child i of SeedSequence(seed), whatever the
stacking or trial count; at delta = 0 every deviation is 0 and nothing is drawn.

A child's stream is fixed by the four uint64 words it hands PCG64, so no
child is spawned. SeedSequence derives those words with a data-independent
uint32 hash (after M. E. O'Neill's seed_seq_fe, "Developing a seed_seq
Alternative", 2015): the run entropy of SeedSequence(seed), shared by every
child, is hashed once with Python ints, then each child's spawn key is mixed
in and the output stage runs over a uint32 array of BLOCK children at a time.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .protocol import TAU_DIAG, weak_values_batch
from .states import TwoQubitState

# Trials per stacked pass. A request holds five pass buffers of 4 kB per
# trial, so at 32 the peak resident set stays at that of a per-trial loop.
# The screen runs pass by pass: the worst deviation solved in earlier passes
# sharpens the cut of later ones, and eigvalsh runs on the trials left.
CHUNK = 32
# Children whose PCG64 words are hashed together: 32 kB of words.
BLOCK = 1024
# Roundoff widening of bound_check's screen: 64 units of roundoff u = 2^-53
# on each overlap, a relative slack on each trace-norm bound, and one
# smallest normal number per unit of the factors for subnormal products.
_GAMMA = 64 * 2.0**-53
_SLACK = 1e-9
_TINY = np.finfo(float).tiny

# numpy.random.SeedSequence's hash constants; every product is mod 2^32.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


class RankDeficientError(ValueError):
    """State has a vanishing diagonal, so the bound's m is undefined."""


@dataclass(frozen=True)
class RobustnessReport:
    """Worst observed weak-value deviation per outcome against the bound."""

    delta: float
    m: float
    bound: float
    trials: int
    deviations: dict[int, float]
    margin: float
    violations: int

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "m": self.m,
            "bound": self.bound,
            "trials": self.trials,
            "deviations": {str(k): v for k, v in sorted(self.deviations.items())},
            "margin": self.margin,
            "violations": self.violations,
        }

    def csv_rows(self) -> list[list]:
        return [
            [self.delta, k, self.deviations[k], self.bound]
            for k in sorted(self.deviations)
        ]


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta < np.inf:
        raise ValueError(f"delta must be finite and non-negative, got {delta!r}")


def _hash(word, const, mult):
    """One step of SeedSequence's hash on a uint32 word (a Python int or a
    uint32 array) under hash constant ``const``; returns the hashed word and
    the next constant, ``const * mult``."""
    word = word ^ const
    const = const * mult & _M32
    word = word * const & _M32
    return word ^ word >> 16, const


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _absorb(pool, word, const):
    """Mix one entropy word into every pool word, as SeedSequence does with
    each word beyond its pool size; returns the new pool and constant."""
    out = []
    for p in pool:
        hashed, const = _hash(word, const, _MULT_A)
        out.append(_mix(p, hashed))
    return out, const


def _run_pool(seed: int) -> tuple[list[int], int]:
    """The pool and hash constant that every child of SeedSequence(seed)
    starts from before its spawn key is mixed in.

    A child's entropy is the seed's uint32 words, low first, zero-padded to
    the pool size, then its spawn key. The first four words are hashed in,
    the pool is cross-mixed, and any seed words beyond 128 bits are absorbed.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words))
    pool, const = [], _INIT_A
    for word in words[:_POOL]:
        hashed, const = _hash(word, const, _MULT_A)
        pool.append(hashed)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                hashed, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    for word in words[_POOL:]:
        pool, const = _absorb(pool, word, const)
    return pool, const


def _child_words(run: tuple[list[int], int], lo: int, count: int) -> np.ndarray:
    """(count, 4) uint64, C-contiguous: row j is what
    ``SeedSequence(seed).spawn(...)[lo + j].generate_state(4, np.uint64)``
    returns, for ``run = _run_pool(seed)``.

    Spawn key i is one word below 2^32 and its low then its high word from
    2^32 on, so only those children absorb a second word. The output stage
    hashes the pool, cycled, into eight uint32 words: uint64 word w is words
    2w (low half) and 2w + 1 (high half).
    """
    pool, const = run
    keys = np.arange(lo, lo + count, dtype=np.uint64)
    pool, after = _absorb([np.full(count, p, np.uint32) for p in pool],
                          (keys & _M32).astype(np.uint32), const)
    wide = keys > _M32
    if wide.any():
        high, _ = _absorb([p[wide] for p in pool], (keys[wide] >> 32).astype(np.uint32), after)
        for p, h in zip(pool, high):
            p[wide] = h
    halves, const = [], _INIT_B
    for i in range(2 * _POOL):
        hashed, const = _hash(pool[i % _POOL], const, _MULT_B)
        halves.append(hashed.astype(np.uint64))
    return np.stack([halves[2 * w] | halves[2 * w + 1] << 32 for w in range(_POOL)], axis=1)


@functools.cache
def _child_seed_type() -> type:
    """The ISeedSequence that hands PCG64 one child's precomputed words.

    PCG64 refuses a seed object that is not an ISeedSequence. The class is
    built on first use, so importing this module does not load numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class ChildWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL or dtype is not np.uint64:
                raise ValueError("only the 4 uint64 words that seed PCG64 are held")
            return self.words

    return ChildWords


def _child_streams(run: tuple[list[int], int], count: int):
    """Children 0 .. count - 1 of the SeedSequence whose run pool is ``run``,
    as ISeedSequences for PCG64, hashed BLOCK at a time."""
    child = _child_seed_type()
    for lo in range(0, count, BLOCK):
        yield from map(child, _child_words(run, lo, min(BLOCK, count - lo)))


def _hermitian(streams, draws: np.ndarray, herm: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Fill draws[i] from stream i and return herm[:n] for n streams: the
    Hermitian parts (g + g^H) / 2 of g = real + 1j * imag.

    The buffers hold at least n trials and are reused from pass to pass;
    ``scratch`` is overwritten. Copying the draws into herm's halves gives g
    bit for bit (1j * imag adds only a signed zero to the real part), then
    g + conj(g^T), and * 0.5 on the float view is / 2 exactly. Only copies read
    the draws or a transposed view, so no ufunc fills an iterator buffer.
    """
    n = 0
    for n, stream in enumerate(streams, 1):
        np.random.Generator(np.random.PCG64(stream)).standard_normal(out=draws[n - 1])
    draws, herm, scratch = draws[:n], herm[:n], scratch[:n]
    np.copyto(herm.real, draws[:, 0])
    np.copyto(herm.imag, draws[:, 1])
    np.copyto(scratch, herm.swapaxes(1, 2))
    np.add(herm, np.conjugate(scratch, out=scratch), out=herm)
    return np.multiply(herm.view(float), 0.5, out=herm.view(float)).view(complex)


def _scale(delta: float, herm: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[:n] = herm * (delta / ||herm||_1), per matrix of the n in herm:
    one batched eigvalsh finds the trace norms."""
    out = out[:len(herm)]
    np.copyto(out, (delta / np.abs(np.linalg.eigvalsh(herm)).sum(axis=1))[:, None, None])
    return np.multiply(herm, out, out=out)


def _trace_norm_bounds(herm: np.ndarray, square: np.ndarray):
    """Row norms ||h_j|| (n, 16) and bounds L <= ||H||_1 <= U (n,) of the
    n Hermitian matrices in ``herm``, with no eigen-solve; ``square`` is a
    buffer that receives H^2.

    With eigenvalues l_j, ||H||_F^2 = sum l_j^2 and ||H^2||_F^2 = sum l_j^4.
    Hoelder with exponents 3/2 and 3 on sum |l|^(2/3) |l|^(4/3) gives
    sum l^2 <= (sum |l|)^(2/3) (sum l^4)^(1/3), so L = ||H||_F^3 / ||H^2||_F.
    By duality ||H||_1 = max |tr(W H)| over unitary W, and the rows of W are
    unit vectors, so ||H||_1 <= sum_j ||h_j||; Cauchy-Schwarz over the 16
    eigenvalues gives ||H||_1 <= 4 ||H||_F. U is the smaller of the two.
    """
    flat = herm.view(float)
    rows2 = np.einsum("tij,tij->ti", flat, flat)
    frob2 = rows2.sum(axis=1)
    flat = np.matmul(herm, herm, out=square[:len(herm)]).view(float)
    rownorms = np.sqrt(rows2)
    lower = np.sqrt(frob2 ** 3 / np.einsum("tij,tij->t", flat, flat))
    upper = np.minimum(4 * np.sqrt(frob2), rownorms.sum(axis=1))
    return rownorms, lower, upper


def perturbations(delta: float, streams) -> np.ndarray:
    """(len(streams), 16, 16) Hermitian parts of complex Gaussian matrices,
    one per SeedSequence (or other ISeedSequence) in ``streams``, rescaled to
    trace norm ``delta``."""
    _check_delta(delta)
    streams = list(streams)
    n = len(streams)
    stack = np.empty((n, 16, 16), complex)
    herm = _hermitian(streams, np.empty((n, 2, 16, 16)), np.empty((n, 16, 16), complex), stack)
    return _scale(delta, herm, stack)


def bound_check(rho: TwoQubitState, delta: float, trials: int, seed: int) -> RobustnessReport:
    """Draw ``trials`` random perturbations of trace norm ``delta`` and check
    every defined outcome's deviation against delta/m.

    Requires all diagonals above TAU_DIAG (otherwise m = 0 and the bound is
    vacuous). ``deviations`` keeps outcomes whose worst deviation is above 0.

    Each pass screens its trials before any eigen-solve. With overlap
    a = |<e_k|H_t|c_k>| and L <= ||H_t||_1 <= U, the deviation lies between
    a delta / U and a delta / L. Both are widened for roundoff so that they
    bracket the computed deviation, not only the exact one: a moves by
    _GAMMA ||h_k|| ||c_k|| (Cauchy-Schwarz on the 16-term sums of the screen
    and of the exact path, each within about 20u of sum |h_kl c_l|), delta/L
    and delta/U by the relative _SLACK (far above the eigvalsh error in the
    trace norm and the 2u of forming delta (1 +- _SLACK) once per request),
    and both by _TINY per unit of (1 + ||h_k||)(1 + ||c_k||), for subnormal
    products. A trial is solved when some outcome's bound from above reaches
    the smaller of delta/m and the larger of the running worst and the pass's
    best bound from below. Any other trial's deviation lies below a solved
    one, and below delta/m, so ``deviations``, ``margin`` and ``violations``
    are those of solving every trial, bit for bit.
    """
    _check_delta(delta)
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    diag = rho.diagonal()
    dmin = min(diag)
    if dmin <= TAU_DIAG:
        raise RankDeficientError(f"diagonal {diag} has a vanishing entry; "
                                 "delta/m bound undefined")
    m = dmin * dmin
    bound = float(delta) / m  # a Python float: overflow gives inf, not a warning
    if not bound < np.inf:
        raise ValueError(f"delta {delta!r} is too large: the bound delta/m "
                         f"with m = {m!r} is not finite")
    run = _run_pool(seed)
    if not delta:  # every deviation is exactly 0, whatever is drawn; -0.0 reads as 0.0
        return RobustnessReport(0.0, m, 0.0, trials, {}, 0.0, 0)

    _, probabilities, _, signal, _ = (a[0] for a in weak_values_batch(rho.matrix[None]))
    joint = np.kron(rho.matrix, rho.matrix)
    outcome_rows = np.flatnonzero(signal)
    columns = joint[:, signal] / probabilities[signal]
    column_norms = np.linalg.norm(columns, axis=0)
    # the screen's per-request factors
    column_slack, column_tiny = _GAMMA * column_norms, _TINY * (1 + column_norms)
    delta_high, delta_low = delta * (1 + _SLACK), delta * (1 - _SLACK)
    worst = np.zeros(len(outcome_rows))
    violations = 0
    streams = _child_streams(run, trials)
    draws = np.empty((CHUNK, 2, 16, 16))
    herm, chosen, stack = np.empty((3, CHUNK, 16, 16), complex)
    rows = np.empty((CHUNK, len(outcome_rows), 16), complex)
    for lo in range(0, trials, CHUNK):
        n = min(CHUNK, trials - lo)
        part = _hermitian(itertools.islice(streams, n), draws, herm, stack)
        # mode="clip" lets take write into ``rows`` without a copy; no index clips
        picked = np.take(part, outcome_rows, axis=1, out=rows[:n], mode="clip")
        overlap = np.abs(np.einsum("tkl,lk->tk", picked, columns))
        rownorms, lower, upper = _trace_norm_bounds(part, stack)
        rownorms = rownorms[:, outcome_rows]
        slack = rownorms * column_slack
        underflow = (1 + rownorms) * column_tiny
        high = (overlap + slack) * (delta_high / lower)[:, None] + underflow
        low = (overlap - slack) * (delta_low / upper)[:, None] - underflow
        cut = np.minimum(np.maximum(worst, low.max(axis=0)), bound)
        solve = np.flatnonzero((high >= cut).any(axis=1))
        if not solve.size:
            continue
        part = np.take(part, solve, axis=0, out=chosen[:solve.size], mode="clip")
        picked = np.take(_scale(delta, part, stack), outcome_rows, axis=1,
                         out=rows[:solve.size], mode="clip")
        dev = np.abs(np.einsum("tkl,lk->tk", picked, columns))
        violations += int(np.count_nonzero(dev > bound))
        worst = np.maximum(worst, dev.max(axis=0))
    hit = worst > 0
    return RobustnessReport(
        delta=delta,
        m=m,
        bound=bound,
        trials=trials,
        deviations=dict(zip((outcome_rows[hit] + 1).tolist(), worst[hit].tolist())),
        margin=float(np.min(bound - worst[hit])) if hit.any() else bound,
        violations=violations,
    )
