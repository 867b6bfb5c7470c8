"""The four benchmark workloads: inputs, reference answers and output checks.

A workload turns a seed into a list of requests before any timing starts.
A request is the argv of one ``weakdetect`` CLI invocation, the exit code
the benchmark expects for it, and a check of the printed document against
references the benchmark computes itself with numpy: the partial-transpose
spectrum for verdicts, element ratios for weak values, and its own trace
distance for tomography.  No reference goes through the package, so a change
to the package's tolerances cannot move the references.

Requests come in cycles: each cycle holds every input kind of the workload
in fixed proportions, so a run that stops between cycles measures the same
mix whatever the seed.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ENTANGLED, SEPARABLE = "Entangled", "Separable"

# Inputs are drawn with |lambda_min(rho^TB)| >= REF_MARGIN, so the reference
# verdict never hinges on roundoff.  Diagonal states are the exception: the
# partial transpose of a diagonal matrix is itself, so their zero eigenvalues
# are exact and the reference (separable) is exact too.
REF_MARGIN = 1e-8

# Tolerances from the package README and acceptance criteria.
TOMO_TOL = 1e-8
POINTER_TOL_EPS = 5.0
HALVING_RANGE = (1.7, 4.3)
CIRCUIT_TOL = 1e-12
IDENTITY_TOL = 1e-9

# The absolute determinant gate ``detect`` uses today (states.TAU_DET).
DETECT_GATE = 1e-9

# Registered known defects.  A failure that falls in one of these classes
# counts against fail_rate but does not make the run incorrect; any other
# failure does.
KNOWN_GATE = "detect-gate"        # entangled state, |det rho^TB| below the gate
KNOWN_TOMO_X = "tomo-unmeasured-x"  # p = s = 0: no outcome measures x

# outcome k -> (row, col, diag): its weak value is rho[row, col] / rho[diag, diag]
RATIO_TABLE = {
    1: (1, 0, 0), 2: (0, 1, 1), 3: (3, 2, 2), 4: (2, 3, 3),
    5: (1, 0, 0), 6: (0, 1, 1), 7: (3, 2, 2), 8: (2, 3, 3),
    9: (2, 0, 0), 10: (3, 1, 1), 11: (0, 2, 2), 12: (1, 3, 3),
    13: (3, 0, 0), 14: (2, 1, 1), 15: (1, 2, 2), 16: (0, 3, 3),
}

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class Outcome:
    """What the benchmark concluded about one request."""

    failed: bool = False
    known: str | None = None  # defect class that explains a failure
    judged: int = 0           # verdicts compared with the reference
    mismatched: int = 0
    detail: str = ""

    @property
    def unexpected(self) -> bool:
        return self.failed and self.known is None


@dataclass
class Props:
    """Workload-property counters of one measured phase."""

    count: Counter = field(default_factory=Counter)
    low: dict = field(default_factory=dict)
    high: dict = field(default_factory=dict)
    seen: set = field(default_factory=set)

    def lowest(self, key: str, value: float) -> None:
        self.low[key] = min(value, self.low.get(key, math.inf))

    def highest(self, key: str, value: float) -> None:
        self.high[key] = max(value, self.high.get(key, -math.inf))


@dataclass
class Request:
    argv: list[str]
    check: Callable[[dict, Props], Outcome]
    expect_code: int = 0
    states: int = 1  # states the request processes


@dataclass
class Workload:
    requests: list[Request]
    cycle: int   # requests per cycle
    warmup: int  # requests run untimed before measuring


# --- references --------------------------------------------------------------


def partial_transpose(m: np.ndarray) -> np.ndarray:
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


@dataclass(frozen=True)
class Reference:
    rho: np.ndarray
    lam_min: float  # smallest eigenvalue of rho^TB
    det: float      # det(rho^TB)

    @property
    def verdict(self) -> str:
        return ENTANGLED if self.lam_min < 0 else SEPARABLE


def reference(rho: np.ndarray) -> Reference:
    pt = partial_transpose(rho)
    return Reference(rho, float(np.linalg.eigvalsh(pt)[0]), float(np.linalg.det(pt).real))


def is_diagonal(m: np.ndarray) -> bool:
    return not np.any(m - np.diag(np.diag(m)))


def unambiguous(ref: Reference) -> bool:
    return is_diagonal(ref.rho) or abs(ref.lam_min) >= REF_MARGIN


def trace_norm(m: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh((m + m.conj().T) / 2)).sum())


def ratio(rho: np.ndarray, k: int) -> complex:
    row, col, d = RATIO_TABLE[k]
    return complex(rho[row, col] / rho[d, d])


def ginibre(rng: np.random.Generator, n: int = 4) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = g @ g.conj().T
    return a / np.trace(a).real


def haar_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return v / np.linalg.norm(v)


def werner(p: float) -> np.ndarray:
    m = np.diag([(1 + p) / 4, (1 - p) / 4, (1 - p) / 4, (1 + p) / 4]).astype(complex)
    m[0, 3] = m[3, 0] = p / 2
    return m


def spread(u0: float, j: int) -> float:
    """Low-discrepancy point in [0, 1): every prefix of the sequence covers
    the interval evenly, so shares measured on any run length stay steady."""
    return (u0 + j * GOLDEN) % 1.0


def as_pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def write_state(path: Path, rho: np.ndarray) -> str:
    path.write_text(json.dumps({"matrix": [as_pairs(row) for row in rho]}))
    return str(path)


def pair(entry) -> complex:
    return complex(entry[0], entry[1])


# --- checks ------------------------------------------------------------------


def check_detect(ref: Reference):
    def check(doc: dict, props: Props) -> Outcome:
        props.count[f"path.{doc['path']}"] += 1
        props.count["outcomes"] += 16
        props.count["silent"] += 16 - len(doc["weak_values"])
        if doc["verdict"] == ref.verdict:
            return Outcome(judged=1)
        known = None
        if ref.verdict == ENTANGLED and -DETECT_GATE < ref.det <= 0.0:
            known = KNOWN_GATE
        return Outcome(True, known, 1, 1, f"detect {doc['verdict']}, reference "
                       f"{ref.verdict} (lambda_min {ref.lam_min:.2e}, det {ref.det:.2e})")
    return check


def check_detect_pure(ref: Reference):
    def check(doc: dict, props: Props) -> Outcome:
        props.count[f"path.{doc['path']}"] += 1
        if doc["verdict"] == ref.verdict and doc["path"] == "PureLocal":
            return Outcome(judged=1)
        return Outcome(True, None, 1, 1, f"detect-pure {doc['verdict']} via {doc['path']}, "
                       f"reference {ref.verdict}")
    return check


def check_tomo(rho: np.ndarray):
    diagonal = is_diagonal(rho)
    unmeasured_x = rho[0, 0] == 0 and rho[3, 3] == 0 and rho[1, 2] != 0

    def check(doc: dict, props: Props) -> Outcome:
        rebuilt = np.array([[pair(e) for e in row] for row in doc["reconstructed"]["matrix"]])
        distance = trace_norm(rho - rebuilt)
        props.highest("tomo_distance", distance)
        if diagonal and not is_diagonal(rebuilt):
            return Outcome(True, None, detail="tomo: nonzero off-diagonal for a diagonal state")
        if distance <= TOMO_TOL:
            return Outcome()
        return Outcome(True, KNOWN_TOMO_X if unmeasured_x else None,
                       detail=f"tomo: trace distance {distance:.2e}")
    return check


def check_benchmark(trials: int):
    def check(doc: dict, props: Props) -> Outcome:
        agreement = doc["agreement"]
        wrong = agreement["entangled_separable"] + agreement["separable_entangled"]
        if (sum(agreement.values()) != trials or doc["trials"] != trials
                or doc["mismatches"] != wrong
                or doc["agreement_rate"] != (trials - wrong) / trials):
            return Outcome(True, None, trials, wrong, "benchmark: inconsistent counts")
        props.highest("tomo_distance", doc["reconstruction"]["max_trace_distance"])
        if doc["reconstruction"]["max_trace_distance"] > TOMO_TOL:
            return Outcome(True, None, trials, wrong, "benchmark: round trip above tolerance")
        if wrong:
            # Only "called separable, oracle says entangled" is the gate defect.
            known = KNOWN_GATE if agreement["entangled_separable"] == 0 else None
            return Outcome(True, known, trials, wrong, f"benchmark: {wrong} mismatches")
        return Outcome(judged=trials)
    return check


def check_pointer(rho: np.ndarray, kind: str, eps: float, config: tuple):
    rank = int(np.linalg.matrix_rank(rho, tol=1e-10)) ** 2  # rank of rho x rho

    def check(doc: dict, props: Props) -> Outcome:
        props.count[f"rank.{rank}"] += 1
        props.count["pointer_requests"] += 1
        if config in props.seen:
            props.count["config_repeats"] += 1
        props.seen.add(config)
        worst = 0.0
        for key, entry in doc["outcomes"].items():
            exact = ratio(rho, int(key))
            if abs(pair(entry["exact"]) - exact) > IDENTITY_TOL * (1 + abs(exact)):
                return Outcome(True, detail=f"pointer-sim: outcome {key} exact value off")
            estimate = pair(entry["estimate"])
            if not np.isfinite(estimate):
                return Outcome(True, detail=f"pointer-sim: outcome {key} not finite")
            worst = max(worst, abs(estimate - exact))
        if kind == "pure":
            # Pure states carry large (anomalous) weak values, outside the
            # first-order regime the 5 epsilon tolerance was stated for.
            return Outcome()
        props.highest("max_err_over_eps", worst / eps)
        if worst > POINTER_TOL_EPS * eps:
            return Outcome(True, detail=f"pointer-sim: error {worst:.2e} above 5 eps")
        if kind == "ginibre":
            # Werner errors sit at roundoff, where the halving ratio is noise.
            ratio_half = doc["convergence_ratio"]
            props.lowest("halving_ratio", ratio_half)
            if not HALVING_RANGE[0] <= ratio_half <= HALVING_RANGE[1]:
                return Outcome(True, detail=f"pointer-sim: halving ratio {ratio_half:.2f}")
        return Outcome()
    return check


def check_robustness(rho: np.ndarray, delta: float, trials: int):
    bound = delta / float(np.min(np.diag(rho).real)) ** 2

    def check(doc: dict, props: Props) -> Outcome:
        props.count["robustness_trials"] += trials
        props.lowest("margin_over_bound", doc["margin"] / doc["bound"])
        if doc["trials"] != trials or abs(doc["bound"] - bound) > 1e-9 * bound:
            return Outcome(True, detail="robustness: trials or bound differ from the input")
        if doc["violations"] != 0 or max(doc["deviations"].values()) > bound:
            return Outcome(True, detail=f"robustness: {doc['violations']} bound violations")
        return Outcome()
    return check


def check_circuit(eps: float):
    def check(doc: dict, props: Props) -> Outcome:
        props.highest("circuit_deviation", doc["max_deviation"])
        if eps not in doc["epsilons"] or doc["max_deviation"] > CIRCUIT_TOL:
            return Outcome(True, detail=f"circuit-verify: deviation {doc['max_deviation']:.2e}")
        return Outcome()
    return check


# --- workloads ---------------------------------------------------------------


def ginibre_sweep(rng: np.random.Generator, workdir: Path, seconds: float, small: bool) -> Workload:
    """``benchmark --trials 1000`` with a fresh seed per request; every tenth
    request repeats the seed of the request nine before it, and its document
    must come back byte-identical."""
    trials = 20 if small else 1000
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=int(2 * seconds) + 12)]
    requests = []
    for j, seed in enumerate(seeds):
        if j % 10 == 9:
            seed = seeds[j - 9]
        argv = ["benchmark", "--trials", str(trials), "--seed", str(seed)]
        requests.append(Request(argv, check_benchmark(trials), states=trials))
    return Workload(requests, cycle=1, warmup=1)


def _weak_pure(j, u0):
    eta = 10.0 ** (-4.0 + 3.0 * spread(u0, j))
    amps = np.array([0.5, 0.5, 0.5, 0.5 + eta], dtype=complex)
    return amps / np.linalg.norm(amps)


def _werner_edge(j, u0):
    sign = 1.0 if j % 2 == 0 else -1.0
    return werner(1.0 / 3.0 + sign * 10.0 ** (-5.0 + 3.0 * spread(u0, j)))


def _rank_deficient(rng, j, u0):
    t = 10.0 ** (-8.0 + 6.0 * spread(u0, j))
    while True:
        psi = haar_vector(rng)
        rho = (1 - t) * np.outer(psi, psi.conj()) + t * ginibre(rng)
        rho = (rho + rho.conj().T) / 2
        if unambiguous(reference(rho)):
            return rho


_COHERENT_PAIRS = ((1, 2), (0, 3))  # CaseI (p = s = 0) and CaseII (q = r = 0)
_ALL_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _zero_diagonal(rng, j, u0):
    """States on two basis states: coherent on |01>,|10> or |00>,|11>, or
    diagonal on any pair."""
    kind = j % 3
    a, b = _COHERENT_PAIRS[kind] if kind < 2 else _ALL_PAIRS[(j // 3) % 6]
    while True:
        block = ginibre(rng, 2)
        if kind == 2:
            block = np.diag(np.diag(block))
        rho = np.zeros((4, 4), dtype=complex)
        rho[np.ix_((a, b), (a, b))] = block
        if unambiguous(reference(rho)):
            return rho


def boundary_stream(rng: np.random.Generator, workdir: Path, seconds: float, small: bool) -> Workload:
    """Single-state detect / tomo / detect-pure requests near the
    separability boundary and on degenerate diagonals."""
    offsets = rng.random(4)
    cycles = 20 if small else int(60 * seconds) + 20
    requests = []
    for j in range(cycles):
        psi = _weak_pure(j, offsets[0])
        family_states = (
            ("weak-pure", np.outer(psi, psi.conj())),
            ("werner-edge", _werner_edge(j, offsets[1])),
            ("rank-deficient", _rank_deficient(rng, j, offsets[2])),
            ("zero-diagonal", _zero_diagonal(rng, j, offsets[3])),
        )
        for family, rho in family_states:
            ref = reference(rho)
            path = write_state(workdir / f"{family}-{j}.json", rho)
            requests.append(Request(["detect", "--input", path], check_detect(ref)))
            requests.append(Request(["tomo", "--input", path], check_tomo(rho)))
            if family == "weak-pure":
                amp_path = workdir / f"{family}-{j}-amplitudes.json"
                amp_path.write_text(json.dumps({"amplitudes": as_pairs(psi)}))
                requests.append(Request(["detect-pure", "--input", str(amp_path)],
                                        check_detect_pure(ref)))
    return Workload(requests, cycle=9, warmup=9)


# (kind, grid) per cycle slot.  Pure states are cheap (one eigen-branch) and
# 16384 points cost about 4x 4096, so the slot mix puts the median inside
# one cost band instead of between two.
_POINTER_SLOTS = (
    ("pure", 4096), ("pure", 16384), ("ginibre", 4096), ("werner", 4096),
    ("ginibre", 16384), ("pure", 4096), ("ginibre", 4096), ("pure", 16384),
    ("ginibre", 16384), ("werner", 16384),
)
_POINTER_SETTINGS = tuple((sigma, eps) for sigma in (0.5, 1.0, 2.0)
                          for eps in (5e-4, 1e-3, 4e-3))


def pointer_readout(rng: np.random.Generator, workdir: Path, seconds: float, small: bool) -> Workload:
    """``pointer-sim`` over epsilon, sigma and grid size on full-rank
    (Ginibre), Werner and pure states."""
    cycles = 1 if small else int(seconds / 2) + 3
    requests = []
    for j in range(cycles * len(_POINTER_SLOTS)):
        kind, grid = _POINTER_SLOTS[j % len(_POINTER_SLOTS)]
        sigma, eps = _POINTER_SETTINGS[j % len(_POINTER_SETTINGS)]
        if small:
            grid = 1024
        if kind == "ginibre":
            rho = ginibre(rng)
        elif kind == "werner":
            rho = werner(float(rng.uniform(0.05, 0.95)))
        else:
            psi = haar_vector(rng)
            rho = np.outer(psi, psi.conj())
        path = write_state(workdir / f"pointer-{j}.json", rho)
        argv = ["pointer-sim", "--input", path, "--epsilon", repr(eps),
                "--sigma", repr(sigma), "--grid-n", str(grid)]
        requests.append(Request(argv, check_pointer(rho, kind, eps, (grid, sigma, eps))))
    return Workload(requests, cycle=len(_POINTER_SLOTS), warmup=2)


def interaction_check(rng: np.random.Generator, workdir: Path, seconds: float, small: bool) -> Workload:
    """``robustness --trials 1000`` at three deltas on full-rank states,
    interleaved with ``circuit-verify``."""
    trials = 20 if small else 1000
    cycles = 2 if small else int(3 * seconds) + 5
    requests = []
    for j in range(cycles):
        for delta in (1e-3, 1e-2, 1e-1):
            rho = ginibre(rng)
            path = write_state(workdir / f"robust-{j}-{delta}.json", rho)
            argv = ["robustness", "--input", path, "--delta", repr(delta),
                    "--trials", str(trials), "--seed", str(int(rng.integers(2**31 - 1)))]
            requests.append(Request(argv, check_robustness(rho, delta, trials)))
        eps = float(10.0 ** rng.uniform(-4.0, 0.0))
        requests.append(Request(["circuit-verify", "--epsilon", repr(eps)],
                                check_circuit(eps), states=0))
    return Workload(requests, cycle=4, warmup=4)


BUILDERS = {
    "ginibre-sweep": ginibre_sweep,
    "boundary-stream": boundary_stream,
    "pointer-readout": pointer_readout,
    "interaction-check": interaction_check,
}


def build(name: str, seed: int, workdir: Path, seconds: float, small: bool = False) -> Workload:
    return BUILDERS[name](np.random.default_rng(seed), Path(workdir), seconds, small)
