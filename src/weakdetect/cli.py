"""Command-line front end.

Every command builds a JSON document first; text and CSV output are
renderings of that document, never separate code paths. Exit codes:
0 success, 1 I/O or parse failure, 2 invalid state.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import circuit, pointer, protocol, robustness, states

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID_STATE = 2

_NEEDS_INPUT = {"validate", "detect", "detect-pure", "tomo", "pointer-sim", "robustness"}

CIRCUIT_EPSILONS = (1e-3, 1e-2, 0.1, 0.5, 1.0)

# States per stacked pass of ``benchmark``. A pass holds about 3 kB per
# state, so this bounds memory for any --trials; 256 runs as fast as one
# pass of 1000 and keeps the peak resident set at that of a per-state loop.
BENCHMARK_CHUNK = 256


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the documented parse-failure
    # code is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"weakdetect: error: {message}\n")


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _non_negative(text: str) -> float:
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # Every command takes the same flags, so one flat parser serves them all;
    # flags may come before or after the command.
    parser = _Parser(prog="weakdetect", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", dest="input_path", metavar="PATH", default=None)
    parser.add_argument("--epsilon", type=_finite, default=1e-3)
    parser.add_argument("--sigma", type=_finite, default=1.0)
    parser.add_argument("--grid-n", type=int, default=4096)
    parser.add_argument("--grid-l", type=_finite, default=40.0)
    parser.add_argument("--seed", type=_count, default=0)
    parser.add_argument("--trials", type=_count, default=1000)
    parser.add_argument("--delta", type=_non_negative, default=1e-2)
    parser.add_argument("--tol-det", dest="tol_det", type=_non_negative, default=None)
    parser.add_argument("--format", dest="output", choices=("json", "text", "csv"),
                        default="json")
    return parser


class _UsageError(ValueError):
    pass


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_state(cfg: argparse.Namespace) -> states.TwoQubitState:
    return states.state_from_json_dict(_load_json(cfg.input_path))


def _tau_det(cfg: argparse.Namespace) -> float:
    return cfg.tol_det if cfg.tol_det is not None else states.TAU_DET


def _sim_config(cfg: argparse.Namespace, epsilon: float | None = None) -> pointer.SimConfig:
    grid = pointer.PointerGrid(n=cfg.grid_n, half_extent=cfg.grid_l)
    return pointer.SimConfig(
        epsilon=cfg.epsilon if epsilon is None else epsilon,
        sigma=cfg.sigma,
        grid=grid,
    )


def _pair(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


def cmd_validate(cfg: argparse.Namespace):
    try:
        rho = _load_state(cfg)
    except states.StateValidationError as exc:
        doc = {
            "command": "validate",
            "valid": False,
            "error_kind": type(exc).__name__,
            "message": str(exc),
        }
        return doc, None, EXIT_INVALID_STATE
    doc = {
        "command": "validate",
        "valid": True,
        "diagonal": [float(d) for d in rho.diagonal()],
        "trace": float(np.trace(rho.matrix).real),
        "min_eigenvalue": float(np.linalg.eigvalsh(rho.matrix)[0]),
    }
    return doc, None, EXIT_OK


def cmd_detect(cfg: argparse.Namespace):
    rho = _load_state(cfg)
    report = protocol.detect(rho, tau_det=_tau_det(cfg))
    return report.to_json_dict(), None, EXIT_OK


def cmd_detect_pure(cfg: argparse.Namespace):
    psi = states.amplitudes_from_json_dict(_load_json(cfg.input_path))
    report = protocol.detect_pure_local(psi)
    return report.to_json_dict(), None, EXIT_OK


def cmd_tomo(cfg: argparse.Namespace):
    rho = _load_state(cfg)
    _, _, values, defined, diagonal = protocol.weak_values_batch(rho.matrix[None])
    rebuilt = states.TwoQubitState(protocol.reconstruct_batch(values, defined, diagonal)[0])
    doc = {
        "command": "tomo",
        "trace_distance": states.trace_distance(rho, rebuilt),
        "diagonal": diagonal[0].tolist(),
        "reconstructed": states.state_to_json_dict(rebuilt),
    }
    return doc, None, EXIT_OK


def cmd_pointer_sim(cfg: argparse.Namespace):
    rho = _load_state(cfg)
    if 0 < cfg.epsilon < 2 * np.finfo(float).tiny:  # the readout at epsilon / 2 needs it normal
        raise _UsageError(f"epsilon {cfg.epsilon!r} is out of range: epsilon / 2 must be normal")
    flipped, probabilities, exact, defined, _ = (
        a[0] for a in protocol.weak_values_batch(rho.matrix[None]))
    try:
        read, estimates, postselect = pointer.estimate_weak_values(
            flipped, probabilities, defined, _sim_config(cfg))
        read_half, estimates_half, _ = pointer.estimate_weak_values(
            flipped, probabilities, defined, _sim_config(cfg, epsilon=cfg.epsilon / 2))
    except ValueError as exc:  # the pointer module's own range checks on the flags
        raise _UsageError(str(exc)) from exc
    outcomes = {}
    errors, errors_half = [], []
    for j in np.flatnonzero(read):
        exact_value = complex(exact[j])
        estimate = complex(estimates[j])
        err = abs(estimate - exact_value)
        errors.append(err)
        entry = {
            "estimate": _pair(estimate),
            "exact": _pair(exact_value),
            "abs_error": float(err),
            "postselect_prob": float(postselect[j]),
        }
        if read_half[j]:
            err_half = abs(complex(estimates_half[j]) - exact_value)
            errors_half.append(err_half)
            entry["abs_error_half"] = float(err_half)
        outcomes[str(j + 1)] = entry
    max_err = max(errors, default=0.0)
    max_err_half = max(errors_half, default=0.0)
    ratio = float(max_err / max_err_half) if max_err_half > 0 else None
    doc = {
        "command": "pointer-sim",
        "epsilon": cfg.epsilon,
        "sigma": cfg.sigma,
        "grid_n": cfg.grid_n,
        "grid_l": cfg.grid_l,
        "max_abs_error": float(max_err),
        "max_abs_error_half_epsilon": float(max_err_half),
        "convergence_ratio": ratio,
        "outcomes": outcomes,
    }
    rows = [
        [k, *entry["estimate"], *entry["exact"], entry["abs_error"]]
        for k, entry in sorted(outcomes.items(), key=lambda kv: int(kv[0]))
    ]
    return doc, rows, EXIT_OK


def cmd_circuit_verify(cfg: argparse.Namespace):
    eps_grid = sorted(set(CIRCUIT_EPSILONS) | {cfg.epsilon})
    per_eps = {}
    for eps in eps_grid:
        per_eps[repr(eps)] = {
            "circuit_vs_unitary": circuit.verify_equivalence(eps),
            "unitary_vs_exponential": circuit.unitary_vs_hamiltonian(eps),
        }
    doc = {
        "command": "circuit-verify",
        "epsilons": [float(e) for e in eps_grid],
        "max_deviation": max(
            max(v.values()) for v in per_eps.values()
        ),
        "per_epsilon": per_eps,
    }
    rows = [
        [eps, per_eps[repr(eps)]["circuit_vs_unitary"],
         per_eps[repr(eps)]["unitary_vs_exponential"]]
        for eps in eps_grid
    ]
    return doc, rows, EXIT_OK


def cmd_robustness(cfg: argparse.Namespace):
    rho = _load_state(cfg)
    try:
        report = robustness.bound_check(rho, cfg.delta, cfg.trials, cfg.seed)
    except robustness.RankDeficientError:
        raise
    except ValueError as exc:  # the robustness module's own range checks on the flags
        raise _UsageError(str(exc)) from exc
    doc = {"command": "robustness", **report.to_json_dict()}
    return doc, report.csv_rows(), EXIT_OK


def cmd_benchmark(cfg: argparse.Namespace):
    rng = np.random.default_rng(cfg.seed)
    tau = _tau_det(cfg)
    n = cfg.trials
    try:
        verdict = np.empty(n, dtype=bool)
        oracle = np.empty(n, dtype=bool)
        path = np.empty(n, dtype=int)
        distance = np.empty(n)
    except (MemoryError, ValueError) as exc:  # numpy refuses the size before touching memory
        raise _UsageError(f"--trials {n} is too large: {exc}") from exc
    for lo in range(0, n, BENCHMARK_CHUNK):
        hi = min(lo + BENCHMARK_CHUNK, n)
        stack = states.random_mixed_batch(rng, hi - lo)
        report = protocol.detect_batch(stack, tau_det=tau)
        rebuilt = protocol.reconstruct_batch(report.weak_values, report.defined, report.diagonal)
        verdict[lo:hi] = report.entangled
        path[lo:hi] = report.path
        oracle[lo:hi] = states.ppt_entangled(stack, tau=tau)
        distance[lo:hi] = states.trace_distance_batch(stack, rebuilt)
    names = ("separable", "entangled")
    counts = np.bincount(2 * verdict + oracle, minlength=4).tolist()
    agreement = {f"{names[v]}_{names[o]}": counts[2 * v + o] for v in (0, 1) for o in (0, 1)}
    mismatches = int(np.count_nonzero(verdict != oracle))
    distances = distance.tolist()
    doc = {
        "command": "benchmark",
        "trials": n,
        "seed": cfg.seed,
        "agreement": agreement,
        "mismatches": mismatches,
        "agreement_rate": (n - mismatches) / n if n else 1.0,
        "paths": dict(zip((p.value for p in protocol.BATCH_PATHS),
                          np.bincount(path, minlength=len(protocol.BATCH_PATHS)).tolist())),
        "reconstruction": {
            "max_trace_distance": max(distances, default=0.0),
            "mean_trace_distance": float(sum(distances) / n) if n else 0.0,
        },
    }
    if cfg.output != "csv":  # only the csv rendering reads the per-trial rows
        return doc, None, EXIT_OK
    rows = list(zip(range(n), np.where(verdict, "Entangled", "Separable").tolist(),
                    np.where(oracle, "Entangled", "Separable").tolist(),
                    (verdict == oracle).astype(int).tolist(), distances))
    return doc, rows, EXIT_OK


_HANDLERS = {
    "validate": cmd_validate,
    "detect": cmd_detect,
    "detect-pure": cmd_detect_pure,
    "tomo": cmd_tomo,
    "pointer-sim": cmd_pointer_sim,
    "circuit-verify": cmd_circuit_verify,
    "robustness": cmd_robustness,
    "benchmark": cmd_benchmark,
}
COMMANDS = tuple(_HANDLERS)


def _flatten(doc, prefix: str = "") -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            items.extend(_flatten(value, f"{prefix}{key}." if prefix else f"{key}."))
    else:
        items.append((prefix.rstrip("."), doc))
    return items


def render(doc: dict, rows, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, separators=(", ", ": "))
    if fmt == "text":
        return "\n".join(f"{key}: {value}" for key, value in _flatten(doc))
    # csv: native rows when the command has a tabular form, else key,value
    if rows is not None:
        return "\n".join(",".join(repr(float(c)) if isinstance(c, float) else str(c)
                                  for c in row) for row in rows)
    return "\n".join(f"{key},{value}" for key, value in _flatten(doc))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if args.command in _NEEDS_INPUT and args.input_path is None:
            raise _UsageError(f"{args.command} requires --input PATH")
        doc, rows, code = _HANDLERS[args.command](args)
    except (_UsageError, OSError, UnicodeDecodeError, json.JSONDecodeError,
            states.SchemaError) as exc:
        print(f"weakdetect: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (states.StateValidationError, robustness.RankDeficientError,
            protocol.NoSignalError) as exc:
        print(f"weakdetect: invalid state: {exc}", file=sys.stderr)
        return EXIT_INVALID_STATE
    print(render(doc, rows, args.output))
    return code


def main_entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull so the interpreter's
        # flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_IO
    sys.exit(code)
