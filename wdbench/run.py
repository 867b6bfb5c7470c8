#!/usr/bin/env python3
"""Benchmark of the weakdetect CLI.

    python3 wdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One client drives ``weakdetect.cli.main(argv)`` in this process in
a closed loop (the next request starts when the previous one returned) for
S seconds, with BLAS/OpenMP pinned to one thread.  Every document is checked
against the benchmark's own references (see workloads.py).

``--trace 0`` reports the end-to-end metrics, with timings scaled to the
speed of a reference host (see calibration.py).  ``--trace 1`` alternates
untraced and traced cycles of requests for S seconds and reports per-layer
metrics plus the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PINNED_THREADS = "1"
for _var in THREAD_VARS:  # before numpy loads BLAS, here and in child processes
    os.environ[_var] = PINNED_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"

SETUPS = 5  # fresh-interpreter set-ups per run; setup_s is their median
CHUNKS = 5  # timing figures are medians over this many slices of a run
TAIL_SLICE_MIN = 200  # requests a slice needs before its own tail is taken
SETUP_TIMEOUT_S = 150
SETUP_CODE = "import sys\nfrom weakdetect.cli import main\nsys.exit(main(sys.argv[1:]))"

LAYERS = ("qmat", "states", "protocol", "pointer", "circuit", "robustness", "cli")
PATHS = ("General", "CaseI", "CaseII", "PureLocal")
# Functions reported one by one: self time per request and p50 per call.
NAMED = (
    "states.validate", "states.ppt_oracle", "states.trace_distance",
    "states.random_mixed", "states.state_from_json_dict",
    "protocol.detect", "protocol.weak_values_all", "protocol.reconstruct",
    "protocol.detect_pure_local", "pointer.estimate_weak_values",
    "robustness.bound_check", "robustness.random_perturbation",
    "circuit.verify_equivalence", "cli.build_parser", "cli.render",
)
COUNTED = (
    "pointer.evolve_and_postselect", "pointer.gaussian_pointer", "pointer.translate",
    "robustness.random_perturbation", "circuit.embed_gate",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "success_rate": "ratio",
    "verdict_agreement_rate": "ratio",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run in this directory."""


def import_package():
    if not (SRC / "weakdetect" / "__init__.py").is_file():
        raise BenchmarkError(f"no weakdetect sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import weakdetect
    if Path(weakdetect.__file__).resolve().parent != SRC / "weakdetect":
        raise BenchmarkError(f"weakdetect imported from {weakdetect.__file__}, not {SRC}")
    from weakdetect import circuit, cli, pointer, protocol, qmat, robustness, states
    return weakdetect, {"qmat": qmat, "states": states, "protocol": protocol,
                        "pointer": pointer, "circuit": circuit,
                        "robustness": robustness, "cli": cli}


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "pinned_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def invoke(cli, argv):
    """One request in process: exit code (None if main raised) and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:  # the loop must go on; the request counts as failed
            traceback.print_exc(file=err)
            code = None
    return code, out.getvalue(), err.getvalue()


def evaluate(req, code, stdout, stderr, props, digests):
    if code != req.expect_code:
        return workloads.Outcome(True, detail=f"{req.argv[0]}: exit {code}, expected "
                                 f"{req.expect_code}: {stderr.strip()[-300:]}")
    key = tuple(req.argv)
    digest = hashlib.sha256(stdout.encode()).digest()
    if digests.setdefault(key, digest) != digest:
        return workloads.Outcome(True, detail=f"{req.argv[0]}: repeated request "
                                 "gave a different document")
    try:
        return req.check(json.loads(stdout), props)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return workloads.Outcome(True, detail=f"{req.argv[0]}: malformed document ({exc!r})")


class Phase:
    """Results of one closed-loop phase."""

    def __init__(self):
        self.props = workloads.Props()
        self.latency: list[float] = []
        self.at: list[float] = []  # start of each request, perf_counter seconds
        self.outcomes = []
        self.requests = []
        self.traced: list[bool] = []
        self.codes: Counter = Counter()
        self.output_bytes = 0
        self.pool = 0  # distinct requests available before inputs repeat


def closed_loop(cli, workload, seconds, digests, phase, tracer=None, speed=None) -> Phase:
    """Run requests until ``seconds`` have passed.  With a tracer, whole
    cycles alternate between untraced and traced, so both halves see the
    same mix under the same load.  With a speedometer, the reference kernel
    is timed between requests."""
    reqs = workload.requests
    phase.pool = len(reqs)
    clock = time.perf_counter
    deadline = clock() + seconds
    traced = False
    i = 0
    while clock() < deadline:
        req = reqs[i % len(reqs)]
        if tracer is not None:
            if i % workload.cycle == 0:
                traced = (i // workload.cycle) % 2 == 1
                if traced:
                    tracer.install()
                else:
                    tracer.uninstall()
            tracer.request_id = i
        if speed is not None:
            speed.sample(clock())
        t0 = clock()
        code, stdout, stderr = invoke(cli, req.argv)
        phase.latency.append(clock() - t0)
        phase.at.append(t0)
        phase.traced.append(traced)
        phase.requests.append(req)
        phase.codes[code] += 1
        phase.output_bytes += len(stdout.encode())
        phase.outcomes.append(evaluate(req, code, stdout, stderr, phase.props, digests))
        i += 1
    return phase


def measured(phase: Phase, cycle: int) -> int:
    """Requests in the complete cycles of a phase (all, if none completed)."""
    whole = len(phase.latency) // cycle * cycle
    return whole or len(phase.latency)


def slices(n: int, cycle: int, count: int) -> list[list[int]]:
    """Split the first n requests into ``count`` runs of whole cycles."""
    cycles = max(1, n // cycle)
    count = max(1, min(count, cycles))
    bounds = [k * cycles // count * cycle for k in range(count)] + [n]
    return [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]


def tail(latency: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 samples beyond it,
    and that percentile."""
    ordered = sorted(latency)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timing_figures(lat: list[float], cycle: int) -> tuple[dict, dict]:
    """Throughput, p50 and tail of the latencies ``lat``, and how they were
    taken.  They are medians over slices of the run, so a burst of load
    from outside moves at most a minority of them.  The tail is taken per
    slice only where every slice holds TAIL_SLICE_MIN requests, so that it
    stays a high percentile."""
    n = len(lat)
    parts = [[lat[i] for i in part] for part in slices(n, cycle, CHUNKS)]
    tail_parts = [[lat[i] for i in part]
                  for part in slices(n, cycle, min(CHUNKS, n // TAIL_SLICE_MIN))]
    tails = [tail(part) for part in tail_parts]
    figures = {
        "requests_per_s": statistics.median(len(part) / sum(part) for part in parts),
        "request_p50_ms": 1e3 * statistics.median(statistics.median(part) for part in parts),
        "request_tail_ms": 1e3 * statistics.median(value for value, _ in tails),
    }
    how = {
        "request_tail_percentile": (min(pct for _, pct in tails), "%"),
        "request_tail_samples": (min(len(part) for part in tail_parts), "count/slice"),
        "request_tail_slices": (len(tails), "count"),
        "timing_slices": (len(parts), "count"),
    }
    return figures, how


def end_to_end(phase: Phase, cycle: int, setup_times: list[float], setup_slowdown: float,
               speed: calibration.Speedometer) -> tuple[dict, dict]:
    """Timing figures are scaled to the reference host's speed (see
    calibration.py); the measured ones are printed beside them."""
    n = measured(phase, cycle)
    raw = phase.latency[:n]
    slowdown = [speed.slowdown(at, at + t) for at, t in zip(phase.at[:n], raw)]
    timing, how = timing_figures([t / f for t, f in zip(raw, slowdown)], cycle)
    raw_timing, _ = timing_figures(raw, cycle)
    outcomes = phase.outcomes[:n]
    failed = sum(o.failed for o in outcomes)
    judged = sum(o.judged for o in outcomes)
    mismatched = sum(o.mismatched for o in outcomes)
    values = {
        "setup_s": statistics.median(setup_times) / setup_slowdown,
        **timing,
        "success_rate": 1.0 - failed / n,
        "verdict_agreement_rate": 1.0 - mismatched / judged if judged else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "fail_rate": (failed / n, "ratio"),
        "verdict_mismatch_rate": (mismatched / judged if judged else 0.0, "ratio"),
        **how,
        "measured_setup_s": (statistics.median(setup_times), "s"),
        **{f"measured_{name}": (value, END_TO_END_UNITS[name]) for name, value in raw_timing.items()},
        "host_slowdown": (statistics.median(slowdown), "ratio"),
        "host_slowdown_range": (max(slowdown) - min(slowdown), "ratio"),
        "setup_host_slowdown": (setup_slowdown, "ratio"),
        "reference_kernel_samples": (len(speed.times), "count"),
        "requests_measured": (n, "count"),
        "input_repeat_share": (max(0, len(phase.latency) - phase.pool) / len(phase.latency), "share"),
        "states_judged": (judged, "count"),
        "setup_runs": (len(setup_times), "count"),
    }
    return values, extra


def share(part, whole) -> float:
    return part / whole if whole else 0.0


def per_layer(tracer, phase: Phase, cycle: int) -> dict:
    """Per-layer figures of the traced requests, normalised per request or
    per state; counters from documents cover every request of the run."""
    summary = tracer.summary()
    n = sum(phase.traced)
    # The overhead compares whole cycles only, so both sides hold the same mix.
    whole = measured(phase, cycle)
    traced_lat = [lat for lat, on in zip(phase.latency[:whole], phase.traced) if on]
    untraced_lat = [lat for lat, on in zip(phase.latency[:whole], phase.traced) if not on]
    states = sum(req.states for req, on in zip(phase.requests, phase.traced) if on)
    props = phase.props

    def total(name, key):
        return summary.get(name, {}).get(key, 0.0)

    def layer_total(layer, key):
        return sum(v[key] for name, v in summary.items() if name.split(".")[0] == layer)

    def kernels(layer, labels):
        return sum(tracer.kernel_calls.get((layer, label), 0) for label in labels)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (share(layer_total(layer, "calls"), n), "calls/req")
        m[f"{layer}.self_ms"] = (1e3 * share(layer_total(layer, "self_s"), n), "ms/req")
    m["qmat.eigh_calls"] = (share(kernels("qmat", ("eigh", "eigvalsh")), n), "calls/req")
    for name in NAMED:
        m[f"{name}.self_ms"] = (1e3 * share(total(name, "self_s"), n), "ms/req")
        m[f"{name}.p50_us"] = (1e6 * total(name, "p50_s"), "us")
    # cli.main: argv to document inside cli's own code, without child layers
    # and without the two cli functions reported on their own.
    m["cli.main.self_ms"] = (1e3 * share(layer_total("cli", "self_s") - total("cli.build_parser", "self_s")
                                        - total("cli.render", "self_s"), n), "ms/req")
    for name in COUNTED:
        m[f"{name}.calls"] = (share(total(name, "calls"), n), "calls/req")
    m["protocol.build_hamiltonian.calls_per_state"] = (
        share(total("protocol.build_hamiltonian", "calls"), states), "calls/state")
    m["protocol.kron_calls_per_state"] = (share(kernels("protocol", ("kron",)), states), "calls/state")
    decisions = sum(props.count[f"trace_path.{p}"] for p in PATHS)
    for p in PATHS:
        m[f"protocol.path.{p}"] = (share(props.count[f"trace_path.{p}"], decisions), "share")
    detects = total("protocol.detect", "calls")
    fallbacks = tracer.spans_with_ancestor(
        ("protocol.element_ratio", "protocol.RatioSet.from_state"), "protocol.detect")
    m["protocol.fallback_ratio"] = (share(fallbacks, detects), "share")
    m["protocol.silent_outcome_share"] = (
        share(props.count["trace_silent"], 16 * total("protocol.weak_values_all", "calls")), "share")
    m["pointer.fft_calls"] = (share(kernels("pointer", ("fft", "ifft")), n), "calls/req")
    m["pointer.fft_points"] = (share(tracer.fft_points.get("pointer", 0), n), "points/req")
    m["pointer.max_err_over_eps"] = (props.high.get("max_err_over_eps", 0.0), "ratio")
    m["pointer.halving_ratio_min"] = (props.low.get("halving_ratio", 0.0), "ratio")
    pointer_requests = props.count["pointer_requests"]
    m["pointer.config_repeat_share"] = (share(props.count["config_repeats"], pointer_requests), "share")
    for rank in (1, 16):
        m[f"pointer.joint_rank.{rank}"] = (share(props.count[f"rank.{rank}"], pointer_requests), "share")
    # One random_perturbation call per trial.
    m["robustness.trials_per_s"] = (share(total("robustness.random_perturbation", "calls"),
                                          total("robustness.bound_check", "total_s")), "1/s")
    m["robustness.min_margin_over_bound"] = (props.low.get("margin_over_bound", 0.0), "ratio")
    m["circuit.max_deviation"] = (props.high.get("circuit_deviation", 0.0), "abs")
    m["cli.output_bytes"] = (share(phase.output_bytes, len(phase.latency)), "B/req")
    for code in (0, 1, 2, 3):
        m[f"cli.exit_code.{code}"] = (share(phase.codes.get(code, 0), len(phase.latency)), "share")
    untraced_ms = 1e3 * statistics.fmean(untraced_lat) if untraced_lat else 0.0
    traced_ms = 1e3 * statistics.fmean(traced_lat) if traced_lat else 0.0
    m["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms/req")
    m["trace.overhead_share"] = (share(traced_ms - untraced_ms, untraced_ms), "share")
    m["trace.spans_per_req"] = (share(len(tracer.span_start), n), "spans/req")
    m["trace.unwrapped_functions"] = (sum("(property)" not in u for u in tracer.unwrapped), "count")
    return m


def trace_observers(props):
    """Return values the traced run inspects: decision paths and silent
    outcomes, which documents of ``benchmark`` requests do not show."""
    def decision(report):
        props.count[f"trace_path.{report.path.value}"] += 1

    def weak_values(wv):
        props.count["trace_silent"] += 16 - len(wv.values)

    return {"protocol.detect": decision, "protocol.detect_pure_local": decision,
            "protocol.weak_values_all": weak_values}


def setup_once(argv, expected_stdout: str):
    """Fresh interpreter: import weakdetect and complete the first request.
    Returns the wall time and whether it printed the in-process document."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.stdout != expected_stdout:
        return elapsed, workloads.Outcome(True, detail=(
            f"set-up run of {argv[0]} printed another document than the in-process "
            f"run (exit {proc.returncode}): {proc.stderr[-300:]}"))
    return elapsed, workloads.Outcome()


def run_benchmark(workload_name, seed, seconds, trace, *, small=False, setups=SETUPS,
                  emit=print) -> dict:
    package, modules = import_package()
    cli = modules["cli"]
    OUT_DIR.mkdir(exist_ok=True)
    emit(f"env: {json.dumps(environment(), sort_keys=True)}")
    with tempfile.TemporaryDirectory(prefix="inputs-", dir=OUT_DIR) as workdir:
        workload = workloads.build(workload_name, seed, Path(workdir), seconds, small)
        digests: dict = {}
        warm = Phase()
        first_stdout = None
        for req in workload.requests[:workload.warmup]:
            code, stdout, stderr = invoke(cli, req.argv)
            first_stdout = stdout if first_stdout is None else first_stdout
            warm.outcomes.append(evaluate(req, code, stdout, stderr, warm.props, digests))
        if trace:
            phase = Phase()
            tracer = tracing.Tracer(modules, namespaces=(package,),
                                    observers=trace_observers(phase.props))
            try:
                closed_loop(cli, workload, seconds, digests, phase, tracer)
            finally:
                tracer.uninstall()
            phases = (warm, phase)
            metrics = per_layer(tracer, phase, workload.cycle)
            spans_path = OUT_DIR / f"spans-{workload_name}.npz"
            tracer.save(spans_path)
            emit(f"spans: {len(tracer.span_start)} written to {spans_path.relative_to(ROOT)}")
            for name in tracer.unwrapped:
                emit(f"not wrapped: {name}")
            emit_functions(tracer, emit)
        else:
            setup_times = []
            setup_speed = calibration.Speedometer()
            for _ in range(setups):
                elapsed, outcome = setup_once(workload.requests[0].argv, first_stdout)
                setup_speed.sample(time.perf_counter(), force=True)
                setup_times.append(elapsed)
                warm.outcomes.append(outcome)
            speed = calibration.Speedometer()
            phase = closed_loop(cli, workload, seconds, digests, Phase(), speed=speed)
            phases = (warm, phase)
            values, extra = end_to_end(phase, workload.cycle, setup_times,
                                       setup_speed.overall(), speed)
            metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
            for name, (value, unit) in extra.items():
                emit(f"info {name}: {value:.6g} {unit}")
            emit_props(phase.props, emit)
    outcomes = [o for p in phases for o in p.outcomes]
    unexpected = [o for o in outcomes if o.unexpected]
    known = Counter(o.known for o in outcomes if o.known)
    for kind, count in sorted(known.items()):
        emit(f"known defect {kind}: {count} requests")
    for o in unexpected[:5]:
        emit(f"FAILED: {o.detail}")
    for name, (value, unit) in metrics.items():
        emit(f"{name}: {value:.6g} {unit}")
    return {
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": len(unexpected),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def emit_props(props, emit) -> None:
    for key, value in sorted(props.count.items()):
        emit(f"count {key}: {value}")
    for key, value in sorted(props.low.items()):
        emit(f"min {key}: {value:.6g}")
    for key, value in sorted(props.high.items()):
        emit(f"max {key}: {value:.6g}")


def emit_functions(tracer, emit) -> None:
    for name, row in sorted(tracer.summary().items()):
        if row["calls"]:
            emit(f"fn {name}: calls {row['calls']} self {1e3 * row['self_s']:.3f} ms "
                 f"p50 {1e6 * row['p50_s']:.1f} us")
    for (layer, label), count in sorted(tracer.kernel_calls.items()):
        emit(f"kernel {layer}.{label}: {count} calls")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"wdbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
