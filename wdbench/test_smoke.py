"""Tests of the benchmark itself; run with ``python3 -m pytest wdbench``.

Each workload runs at its smallest size (a few requests of reduced size),
untraced and traced.  The result line must carry every metric that
BENCHMARK.json names, with the same unit, whatever the seed; a new seed must
give new inputs.
"""

import json
import types
from pathlib import Path

import pytest

import calibration
import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def quiet(_line: str) -> None:
    pass


def test_spec_lists_the_workloads_and_metrics_the_harness_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS)
    assert units("end_to_end") == run.END_TO_END_UNITS


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
@pytest.mark.parametrize("trace", [False, True])
def test_smallest_size_reports_every_metric(name, trace):
    expected = units("per_layer" if trace else "end_to_end")
    for seed in (1, 2):
        result = run.run_benchmark(name, seed, 0.2, trace, small=True, setups=1, emit=quiet)
        assert result["correct"]
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_seed_changes_inputs(name, tmp_path):
    def inputs(seed):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        workload = workloads.build(name, seed, workdir, 1.0, small=True)
        files = sorted(p.read_text() for p in Path(workdir).iterdir())
        return [req.argv[0] for req in workload.requests], files, workload

    commands_1, files_1, w1 = inputs(1)
    commands_2, files_2, w2 = inputs(2)
    assert commands_1 == commands_2
    assert files_1 != files_2 or [r.argv for r in w1.requests] != [r.argv for r in w2.requests]


def test_boundary_stream_shows_the_known_defects(tmp_path):
    workload = workloads.build("boundary-stream", 3, tmp_path, 1.0, small=True)
    outcomes = []
    props = workloads.Props()
    _, modules = run.import_package()
    for req in workload.requests:
        code, stdout, stderr = run.invoke(modules["cli"], req.argv)
        outcomes.append(run.evaluate(req, code, stdout, stderr, props, {}))
    known = {o.known for o in outcomes if o.failed}
    assert known == {workloads.KNOWN_GATE, workloads.KNOWN_TOMO_X}
    assert not any(o.unexpected for o in outcomes)


def test_tracer_wraps_names_and_reports_references_it_cannot_patch():
    module = types.ModuleType("fake")
    exec("def f():\n    return g() + 1\n\ndef g():\n    return 1\n", module.__dict__)
    held = [module.g]  # a reference outside every namespace the tracer patches
    t = tracer.Tracer({"fake": module})
    t.install()
    try:
        assert module.f() == 2
    finally:
        t.uninstall()
    summary = t.summary()
    assert summary["fake.f"]["calls"] == 1 and summary["fake.g"]["calls"] == 1
    assert summary["fake.f"]["self_s"] <= summary["fake.f"]["total_s"]
    assert any(u.startswith("fake.g ") for u in t.unwrapped)
    assert module.g is held[0]


def test_speedometer_scales_by_the_kernel_time_near_each_request():
    speed = calibration.Speedometer()
    ref = calibration.REFERENCE_KERNEL_S
    # slow (2x) for the first 10 s, then at reference speed
    speed.times = [0.5 * i for i in range(40)]
    speed.kernel_s = [2 * ref if t < 10 else ref for t in speed.times]
    assert speed.slowdown(3.0, 3.1) == pytest.approx(2.0)
    assert speed.slowdown(16.0, 16.1) == pytest.approx(1.0)
    assert speed.slowdown(7.5, 12.0) == pytest.approx(1.5)  # a long request spans both
    assert speed.slowdown(100.0, 100.1) == pytest.approx(1.0)  # past the last sample
    fresh = calibration.Speedometer()
    fresh.sample(0.0)
    fresh.sample(0.0)  # too soon after the first: no second sample
    assert len(fresh.times) == 1 and fresh.kernel_s[0] > 0
