"""Acceptance criteria, one test per criterion.

Each test runs its criterion at the stated tolerance and prints one
PASS line (visible with ``pytest -s``); a failure shows up as a normal
pytest failure for that criterion.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from weakdetect.circuit import unitary_vs_hamiltonian, verify_equivalence
from weakdetect.pointer import (
    default_config,
    estimate_weak_values,
    moment_table,
    pointer_overlaps,
)
from weakdetect.protocol import (
    HAMILTONIAN,
    det_ptb_expansion,
    detect,
    detect_pure_local,
    weak_values_batch,
)
from weakdetect.robustness import bound_check, perturbations
from weakdetect.states import (
    Verdict,
    PureAmplitudes,
    bell_phi_plus,
    ppt_oracle,
    random_mixed,
    random_pure,
    trace_distance,
    validate,
    werner,
)

from conftest import det_ptb, exact_weak_value, negativity, round_trip

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

RATIO_ORACLE = {
    1: lambda m: np.conj(m[0, 1]) / m[0, 0].real,
    2: lambda m: m[0, 1] / m[1, 1].real,
    3: lambda m: np.conj(m[2, 3]) / m[2, 2].real,
    4: lambda m: m[2, 3] / m[3, 3].real,
    9: lambda m: np.conj(m[0, 2]) / m[0, 0].real,
    10: lambda m: np.conj(m[1, 3]) / m[1, 1].real,
    11: lambda m: m[0, 2] / m[2, 2].real,
    12: lambda m: m[1, 3] / m[3, 3].real,
    13: lambda m: np.conj(m[0, 3]) / m[0, 0].real,
    14: lambda m: np.conj(m[1, 2]) / m[1, 1].real,
    15: lambda m: m[1, 2] / m[2, 2].real,
    16: lambda m: m[0, 3] / m[3, 3].real,
}


def _report(n, message):
    print(f"\n[criterion {n:2d}] PASS - {message}")


def test_criterion_01_verdict_universality():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        rho = random_mixed(rng)
        if detect(rho).verdict is not ppt_oracle(rho):
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 10.0
    _report(1, f"1000/1000 verdict agreement with the eigenvalue oracle "
               f"in {elapsed:.2f}s")


def test_criterion_02_expansion_fidelity():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        rho = random_mixed(rng)
        lu = det_ptb(rho)
        rel = abs(det_ptb_expansion(rho) - lu) / abs(lu)
        worst = max(worst, rel)
        assert rel <= 1e-10
    _report(2, f"24-term polynomial on the matrix elements matches LU determinant on "
               f"1000 states (worst relative deviation {worst:.2e})")


def test_criterion_03_weak_value_identities():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        rho = random_mixed(rng)
        values, _, defined, _ = weak_values_batch(rho.matrix[None])
        assert defined.all()
        for k, oracle in RATIO_ORACLE.items():
            err = abs(values[0, k - 1] - oracle(rho.matrix))
            worst = max(worst, err)
            assert err <= 1e-12
        for k in (5, 6, 7, 8):
            assert abs(values[0, k - 1] - values[0, k - 5]) <= 1e-12
    _report(3, f"twelve ratio identities and the 5-8 redundancy hold on "
               f"200 states (worst error {worst:.2e})")


def test_criterion_04_tomography_round_trip():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        rho = random_mixed(rng)
        rebuilt = round_trip(rho)
        dist = trace_distance(rho, rebuilt)
        worst = max(worst, dist)
        assert dist <= 1e-8
    # diagonal states: off-diagonals exactly zero, diagonal from the
    # post-selection probabilities
    for _ in range(50):
        weights = rng.dirichlet(np.ones(4))
        rho = validate(np.diag(weights).astype(complex))
        rebuilt = round_trip(rho)
        off_diag = rebuilt.matrix - np.diag(np.diag(rebuilt.matrix))
        assert np.all(off_diag == 0)
        assert trace_distance(rho, rebuilt) <= 1e-12
    _report(4, f"1000 round trips within 1e-8 trace distance (worst {worst:.2e}); "
               f"diagonal states recovered exactly")


def test_criterion_05_named_state_values():
    bell = bell_phi_plus()
    assert det_ptb(bell) == pytest.approx(-1 / 16, abs=1e-12)
    assert negativity(bell) == pytest.approx(0.5, abs=1e-12)
    below = werner(1 / 3 - 1e-6)
    above = werner(1 / 3 + 1e-3)
    assert detect(below).verdict is Verdict.SEPARABLE
    assert detect(above).verdict is Verdict.ENTANGLED
    assert ppt_oracle(below) is Verdict.SEPARABLE
    assert ppt_oracle(above) is Verdict.ENTANGLED
    _report(5, "Bell determinant -1/16 and negativity 1/2; Werner verdict "
               "flips across the 1/3 mixing threshold")


def test_criterion_06_pointer_convergence():
    rng = np.random.default_rng(6)
    cfg_full = default_config(1e-3)
    cfg_half = default_config(5e-4)
    overlaps_zero = pointer_overlaps(default_config(0.0))[0]
    worst_err = 0.0
    ratios = []
    for _ in range(50):
        rho = random_mixed(rng)
        exact, _, defined, _ = weak_values_batch(rho.matrix[None])
        assert defined.all()

        def sweep_error(cfg):
            readouts = estimate_weak_values(rho, cfg)
            return max(abs(r.estimate - exact[0, r.k - 1]) for r in readouts)

        err_full = sweep_error(cfg_full)
        err_half = sweep_error(cfg_half)
        worst_err = max(worst_err, err_full)
        assert err_full <= 5 * cfg_full.epsilon
        ratio = err_full / err_half
        ratios.append(ratio)
        assert 1.7 <= ratio <= 4.3
        # probability exactness at zero coupling
        joint = np.kron(rho.matrix, rho.matrix)
        probabilities = moment_table(rho, overlaps_zero)[:, 0]
        assert (np.abs(probabilities - np.diag(joint).real) <= 1e-12).all()
    _report(6, f"pointer estimates within 5 epsilon of exact on 50 states "
               f"(worst {worst_err:.2e}); halving ratios in "
               f"[{min(ratios):.2f}, {max(ratios):.2f}]; zero-coupling "
               f"probabilities exact")


def test_criterion_07_circuit_equivalence():
    worst = 0.0
    for eps in (1e-3, 0.1, 1.0):
        dev_circuit = verify_equivalence(eps)
        dev_expm = unitary_vs_hamiltonian(eps)
        worst = max(worst, dev_circuit, dev_expm)
        assert dev_circuit <= 1e-12
        assert dev_expm <= 1e-12
    _report(7, f"gate assembly and generator exponential both match the "
               f"conditional unitary (worst deviation {worst:.2e})")


def test_criterion_08_robustness_bound():
    rng = np.random.default_rng(8)
    h = HAMILTONIAN
    total_checks = 0
    for delta in (1e-3, 1e-2):
        for i in range(100):
            rho = random_mixed(rng)
            report = bound_check(rho, delta, trials=100, seed=1000 + i)
            assert report.violations == 0
            assert report.margin > 0
            total_checks += report.trials * len(report.deviations)
    # exact 1-homogeneity in the perturbation
    rho = random_mixed(80)
    base = perturbations(1e-2, [np.random.SeedSequence(81)])[0]
    for k in range(1, 17):
        clean = exact_weak_value(rho, h, k)
        d1 = abs(clean - exact_weak_value(rho, h - base, k))
        d2 = abs(clean - exact_weak_value(rho, h - 2 * base, k))
        assert abs(d2 - 2 * d1) <= 1e-10
    _report(8, f"no bound violations across {total_checks} "
               f"(state, perturbation, outcome) checks at delta 1e-3 and "
               f"1e-2; deviations exactly linear in the perturbation")


def test_criterion_09_pure_local_protocol():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        psi = random_pure(rng)
        oracle_entangled = abs(psi.a * psi.d - psi.b * psi.c) > 1e-9
        got = detect_pure_local(psi).verdict is Verdict.ENTANGLED
        assert got == oracle_entangled
    separable_seen = 0
    for _ in range(100):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        amps = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        psi = PureAmplitudes(*(complex(c) for c in amps))
        report = detect_pure_local(psi)
        assert report.verdict is Verdict.SEPARABLE
        separable_seen += 1
    assert separable_seen == 100
    _report(9, "local pure-state protocol matches the amplitude-determinant "
               "oracle on 1000 Haar states and 100 product states")


def test_criterion_10_cli_determinism(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    cmd = [sys.executable, "-m", "weakdetect", "benchmark", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True, env=env, check=True)
    second = subprocess.run(cmd, capture_output=True, env=env, check=True)
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["trials"] == 1000
    assert doc["mismatches"] == 0
    assert doc["reconstruction"]["max_trace_distance"] <= 1e-8
    _report(10, "repeated benchmark runs with seed 7 emit byte-identical "
                "JSON (1000/1000 agreement)")
