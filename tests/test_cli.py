import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weakdetect.cli as cli
from weakdetect import protocol
from weakdetect.cli import main
from weakdetect.protocol import TAU_DIAG
from weakdetect.states import (
    bell_phi_plus, ppt_oracle, random_mixed, random_pure, state_to_json_dict, validate, werner,
)

from conftest import amplitudes_to_json_dict

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(state_to_json_dict(bell_phi_plus())))
    return str(path)


@pytest.fixture
def werner_file(tmp_path):
    path = tmp_path / "werner.json"
    path.write_text(json.dumps(state_to_json_dict(werner(0.5))))
    return str(path)


@pytest.fixture
def product_amplitudes_file(tmp_path):
    path = tmp_path / "product.json"
    s = 1 / np.sqrt(2)
    path.write_text(json.dumps({"amplitudes": [[s, 0.0], [0.0, 0.0], [s, 0.0], [0.0, 0.0]]}))
    return str(path)


# Each fails once --input names a valid state: at parse time or in the
# pointer module's own range checks.
BAD_NUMERIC_ARGVS = [
    ["robustness", "--delta", "-1"],
    ["robustness", "--delta", "nan"],
    ["robustness", "--delta", "inf"],
    ["pointer-sim", "--epsilon", "0.5"],
    ["pointer-sim", "--epsilon", "0"],
    # epsilon / 2 subnormal or zero: the readout would lose its digits
    ["pointer-sim", "--epsilon", "5e-324"],
    ["pointer-sim", "--epsilon", "1e-323"],
    ["pointer-sim", "--epsilon", "1e-318"],
    ["pointer-sim", "--epsilon", repr(float(np.finfo(float).tiny))],
    ["pointer-sim", "--sigma", "0"],
    ["pointer-sim", "--sigma", "5"],
    ["pointer-sim", "--grid-n", "100"],
    ["pointer-sim", "--grid-n", str(2**40)],  # a power of two too large to allocate
    ["pointer-sim", "--grid-l", "inf"],
    # values the pointer grid cannot represent
    ["pointer-sim", "--grid-l", "1e200"],
    ["pointer-sim", "--sigma", "1e150", "--grid-l", "1e160"],
    ["pointer-sim", "--sigma", "1e200", "--grid-l", "1e201"],
    ["pointer-sim", "--sigma", "1e-300"],
    ["pointer-sim", "--sigma", "1e-160", "--grid-l", "1e-159"],
    ["pointer-sim", "--sigma", "1e-30", "--grid-l", "1"],
    ["pointer-sim", "--sigma", "1e103", "--grid-l", "1e104"],
    ["robustness", "--delta", "1e308"],  # delta/m overflows on the Werner state
    ["circuit-verify", "--epsilon", "nan"],
    ["detect", "--tol-det", "nan"],
    ["benchmark", "--tol-det", "nan"],
    ["benchmark", "--tol-det", "-1"],
    ["benchmark", "--seed", "-1"],
    # more trials than numpy can allocate, and more than an array dimension holds
    ["benchmark", "--trials", str(10**16)],
    ["benchmark", "--trials", str(10**21)],
    ["robustness", "--seed", "-1"],
]


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestValidate:
    def test_valid_state(self, capsys, bell_file):
        code, out = run_main(capsys, ["validate", "--input", bell_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True
        assert doc["diagonal"] == [0.5, 0.0, 0.0, 0.5]

    def test_invalid_state_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        matrix = [[[0.5, 0.0] if i == j else [0.0, 0.0] for j in range(4)] for i in range(4)]
        matrix[2][2] = [0.0, 0.0]
        matrix[3][3] = [0.0, 0.0]
        matrix[0][1] = [0.6, 0.0]
        matrix[1][0] = [0.6, 0.0]
        bad.write_text(json.dumps({"matrix": matrix}))
        code, out = run_main(capsys, ["validate", "--input", str(bad)])
        assert code == 2
        doc = json.loads(out)
        assert doc["valid"] is False
        assert doc["error_kind"] == "PositivityError"


class TestDetect:
    def test_bell(self, capsys, bell_file):
        code, out = run_main(capsys, ["detect", "--input", bell_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "Entangled"
        assert doc["path"] == "CaseII"
        assert doc["det_value"] == pytest.approx(-0.0625)
        assert doc["weak_values"]["16"] == [1.0, 0.0]

    def test_werner_general(self, capsys, werner_file):
        code, out = run_main(capsys, ["detect", "--input", werner_file])
        doc = json.loads(out)
        assert code == 0
        assert doc["path"] == "General"
        assert doc["det_value"] == pytest.approx(-27 / 4096)

    def test_tol_det_override(self, capsys, werner_file):
        # an absurdly large threshold flips the verdict to Separable
        code, out = run_main(
            capsys, ["detect", "--input", werner_file, "--tol-det", "1.0"]
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "Separable"

    def test_tol_det_applies_on_every_path(self, capsys, bell_file):
        # Bell is labelled CaseII, and det(rho^TB) = -1/16 is above -1.0
        code, out = run_main(capsys, ["detect", "--input", bell_file, "--tol-det", "1.0"])
        assert code == 0
        doc = json.loads(out)
        assert (doc["path"], doc["verdict"]) == ("CaseII", "Separable")

    def test_smallest_diagonal_exactly_tau_diag(self, capsys, tmp_path):
        # s = TAU_DIAG exactly: the state is labelled CaseI, and its verdict
        # agrees with the oracle
        psi = np.array([0.6, 0.48, 0.64, 0.0])
        rho = validate((1 - 4 * TAU_DIAG) * np.outer(psi, psi) + TAU_DIAG * np.eye(4))
        assert rho.matrix[3, 3] == TAU_DIAG
        path = tmp_path / "tau_diag.json"
        path.write_text(json.dumps(state_to_json_dict(rho)))
        code, out = run_main(capsys, ["detect", "--input", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["path"] == "CaseI"
        assert doc["verdict"] == ppt_oracle(rho).value == "Entangled"


class TestDetectPure:
    def test_product_state(self, capsys, product_amplitudes_file):
        code, out = run_main(capsys, ["detect-pure", "--input", product_amplitudes_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "Separable"
        assert doc["path"] == "PureLocal"

    def test_unnormalized_exits_2(self, capsys, tmp_path):
        path = tmp_path / "amp.json"
        path.write_text(json.dumps({"amplitudes": [[1.0, 0.0]] * 4}))
        code, _ = run_main(capsys, ["detect-pure", "--input", str(path)])
        assert code == 2

    @pytest.mark.parametrize("pair, norm", [
        ([1e200, 0.0], "inf"),               # finite, but its square overflows
        ([1.7e308, 1.7e308], "inf"),         # finite parts, but |a| overflows
        ([float("inf"), 0.0], "inf"),
        ([float("nan"), 0.0], "nan"),
    ], ids=["1e200", "abs-overflow", "Infinity", "NaN"])
    def test_non_finite_norm_exits_2(self, capsys, tmp_path, pair, norm):
        path = tmp_path / "amp.json"
        path.write_text(json.dumps({"amplitudes": [pair, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}))
        assert main(["detect-pure", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"weakdetect: invalid state: |a|^2+|b|^2+|c|^2+|d|^2 = {norm}, expected 1\n"


class TestTomo:
    def test_round_trip(self, capsys, werner_file):
        code, out = run_main(capsys, ["tomo", "--input", werner_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["trace_distance"] <= 1e-8
        assert doc["diagonal"][0] == pytest.approx(3 / 8)


    def test_unmeasured_element_is_named(self, capsys, tmp_path):
        # r = 0 silences outcomes 10 and 12, the two that measure
        # y = rho[1, 3], so y is rebuilt as 0 and positivity fails
        psi = np.array([0.6, 0.48, 0.0, 0.64])
        path = tmp_path / "r0.json"
        path.write_text(json.dumps(state_to_json_dict(validate(np.outer(psi, psi)))))
        assert main(["tomo", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("weakdetect: invalid state: ")
        assert "element (1, 3) (outcomes 12 and 10)" in err


class TestPointerSim:
    def test_small_grid(self, capsys, werner_file):
        code, out = run_main(
            capsys,
            ["pointer-sim", "--input", werner_file, "--grid-n", "1024",
             "--grid-l", "20.0"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["max_abs_error"] <= 5 * doc["epsilon"]
        assert "16" in doc["outcomes"]
        assert doc["outcomes"]["16"]["exact"][0] == pytest.approx(2 / 3)

    def test_gathers_the_record_once(self, capsys, monkeypatch, werner_file):
        calls = []
        gather = protocol.weak_values_batch

        def counted(*args, **kwargs):
            calls.append(1)
            return gather(*args, **kwargs)

        monkeypatch.setattr(protocol, "weak_values_batch", counted)
        code, _ = run_main(capsys, ["pointer-sim", "--input", werner_file,
                                    "--grid-n", "1024", "--grid-l", "20.0"])
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("sigma", [1e10, 1e12, 1e14])
    def test_wide_pointer_reads_within_5_eps(self, capsys, tmp_path, sigma):
        path = tmp_path / "ginibre.json"
        path.write_text(json.dumps(state_to_json_dict(random_mixed(5))))
        code, out = run_main(capsys, ["pointer-sim", "--input", str(path), "--epsilon", "1e-3",
                                      "--sigma", repr(sigma), "--grid-l", repr(40 * sigma)])
        assert code == 0
        assert json.loads(out)["max_abs_error"] <= 5e-3

    def test_smallest_epsilon_reads_out(self, capsys, werner_file):
        # twice the smallest normal float: epsilon / 2 is normal too
        epsilon = repr(2 * float(np.finfo(float).tiny))
        code, out = run_main(capsys, ["pointer-sim", "--input", werner_file, "--epsilon", epsilon])
        assert code == 0
        doc = json.loads(out, parse_constant=_refuse_constant)
        assert doc["max_abs_error"] <= 5 * doc["epsilon"]

    def test_refusal_names_the_flag_value(self, capsys, werner_file):
        epsilon = repr(float(np.finfo(float).tiny))  # normal, but epsilon / 2 is not
        assert main(["pointer-sim", "--input", werner_file, "--epsilon", epsilon]) == 1
        assert capsys.readouterr().err == (
            f"weakdetect: error: epsilon {epsilon} is out of range: epsilon / 2 must be normal\n")


class TestCircuitVerify:
    def test_deviations(self, capsys):
        code, out = run_main(capsys, ["circuit-verify"])
        assert code == 0
        doc = json.loads(out)
        assert doc["max_deviation"] <= 1e-12
        assert set(doc["epsilons"]) >= {1e-3, 0.1, 1.0}

    def test_csv_format(self, capsys):
        code, out = run_main(capsys, ["circuit-verify", "--format", "csv"])
        assert code == 0
        assert len(out.strip().splitlines()) == len(cli.CIRCUIT_EPSILONS)


class TestRobustness:
    def test_report(self, capsys, werner_file):
        code, out = run_main(
            capsys, ["robustness", "--input", werner_file, "--trials", "20"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["bound"] == pytest.approx(0.64)
        assert doc["violations"] == 0

    def test_negative_trials_exit_1(self, capsys, werner_file):
        assert main(["robustness", "--input", werner_file, "--trials", "-3"]) == 1

    def test_rank_deficient_exits_2(self, capsys, bell_file):
        code, _ = run_main(capsys, ["robustness", "--input", bell_file, "--trials", "5"])
        assert code == 2


@pytest.mark.parametrize("output", ["json", "text"])
@pytest.mark.parametrize("argv, flag", [
    (["robustness", "--trials", "0"], "--delta"),
    (["robustness", "--trials", "40"], "--delta"),
    (["detect"], "--tol-det"),
    (["benchmark", "--trials", "40"], "--tol-det"),
])
def test_negative_zero_flag_prints_the_zero_document(capsys, werner_file, argv, flag, output):
    argv = [*argv, "--format", output]
    if argv[0] in cli._NEEDS_INPUT:
        argv += ["--input", werner_file]
    code, zero = run_main(capsys, [*argv, flag, "0"])
    assert code == 0
    assert run_main(capsys, [*argv, flag, "-0.0"]) == (code, zero)
    assert not re.search(r"-0\.0(?!\d)", zero)  # no negative zero anywhere


class TestBenchmark:
    def test_small_run(self, capsys):
        code, out = run_main(capsys, ["benchmark", "--trials", "25", "--seed", "7"])
        assert code == 0
        doc = json.loads(out)
        assert doc["mismatches"] == 0
        assert doc["agreement_rate"] == 1.0
        assert doc["reconstruction"]["max_trace_distance"] <= 1e-8

    @pytest.mark.parametrize("seed, entangled, separable", [
        (0, 756, 244), (1, 754, 246), (2, 760, 240), (3, 760, 240), (4, 745, 255), (7, 768, 232),
    ])
    def test_pinned_agreement_tables(self, capsys, seed, entangled, separable):
        code, out = run_main(capsys, ["benchmark", "--seed", str(seed)])
        assert code == 0
        doc = json.loads(out)
        assert doc["agreement"] == {
            "entangled_entangled": entangled,
            "separable_separable": separable,
            "entangled_separable": 0,
            "separable_entangled": 0,
        }
        assert doc["mismatches"] == 0
        assert doc["paths"] == {"General": 1000, "CaseI": 0, "CaseII": 0}

    def test_chunking_leaves_document_unchanged(self, capsys, monkeypatch):
        argv = ["benchmark", "--trials", "25", "--seed", "7"]
        _, whole = run_main(capsys, argv)
        monkeypatch.setattr(cli, "BENCHMARK_CHUNK", 7)
        _, chunked = run_main(capsys, argv)
        assert chunked == whole

    def test_one_eigen_solve_per_chunk(self, capsys, monkeypatch):
        # Four solves: the trace distance of each chunk. The Cholesky screens
        # clear both validated stacks, drawn and rebuilt, and decide the
        # oracle's verdict on every Ginibre state.
        eigvalsh, sizes = np.linalg.eigvalsh, []

        def counted(a, *args, **kwargs):
            sizes.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        code, _ = run_main(capsys, ["benchmark", "--trials", "1000"])
        assert code == 0
        assert sizes == [256] * 3 + [232]

    def test_zero_trials(self, capsys):
        code, out = run_main(capsys, ["benchmark", "--trials", "0"])
        assert code == 0
        assert json.loads(out) == {
            "command": "benchmark",
            "trials": 0,
            "seed": 0,
            "agreement": dict.fromkeys(("entangled_entangled", "entangled_separable",
                                        "separable_entangled", "separable_separable"), 0),
            "mismatches": 0,
            "agreement_rate": 1.0,
            "paths": {"General": 0, "CaseI": 0, "CaseII": 0},
            "reconstruction": {"max_trace_distance": 0.0, "mean_trace_distance": 0.0},
        }

    def test_negative_trials_exit_1(self, capsys):
        assert main(["benchmark", "--trials", "-5"]) == 1

    def test_text_format_is_rendering_of_json(self, capsys):
        code, out = run_main(
            capsys, ["benchmark", "--trials", "5", "--seed", "1", "--format", "text"]
        )
        assert code == 0
        assert "mismatches: 0" in out


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert main(["detect", "--input", "/nonexistent/state.json"]) == 1

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["detect", "--input", str(path)]) == 1

    def test_schema_error(self, capsys, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"rows": []}))
        assert main(["detect", "--input", str(path)]) == 1

    def test_missing_required_input(self, capsys):
        assert main(["detect"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["detect", "--bogus"]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv", BAD_NUMERIC_ARGVS, ids=" ".join)
    def test_bad_numeric_flag_exits_1(self, capsys, werner_file, argv):
        assert main([*argv, "--input", werner_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith("weakdetect: error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", sorted(cli._NEEDS_INPUT))
    def test_non_utf8_input_exits_1(self, capsys, tmp_path, command):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main([command, "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("weakdetect: error: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("huge", [
        # Hermitian with unit trace, but (M + M^dag)/2 overflows and eigvalsh fails
        {(0, 3): [1.7e308, 0.0], (3, 0): [1.7e308, 0.0]},
        # M - M^dag and the trace overflow
        {(0, 3): [1.7e308, 0.0], (3, 0): [-1.7e308, 0.0]},
        {(0, 0): [1.7e308, 0.0], (1, 1): [1.7e308, 0.0]},
    ], ids=["hermitian", "anti-hermitian", "diagonal"])
    @pytest.mark.parametrize("command", sorted(cli._NEEDS_INPUT - {"detect-pure"}))
    @pytest.mark.filterwarnings("error")  # an overflow warning is a second stderr line
    def test_huge_entry_exits_2(self, capsys, tmp_path, command, huge):
        doc = state_to_json_dict(werner(0.5))
        for (i, j), pair in huge.items():
            doc["matrix"][i][j] = pair
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        if command == "validate":  # reports the failed check as its document
            assert json.loads(captured.out)["error_kind"] == "StateValidationError"
            assert captured.err == ""
        else:
            assert captured.out == ""
            assert captured.err.startswith("weakdetect: invalid state: ")
            assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("command", sorted(cli._NEEDS_INPUT))
    def test_integer_beyond_float_range_exits_1(self, capsys, tmp_path, command):
        if command == "detect-pure":
            doc = {"amplitudes": [[10**400, 0], [0, 0], [0, 0], [0, 0]]}
        else:
            doc = state_to_json_dict(werner(0.5))
            doc["matrix"][0][3] = [10**400, 0]
        path = tmp_path / "big_int.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("weakdetect: error: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("command", sorted(cli._NEEDS_INPUT))
    def test_json_boolean_exits_1(self, capsys, tmp_path, command):
        # Python's bool is an int, but JSON true and false are not numbers
        if command == "detect-pure":
            doc = {"amplitudes": [[True, 0], [0, 0], [0, 0], [0, 0]]}
        else:
            doc = state_to_json_dict(werner(0.5))
            doc["matrix"][1][2] = [0.0, False]
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("weakdetect: error: ")
        assert len(captured.err.splitlines()) == 1

    def test_nan_entries_exit_2(self, capsys, tmp_path):
        # json.loads accepts the NaN literal; it must not escape as a crash
        path = tmp_path / "nan.json"
        matrix = [[[0.25, 0.0] if i == j else [0.0, 0.0] for j in range(4)]
                  for i in range(4)]
        matrix[0][0] = [float("nan"), 0.0]
        path.write_text(json.dumps({"matrix": matrix}))
        assert main(["detect", "--input", str(path)]) == 2

    def test_closed_stdout_exits_1_quietly(self):
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        cmd = [sys.executable, "-m", "weakdetect", "benchmark", "--trials", "5000",
               "--format", "csv"]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert code == cli.EXIT_IO
        assert b"Traceback" not in err


# Flag values at the ends of the float range, for every command.
EXTREME_VALUES = ("5e-324", "1e-323", "1e-318", repr(float(np.finfo(float).tiny)), "1e-300",
                  "0", "1", "1e300", "1.7e308")


def _refuse_constant(name):
    raise ValueError(f"{name} in a document")


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_extreme_flag_values_keep_the_output_contract(capsys, tmp_path, command):
    # Exit 0 with a strict-JSON document, or exit 1; a RuntimeWarning fails
    # the test through the warnings filter.
    path = tmp_path / "input.json"
    if command == "detect-pure":
        path.write_text(json.dumps(amplitudes_to_json_dict(random_pure(0))))
    else:
        path.write_text(json.dumps(state_to_json_dict(random_mixed(0))))
    for value in EXTREME_VALUES:
        sigma = ["--sigma", value, "--grid-l", repr(40 * float(value))]
        for flags in (["--epsilon", value], sigma, ["--delta", value], ["--tol-det", value]):
            code = main([command, "--input", str(path), "--trials", "20", *flags])
            out = capsys.readouterr().out
            assert code in (0, 1), flags
            if code == 0:
                json.loads(out, parse_constant=_refuse_constant)


class TestDeterminism:
    def test_benchmark_byte_identical(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        cmd = [sys.executable, "-m", "weakdetect", "benchmark",
               "--trials", "40", "--seed", "7"]
        first = subprocess.run(cmd, capture_output=True, env=env, check=True)
        second = subprocess.run(cmd, capture_output=True, env=env, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")

    def test_detect_byte_identical(self, bell_file):
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        cmd = [sys.executable, "-m", "weakdetect", "detect", "--input", bell_file]
        runs = [subprocess.run(cmd, capture_output=True, env=env, check=True)
                for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout


class TestNoKernelLayer:
    def test_commands_do_not_load_qmat(self, werner_file, product_amplitudes_file):
        # qmat is an empty stub until the benchmark stops importing it: no
        # command may load it, and it must not grow public names again
        script = "\n".join([
            "import sys",
            "from weakdetect.cli import COMMANDS, main",
            f"werner, pure = {werner_file!r}, {product_amplitudes_file!r}",
            "argvs = [['validate', '--input', werner], ['detect', '--input', werner],",
            "         ['detect-pure', '--input', pure], ['tomo', '--input', werner],",
            "         ['pointer-sim', '--input', werner, '--grid-n', '256', '--grid-l', '20'],",
            "         ['circuit-verify'], ['robustness', '--input', werner, '--trials', '3'],",
            "         ['benchmark', '--trials', '3']]",
            "assert sorted(argv[0] for argv in argvs) == sorted(COMMANDS)",
            "codes = [main(argv) for argv in argvs]",
            "print(codes, 'weakdetect.qmat' in sys.modules)",
        ])
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == f"{[0] * 8} False"
        import weakdetect.qmat as qmat
        assert [name for name in vars(qmat) if not name.startswith("_")] == []

    def test_import_does_not_load_numpy_random(self):
        # numpy.random costs every fresh interpreter about 13 ms; only the
        # commands that draw load it
        script = "import sys\nimport weakdetect.cli\nprint('numpy.random' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "False"

    def test_pointer_sim_does_not_load_numpy_fft(self, werner_file):
        # numpy loads numpy.fft lazily, at about 1 ms; the overlap table is
        # closed-form, so no command needs it
        script = "\n".join([
            "import sys",
            "from weakdetect.cli import main",
            f"code = main(['pointer-sim', '--input', {werner_file!r}])",
            "print(code, 'numpy.fft' in sys.modules)",
        ])
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "0 False"


# --- the parser ---------------------------------------------------------------
#
# The eight-subparser parser that the flat one replaced, kept as the reference
# for what each argv parses to and which argvs fail.

ORACLE_COMMANDS = ("validate", "detect", "detect-pure", "tomo", "pointer-sim",
                   "circuit-verify", "robustness", "benchmark")


class _OracleParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"weakdetect: error: {message}\n")


def _oracle_count(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _oracle_finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _oracle_non_negative(text):
    value = _oracle_finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def oracle_parser():
    parser = _OracleParser(prog="weakdetect", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ORACLE_COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", dest="input_path", metavar="PATH", default=None)
        p.add_argument("--epsilon", type=_oracle_finite, default=1e-3)
        p.add_argument("--sigma", type=_oracle_finite, default=1.0)
        p.add_argument("--grid-n", type=int, default=4096)
        p.add_argument("--grid-l", type=_oracle_finite, default=40.0)
        p.add_argument("--seed", type=_oracle_count, default=0)
        p.add_argument("--trials", type=_oracle_count, default=1000)
        p.add_argument("--delta", type=_oracle_non_negative, default=1e-2)
        p.add_argument("--tol-det", dest="tol_det", type=_oracle_non_negative, default=None)
        p.add_argument("--format", dest="output", choices=("json", "text", "csv"),
                       default="json")
    return parser


FLAGS = ("--input", "--epsilon", "--sigma", "--grid-n", "--grid-l", "--seed", "--trials",
         "--delta", "--tol-det", "--format")

# Flags that follow the command; each row is parsed under every command.
GOOD_FLAGS = [
    [],
    ["--input", "state.json"],
    ["--input=state.json"],
    ["--epsilon", "0.01"],
    ["--sigma", "2.5"],
    ["--grid-n", "1024"],
    ["--grid-n=16384"],
    ["--grid-l", "20"],
    ["--seed", "7"],
    ["--trials", "0"],
    ["--delta", "0"],
    ["--tol-det", "1e-6"],
    ["--format", "json"],
    ["--format", "text"],
    ["--format", "csv"],
    ["--eps", "0.5"],
    ["--e", "-1"],
    ["--sig", "1e-3"],
    ["--grid-l", "-4"],
    ["--inp", "a.json", "--form", "csv"],
    ["--tol", "0", "--tri", "3", "--see", "11", "--del", "0.25"],
    ["--seed", "1", "--seed", "2"],
    ["--input", "-", "--epsilon", "1e-4", "--sigma", "0.5", "--grid-n", "256",
     "--grid-l", "10", "--seed", "3", "--trials", "9", "--delta", "0.1",
     "--tol-det", "0", "--format", "text"],
]

BAD_ARGVS = [
    [],
    ["--input", "state.json"],
    ["frobnicate"],
    ["Detect"],
    ["detect", "--bogus"],
    ["detect", "extra"],
    ["detect", "detect"],
    ["pointer-sim", "--grid", "512"],
    ["pointer-sim", "--grid-", "512"],
    ["pointer-sim", "--grid-n", "1.5"],
    ["pointer-sim", "--grid-n", "x"],
    ["benchmark", "--seed"],
    ["benchmark", "--trials", "2.0"],
    ["benchmark", "--trials", "-1"],
    ["detect", "--delta", "-0.5"],
    ["benchmark", "--format", "xml"],
    ["benchmark", "--epsilon", "inf"],
    ["circuit-verify", "--sigma", "-inf"],
    ["detect", "-x"],
]


class TestParser:
    @pytest.mark.parametrize("flags", GOOD_FLAGS, ids=lambda flags: " ".join(flags) or "defaults")
    def test_namespace_matches_oracle(self, flags):
        parser, oracle = cli.build_parser(), oracle_parser()
        for command in ORACLE_COMMANDS:
            argv = [command, *flags]
            # repr tells 1 from 1.0, which the documents would show
            flat, reference = (repr(sorted(vars(p.parse_args(argv)).items()))
                               for p in (parser, oracle))
            assert flat == reference, argv

    def test_commands_match_oracle(self):
        assert cli.COMMANDS == ORACLE_COMMANDS
        assert set(cli._NEEDS_INPUT) < set(cli.COMMANDS)

    @pytest.mark.parametrize("argv", [
        *BAD_ARGVS,
        *([*argv, "--input", "state.json"] for argv in BAD_NUMERIC_ARGVS),
    ], ids=lambda argv: " ".join(argv) or "empty")
    def test_bad_argv_exits_1_like_oracle(self, capsys, monkeypatch, tmp_path, argv):
        (tmp_path / "state.json").write_text(json.dumps(state_to_json_dict(werner(0.5))))
        monkeypatch.chdir(tmp_path)
        for build in (cli.build_parser, oracle_parser):
            monkeypatch.setattr(cli, "build_parser", build)
            assert main(argv) == 1, (build.__name__, argv)
            captured = capsys.readouterr()
            assert captured.out == ""
            errors = [line for line in captured.err.splitlines() if "error:" in line]
            assert len(errors) == 1 and errors[0].startswith("weakdetect: error: ")
            assert "Traceback" not in captured.err

    def test_flags_before_command(self, capsys):
        _, before = run_main(capsys, ["--seed", "7", "benchmark", "--trials", "5"])
        _, after = run_main(capsys, ["benchmark", "--trials", "5", "--seed", "7"])
        assert before == after
        assert json.loads(before)["seed"] == 7

    @pytest.mark.parametrize("argv", [["--help"], ["detect", "--help"]])
    def test_help_lists_every_command_and_flag(self, capsys, argv):
        code, out = run_main(capsys, argv)
        assert code == 0
        for word in (*cli.COMMANDS, *FLAGS):
            assert word in out, word
