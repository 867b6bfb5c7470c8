import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weakdetect.cli as cli
from weakdetect.cli import main
from weakdetect.states import bell_phi_plus, state_to_json_dict, validate, werner

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

    @pytest.mark.parametrize("argv", [
        ["robustness", "--delta", "-1"],
        ["robustness", "--delta", "nan"],
        ["robustness", "--delta", "inf"],
        ["pointer-sim", "--epsilon", "0.5"],
        ["pointer-sim", "--epsilon", "0"],
        ["pointer-sim", "--sigma", "0"],
        ["pointer-sim", "--sigma", "5"],
        ["pointer-sim", "--grid-n", "100"],
        ["pointer-sim", "--grid-l", "inf"],
        ["circuit-verify", "--epsilon", "nan"],
        ["detect", "--tol-det", "nan"],
        ["benchmark", "--tol-det", "nan"],
        ["benchmark", "--tol-det", "-1"],
        ["benchmark", "--seed", "-1"],
        ["robustness", "--seed", "-1"],
    ], ids=" ".join)
    def test_bad_numeric_flag_exits_1(self, capsys, werner_file, argv):
        assert main([*argv, "--input", werner_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith("weakdetect: error: ")
        assert "Traceback" not in captured.err

    def test_nan_entries_exit_2(self, capsys, tmp_path):
        # json.loads accepts the NaN literal; it must not escape as a crash
        path = tmp_path / "nan.json"
        matrix = [[[0.25, 0.0] if i == j else [0.0, 0.0] for j in range(4)]
                  for i in range(4)]
        matrix[0][0] = [float("nan"), 0.0]
        path.write_text(json.dumps({"matrix": matrix}))
        assert main(["detect", "--input", str(path)]) == 2


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
