import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmac
from qmac import cli
from qmac.cli import main
from qmac.config import DEFAULT_TOL
from qmac.fixtures import BUILTIN, secure_example_unitary
from qmac.adversary import (
    AttackResult,
    KeyDistinguishabilityReport,
    KeyReuseFeasibilityReport,
    KeyReuseStats,
    best_message_attack,
    key_distinguishability,
    key_reuse_feasibility,
)
from qmac.conditions import ConditionCheck, ConditionReport, validate
from qmac.designer import INSECURE, DesignResult, SecurityScore
from qmac.linalg import halmos_dilation, matrix_from_json, matrix_to_json
from qmac.protocol import TaggingUnitary, simulate_honest_batch


@pytest.fixture
def secure_file(tmp_path):
    path = tmp_path / "secure.json"
    path.write_text(json.dumps(matrix_to_json(secure_example_unitary())))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_secure_file_exit_zero(self, capsys, secure_file):
        code, out, _ = run_cli(
            capsys, "validate", "--input", secure_file, "--budget", "200"
        )
        assert code == 0
        body = json.loads(out)
        assert body["report"]["overall_secure"] is True
        assert body["seed"] == 0
        assert "input_sha256" in body

    def test_identity_exit_three(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--input", "identity", "--budget", "100"
        )
        assert code == 3
        assert json.loads(out)["report"]["overall_secure"] is False

    def test_wrong_dims_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(matrix_to_json(np.eye(3))))
        code, _, err = run_cli(capsys, "validate", "--input", str(path))
        assert code == 2
        assert "4x4" in err

    def test_malformed_json_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 4, "cols": 4, "data": [')
        code, _, err = run_cli(capsys, "validate", "--input", str(path))
        assert code == 2
        assert "line" in err  # position-bearing message

    def test_deeply_nested_json_exit_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "validate", "--input", str(path))
        assert code == 2 and out == ""
        assert "malformed JSON: nested too deeply" in err

    def test_huge_entry_is_not_unitary(self, capsys, tmp_path):
        m = np.eye(4)
        m[0, 0] = 1e200  # U†U overflows
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(matrix_to_json(m)))
        code, out, err = run_cli(capsys, "validate", "--input", str(path))
        assert code == 2 and out == ""
        assert "tagging unitary must be unitary (deviation inf)" in err

    @pytest.mark.parametrize("data", [[["a", "b"]], 5])
    def test_malformed_entries_exit_two(self, capsys, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": 1, "cols": 1, "data": data}))
        code, out, err = run_cli(capsys, "validate", "--input", str(path))
        assert code == 2 and out == ""
        assert "malformed matrix JSON" in err

    def test_fractional_rows_exit_two(self, capsys, tmp_path):
        obj = matrix_to_json(secure_example_unitary())
        obj["rows"] = 4.9
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "validate", "--input", str(path))
        assert code == 2 and out == ""
        assert "malformed matrix JSON" in err

    def test_missing_input_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "validate")
        assert code == 2

    @pytest.mark.parametrize(
        "override, check", [("strict=0.6", "case1"), ("phase_equiv=0.6", "condition3")]
    )
    def test_tolerance_override_flips_verdict(self, capsys, override, check):
        # secure_example's case-1 margin and M0 swap mismatch are both 0.5.
        code, out, _ = run_cli(
            capsys, "validate", "--input", "secure_example", "--budget", "100",
            "--tol", override,
        )
        assert code == 3
        report = json.loads(out)["report"]
        assert report[check]["satisfied"] is False
        assert report["overall_secure"] is False

    def test_loosened_phase_equiv_builds_the_attack(self, capsys, tmp_path):
        # The M0 columns of I - 2vv† are exactly swap related, so the
        # certainty attack is built at any phase_equiv.
        vec = np.array([0.2, 0.2j, np.sqrt(0.92), 0])
        path = tmp_path / "refl.json"
        path.write_text(json.dumps(matrix_to_json(np.eye(4) - 2 * np.outer(vec, vec.conj()))))
        code, out, _ = run_cli(
            capsys, "validate", "--input", str(path), "--budget", "100",
            "--tol", "phase_equiv=0.1",
        )
        assert code == 3
        condition3 = json.loads(out)["report"]["condition3"]
        assert condition3["margin"] == 0.0
        assert condition3["details"]["perfect_attack_constructed"] is True

    @pytest.mark.parametrize("name", sorted(BUILTIN))
    def test_report_is_strict_json(self, capsys, name):
        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        _, out, _ = run_cli(capsys, "validate", "--input", name, "--budget", "100")
        json.loads(out, parse_constant=reject)

    def test_tiny_y_under_zero_strict_is_strict_json(self, capsys, tmp_path):
        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        path = tmp_path / "tiny_y.json"
        m0 = np.array([[0.5, 0], [1e-170, 0.3]])
        path.write_text(json.dumps(matrix_to_json(halmos_dilation(m0))))
        code, out, _ = run_cli(
            capsys, "validate", "--input", str(path), "--budget", "100",
            "--tol", "strict=0",
        )
        assert code == 0
        report = json.loads(out, parse_constant=reject)["report"]
        assert report["case2"]["satisfied"] and report["overall_secure"]

    @pytest.mark.parametrize("override", ["strict=nan", "unitary=inf", "phase_equiv=-1"])
    def test_bad_tolerance_value_exit_two(self, capsys, override):
        code, out, err = run_cli(
            capsys, "validate", "--input", "secure_example", "--budget", "100",
            "--tol", override,
        )
        assert code == 2 and out == ""
        assert "must be a real number in [0, inf), got" in err and override.split("=")[0] in err

    @pytest.mark.parametrize("value", ["abc", ""])
    def test_non_numeric_tolerance_names_the_flag(self, capsys, value):
        code, out, err = run_cli(
            capsys, "validate", "--input", "secure_example", "--tol", f"strict={value}"
        )
        assert code == 2 and out == ""
        assert f"--tol strict expects a number, got {value!r}" in err

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["--input", "secure_example", "--tol", "strict"],
                     "--tol expects NAME=VALUE, got 'strict'", id="tol-without-equals"),
        pytest.param(["--input", "nan.json"], "matrix JSON contains non-finite entries",
                     id="nan-entry"),
        pytest.param(["--input", "identity", "--tol", "unitary=1e-16"],
                     "tolerance 'unitary' must be at least 1e-13, got 1e-16",
                     id="unitary-below-floor"),
    ])
    def test_bad_input_exit_two(self, capsys, tmp_path, monkeypatch, argv, message):
        matrix = matrix_to_json(secure_example_unitary())
        matrix["data"][0][0] = float("nan")
        (tmp_path / "nan.json").write_text(json.dumps(matrix))
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "validate", *argv)
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("command", ["validate", "attack"])
    @pytest.mark.parametrize("value", ["1.0", "1.5"])
    def test_zero_matrix_under_loose_unitary_tolerance_exit_two(
        self, capsys, tmp_path, command, value
    ):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(matrix_to_json(np.zeros((4, 4)))))
        code, out, err = run_cli(
            capsys, command, "--input", str(path), "--tol", f"unitary={value}"
        )
        assert code == 2 and out == ""
        assert "'unitary' must be below 1" in err


class TestSimulate:
    def test_summary(self, capsys, secure_file):
        code, out, _ = run_cli(
            capsys, "simulate", "--input", secure_file, "--trials", "500"
        )
        assert code == 0
        body = json.loads(out)
        assert body["summary"]["acceptance_rate"] == 1.0
        assert body["summary"]["decode_accuracy"] == 1.0
        assert body["summary"]["mean_key_fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert len(body["records"]) == 1000

    def test_empty_batch_flagged(self, capsys, secure_file):
        code, out, _ = run_cli(
            capsys, "simulate", "--input", secure_file, "--trials", "0"
        )
        assert code == 0
        body = json.loads(out)
        assert body["summary"]["empty"] is True
        assert body["records"] == []

    def test_request_too_big_for_memory_exit_two(self, capsys, monkeypatch):
        # Raised, not provoked: the test allocates nothing.
        message = "Unable to allocate 22.4 GiB for an array with shape (3000000000,)"

        def no_room(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "simulate_honest_batch", no_room)
        code, out, err = run_cli(
            capsys, "simulate", "--input", "secure_example", "--trials", "3000000000"
        )
        assert code == 2 and out == ""
        assert f"error: {message}" in err

    @pytest.mark.parametrize("trials", ["0", "1", "1000"])
    def test_report_is_plain_indented_dump(self, capsys, trials):
        code, out, _ = run_cli(
            capsys, "simulate", "--input", "secure_example", "--trials", trials
        )
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("trials", [0, 1, 1000])
    def test_records_follow_the_draws(self, capsys, tmp_path, trials):
        argv = ["simulate", "--input", "secure_example", "--seed", "7",
                "--trials", str(trials)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        path = tmp_path / "r.json"
        assert main([*argv, "--out", str(path)]) == 0
        assert path.read_bytes() == out.encode()

        u = TaggingUnitary(secure_example_unitary())
        rng = np.random.default_rng(7)
        draws = [simulate_honest_batch(u, m, trials, rng) for m in (0, 1)]
        want = [
            {"message": m, "outcome": o, "accepted": o < 2,
             "decoded": o if o < 2 else None, "key_fidelity": fid}
            for m, (outcomes, fid) in enumerate(draws) for o in outcomes.tolist()
        ]
        assert json.loads(out)["records"] == want

    def test_negative_trials_exit_two(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--input", "secure_example", "--trials", "-1"
        )
        assert code == 2 and out == ""
        assert "trials must be >= 0, got -1" in err
        assert "Traceback" not in err

    def test_byte_identical_reports(self, tmp_path, secure_file, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main(
                ["simulate", "--input", secure_file, "--trials", "200",
                 "--seed", "42", "--out", str(out)]
            ) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()


class TestAttack:
    def test_xblock_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "attack", "--input", "x_block", "--trials", "2000",
            "--budget", "400",
        )
        assert code == 0
        body = json.loads(out)["attacks"]
        assert body["no_message"]["probability"] == pytest.approx(0.5, abs=1e-12)
        assert body["message"]["probability"] > 1 - 1e-6
        assert body["message"]["iterations"] <= 400
        assert isinstance(body["message"]["converged"], bool)
        assert body["key_distinguishing"]["distinguishable"] is True
        assert body["key_reuse"]["ruled_out"] is False

    def test_identity_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "attack", "--input", "identity", "--trials", "1000",
            "--budget", "300",
        )
        assert code == 0
        body = json.loads(out)["attacks"]
        assert body["no_message"]["probability"] == pytest.approx(1.0, abs=1e-12)
        assert body["message"]["probability"] > 1 - 1e-6
        assert body["message"]["iterations"] <= 300
        assert body["message"]["converged"] is True
        assert body["message"]["stop"] == "certain"
        assert body["key_distinguishing"]["distinguishable"] is False
        assert body["key_reuse"]["ruled_out"] is True

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_too_few_trials_exit_two(self, capsys, trials):
        code, out, err = run_cli(
            capsys, "attack", "--input", "secure_example", "--trials", trials
        )
        assert code == 2 and out == ""
        assert f"trials must be >= 1, got {trials}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("priors", ["0.5", "0.5,0.5,0", "a,b"])
    def test_priors_need_two_numbers(self, capsys, priors):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--input", "secure_example", "--priors", priors])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument --priors: expects two numbers p0,p1, got {priors!r}" in err

    @pytest.mark.parametrize("seed", ["-1", "1.5", "a"])
    def test_seed_must_be_a_non_negative_integer(self, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--input", "secure_example", "--seed", seed])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument --seed: expects a non-negative integer, got {seed!r}" in err

    @pytest.mark.parametrize("priors", ["nan,0.5", "0.5,nan", "inf,0"])
    def test_non_finite_priors_exit_two(self, capsys, priors):
        code, out, err = run_cli(
            capsys, "attack", "--input", "secure_example", "--priors", priors
        )
        assert code == 2 and out == ""
        assert "must be a real number in [0, 1], got" in err

    def test_secure_example_regression(self, capsys, secure_file):
        code, out, _ = run_cli(
            capsys, "attack", "--input", secure_file, "--trials", "2000",
            "--budget", "500",
        )
        assert code == 0
        body = json.loads(out)["attacks"]
        assert body["no_message"]["probability"] == pytest.approx(
            (2 + np.sqrt(2)) / 4, abs=1e-9
        )
        assert body["message"]["probability"] < 1 - 1e-4
        assert body["message"]["iterations"] <= 500
        assert isinstance(body["message"]["converged"], bool)
        assert abs(body["no_message"]["monte_carlo_delta"]) < 0.05
        assert body["key_reuse"]["ruled_out"] is True


class TestOptimize:
    def test_smoke_and_reproducible(self, tmp_path, capsys):
        args = [
            "optimize", "--seed", "7", "--restarts", "2", "--budget", "100",
        ]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        trace = tmp_path / "trace.jsonl"
        assert main(args + ["--out", str(out1), "--trace-out", str(trace)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert lines and all({"restart", "iter", "score"} <= set(l) for l in lines)

    def test_warm_start(self, capsys, secure_file):
        code, out, _ = run_cli(
            capsys, "optimize", "--restarts", "1", "--budget", "100",
            "--warm-start", secure_file,
        )
        assert code == 0
        body = json.loads(out)
        assert body["result"]["score"]["secure"] is True

    def test_tolerance_reaches_candidates(self, capsys):
        code, _, err = run_cli(
            capsys, "optimize", "--restarts", "1", "--budget", "100",
            "--tol", "strict=0.99",
        )
        assert code == 2
        assert "no secure candidate" in err

    def test_bad_trace_out_leaves_no_report(self, capsys, tmp_path):
        argv = ["optimize", "--restarts", "1", "--budget", "50",
                "--trace-out", str(tmp_path / "missing" / "t.jsonl")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "No such file or directory" in err
        report = tmp_path / "r.json"
        code, out, _ = run_cli(capsys, *argv, "--out", str(report))
        assert code == 2 and out == ""
        assert not report.exists()

    def test_zero_budget_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--budget", "0")
        assert code == 2 and out == ""
        assert "budget must be >= 1" in err


class TestDemo:
    def test_demo_secure(self, capsys):
        code, out, err = run_cli(capsys, "demo", "--budget", "300")
        assert code == 0
        body = json.loads(out)
        assert body["report"]["overall_secure"] is True
        assert "secure=True" in err

    def test_tolerance_override_recorded(self, capsys):
        code, out, _ = run_cli(
            capsys, "demo", "--budget", "200", "--tol", "unitary=1e-8"
        )
        assert code == 0
        tolerances = json.loads(out)["tolerances"]
        assert tolerances["unitary"] == 1e-8
        assert set(tolerances) == {"unitary", "strict", "phase_equiv"}

    def test_unknown_tolerance_rejected(self, capsys):
        for name in ("bogus", "trace", "eig_reconstruction", "hermitian"):
            code, _, err = run_cli(capsys, "demo", "--tol", f"{name}=1")
            assert code == 2
            assert name in err


@pytest.mark.parametrize("argv", [
    ["validate", "--input", "secure_example", "--trials", "5"],
    ["optimize", "--trials", "5"],
    ["demo", "--trials", "5"],
    ["simulate", "--input", "secure_example", "--budget", "5"],
])
def test_flag_not_read_by_subcommand_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(["validate", "--input", "secure_example", "--budget", "700"], id="validate"),
    pytest.param(["attack", "--input", "x_block", "--trials", "300", "--budget", "700"],
                 id="attack"),
    pytest.param(["simulate", "--input", "secure_example", "--trials", "0"], id="simulate-0"),
    pytest.param(["simulate", "--input", "secure_example", "--trials", "200", "--seed", "5"],
                 id="simulate-200"),
    pytest.param(["demo", "--budget", "300"], id="demo"),
    pytest.param(["optimize", "--seed", "7", "--restarts", "1", "--budget", "100"],
                 id="optimize"),
])
def test_out_file_holds_the_stdout_report(capsys, tmp_path, argv):
    # --out is written as UTF-8 bytes in binary mode, stdout as text: one report.
    code, out, _ = run_cli(capsys, *argv)
    path = tmp_path / "report.json"
    code_out, printed, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code_out == code and printed == ""
    assert path.read_bytes() == out.encode()


def test_shared_parser_carries_no_state(capsys):
    cli._parser.cache_clear()
    code, out, _ = run_cli(
        capsys, "attack", "--input", "secure_example", "--priors", "0.8,0.2",
        "--tol", "strict=1e-6", "--budget", "50",
    )
    assert code == 0
    body = json.loads(out)
    assert body["attacks"]["message"]["priors"] == [0.8, 0.2]
    assert body["tolerances"]["strict"] == 1e-6

    code, out, _ = run_cli(capsys, "attack", "--input", "secure_example", "--budget", "50")
    assert code == 0
    body = json.loads(out)
    assert body["attacks"]["message"]["priors"] == [0.5, 0.5]
    assert body["tolerances"] == DEFAULT_TOL.as_dict()

    with pytest.raises(SystemExit) as exc:
        main(["validate", "--input", "secure_example", "--trials", "5"])
    assert exc.value.code == 2
    capsys.readouterr()

    argv = ["validate", "--input", "secure_example", "--budget", "50"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    src = str(Path(qmac.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = subprocess.run(
        [sys.executable, "-m", "qmac.cli", *argv],
        capture_output=True, env=env, check=False, timeout=120,
    )
    assert fresh.returncode == 0
    assert fresh.stdout == out.encode()
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


class TestReportRendering:
    """``cli._json_default``: the one rule by which reports render results."""

    @staticmethod
    def render(obj):
        return json.loads(json.dumps(obj, default=cli._json_default, allow_nan=False))

    @pytest.fixture
    def results(self):
        u = TaggingUnitary(secure_example_unitary())
        return {
            AttackResult: best_message_attack(u, budget=300),
            KeyDistinguishabilityReport: key_distinguishability(u),
            KeyReuseFeasibilityReport: key_reuse_feasibility(u),
            ConditionReport: validate(u, attack_budget=300),
        }

    def test_keys_are_the_dataclass_fields(self, results):
        report = results[ConditionReport]
        for obj in [*results.values(), report.case1, report.case2]:
            assert not hasattr(obj, "to_json")
            names = {f.name for f in dataclasses.fields(obj)}
            assert set(self.render(obj)) == names, type(obj).__name__
        for cls in (SecurityScore, DesignResult, KeyReuseStats):
            assert not hasattr(cls, "to_json"), cls.__name__

    def test_matrices_round_trip(self, results):
        attack, dist = results[AttackResult], results[KeyDistinguishabilityReport]
        strategy = matrix_from_json(self.render(attack)["strategy"])
        assert np.array_equal(strategy, attack.strategy)
        assert np.array_equal(matrix_from_json(self.render(dist)["gram"]), dist.gram)

    def test_nested_dataclasses_render_by_the_same_rule(self, results):
        report = results[ConditionReport]
        body = self.render(report)
        for name in ("case1", "case2", "condition3", "condition4"):
            assert body[name] == self.render(getattr(report, name))
        check = ConditionCheck(satisfied=True, margin=0.5, details={"inner": report.case2})
        assert self.render(check)["details"]["inner"] == body["case2"]

    def test_optimize_builds_its_result_entry(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--restarts", "1", "--budget", "50")
        assert code == 0
        result = json.loads(out)["result"]
        assert set(result) == {"unitary", "score", "trace_length"}
        names = {f.name for f in dataclasses.fields(SecurityScore)}
        assert set(result["score"]) == names | {"score_kind"}
        assert result["score"]["score_kind"] == "heuristic-worst-case"
        assert type(result["trace_length"]) is int and result["trace_length"] >= 1
        TaggingUnitary(matrix_from_json(result["unitary"]))  # unitary, as matrix JSON

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), SecurityScore(0.5, None, False, INSECURE)],
        ids=["nan", "inf", "insecure-score"],
    )
    def test_non_finite_float_is_refused(self, tmp_path, value):
        out = tmp_path / "r.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._emit({"x": [value]}, str(out))
        assert not out.exists()

    @pytest.mark.parametrize("obj", [object(), {1, 2}], ids=["object", "set"])
    def test_anything_else_is_a_type_error(self, obj):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json.dumps({"x": obj}, default=cli._json_default)
