"""End-to-end CLI behavior: reports, determinism, and exit codes."""

import json
import logging
import math
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import sherman_bounds
from sherman_bounds import (
    QuadratureFailure,
    StochasticMatrix,
    WeightedVector,
    estimate_strong_modulus,
    full_chain,
    function_from_name,
    generate_weighted_pair,
    majorizes,
    ValidationError,
)
from sherman_bounds import cli
from sherman_bounds.cli import canonical_json, main
from helpers import count_certificates, kl_fsum, random_doubly_stochastic

PACKAGE_ROOT = str(Path(sherman_bounds.__file__).resolve().parent.parent)
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

CHAIN_INPUT = {
    "x": [0.1, 0.4, 0.9],
    "b": [0.7, 1.3],
    "A": [[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]],
}


def write_json(path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCanonicalJson:
    def test_sorted_keys_and_shortest_round_trip_floats(self):
        text = canonical_json({"b": 0.1, "a": [1, True, None, "x"]})
        assert text == (
            '{\n'
            '  "a": [\n'
            '    1,\n'
            '    true,\n'
            '    null,\n'
            '    "x"\n'
            '  ],\n'
            '  "b": 0.1\n'
            '}\n'
        )

    def test_floats_round_trip(self):
        for value in (0.1, 1e-9, math.pi, -2.5e300, 3.0):
            rendered = canonical_json({"v": value})
            assert json.loads(rendered)["v"] == value

    def test_integral_floats_stay_floats(self):
        parsed = json.loads(canonical_json({"neg_zero": -0.0, "three": 3.0}))
        assert type(parsed["neg_zero"]) is float and type(parsed["three"]) is float
        assert math.copysign(1.0, parsed["neg_zero"]) == -1.0
        assert parsed["three"] == 3.0

    def test_empty_containers(self):
        assert canonical_json({}) == "{}\n"
        assert canonical_json([]) == "[]\n"

    def test_rejects_non_finite_and_unknown_types(self):
        for value in (math.inf, -math.inf, math.nan, np.float32("nan"), [np.float64("inf")]):
            with pytest.raises(ValidationError, match="non-finite value"):
                canonical_json({"v": value})
        for value in (object(), np.zeros(2)):
            with pytest.raises(ValidationError, match="cannot serialize"):
                canonical_json({"v": value})

    def test_numpy_scalars_serialize(self):
        text = canonical_json({"f": np.float64(0.5), "i": np.int64(3), "b": np.bool_(True)})
        parsed = json.loads(text)
        assert parsed == {"f": 0.5, "i": 3, "b": True}


class TestChainCommand:
    def test_matches_library(self, tmp_path, capsys):
        path = write_json(tmp_path / "chain.json", CHAIN_INPUT)
        code, report = run_cli(
            capsys, "chain", "--input", path, "--kernel", "exp", "--interval", "0,1"
        )
        assert code == 0
        assert report["schema"] == 1
        assert report["exit_status"] == "ok"
        assert report["result"]["generated_pair"] is True

        x = np.array(CHAIN_INPUT["x"])
        b = np.array(CHAIN_INPUT["b"])
        matrix = StochasticMatrix(CHAIN_INPUT["A"], "row")
        y, a = generate_weighted_pair(x, b, matrix)
        spec = function_from_name("exp", (0.0, 1.0))
        cert = estimate_strong_modulus(spec, 2)
        chain = full_chain(
            WeightedVector(x, a, (0.0, 1.0)), WeightedVector(y, b, (0.0, 1.0)), matrix, spec
        )
        for key in ("lhs", "strong_bound", "plain_bound", "converse_bound", "modulus"):
            assert report["result"][key] == getattr(chain, key)
        assert report["result"]["chain_holds"] is True
        assert report["result"]["y"] == [float(v) for v in y]
        assert report["certificates"]["modulus"]["modulus"] == cert.modulus
        assert report["config"]["majorize_tol"] == 1e-9

    def test_witness_verified_once(self, tmp_path, capsys, monkeypatch):
        from sherman_bounds import bounds, majorization

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return majorization.verify_weighted_majorization(*args, **kwargs)

        monkeypatch.setattr(bounds, "verify_weighted_majorization", counting)
        monkeypatch.setattr(cli, "verify_weighted_majorization", counting)
        path = write_json(tmp_path / "chain.json", CHAIN_INPUT)
        code, report = run_cli(capsys, "chain", "--input", path, "--kernel", "exp")
        assert code == 0
        assert len(calls) == 1
        assert report["certificates"]["majorization"]["tol"] == 1e-9

    def test_explicit_pair_accepted(self, tmp_path, capsys):
        x = np.array(CHAIN_INPUT["x"])
        b = np.array(CHAIN_INPUT["b"])
        y, a = generate_weighted_pair(x, b, StochasticMatrix(CHAIN_INPUT["A"], "row"))
        data = dict(CHAIN_INPUT, y=[float(v) for v in y], a=[float(v) for v in a])
        path = write_json(tmp_path / "chain.json", data)
        code, report = run_cli(
            capsys, "chain", "--input", path, "--kernel", "square", "--interval", "0,1"
        )
        assert code == 0
        assert report["result"]["generated_pair"] is False
        assert "y" not in report["result"]

    def test_degenerate_hull_needs_interval(self, tmp_path, capsys):
        data = {"x": [0.5, 0.5], "b": [1.0], "A": [[0.5, 0.5]]}
        path = write_json(tmp_path / "degenerate.json", data)
        code, report = run_cli(capsys, "chain", "--input", path, "--kernel", "exp")
        assert code == 3
        assert report["error_type"] == "DegenerateInterval"
        assert report["exit_status"] == "error"


class TestMajorizeCommand:
    def test_holds_with_witness(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", {"x": [3.0, 2.0, 1.0], "y": [2.0, 2.0, 2.0]})
        code, report = run_cli(capsys, "majorize", "--input", path)
        assert code == 0
        assert report["result"]["relation"] == "holds"
        assert report["result"]["witness_k"] is None
        matrix = np.array(report["result"]["matrix"])
        assert matrix.shape == (3, 3)
        assert report["result"]["construction_residual"] <= 1e-10

    def test_report_carries_the_witness_and_its_residual(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 1.0, 16)
        y = random_doubly_stochastic(rng, 16) @ x
        path = write_json(tmp_path / "m.json", {"x": x.tolist(), "y": y.tolist()})
        code, report = run_cli(capsys, "majorize", "--input", path)
        cert = majorizes(x, y, cli.MAJORIZE_TOL, with_matrix=True)
        assert code == 0 and cert.holds
        # repr floats round-trip, so == here is equality bit for bit
        assert report["result"]["matrix"] == cert.matrix.entries.tolist()
        assert report["result"]["construction_residual"].hex() == cert.residual.hex()

    def test_failure_exits_one(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", {"x": [2.0, 2.0, 2.0], "y": [3.0, 2.0, 1.0]})
        code, report = run_cli(capsys, "majorize", "--input", path)
        assert code == 1
        assert report["exit_status"] == "violated"
        assert report["result"]["relation"] == "fails"
        assert report["result"]["witness_k"] == 1
        assert report["result"]["matrix"] is None

    def test_non_finite_input_exits_two(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text('{"x": [1, 2], "y": [NaN, 0]}')  # json.load accepts NaN
        code, report = run_cli(capsys, "majorize", "--input", str(path))
        assert code == 2
        assert report["error_type"] == "ValidationError"
        assert report["exit_status"] == "error"


class TestDivergenceCommand:
    def test_json_input_matches_library(self, tmp_path, capsys):
        data = {"p": [0.5, 0.3, 0.2], "q": [0.4, 0.35, 0.25]}
        path = write_json(tmp_path / "d.json", data)
        code, report = run_cli(capsys, "divergence", "--input", path, "--kernel", "kl")
        assert code == 0
        assert report["result"]["kernel"] == "kl"
        assert report["result"]["holds"] is True
        value = kl_fsum(data["p"], data["q"])
        assert abs(report["result"]["value"] - value) <= 1e-15
        assert report["result"]["lower_strong"] <= report["result"]["value"] + 1e-9

    def test_csv_equals_json(self, tmp_path, capsys):
        data = {"p": [0.5, 0.5], "q": [0.2, 0.8]}
        json_path = write_json(tmp_path / "d.json", data)
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("p,q\n0.5,0.2\n0.5,0.8\n")
        code_j, report_j = run_cli(
            capsys, "divergence", "--input", json_path, "--kernel", "chi_square"
        )
        code_c, report_c = run_cli(
            capsys, "divergence", "--input", str(csv_path), "--kernel", "chi_square"
        )
        assert code_j == code_c == 0
        assert report_j["result"] == report_c["result"]
        assert abs(report_j["result"]["value"] - 0.36) <= 1e-12

    def test_aggregation_matrix(self, tmp_path, capsys):
        data = {
            "p": [0.3, 0.2, 0.3, 0.2],
            "q": [0.2, 0.25, 0.25, 0.3],
            "R": [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]],
        }
        path = write_json(tmp_path / "agg.json", data)
        code, report = run_cli(capsys, "divergence", "--input", path, "--kernel", "kl")
        assert code == 0
        assert report["result"]["lower_ck"] > 0.0
        assert report["result"]["holds"] is True

    def test_explicit_interval(self, tmp_path, capsys):
        # ratios q/p are 0.8, 7/6 and 1.25
        data = {"p": [0.5, 0.3, 0.2], "q": [0.4, 0.35, 0.25]}
        path = write_json(tmp_path / "d.json", data)
        code, report = run_cli(
            capsys, "divergence", "--input", path, "--kernel", "kl", "--interval", "0.5,2"
        )
        assert code == 0
        assert report["config"]["interval"] == [0.5, 2.0]
        result = report["result"]
        assert result["holds"] is True
        assert result["lower_ck"] <= result["lower_strong"] <= result["value"]
        assert result["value"] <= result["upper_converse"]
        # kl's modulus is min 1/(2t) over the interval: 1/4 on [0.5, 2], not the hull's 0.4
        assert 0.24 <= result["modulus"] <= 0.25

    def test_interval_leaving_out_a_ratio_exits_three(self, tmp_path, capsys):
        data = {"p": [0.5, 0.3, 0.2], "q": [0.4, 0.35, 0.25]}
        path = write_json(tmp_path / "d.json", data)
        code, report = run_cli(
            capsys, "divergence", "--input", path, "--kernel", "kl", "--interval", "0.9,2"
        )
        assert code == 3
        assert report["error_type"] == "RatioOutOfDomain"
        assert report["exit_status"] == "error"

    def test_renyi_exponent_suffix(self, tmp_path, capsys):
        data = {"p": [0.5, 0.5], "q": [0.4, 0.6]}
        path = write_json(tmp_path / "r.json", data)
        code, report = run_cli(capsys, "divergence", "--input", path, "--kernel", "renyi:2")
        assert code == 0
        assert report["result"]["kernel"] == "renyi:2"
        assert "alpha" not in report["config"]

    def test_alpha_for_another_kernel_exits_two(self, tmp_path):
        # the exponent is the kernel's renyi:a suffix; --alpha is an unknown flag for every kernel
        path = write_json(tmp_path / "r.json", {"p": [0.5, 0.5], "q": [0.4, 0.6]})
        for kernel in ("kl", "renyi:2"):
            with pytest.raises(SystemExit) as excinfo:
                main(["divergence", "--input", path, "--kernel", kernel, "--alpha", "2"])
            assert excinfo.value.code == 2

    def test_csv_parse_errors(self, tmp_path, capsys):
        three = tmp_path / "three.csv"
        three.write_text("0.5,0.2,0.1\n")
        code, report = run_cli(capsys, "divergence", "--input", str(three), "--kernel", "kl")
        assert code == 2 and report["error_type"] == "ParseError"
        assert "expected 2 columns" in report["error"]

        bad_cell = tmp_path / "bad.csv"
        bad_cell.write_text("0.5,0.2\n0.5,oops\n")
        code, report = run_cli(capsys, "divergence", "--input", str(bad_cell), "--kernel", "kl")
        assert code == 2 and "line 2" in report["error"]

        empty = tmp_path / "empty.csv"
        empty.write_text("p,q\n")
        code, report = run_cli(capsys, "divergence", "--input", str(empty), "--kernel", "kl")
        assert code == 2 and "no data rows" in report["error"]

        absent = str(tmp_path / "absent.csv")
        code, report = run_cli(capsys, "divergence", "--input", absent, "--kernel", "kl")
        assert code == 2 and report["error_type"] == "ParseError"
        assert report["error"].startswith(f"cannot read {absent}")


class TestCertificateCounts:
    """Each command evaluates its modulus certificate once and reports that one."""

    def test_chain_evaluates_one_certificate(self, tmp_path, capsys, monkeypatch):
        calls = count_certificates(monkeypatch)
        path = write_json(tmp_path / "chain.json", CHAIN_INPUT)
        code, report = run_cli(capsys, "chain", "--input", path, "--kernel", "exp")
        assert code == 0
        assert len(calls) == 1
        spec, n = calls[0]
        assert n == 2 and spec.name == "exp"
        assert report["certificates"]["modulus"]["modulus"] == report["result"]["modulus"]

    def test_chain_with_explicit_modulus_reports_the_certificate(self, tmp_path, capsys,
                                                                 monkeypatch):
        calls = count_certificates(monkeypatch)
        path = write_json(tmp_path / "chain.json", CHAIN_INPUT)
        code, report = run_cli(capsys, "chain", "--input", path, "--kernel", "exp",
                               "--interval", "0,1", "--modulus", "0.25")
        assert code == 0
        assert len(calls) == 1
        assert report["result"]["modulus"] == 0.25
        cert = estimate_strong_modulus(function_from_name("exp", (0.0, 1.0)), 2)
        assert report["certificates"]["modulus"]["modulus"] == cert.modulus

    @pytest.mark.parametrize("name, text", [
        ("agg.json", json.dumps({"p": [0.3, 0.2, 0.3, 0.2], "q": [0.2, 0.25, 0.25, 0.3],
                                 "R": [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]})),
        ("d.csv", "p,q\n0.5,0.4\n0.3,0.35\n0.2,0.25\n"),
    ], ids=["json-with-R", "csv"])
    def test_divergence_evaluates_one_certificate(self, tmp_path, capsys, monkeypatch,
                                                  name, text):
        calls = count_certificates(monkeypatch)
        path = tmp_path / name
        path.write_text(text)
        code, report = run_cli(capsys, "divergence", "--input", str(path), "--kernel", "kl")
        assert code == 0
        assert len(calls) == 1
        assert report["certificates"]["modulus"]["modulus"] == report["result"]["modulus"]


class TestVerifyIdentityCommand:
    INSTANCE = {"x": [0.0, 1.0], "a": [0.5, 0.5], "y": [0.5], "b": [1.0]}

    def test_residual_within_budget(self, tmp_path, capsys):
        path = write_json(tmp_path / "v.json", self.INSTANCE)
        code, report = run_cli(
            capsys, "verify-identity", "--input", path, "--kernel", "exp",
            "--interval", "0,1", "--order", "3",
        )
        assert code == 0
        assert report["result"]["residual_ok"] is True
        assert abs(report["result"]["residual"]) <= report["result"]["residual_budget"]
        assert report["result"]["order"] == 3
        assert report["result"]["kernel_condition"] in ("nonnegative", "nonpositive", "indefinite")

    def test_witness_verified_when_given(self, tmp_path, capsys):
        data = dict(self.INSTANCE, A=[[0.5, 0.5]])
        path = write_json(tmp_path / "v.json", data)
        code, report = run_cli(
            capsys, "verify-identity", "--input", path, "--kernel", "exp",
            "--interval", "0,1",
        )
        assert code == 0
        assert report["certificates"]["majorization"]["point_residual"] <= 1e-9

    def test_quadrature_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise QuadratureFailure("synthetic integrator breakdown")

        monkeypatch.setattr(cli, "sherman_difference_identity", boom)
        path = write_json(tmp_path / "v.json", self.INSTANCE)
        code, report = run_cli(
            capsys, "verify-identity", "--input", path, "--kernel", "exp",
            "--interval", "0,1",
        )
        assert code == 4
        assert report["error_type"] == "QuadratureFailure"

    def test_unreachable_tolerance_exits_through_the_integrator(self, tmp_path, capsys):
        path = write_json(tmp_path / "v.json", self.INSTANCE)
        code, report = run_cli(
            capsys, "verify-identity", "--input", path, "--kernel", "exp",
            "--interval", "0,1", "--quad-tol", "1e-300",
        )
        assert code == 4
        assert report["error_type"] == "QuadratureFailure"
        assert report["error"].startswith("integration on [0.0, 0.5] failed: ")
        assert "roundoff error is detected" in report["error"]


#: One input per subcommand: file name, file text and the flags after --input.
REPORT_CASES = {
    "chain": ("c.json", json.dumps(CHAIN_INPUT), ["--kernel", "exp", "--interval", "0,1"]),
    "divergence": ("d.csv", "p,q\n0.5,0.4\n0.3,0.35\n0.2,0.25\n", ["--kernel", "kl"]),
    "majorize": ("m.json", json.dumps({"x": [3.0, 2.0, 1.0], "y": [2.0, 2.0, 2.0]}), []),
    "verify-identity": ("v.json", json.dumps(TestVerifyIdentityCommand.INSTANCE),
                        ["--kernel", "exp", "--interval", "0,1", "--order", "3"]),
}


class TestReports:
    @pytest.mark.parametrize("command", sorted(REPORT_CASES))
    def test_byte_identical_reruns_and_output_file(self, tmp_path, capsys, command):
        name, text, flags = REPORT_CASES[command]
        (tmp_path / name).write_text(text)
        argv = [command, "--input", str(tmp_path / name), *flags]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

        out_path = tmp_path / "report.json"
        file_argv = argv + ["--output", str(out_path)]
        assert main(file_argv) == 0
        assert capsys.readouterr().out == ""
        file_first = out_path.read_bytes()
        assert main(file_argv) == 0
        assert out_path.read_bytes() == file_first
        # file and stdout reports differ only in the echoed output path
        assert json.loads(file_first)["result"] == json.loads(first)["result"]


class TestErrorExits:
    def test_negative_weight(self, tmp_path, capsys):
        data = dict(CHAIN_INPUT, b=[0.7, -1.3])
        path = write_json(tmp_path / "c.json", data)
        code, report = run_cli(capsys, "chain", "--input", path, "--kernel", "exp")
        assert code == 2 and report["error_type"] == "ValidationError"

    def test_missing_file(self, tmp_path, capsys):
        code, report = run_cli(
            capsys, "chain", "--input", str(tmp_path / "nope.json"), "--kernel", "exp"
        )
        assert code == 2 and report["error_type"] == "ParseError"

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"x": [1, 2\n}')
        code, report = run_cli(capsys, "chain", "--input", str(path), "--kernel", "exp")
        assert code == 2
        assert "2:1" in report["error"]

    @pytest.mark.parametrize("matrix,message", [
        ([], "nonempty array of rows"),
        ({"0": [1.0]}, "nonempty array of rows"),
        ([[0.5, 0.5], []], "rows must be nonempty arrays"),
        ([[0.5, 0.5], 1.0], "rows must be nonempty arrays"),
        ([[0.6, 0.3, 0.1], [0.5, 0.5]], "inconsistent lengths"),
    ])
    def test_malformed_matrix(self, tmp_path, capsys, matrix, message):
        path = write_json(tmp_path / "c.json", dict(CHAIN_INPUT, A=matrix))
        code, report = run_cli(capsys, "chain", "--input", path, "--kernel", "exp")
        assert code == 2 and report["error_type"] == "ParseError"
        assert message in report["error"]

    def test_input_that_is_not_an_object(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", [[3.0, 2.0], [2.5, 2.5]])
        code, report = run_cli(capsys, "majorize", "--input", path)
        assert code == 2 and report["error_type"] == "ParseError"
        assert "must be a JSON object" in report["error"]

    def test_missing_keys(self, tmp_path, capsys):
        path = write_json(tmp_path / "c.json", {"x": [0.1, 0.2]})
        code, report = run_cli(capsys, "chain", "--input", path, "--kernel", "exp")
        assert code == 2 and "misses keys" in report["error"]

    def test_boolean_is_not_a_number(self, tmp_path, capsys):
        data = dict(CHAIN_INPUT, x=[0.1, True, 0.9])
        path = write_json(tmp_path / "c.json", data)
        code, report = run_cli(capsys, "chain", "--input", path, "--kernel", "exp")
        assert code == 2 and "numbers only" in report["error"]

    def test_unknown_kernel(self, tmp_path, capsys):
        path = write_json(tmp_path / "c.json", CHAIN_INPUT)
        code, report = run_cli(
            capsys, "chain", "--input", path, "--kernel", "mystery", "--interval", "0,1"
        )
        assert code == 2 and report["error_type"] == "ValidationError"

    @pytest.mark.parametrize("kernel", ["pow:inf", "pow:nan", "pow:1e400"])
    def test_non_finite_function_exponent(self, tmp_path, capsys, kernel):
        path = write_json(tmp_path / "c.json", CHAIN_INPUT)
        code, report = run_cli(capsys, "chain", "--input", path, "--kernel", kernel)
        assert code == 2 and report["error_type"] == "ValidationError"
        assert "is not finite" in report["error"]

    @pytest.mark.parametrize("kernel", ["renyi:inf", "renyi:1e400"])
    def test_non_finite_renyi_exponent(self, tmp_path, capsys, kernel):
        path = write_json(tmp_path / "d.json", {"p": [0.5, 0.5], "q": [0.2, 0.8]})
        code, report = run_cli(capsys, "divergence", "--input", path, "--kernel", kernel)
        assert code == 2 and report["error_type"] == "ValidationError"
        assert "is not finite" in report["error"]

    def test_overflowing_modulus_exits_three_without_a_warning(self, tmp_path, capsys):
        path = write_json(tmp_path / "d.json", {"p": [0.5, 0.5], "q": [0.2, 0.8]})
        argv = ["divergence", "--input", path, "--kernel", "renyi:400", "--interval", "0.1,10"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error_type"] == "ModulusNotCertified"
        assert "Warning" not in captured.err

    def test_kernel_required(self, tmp_path, capsys):
        path = write_json(tmp_path / "c.json", CHAIN_INPUT)
        code, report = run_cli(capsys, "chain", "--input", path, "--interval", "0,1")
        assert code == 2

    def test_inflated_modulus_is_domain_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "c.json", CHAIN_INPUT)
        code, report = run_cli(
            capsys, "chain", "--input", path, "--kernel", "exp",
            "--interval", "0,1", "--modulus", "0.9",
        )
        assert code == 3
        assert report["error_type"] == "ModulusNotCertified"

    @pytest.mark.parametrize("p", [5, None])
    def test_divergence_vector_that_is_not_an_array(self, tmp_path, capsys, p):
        path = write_json(tmp_path / "d.json", {"p": p, "q": [0.5, 0.5]})
        code, report = run_cli(capsys, "divergence", "--input", path, "--kernel", "kl")
        assert code == 2 and report["error_type"] == "ParseError"

    @pytest.mark.parametrize("command,data,kernel", [
        ("chain", {"x": [1e300, -1e300], "b": [1.0], "A": [[0.5, 0.5]]}, "square"),
        ("divergence", {"p": [1e-300, 1.0], "q": [1.0, 1e-300]}, "kl"),
    ])
    def test_overflowing_report_value_exits_two(self, tmp_path, capsys, command, data, kernel):
        path = write_json(tmp_path / "in.json", data)
        code, report = run_cli(capsys, command, "--input", path, "--kernel", kernel)  # S_a x^2 = inf
        assert code == 2 and report["error_type"] == "ValidationError"
        assert "non-finite value" in report["error"]

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("interval", [[], ["--interval=-1,1"]])
    def test_non_finite_literal_exits_two(self, tmp_path, capsys, literal, interval):
        chain = tmp_path / "c.json"
        chain.write_text(f'{{"x": [{literal}, 0.4, 0.9], "b": [0.7, 1.3], '
                         '"A": [[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]]}')
        identity = tmp_path / "v.json"
        identity.write_text(f'{{"x": [0.0, 1.0], "a": [0.5, 0.5], "y": [{literal}], "b": [1.0]}}')
        for command, path in (("chain", chain), ("verify-identity", identity)):
            code, report = run_cli(
                capsys, command, "--input", str(path), "--kernel", "exp", *interval
            )
            assert code == 2 and report["error_type"] == "ValidationError"
            assert "finite numbers only" in report["error"]

    def test_integer_beyond_float_range_exits_two(self, tmp_path, capsys):
        path = write_json(tmp_path / "c.json", dict(CHAIN_INPUT, x=[10**400, 0.4, 0.9]))
        code, report = run_cli(capsys, "chain", "--input", path, "--kernel", "exp")
        assert code == 2 and report["error_type"] == "ValidationError"

    def test_overflowing_majorize_sums_exit_two(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", {"x": [1.7e308] * 2, "y": [1.7e308, 1.6e308]})
        code, report = run_cli(capsys, "majorize", "--input", path)
        assert code == 2 and report["error_type"] == "ValidationError"
        assert "overflow" in report["error"]

    def test_overflowing_ratio_exits_two(self, tmp_path, capsys):
        path = write_json(tmp_path / "d.json", {"p": [1e-300, 1.0], "q": [1e300, 1.0]})
        code, report = run_cli(capsys, "divergence", "--input", path, "--kernel", "kl")
        assert code == 2 and report["error_type"] == "ValidationError"
        assert "non-finite ratio" in report["error"]

    def test_blank_csv_lines_are_skipped(self, tmp_path, capsys):
        dense = tmp_path / "dense.csv"
        dense.write_text("p,q\n0.5,0.2\n0.5,0.8\n")
        sparse = tmp_path / "sparse.csv"
        sparse.write_text("p,q\n\n0.5,0.2\n , \n0.5,0.8\n\n")
        code_d, report_d = run_cli(capsys, "divergence", "--input", str(dense), "--kernel", "kl")
        code_s, report_s = run_cli(capsys, "divergence", "--input", str(sparse), "--kernel", "kl")
        assert code_d == code_s == 0
        assert report_s["result"] == report_d["result"]

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-2"])
    def test_alpha_must_be_finite_and_positive(self, tmp_path, capsys, alpha):
        path = write_json(tmp_path / "d.json", {"p": [0.5, 0.5], "q": [0.2, 0.8]})
        code, report = run_cli(capsys, "divergence", "--input", path, "--kernel", "renyi:" + alpha)
        assert code == 2 and report["error_type"] == "ValidationError"

    def test_argparse_rejections(self, tmp_path):
        path = str(tmp_path / "c.json")
        for argv in (
            ["chain", "--input", path, "--interval", "1"],
            ["chain", "--input", path, "--interval", "2,1"],
            ["chain", "--input", path, "--modulus", "-0.5"],
            ["verify-identity", "--input", path, "--order", "0"],
            ["verify-identity", "--input", path, "--quad-tol", "0"],
            ["verify-identity", "--input", path, "--quad-tol", "nan"],
            ["verify-identity", "--input", path, "--quad-tol", "inf"],
            ["verify-identity", "--input", path, "--quad-tol", "-2"],
            # values that are not numbers
            ["chain", "--input", path, "--interval", "0,one"],
            ["chain", "--input", path, "--modulus", "half"],
            ["verify-identity", "--input", path, "--quad-tol", "two"],
            ["verify-identity", "--input", path, "--order", "2.5"],
            ["chain", "--input", path, "--grid", "1"],  # the flag is gone
            # flags a subcommand would ignore are not registered on it
            ["chain", "--input", path, "--order", "3"],
            ["majorize", "--input", path, "--kernel", "exp"],
            ["verify-identity", "--input", path, "--modulus", "0.3"],
            ["unknown-command"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2

    def test_explicit_auto_modulus(self, tmp_path, capsys):
        path = write_json(tmp_path / "c.json", CHAIN_INPUT)
        argv = ["chain", "--input", path, "--kernel", "exp", "--interval", "0,1"]
        code_auto, report_auto = run_cli(capsys, *argv, "--modulus", " AUTO ")
        code_default, report_default = run_cli(capsys, *argv)
        assert code_auto == code_default == 0
        assert report_auto == report_default
        assert report_auto["config"]["modulus"] == "auto"

    @pytest.mark.parametrize("level", ["CHATTY", "basic_format"])
    def test_unknown_log_level_falls_back_to_warning(self, tmp_path, capsys, monkeypatch, level):
        # BASIC_FORMAT is an attribute of logging, but a string, not a level
        monkeypatch.setenv("SHERMAN_BOUNDS_LOG", level)
        cli.logger.setLevel(logging.DEBUG)
        path = write_json(tmp_path / "c.json", CHAIN_INPUT)
        code = main(["chain", "--input", path, "--kernel", "exp"])
        captured = capsys.readouterr()
        json.loads(captured.out)
        assert code == 0
        assert cli.logger.level == logging.WARNING
        assert f"SHERMAN_BOUNDS_LOG={level!r} is not a log level; using WARNING" in captured.err


class TestInstalledEntryPoint:
    """The ``sherman-bounds`` command run in a fresh process.

    The tests run ``python -m sherman_bounds``, which needs no installed
    console script, and check that it calls the very function
    ``[project.scripts]`` declares.  The child imports the same package
    this suite imported, whatever the working directory.
    """

    @staticmethod
    def _run(argv, cwd, **env):
        environ = dict(os.environ, **env)
        environ["PYTHONPATH"] = os.pathsep.join(
            filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])
        )
        return subprocess.run(
            argv, capture_output=True, text=True, timeout=120, env=environ, cwd=cwd
        )

    def test_console_script(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"x": [3.0, 2.0, 1.0], "y": [2.0, 2.0, 2.0]}))
        args = ["majorize", "--input", str(path)]
        proc = self._run([sys.executable, "-m", "sherman_bounds", *args], tmp_path)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["result"]["relation"] == "holds"

        exe = shutil.which("sherman-bounds")
        if exe is not None:
            installed = self._run([exe, *args], tmp_path)
            assert installed.returncode == proc.returncode
            assert installed.stdout == proc.stdout

        # Last: without tomllib (Python 3.10) the runs above are still checked.
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["sherman-bounds"]
        declared = EntryPoint("sherman-bounds", target, "console_scripts").load()
        from sherman_bounds import __main__ as module_entry

        assert declared is module_entry.main

    def test_log_env_variable(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(CHAIN_INPUT))
        proc = self._run(
            [sys.executable, "-m", "sherman_bounds", "chain", "--input", str(path),
             "--kernel", "exp", "--interval", "0,1"],
            tmp_path,
            SHERMAN_BOUNDS_LOG="INFO",
        )
        assert proc.returncode == 0, proc.stderr
        assert "modulus certificate" in proc.stderr
