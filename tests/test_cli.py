import importlib
import json
import math
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from hartogs.cli import build_parser, render_csv, render_json, run
from hartogs.counterexample import projection_constant
from hartogs.estimates import weighted_ball_integral
from hartogs.kernels import monomial_norm_sq_ball


def invoke(*args, env=None):
    proc = subprocess.run([sys.executable, "-m", "hartogs.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc


class TestSchurRange:
    def test_n2_values(self, capsys):
        assert run(["schur-range", "--n", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"low": pytest.approx(4 / 3), "high": 4.0}

    def test_twelve_digit_format(self, capsys):
        run(["schur-range", "--n", "2"])
        out = capsys.readouterr().out
        assert '"low": 1.33333333333' in out
        assert '"high": 4' in out

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "range.json"
        assert run(["schur-range", "--n", "3", "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        data = json.loads(target.read_text())
        assert data["low"] == pytest.approx(1.5)
        assert data["high"] == pytest.approx(3.0)


class TestKernelCommand:
    def test_disk_value(self, capsys):
        assert run(["kernel", "--model", "disk", "--w", "0.5", "--eta", "0.5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"]["re"] == pytest.approx(16 / 9)
        assert data["value"]["im"] == 0.0

    def test_hartogs_value(self, capsys):
        assert run(["kernel", "--model", "hartogs", "--n", "2", "--k", "1",
                    "--w", "0,0.5", "--eta", "0,0.5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"]["re"] == pytest.approx(64 / 9)

    def test_truncated_ball(self, capsys):
        assert run(["kernel", "--model", "ball", "--k", "2",
                    "--w", "0.3,0.3", "--eta", "0.3,0.3", "--truncated", "40"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["truncated"]["re"] == pytest.approx(data["value"]["re"], rel=1e-8)

    def test_truncated_product(self, capsys):
        assert run(["kernel", "--model", "product", "--n", "2", "--k", "1",
                    "--w", "0.3,0.4", "--eta", "0.2,0.5", "--truncated", "40"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert list(data) == ["model", "truncated", "value"]
        assert data["truncated"]["re"] == pytest.approx(data["value"]["re"], rel=1e-8)

    @pytest.mark.parametrize("argv,message", [
        (["--model", "hartogs", "--w", "0,0.5", "--eta", "0,0.5"],
         "need --spec, --example, or both --n and --k"),
        (["--model", "ball", "--w", "0.1,0.1", "--eta", "0.1,0.1"],
         "--k is required for the ball kernel"),
    ])
    def test_missing_model_options_exit_2(self, argv, message, capsys):
        assert run(["kernel", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_outside_domain_is_invalid_argument(self, capsys):
        code = run(["kernel", "--model", "hartogs", "--n", "2", "--k", "1",
                    "--w", "0.5,0.3", "--eta", "0,0.5"])
        assert code == 2

    def test_truncated_hartogs_kernel_exits_2(self, capsys):
        # the hartogs model has no truncation; the option used to be dropped
        assert run(["kernel", "--model", "hartogs", "--n", "2", "--k", "1",
                    "--w", "0,0.5", "--eta", "0,0.5", "--truncated", "40"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--truncated serves the disk, ball and product models" in captured.err

    @pytest.mark.parametrize("argv", [
        ["--model", "disk", "--w", "0.1", "--eta", "2"],
        ["--model", "disk", "--w", "1", "--eta", "1"],      # w conj(eta) = 1
        ["--model", "disk", "--w", "0", "--eta", "0.5"],    # the puncture
        ["--model", "ball", "--k", "2", "--w", "0.8,0.8", "--eta", "0,0.1"],
        ["--model", "product", "--n", "2", "--k", "1", "--w", "0.5,0", "--eta", "0.5,0.5"],
    ])
    def test_other_models_reject_points_outside_their_domain(self, argv, capsys):
        assert run(["kernel", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outside" in captured.err


class TestMomentsCommand:
    def test_formula_and_mc(self, capsys):
        assert run(["moments", "--k", "2", "--nu", "1,1",
                    "--mc-samples", "200000", "--seed", "7"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["formula"] == pytest.approx(1 / 6)
        assert data["sigmas"] < 3.0

    def test_worker_count_does_not_change_bytes(self, capsys):
        args = ["moments", "--k", "2", "--nu", "2,0",
                "--mc-samples", "100000", "--seed", "9"]
        run(args + ["--workers", "1"])
        first = capsys.readouterr().out
        run(args + ["--workers", "4"])
        second = capsys.readouterr().out
        assert first == second

    def test_constant_moment_has_zero_sigmas(self, capsys):
        # every sample of |xi^0|^2 is 1, so the zero error bar is exact
        assert run(["moments", "--k", "2", "--nu", "0,0", "--mc-samples", "1000"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["mc_estimate"], data["std_error"], data["sigmas"]) == (1, 0, 0)

    def test_ball_norm(self, capsys):
        assert run(["moments", "--k", "2", "--nu", "1,1", "--mc-samples", "1000",
                    "--ball-norm"]) == 0
        data = json.loads(capsys.readouterr().out)
        # k! nu! / (|nu| + k)! = 2 / 24, printed at 12 digits
        assert data["ball_norm_sq"] == float(f"{monomial_norm_sq_ball(2, (1, 1)):.12g}")
        assert data["ball_norm_sq"] == pytest.approx(1 / 12, rel=1e-12)


class TestWorkersOption:
    def test_each_default_is_the_library_default(self, monkeypatch):
        from hartogs import cli, config
        monkeypatch.setattr(config, "WORKERS", 7)
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions if a.dest == "command").choices
        defaults = {name: action.default for name, sub in subparsers.items()
                    for action in sub._actions if action.dest == "workers"}
        assert defaults == {"moments": 7, "project": 7}
        assert "mc.WORKERS" in subparsers["project"].format_help()


class TestEstimatesCommand:
    def test_csv_format(self, capsys):
        assert run(["estimates", "--which", "ball", "--k", "1", "--alpha=-0.5",
                    "--r-min", "0", "--r-max", "0.9", "--grid-points", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "r,value,envelope,ratio"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == pytest.approx(2.0)

    def test_csv_columns(self, capsys):
        assert run(["estimates", "--which", "ball", "--k", "1", "--alpha", "-0.5",
                    "--grid-points", "5", "--r-max", "0.9"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "r,value,envelope,ratio"
        assert len(lines) == 6

    def test_refined_disk(self, capsys):
        assert run(["estimates", "--which", "disk", "--alpha", "-0.5",
                    "--beta", "-1", "--r-min", "0.001", "--grid-points", "5",
                    "--refined"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6

    def test_refined_ball_exits_2(self, capsys):
        assert run(["estimates", "--which", "ball", "--alpha=-0.5", "--grid-points", "3",
                    "--refined"]) == 2
        assert capsys.readouterr() == (
            "", "error: refined envelope requires the disk family with beta <= 0\n")

    def test_default_disk_call_works(self, capsys):
        # the grid starts at r = 0, where only the refined envelope is undefined
        assert run(["estimates", "--which", "disk", "--alpha", "-0.5",
                    "--grid-points", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "r,value,envelope,ratio"
        assert len(lines) == 4
        assert lines[1].startswith("0,")

    def test_disk_with_large_beta_prints_the_mpmath_digits(self, capsys):
        mpmath = pytest.importorskip("mpmath")
        assert run(["estimates", "--which", "disk", "--alpha=-0.5", "--beta", "8000",
                    "--r-min", "0.998", "--r-max", "0.999", "--grid-points", "2"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        with mpmath.workdps(40):
            b = mpmath.mpf(4001)
            for r, value, _, _ in rows:
                x = mpmath.mpf(float(r)) ** 2
                want = mpmath.beta(0.5, b) * mpmath.hyp2f1(1, b, b + 0.5, x)
                assert value == f"{float(want):.12g}", r

    def test_refined_on_a_grid_with_zero_exits_2(self, capsys):
        assert run(["estimates", "--which", "disk", "--alpha", "-0.5",
                    "--grid-points", "3", "--refined"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid point r = 0" in captured.err

    def test_refined_envelope_overflow_exits_2(self, capsys):
        # r^beta = 1e380 at r = 1e-200: no RuntimeWarning (an error under
        # pytest), and the message names the envelope and the radius
        assert run(["estimates", "--which", "disk", "--alpha=-0.5", "--beta=-1.9",
                    "--r-min", "1e-200", "--r-max", "0.5", "--grid-points", "2",
                    "--refined"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the refined envelope (1-r^2)^alpha r^beta overflows "
                                "at r = 1e-200 (beta = -1.9)\n")
        # the plain table does not need r^beta
        assert run(["estimates", "--which", "disk", "--alpha=-0.5", "--beta=-1.9",
                    "--r-min", "1e-200", "--r-max", "0.5", "--grid-points", "2"]) == 0
        assert capsys.readouterr().out.startswith("r,value,envelope,ratio\n1e-200,")

    def test_nonconvergence_exit_code(self, capsys):
        # named for what it once checked: with c = alpha + beta/2 + 2 = 5001.5 a
        # series took these radii, and its term cap ended it at r = 0.99999
        # with exit 1; the closed form now prints the mpmath digits
        mpmath = pytest.importorskip("mpmath")
        assert run(["estimates", "--which", "disk", "--alpha=-0.5", "--beta", "10000",
                    "--r-min", "0.5", "--r-max", "0.99999", "--grid-points", "2"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["0.5", "0.99999"]
        with mpmath.workdps(40):
            b = mpmath.mpf(5001)
            for r, value, _, _ in rows:
                x = mpmath.mpf(float(r) * float(r))  # the double x the closed form sees
                want = mpmath.beta(0.5, b) * mpmath.hyp2f1(1, b, b + 0.5, x)
                assert value == f"{float(want):.12g}", r

    def test_c_past_the_cap_exits_2_naming_c(self, capsys):
        assert run(["estimates", "--which", "disk", "--alpha=-0.5", "--beta", "1e6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "c <= 65536" in captured.err and "c=500001.5" in captured.err

    def test_ball_at_k_65000_exits_2_naming_the_first_non_finite_radius(self, capsys):
        start = time.perf_counter()
        assert run(["estimates", "--which", "ball", "--k", "65000", "--alpha=-0.5"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and "not finite (got inf)" in captured.err
        named = float(re.search(r"r=([0-9.]+) is not finite", captured.err).group(1))
        grid = np.linspace(0.0, 0.999, 200).tolist()
        first = grid.index(named)
        assert 0 < first and np.isfinite(weighted_ball_integral(65000, -0.5, grid[:first])).all()

    def test_large_ball_dimension_prints_finite_values(self, capsys):
        assert run(["estimates", "--which", "ball", "--k", "400", "--alpha", "-0.5",
                    "--grid-points", "3"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "0.4995", "0.999"]
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))

    def test_large_ball_dimension_near_alpha_minus_one(self, capsys):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        assert run(["estimates", "--which", "ball", "--k", "400", "--alpha=-0.99",
                    "--grid-points", "3"]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.strip().splitlines()[1:]]
        assert [row[0] for row in rows] == ["0", "0.4995", "0.999"]
        for r, value, _, _ in rows:
            h, a = mpmath.mpf(401) / 2, mpmath.mpf(-0.99)
            want = (mpmath.factorial(400) * mpmath.gamma(a + 1) / mpmath.gamma(401 + a)
                    * mpmath.hyp2f1(h, h, 401 + a, mpmath.mpf(r) ** 2))
            assert abs(float(value) / want - 1) <= 1e-10, r

    def test_ball_in_the_thousands(self, capsys):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        assert run(["estimates", "--which", "ball", "--k", "3000", "--alpha=-0.5",
                    "--r-max", "0.5", "--grid-points", "3"]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.strip().splitlines()[1:]]
        assert [row[0] for row in rows] == ["0", "0.25", "0.5"]
        for r, value, _, _ in rows:
            h, a = mpmath.mpf(3001) / 2, mpmath.mpf(-0.5)
            want = 3000 * mpmath.beta(3000, a + 1) * mpmath.hyp2f1(h, h, 3001 + a,
                                                                   mpmath.mpf(r) ** 2)
            assert abs(float(value) / want - 1) <= 1e-11, r

    def test_non_finite_closed_form_exits_2_naming_the_radius(self, capsys):
        # the integral is about 1.25e426 at r = 0.999
        assert run(["estimates", "--which", "ball", "--k", "1500", "--alpha=-0.5",
                    "--grid-points", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite" in captured.err and "r=0.999" in captured.err

    @pytest.mark.parametrize("option", [["--tol", "1e-12"], ["--max-terms", "1000000"]])
    def test_series_options_are_gone(self, option, capsys):
        assert run(["estimates", "--which", "ball", "--alpha=-0.5"] + option) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: " + " ".join(option) in captured.err

    def test_closed_form_past_the_reach_of_the_series(self, capsys):
        # at r = 1 - 1e-7 the series would need ~1e8 terms
        assert run(["estimates", "--which", "ball", "--k", "2", "--alpha", "-0.5",
                    "--r-max", "0.9999999", "--grid-points", "3"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4


class TestBlowupCommand:
    def test_csv_format(self, capsys):
        assert run(["blowup", "--n", "2", "--k", "1", "--p", repr(4 / 3),
                    "--m-list", "1,2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "m,norm_fm,proj_lower_bound,ratio"
        assert len(lines) == 3
        row = lines[1].split(",")
        assert int(row[0]) == 1
        assert float(row[2]) == pytest.approx(0.5 ** 0.75 * 2 * projection_constant(1))

    def test_csv_and_monotone_ratio(self, capsys):
        assert run(["blowup", "--n", "2", "--p", "1.3333333333", "--m-max", "20"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "m,norm_fm,proj_lower_bound,ratio"
        ratios = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_m_list(self, capsys):
        assert run(["blowup", "--n", "3", "--p", "1.5", "--m-list", "1,10,100"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 10, 100]

    def test_supercritical_p_rejected(self):
        assert run(["blowup", "--n", "2", "--p", "2.0", "--m-max", "5"]) == 2

    def test_largest_dimension_with_a_normal_volume(self, capsys):
        # 1/170! is the last normal k!/n! at k = 1; the ratio at m = 1 is C_1 = 0.75
        assert run(["blowup", "--n", "170", "--k", "1", "--p", "1.0", "--m-max", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[3] == "0.75"


class TestSchurVerifyCommand:
    def test_valid_witness(self, capsys):
        assert run(["schur-verify", "--n", "2", "--k", "1", "--p", "2.0",
                    "--samples", "50", "--seed", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["feasible"] is True
        assert data["witness"]["s"] == pytest.approx(-0.25)
        assert data["ratios_summary"]["max"] > data["ratios_summary"]["mean"]

    def test_report_json_schema(self, capsys):
        assert run(["schur-verify", "--n", "2", "--k", "1", "--p", "2.0",
                    "--samples", "50"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) >= {"p", "q", "witness", "ratios_summary", "samples"}
        assert set(data["ratios_summary"]) >= {"max", "mean"}
        assert data["witness"]["t"]["2"] == -1.0
        assert data["samples"] == 50

    def test_infeasible_p(self, capsys):
        assert run(["schur-verify", "--n", "2", "--k", "1", "--p", "4.0"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"p": 4.0, "feasible": False, "witness": None}

    def test_broken_witness_runs(self, capsys):
        assert run(["schur-verify", "--n", "2", "--k", "1", "--p", "2.0",
                    "--witness-s", "-0.25", "--witness-t", "-2.0",
                    "--samples", "20", "--seed", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["notes"]

    @pytest.mark.parametrize("argv,message", [
        (["--n", "2", "--k", "1", "--witness-s=-0.25"],
         "--witness-s and --witness-t must be given together"),
        (["--n", "3", "--k", "1", "--witness-s=-0.25", "--witness-t=-0.5"],
         "--witness-t needs 2 values"),
    ])
    def test_incomplete_witness_exits_2(self, argv, message, capsys):
        assert run(["schur-verify", "--p", "2.0", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestTransferCommand:
    def test_affine_example(self, capsys):
        assert run(["transfer", "--example", "affine4", "--p", "4.0",
                    "--constant", "1.0"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["bounds"] == {"c": 2.0, "d": 2.0, "method": "exact"}
        # constant Jacobian: the transfer factor collapses to the constant
        assert data["transfer_factor"] == pytest.approx(1.0)

    def test_spec_file(self, tmp_path, capsys):
        from hartogs.cli import builtin_example
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(builtin_example("rational3").to_json_dict()))
        assert run(["transfer", "--spec", str(path), "--p", "2.0"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["bounds"]["method"] == "sampled"
        assert data["transfer_factor"] == pytest.approx(data["constant"])

    def test_isometry_check(self, capsys):
        assert run(["transfer", "--example", "affine4", "--samples", "50000",
                    "--seed", "14", "--isometry-monomial", "0,0,0,1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["isometry"]["sigma_distance"] < 3.0

    def test_json_report(self, capsys):
        assert run(["transfer", "--n", "2", "--k", "1", "--samples", "20000",
                    "--isometry-monomial", "1,0"]) == 0
        data = json.loads(capsys.readouterr().out)["isometry"]
        assert set(data) == {"source", "target", "sigma_distance"}

    @pytest.mark.parametrize("exponents,message", [
        ("-1,0,1", "the ball exponent e_1 = -1 is negative"),
        ("0,0,-3", "the partial sum e_1 + ... + e_3 = -3 is below -2"),
    ])
    def test_isometry_monomial_outside_a2_exits_2(self, exponents, message, capsys):
        # rational3 standardizes to n = 3, k = 2: |z^e|^2 must be integrable there
        assert run(["transfer", "--example", "rational3", "--samples", "2000",
                    f"--isometry-monomial={exponents}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"z^e is not in A^2: {message}" in captured.err

    def test_isometry_check_with_no_accepted_proposal_exits_2(self, capsys):
        assert run(["transfer", "--example", "affine4", "--p", "3", "--samples", "3",
                    "--isometry-monomial", "0,0,0,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "accepted none of its 3 proposals" in captured.err
        assert "--samples" in captured.err


# malformed spec files: (JSON text, the field the message names)
_MALFORMED_SPECS = {
    "k_is_a_string": ('{"n": 3, "blocks": [{"k": "2", "map": {"type": "identity"}}]}',
                      "blocks[0].k must be an integer"),
    "affine_entry_not_a_pair": ('{"n": 2, "blocks": [{"k": 1, "map": '
                                '{"type": "affine", "A": [[2]]}}]}',
                                "A[0][0] must be a [re, im] pair"),
    "affine_entry_nan": ('{"n": 2, "blocks": [{"k": 1, "map": '
                         '{"type": "affine", "A": [[[NaN, 0]]]}}]}',
                         "A[0][0] must be a [re, im] pair of finite numbers, got [NaN, 0]"),
    "blocks_null": ('{"n": 3, "blocks": null}', "blocks must be a list"),
    "top_level_list": ("[1, 2]", "spec must be a JSON object"),
    "no_blocks": ('{"n": 3}', "spec has no 'blocks' field"),
    "n_is_a_float": ('{"n": 3.5, "blocks": [{"k": 2, "map": {"type": "identity"}}]}',
                     "spec field n must be an integer"),
    "map_not_an_object": ('{"n": 3, "blocks": [{"k": 2, "map": "identity"}]}',
                          "blocks[0].map: map must be a JSON object"),
    "affine_without_A": ('{"n": 2, "blocks": [{"k": 1, "map": {"type": "affine"}}]}',
                         "affine map has no 'A' field"),
    "shift_null": ('{"n": 2, "blocks": [{"k": 1, "map": '
                   '{"type": "affine", "A": [[[2, 0]]], "b": null}}]}',
                   "affine map field b must be a list"),
}


class TestMalformedSpec:
    @pytest.mark.parametrize("command", [
        ["transfer"],
        ["kernel", "--model", "hartogs", "--w", "0,0.5", "--eta", "0,0.5"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("name", list(_MALFORMED_SPECS))
    def test_exits_2_naming_the_field(self, name, command, tmp_path, capsys):
        text, message = _MALFORMED_SPECS[name]
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert run([*command, "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestSeedSource:
    @pytest.mark.parametrize("argv", [
        ["moments", "--k", "1", "--nu", "1", "--mc-samples", "100", "--seed", "-5"],
        ["project", "--n", "2", "--k", "1", "--point", "0.1,0.4", "--monomial", "1,0",
         "--samples", "100", "--seed=-5"],
    ])
    def test_negative_seed_exits_2_naming_the_option(self, argv, capsys):
        assert run(argv) == 2
        assert "argument --seed: must be a non-negative integer, got -5" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "-5", "1.5"])
    def test_bad_environment_seed_exits_2_naming_the_variable(self, value, monkeypatch,
                                                               capsys):
        monkeypatch.setenv("HARTOGS_SEED", value)
        assert run(["schur-range", "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "HARTOGS_SEED" in captured.err

    def test_bad_environment_seed_in_a_fresh_process(self):
        import os
        proc = invoke("schur-range", "--n", "2", env=dict(os.environ, HARTOGS_SEED="abc"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "HARTOGS_SEED" in proc.stderr


class TestProjectCommand:
    def test_monomial_reproduction(self, capsys):
        assert run(["project", "--n", "2", "--k", "1", "--point", "0.1,0.4",
                    "--monomial", "1,1", "--samples", "50000", "--seed", "5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["expected"]["re"] == pytest.approx(0.04)
        assert data["sigmas"] < 3.0

    def test_blowup_projection(self, capsys):
        assert run(["project", "--n", "2", "--k", "1", "--point", "0.1,0.5",
                    "--blowup-m", "1", "--samples", "50000", "--seed", "6"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(complex(data["expected"]["re"], data["expected"]["im"])) == pytest.approx(3.0)
        assert data["sigmas"] < 3.0

    def test_requires_a_function(self):
        assert run(["project", "--n", "2", "--k", "1", "--point", "0.1,0.4"]) == 2

    @pytest.mark.parametrize("n,point,exponents", [
        (2, "0.1", "1,1"),
        (3, "0.1,0.4", "0,0,1"),
        (4, "0.1", "0,0,0,1"),
        (4, "0.1,0.2", "0,0,0,1"),
        (4, "0.1,0.2,0.3", "0,0,0,1"),
    ])
    def test_short_point_exits_2(self, n, point, exponents, capsys):
        assert run(["project", "--n", str(n), "--k", "1", "--point", point,
                    "--monomial", exponents, "--samples", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: point has length {point.count(',') + 1}, expected {n}\n"

    @pytest.mark.parametrize("n,point,exponents,expected", [
        (2, "0.1,0.4", "0,-1", 2.5),
        (3, "0.1,0.3,0.5", "0,0,-2", 4.0),
    ])
    def test_negative_exponents_inside_a2_are_projected(self, n, point, exponents,
                                                        expected, capsys):
        assert run(["project", "--n", str(n), "--k", "1", "--point", point,
                    f"--monomial={exponents}", "--samples", "20000", "--seed", "5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["expected"] == {"re": expected, "im": 0}
        assert data["sigmas"] < 4.0

    @pytest.mark.parametrize("n,point,exponents,message", [
        (2, "0.1,0.4", "-1,1", "the ball exponent e_1 = -1 is negative"),
        (2, "0.1,0.4", "0,-2", "the partial sum e_1 + ... + e_2 = -2 is below -1"),
        (2, "0.1,0.4", "0,-3", "the partial sum e_1 + ... + e_2 = -3 is below -1"),
        (2, "0.3,0.5", "-60,0", "the ball exponent e_1 = -60 is negative"),
        (3, "0.1,0.3,0.5", "0,-2,0", "the partial sum e_1 + ... + e_2 = -2 is below -1"),
    ])
    def test_monomial_outside_a2_exits_2(self, n, point, exponents, message, capsys):
        # P f = f holds on A^2 only: these used to print z^e as the expected value
        assert run(["project", "--n", str(n), "--k", "1", "--point", point,
                    f"--monomial={exponents}", "--samples", "20000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"z^e is not in A^2: {message}" in captured.err

    @pytest.mark.parametrize("function", ["--monomial=0,-1", "--blowup-m=1"])
    def test_point_outside_the_domain_exits_2(self, function, capsys):
        # the closed forms divide by z_2 = 0 here: membership is decided first,
        # so no RuntimeWarning (an error under pytest) comes before the message
        assert run(["project", "--n", "2", "--k", "1", "--point", "0.1,0", function,
                    "--samples", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: projection point lies outside the domain\n"

    def test_single_sample_has_no_error_bar(self, capsys):
        assert run(["project", "--n", "2", "--k", "1", "--point", "0.1,0.4",
                    "--monomial", "1,1", "--samples", "1"]) == 2
        assert "at least two samples" in capsys.readouterr().err


class TestNegativeValues:
    @pytest.mark.parametrize("head,option,value", [
        (["schur-verify", "--n", "3", "--k", "1", "--p", "2.0", "--samples", "20",
          "--witness-s", "-0.25"], "--witness-t", "-3.0,-3.0"),
        (["kernel", "--model", "ball", "--k", "2", "--eta", "0.2,0.1"], "--w", "-0.3,0.1"),
        (["kernel", "--model", "disk", "--eta", "0.5"], "--w", "-.5-0.1j"),
    ])
    def test_separate_token_matches_equals_form(self, head, option, value, capsys):
        assert run([*head, option, value]) == 0
        separate = capsys.readouterr().out
        assert run([*head, f"{option}={value}"]) == 0
        assert capsys.readouterr().out == separate


class TestInvalidNumbers:
    @pytest.mark.parametrize("argv", [
        ["transfer", "--example", "affine4", "--p", "nan"],
        ["transfer", "--example", "affine4", "--p", "inf"],
        ["transfer", "--example", "affine4", "--constant", "nan"],
        ["schur-verify", "--n", "2", "--k", "1", "--p", "nan"],
        ["schur-verify", "--n", "2", "--k", "1", "--p", "inf"],
    ])
    def test_non_finite_p_exits_2(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                       np.float64("nan")])
    def test_render_json_rejects_non_finite_floats(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            render_json({"ok": 1.0, "nested": [0.5, {"bad": value}]})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                       np.float64("nan")])
    def test_render_csv_rejects_non_finite_floats(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            render_csv(("m", "x"), [1, 2], [0.5, value])

    def test_render_csv_cells(self):
        assert render_csv(("m", "x"), np.array([1, 20]), np.array([1 / 3, 2.0])) == (
            "m,x\n1,0.333333333333\n20,2\n")

    @pytest.mark.parametrize("argv,option", [
        (["schur-verify", "--n", "2", "--k", "1", "--p", "2", "--samples", "0"], "--samples"),
        (["estimates", "--which", "ball", "--alpha", "-0.5", "--grid-points", "0"],
         "--grid-points"),
        (["moments", "--k", "2", "--nu", "1,1", "--mc-samples", "0"], "--mc-samples"),
        (["moments", "--k", "2", "--nu", "1,1", "--workers", "0"], "--workers"),
        (["blowup", "--n", "2", "--p", "1.3", "--m-max", "0"], "--m-max"),
        (["transfer", "--example", "affine4", "--samples", "0"], "--samples"),
        (["project", "--n", "2", "--k", "1", "--point", "0.1,0.4", "--monomial", "1,0",
          "--samples=-5"], "--samples"),
        (["project", "--n", "2", "--k", "1", "--point", "0.1,0.4", "--monomial", "1,0",
          "--workers", "0"], "--workers"),
    ])
    def test_non_positive_counts_exit_2_naming_the_option(self, argv, option, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}: must be a positive integer" in captured.err

    @pytest.mark.parametrize("argv,option", [
        (["--n", "2", "--k", "1", "--witness-s", "nan", "--witness-t=-0.5"], "--witness-s"),
        (["--n", "2", "--k", "1", "--witness-s", "inf", "--witness-t=-0.5"], "--witness-s"),
        (["--n", "3", "--k", "1", "--witness-s=-0.2", "--witness-t=-0.5,nan"], "--witness-t"),
        (["--n", "2", "--k", "1", "--witness-s=-0.2", "--witness-t=-inf"], "--witness-t"),
    ])
    def test_non_finite_witness_exits_2_naming_the_option(self, argv, option, capsys):
        assert run(["schur-verify", "--p", "2", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert option in captured.err and "finite" in captured.err

    def test_count_that_is_not_an_integer(self, capsys):
        assert run(["blowup", "--n", "2", "--p", "1.3", "--m-max", "x"]) == 2
        assert "argument --m-max: invalid int value: 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["schur-verify", "--n", "3", "--k", "1", "--p", "2", "--blocks", "1,x"],
         "--blocks: cannot parse '1,x'"),
        (["moments", "--k", "2", "--nu", "1,a"], "--nu: cannot parse '1,a'"),
        (["project", "--n", "2", "--k", "1", "--point", "0.1,0.4", "--monomial", "1,q"],
         "--monomial: cannot parse '1,q'"),
        (["transfer", "--example", "affine4", "--isometry-monomial", "0,0,x,1"],
         "--isometry-monomial: cannot parse '0,0,x,1'"),
        (["schur-verify", "--n", "3", "--k", "1", "--p", "2", "--witness-s=-0.25",
          "--witness-t=-3.0,zz"], "--witness-t: cannot parse '-3.0,zz'"),
        (["project", "--n", "2", "--k", "1", "--point", "0.1,zz", "--monomial", "1,1"],
         "--point: cannot parse '0.1,zz'"),
        (["kernel", "--model", "ball", "--k", "2", "--w", "0.1,0.1", "--eta", "0.1,x"],
         "--eta: cannot parse '0.1,x'"),
        (["blowup", "--n", "2", "--p", "1.3", "--m-list", "1,,3"],
         "--m-list: cannot parse '1,,3'"),
        (["kernel", "--model", "disk", "--w", "x", "--eta", "0.5"],
         "--w: cannot parse 'x'"),
        (["kernel", "--model", "disk", "--w", "0.1,0.2", "--eta", "0.5"],
         "--w: the disk model takes one complex number"),
        (["kernel", "--model", "disk", "--w", "0.5", "--eta", "0.1,0.2,0.3"],
         "--eta: the disk model takes one complex number"),
        (["kernel", "--model", "product", "--n", "2", "--k", "1", "--w", "0.1",
          "--eta", "0.1,0.2"], "--w: the product model takes 2 complex numbers"),
        (["kernel", "--model", "hartogs", "--n", "3", "--k", "1", "--w", "0,0.1,0.5",
          "--eta", "0,0.5"], "--eta: the hartogs model takes 3 complex numbers"),
        (["kernel", "--model", "ball", "--k", "2", "--w", "0.1,0.1,0.1", "--eta", "0.1,0.1"],
         "--w: the ball model takes 2 complex numbers"),
        (["kernel", "--model", "ball", "--k", "0", "--w", "0.1", "--eta", "0.1"],
         "--k: the ball model needs k >= 1"),
        (["kernel", "--model", "ball", "--k=-2", "--w", "0.1", "--eta", "0.1"],
         "--k: the ball model needs k >= 1"),
    ])
    def test_malformed_list_or_point_exits_2_naming_the_option(self, argv, message, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}: ")

    @pytest.mark.parametrize("argv,option", [
        (["blowup", "--n", "2", "--p", "1.3", "--m-list", ""], "--m-list"),
        (["schur-verify", "--n", "3", "--k", "1", "--p", "2", "--blocks", ""], "--blocks"),
        (["moments", "--k", "2", "--nu", ""], "--nu"),
    ])
    def test_explicit_empty_list_exits_2(self, argv, option, capsys):
        # an empty list is given, not absent: it used to print the default table
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {option}: cannot parse ''")

    def test_blowup_m_below_one_exits_2_before_sampling(self, monkeypatch, capsys):
        def sample(*args, **kwargs):
            raise AssertionError("the projection ran")
        # the handler imports the projection from its home module when it runs
        monkeypatch.setattr("hartogs.kernels.mc_bergman_projection", sample)
        assert run(["project", "--n", "2", "--k", "1", "--point", "0.1,0.4",
                    "--blowup-m", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --blowup-m: must be a positive integer, got 0" in captured.err


# every float option of these subcommands, on small inputs; the witness
# options must be given together, so each is paired with a valid partner
_EXTREME_BASES = {
    "estimates": [["estimates", "--which", "ball", "--k", "2", "--alpha=-0.5",
                   "--grid-points", "3"],
                  ["estimates", "--which", "disk", "--alpha=-0.5", "--beta=-1",
                   "--r-min", "0.1", "--grid-points", "3"]],
    "schur-verify": [["schur-verify", "--n", "2", "--k", "1", "--p", "1.5", "--samples", "3"]],
    "blowup": [["blowup", "--n", "2", "--p", "1.3", "--m-max", "3"]],
    "transfer": [["transfer", "--example", "rational3", "--samples", "200",
                  "--isometry-monomial", "1,0,1"]],
}
_EXTREME_OPTIONS = {
    "estimates": [("--alpha", []), ("--beta", []), ("--r-min", []), ("--r-max", [])],
    "schur-verify": [("--p", []), ("--boundary-margin", []), ("--puncture-margin", []),
                     ("--witness-s", ["--witness-t=-0.5"]),
                     ("--witness-t", ["--witness-s=-0.2"])],
    "blowup": [("--p", [])],
    "transfer": [("--p", []), ("--constant", [])],
}
_EXTREME_CASES = [
    base + [f"{option}={value}"] + partner
    for command, bases in _EXTREME_BASES.items()
    for base in bases
    for option, partner in _EXTREME_OPTIONS[command]
    for value in ("nan", "inf", "-inf", "1e308", "-1")
] + [
    ["estimates", "--which", "disk", "--alpha=-0.5", "--beta", "inf", "--grid-points", "3"],
    ["schur-verify", "--n", "2", "--k", "1", "--p", "1.5", "--witness-s", "0.1",
     "--witness-t", "1e308", "--samples", "3"],
    ["schur-verify", "--n", "2", "--k", "1", "--p", "1.5", "--boundary-margin", "1.5",
     "--samples", "3"],
    ["schur-verify", "--n", "2", "--k", "1", "--p", "1.5", "--puncture-margin=-1",
     "--samples", "3"],
    ["blowup", "--n", "180", "--k", "1", "--p", "1.0", "--m-max", "2"],
]



def _tiny_samples_argv(n):
    """`project` of the constant monomial at a point of the n-dimensional,
    k = 1 domain where the Monte-Carlo samples are tiny: about 1e-166 at
    n = 60, whose squared deviations underflow, and exactly 0 at n = 80."""
    point = ",".join(["0.01"] + [repr(0.02 + 0.97 * j / n) for j in range(2, n + 1)])
    return ["project", "--n", str(n), "--k", "1", "--monomial", ",".join(["0"] * n),
            "--samples", "20000", "--point", point]


class TestExtremeValues:
    @pytest.mark.parametrize("argv", _EXTREME_CASES, ids="_".join)
    def test_exit_code_and_no_non_finite_output(self, argv, capsys):
        code = run(argv)
        out = capsys.readouterr().out
        assert code in (0, 2)
        if code == 0:
            assert "nan" not in out.lower() and "inf" not in out.lower()
        else:
            assert out == ""

    @pytest.mark.parametrize("argv,message", [
        (["estimates", "--which", "disk", "--alpha=-0.5", "--beta", "inf",
          "--grid-points", "3"], "beta must exceed -2 and be finite"),
        (["estimates", "--which", "disk", "--alpha=-0.5", "--beta", "1e308",
          "--r-min", "0.1", "--grid-points", "3"], "log-Gamma overflows at x = 5e+307"),
        (["schur-verify", "--n", "2", "--k", "1", "--p", "1.5", "--witness-s", "0.1",
          "--witness-t", "1e308", "--samples", "3"], "beta must exceed -2 and be finite"),
        (["schur-verify", "--n", "2", "--k", "1", "--p", "2", "--witness-s", "3000",
          "--witness-t=-2", "--samples", "3"],
         "Gauss-Jacobi weights overflow float64 at alpha=6000.0, beta=0.0"),
        (["schur-verify", "--n", "2", "--k", "1", "--p", "2", "--boundary-margin", "1.5"],
         "--boundary-margin"),
        (["schur-verify", "--n", "2", "--k", "1", "--p", "2", "--puncture-margin=-1"],
         "--puncture-margin"),
        (["schur-verify", "--n", "2", "--k", "1", "--p", "2", "--puncture-margin", "0.995"],
         "--puncture-margin"),
        (["estimates", "--which", "ball", "--alpha=-0.5", "--r-max", "inf"],
         "--r-max must be finite"),
        (["transfer", "--example", "rational3", "--p", "1e308"],
         "the transferred bound overflows"),
        (["blowup", "--n", "175", "--k", "1", "--p", "1.0", "--m-max", "2"],
         "n = 175, k = 1: k!/n! is below the smallest normal double"),
        # the dimensions are checked before p, whose window needs n >= 2
        (["blowup", "--n=-1", "--p", "1"], "need n >= 2"),
        (["blowup", "--n", "0", "--p", "1"], "need n >= 2"),
        (["blowup", "--n", "1", "--p", "1.2"], "need n >= 2"),
        (["blowup", "--n", "3", "--k=-1", "--p", "1"], "need 1 <= k < n"),
        (_tiny_samples_argv(80), "the Monte-Carlo error bar is 0.0 but the estimate"),
        (["kernel", "--model", "disk", "--w", "0.3", "--eta", "0.3", "--truncated",
          "1000000000"], "truncation degree must lie in [0, 100000], got 1000000000"),
    ])
    def test_seen_cases_exit_2_with_a_message(self, argv, message, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("witness_t,message", [
        ("-0.5", "the ratio overflows float64"),
        ("20000", "the j=2 chain integral underflows to 0"),
    ], ids=["ratio-overflows", "integral-underflows"])
    def test_schur_ratio_out_of_range_exits_2_without_a_warning(self, witness_t, message,
                                                                capsys):
        argv = ["schur-verify", "--n", "2", "--k", "1", "--p", "2", "--samples", "5",
                "--witness-s", "20000", f"--witness-t={witness_t}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "RuntimeWarning" not in captured.err
        condition = "Schur condition cond1 (exponent 2, witness s=20000.0, t={2: %r})"
        assert f"{condition % float(witness_t)}: {message}" in captured.err

    @pytest.mark.parametrize("margin", ["0", "1e-160", "1e-300"])
    def test_schur_quad_route_margin_with_a_subnormal_square_exits_2(self, margin, capsys):
        # 1e-160 printed 12 digits of which about 6 were right, 1e-300 the
        # quadrature's own Jacobi error, 0 a message naming no option
        argv = ["schur-verify", "--n", "2", "--k", "1", "--p", "2", "--witness-s=-0.25",
                "--witness-t=-2", "--samples", "5", "--puncture-margin", margin]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        condition = "Schur condition cond1 (exponent 2, witness s=-0.25, t={2: -2.0})"
        assert (f"{condition}: the j=2 chain integral diverges; its quadrature needs a "
                f"puncture margin (--puncture-margin) >= 1.4917e-154, got {float(margin)}"
                in captured.err)

    def test_schur_quad_route_overflow_prints_only_its_error(self, capsys):
        # beta = -5: the quadrature's s^(beta/2 + 1) overflowed at s = c^2 = 1e-300
        # and printed a RuntimeWarning before this error
        argv = ["schur-verify", "--n", "2", "--k", "1", "--p", "2", "--witness-s=-0.25",
                "--witness-t=-3", "--samples", "5", "--puncture-margin", "1e-150"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: Schur condition cond1 (exponent 2, witness s=-0.25, "
                                "t={2: -3.0}): the ratio overflows float64\n")

    @pytest.mark.parametrize("k,blocks,message", [
        ("1", "1,1", "block dimensions (--blocks) (1, 1) sum to 2, but k (--k) is 1"),
        ("2", "0,2", "block dimensions (--blocks) must be >= 1, got (0, 2)"),
        ("2", "-1,3", "block dimensions (--blocks) must be >= 1, got (-1, 3)"),
    ], ids=["sum-differs-from-k", "zero", "negative"])
    def test_schur_blocks_errors_name_the_options(self, k, blocks, message, capsys):
        # these printed "block dimensions are inconsistent with k" and "block
        # dimension must be >= 1", naming neither option nor the values
        argv = ["schur-verify", "--n", "4", "--k", k, "--p", "2", "--samples", "5",
                f"--blocks={blocks}"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("witness_t,margin", [("-25", "1e-150"), ("-100", "0.01")])
    def test_schur_quad_route_node_overflow_prints_only_its_error(self, witness_t, margin,
                                                                  capsys):
        # s^(beta/2 + 1) overflowed at the smallest Gauss-Legendre node and
        # printed a RuntimeWarning before this error
        argv = ["schur-verify", "--n", "2", "--k", "1", "--p", "2", "--witness-s=-0.25",
                f"--witness-t={witness_t}", "--samples", "5", "--puncture-margin", margin]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: Schur condition cond1 (exponent 2, witness s=-0.25, "
                                f"t={{2: {float(witness_t)}}}): the ratio overflows float64\n")

    def test_schur_quad_route_ratio_below_the_float64_limit_exits_0(self, capsys):
        # the node powers pass float64 but the integral does not: this exited 2
        # with "the ratio overflows float64"
        argv = ["schur-verify", "--n", "2", "--k", "1", "--p", "2", "--witness-s=-0.25",
                "--witness-t=-79", "--samples", "5", "--puncture-margin", "0.01"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(argv) == 0
        ratios = json.loads(capsys.readouterr().out)["ratios_summary"]
        assert 1e296 < ratios["max"] < math.inf

    @pytest.mark.parametrize("argv", [_tiny_samples_argv(60)], ids=["squares-underflow"])
    def test_extreme_samples_keep_a_finite_error_bar(self, argv, capsys):
        assert run(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert 0.0 < data["std_error"] < math.inf
        assert math.isfinite(data["sigmas"])


# The determinism contract as a test: these invocations and their exact
# stdout. A rework of the blow-up stages or of the kernel arithmetic must
# leave every byte as it is.
_PINNED_STDOUT = [
    (["blowup", "--n", "2", "--p", "1.3333333333333333", "--m-list", "120,1,10"],
     'm,norm_fm,proj_lower_bound,ratio\n'
     '1,1.19192709363,0.891905336252,0.74828849937\n'
     '10,3.50657275606,5.25381442862,1.49827617851\n'
     '120,6.22205769913,17.7148054006,2.84709757723\n'),
    (["blowup", "--n", "5", "--k", "2", "--p", "1", "--m-max", "5"],
     'm,norm_fm,proj_lower_bound,ratio\n'
     '1,0.03330078125,0.025,0.75073313783\n'
     '2,0.0333731058008,0.0455033273513,1.36347296002\n'
     '3,0.0333731299234,0.063087647561,1.89037251543\n'
     '4,0.0333731299257,0.078587906095,2.35482576162\n'
     '5,0.0333731299257,0.092509375018,2.77197179958\n'),
    (["kernel", "--model", "disk", "--w", "0.5+0.1j", "--eta", "-0.3+0.6j"],
     '{\n'
     '  "model": "disk",\n'
     '  "value": {\n'
     '    "re": 0.641537407064,\n'
     '    "im": -0.427651974279\n'
     '  }\n'
     '}\n'),
    (["kernel", "--model", "ball", "--k", "2", "--w", "0.3,0.1j", "--eta",
      "-0.2+0.4j,0.5"],
     '{\n'
     '  "model": "ball",\n'
     '  "value": {\n'
     '    "re": 0.817887476833,\n'
     '    "im": -0.163943634504\n'
     '  }\n'
     '}\n'),
    (["kernel", "--model", "product", "--n", "3", "--k", "1", "--w", "0.2,0.5j,-0.7",
      "--eta", "0.1-0.1j,0.3,0.6+0.2j"],
     '{\n'
     '  "model": "product",\n'
     '  "value": {\n'
     '    "re": 0.430055352488,\n'
     '    "im": 0.254954191034\n'
     '  }\n'
     '}\n'),
    (["kernel", "--model", "hartogs", "--n", "2", "--k", "1", "--w", "0.1+0.2j,0.6",
      "--eta", "-0.2,0.5-0.3j"],
     '{\n'
     '  "model": "hartogs",\n'
     '  "value": {\n'
     '    "re": 4.38378130396,\n'
     '    "im": -0.710939728406\n'
     '  }\n'
     '}\n'),
    (["kernel", "--model", "hartogs", "--example", "affine4", "--w",
      "0.53-0.08j,0.08,-0.05+0.03j,0.2", "--eta",
      "0.42+0.26j,0.59-0.16j,-0.31+0.09j,0.69+0.28j"],
     '{\n'
     '  "model": "hartogs",\n'
     '  "value": {\n'
     '    "re": 394.804532007,\n'
     '    "im": 1279.59761083\n'
     '  }\n'
     '}\n'),
    (["schur-range", "--n", "3"],
     '{\n'
     '  "low": 1.5,\n'
     '  "high": 3\n'
     '}\n'),
    (["schur-verify", "--n", "3", "--k", "1", "--p", "2.9", "--seed", "11"],
     '{\n'
     '  "feasible": true,\n'
     '  "p": 2.9,\n'
     '  "q": 1.52631578947,\n'
     '  "witness": {\n'
     '    "s": -0.172413793103,\n'
     '    "t": {\n'
     '      "2": -0.844827586207,\n'
     '      "3": -1.34482758621\n'
     '    }\n'
     '  },\n'
     '  "ratios_summary": {\n'
     '    "max": 88.3411764451,\n'
     '    "mean": 20.61009358,\n'
     '    "cond1_max": 18.5872370885,\n'
     '    "cond2_max": 88.3411764451\n'
     '  },\n'
     '  "samples": 400,\n'
     '  "notes": []\n'
     '}\n'),
    # divergent chain exponents: the radial quadrature route and its note
    (["schur-verify", "--n", "2", "--k", "1", "--p", "2", "--witness-s=-0.25",
      "--witness-t=-2", "--samples", "20", "--seed", "3"],
     '{\n'
     '  "feasible": true,\n'
     '  "p": 2,\n'
     '  "q": 2,\n'
     '  "witness": {\n'
     '    "s": -0.25,\n'
     '    "t": {\n'
     '      "2": -2\n'
     '    }\n'
     '  },\n'
     '  "ratios_summary": {\n'
     '    "max": 176.213468194,\n'
     '    "mean": 116.496569165,\n'
     '    "cond1_max": 176.213468194,\n'
     '    "cond2_max": 176.213468194\n'
     '  },\n'
     '  "samples": 20,\n'
     '  "notes": [\n'
     '    "chain factor j=2: divergent exponents (alpha=-0.5, beta=-3); using radial '
     'quadrature truncated at 0.01"\n'
     '  ]\n'
     '}\n'),
    # two ball blocks, one of them k = 2
    (["schur-verify", "--n", "5", "--k", "3", "--p", "1.9", "--blocks", "2,1",
      "--samples", "50", "--seed", "11"],
     '{\n'
     '  "feasible": true,\n'
     '  "p": 1.9,\n'
     '  "q": 2.11111111111,\n'
     '  "witness": {\n'
     '    "s": -0.236842105263,\n'
     '    "t": {\n'
     '      "4": -1.97368421053,\n'
     '      "5": -2.47368421053\n'
     '    }\n'
     '  },\n'
     '  "ratios_summary": {\n'
     '    "max": 101.260599116,\n'
     '    "mean": 36.8964390177,\n'
     '    "cond1_max": 101.260599116,\n'
     '    "cond2_max": 65.0200413512\n'
     '  },\n'
     '  "samples": 50,\n'
     '  "notes": []\n'
     '}\n'),
    # the projection's sampler and denominator on a k = 2 ball block
    (["project", "--n", "4", "--k", "2", "--point", "0.1+0.1j,-0.2j,0.4,0.3-0.6j",
      "--monomial", "1,0,1,0", "--samples", "20000", "--seed", "7"],
     '{\n'
     '  "function": "monomial=1,0,1,0",\n'
     '  "point": [\n'
     '    {\n'
     '      "re": 0.1,\n'
     '      "im": 0.1\n'
     '    },\n'
     '    {\n'
     '      "re": 0,\n'
     '      "im": -0.2\n'
     '    },\n'
     '    {\n'
     '      "re": 0.4,\n'
     '      "im": 0\n'
     '    },\n'
     '    {\n'
     '      "re": 0.3,\n'
     '      "im": -0.6\n'
     '    }\n'
     '  ],\n'
     '  "expected": {\n'
     '    "re": 0.04,\n'
     '    "im": 0.04\n'
     '  },\n'
     '  "mc_estimate": {\n'
     '    "re": -0.0104676796414,\n'
     '    "im": -0.003949793136\n'
     '  },\n'
     '  "std_error": 0.0555695404923,\n'
     '  "sigmas": 1.20429511979\n'
     '}\n'),
]


class TestPinnedStdout:
    @pytest.mark.parametrize("argv,stdout", _PINNED_STDOUT, ids=[
        "blowup-m-list", "blowup-m-max", "kernel-disk", "kernel-ball", "kernel-product",
        "kernel-hartogs", "kernel-affine4", "schur-range", "schur-verify",
        "schur-verify-quad", "schur-verify-blocks", "project-k2"])
    def test_bytes(self, argv, stdout, capsys):
        assert run(argv) == 0
        assert capsys.readouterr().out == stdout


def _fresh_interpreter(code: str):
    """Run `code` in a new interpreter; it prints one JSON value, returned here."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"

_RUN_QUIETLY = """
import contextlib, io, json, sys
from hartogs.cli import run
def quiet(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()
"""


# every subcommand, with each branch that imports a module of its own, and
# the package modules it loads besides hartogs, cli and config: the modules
# it runs and their imports, no others
_CLI_BASE = {"hartogs", "hartogs.cli", "hartogs.config"}
_RUNS_SCHUR = {"schur", "domains", "estimates", "mc", "sampling", "special"}
_SUBCOMMAND_MODULES = [
    (["--help"], set()),
    (["kernel", "--model", "hartogs", "--n", "2", "--k", "1", "--w", "0,0.5", "--eta", "0,0.5"],
     {"kernels", "domains", "mc", "sampling", "special"}),
    (["moments", "--k", "2", "--nu", "1,1", "--mc-samples", "2000"],
     {"estimates", "mc", "sampling", "special"}),
    (["moments", "--k", "2", "--nu", "1,1", "--mc-samples", "2000", "--ball-norm"],
     {"estimates", "kernels", "domains", "mc", "sampling", "special"}),
    (["estimates", "--which", "ball", "--k", "2", "--alpha=-0.5", "--grid-points", "3",
      "--r-max", "0.9999"],
     {"estimates", "mc", "sampling", "special"}),
    (["estimates", "--which", "disk", "--alpha=-0.5", "--beta=-1", "--r-min", "0.1",
      "--grid-points", "3"],
     {"estimates", "mc", "sampling", "special"}),
    (["schur-range", "--n", "3"], {"schur"}),
    (["schur-verify", "--n", "3", "--k", "1", "--p", "2.0", "--samples", "20"], _RUNS_SCHUR),
    (["schur-verify", "--n", "2", "--k", "1", "--p", "2.0", "--witness-s=-0.25",
      "--witness-t=-2", "--samples", "20"], _RUNS_SCHUR),
    (["blowup", "--n", "2", "--p", "1.3", "--m-max", "5"],
     {"counterexample", "domains", "mc", "sampling", "special"}),
    (["transfer", "--example", "affine4", "--p", "3", "--samples", "2000"],
     {"transfer", "domains", "mc", "sampling", "special"}),
    (["transfer", "--example", "affine4", "--p", "3", "--samples", "2000",
      "--isometry-monomial", "0,0,0,1"],
     {"transfer", "kernels", "domains", "mc", "sampling", "special"}),
    (["project", "--n", "2", "--k", "1", "--point", "0.1,0.4", "--monomial", "1,0",
      "--samples", "2000"],
     {"kernels", "domains", "mc", "sampling", "special"}),
    (["project", "--n", "2", "--k", "1", "--point", "0.1,0.4", "--blowup-m", "1",
      "--samples", "2000"],
     {"kernels", "counterexample", "domains", "mc", "sampling", "special"}),
]

# calls that finish before numpy is imported, with their exit codes: help,
# the window, an argparse error and a handler's own error
_WITHOUT_NUMPY = [
    (["--help"], 0),
    (["schur-range", "--n", "3"], 0),
    (["project", "--n", "2", "--k", "1", "--point", "0.1,0.4", "--monomial", "1,0",
      "--samples", "0"], 2),
    (["schur-range", "--n", "1"], 2),
]

_PACKAGE_MODULES = "sorted(m for m in sys.modules if m == 'hartogs' or m.startswith('hartogs.'))"

# the library names `hartogs.cli` serves, by home module
_CLI_REEXPORTS = {
    "counterexample": ("blowup_demo",),
    "domains": ("HartogsDomainSpec",),
    "estimates": ("asymptotic_ratio_check", "sphere_moment_mc"),
    "kernels": ("kernel_hartogs", "mc_bergman_projection"),
    "schur": ("feasible_params", "schur_verify"),
    "transfer": ("jacobian_bounds", "pullback_isometry_check", "transfer_norm_bound"),
    "config": ("NumericConfig",),
}


class TestImportBudget:
    """No subcommand loads scipy: the package needs numpy alone. Each
    subcommand loads only the package modules it runs, and the front end
    loads no numpy."""

    def test_cli_import_loads_three_package_modules_and_no_numpy(self):
        code = (f"import json, sys, hartogs.cli; "
                f"print(json.dumps([{_PACKAGE_MODULES}, 'numpy' in sys.modules]))")
        assert _fresh_interpreter(code) == [sorted(_CLI_BASE), False]

    @pytest.mark.parametrize("argv,modules", _SUBCOMMAND_MODULES,
                             ids=[" ".join(argv) for argv, _ in _SUBCOMMAND_MODULES])
    def test_each_subcommand_loads_only_the_modules_it_runs(self, argv, modules):
        code = _RUN_QUIETLY + (f"code = quiet({argv!r})[0]\n"
                               f"print(json.dumps([code, {_PACKAGE_MODULES}, "
                               f"'numpy.random' in sys.modules]))")
        exit_code, loaded, random_loaded = _fresh_interpreter(code)
        assert exit_code == 0
        assert set(loaded) == _CLI_BASE | {f"hartogs.{name}" for name in modules}
        # `mc` keeps numpy.random eager, so no first draw pays for its import
        assert random_loaded == ("mc" in modules)

    @pytest.mark.parametrize("argv,exit_code", _WITHOUT_NUMPY,
                             ids=[" ".join(argv) for argv, _ in _WITHOUT_NUMPY])
    def test_front_end_calls_load_no_numpy(self, argv, exit_code):
        code = _RUN_QUIETLY + (f"code = quiet({argv!r})[0]\n"
                               f"print(json.dumps([code, 'numpy' in sys.modules]))")
        assert _fresh_interpreter(code) == [exit_code, False]

    def test_cli_import_loads_no_scipy(self):
        code = f"import json, sys, hartogs.cli; print(json.dumps({_SCIPY_MODULES}))"
        assert _fresh_interpreter(code) == []

    def test_cli_import_loads_no_thread_pool(self):
        # `mc` imports it where a pool is started
        code = ("import json, sys, hartogs.cli; print(json.dumps(sorted(m for m in sys.modules "
                "if m.startswith('concurrent.futures'))))")
        assert _fresh_interpreter(code) == []

    def test_all_subcommands_leave_scipy_out(self):
        commands = [argv for argv, _ in _SUBCOMMAND_MODULES]
        code = _RUN_QUIETLY + (
            f"codes = [quiet(argv)[0] for argv in {commands!r}]\n"
            f"print(json.dumps([codes, {_SCIPY_MODULES}]))")
        codes, scipy_modules = _fresh_interpreter(code)
        assert codes == [0] * len(commands)
        assert scipy_modules == []

    def test_integral_subcommands_still_work(self):
        code = _RUN_QUIETLY + """
est = quiet(["estimates", "--which", "ball", "--k", "2", "--alpha", "-0.5",
             "--grid-points", "3", "--r-max", "0.9"])
ver = quiet(["schur-verify", "--n", "2", "--k", "1", "--p", "2.0", "--samples", "20"])
print(json.dumps([est, ver]))
"""
        (est_code, est_out), (ver_code, ver_out) = _fresh_interpreter(code)
        assert est_code == ver_code == 0
        assert est_out.splitlines()[0] == "r,value,envelope,ratio"
        assert len(est_out.splitlines()) == 4
        assert json.loads(ver_out)["feasible"] is True

    def test_reexported_names_are_the_home_objects(self):
        import hartogs
        from hartogs import DEFAULT_CONFIG, HartogsDomainSpec, MapFamily, NumericConfig, cli
        from hartogs import config, domains
        for home, names in _CLI_REEXPORTS.items():
            module = importlib.import_module(f"hartogs.{home}")
            for name in names:
                assert getattr(cli, name) is getattr(module, name), name
        assert DEFAULT_CONFIG is config.DEFAULT_CONFIG and NumericConfig is config.NumericConfig
        assert HartogsDomainSpec is domains.HartogsDomainSpec and MapFamily is domains.MapFamily
        assert not any(hasattr(cli, name) for name in ("MapFamily", "kernel_ball", "monomial"))
        for module in (hartogs, cli):
            assert not hasattr(module, "no_such_name")
            with pytest.raises(AttributeError, match="no_such_name"):
                module.no_such_name

    def test_non_convergence_error_is_one_class(self):
        # estimates, the one module that raises it, owns it
        from hartogs import estimates, special
        assert issubclass(estimates.NonConvergenceError, ArithmeticError)
        assert not hasattr(special, "NonConvergenceError")


class TestProcessLevel:
    def test_unknown_subcommand_exits_2(self):
        proc = invoke("no-such-command")
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_missing_required_exits_2(self):
        proc = invoke("schur-range")
        assert proc.returncode == 2

    def test_help_exits_0(self):
        proc = invoke("--help")
        assert proc.returncode == 0
        for cmd in ("kernel", "moments", "estimates", "schur-range",
                    "schur-verify", "blowup", "transfer", "project"):
            assert cmd in proc.stdout

    def test_subcommand_help(self):
        for cmd in ("kernel", "moments", "estimates", "schur-range",
                    "schur-verify", "blowup", "transfer", "project"):
            proc = invoke(cmd, "--help")
            assert proc.returncode == 0
            assert "--" in proc.stdout

    def test_cli_import_leaves_out_scipy_integrate(self):
        code = "import sys, hartogs.cli; print('scipy.integrate' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_byte_identical_reruns(self):
        args = ("schur-verify", "--n", "2", "--k", "1", "--p", "1.8",
                "--samples", "40", "--seed", "123")
        first = invoke(*args)
        second = invoke(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_env_seed_default(self):
        import os
        env = dict(os.environ, HARTOGS_SEED="777")
        a = invoke("moments", "--k", "1", "--nu", "2", "--mc-samples", "20000", env=env)
        b = invoke("moments", "--k", "1", "--nu", "2",
                   "--mc-samples", "20000", "--seed", "777")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


README_COMMANDS = [line for line in
                   (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
                   if line.startswith("hartogs ")]


class TestReadmeExamples:
    def test_there_are_examples(self):
        assert len(README_COMMANDS) >= 20

    @pytest.mark.parametrize("line", README_COMMANDS)
    def test_every_readme_command_parses(self, line, capsys):
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}\n{capsys.readouterr().err}")
