import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hartogs.cli import build_parser, render_json, run


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

    def test_outside_domain_is_invalid_argument(self, capsys):
        code = run(["kernel", "--model", "hartogs", "--n", "2", "--k", "1",
                    "--w", "0.5,0.3", "--eta", "0,0.5"])
        assert code == 2

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


class TestWorkersOption:
    def test_each_default_is_the_library_default(self, monkeypatch):
        from hartogs import cli, mc
        monkeypatch.setattr(mc, "WORKERS", 7)
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions if a.dest == "command").choices
        defaults = {name: action.default for name, sub in subparsers.items()
                    for action in sub._actions if action.dest == "workers"}
        assert defaults == {"moments": 7, "project": 7}
        assert "mc.WORKERS" in subparsers["project"].format_help()


class TestEstimatesCommand:
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

    def test_nonconvergence_exit_code(self, capsys):
        # c = alpha + beta/2 + 2 > 4096 takes the series, whose term cap ends it near r = 1
        code = run(["estimates", "--which", "disk", "--alpha=-0.5", "--beta", "10000",
                    "--r-min", "0.5", "--r-max", "0.99999", "--grid-points", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "did not converge" in captured.err and "r=0.99999" in captured.err

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
        assert code in (0, 1, 2)
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
        (_tiny_samples_argv(80), "the Monte-Carlo error bar is 0.0 but the estimate"),
        (["kernel", "--model", "disk", "--w", "0.3", "--eta", "0.3", "--truncated",
          "1000000000"], "truncation degree must lie in [0, 100000], got 1000000000"),
    ])
    def test_seen_cases_exit_2_with_a_message(self, argv, message, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("argv", [
        _tiny_samples_argv(60),
        ["project", "--n", "2", "--k", "1", "--point", "0.3,0.5", "--monomial=-60,0",
         "--samples", "20000"],
    ], ids=["squares-underflow", "squares-overflow"])
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
]


class TestPinnedStdout:
    @pytest.mark.parametrize("argv,stdout", _PINNED_STDOUT, ids=[
        "blowup-m-list", "blowup-m-max", "kernel-disk", "kernel-ball", "kernel-product",
        "kernel-hartogs", "kernel-affine4", "schur-range"])
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


class TestImportBudget:
    """No subcommand loads scipy: the package needs numpy alone."""

    def test_cli_import_loads_no_scipy(self):
        code = f"import json, sys, hartogs.cli; print(json.dumps({_SCIPY_MODULES}))"
        assert _fresh_interpreter(code) == []

    def test_all_subcommands_leave_scipy_out(self):
        commands = [
            ["--help"],
            ["kernel", "--model", "hartogs", "--n", "2", "--k", "1",
             "--w", "0,0.5", "--eta", "0,0.5"],
            ["moments", "--k", "2", "--nu", "1,1", "--mc-samples", "2000"],
            ["estimates", "--which", "ball", "--k", "2", "--alpha=-0.5",
             "--grid-points", "3", "--r-max", "0.9999"],
            ["estimates", "--which", "disk", "--alpha=-0.5", "--beta=-1",
             "--r-min", "0.1", "--grid-points", "3"],
            ["schur-range", "--n", "3"],
            ["schur-verify", "--n", "3", "--k", "1", "--p", "2.0", "--samples", "20"],
            ["schur-verify", "--n", "2", "--k", "1", "--p", "2.0", "--witness-s=-0.25",
             "--witness-t=-2", "--samples", "20"],
            ["blowup", "--n", "2", "--p", "1.3", "--m-max", "5"],
            ["transfer", "--example", "affine4", "--p", "3", "--samples", "2000",
             "--isometry-monomial", "0,0,0,1"],
            ["project", "--n", "2", "--k", "1", "--point", "0.1,0.4",
             "--monomial", "1,0", "--samples", "2000"],
        ]
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
        from hartogs import cli, estimates, schur
        for name in ("sphere_moment", "sphere_moment_mc", "asymptotic_ratio_check"):
            assert getattr(cli, name) is getattr(estimates, name)
        for name in ("schur_verify", "feasible_params", "admissible_p_range", "SchurWitness"):
            assert getattr(cli, name) is getattr(schur, name)
        assert not hasattr(cli, "no_such_name")

    def test_non_convergence_error_is_one_class(self):
        from hartogs import estimates, special
        assert estimates.NonConvergenceError is special.NonConvergenceError


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
