import json
import subprocess
import sys

import numpy as np
import pytest

from hartogs.cli import render_json, run


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

    def test_nonconvergence_exit_code(self, capsys):
        code = run(["estimates", "--which", "ball", "--k", "1", "--alpha", "-0.5",
                    "--r-max", "0.999", "--grid-points", "3", "--max-terms", "64"])
        assert code == 1

    def test_closed_form_default_and_series_route(self, capsys):
        base = ["estimates", "--which", "disk", "--alpha", "-0.5", "--beta", "-1",
                "--r-min", "0.1", "--r-max", "0.99", "--grid-points", "4"]
        assert run(base) == 0
        closed = capsys.readouterr().out.strip().splitlines()
        assert run(base + ["--tol", "1e-13"]) == 0
        series = capsys.readouterr().out.strip().splitlines()
        assert closed[0] == series[0] == "r,value,envelope,ratio"
        for a, b in zip(closed[1:], series[1:]):
            for x, y in zip(a.split(","), b.split(",")):
                assert float(x) == pytest.approx(float(y), rel=1e-11)
        # past the series' reach: at r = 1 - 1e-7 it would need ~1e8 terms
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
        builtin_example("rational3").save(path)
        assert run(["transfer", "--spec", str(path), "--p", "2.0"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["bounds"]["method"] == "sampled"
        assert data["transfer_factor"] == pytest.approx(data["constant"])

    def test_isometry_check(self, capsys):
        assert run(["transfer", "--example", "affine4", "--samples", "50000",
                    "--seed", "14", "--isometry-monomial", "0,0,0,1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["isometry"]["sigma_distance"] < 3.0


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

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_invalid_series_tolerance_exits_2(self, tol, capsys):
        assert run(["estimates", "--which", "ball", "--alpha", "-0.5",
                    "--grid-points", "3", f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "series tolerance must be finite and positive" in captured.err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                       np.float64("nan")])
    def test_render_json_rejects_non_finite_floats(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            render_json({"ok": 1.0, "nested": [0.5, {"bad": value}]})

    @pytest.mark.parametrize("argv,option", [
        (["schur-verify", "--n", "2", "--k", "1", "--p", "2", "--samples", "0"], "--samples"),
        (["estimates", "--which", "ball", "--alpha", "-0.5", "--grid-points", "0"],
         "--grid-points"),
        (["estimates", "--which", "ball", "--alpha", "-0.5", "--max-terms", "0"],
         "--max-terms"),
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
    "estimates": [("--alpha", []), ("--beta", []), ("--r-min", []), ("--r-max", []),
                  ("--tol", [])],
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
]


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
        (["schur-verify", "--n", "2", "--k", "1", "--p", "2", "--boundary-margin", "1.5"],
         "--boundary-margin"),
        (["schur-verify", "--n", "2", "--k", "1", "--p", "2", "--puncture-margin=-1"],
         "--puncture-margin"),
        (["schur-verify", "--n", "2", "--k", "1", "--p", "2", "--puncture-margin", "0.995"],
         "--puncture-margin"),
        (["estimates", "--which", "ball", "--alpha=-0.5", "--r-max", "inf"],
         "--r-max must be finite"),
        (["estimates", "--which", "ball", "--alpha=-0.5", "--tol", "1e308"],
         "series tolerance must be finite and positive, and below 1"),
        (["transfer", "--example", "rational3", "--p", "1e308"],
         "the transferred bound overflows"),
    ])
    def test_seen_cases_exit_2_with_a_message(self, argv, message, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


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
    """The CLI loads scipy only for the subcommands that evaluate integrals."""

    def test_cli_import_loads_no_scipy(self):
        code = f"import json, sys, hartogs.cli; print(json.dumps({_SCIPY_MODULES}))"
        assert _fresh_interpreter(code) == []

    def test_scipy_free_subcommands_leave_scipy_out(self):
        commands = [
            ["--help"],
            ["kernel", "--model", "hartogs", "--n", "2", "--k", "1",
             "--w", "0,0.5", "--eta", "0,0.5"],
            ["schur-range", "--n", "3"],
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
print(json.dumps([est, ver, "hartogs.estimates" in sys.modules]))
"""
        (est_code, est_out), (ver_code, ver_out), loaded = _fresh_interpreter(code)
        assert est_code == ver_code == 0
        assert est_out.splitlines()[0] == "r,value,envelope,ratio"
        assert len(est_out.splitlines()) == 4
        assert json.loads(ver_out)["feasible"] is True
        assert loaded

    def test_deferred_names_are_the_home_objects(self):
        code = """
import json, sys
import hartogs.cli as cli
before = "hartogs.estimates" in sys.modules
homes = {"sphere_moment": "estimates", "sphere_moment_mc": "estimates",
         "asymptotic_ratio_check": "estimates", "schur_verify": "schur",
         "feasible_params": "schur", "admissible_p_range": "schur", "SchurWitness": "schur"}
got = {name: getattr(cli, name) for name in homes}  # first access loads estimates
same = {name: got[name] is getattr(sys.modules["hartogs." + home], name)
        for name, home in homes.items()}
print(json.dumps([before, same, hasattr(cli, "no_such_name")]))
"""
        before, same, missing_resolves = _fresh_interpreter(code)
        assert before is False
        assert all(same.values()), same
        assert missing_resolves is False

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
