import json
import subprocess
import sys

import pytest

from hartogs.cli import run


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
