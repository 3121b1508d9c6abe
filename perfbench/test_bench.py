"""Tests of the benchmark's own oracles, checks and metric names.

    python3 -m pytest perfbench/test_bench.py -q

They exercise the checks with deliberately perturbed values and make sure
every metric BENCHMARK.json names is emitted. The census test starts one
traced pass process (a few seconds).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _sphere_op():
    return {"id": "sphere_mc.k2", "kind": "sphere_mc",
            "p": {"k": 2, "nu": [1, 1], "samples": 1000, "seed": 1}}


def _checked(pairs):
    checker = run.Checker()
    passes = [checker.check(run.Pass(records=[(op, rec)])) for op, rec in pairs]
    return checker, passes


@pytest.mark.parametrize("sigmas,ok", [(1.0, True), (3.9, True), (5.0, False)])
def test_mc_estimate_within_four_sigma(sigmas, ok):
    exact = oracles.sphere_moment(2, [1, 1])
    err = 1e-3
    rec = {"id": "x", "wall_s": 1.0, "out": {"est": [exact + sigmas * err, 0.0], "err": err}}
    assert oracles.check_op(_sphere_op(), rec)[0] is ok


def test_mc_result_off_by_five_sigma_raises_fail_ratio():
    exact = oracles.sphere_moment(2, [1, 1])
    good = {"id": "a", "wall_s": 1.0, "out": {"est": [exact + 1e-3, 0.0], "err": 1e-3}}
    bad = {"id": "a", "wall_s": 1.0, "out": {"est": [exact + 5e-3, 0.0], "err": 1e-3}}
    op = _sphere_op()
    checker, passes = _checked([(op, good)])
    assert run.workload_metrics("monte-carlo", passes, checker)["fail_ratio"][0] == 0
    other = dict(op, id="sphere_mc.other", p=dict(op["p"], seed=2))
    checker, passes = _checked([(op, good), (other, bad)])
    assert run.workload_metrics("monte-carlo", passes, checker)["fail_ratio"][0] == 0.5


def test_collapsed_stderr_fails_unless_exact():
    rec = {"id": "x", "wall_s": 1.0, "out": {"est": [0.3, 0.0], "err": 0.0}}
    assert not oracles.check_op(_sphere_op(), rec)[0]
    exact = {"id": "x", "wall_s": 1.0, "out": {"est": [1.0, 0.0], "err": 0.0}}
    op = {"id": "s1", "kind": "sphere_mc", "p": {"k": 1, "nu": [2], "samples": 10, "seed": 1}}
    assert oracles.check_op(op, exact)[0]


def test_series_value_off_by_1e6_relative_raises_fail_ratio():
    op = {"id": "ratio.ball.k2", "kind": "ratio",
          "p": {"which": "ball", "k": 2, "alpha": -0.5, "beta": None,
                "r_min": 0.0, "r_max": 0.9999, "points": 6}}
    grid = np.linspace(0.0, 0.9999, 6)
    values = [oracles.ball_integral(2, -0.5, r) for r in grid]
    rec = {"id": op["id"], "wall_s": 0.1, "out": {"value": values, "ratio_ok": True}}
    checker, passes = _checked([(op, rec)])
    assert checker.failed == 0
    perturbed = list(values)
    perturbed[3] *= 1 + 1e-6
    bad = {"id": op["id"], "wall_s": 0.1, "out": {"value": perturbed, "ratio_ok": True}}
    other = dict(op, id="ratio.other", p=dict(op["p"], alpha=-0.5))
    checker, passes = _checked([(op, rec), (other, bad)])
    assert run.workload_metrics("series-edge", passes, checker)["fail_ratio"][0] == 0.5


def test_repeat_with_different_output_fails():
    exact = oracles.sphere_moment(2, [1, 1])
    op = _sphere_op()
    first = {"id": "a", "wall_s": 1.0, "out": {"est": [exact, 0.0], "err": 1e-3}}
    second = {"id": "a", "wall_s": 1.0, "out": {"est": [exact + 1e-9, 0.0], "err": 1e-3}}
    checker, _ = _checked([(op, first), (op, second)])
    assert checker.failed == 1


def test_sampled_rational_bracket_counts_as_miss():
    sampled = {"affine4": [2.0, 2.0, "exact"], "rational3": [0.28145, 0.29957, "sampled"]}
    assert oracles.bracket_misses(sampled) == 1
    exact = {"affine4": [2.0, 2.0, "exact"], "rational3": [9 / 32, 0.3, "exact"]}
    assert oracles.bracket_misses(exact) == 0


def test_tail_has_ten_samples_beyond():
    values = list(range(1, 25))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10


def test_end_to_end_names_match_benchmark_json():
    assert set(run.E2E_UNITS.items()) == {(m["name"], m["unit"]) for m in SPEC["end_to_end"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_per_layer_metric_is_emitted():
    census = run.Checker().check(run.op_pass(workloads.census_ops(3), trace=True))
    assert all(ok for _, _, ok, _ in census.results), [
        (op["id"], detail) for op, _, ok, detail in census.results if not ok]
    metrics = run.traced_metrics(census.spans, census.results, [0.05],
                                 [[0.7, 800, 300, "hartogs"]], 0.1)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert all(np.isfinite(v) for v in metrics.values())
    assert metrics["transfer.bracket_misses"] == 1
    for layer in ("domains", "sampling", "mc", "kernels", "estimates", "schur",
                  "counterexample", "transfer", "cli"):
        assert metrics[f"{layer}.calls"] > 0 and metrics[f"{layer}.busy_s"] > 0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "series-edge",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
