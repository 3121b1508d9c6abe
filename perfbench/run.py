"""Benchmark of the hartogs library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere; the library is imported from ../src relative to this file
and nowhere else. Workloads (BENCHMARK.json and README.md say why each was
chosen and what it should move):

  cli-cold     passes over all 8 subcommands, one fresh `python -m hartogs.cli`
               process per call, inputs seeded per pass
  monte-carlo  1e6-sample estimators, one fresh process per pass
  series-edge  series grids to r=0.9999, Schur verification, the quad route,
               the blow-up table and truncated kernels, one fresh process per pass

Each workload is a closed loop with one client and workers=1. Passes repeat
until --seconds have elapsed (at least MIN_PASSES); every pass runs in a fresh
interpreter so the library's process-global caches start empty, as they do
for every CLI call. Outputs are checked against independent oracles outside
the timed region (oracles.py).

--trace 0 reports the end-to-end metrics; --trace 1 runs untraced and traced
passes in pairs plus a census of every layer and reports the per-layer
metrics. Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. A run record with the
environment, every metric and every op check (and, traced, the spans) is
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))  # in-process library calls that CLI output is checked against

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
MIN_PAIRS = 2            # traced run: untraced/traced pass pairs
SETUP_REPEATS = 5        # fresh interpreters per run for setup_s
PROBE_REPEATS = 3        # traced run: bare-interpreter and import probes
CHILD_TIMEOUT_S = 150.0
MC_TARGET_REL = 1e-3     # mc_tts_s: accuracy target as a share of |reference|

IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import hartogs, hartogs.cli; "
                "t = time.perf_counter() - t; import json; print(json.dumps([t, len(sys.modules), "
                "sum(m == 'scipy' or m.startswith('scipy.') for m in sys.modules), "
                "hartogs.__file__]))")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark; no result is printed."""


# --- child processes ----------------------------------------------------------


@dataclass
class Child:
    code: int
    out: str
    err: str
    wall_s: float
    rss_mb: float


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("HARTOGS_SEED", None)  # every seed is passed explicitly
    return env


def spawn(argv: list[str], stdin: str = "") -> Child:
    """Run a child to completion; wall time from spawn to reap, peak RSS of
    the child alone (wait4), stdout and stderr drained concurrently."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT, env=_env())
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    err: list[bytes] = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    try:
        try:
            proc.stdin.write(stdin.encode())
            proc.stdin.close()
        except BrokenPipeError:  # the child exited early; its status says why
            pass
        out = proc.stdout.read()
        drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(proc.returncode, out.decode(), err[0].decode() if err else "", wall,
                 usage.ru_maxrss / 1024.0)


def passrun(ops: list[dict], trace: bool) -> tuple[Child, dict]:
    child = spawn([sys.executable, str(HERE / "passrun.py")],
                  json.dumps({"ops": ops, "trace": trace}))
    if child.code != 0:
        return child, {"ops": [{"id": op["id"], "error": f"pass exited {child.code}: "
                                f"{child.err.strip()[-500:]}"} for op in ops], "spans": []}
    return child, json.loads(child.out)


def import_probe() -> tuple[float, list]:
    child = spawn([sys.executable, "-c", IMPORT_PROBE])
    if child.code != 0:
        raise SetupError(f"cannot import hartogs from {SRC}: {child.err.strip()}")
    data = json.loads(child.out)
    if not Path(data[3]).resolve().is_relative_to(SRC):
        raise SetupError(f"hartogs imported from {data[3]}, not from {SRC}")
    return child.wall_s, data


def prepare() -> None:
    if not (SRC / "hartogs" / "__init__.py").is_file():
        raise SetupError(f"no hartogs package under {SRC}")
    # untimed warm-up: writes __pycache__, as an installed package has it
    child, _ = passrun([], trace=False)
    if child.code != 0:
        raise SetupError(f"warm-up failed: {child.err.strip()}")


# --- passes -------------------------------------------------------------------


@dataclass
class Pass:
    rss_mb: float = 0.0
    records: list = field(default_factory=list)    # (op, rec) per op run
    results: list = field(default_factory=list)    # (op, rec, ok, detail) once checked
    latencies: list = field(default_factory=list)  # per CLI invocation
    spans: list = field(default_factory=list)      # one span list per child


def cli_pass(seed: int, index: int, trace: bool) -> Pass:
    run = Pass()
    for op in workloads.cli_ops(seed, index):
        if trace:
            child, data = passrun([op], trace=True)
            rec = dict(data["ops"][0], wall_s=child.wall_s)
            run.spans.append(data["spans"])
        else:
            child = spawn([sys.executable, "-m", "hartogs.cli", *op["p"]["argv"]])
            rec = {"id": op["id"], "wall_s": child.wall_s,
                   "out": {"code": child.code, "stdout": child.out, "stderr": child.err}}
        run.records.append((op, rec))
        run.latencies.append(child.wall_s)
        run.rss_mb = max(run.rss_mb, child.rss_mb)
    return run


def op_pass(ops: list[dict], trace: bool) -> Pass:
    if trace:
        ops = ops + workloads.probe_ops(ops)
    child, data = passrun(ops, trace)
    return Pass(child.rss_mb, list(zip(ops, data["ops"])), spans=[data["spans"]])


def run_pass(workload: str, seed: int, index: int, trace: bool) -> Pass:
    if workload == "cli-cold":
        return cli_pass(seed, index, trace)
    return op_pass(workloads.ops_for(workload, seed), trace)


# --- checks -------------------------------------------------------------------


class Checker:
    """Checks op records. Passes of one run repeat the same inputs, so each
    distinct (op, output) is checked once, and a repeat of an op must
    reproduce its first output (the determinism contract)."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []
        self._first: dict[str, str] = {}
        self._cache: dict[str, tuple[bool, dict]] = {}

    def check(self, run: Pass) -> Pass:
        for op, rec in run.records:
            op_key = json.dumps(op, sort_keys=True)
            key = json.dumps([op_key, rec.get("out"), rec.get("error")], sort_keys=True)
            if key not in self._cache:
                self._cache[key] = oracles.check_op(op, rec)
            ok, detail = self._cache[key]
            if self._first.setdefault(op_key, key) != key:
                ok, detail = False, dict(detail, error="output differs from an earlier pass")
            self.attempted += 1
            if not ok:
                self.failures.append({"id": op["id"], **detail})
            run.results.append((op, rec, ok, detail))
        return run

    @property
    def failed(self) -> int:
        return len(self.failures)


# --- metrics ------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    ordered = sorted(values)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def workload_metrics(workload: str, passes: list[Pass], checker: Checker) -> dict:
    """Workload-specific end-to-end metrics: {name: [value, unit, note]}."""
    out = {"fail_ratio": [checker.failed / checker.attempted, "1",
                          f"{checker.failed} failed of {checker.attempted} ops"]}
    if workload == "cli-cold":
        lat = [x for run in passes for x in run.latencies]
        value, pct = tail(lat)
        out["cli_p50_s"] = [statistics.median(lat), "s", f"n={len(lat)} invocations"]
        out["cli_tail_s"] = [value, "s", f"p{pct:.0f} of n={len(lat)} invocations"]
    elif workload == "monte-carlo":
        rates, tts = [], []
        for run in passes:
            done = busy = cost = 0.0
            for op, rec, ok, detail in run.results:
                if "mc" in detail:
                    samples, err, ref = detail["mc"]
                    done += samples
                    busy += rec["wall_s"]
                    cost += rec["wall_s"] * (err / (MC_TARGET_REL * ref)) ** 2
            rates.append(done / busy)
            tts.append(cost)
        out["mc_samples_per_s"] = [statistics.median(rates), "1/s", "samples drawn and reduced"]
        out["mc_tts_s"] = [statistics.median(tts), "s", "sum of op wall x "
                           f"(stderr / ({MC_TARGET_REL:g} |ref|))^2"]
    else:
        rates, worst = [], 0.0
        for run in passes:
            evals = busy = 0.0
            for op, rec, ok, detail in run.results:
                if op["kind"] in ("ratio", "schur") and "wall_s" in rec:
                    evals += workloads.integral_evals(op)
                    busy += rec["wall_s"]
                worst = max(worst, detail.get("series_rel_err", 0.0))
            rates.append(evals / busy)
        out["series_evals_per_s"] = [statistics.median(rates), "1/s",
                                     "integral evaluations (radius points)"]
        out["series_max_rel_err"] = [worst, "1", "vs 40-digit mpmath 2F1; advertised "
                                     f"{oracles.SERIES_ADVERTISED_TOL:g}"]
    return out


def op_walls(passes: list[Pass]) -> dict[str, float]:
    """Each timed op's median wall time across passes."""
    walls: dict[str, list[float]] = {}
    for run in passes:
        for op, rec in run.records:
            if not op["id"].startswith("probe."):
                walls.setdefault(op["id"], []).append(rec.get("wall_s", 0.0))
    return {op_id: statistics.median(values) for op_id, values in walls.items()}


def pass_wall(passes: list[Pass]) -> float:
    """One full pass: the sum of the ops' median wall times (a slow moment on
    a shared machine then moves one op's sample, not the whole pass)."""
    return sum(op_walls(passes).values())


@dataclass
class Report:
    metrics: dict        # the BENCHMARK.json metrics of this run's kind
    extra: dict          # name -> [value, unit, note], printed and recorded only
    checker: Checker
    op_wall_s: dict      # median wall time of each timed op
    spans: list = field(default_factory=list)  # traced run: one span list per process


def measure(workload: str, seed: int, seconds: float) -> Report:
    """Untraced run: setup probes, then timed passes until `seconds` elapse."""
    setup = [import_probe()[0] for _ in range(SETUP_REPEATS)]
    checker = Checker()
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, seed, len(passes), trace=False))
    for run in passes:
        checker.check(run)
    metrics = {"setup_s": statistics.median(setup),
               "wall_s": pass_wall(passes),
               "peak_rss_mb": statistics.median(run.rss_mb for run in passes)}
    extra = workload_metrics(workload, passes, checker)
    extra["passes"] = [len(passes), "count", "fresh-interpreter passes measured"]
    return Report(metrics, extra, checker, op_walls(passes))


def measure_traced(workload: str, seed: int, seconds: float) -> Report:
    """Traced run: probes, untraced/traced pass pairs, then the layer census."""
    interp = [spawn([sys.executable, "-c", "pass"]).wall_s for _ in range(PROBE_REPEATS)]
    imports = [import_probe()[1] for _ in range(PROBE_REPEATS)]
    checker = Checker()
    plain, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_PAIRS or time.perf_counter() - start < seconds:
        plain.append(checker.check(run_pass(workload, seed, len(plain), trace=False)))
        traced.append(checker.check(run_pass(workload, seed, len(traced), trace=True)))
    census = checker.check(op_pass(workloads.census_ops(seed), trace=True))
    # counts describe one traced pass plus the census
    span_lists = traced[0].spans + census.spans
    metrics = traced_metrics(span_lists, traced[0].results + census.results,
                             interp, imports, pass_wall(traced) - pass_wall(plain))
    extra = {"pairs": [len(traced), "count", "untraced/traced pass pairs"],
             "spans": [sum(map(len, span_lists)), "count", "spans recorded"]}
    return Report(metrics, extra, checker, op_walls(traced), span_lists)


def traced_metrics(span_lists: list, results: list, interp: list[float], imports: list,
                   overhead: float) -> dict:
    """Per-layer metrics from the spans and op results of a traced run."""
    metrics = spans.layer_metrics(span_lists)
    metrics.update({
        "cli.interp_s": statistics.median(interp),
        "cli.import_s": statistics.median(probe[0] for probe in imports),
        "cli.modules_loaded": imports[0][1],
        "cli.scipy_loaded": imports[0][2],
        "bench.trace_overhead_s": overhead,
    })
    runs: dict[str, list[float]] = {}
    for span in (span for span_list in span_lists for span in span_list):
        if span[spans.NAME] == "cli.run":
            sub = span[spans.OP].rsplit("cli.", 1)[1]
            runs.setdefault(sub, []).append(span[spans.END] - span[spans.START])
    for sub in workloads.CLI_SUBCOMMANDS:
        metrics[f"cli.run_s.{sub}"] = statistics.median(runs[sub])
    metrics["cli.run_s"] = sum(metrics[f"cli.run_s.{sub}"] for sub in workloads.CLI_SUBCOMMANDS)
    by_id = {op["id"]: (op, rec) for op, rec, ok, detail in results}
    for workers in (1, 2):
        op, rec = by_id[f"census.mc.w{workers}"]
        metrics[f"mc.w{workers}_samples_per_s"] = op["p"]["samples"] / rec["wall_s"]
    op, rec = by_id["census.mc.w1"]
    metrics["mc.reduce_s_per_chunk"] = rec["wall_s"] / -(-op["p"]["samples"] // op["p"]["chunk"])
    box = [rec["out"] for op, rec, ok, detail in results
           if op["kind"] == "probe_pullback" and "out" in rec]
    metrics["transfer.box_accept_ratio"] = (sum(b["accepted"] for b in box)
                                            / sum(b["proposed"] for b in box))
    metrics["transfer.bracket_misses"] = sum(
        detail.get("bracket_misses", 0) for op, rec, ok, detail in results if op["kind"] == "bounds")
    return metrics


# --- reporting -----------------------------------------------------------------


def environment(workload: str, seed: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    try:
        l3 = os.sysconf("SC_LEVEL3_CACHE_SIZE") or None
    except (ValueError, OSError):
        l3 = None
    return {
        "git_sha": sha, "python": platform.python_version(),
        **{name: metadata.version(name) for name in ("numpy", "scipy", "mpmath")},
        "nproc": os.cpu_count(), "l3_bytes": l3, "workload": workload, "seed": seed,
        "why": next(w["why"] for w in benchmark_spec()["workloads"] if w["name"] == workload),
        "predicted_movers": workloads.MOVERS[workload],
        "working_set": "MC chunks hold 32768 x (2k+1) x 8 B (about 1.8 MB at k=3), far "
                       "inside L3, so bytes moved are reported only as computed values "
                       "and there is no bandwidth metric",
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    prepare()
    if trace:
        report = measure_traced(workload, seed, seconds)
        units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    else:
        report = measure(workload, seed, seconds)
        units = E2E_UNITS
    checker = report.checker
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": {name: {"value": report.metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(f"# workload {workload} seed {seed} trace {int(trace)}: "
          f"{checker.attempted} ops checked, {checker.failed} failed")
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    for name, (value, unit, note) in report.extra.items():
        print(f"{name} {value:.6g} {unit} ({note})")
    for failure in checker.failures[:20]:
        print(f"FAILED {json.dumps(failure)}")
    OUT.mkdir(exist_ok=True)
    record = {"environment": environment(workload, seed), "result": result,
              "workload_metrics": report.extra, "op_wall_s": report.op_wall_s,
              "failures": checker.failures,
              "span_fields": ["name", "start", "end", "parent", "op", "raised", "work"],
              "spans": report.spans}
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record))
    return result


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            runs = {(name, trace): run_workload(name, args.seed, args.seconds, trace)
                    for name in workloads.WORKLOADS for trace in (False, True)}
            result = {"correct": all(r["correct"] for r in runs.values()),
                      "attempted": sum(r["attempted"] for r in runs.values()),
                      "failed": sum(r["failed"] for r in runs.values()),
                      "metrics": {f"{name}.{metric}": entry
                                  for (name, _), r in runs.items()
                                  for metric, entry in r["metrics"].items()}}
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
