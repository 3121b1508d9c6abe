"""In-memory span recorder for the traced benchmark run, and the per-layer
metrics derived from its spans.

`install` wraps every public function of the layer modules, in every
`hartogs` module namespace that holds a reference to it, so each call into a
layer (from the benchmark or from another layer) records one span:
`<module>.<function>`, start, end, parent span and op id. The wrapping exists
only inside the traced benchmark process; nothing under src/ changes.
Spans stay in memory and are handed to the parent when the process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

import numpy as np

LAYERS = ("cli", "domains", "sampling", "mc", "kernels", "estimates",
          "schur", "counterexample", "transfer")

# span record: [name, start, end, parent index (-1 for none), op id, raised, work]
NAME, START, END, PARENT, OP, RAISED, WORK = range(7)

EDGE_RADIUS = 0.99  # series evaluations above this radius count as "edge"


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _cfg_samples(args, kwargs, result):
    from hartogs.config import DEFAULT_CONFIG, NumericConfig
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, NumericConfig):
            return value.mc_samples
    return DEFAULT_CONFIG.mc_samples


def _leading(args, kwargs, result):
    return int(np.shape(result)[0])


def _size(args, kwargs, result):
    return int(np.size(result))


def _rows(args, kwargs, result):
    return int(np.size(result) // np.shape(result)[-1])


def _radii(args, kwargs, result):
    return np.asarray(_arg(args, kwargs, 2, "r"), dtype=float).ravel().tolist()


def _mc_mean(args, kwargs, result):
    total = int(_arg(args, kwargs, 1, "total"))
    chunk = int(_arg(args, kwargs, 3, "chunk_size", 1 << 15))
    return [total, -(-total // chunk)]


# Units of work per call, for the functions whose metrics are rates or counts.
WORK_UNITS = {
    **{f"sampling.{kind}_{form}": _leading
       for kind in ("ball", "sphere", "disk") for form in ("points", "from_uniform")},
    "domains.sample_product_model": _leading,
    "domains.product_points": _leading,
    "domains.product_from_uniform": _leading,
    "domains.contains": _size,
    **{f"domains.{fn}": _rows for fn in ("to_product_model", "from_product_model",
                                         "to_standard_model", "from_standard_model")},
    "kernels.kernel_hartogs": _size,
    "kernels.mc_bergman_projection": lambda a, k, r: int(_arg(a, k, 3, "samples")),
    "mc.mc_mean": _mc_mean,
    "estimates.weighted_ball_integral_series": _radii,
    "estimates.weighted_disk_integral_series": _radii,
    "estimates.weighted_disk_integral_quad": _radii,
    "estimates.sphere_moment_mc": _cfg_samples,
    "estimates.weighted_ball_integral_mc": _cfg_samples,
    "estimates.weighted_disk_integral_mc": _cfg_samples,
    "schur.schur_verify": lambda a, k, r: [int(r.samples), bool(r.notes)],
    "counterexample.blowup_demo": lambda a, k, r: len(r.m),
    # both sides of the identity draw mc_samples box proposals
    "transfer.pullback_isometry_check": lambda a, k, r: 2 * _cfg_samples(a, k, r),
}


class Tracer:
    """Records spans while `active`, on the thread that created it only
    (mc_mean's worker threads would otherwise interleave the parent stack)."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: str | None = None
        self.active = False
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def wrap(self, name: str, fn):
        work = WORK_UNITS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.op, False, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span[WORK] = work(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer module with `tracer`."""
    originals = {}
    for layer in LAYERS:
        module = importlib.import_module(f"hartogs.{layer}")
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                originals[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    for name, module in list(sys.modules.items()):
        if name != "hartogs" and not name.startswith("hartogs."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])


# --- per-layer metrics ----------------------------------------------------


def _outer(spans, names):
    """Completed spans named in `names` with no ancestor also named in `names`."""
    for span in spans:
        if span[NAME] not in names or span[RAISED]:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            yield span


def _rate(span_lists, names, work=lambda w: w):
    done = busy = 0.0
    for spans in span_lists:
        for span in _outer(spans, names):
            done += work(span[WORK])
            busy += span[END] - span[START]
    return done / busy if busy > 0 else 0.0


def _total(span_lists, names, work=lambda w: 1):
    return sum(work(span[WORK]) for spans in span_lists for span in _outer(spans, names))


def _duration(span_lists, names):
    return sum(span[END] - span[START] for spans in span_lists for span in _outer(spans, names))


def layer_metrics(span_lists) -> dict[str, float]:
    """Per-layer counts, self time and failures, plus the named layer rates.

    A span's self time is its duration minus the time its child spans cover.
    """
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.busy_s"] = 0.0
        out[f"{layer}.fail"] = 0
    for spans in span_lists:
        covered = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        for span, child in zip(spans, covered):
            layer = span[NAME].split(".", 1)[0]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.busy_s"] += span[END] - span[START] - child
            out[f"{layer}.fail"] += int(span[RAISED])

    def names(module, *fns):
        return {f"{module}.{fn}" for fn in fns}

    for kind in ("ball", "sphere", "disk"):
        out[f"sampling.{kind}_points_per_s"] = _rate(
            span_lists, names("sampling", f"{kind}_points", f"{kind}_from_uniform"))
    out["domains.sample_product_points_per_s"] = _rate(span_lists, names(
        "domains", "sample_product_model", "product_points", "product_from_uniform"))
    out["domains.contains_points_per_s"] = _rate(span_lists, names("domains", "contains"))
    out["domains.chart_points_per_s"] = _rate(span_lists, names(
        "domains", "to_product_model", "from_product_model",
        "to_standard_model", "from_standard_model"))
    out["kernels.hartogs_pairs_per_s"] = _rate(span_lists, names("kernels", "kernel_hartogs"))
    out["kernels.projection_samples_per_s"] = _rate(
        span_lists, names("kernels", "mc_bergman_projection"))
    out["kernels.truncated_s"] = _duration(span_lists, names("kernels", "kernel_truncated"))
    out["mc.chunks"] = _total(span_lists, names("mc", "mc_mean"), lambda w: w[1])

    series = names("estimates", "weighted_ball_integral_series", "weighted_disk_integral_series")
    evals = {"interior": [0, 0.0], "edge": [0, 0.0]}
    for spans in span_lists:
        for span in _outer(spans, series):
            radii = span[WORK]
            edge = sum(r > EDGE_RADIUS for r in radii)
            share = (span[END] - span[START]) / len(radii)
            evals["edge"][0] += edge
            evals["edge"][1] += share * edge
            evals["interior"][0] += len(radii) - edge
            evals["interior"][1] += share * (len(radii) - edge)
    out["estimates.series_evals"] = evals["interior"][0] + evals["edge"][0]
    for where, (count, busy) in evals.items():
        out[f"estimates.series_s_per_eval_{where}"] = busy / count if count else 0.0
    quad = names("estimates", "weighted_disk_integral_quad")
    out["estimates.quad_evals"] = _total(span_lists, quad, len)
    quad_busy = _duration(span_lists, quad)
    out["estimates.quad_s_per_eval"] = (quad_busy / out["estimates.quad_evals"]
                                        if out["estimates.quad_evals"] else 0.0)
    out["estimates.mc_samples_per_s"] = _rate(span_lists, names(
        "estimates", "sphere_moment_mc", "weighted_ball_integral_mc", "weighted_disk_integral_mc"))

    verify = names("schur", "schur_verify")
    out["schur.verify_points_per_s"] = _rate(span_lists, verify, lambda w: w[0])
    quad_points = quad_busy = 0.0
    for spans in span_lists:
        for span in _outer(spans, verify):
            if span[WORK][1]:
                quad_points += span[WORK][0]
                quad_busy += span[END] - span[START]
    out["schur.quad_route_points_per_s"] = quad_points / quad_busy if quad_busy else 0.0
    out["counterexample.blowup_rows_per_s"] = _rate(
        span_lists, names("counterexample", "blowup_demo"))
    out["transfer.pullback_samples_per_s"] = _rate(
        span_lists, names("transfer", "pullback_isometry_check"))
    return out
