"""One benchmark pass in a fresh interpreter.

    python3 perfbench/passrun.py < payload.json

The payload is {"ops": [...], "trace": bool} (ops as built by workloads.py).
The process imports `hartogs` first, so `import_s` is the cold import alone,
then builds each op's inputs, times the library call, and summarizes the
result outside the timed region. With "trace" it wraps the layer modules
(spans.install) and records spans only while an op's library call runs.
It prints one JSON object: import time, per-op wall time and summary (or
error), and the spans.
"""

import sys
import time

_t0 = time.perf_counter()
import hartogs.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

import numpy as np  # noqa: E402

from hartogs import (cli, counterexample, domains, estimates, kernels, mc,  # noqa: E402
                     sampling, schur, transfer)
from hartogs.config import NumericConfig  # noqa: E402

import models  # noqa: E402
import spans  # noqa: E402

SCHUR_CHECKED_POINTS = 8     # points per Schur op re-derived by the mpmath oracle
QUAD_CHECKED_POINTS = 3      # fewer on the quadrature route: mpmath.quad is slow
CHUNK = NumericConfig().chunk_size


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _cs(pairs) -> np.ndarray:
    return np.array([_c(v) for v in pairs], dtype=complex)


def _pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _est_err(result) -> dict:
    est, err = result
    return {"est": _pair(est), "err": float(err)}


def _monomial(exps):
    exps = np.array(exps)
    return lambda pts: np.prod(pts ** exps, axis=-1)


def _spec(name: str):
    """The library's spec for a models.SPECS name."""
    if name == "standard":
        n, dims = models.SPECS[name]
        return domains.HartogsDomainSpec.standard(n, list(dims))
    return cli.builtin_example(name)


# --- ops: each returns (timed library call, summary of its result) ---------


def op_cli(p):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(p["argv"])
        return code, out.getvalue(), err.getvalue()
    return call, lambda r: {"code": r[0], "stdout": r[1], "stderr": r[2]}


def op_sphere_mc(p):
    cfg = NumericConfig(seed=p["seed"], mc_samples=p["samples"])
    return (lambda: estimates.sphere_moment_mc(p["k"], p["nu"], cfg)), _est_err


def op_ball_mc(p):
    cfg = NumericConfig(seed=p["seed"], mc_samples=p["samples"])
    w = _cs(p["w"])
    return (lambda: estimates.weighted_ball_integral_mc(p["k"], p["alpha"], w, cfg)), _est_err


def op_disk_mc(p):
    cfg = NumericConfig(seed=p["seed"], mc_samples=p["samples"])
    w = _c(p["w"])
    return (lambda: estimates.weighted_disk_integral_mc(p["alpha"], p["beta"], w, cfg)), _est_err


def _projection_inputs(p):
    spec = domains.HartogsDomainSpec.standard(p["n"], p["k"])
    if p["monomial"] is not None:
        f = _monomial(p["monomial"])
    else:
        def f(pts):
            return counterexample.blowup_eval(p["n"], p["blowup_m"], pts)
    return spec, f, _cs(p["z"])


def op_projection(p):
    spec, f, z = _projection_inputs(p)
    return (lambda: kernels.mc_bergman_projection(spec, f, z, p["samples"], p["seed"])), _est_err


def op_probe_projection(p):
    """mc_bergman_projection split into its public parts on the same inputs."""
    spec, f, z = _projection_inputs(p)
    n, k = spec.n, spec.k

    def call():
        w = domains.sample_product_model(spec, p["samples"], p["seed"])
        fz = domains.to_product_model(n, k, z)
        vals = (kernels.kernel_product(spec, fz, w)
                * domains.jacobian_det_from_product(n, k, w)
                * f(domains.from_product_model(n, k, w)))
        chunks = iter(np.split(vals, np.cumsum(
            [count for _, count in mc.chunk_layout(p["samples"], CHUNK)])[:-1]))
        est, err = mc.mc_mean(lambda rng, count: next(chunks), p["samples"], p["seed"], CHUNK)
        det_z = complex(domains.jacobian_det_from_product(n, k, fz))
        return complex(est) / det_z, err / abs(det_z)
    return call, _est_err


def op_pullback(p):
    spec = _spec(p["example"])
    cfg = NumericConfig(seed=p["seed"], mc_samples=p["samples"])
    f = _monomial(p["monomial"])

    def summarize(rep):
        return {"src": rep.source_value, "src_err": rep.source_stderr,
                "tgt": rep.target_value, "tgt_err": rep.target_stderr}
    return (lambda: transfer.pullback_isometry_check(spec, f, cfg)), summarize


def op_probe_pullback(p):
    """The box-rejection draws of pullback_isometry_check on the same inputs,
    split into sampling, membership, the map to the standard model and its
    Jacobian; counts accepted and proposed box draws."""
    spec = _spec(p["example"])

    def call():
        accepted = 0
        for side in (spec, spec.standardized()):
            radii = np.concatenate([fam.coordinate_radii() for _, fam in side.blocks]
                                   + [np.ones(side.n - side.k)])
            for idx, count in mc.chunk_layout(p["samples"], CHUNK):
                u = mc.chunk_rng(p["seed"], idx).random((count, 2 * side.n))
                pts = np.stack([sampling.disk_from_uniform(u[:, 2 * j:2 * j + 2], 0.0, radii[j])
                                for j in range(side.n)], axis=1)
                inside = domains.contains(side, pts)
                accepted += int(inside.sum())
                if side is spec:
                    domains.to_standard_model(side, pts[inside])
                    transfer.jacobian_det_to_standard(side, pts[inside])
        return accepted, 2 * p["samples"]
    return call, lambda r: {"accepted": r[0], "proposed": r[1]}


def op_kernel_hartogs(p):
    rng = np.random.default_rng(p["seed"])
    spec = _spec(p["spec"])
    z = models.domain_points(rng, p["pairs"], p["spec"])
    zeta = models.domain_points(rng, p["pairs"], p["spec"])

    def summarize(val):
        ref = models.hartogs_kernel(p["spec"], z, zeta)
        return {"finite": bool(np.all(np.isfinite(val))),
                "max_rel_err": float(np.max(np.abs(val - ref) / np.abs(ref)))}
    return (lambda: kernels.kernel_hartogs(spec, z, zeta)), summarize


def op_ratio(p):
    grid = np.linspace(p["r_min"], p["r_max"], p["points"])
    params = {"alpha": p["alpha"]}
    params.update({"k": p["k"]} if p["which"] == "ball" else {"beta": p["beta"]})

    def summarize(rep):
        return {"value": rep.value.tolist(),
                "ratio_ok": bool(np.all(np.isfinite(rep.ratio)) and np.all(rep.ratio > 0))}
    return (lambda: estimates.asymptotic_ratio_check(p["which"], params, grid)), summarize


def op_schur(p):
    n, k = p["n"], p["k"]
    cfg = NumericConfig(seed=p["seed"])
    if p["s"] is None:
        witness = schur.feasible_params(n, k, p["p"])
    else:
        witness = schur.SchurWitness(p["s"], dict(zip(range(k + 1, n + 1), p["t"])))

    def summarize(rep):
        checked = QUAD_CHECKED_POINTS if rep.notes else SCHUR_CHECKED_POINTS
        # the same points schur_verify sampled (default margins 0.01)
        pts = domains.sample_product_model(domains.HartogsDomainSpec.standard(n, k),
                                           checked, cfg.seed, r_max=0.99,
                                           disk_r_min=0.01, chunk_size=cfg.chunk_size)
        both = np.concatenate([rep.cond1, rep.cond2])
        return {"s": witness.s, "t": [witness.t[j] for j in range(k + 1, n + 1)],
                "points": [[_pair(v) for v in row] for row in pts],
                "cond1": rep.cond1[:checked].tolist(), "cond2": rep.cond2[:checked].tolist(),
                "finite": bool(np.all(np.isfinite(both)) and np.all(both > 0)),
                "quad_route": bool(rep.notes)}
    return (lambda: schur.schur_verify(n, k, p["p"], witness, cfg, samples=p["samples"])), summarize


def op_blowup(p):
    def summarize(table):
        return {"m": table.m.tolist(), "norm": table.norm.tolist(), "bound": table.bound.tolist()}
    return (lambda: counterexample.blowup_demo(p["n"], p["k"], p["p"],
                                               range(1, p["m_max"] + 1))), summarize


def op_truncated(p):
    rng = np.random.default_rng(p["seed"])
    k = p["k"]
    n = p["n"] or k
    u = models.small_product_points(rng, p["pairs"], n)
    v = models.small_product_points(rng, p["pairs"], n)
    model = (("product", domains.HartogsDomainSpec.standard(n, k)) if p["model"] == "product"
             else ("ball", k))

    def summarize(val):
        ref = models.product_kernel((k,), u, v)
        return {"finite": bool(np.all(np.isfinite(val))),
                "max_rel_err": float(np.max(np.abs(val - ref) / np.abs(ref)))}
    return (lambda: kernels.kernel_truncated(model, p["degree"], u, v)), summarize


def op_sampling(p):
    def call():
        rng = mc.chunk_rng(p["seed"], 0)
        return (sampling.ball_points(rng, p["count"], 2), sampling.sphere_points(rng, p["count"], 2),
                sampling.disk_points(rng, p["count"]))

    def summarize(r):
        ball, sphere, disk = (np.abs(x) if x.ndim == 1 else np.linalg.norm(x, axis=1)
                              for x in r)
        return {"ok": bool(ball.max() < 1.0 and np.abs(sphere - 1.0).max() < 1e-12
                           and disk.max() < 1.0)}
    return call, summarize


def op_domains(p):
    n, k = p["n"], p["k"]
    spec = domains.HartogsDomainSpec.standard(n, k)

    def call():
        w = domains.sample_product_model(spec, p["count"], p["seed"])
        z = domains.from_product_model(n, k, w)
        return w, domains.contains(spec, z), domains.to_product_model(n, k, z)

    def summarize(r):
        w, inside, back = r
        return {"inside": float(np.mean(inside)), "roundtrip_err": float(np.abs(back - w).max())}
    return call, summarize


def op_mc_probe(p):
    """mc_mean with trivial values (one uniform per sample)."""
    def call():
        return mc.mc_mean(lambda rng, count: rng.random(count), p["samples"], p["seed"],
                          p["chunk"], p["workers"])
    return call, _est_err


def op_bounds(p):
    cfg = NumericConfig(seed=p["seed"])
    names = ("affine4", "rational3")

    def call():
        return [transfer.jacobian_bounds(cli.builtin_example(name), cfg) for name in names]
    return call, lambda r: {name: [b.c, b.d, b.method] for name, b in zip(names, r)}


# op kind -> the op_<kind> function above that prepares it
KINDS = {name[3:]: fn for name, fn in globals().items() if name.startswith("op_")}


def main() -> None:
    payload = json.load(sys.stdin)
    tracer = spans.Tracer() if payload.get("trace") else None
    if tracer is not None:
        spans.install(tracer)
    records = []
    for op in payload["ops"]:
        rec = {"id": op["id"]}
        try:
            call, summarize = KINDS[op["kind"]](op["p"])
            if tracer is not None:
                tracer.op, tracer.active = op["id"], True
            start = time.perf_counter()
            try:
                value = call()
            finally:
                rec["wall_s"] = time.perf_counter() - start
                if tracer is not None:
                    tracer.active = False
            rec["out"] = summarize(value)
        except Exception as exc:  # one failed op must not hide the others
            rec["error"] = f"{type(exc).__name__}: {exc}"
        records.append(rec)
    json.dump({"import_s": IMPORT_S, "ops": records,
               "spans": tracer.spans if tracer is not None else []}, sys.stdout)


if __name__ == "__main__":
    main()
