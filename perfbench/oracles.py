"""Reference values and the pass/fail check of every op.

Every reference is independent of the library under test: a closed form,
a 40-digit mpmath evaluation of the Forelli-Rudin 2F1 forms, mpmath
quadrature, or the NumPy restatement of the kernel formulas in models.py.
They are computed in the parent, outside the timed region.

An op fails when it raised, exited non-zero, produced a non-finite value,
reported an MC stderr <= 0 or an MC estimate more than MC_SIGMAS stderr from
its reference, or when a deterministic value lies outside its tolerance.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

import models

MC_SIGMAS = 4.0
# The series evaluators advertise rel_tol=1e-12 but stop on the last term
# alone and drift to ~5e-9 at r=0.9999; the check bound sits above that drift
# (so the known defect is reported by series_max_rel_err, not failed) and
# below the 1e-6 perturbation the self-test must catch.
SERIES_ADVERTISED_TOL = 1e-12
SERIES_REL_TOL = 1e-7
KERNEL_REL_TOL = 1e-9
TABLE_REL_TOL = 1e-9
CLI_REL_TOL = 1e-11          # the CLI prints 12 significant digits
DIGITS = 40

# Exact Jacobian brackets of the builtin examples. affine4: constant
# |det| = |2| * |1|. rational3: |det J| = 3/|z2 - 10| with the ball preimage
# pinning z2 to |3 z2 + 1| < 1, so |z2 - 10| ranges over (10, 32/3).
EXACT_BRACKETS = {"affine4": (2.0, 2.0), "rational3": (9.0 / 32.0, 0.3)}


def _mp():
    import mpmath
    mpmath.mp.dps = DIGITS
    return mpmath


def ball_integral(k: int, alpha: float, r: float) -> float:
    """k! G(a+1)/G(k+a+1) 2F1((k+1)/2, (k+1)/2; k+a+1; r^2)."""
    mp = _mp()
    a, h = mp.mpf(alpha), mp.mpf(k + 1) / 2
    return float(mp.factorial(k) * mp.gamma(a + 1) / mp.gamma(k + a + 1)
                 * mp.hyp2f1(h, h, k + a + 1, mp.mpf(r) ** 2))


def disk_integral(alpha: float, beta: float, r: float) -> float:
    """B(a+1, b/2+1) 2F1(1, b/2+1; a+b/2+2; r^2)."""
    mp = _mp()
    a, b = mp.mpf(alpha), mp.mpf(beta) / 2
    return float(mp.beta(a + 1, b + 1) * mp.hyp2f1(1, b + 1, a + b + 2, mp.mpf(r) ** 2))


def disk_quad(alpha: float, beta: float, r: float, cutoff: float) -> float:
    """2 int_cutoff^1 (1-t^2)^a t^(b+1) / (1 - r^2 t^2) dt by tanh-sinh."""
    mp = _mp()
    a, b, x = mp.mpf(alpha), mp.mpf(beta), mp.mpf(r) ** 2
    return float(2 * mp.quad(lambda t: (1 - t * t) ** a * t ** (b + 1) / (1 - x * t * t),
                             [mp.mpf(cutoff), 1]))


def sphere_moment(k: int, nu) -> float:
    """(k-1)! nu! / (|nu|+k-1)!, exactly."""
    num = math.factorial(k - 1) * math.prod(math.factorial(v) for v in nu)
    return float(Fraction(num, math.factorial(sum(nu) + k - 1)))


def projection_constant(m: int):
    """C_m = sum_{j=1..m} (1 - j a_{j+1}^(1/j)), a_j = j^-j."""
    mp = _mp()
    return mp.fsum(1 - j * mp.power(j + 1, -mp.mpf(j + 1) / j) for j in range(1, m + 1))


def projected_blowup(n: int, m: int, z) -> complex:
    mp = _mp()
    return complex(2 * projection_constant(m) / mp.mpc(z[-1]) ** (n - 1))


def blowup_row(n: int, k: int, p: float, m: int) -> tuple[float, float]:
    """(exact L^p norm of f_m, V^(1/p) 2 C_m) with V = k!/n!."""
    mp = _mp()
    p = mp.mpf(p)
    total = mp.mpf(0)
    for j in range(1, m + 1):
        c = p * (mp.mpf(1) / j - (n + 1)) + 2 * n
        total += (mp.power(j, -j * c) - mp.power(j + 1, -(j + 1) * c)) / c
    norm = (mp.factorial(k) / mp.factorial(n - 1) * 2 * total) ** (1 / p)
    bound = (mp.factorial(k) / mp.factorial(n)) ** (1 / p) * 2 * projection_constant(m)
    return float(norm), float(bound)


def admissible_range(n: int) -> tuple[float, float]:
    return float(Fraction(2 * n, n + 1)), float(Fraction(2 * n, n - 1))


def _rel(got, want) -> float:
    got, want = complex(got), complex(want)
    if not (math.isfinite(got.real) and math.isfinite(got.imag)):
        return math.inf
    return abs(got - want) / abs(want) if want != 0 else abs(got)


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


# --- per-kind checks: (ok, detail) -------------------------------------------


def _mc(est, err, ref, samples) -> tuple[bool, dict]:
    """An MC estimate passes within MC_SIGMAS stderr of its reference with
    stderr > 0. A zero stderr passes only with exact agreement, which is the
    zero-variance case (sphere moments in C^1 are identically 1); a collapsed
    error bar on a wrong estimate still fails."""
    dist = abs(complex(est) - complex(ref))
    finite = all(map(math.isfinite, (complex(est).real, complex(est).imag, err)))
    exact = err == 0 and dist <= 1e-12 * abs(complex(ref))
    ok = finite and (exact or (err > 0 and dist <= MC_SIGMAS * err))
    return ok, {"sigmas": dist / err if err > 0 else math.inf, "mc": [samples, err, abs(ref)]}


def _schur_oracle(p, out) -> float:
    """Worst relative error of the reported condition ratios at the checked
    points, re-derived from the exact factorization with mpmath."""
    n, k = p["n"], p["k"]
    q = p["p"] / (p["p"] - 1.0)
    worst = 0.0
    for row, c1, c2 in zip(out["points"], out["cond1"], out["cond2"]):
        w = [_c(v) for v in row]
        for e, got in ((q, c1), (p["p"], c2)):
            alpha = out["s"] * e
            rb = math.sqrt(sum(abs(v) ** 2 for v in w[:k]))
            log_ratio = math.log(ball_integral(k, alpha, rb)) - alpha * math.log1p(-rb * rb)
            for j, t in zip(range(k + 1, n + 1), out["t"]):
                beta, r = t * e + (j - 1), abs(w[j - 1])
                val = (disk_integral(alpha, beta, r) if alpha > -1 and beta > -2
                       else disk_quad(alpha, beta, r, 0.01))
                log_ratio += (math.log(val) - (j - 1) * math.log(r)
                              - alpha * math.log1p(-r * r) - t * e * math.log(r))
            worst = max(worst, _rel(got, math.exp(log_ratio)))
    return worst


def check_op(op: dict, rec: dict) -> tuple[bool, dict]:
    """Check one op record from passrun against its reference."""
    if "error" in rec:
        return False, {"error": rec["error"]}
    p, out, kind = op["p"], rec["out"], op["kind"]
    if kind == "sphere_mc":
        return _mc(_c(out["est"]), out["err"], sphere_moment(p["k"], p["nu"]), p["samples"])
    if kind == "ball_mc":
        r = float(np.linalg.norm([_c(v) for v in p["w"]]))
        return _mc(_c(out["est"]), out["err"], ball_integral(p["k"], p["alpha"], r), p["samples"])
    if kind == "disk_mc":
        ref = disk_integral(p["alpha"], p["beta"], abs(_c(p["w"])))
        return _mc(_c(out["est"]), out["err"], ref, p["samples"])
    if kind in ("projection", "probe_projection"):
        z = [_c(v) for v in p["z"]]
        ref = (math.prod(v ** e for v, e in zip(z, p["monomial"])) if p["monomial"] is not None
               else projected_blowup(p["n"], p["blowup_m"], z))
        return _mc(_c(out["est"]), out["err"], ref, p["samples"])
    if kind == "pullback":
        err = math.hypot(out["src_err"], out["tgt_err"])
        ok, detail = _mc(out["src"], err, out["tgt"], 2 * p["samples"])
        return ok and min(out["src_err"], out["tgt_err"]) > 0, detail
    if kind in ("kernel_hartogs", "truncated"):
        tol = KERNEL_REL_TOL if kind == "kernel_hartogs" else 1e-10
        return out["finite"] and out["max_rel_err"] <= tol, {"max_rel_err": out["max_rel_err"]}
    if kind == "ratio":
        grid = np.linspace(p["r_min"], p["r_max"], p["points"])
        if p["which"] == "ball":
            refs = [ball_integral(p["k"], p["alpha"], r) for r in grid]
        else:
            refs = [disk_integral(p["alpha"], p["beta"], r) for r in grid]
        err = max(_rel(v, ref) for v, ref in zip(out["value"], refs))
        return out["ratio_ok"] and err <= SERIES_REL_TOL, {"series_rel_err": err}
    if kind == "schur":
        err = _schur_oracle(p, out)
        ok = out["finite"] and out["quad_route"] == (p["s"] is not None) and err <= SERIES_REL_TOL
        return ok, {"max_rel_err": err}
    if kind == "blowup":
        err = 0.0
        for m, norm, bound in zip(out["m"], out["norm"], out["bound"]):
            ref_norm, ref_bound = blowup_row(p["n"], p["k"], p["p"], m)
            err = max(err, _rel(norm, ref_norm), _rel(bound, ref_bound))
        return err <= TABLE_REL_TOL and len(out["m"]) == p["m_max"], {"max_rel_err": err}
    if kind == "cli":
        return check_cli(p, out)
    if kind == "mc_probe":
        return _mc(_c(out["est"]), out["err"], 0.5, p["samples"])
    if kind == "bounds":
        ok = all(0 < c <= d and math.isfinite(d) for c, d, _ in out.values())
        return ok, {"bracket_misses": bracket_misses(out)}
    if kind == "probe_pullback":
        return 0 < out["accepted"] <= out["proposed"], {}
    if kind == "sampling":
        return out["ok"], {}
    if kind == "domains":
        return out["inside"] == 1.0 and out["roundtrip_err"] < 1e-9, {}
    raise ValueError(f"no check for op kind {kind!r}")


def bracket_misses(bounds: dict) -> int:
    """Examples whose reported [c, d] does not contain the exact bracket,
    i.e. whose 'bound' is not a bound."""
    misses = 0
    for name, (c, d, _) in bounds.items():
        lo, hi = EXACT_BRACKETS[name]
        misses += c > lo * (1 + 1e-12) or d < hi * (1 - 1e-12)
    return misses


# --- CLI output against the matching in-process library call -----------------


def _lib():
    import hartogs.cli
    return hartogs.cli


def _close(got, want, rel=CLI_REL_TOL) -> bool:
    return _rel(got, want) <= rel


def _csv(text: str) -> list[list[float]]:
    rows = list(csv.reader(io.StringIO(text)))
    return [[float(x) for x in row] for row in rows[1:]]


def check_cli(p: dict, out: dict) -> tuple[bool, dict]:
    if out["code"] != 0:
        return False, {"error": f"exit {out['code']}: {out.get('stderr', '').strip()}"}
    try:
        return _check_cli(p, out["stdout"])
    except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        return False, {"error": f"unparseable output: {exc}"}


def _check_cli(p: dict, text: str) -> tuple[bool, dict]:
    cli = _lib()
    cfg = cli.NumericConfig
    sub = p["sub"]
    if sub == "kernel":
        got = _c([json.loads(text)["value"][key] for key in ("re", "im")])
        z = np.array([_c(v) for v in p["w"]])
        eta = np.array([_c(v) for v in p["eta"]])
        want = cli.kernel_hartogs(cli.HartogsDomainSpec.standard(2, 1), z, eta)
        ref = models.hartogs_kernel("standard", z[None], eta[None])[0]
        return _close(got, want) and _rel(want, ref) <= KERNEL_REL_TOL, {}
    if sub == "moments":
        data = json.loads(text)
        est, err = cli.sphere_moment_mc(p["k"], p["nu"], cfg(seed=p["seed"], mc_samples=p["samples"]))
        exact = sphere_moment(p["k"], p["nu"])
        ok, detail = _mc(est, err, exact, p["samples"])
        return (ok and _close(data["formula"], exact) and _close(data["mc_estimate"], est)
                and _close(data["std_error"], err)), detail
    if sub == "estimates":
        rows = _csv(text)
        grid = np.linspace(p["r_min"], p["r_max"], p["points"])
        params = {"alpha": p["alpha"]}
        params.update({"k": p["k"]} if p["which"] == "ball" else {"beta": p["beta"]})
        rep = cli.asymptotic_ratio_check(p["which"], params, grid)
        if p["which"] == "ball":
            refs = [ball_integral(p["k"], p["alpha"], r) for r in grid]
        else:
            refs = [disk_integral(p["alpha"], p["beta"], r) for r in grid]
        ok = len(rows) == len(grid) and all(
            _close(row[1], v) and _close(row[3], q) and _rel(v, ref) <= SERIES_REL_TOL
            for row, v, q, ref in zip(rows, rep.value, rep.ratio, refs))
        return ok, {}
    if sub == "schur-range":
        data = json.loads(text)
        low, high = admissible_range(p["n"])
        return _close(data["low"], low) and _close(data["high"], high), {}
    if sub == "schur-verify":
        summary = json.loads(text)["ratios_summary"]
        witness = cli.feasible_params(2, 1, p["p"])
        rep = cli.schur_verify(2, 1, p["p"], witness, cfg(seed=p["seed"]), samples=p["samples"])
        want = {"max": rep.max_ratio, "mean": rep.mean_ratio,
                "cond1_max": float(rep.cond1.max()), "cond2_max": float(rep.cond2.max())}
        return all(_close(summary[key], val) for key, val in want.items()), {}
    if sub == "blowup":
        rows = _csv(text)
        table = cli.blowup_demo(p["n"], p["k"], p["p"], range(1, p["m_max"] + 1))
        ok = len(rows) == p["m_max"]
        for row, norm, bound in zip(rows, table.norm, table.bound):
            ref_norm, ref_bound = blowup_row(p["n"], p["k"], p["p"], int(row[0]))
            ok &= _close(row[1], norm) and _close(row[2], bound)
            ok &= _rel(norm, ref_norm) <= TABLE_REL_TOL and _rel(bound, ref_bound) <= TABLE_REL_TOL
        return bool(ok), {}
    if sub == "transfer":
        data = json.loads(text)
        spec = cli.builtin_example(p["example"])
        c = cfg(seed=p["seed"], mc_samples=p["samples"])
        bounds = cli.jacobian_bounds(spec, c)
        exps = np.array(p["monomial"])
        rep = cli.pullback_isometry_check(spec, lambda pts: np.prod(pts ** exps, axis=-1), c)
        iso = data["isometry"]
        ok, detail = _mc(rep.source_value, math.hypot(rep.source_stderr, rep.target_stderr),
                         rep.target_value, 2 * p["samples"])
        exact_c, exact_d = EXACT_BRACKETS[p["example"]]
        return (ok and _close(bounds.c, exact_c) and _close(bounds.d, exact_d)
                and _close(data["bounds"]["c"], bounds.c) and _close(data["bounds"]["d"], bounds.d)
                and _close(data["transfer_factor"], cli.transfer_norm_bound(1.0, bounds, p["p"]))
                and _close(iso["source"]["value"], rep.source_value)
                and _close(iso["target"]["value"], rep.target_value)), detail
    if sub == "project":
        data = json.loads(text)
        z = np.array([_c(v) for v in p["point"]])
        exps = np.array(p["monomial"])
        spec = cli.HartogsDomainSpec.standard(p["n"], p["k"])
        est, err = cli.mc_bergman_projection(spec, lambda pts: np.prod(pts ** exps, axis=-1),
                                             z, p["samples"], p["seed"])
        expected = complex(np.prod(z ** exps))
        ok, detail = _mc(est, err, expected, p["samples"])
        got = _c([data["mc_estimate"][key] for key in ("re", "im")])
        return ok and _close(got, est) and _close(data["std_error"], err), detail
    raise ValueError(f"unknown subcommand {sub!r}")
