"""Command-line front end: every experiment as a reproducible subcommand.

Subcommands: kernel, moments, estimates, schur-range, schur-verify, blowup,
transfer, project. All floating-point output is fixed at 12 significant
digits and every stochastic run is seeded, so identical invocations produce
byte-identical output. Exit codes: 0 success, 1 numerical non-convergence,
2 invalid arguments.

The package needs numpy alone, so every subcommand starts from the same
import floor (the interpreter, numpy and the package).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

import numpy as np

from . import mc
from .config import NumericConfig
from .counterexample import blowup_demo, blowup_eval, projected_blowup
from .domains import HartogsDomainSpec, MapFamily, product_model_contains
from .estimates import asymptotic_ratio_check, sphere_moment, sphere_moment_mc
from .kernels import (kernel_ball, kernel_hartogs, kernel_product,
                      kernel_punctured_disk, kernel_truncated,
                      mc_bergman_projection, monomial_norm_sq_ball)
from .schur import SchurWitness, admissible_p_range, feasible_params, schur_verify
from .special import NonConvergenceError, monomial
from .transfer import jacobian_bounds, pullback_isometry_check, transfer_norm_bound


def _g12(x: float) -> str:
    return format(float(x), ".12g")


def render_json(obj, indent: int = 0) -> str:
    """JSON with floats fixed at 12 significant digits (stable output bytes).

    Raises ValueError on NaN or infinity, which JSON cannot represent.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{key}": {render_json(val, indent + 1)}'
                 for key, val in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{render_json(val, indent + 1)}" for val in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"cannot write the non-finite number {obj} as JSON")
        return _g12(obj)
    if obj is None:
        return "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _complex_json(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def _sigmas(est, expected, err: float) -> float:
    """|est - expected| in standard errors. A zero error bar is 0 sigmas only
    for an exact match; otherwise it has collapsed (say, squared deviations
    that underflow), and no number of sigmas is meaningful."""
    if err > 0:
        return abs(est - expected) / err
    if est != expected:
        raise ValueError(f"the Monte-Carlo error bar is {err} but the estimate "
                         f"{est} differs from the expected {expected}")
    return 0.0


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([complex(part) for part in text.split(",")], dtype=complex)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex point {text!r}: {exc}") from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _load_spec(args) -> HartogsDomainSpec:
    if getattr(args, "spec", None):
        return HartogsDomainSpec.load(args.spec)
    if getattr(args, "example", None):
        return builtin_example(args.example)
    if args.n is None or args.k is None:
        raise ValueError("need --spec, --example, or both --n and --k")
    return HartogsDomainSpec.standard(args.n, args.k)


def builtin_example(name: str) -> HartogsDomainSpec:
    """Ready-made specs: a two-block affine domain and the rational-map domain."""
    if name == "affine4":
        return HartogsDomainSpec(4, (
            (1, MapFamily.affine([[2.0]], [-1.0])),
            (2, MapFamily.affine([[1.0, 0.5], [0.0, 1.0]])),
        ))
    if name == "rational3":
        return HartogsDomainSpec(3, ((2, MapFamily.rational_example()),))
    raise ValueError(f"unknown builtin example {name!r}")


def _write_output(args, text: str) -> None:
    if getattr(args, "output", None) and args.output != "-":
        with open(args.output, "w", encoding="utf-8", newline="") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# --- subcommand handlers --------------------------------------------------


def _require(inside: bool, model: str) -> None:
    if not inside:
        raise ValueError(f"kernel evaluated outside the {model} domain")


def cmd_kernel(args) -> str:
    out: dict = {"model": args.model}
    if args.model == "disk":
        w = complex(args.w)
        eta = complex(args.eta)
        _require(0.0 < abs(w) < 1.0 and 0.0 < abs(eta) < 1.0, "punctured disk")
        value = kernel_punctured_disk(w, eta)
        if args.truncated is not None:
            out["truncated"] = _complex_json(kernel_truncated("disk", args.truncated, w, eta))
    elif args.model == "ball":
        if args.k is None:
            raise ValueError("--k is required for the ball kernel")
        w = _parse_point(args.w)
        eta = _parse_point(args.eta)
        _require(np.linalg.norm(w) < 1.0 and np.linalg.norm(eta) < 1.0, "ball")
        value = kernel_ball(args.k, w, eta)
        if args.truncated is not None:
            out["truncated"] = _complex_json(
                kernel_truncated(("ball", args.k), args.truncated, w, eta))
    else:
        spec = _load_spec(args)
        w = _parse_point(args.w)
        eta = _parse_point(args.eta)
        if args.model == "product":
            _require(product_model_contains(spec, w) and product_model_contains(spec, eta),
                     "product")
            value = kernel_product(spec, w, eta)
            if args.truncated is not None:
                out["truncated"] = _complex_json(
                    kernel_truncated(("product", spec), args.truncated, w, eta))
        else:
            value = kernel_hartogs(spec, w, eta)
    out["value"] = _complex_json(complex(value))
    return render_json(out) + "\n"


def cmd_moments(args) -> str:
    nu = _parse_ints(args.nu)
    cfg = NumericConfig(seed=args.seed, mc_samples=args.mc_samples, workers=args.workers)
    formula = sphere_moment(args.k, nu)
    est, err = sphere_moment_mc(args.k, nu, cfg)
    out = {
        "k": args.k,
        "nu": list(nu),
        "formula": formula,
        "mc_estimate": est,
        "std_error": err,
        "sigmas": _sigmas(est, formula, err),
    }
    if args.ball_norm:
        out["ball_norm_sq"] = monomial_norm_sq_ball(args.k, nu)
    return render_json(out) + "\n"


def cmd_estimates(args) -> str:
    for option, value in (("--r-min", args.r_min), ("--r-max", args.r_max)):
        if not math.isfinite(value):
            raise ValueError(f"{option} must be finite, got {value}")
    grid = np.linspace(args.r_min, args.r_max, args.grid_points)
    params = {"alpha": args.alpha}
    if args.which == "ball":
        params["k"] = args.k
    else:
        params["beta"] = args.beta
    report = asymptotic_ratio_check(args.which, params, grid)
    if not args.refined:
        return report.to_csv()
    if args.which != "disk" or args.beta > 0.0:
        raise ValueError("refined envelope requires the disk family with beta <= 0")
    if report.refined is None:
        raise ValueError("refined envelope r^beta is undefined at the grid point r = 0; "
                         "give --r-min > 0")
    return report.refined.to_csv()


def cmd_schur_range(args) -> str:
    low, high = admissible_p_range(args.n)
    return render_json({"low": low, "high": high}) + "\n"


def cmd_schur_verify(args) -> str:
    witness = feasible_params(args.n, args.k, args.p)
    if args.witness_s is not None or args.witness_t is not None:
        if args.witness_s is None or args.witness_t is None:
            raise ValueError("--witness-s and --witness-t must be given together")
        t_values = [float(x) for x in args.witness_t.split(",")]
        if len(t_values) != args.n - args.k:
            raise ValueError(f"--witness-t needs {args.n - args.k} values")
        witness = SchurWitness(args.witness_s,
                               dict(zip(range(args.k + 1, args.n + 1), t_values)))
    if witness is None:
        return render_json({"p": args.p, "feasible": False, "witness": None}) + "\n"
    cfg = NumericConfig(seed=args.seed)
    blocks = _parse_ints(args.blocks) if args.blocks else None
    report = schur_verify(args.n, args.k, args.p, witness, cfg, blocks=blocks,
                          samples=args.samples,
                          boundary_margin=args.boundary_margin,
                          puncture_margin=args.puncture_margin)
    out = {"feasible": True}
    out.update(report.to_json_dict())
    return render_json(out) + "\n"


def cmd_blowup(args) -> str:
    if args.m_list:
        m_values = list(_parse_ints(args.m_list))
    else:
        m_values = list(range(1, args.m_max + 1))
    k = args.k if args.k is not None else args.n - 1
    table = blowup_demo(args.n, k, args.p, m_values)
    return table.to_csv()


def cmd_transfer(args) -> str:
    spec = _load_spec(args)
    cfg = NumericConfig(seed=args.seed, mc_samples=args.samples)
    bounds = jacobian_bounds(spec, cfg)
    out = {
        "bounds": bounds.to_json_dict(),
        "p": args.p,
        "constant": args.constant,
        "transfer_factor": transfer_norm_bound(args.constant, bounds, args.p),
    }
    if args.isometry_monomial is not None:
        exps = np.array(_parse_ints(args.isometry_monomial))
        if exps.size != spec.n:
            raise ValueError(f"monomial needs {spec.n} exponents")

        def test_fn(pts: np.ndarray) -> np.ndarray:
            return monomial(pts, exps)

        report = pullback_isometry_check(spec, test_fn, cfg)
        out["isometry"] = report.to_json_dict()
    return render_json(out) + "\n"


def cmd_project(args) -> str:
    spec = HartogsDomainSpec.standard(args.n, args.k)
    z = _parse_point(args.point)
    if args.monomial is None and args.blowup_m is None:
        raise ValueError("need --monomial or --blowup-m")
    if args.blowup_m is not None:
        def f(pts):
            return blowup_eval(args.n, args.blowup_m, pts)
        expected = complex(projected_blowup(args.n, args.blowup_m, z))
        label = f"blowup_m={args.blowup_m}"
    else:
        exps = np.array(_parse_ints(args.monomial))
        if exps.size != args.n:
            raise ValueError(f"monomial needs {args.n} exponents")

        def f(pts):
            return monomial(pts, exps)
        expected = complex(monomial(z, exps))
        label = "monomial=" + args.monomial
    est, err = mc_bergman_projection(spec, f, z, args.samples, args.seed,
                                     workers=args.workers)
    out = {
        "function": label,
        "point": [_complex_json(v) for v in z],
        "expected": _complex_json(expected),
        "mc_estimate": _complex_json(est),
        "std_error": err,
        "sigmas": _sigmas(est, expected, err),
    }
    return render_json(out) + "\n"


# --- parser ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads any token starting with a negative number,
    such as the point "-0.3,0.1" or the list "-3.0,-3.0", as an option value.

    Stock argparse only recognizes a lone number like "-2.0", and rejects
    `--w -0.3,0.1` with "expected one argument". No option name here starts
    with a digit, so the wider pattern shadows none of them.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _int_at_least(text: str, low: int, kind: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of the count options (samples, grid points, workers)."""
    return _int_at_least(text, 1, "positive")


def _seed(text: str) -> int:
    """argparse type of --seed: numpy seeds with non-negative integers only."""
    return _int_at_least(text, 0, "non-negative")


def _env_seed() -> int:
    """The default seed: HARTOGS_SEED if set, else 12345."""
    text = os.environ.get("HARTOGS_SEED", "12345")
    try:
        return _seed(text)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"environment variable HARTOGS_SEED: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hartogs",
        description="Bergman kernels, sharp projection windows, and blow-up "
                    "sequences on generalized Hartogs domains.")
    sub = parser.add_subparsers(dest="command", required=True)
    default_seed = _env_seed()

    def add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
        p.add_argument("--output", default="-", help="output path (default stdout)")
        if seed:
            p.add_argument("--seed", type=_seed, default=default_seed,
                           help="RNG seed (default from HARTOGS_SEED or 12345)")

    p = sub.add_parser("kernel", help="evaluate a closed-form or truncated kernel")
    p.add_argument("--model", required=True, choices=["disk", "ball", "product", "hartogs"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--spec", help="domain spec JSON file")
    p.add_argument("--example", choices=["affine4", "rational3"])
    p.add_argument("--w", required=True, help="first point, comma-separated complex")
    p.add_argument("--eta", required=True, help="second point")
    p.add_argument("--truncated", type=int, help="also evaluate the degree-N truncation")
    add_common(p, seed=False)
    p.set_defaults(handler=cmd_kernel)

    p = sub.add_parser("moments", help="sphere moment: closed form vs Monte Carlo")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nu", required=True, help="multi-index, e.g. 1,1")
    p.add_argument("--mc-samples", type=_positive_int, default=1_000_000)
    p.add_argument("--workers", type=_positive_int, default=mc.WORKERS,
                   help="worker threads (default: mc.WORKERS, the CPUs this "
                        "process may run on: %(default)s)")
    p.add_argument("--ball-norm", action="store_true",
                   help="include the ball monomial squared norm")
    add_common(p)
    p.set_defaults(handler=cmd_moments)

    p = sub.add_parser("estimates",
                       help="weighted ball/disk integral vs its boundary envelope (CSV)")
    p.add_argument("--which", required=True, choices=["ball", "disk"])
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=0.999)
    p.add_argument("--grid-points", type=_positive_int, default=200)
    p.add_argument("--refined", action="store_true",
                   help="emit the refined envelope ratio (disk, beta <= 0)")
    add_common(p, seed=False)
    p.set_defaults(handler=cmd_estimates)

    p = sub.add_parser("schur-range", help="sharp L^p boundedness window")
    p.add_argument("--n", type=int, required=True)
    add_common(p, seed=False)
    p.set_defaults(handler=cmd_schur_range)

    p = sub.add_parser("schur-verify",
                       help="sample both Schur-condition ratios for a witness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--blocks", help="block dimensions, e.g. 1,1 (default: single block)")
    p.add_argument("--samples", type=_positive_int, default=400)
    p.add_argument("--boundary-margin", type=float, default=0.01)
    p.add_argument("--puncture-margin", type=float, default=0.01)
    p.add_argument("--witness-s", type=float, help="override the weight exponent s")
    p.add_argument("--witness-t", help="override chain exponents, comma-separated")
    add_common(p)
    p.set_defaults(handler=cmd_schur_verify)

    p = sub.add_parser("blowup", help="norms vs projection bounds along the blow-up sequence (CSV)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--m-max", type=_positive_int, default=100)
    p.add_argument("--m-list", help="explicit m values, e.g. 1,10,100")
    add_common(p, seed=False)
    p.set_defaults(handler=cmd_blowup)

    p = sub.add_parser("transfer", help="Jacobian bounds and the transferred norm factor")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--spec", help="domain spec JSON file")
    p.add_argument("--example", choices=["affine4", "rational3"])
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--constant", type=float, default=1.0)
    p.add_argument("--samples", type=_positive_int, default=100_000)
    p.add_argument("--isometry-monomial",
                   help="run the pullback isometry check on this monomial")
    add_common(p)
    p.set_defaults(handler=cmd_transfer)

    p = sub.add_parser("project", help="Monte-Carlo Bergman projection at a point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--point", required=True, help="evaluation point")
    p.add_argument("--monomial", help="project this monomial (exponent list)")
    p.add_argument("--blowup-m", type=int, help="project the m-th blow-up function")
    p.add_argument("--samples", type=_positive_int, default=200_000)
    p.add_argument("--workers", type=_positive_int, default=mc.WORKERS,
                   help="worker threads (default: mc.WORKERS, the CPUs this "
                        "process may run on: %(default)s)")
    add_common(p)
    p.set_defaults(handler=cmd_project)

    return parser


def run(argv=None) -> int:
    try:
        parser = build_parser()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text = args.handler(args)
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_output(args, text)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
