"""Command-line front end: every experiment as a reproducible subcommand.

Subcommands: kernel, moments, estimates, schur-range, schur-verify, blowup,
transfer, project. The numerical modules return data; this module alone
renders stdout, by `render_json` for records and `render_csv` for tables,
with one scalar rule: integers as integers, floats at 12 significant digits,
and no NaN or infinity. Every stochastic run is seeded, so identical
invocations produce byte-identical output. Exit codes: 0 success, 2 invalid
arguments (among them a 2F1 parameter c above the cap of `special.hyp2f1`
and results that are not finite); no subcommand sums a series to a
tolerance, so none exits 1.

The package needs numpy alone, and each subcommand loads only the package
modules it runs: at import this module loads `config` alone, a leaf without
numpy that holds the `--workers` default, and each handler imports what it
calls, numpy included, in the branch that calls it. So `--help`,
`schur-range` and every argument error finish without importing numpy.
Eleven library names, such as `hartogs.cli.kernel_hartogs`, still read as
their home modules' objects (see `__getattr__`); every other library name
is read from its home module.
"""

from __future__ import annotations

import argparse
import math
import numbers
import os
import re
import sys

from . import config
from .config import NumericConfig


def __getattr__(name: str):
    """Library names read through this module, such as
    `hartogs.cli.kernel_hartogs`: the eleven that `perfbench/oracles.py`
    reads, each its home module's object, imported on access (PEP 562), so
    importing this module loads none of them. Nothing is cached, so a name
    replaced in its home module reads replaced here."""
    if name == "blowup_demo":
        from . import counterexample as home
    elif name == "HartogsDomainSpec":
        from . import domains as home
    elif name in ("asymptotic_ratio_check", "sphere_moment_mc"):
        from . import estimates as home
    elif name in ("kernel_hartogs", "mc_bergman_projection"):
        from . import kernels as home
    elif name in ("feasible_params", "schur_verify"):
        from . import schur as home
    elif name in ("jacobian_bounds", "pullback_isometry_check", "transfer_norm_bound"):
        from . import transfer as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(home, name)


def _number(x, form: str) -> str:
    """The one scalar rule of stdout: integers as integers, floats at 12
    significant digits. NaN and infinity raise ValueError: neither a JSON
    record nor a numeric table can hold them. numpy registers its integer
    and floating scalars as `numbers.Integral` and `numbers.Real`."""
    if isinstance(x, numbers.Integral):
        return str(int(x))
    if not math.isfinite(x):
        raise ValueError(f"cannot write the non-finite number {x} as {form}")
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
    if isinstance(obj, (list, tuple)) or _is_array(obj):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{render_json(val, indent + 1)}" for val in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, numbers.Real):
        return _number(obj, "JSON")
    if obj is None:
        return "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _is_array(obj) -> bool:
    """Whether obj is a numpy array; none exists before numpy is imported,
    so this imports nothing."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(obj, np.ndarray)


def render_csv(header, *columns) -> str:
    """A header line, then a line per row of the numeric columns, cells by the
    scalar rule of `render_json`; numbers hold no comma or quote to escape."""
    rows = [",".join(header)]
    rows += [",".join(_number(x, "CSV") for x in row) for row in zip(*columns)]
    return "\n".join(rows) + "\n"


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


def _parse_list(text: str, option: str, parse=int) -> tuple:
    """The comma-separated values of `option`, each read by `parse`; errors name the option."""
    try:
        return tuple(parse(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{option}: cannot parse {text!r}: {exc}") from None


def _load_spec(args) -> HartogsDomainSpec:
    from .domains import HartogsDomainSpec
    if getattr(args, "spec", None):
        return HartogsDomainSpec.load(args.spec)
    if getattr(args, "example", None):
        return builtin_example(args.example)
    if args.n is None or args.k is None:
        raise ValueError("need --spec, --example, or both --n and --k")
    return HartogsDomainSpec.standard(args.n, args.k)


def builtin_example(name: str) -> HartogsDomainSpec:
    """Ready-made specs: a two-block affine domain and the rational-map domain."""
    from .domains import HartogsDomainSpec, MapFamily
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
    import numpy as np

    from .kernels import (kernel_ball, kernel_hartogs, kernel_product, kernel_punctured_disk,
                          kernel_truncated)
    out: dict = {"model": args.model}
    if args.model == "ball" and args.k is None:
        raise ValueError("--k is required for the ball kernel")
    if args.model == "ball" and args.k < 1:
        raise ValueError(f"--k: the ball model needs k >= 1: got {args.k}")
    spec = _load_spec(args) if args.model in ("product", "hartogs") else None
    w = np.array(_parse_list(args.w, "--w", complex))
    eta = np.array(_parse_list(args.eta, "--eta", complex))
    dim = {"disk": 1, "ball": args.k}[args.model] if spec is None else spec.n
    for option, point in (("--w", w), ("--eta", eta)):
        if point.size != dim:
            numbers = "one complex number" if dim == 1 else f"{dim} complex numbers"
            raise ValueError(f"{option}: the {args.model} model takes {numbers}: "
                             f"got {point.size}")
    if args.model == "disk":
        w, eta = complex(w[0]), complex(eta[0])
        _require(0.0 < abs(w) < 1.0 and 0.0 < abs(eta) < 1.0, "punctured disk")
        value = kernel_punctured_disk(w, eta)
        model = "disk"
    elif args.model == "ball":
        _require(np.linalg.norm(w) < 1.0 and np.linalg.norm(eta) < 1.0, "ball")
        value = kernel_ball(args.k, w, eta)
        model = ("ball", args.k)
    elif args.model == "product":
        from .domains import product_model_contains
        _require(product_model_contains(spec, w) and product_model_contains(spec, eta),
                 "product")
        value = kernel_product(spec, w, eta)
        model = ("product", spec)
    elif args.truncated is not None:
        raise ValueError("--truncated serves the disk, ball and product models, "
                         "not the hartogs model")
    else:
        value = kernel_hartogs(spec, w, eta)
    if args.truncated is not None:
        out["truncated"] = _complex_json(kernel_truncated(model, args.truncated, w, eta))
    out["value"] = _complex_json(complex(value))
    return render_json(out) + "\n"


def cmd_moments(args) -> str:
    from .estimates import sphere_moment, sphere_moment_mc
    nu = _parse_list(args.nu, "--nu")
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
        from .kernels import monomial_norm_sq_ball
        out["ball_norm_sq"] = monomial_norm_sq_ball(args.k, nu)
    return render_json(out) + "\n"


def cmd_estimates(args) -> str:
    import numpy as np

    from .estimates import asymptotic_ratio_check
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
    if args.refined:
        if args.which != "disk" or args.beta > 0.0:
            raise ValueError("refined envelope requires the disk family with beta <= 0")
        if report.refined is None:
            raise ValueError("refined envelope r^beta is undefined at the grid point r = 0; "
                             "give --r-min > 0")
        report = report.refined
        overflow = ~np.isfinite(report.envelope)
        if np.any(overflow):
            raise ValueError(f"the refined envelope (1-r^2)^alpha r^beta overflows at "
                             f"r = {grid[overflow][0]:.6g} (beta = {args.beta:.6g})")
    return render_csv(("r", "value", "envelope", "ratio"),
                      report.r, report.value, report.envelope, report.ratio)


def cmd_schur_range(args) -> str:
    from .schur import admissible_p_range
    low, high = admissible_p_range(args.n)
    return render_json({"low": low, "high": high}) + "\n"


def cmd_schur_verify(args) -> str:
    from .schur import SchurWitness, feasible_params, schur_verify
    witness = feasible_params(args.n, args.k, args.p)
    if args.witness_s is not None or args.witness_t is not None:
        if args.witness_s is None or args.witness_t is None:
            raise ValueError("--witness-s and --witness-t must be given together")
        t_values = _parse_list(args.witness_t, "--witness-t", float)
        if len(t_values) != args.n - args.k:
            raise ValueError(f"--witness-t needs {args.n - args.k} values")
        witness = SchurWitness(args.witness_s,
                               dict(zip(range(args.k + 1, args.n + 1), t_values)))
    if witness is None:
        return render_json({"p": args.p, "feasible": False, "witness": None}) + "\n"
    cfg = NumericConfig(seed=args.seed)
    blocks = _parse_list(args.blocks, "--blocks") if args.blocks is not None else None
    report = schur_verify(args.n, args.k, args.p, witness, cfg, blocks=blocks,
                          samples=args.samples,
                          boundary_margin=args.boundary_margin,
                          puncture_margin=args.puncture_margin)
    return render_json({
        "feasible": True, "p": report.p, "q": report.q,
        "witness": {"s": witness.s, "t": {str(j): v for j, v in sorted(witness.t.items())}},
        "ratios_summary": {"max": report.max_ratio, "mean": report.mean_ratio,
                           "cond1_max": report.cond1.max(), "cond2_max": report.cond2.max()},
        "samples": report.samples, "notes": report.notes}) + "\n"


def cmd_blowup(args) -> str:
    from .counterexample import blowup_demo
    if args.m_list is not None:
        m_values = list(_parse_list(args.m_list, "--m-list"))
    else:
        m_values = list(range(1, args.m_max + 1))
    k = args.k if args.k is not None else args.n - 1
    table = blowup_demo(args.n, k, args.p, m_values)
    return render_csv(("m", "norm_fm", "proj_lower_bound", "ratio"),
                      table.m, table.norm, table.bound, table.ratio)


def cmd_transfer(args) -> str:
    from .transfer import jacobian_bounds, pullback_isometry_check, transfer_norm_bound
    spec = _load_spec(args)
    cfg = NumericConfig(seed=args.seed, mc_samples=args.samples)
    bounds = jacobian_bounds(spec, cfg)
    out = {
        "bounds": {"c": bounds.c, "d": bounds.d, "method": bounds.method},
        "p": args.p,
        "constant": args.constant,
        "transfer_factor": transfer_norm_bound(args.constant, bounds, args.p),
    }
    if args.isometry_monomial is not None:
        from .kernels import check_bergman_monomial
        from .special import monomial
        exps = _parse_list(args.isometry_monomial, "--isometry-monomial")
        check_bergman_monomial(spec.n, spec.k, exps)

        def test_fn(pts):
            return monomial(pts, exps)

        report = pullback_isometry_check(spec, test_fn, cfg)
        out["isometry"] = {
            "source": {"value": report.source_value, "stderr": report.source_stderr},
            "target": {"value": report.target_value, "stderr": report.target_stderr},
            "sigma_distance": report.sigma_distance}
    return render_json(out) + "\n"


def cmd_project(args) -> str:
    import numpy as np

    from .domains import HartogsDomainSpec
    from .kernels import mc_bergman_projection
    spec = HartogsDomainSpec.standard(args.n, args.k)
    z = np.array(_parse_list(args.point, "--point", complex))
    if args.monomial is None and args.blowup_m is None:
        raise ValueError("need --monomial or --blowup-m")
    if args.blowup_m is not None:
        from .counterexample import blowup_eval, projected_blowup

        def f(pts):
            return blowup_eval(args.n, args.blowup_m, pts)

        def projected(pt):
            return projected_blowup(args.n, args.blowup_m, pt)
        label = f"blowup_m={args.blowup_m}"
    else:
        from .kernels import check_bergman_monomial
        from .special import monomial
        exps = _parse_list(args.monomial, "--monomial")
        check_bergman_monomial(args.n, args.k, exps)

        def f(pts):
            return monomial(pts, exps)
        projected = f  # P f = f on A^2
        label = "monomial=" + args.monomial
    est, err = mc_bergman_projection(spec, f, z, args.samples, args.seed,
                                     workers=args.workers)
    # only now: the projection has checked that z lies in the domain, where
    # the closed form has no zero divisor
    expected = complex(projected(z))
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
    # mc.WORKERS is config.WORKERS; reading it from config loads no numpy
    p.add_argument("--workers", type=_positive_int, default=config.WORKERS,
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
    p.add_argument("--blowup-m", type=_positive_int, help="project the m-th blow-up function")
    p.add_argument("--samples", type=_positive_int, default=200_000)
    p.add_argument("--workers", type=_positive_int, default=config.WORKERS,
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
    except (ValueError, ZeroDivisionError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_output(args, text)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
