"""Seeded inputs for the benchmark workloads.

Every input the library sees is drawn here from the workload seed: radii,
weight exponents, points, monomials and the library's own Monte-Carlo seeds.
Which ops run, and how large each is, is fixed per workload, so the cost of a
run does not depend on the seed. Ops are plain JSON so that the parent can
hand them to a fresh pass process (`passrun.py`) and check its results.

An op is {"id": str, "kind": str, "p": {...}}; complex numbers travel as
[re, im] pairs. Bulk point sets (kernel pairs) travel as a generator seed and
are materialized by models.py inside the pass process.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("cli-cold", "monte-carlo", "series-edge")

# End-to-end and per-layer metrics each workload is predicted to move.
MOVERS = {
    "cli-cold": ["setup_s", "wall_s", "cli_p50_s", "cli_tail_s", "cli.import_s",
                 "cli.modules_loaded", "cli.scipy_loaded", "cli.run_s",
                 "estimates.series_s_per_eval_interior (estimates subcommand)"],
    "monte-carlo": ["wall_s", "mc_samples_per_s", "mc_tts_s", "sampling.*_points_per_s",
                    "domains.*_points_per_s", "kernels.hartogs_pairs_per_s",
                    "kernels.projection_samples_per_s", "mc.chunks", "mc.reduce_s_per_chunk",
                    "estimates.mc_samples_per_s", "transfer.pullback_samples_per_s",
                    "transfer.box_accept_ratio"],
    "series-edge": ["wall_s", "series_evals_per_s", "series_max_rel_err",
                    "estimates.series_evals", "estimates.series_s_per_eval_interior",
                    "estimates.series_s_per_eval_edge", "estimates.quad_evals",
                    "estimates.quad_s_per_eval", "schur.verify_points_per_s",
                    "schur.quad_route_points_per_s", "counterexample.blowup_rows_per_s",
                    "kernels.truncated_s"],
}

MC_CHUNK = 1 << 15  # the library's default chunk size (NumericConfig.chunk_size)

CLI_SUBCOMMANDS = ("kernel", "moments", "estimates", "schur-range", "schur-verify",
                   "blowup", "transfer", "project")


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _ctext(z: complex) -> str:
    return f"{float(z.real)!r}{float(z.imag):+}j"


def _seed(rng) -> int:
    return int(rng.integers(1, 2**31 - 1))


def _phase(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.random()))


def hartogs_point(rng, n: int, k: int) -> list[complex]:
    """A point of the standard (single-block) domain, kept off its boundary:
    |z_block| < |z_{k+1}| < ... < |z_n| < 1 with relative gaps of at least 10%."""
    chain = np.sort(rng.uniform(0.3, 0.9, n - k))
    for i in range(1, chain.size):
        chain[i] = max(chain[i], chain[i - 1] * 1.1)
    chain = np.minimum(chain, 0.95)
    head = rng.normal(size=k) + 1j * rng.normal(size=k)
    head *= rng.uniform(0.1, 0.8) * chain[0] / np.linalg.norm(head)
    return list(head) + [m * _phase(rng) for m in chain]


def _op(op_id: str, kind: str, **params) -> dict:
    return {"id": op_id, "kind": kind, "p": params}


# --- cli-cold ---------------------------------------------------------------


def cli_ops(seed: int, index: int) -> list[dict]:
    """The 8 subcommands with small inputs, in seeded order, for pass `index`.

    Negative values always use the `--opt=value` form: argparse reads a
    separate leading-minus value as an option.
    """
    rng = np.random.default_rng([seed, 1, index])
    ops = {}

    z, eta = hartogs_point(rng, 2, 1), hartogs_point(rng, 2, 1)
    ops["kernel"] = _op("cli.kernel", "cli", sub="kernel", n=2, k=1,
                        w=[_pair(v) for v in z], eta=[_pair(v) for v in eta], argv=[
                            "kernel", "--model", "hartogs", "--n", "2", "--k", "1",
                            "--w=" + ",".join(map(_ctext, z)),
                            "--eta=" + ",".join(map(_ctext, eta))])

    nu = [int(v) for v in rng.integers(0, 3, 2)]
    s = _seed(rng)
    ops["moments"] = _op("cli.moments", "cli", sub="moments", k=2, nu=nu, samples=20_000,
                         seed=s, argv=["moments", "--k", "2", "--nu", ",".join(map(str, nu)),
                                       "--mc-samples", "20000", "--seed", str(s)])

    which = "ball" if rng.random() < 0.5 else "disk"
    alpha = float(rng.uniform(-0.8, -0.2))
    k = int(rng.integers(1, 4))
    beta = float(rng.uniform(-1.5, 1.0))
    r_min = 0.0 if which == "ball" else 0.01
    argv = ["estimates", "--which", which, f"--alpha={alpha!r}", "--grid-points", "25",
            "--r-max", "0.99", f"--r-min={r_min!r}"]
    argv += ["--k", str(k)] if which == "ball" else [f"--beta={beta!r}"]
    ops["estimates"] = _op("cli.estimates", "cli", sub="estimates", which=which, k=k,
                           alpha=alpha, beta=beta, r_min=r_min, r_max=0.99, points=25,
                           argv=argv)

    n = int(rng.integers(2, 9))
    ops["schur-range"] = _op("cli.schur-range", "cli", sub="schur-range", n=n,
                             argv=["schur-range", "--n", str(n)])

    p = float(rng.uniform(1.5, 3.5))
    s = _seed(rng)
    ops["schur-verify"] = _op("cli.schur-verify", "cli", sub="schur-verify", n=2, k=1, p=p,
                              samples=40, seed=s,
                              argv=["schur-verify", "--n", "2", "--k", "1", f"--p={p!r}",
                                    "--samples", "40", "--seed", str(s)])

    n = int(rng.integers(2, 4))
    p = float(1.0 + rng.random() * (2.0 * n / (n + 1.0) - 1.0))
    ops["blowup"] = _op("cli.blowup", "cli", sub="blowup", n=n, k=n - 1, p=p, m_max=30,
                        argv=["blowup", "--n", str(n), f"--p={p!r}", "--m-max", "30"])

    p = float(rng.uniform(1.2, 4.0))
    mono = [int(v) for v in rng.integers(0, 2, 4)]
    s = _seed(rng)
    ops["transfer"] = _op("cli.transfer", "cli", sub="transfer", example="affine4", p=p,
                          samples=20_000, seed=s, monomial=mono,
                          argv=["transfer", "--example", "affine4", f"--p={p!r}",
                                "--samples", "20000", "--seed", str(s),
                                "--isometry-monomial", ",".join(map(str, mono))])

    z = hartogs_point(rng, 2, 1)
    mono = [int(v) for v in rng.integers(0, 3, 2)]
    s = _seed(rng)
    ops["project"] = _op("cli.project", "cli", sub="project", n=2, k=1,
                         point=[_pair(v) for v in z], monomial=mono, samples=20_000, seed=s,
                         argv=["project", "--n", "2", "--k", "1",
                               "--point=" + ",".join(map(_ctext, z)),
                               "--monomial", ",".join(map(str, mono)),
                               "--samples", "20000", "--seed", str(s)])

    order = rng.permutation(len(CLI_SUBCOMMANDS))
    return [ops[CLI_SUBCOMMANDS[i]] for i in order]


# --- monte-carlo -------------------------------------------------------------


def monte_carlo_ops(seed: int, samples: int = 1_000_000, pairs: int = 300_000) -> list[dict]:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for n in (2, 3):
        z = hartogs_point(rng, n, 1)
        mono = [int(v) for v in rng.integers(0, 3, n)]
        ops.append(_op(f"projection.monomial.n{n}", "projection", n=n, k=1,
                       z=[_pair(v) for v in z], monomial=mono, blowup_m=None,
                       samples=samples, seed=_seed(rng)))
    for n in (2, 3):
        z = hartogs_point(rng, n, 1)
        ops.append(_op(f"projection.blowup.n{n}", "projection", n=n, k=1,
                       z=[_pair(v) for v in z], monomial=None,
                       blowup_m=int(rng.integers(1, 4)), samples=samples, seed=_seed(rng)))
    for k in (1, 2, 3):
        ops.append(_op(f"sphere_mc.k{k}", "sphere_mc", k=k,
                       nu=[int(v) for v in rng.integers(0, 3, k)],
                       samples=samples, seed=_seed(rng)))
    for k in (1, 2, 3):
        # alpha stays near -0.55: betaincinv has fast special cases at
        # half-integers, so an unrestricted draw would make the cost seed-dependent
        alpha = float(-0.55 + rng.uniform(-0.02, 0.02))
        w = rng.normal(size=k) + 1j * rng.normal(size=k)
        w *= rng.uniform(0.3, 0.7) / np.linalg.norm(w)
        ops.append(_op(f"ball_mc.k{k}", "ball_mc", k=k, alpha=alpha,
                       w=[_pair(v) for v in w], samples=samples, seed=_seed(rng)))
    ops.append(_op("disk_mc", "disk_mc", alpha=float(-0.55 + rng.uniform(-0.02, 0.02)),
                   beta=float(-1.1 + rng.uniform(-0.02, 0.02)),
                   w=_pair(rng.uniform(0.3, 0.7) * _phase(rng)),
                   samples=samples, seed=_seed(rng)))
    for example, n in (("affine4", 4), ("rational3", 3)):
        ops.append(_op(f"pullback.{example}", "pullback", example=example,
                       monomial=[int(v) for v in rng.integers(0, 2, n)],
                       samples=samples, seed=_seed(rng)))
    for spec in ("standard", "affine4", "rational3"):
        ops.append(_op(f"kernel_hartogs.{spec}", "kernel_hartogs", spec=spec,
                       pairs=pairs, seed=_seed(rng)))
    return ops


# --- series-edge -------------------------------------------------------------


def series_edge_ops(seed: int, grid: int = 1000, max_samples: int = 4000) -> list[dict]:
    rng = np.random.default_rng([seed, 3])
    # Exponents jitter narrowly around fixed centres: the number of series
    # terms, hence the cost, depends on them, and run cost must not depend
    # on the seed.
    jitter = 0.02
    ops = []
    for k, alpha in ((1, -0.75), (2, -0.5), (3, -0.3), (5, -0.6)):
        ops.append(_op(f"ratio.ball.k{k}", "ratio", which="ball", k=k,
                       alpha=float(alpha + rng.uniform(-jitter, jitter)), beta=None,
                       r_min=float(rng.uniform(0.0, 0.05)), r_max=0.9999, points=grid))
    for i, alpha in enumerate((-0.7, -0.3)):
        for j, beta in enumerate((-1.0, 0.5)):
            ops.append(_op(f"ratio.disk.{i}{j}", "ratio", which="disk", k=None,
                           alpha=float(alpha + rng.uniform(-jitter, jitter)),
                           beta=float(beta + rng.uniform(-jitter, jitter)),
                           r_min=float(rng.uniform(0.01, 0.05)), r_max=0.9999, points=grid))
    for n, k, samples in ((2, 1, 4000), (3, 1, 2000), (4, 2, 2000), (5, 2, 2000)):
        low, high = 2.0 * n / (n + 1.0), 2.0 * n / (n - 1.0)
        p = float(low + (high - low) * rng.uniform(0.5 - jitter, 0.5 + jitter))
        ops.append(_op(f"schur.n{n}k{k}", "schur", n=n, k=k, p=p, s=None, t=None,
                       samples=min(samples, max_samples), seed=_seed(rng)))
    # out-of-window witness: beta = 2t + 1 <= -2 makes the chain factor divergent,
    # so schur_verify takes the truncated radial quadrature route
    ops.append(_op("schur.quad_route", "schur", n=2, k=1, p=2.0,
                   s=float(-0.25 + rng.uniform(-jitter, jitter)),
                   t=[float(-2.0 + rng.uniform(-jitter, jitter))],
                   samples=min(1000, max_samples), seed=_seed(rng)))
    for n in (2, 3):
        ops.append(_op(f"blowup.n{n}", "blowup", n=n, k=n - 1, p=2.0 * n / (n + 1.0),
                       m_max=120))
    ops.append(_op("truncated.product", "truncated", model="product", n=3, k=1,
                   degree=60, pairs=1000, seed=_seed(rng)))
    ops.append(_op("truncated.ball", "truncated", model="ball", n=None, k=2,
                   degree=60, pairs=1000, seed=_seed(rng)))
    return ops


# --- traced run only ---------------------------------------------------------


def probe_ops(ops: list[dict]) -> list[dict]:
    """Decomposition probes: the separate public calls a composite op makes,
    on the same inputs, so each layer's share of it shows in the trace."""
    kinds = {"projection": "probe_projection", "pullback": "probe_pullback"}
    return [{"id": "probe." + op["id"], "kind": kinds[op["kind"]], "p": op["p"]}
            for op in ops if op["kind"] in kinds]


def census_ops(seed: int) -> list[dict]:
    """Small calls into every layer, so that every per-layer metric is defined
    on every workload; they run in their own fresh traced process."""
    rng = np.random.default_rng([seed, 4])
    small = 1 << 16
    ops = [_op("sampling", "sampling", count=small, seed=_seed(rng)),
           _op("domains", "domains", n=3, k=1, count=small, seed=_seed(rng)),
           _op("mc.w1", "mc_probe", workers=1, samples=1 << 20, chunk=MC_CHUNK, seed=_seed(rng)),
           _op("mc.w2", "mc_probe", workers=2, samples=1 << 20, chunk=MC_CHUNK, seed=_seed(rng)),
           _op("bounds", "bounds", seed=_seed(rng))]
    ops += monte_carlo_ops(_seed(rng), samples=small, pairs=small)
    ops += series_edge_ops(_seed(rng), grid=50, max_samples=100)
    ops += probe_ops(ops)
    ops += cli_ops(seed, 0)
    return [dict(op, id="census." + op["id"]) for op in ops]


def integral_evals(op: dict) -> int:
    """Radius-point integral evaluations an op makes: one per grid point, and
    per Schur sample one per block and chain factor for each of the two
    conditions."""
    p = op["p"]
    if op["kind"] == "ratio":
        return p["points"]
    return 2 * p["samples"] * (1 + p["n"] - p["k"])


def ops_for(workload: str, seed: int) -> list[dict]:
    """The ops of one pass (cli-cold varies its inputs per pass; see cli_ops)."""
    if workload == "monte-carlo":
        return monte_carlo_ops(seed)
    if workload == "series-edge":
        return series_edge_ops(seed)
    raise ValueError(f"no fixed op list for {workload!r}")
