"""Jacobian bounds for the blockwise map to the standard model and the norm
transfer they induce.

A projection-norm bound C on the standard model transfers to the mapped
domain (and back) at the price of c^-|p-2| d^|p-2|, where [c, d] brackets the
modulus of the map's holomorphic Jacobian determinant. Bounds are exact for
constant-Jacobian (identity/affine) specs and sampled otherwise; the method
tag records which. `pullback_isometry_check` verifies the underlying weighted
change of variables by integrating the same test function over both domains.
Per-factor steps read `HartogsDomainSpec.factors`, the list `domains` owns.

Its box-rejection estimator keeps a fixed draw layout (2n uniforms per
proposal, one disk point per coordinate) but computes angles only for
proposals that may be accepted. One angle-free pre-test on the squared
moduli picks the candidates: the chain order, and for every block a floor on
its image norm (`MapFamily.image_norm_sq_floor`) against |z_{k+1}|; on the
source side of the built-in examples it keeps about a quarter of the
proposals. One `polar_from_uniform` call over the pre-test's moduli builds a
side's candidate points. Each is mapped to the standard model once (the
all-identity standard side is its own image, not copied), and `contains`'s
membership body decides on that image. The accepted set and the estimate
are the ones a full `contains` over every proposal gives, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import mc, sampling
from .config import DEFAULT_CONFIG, NumericConfig
from .domains import (HartogsDomainSpec, _block_images, _block_jacobians,
                      _standard_contains, jacobian_det_to_standard)  # the last: re-exported


@dataclass(frozen=True)
class JacobianBounds:
    """Bracket 0 < c <= |det J| <= d with provenance tag "exact" or "sampled"."""

    c: float
    d: float
    method: str

    def __post_init__(self):
        if not 0.0 < self.c <= self.d:
            raise ValueError("need 0 < c <= d")


def jacobian_bounds(spec: HartogsDomainSpec,
                    cfg: NumericConfig = DEFAULT_CONFIG) -> JacobianBounds:
    """Per-block inf/sup of |det J|, multiplied across blocks.

    Constant-Jacobian blocks contribute exactly; other blocks are sampled
    (4096 ball points pulled back through the inverse map), tagging the
    result "sampled" = not certified.
    """
    c = d = 1.0
    exact = True
    for idx, (kj, fam) in enumerate(spec.blocks):
        if fam.constant_jacobian:
            mod = abs(complex(fam.jacobian_det(np.zeros(kj, dtype=complex))))
            c *= mod
            d *= mod
            continue
        exact = False
        rng = mc.chunk_rng(cfg.seed, idx)
        u = sampling.ball_points(rng, 4096, kj)
        mods = np.abs(fam.jacobian_det(fam.inverse(u)))
        c *= float(mods.min())
        d *= float(mods.max())
    return JacobianBounds(c, d, "exact" if exact else "sampled")


def transfer_norm_bound(constant: float, bounds: JacobianBounds, p: float) -> float:
    """The transferred bound C c^-|p-2| d^|p-2|; collapses to C at p = 2."""
    if not 0.0 < constant < math.inf:  # also false for NaN
        raise ValueError(f"the transferred constant must be finite and positive, got {constant}")
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")
    gap = abs(p - 2.0)
    try:
        factor = constant * bounds.c ** (-gap) * bounds.d ** gap
    except OverflowError:
        factor = math.inf
    if not factor < math.inf:
        raise ValueError(f"the transferred bound overflows at constant={constant}, p={p}")
    return factor


# --- weighted change-of-variables verification ---------------------------


@dataclass
class PullbackReport:
    """Both sides of the weighted pullback identity with their MC errors."""

    source_value: float
    source_stderr: float
    target_value: float
    target_stderr: float

    @property
    def sigma_distance(self) -> float:
        spread = math.hypot(self.source_stderr, self.target_stderr)
        if spread == 0.0:
            return 0.0 if self.source_value == self.target_value else math.inf
        return abs(self.source_value - self.target_value) / spread


def _coordinate_radii(spec: HartogsDomainSpec) -> np.ndarray:
    return np.concatenate([np.ones(1) if fam is None else fam.coordinate_radii()
                           for _, _, _, fam in spec.factors])


# Relative slack of the pre-tests. They compare squared moduli,
# which agree with the moduli `contains` compares to a few ulps, so a row is
# dropped only when `contains` would certainly reject it.
_PRETEST_SLACK = 1.0 + 1e-9


def _box_candidates(spec: HartogsDomainSpec, u: np.ndarray,
                    radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The box proposals (rows of u) that may lie in the domain: their row
    indices, and the moduli |z_j| of their coordinates, shape (rows, n).

    The one pre-test stage needs no angle: the squared moduli |z_j|^2
    settle the chain |z_{k+1}| < ... < |z_n| < 1, and they bound every
    block's image norm from below (`MapFamily.image_norm_sq_floor`: exact
    for an identity block, a floor for the others), which is tested against
    |z_{k+1}|. Each test has relative slack, so every row `contains` accepts
    is kept; the membership test then decides on the candidates.
    """
    k, n = spec.k, spec.n
    sq = sampling.disk_modulus_sq_from_uniform(u[:, 0::2], 0.0, radii)
    keep = sq[:, n - 1] <= _PRETEST_SLACK
    bound = sq[:, k] * _PRETEST_SLACK
    for _, cols, j, fam in spec.factors:
        if fam is not None:
            keep &= fam.image_norm_sq_floor(sq[:, cols]) <= bound
        elif j < n:
            keep &= sq[:, j - 1] <= sq[:, j] * _PRETEST_SLACK
    rows = np.flatnonzero(keep)
    return rows, np.sqrt(sq[rows])


def _box_rejection_integrals(sides: list[tuple[str, HartogsDomainSpec,
                                              Callable[[np.ndarray, np.ndarray], np.ndarray]]],
                             cfg: NumericConfig) -> list[tuple[float, float]]:
    """Mean of each side's integrand over its domain w.r.t. the normalized
    block measure, every side from one Monte-Carlo pass of `cfg.mc_samples`
    proposals seeded by `cfg.seed`.

    A side is (name, spec, integrand); all specs have one n, and the
    integrand takes the accepted points and their standard-model images,
    each a row-major (accepted, n) array. Each chunk draws its proposals
    once, 2n uniforms per proposal (one disk point per coordinate), and each
    side scales them to its own bounding polydisk; rejected points
    contribute zero, so each estimate is unbiased for integral(domain) =
    V(box) * mean. The sides are the rows of one `mc.mc_mean` result, so
    each has the bits of a pass of its own. An angle-free pre-test on the
    squared moduli (`_box_candidates`) drops most proposals before any of
    their angles is computed; the rest are built from its moduli in one
    call, mapped once, and `contains`'s membership body decides on their
    images. The accepted set, and so the estimate, is the one a full
    `contains` over every proposal gives. With no proposal of a side
    accepted its estimate would be 0 with a zero error bar, so that raises
    a ValueError naming the side instead.
    """
    boxes = []
    for _, spec, _ in sides:
        radii = _coordinate_radii(spec)
        # box volume in normalized units: prod radii^2 times the
        # ball-vs-polydisk normalization k_j! of each block measure
        box_volume = float(np.prod(radii ** 2))
        for kj, _ in spec.blocks:
            box_volume *= math.factorial(kj)
        boxes.append((radii, box_volume))
    accepted = []  # per chunk and side; list.append is safe across mc_mean's threads

    def values(rng: np.random.Generator, count: int) -> np.ndarray:
        u = rng.random((count, 2 * sides[0][1].n))
        out = np.zeros((len(sides), count), complex)
        hits = []
        for row, (_, spec, integrand), (radii, box_volume) in zip(out, sides, boxes):
            rows, radius = _box_candidates(spec, u, radii)
            pts = sampling.polar_from_uniform(radius, u[rows, 1::2])
            del radius  # freed before the mapping: a lower peak RSS
            images = pts if spec.is_standard else _block_images(spec, pts)
            inside = _standard_contains(spec, images)
            rows, pts = rows[inside], pts[inside]
            images = pts if spec.is_standard else images[inside]  # rejected rows freed first
            hits.append(rows.size)
            if rows.size:
                row[rows] = integrand(pts, images)
            row *= box_volume
        accepted.append(hits)
        return out

    results = mc.mc_mean(values, cfg.mc_samples, cfg.seed, cfg.chunk_size, cfg.workers)
    for (name, _, _), side_hits in zip(sides, zip(*accepted)):
        if sum(side_hits) == 0:
            raise ValueError(f"the box-rejection estimate of the {name} side accepted none "
                             f"of its {cfg.mc_samples} proposals, so it has no error bar; raise "
                             f"the sample count (--samples)")
    return [(float(np.real(est)), err) for est, err in results]


def pullback_isometry_check(spec: HartogsDomainSpec,
                            f: Callable[[np.ndarray], np.ndarray],
                            cfg: NumericConfig = DEFAULT_CONFIG) -> PullbackReport:
    """Check int_source |f o Phi * det J_Phi|^2 = int_target |f|^2 by MC.

    Both sides use the same box-rejection estimator and the same seed, so the
    identity spec reproduces the target estimate bit for bit. They run in
    one pass, which draws each chunk's proposals once for both.

    `f` is called on `cfg.workers` threads at once (`mc.mc_mean`), one batch
    of points per call, so it must be safe to call concurrently; the result
    does not depend on `cfg.workers`.
    """
    def source_integrand(z: np.ndarray, w: np.ndarray) -> np.ndarray:
        vals = np.asarray(f(w))
        det = _block_jacobians(spec, z)
        return np.abs(vals * det) ** 2

    def target_integrand(_: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.abs(np.asarray(f(w))) ** 2

    (src, src_err), (tgt, tgt_err) = _box_rejection_integrals(
        [("source", spec, source_integrand), ("target", spec.standardized(), target_integrand)],
        cfg)
    return PullbackReport(src, src_err, tgt, tgt_err)
