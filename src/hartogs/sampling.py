"""Uniform samplers on disks, balls and spheres with a fixed per-sample draw layout.

Every sampler consumes a fixed number of uniform deviates per sample (one
matrix row), so sample i is a pure function of the generator state and i.
Combined with the per-chunk generators in `mc`, this makes each sample a pure
function of (seed, global index): prefixes are stable when the requested count
changes, and chunk partials reduce deterministically regardless of worker
count. Normals come from Box-Muller rather than the ziggurat for exactly this
reason (the ziggurat's rejection loop has a data-dependent draw budget).

The layout is fixed, but what is computed from it is not: a caller that
needs only moduli skips the angles. In a Box-Muller pair (u1, u2) the squared
radius -2 log(1-u1) comes from u1 alone and the phase 2 pi u2 from u2 alone,
so `sphere_moduli_sq_from_uniform` reads the same rows as
`sphere_from_uniform` with no trigonometric call, and a disk point's squared
modulus is its first uniform scaled. Where a sample needs its phase it pays
one tan per angle: numpy's float64 cos and sin are scalar libm loops (about
30 ns per element each on an AVX512 x86-64 build of numpy 2.4), its tan a
SIMD loop (about 5 ns), and the half-angle forms of cos and sin in
t = tan(pi u) are written straight into the real and imaginary parts of the
complex result. Rows are normalised on the real view, with no complex exp or
division.

Measure convention: the disk and every ball carry normalized volume,
V(disk) = V(ball) = 1.
"""

from __future__ import annotations

import numpy as np


def normals_from_uniform(u: np.ndarray) -> np.ndarray:
    """Box-Muller transform; u has even last-axis length, entries in [0, 1)."""
    # 1-u1 lies in (0, 1], so the log is finite.
    rad = np.sqrt(-2.0 * np.log1p(-u[..., 0::2]))
    return polar_from_uniform(rad, u[..., 1::2]).view(float)


def _as_complex(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.complex128)


def _scale_rows(x: np.ndarray, radius: np.ndarray | None = None) -> np.ndarray:
    """Scale each row of Box-Muller normals x to Euclidean length 1 (or
    `radius`), in place on the real array, and view it as complex. A zero
    row stays zero."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    norms[norms == 0.0] = 1.0
    # times the reciprocal: what complex-by-real division does, a bit cheaper
    x *= (1.0 / norms)[:, None]
    if radius is not None:
        x *= radius[:, None]
    return _as_complex(x)


def disk_draws_per_point() -> int:
    return 2


def disk_modulus_sq_from_uniform(u1: np.ndarray, r_min: float = 0.0,
                                 r_max: float | np.ndarray = 1.0) -> np.ndarray:
    """|w|^2 of the annulus points `disk_from_uniform` makes, bit for bit, from
    u1, the first uniform of each draw pair; no angle is computed. r_max may
    be an array that broadcasts against u1 (one radius per column)."""
    return r_min * r_min + u1 * (r_max * r_max - r_min * r_min)


def polar_from_uniform(r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """r exp(2 pi i u) from one tan per angle: with t = tan(pi u),
    r (1-t^2)/(1+t^2) is written into the real part and 2 r t/(1+t^2) into
    the imaginary part of one complex array. Each part is within a few ulps
    of r times the exact cosine or sine; u = 0 gives (r, 0) exactly, and
    near u = 1/2, where t is about 1e16, t^2 stays far from overflow."""
    out = np.empty(np.shape(u), dtype=complex)
    re = out.real
    im = out.imag
    t = np.multiply(np.pi, u)
    np.tan(t, out=t)
    np.multiply(t, t, out=re)              # t^2
    scale = np.add(re, 1.0)
    np.divide(r, scale, out=scale)         # r / (1 + t^2)
    np.subtract(1.0, re, out=re)
    re *= scale
    np.multiply(t, scale, out=im)
    im *= 2.0
    return out


def disk_from_uniform(u: np.ndarray, r_min: float = 0.0, r_max: float = 1.0) -> np.ndarray:
    """Uniform points of the annulus r_min <= |w| <= r_max; u shape (count, 2)."""
    return polar_from_uniform(np.sqrt(disk_modulus_sq_from_uniform(u[:, 0], r_min, r_max)),
                              u[:, 1])


def ball_draws_per_point(k: int) -> int:
    return 2 * k + 1


def ball_from_uniform(u: np.ndarray, k: int, r_max: float = 1.0) -> np.ndarray:
    """Uniform points of the ball |w| <= r_max in C^k; u shape (count, 2k+1)."""
    if k == 1:
        return disk_from_uniform(u[:, :2], 0.0, r_max)[:, None]
    radius = r_max * u[:, 2 * k] ** (1.0 / (2 * k))
    return _scale_rows(normals_from_uniform(u[:, : 2 * k]), radius)


def sphere_draws_per_point(k: int) -> int:
    return 2 * k


def sphere_from_uniform(u: np.ndarray, k: int) -> np.ndarray:
    """Uniform points of the unit sphere in C^k; u shape (count, 2k)."""
    return _scale_rows(normals_from_uniform(u))


def sphere_moduli_sq_from_uniform(u: np.ndarray, k: int) -> np.ndarray:
    """|xi_j|^2 of the sphere points `sphere_from_uniform` makes from the same u.

    |xi_j|^2 = e_j / sum(e) with e_j = -log(1-u_{2j}) the halved squared
    Box-Muller radius: the angles cancel, so none is computed. Shape (count, k).
    """
    e = np.log1p(-u[:, 0::2])  # -e_j; the signs cancel in the ratio
    total = np.einsum("ij->i", e)
    total[total == 0.0] = 1.0
    e /= total[:, None]
    return e


def disk_points(rng: np.random.Generator, count: int,
                r_min: float = 0.0, r_max: float = 1.0) -> np.ndarray:
    return disk_from_uniform(rng.random((count, 2)), r_min, r_max)


def ball_points(rng: np.random.Generator, count: int, k: int,
                r_max: float = 1.0) -> np.ndarray:
    return ball_from_uniform(rng.random((count, ball_draws_per_point(k))), k, r_max)


def sphere_points(rng: np.random.Generator, count: int, k: int) -> np.ndarray:
    return sphere_from_uniform(rng.random((count, sphere_draws_per_point(k))), k)
