"""Generalized Hartogs domains, their product models, and the maps between them.

A domain spec lists blocks (k_j, phi_j) plus the total dimension n. Points z
satisfy membership when

    max_j |phi_j(z_block_j)| < |z_{k+1}| < ... < |z_n| < 1,

with k = sum k_j. The domain transfers biholomorphically to the product model
ball(k_1) x ... x ball(k_l) x punctured-disk^(n-k) via coordinate quotients;
this module owns that model's one factor list, `HartogsDomainSpec.factors`,
and provides the maps in both directions, their Jacobian determinants,
the blockwise map to the all-identity standard model, and a seeded uniform
sampler of the product model. Each public map, a block map's too, is
`_check_point` (the package's one point check) plus a private body on checked
batches, and `contains` is `_standard_contains` of the image
`to_standard_model` gives; `kernels` and `transfer` call the bodies.

All point arrays are complex with coordinates along the last axis; every map
broadcasts over leading axes. The sampler's batches and those of
`to_product_model` store one contiguous array per coordinate: a (count, n)
batch is the transpose of an (n, count) array, so every column op runs on
contiguous memory, where numpy's strided loops cost up to twice as much.
`from_product_model` keeps the layout of its input, and `to_standard_model`
returns a row-major copy, the layout a caller's test function gets from the
pullback check. numpy's elementwise loops give the same bits in either
layout; a reduction along the coordinates, such as `np.prod(z, axis=-1)`,
may round differently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import mc, sampling
from .special import lone_point_as_row, monomial

_IDENTITY = "identity"
_AFFINE = "affine"
_RATIONAL = "rational_example"
_RATIONAL_POLE = 10.0  # second block coordinate where the rational map blows up
# Relative size of the rounding allowance in `MapFamily.image_norm_sq_floor`:
# far above the few ulps by which `value` can miss the exact image norm.
_FLOOR_ROUNDING = 1e-12


@dataclass(frozen=True)
class MapFamily:
    """One concrete biholomorphism from a block domain onto the unit ball.

    Three variants: the identity on ball(k), an affine map z -> A z + b with
    nonsingular A, and the fixed rational map
    (z1, z2) -> (z1/(z2 - 10), 3 z2 + 1) on its natural two-dimensional domain.
    """

    kind: str
    dim: int
    matrix: tuple | None = None
    shift: tuple | None = None

    # --- constructors -------------------------------------------------

    @staticmethod
    def identity(k: int) -> "MapFamily":
        if k < 1:
            raise ValueError("block dimension must be >= 1")
        return MapFamily(_IDENTITY, k)

    @staticmethod
    def affine(matrix, shift=None) -> "MapFamily":
        a = np.asarray(matrix, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("affine matrix must be square")
        k = a.shape[0]
        b = np.zeros(k, dtype=complex) if shift is None else np.asarray(shift, dtype=complex)
        if b.shape != (k,):
            raise ValueError("affine shift length must match the matrix")
        if abs(np.linalg.det(a)) < 1e-12:
            raise ValueError("affine matrix is singular")
        return MapFamily(_AFFINE, k,
                         tuple(map(tuple, a.tolist())), tuple(b.tolist()))

    @staticmethod
    def rational_example() -> "MapFamily":
        return MapFamily(_RATIONAL, 2)

    # --- evaluation ----------------------------------------------------

    def _matrix(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=complex)

    def _shift(self) -> np.ndarray:
        return np.asarray(self.shift, dtype=complex)

    def value(self, z) -> np.ndarray:
        return self._value(_check_point(self.dim, z))

    def inverse(self, w) -> np.ndarray:
        return self._inverse(_check_point(self.dim, w))

    def jacobian_det(self, z) -> np.ndarray:
        return self._jacobian_det(_check_point(self.dim, z))

    def _value(self, z: np.ndarray) -> np.ndarray:
        if self.kind == _IDENTITY:
            return z.copy()
        if self.kind == _AFFINE:
            # einsum, not `@`: matmul hands the small product to the threaded
            # BLAS zgemm, whose cost per call swings with thread wake-ups
            return np.einsum("...j,ij->...i", z, self._matrix()) + self._shift()
        den = z[..., 1] - _RATIONAL_POLE
        if np.any(den == 0):
            raise ZeroDivisionError("rational map evaluated at its pole")
        return np.stack([z[..., 0] / den, 3.0 * z[..., 1] + 1.0], axis=-1)

    def _inverse(self, w: np.ndarray) -> np.ndarray:
        if self.kind == _IDENTITY:
            return w.copy()
        if self.kind == _AFFINE:
            inv = np.linalg.inv(self._matrix())
            return np.einsum("...j,ij->...i", w - self._shift(), inv)
        z2 = (w[..., 1] - 1.0) / 3.0
        z1 = (z2 - _RATIONAL_POLE) * w[..., 0]  # operand order: see `kernels`
        return np.stack([z1, z2], axis=-1)

    def _jacobian_det(self, z: np.ndarray) -> np.ndarray:
        if self.kind == _IDENTITY:
            return np.ones(z.shape[:-1], dtype=complex)
        if self.kind == _AFFINE:
            det = complex(np.linalg.det(self._matrix()))
            return np.full(z.shape[:-1], det, dtype=complex)
        den = z[..., 1] - _RATIONAL_POLE
        if np.any(den == 0):
            raise ZeroDivisionError("rational map Jacobian evaluated at its pole")
        return 3.0 / den

    def image_norm_sq_floor(self, sq: np.ndarray) -> np.ndarray:
        """Lower bound on |phi(z)|^2 from the squared moduli sq = |z_j|^2 of
        the block coordinates (last axis) alone, so no angle is needed.

        identity: the sum of sq. affine: ||A z + b|| is at least
        s_min ||z|| - ||b|| and ||b|| - s_max ||z||, with s_min, s_max the
        extreme singular values of A. rational: |z1/(z2 - 10)| is at least
        |z1|/(10 + |z2|) and |3 z2 + 1| at least |3|z2| - 1|. A difference
        that cancels is lowered by a rounding allowance relative to the
        magnitudes it cancels, so the floor also stays below |phi(z)|^2 as
        `value` evaluates it in floating point.
        """
        if self.kind == _IDENTITY:
            return np.einsum("...j->...", sq)
        if self.kind == _AFFINE:
            s_max, s_min = np.linalg.svd(self._matrix(), compute_uv=False)[[0, -1]]
            b = float(np.linalg.norm(self._shift()))
            z = np.sqrt(np.einsum("...j->...", sq))
            gap = np.maximum(s_min * z - b, b - s_max * z) - _FLOOR_ROUNDING * (s_max * z + b)
            return np.square(np.maximum(gap, 0.0))
        z2 = np.sqrt(sq[..., 1])
        gap = np.abs(3.0 * z2 - 1.0) - _FLOOR_ROUNDING * (3.0 * z2 + 1.0)
        return sq[..., 0] / np.square(_RATIONAL_POLE + z2) + np.square(np.maximum(gap, 0.0))

    @property
    def is_identity(self) -> bool:
        return self.kind == _IDENTITY

    @property
    def constant_jacobian(self) -> bool:
        return self.kind in (_IDENTITY, _AFFINE)

    def coordinate_radii(self) -> np.ndarray:
        """Per-coordinate modulus bound for the preimage of the unit ball."""
        if self.kind == _IDENTITY:
            return np.ones(self.dim)
        if self.kind == _AFFINE:
            inv = np.linalg.inv(self._matrix())
            center = inv @ self._shift()
            return np.linalg.norm(inv, axis=1) + np.abs(center)
        # |3 z2 + 1| < 1 pins |z2| < 2/3; |z1| < |z2 - 10| < 32/3.
        return np.array([32.0 / 3.0, 2.0 / 3.0])

    def to_json_dict(self) -> dict:
        out: dict = {"type": self.kind}
        if self.kind == _AFFINE:
            a = self._matrix()
            out["A"] = [[[v.real, v.imag] for v in row] for row in a.tolist()]
            out["b"] = [[v.real, v.imag] for v in self._shift().tolist()]
        return out

    @staticmethod
    def from_json_dict(k: int, data: dict) -> "MapFamily":
        kind = _json_field(data, "type", "map")
        if kind == _IDENTITY:
            return MapFamily.identity(k)
        if kind == _RATIONAL:
            if k != 2:
                raise ValueError("the rational example map is two-dimensional")
            return MapFamily.rational_example()
        if kind != _AFFINE:
            raise ValueError(f"unknown map type {kind!r}")
        rows = _json_list(_json_field(data, "A", "affine map"), "affine map field A")
        a = np.array([[_json_complex(v, f"affine map field A[{i}][{j}]")
                       for j, v in enumerate(_json_list(row, f"affine map field A[{i}]"))]
                      for i, row in enumerate(rows)])
        b = None
        if "b" in data:
            b = np.array([_json_complex(v, f"affine map field b[{i}]")
                          for i, v in enumerate(_json_list(data["b"], "affine map field b"))])
        fam = MapFamily.affine(a, b)
        if fam.dim != k:
            raise ValueError("affine matrix size does not match block dimension")
        return fam


@dataclass(frozen=True)
class HartogsDomainSpec:
    """Total dimension n plus the ordered blocks (k_j, map family)."""

    n: int
    blocks: tuple[tuple[int, MapFamily], ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("at least one block is required")
        for kj, fam in self.blocks:
            if kj < 1:
                raise ValueError("every block dimension must be >= 1")
            if fam.dim != kj:
                raise ValueError("map family dimension does not match its block")
        if not 1 <= self.k < self.n:
            raise ValueError(f"need 1 <= k < n, got k={self.k}, n={self.n}")

    @property
    def k(self) -> int:
        return sum(kj for kj, _ in self.blocks)

    @property
    def offsets(self) -> tuple[int, ...]:
        """Cumulative block offsets: starts at 0, ends at k."""
        out = [0]
        for kj, _ in self.blocks:
            out.append(out[-1] + kj)
        return tuple(out)

    @property
    def slices(self) -> tuple[slice, ...]:
        """Each block's coordinate slice, in block order."""
        offs = self.offsets
        return tuple(slice(a, b) for a, b in zip(offs[:-1], offs[1:]))

    @cached_property
    def factors(self) -> tuple[tuple[int, slice, int, MapFamily | None], ...]:
        """The product model's factors (k, columns, j, map), built once: each
        block's ball with j = 0 and its map, then each chain coordinate
        j = k+1..n (1-based) as a punctured disk, the ball with k = 1, no map."""
        return (tuple((kj, sl, 0, fam) for (kj, fam), sl in zip(self.blocks, self.slices))
                + tuple((1, slice(j - 1, j), j, None) for j in range(self.k + 1, self.n + 1)))

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(kj for kj, _ in self.blocks)

    @property
    def is_standard(self) -> bool:
        return all(fam.is_identity for _, fam in self.blocks)

    @staticmethod
    def standard(n: int, block_dims: int | Sequence[int]) -> "HartogsDomainSpec":
        dims = [block_dims] if isinstance(block_dims, int) else list(block_dims)
        return HartogsDomainSpec(n, tuple((d, MapFamily.identity(d)) for d in dims))

    def standardized(self) -> "HartogsDomainSpec":
        return HartogsDomainSpec.standard(self.n, self.block_dims)

    def to_json_dict(self) -> dict:
        return {"n": self.n,
                "blocks": [{"k": kj, "map": fam.to_json_dict()} for kj, fam in self.blocks]}

    @staticmethod
    def from_json_dict(data: dict) -> "HartogsDomainSpec":
        n = _json_int(_json_field(data, "n", "spec"), "spec field n")
        blocks = []
        for i, item in enumerate(_json_list(_json_field(data, "blocks", "spec"),
                                            "spec field blocks")):
            where = f"spec field blocks[{i}]"
            kj = _json_int(_json_field(item, "k", where), where + ".k")
            try:
                fam = MapFamily.from_json_dict(kj, _json_field(item, "map", where))
            except ValueError as exc:
                raise ValueError(f"{where}.map: {exc}") from None
            blocks.append((kj, fam))
        return HartogsDomainSpec(n, tuple(blocks))

    @staticmethod
    def load(path) -> "HartogsDomainSpec":
        with open(path, "r", encoding="utf-8") as f:
            return HartogsDomainSpec.from_json_dict(json.load(f))


# --- validation of the JSON spec format ----------------------------------
# Each helper raises a ValueError that names the offending field and shows
# its JSON text.


def _shown(value) -> str:
    return json.dumps(value, default=repr)


def _json_field(data, key: str, where: str):
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {_shown(data)}")
    if key not in data:
        raise ValueError(f"{where} has no {key!r} field")
    return data[key]


def _json_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list, got {_shown(value)}")
    return value


def _json_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where} must be an integer, got {_shown(value)}")
    return value


def _json_complex(value, where: str) -> complex:
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v) for v in value)):
        raise ValueError(f"{where} must be a [re, im] pair of finite numbers, "
                         f"got {_shown(value)}")
    return complex(value[0], value[1])


def _check_point(n: int | None, z) -> np.ndarray:
    """z as complex points in C^n (last axis; any shape for disk points,
    n = None) with finite coordinates; a ValueError otherwise, naming n for a
    wrong shape, 0-d included. Every public evaluator of points runs it.
    Finiteness is tested on a real view of z's memory (of z.T if
    column-major), at half the cost of the complex test."""
    z = np.asarray(z, dtype=complex)
    if n is not None and z.shape[-1:] != (n,):
        raise ValueError(f"point has length {z.shape[-1]}, expected {n}" if z.shape
                         else f"point has no coordinate axis, expected length {n}")
    memory = z.T if z.shape and z.strides[0] == z.itemsize else z
    parts = memory.view(float) if memory.shape and memory.strides[-1] == memory.itemsize else z
    if not np.isfinite(parts).all():
        raise ValueError("point has non-finite coordinates")
    return z


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of complex x over its last axis, from one einsum row
    sum over the real view: the axis is a block, 1 to 3 wide, where
    np.linalg.norm's reduction costs several times more per row."""
    if x.strides[-1] != x.itemsize:
        x = np.ascontiguousarray(x)
    v = x.view(float)
    return np.sqrt(np.einsum("...j,...j->...", v, v))


@lone_point_as_row(z=1)
def contains(spec: HartogsDomainSpec, z) -> bool | np.ndarray:
    """Strict membership test for the domain of `spec`, on its standard-model image."""
    return _standard_contains(spec, _block_images(spec, _check_point(spec.n, z)))


def _standard_contains(spec: HartogsDomainSpec, w: np.ndarray) -> np.ndarray:
    """Membership of the standard-model images w: max block norm < |w_(k+1)| < ... < |w_n| < 1."""
    head = np.zeros(w.shape[:-1])
    for sl in spec.slices:
        head = np.maximum(head, _row_norms(w[..., sl]))
    chain = np.abs(w[..., spec.k:])
    ok = head < chain[..., 0]
    for i in range(chain.shape[-1] - 1):
        ok &= chain[..., i] < chain[..., i + 1]
    ok &= chain[..., -1] < 1.0
    return ok


def _new_batch(shape: tuple[int, ...]) -> np.ndarray:
    """An empty complex batch that stores each coordinate contiguously."""
    return np.empty(shape, dtype=complex, order="F")


def to_product_model(n: int, k: int, z) -> np.ndarray:
    """Quotient chart: first k coordinates over z_{k+1}, then successive ratios."""
    return _quotients(n, k, _check_point(n, z))


def _quotients(n: int, k: int, z: np.ndarray) -> np.ndarray:
    """`to_product_model` of the checked batch z, as a new batch."""
    if np.any(z[..., k:] == 0):
        raise ZeroDivisionError("chain coordinate is zero; quotient chart undefined")
    w = _new_batch(z.shape)
    w[..., :k] = z[..., :k] / z[..., k][..., None]
    w[..., k:n - 1] = z[..., k:n - 1] / z[..., k + 1:n]
    w[..., n - 1] = z[..., n - 1]
    return w


def from_product_model(n: int, k: int, w) -> np.ndarray:
    """Inverse of the quotient chart: suffix products of the chain coordinates.

    z_j = w_j w_(j+1) ... w_n, built from the right as z_j = z_(j+1) * w_j,
    one column at a time: the chain is 1 to a few columns wide, where a
    numpy reduction along it costs more per row than the products."""
    return _suffix_products(n, k, _check_point(n, w))


def _suffix_products(n: int, k: int, w: np.ndarray) -> np.ndarray:
    """`from_product_model` of the checked batch w, as a new batch in w's layout."""
    z = np.empty_like(w)
    z[..., n - 1] = w[..., n - 1]
    for j in range(n - 2, k - 1, -1):
        z[..., j] = z[..., j + 1] * w[..., j]
    z[..., :k] = w[..., :k] * z[..., k][..., None]
    return z


@lone_point_as_row(w=1)
def jacobian_det_from_product(n: int, k: int, w) -> np.ndarray | complex:
    """prod_{j=k+1}^{n} w_j^(j-1) (1-based j), the holomorphic Jacobian det."""
    return _chain_jacobian(n, k, _check_point(n, w))


def _chain_jacobian(n: int, k: int, w: np.ndarray) -> np.ndarray:
    """`jacobian_det_from_product` of the checked batch w."""
    return monomial(w[..., k:], range(k, n))  # 0-based column j: exponent j


def to_standard_model(spec: HartogsDomainSpec, z) -> np.ndarray:
    """Apply each block map; chain coordinates pass through unchanged."""
    return _block_images(spec, _check_point(spec.n, z))


def _block_images(spec: HartogsDomainSpec, z: np.ndarray) -> np.ndarray:
    """`to_standard_model` of the checked batch z; identity blocks stay as copied."""
    out = z.copy()
    for (_, fam), sl in zip(spec.blocks, spec.slices):
        if not fam.is_identity:
            out[..., sl] = fam._value(z[..., sl])
    return out


@lone_point_as_row(z=1)
def jacobian_det_to_standard(spec: HartogsDomainSpec, z) -> complex | np.ndarray:
    """Product of the per-block Jacobian determinants at z."""
    return _block_jacobians(spec, _check_point(spec.n, z))


def _block_jacobians(spec: HartogsDomainSpec, z: np.ndarray) -> np.ndarray:
    """`jacobian_det_to_standard` of the checked batch z."""
    det = np.ones(z.shape[:-1], dtype=complex)
    for (_, fam), sl in zip(spec.blocks, spec.slices):
        det = fam._jacobian_det(z[..., sl]) * det  # operand order: see `kernels`
    return det


def from_standard_model(spec: HartogsDomainSpec, w) -> np.ndarray:
    w = _check_point(spec.n, w)
    out = w.copy()
    for (_, fam), sl in zip(spec.blocks, spec.slices):
        out[..., sl] = fam._inverse(w[..., sl])
    return out


def standard_volume(n: int, k: int) -> float:
    """Volume of the standard-model domain under normalized factor measures."""
    return math.factorial(k) / math.factorial(n)


# --- product-model sampling -------------------------------------------


def product_draws_per_point(spec: HartogsDomainSpec) -> int:
    return sum(sampling.disk_draws_per_point() if j else sampling.ball_draws_per_point(k)
               for k, _, j, _ in spec.factors)


def product_from_uniform(spec: HartogsDomainSpec, u: np.ndarray,
                         r_max: float = 1.0, disk_r_min: float = 0.0) -> np.ndarray:
    """Transform one uniform row per point into a product-model point."""
    u = np.asfortranarray(u)  # each uniform column contiguous, as each output column is
    out = _new_batch((u.shape[0], spec.n))
    col = 0
    for k, cols, j, _ in spec.factors:
        if j:  # a chain disk keeps its own two-uniform draw, shaped by the puncture margin
            d = sampling.disk_draws_per_point()
            sampling._disk_into(u[:, col:col + d], disk_r_min, r_max, out[:, j - 1])
        else:
            d = sampling.ball_draws_per_point(k)
            sampling._ball_into(u[:, col:col + d], k, r_max, out[:, cols])
        col += d
    return out


def product_points(spec: HartogsDomainSpec, rng: np.random.Generator, count: int,
                   r_max: float = 1.0, disk_r_min: float = 0.0) -> np.ndarray:
    # passed on unnamed, so the row-major draw is freed once it is made column-major
    return product_from_uniform(spec, rng.random((count, product_draws_per_point(spec))),
                                r_max, disk_r_min)


def sample_product_model(spec: HartogsDomainSpec, count: int, seed: int,
                         r_max: float = 1.0, disk_r_min: float = 0.0,
                         chunk_size: int = mc.CHUNK_SIZE) -> np.ndarray:
    """`count` uniform product-model points; point i depends only on (seed, i)."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return np.empty((0, spec.n), dtype=complex)
    parts = []
    for idx, take in mc.chunk_layout(count, chunk_size):
        rng = mc.chunk_rng(seed, idx)
        parts.append(product_points(spec, rng, take, r_max, disk_r_min))
    return np.concatenate(parts, axis=0)


@lone_point_as_row(w=1)
def product_model_contains(spec: HartogsDomainSpec, w) -> bool | np.ndarray:
    """Membership in ball(k_1) x ... x ball(k_l) x punctured-disk^(n-k)."""
    w = _check_point(spec.n, w)
    ok = np.ones(w.shape[:-1], dtype=bool)
    for sl in spec.slices:
        ok &= _row_norms(w[..., sl]) < 1.0
    tail = np.abs(w[..., spec.k:])
    ok &= np.all((tail > 0.0) & (tail < 1.0), axis=-1)
    return ok
