"""Closed-form Bergman kernels and their truncated orthonormal expansions.

Kernels are taken with respect to normalized volume (every disk and ball
factor has measure 1):

    punctured disk:  1 / (1 - w conj(eta))^2
    ball in C^k:     1 / (1 - <w, eta>)^(k+1)
    product model:   product of the factor kernels
    Hartogs domain:  product kernel divided by the quotient-chart Jacobians

A truncated expansion is one coefficient of the generating function of its
degree parts, taken by running scans with no degree axis (`kernel_truncated`).

Integer powers go through `special.int_power` (repeated multiplication, never
the complex logarithm), so there is no branch ambiguity.

Operand order of complex products: the right-hand operand is a named array
or a scalar, never a freshly computed array, as in `np.conj(eta) * w`. numpy
reuses a temporary operand of 256 KiB or more (16384 complex values) as the
output, and for a commutative ufunc it moves a right-hand temporary to the
left to do so. Complex multiplication is not bitwise commutative on FMA
hardware, so `w * np.conj(eta)` would round long and short arrays
differently. With any temporary already on the left, the order is the same
at every length, and a point's value does not depend on the batch it comes
in.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence, Tuple

import numpy as np

from . import mc
from .domains import (HartogsDomainSpec, contains, from_product_model,
                      jacobian_det_from_product, jacobian_det_to_standard,
                      product_points, to_product_model, to_standard_model)
from .special import int_power, log_factorial

Model = str | Tuple[str, object]


def _pair_as_row(point_ndim: int):
    """Evaluate a lone pair of points as a one-row batch.

    numpy's 0-d scalar arithmetic rounds differently from its array loops,
    so a pair given alone gets the bits of the same pair as a batch row. A
    point has `point_ndim` axes; the decorated evaluator takes its leading
    arguments, then the two point arrays.
    """
    def decorate(evaluate):
        @functools.wraps(evaluate)
        def evaluate_rows(*args):
            *head, w, eta = args
            w = np.asarray(w, dtype=complex)
            eta = np.asarray(eta, dtype=complex)
            if w.ndim != point_ndim or eta.ndim != point_ndim:
                return evaluate(*head, w, eta)
            return complex(evaluate(*head, w[None], eta[None])[0])
        return evaluate_rows
    return decorate


def _check_points(dim: int, w, eta) -> None:
    if np.shape(w)[-1:] != (dim,) or np.shape(eta)[-1:] != (dim,):
        raise ValueError(f"expected points in C^{dim}")


@_pair_as_row(0)
def kernel_punctured_disk(w, eta) -> complex | np.ndarray:
    base = 1.0 - np.conj(eta) * w
    return 1.0 / (base * base)


@_pair_as_row(1)
def kernel_ball(k: int, w, eta) -> complex | np.ndarray:
    _check_points(k, w, eta)
    # a row sum over k columns; np.sum's reduction costs several times more
    # per row there, and einsum adds the products in the same order
    ip = np.einsum("...j->...", np.conj(eta) * w)
    return 1.0 / int_power(1.0 - ip, k + 1)


@_pair_as_row(1)
def kernel_product(spec: HartogsDomainSpec, w, eta) -> complex | np.ndarray:
    _check_points(spec.n, w, eta)
    val = np.ones(np.broadcast_shapes(w.shape[:-1], eta.shape[:-1]), dtype=complex)
    for (kj, _), sl in zip(spec.blocks, spec.slices):
        val = kernel_ball(kj, w[..., sl], eta[..., sl]) * val
    for j in range(spec.k, spec.n):
        val = kernel_punctured_disk(w[..., j], eta[..., j]) * val
    return val


@_pair_as_row(1)
def kernel_hartogs(spec: HartogsDomainSpec, z, zeta) -> complex | np.ndarray:
    """Bergman kernel of the spec's domain via the product-model transfer.

    For non-identity blocks the evaluation composes with the blockwise map to
    the standard model and multiplies by its Jacobian determinants. Both
    points must lie in the domain. Each point array is mapped once: the
    membership test runs on its image in `spec.standardized()`, which
    decides as `contains(spec, z)` does, bit for bit, and the Jacobians are
    taken after it.

    A batch is evaluated in blocks of `mc.CHUNK_SIZE` rows along its first
    axis, on `mc.WORKERS` threads (`mc.map_chunks`); a single pair of points
    is a batch of one row, and a batch of at most that many rows is one
    block. Each value depends on its own pair of points only, bit for bit,
    so the result does not depend on the batch, the block split or the
    worker count. A bad point raises the error it raises alone, in whichever
    block it lies; with bad points in several blocks, the first such block's
    error is raised.
    """
    batch = np.broadcast_shapes(z.shape[:-1], zeta.shape[:-1])
    rows = batch[0]
    out = np.empty(batch, dtype=complex)

    def block(start: int) -> None:
        stop = start + mc.CHUNK_SIZE
        # an operand broadcast along the first batch axis goes whole to every block
        parts = [x[start:stop] if x.ndim == len(batch) + 1 and x.shape[0] == rows else x
                 for x in (z, zeta)]
        out[start:stop] = _kernel_hartogs_block(spec, *parts)

    mc.map_chunks(block, range(0, max(rows, 1), mc.CHUNK_SIZE), mc.WORKERS)
    return out


def _kernel_hartogs_block(spec: HartogsDomainSpec, z: np.ndarray,
                          zeta: np.ndarray) -> np.ndarray:
    std = spec.standardized()
    w = _standard_image(spec, std, z)
    weta = _standard_image(spec, std, zeta)
    factor = 1.0
    if not spec.is_standard:
        conj_zeta = np.conj(jacobian_det_to_standard(spec, zeta))
        factor = jacobian_det_to_standard(spec, z) * conj_zeta
    n, k = spec.n, spec.k
    fz = to_product_model(n, k, w)
    fzeta = to_product_model(n, k, weta)
    det_z = jacobian_det_from_product(n, k, fz)
    det_zeta = jacobian_det_from_product(n, k, fzeta)
    return kernel_product(spec, fz, fzeta) * factor / (np.conj(det_zeta) * det_z)


def _standard_image(spec: HartogsDomainSpec, std: HartogsDomainSpec, z) -> np.ndarray:
    """z mapped to the standard model `std`, checked to lie in the domain."""
    w = z if spec.is_standard else to_standard_model(spec, z)
    if not np.all(contains(std, w)):
        raise ValueError("kernel evaluated outside the domain")
    return w


# --- orthonormal monomial machinery ------------------------------------


def monomial_norm_sq_ball(k: int, nu: Sequence[int]) -> float:
    """Squared norm of the monomial eta^nu on the normalized ball: k! nu!/(|nu|+k)!."""
    nu = tuple(int(v) for v in nu)
    if len(nu) != k or any(v < 0 for v in nu):
        raise ValueError("multi-index must have length k with non-negative entries")
    total = sum(nu)
    return math.exp(log_factorial(k) + sum(log_factorial(v) for v in nu)
                    - log_factorial(total + k))


# Largest truncation degree: the scans' time grows with N, their memory does not.
TRUNCATED_MAX_N = 100_000


def kernel_truncated(model: Model, N: int, w, eta) -> complex | np.ndarray:
    """Orthonormal-basis kernel truncated at total degree N <= TRUNCATED_MAX_N.

    `model` is "disk", ("ball", k) or ("product", spec). For the product the
    truncation is by total degree across all factors. A ball factor's degree-m
    part is C(m+k, k) x^m with x = <w, eta> (a chain disk is the ball with
    k = 1), so the truncation is the coefficient of t^N in
    (1 - t)^-1 prod_j (1 - x_j t)^-(k_j+1).
    """
    if not 0 <= N <= TRUNCATED_MAX_N:
        raise ValueError(f"truncation degree must lie in [0, {TRUNCATED_MAX_N}], got {N}")
    if model == "disk":
        blocks, w, eta = [(1, slice(None))], np.asarray(w)[..., None], np.asarray(eta)[..., None]
    elif isinstance(model, tuple) and model[0] == "ball":
        k = int(model[1])
        _check_points(k, w, eta)
        blocks = [(k, slice(None))]
    elif isinstance(model, tuple) and model[0] == "product":
        spec: HartogsDomainSpec = model[1]
        _check_points(spec.n, w, eta)
        blocks = [(kj, sl) for (kj, _), sl in zip(spec.blocks, spec.slices)]
        blocks += [(1, slice(j, j + 1)) for j in range(spec.k, spec.n)]
    else:
        raise ValueError(f"unknown truncated-kernel model {model!r}")
    return _generating_coefficient(blocks, N, w, eta)


@_pair_as_row(1)
def _generating_coefficient(blocks, N: int, w, eta) -> np.ndarray:
    """[t^N] of (1 - t)^-1 prod_j (1 - x_j t)^-(k_j+1), x_j = <w, eta> on the
    columns of block (k_j, columns). Each factor 1/(1 - x t) is a scan of the
    coefficients y of the product before it, y_r[s] = y_(r-1)[s] + x y_r[s-1]
    with y_0 = 1; the scans advance together one degree at a time, each
    keeping only its last coefficient, so no array has a degree axis."""
    xs = [x for k, sl in blocks
          for x in [np.einsum("...j->...", np.conj(eta[..., sl]) * w[..., sl])] * (k + 1)]
    states = [np.ones(xs[0].shape, dtype=complex) for _ in xs]
    # numpy rounds `state *= x` on one element unlike its array loop: use a scratch array
    product = np.empty_like(states[0])
    for _ in range(N):
        below = 1.0
        for x, state in zip(xs, states):
            np.multiply(state, x, out=product)
            np.add(product, below, out=state)
            below = state
    return states[-1]


# --- Monte-Carlo Bergman projection -------------------------------------


def mc_bergman_projection(spec: HartogsDomainSpec, f: Callable[[np.ndarray], np.ndarray],
                          z, samples: int, seed: int, workers: int = mc.WORKERS
                          ) -> tuple[complex, float]:
    """Monte-Carlo estimate of the Bergman projection of f at the point z.

    Integrates K(z, .) f(.) over the domain by sampling the product model and
    weighting with the quotient-chart Jacobian. Returns (estimate, stderr).
    Requires a standard-model spec.

    `f` is called on `workers` threads at once (`mc.mc_mean`), one batch of
    points per call, so it must be safe to call concurrently; the result
    does not depend on `workers`.
    """
    if not spec.is_standard:
        raise ValueError("projection quadrature is implemented on the standard model")
    z = np.asarray(z, dtype=complex)
    if not contains(spec, z):
        raise ValueError("projection point lies outside the domain")
    n, k = spec.n, spec.k
    fz = to_product_model(n, k, z)
    det_z = jacobian_det_from_product(n, k, fz)

    def values(rng: np.random.Generator, count: int) -> np.ndarray:
        w = product_points(spec, rng, count)
        kern = kernel_product(spec, fz, w)
        det_w = jacobian_det_from_product(n, k, w)
        return kern * det_w * f(from_product_model(n, k, w))

    est, stderr = mc.mc_mean(values, samples, seed, workers=workers)
    return complex(est) / complex(det_z), stderr / abs(complex(det_z))
