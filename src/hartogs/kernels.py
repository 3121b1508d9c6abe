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

One complex division per kernel value: numpy's complex divide costs about
ten complex multiplies per element. A product kernel is the reciprocal of
the product of its factor denominators, (1 - <w, eta>)^(k_j+1) per ball
block and (1 - conj(eta_j) w_j)^2 per chain disk (`_product_denominator`,
over `HartogsDomainSpec.factors`, the factor list `domains` owns), taken by
one division. `kernel_hartogs` folds the two chart Jacobians into
that same denominator, and the Monte-Carlo projection divides its integrand
by it once per sample. Both work on checked batches through the private
bodies of `domains`, whose membership test is `contains`'s one body.
Every public kernel checks its points with `domains._check_point`.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple

import numpy as np

from . import mc
from .domains import (HartogsDomainSpec, _block_images, _block_jacobians, _chain_jacobian,
                      _check_point, _quotients, _standard_contains, _suffix_products, contains,
                      jacobian_det_from_product, product_points, to_product_model)
from .special import int_power, log_factorial, lone_point_as_row

Model = str | Tuple[str, object]


def _ball_denominator(k: int, w: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """(1 - <w, eta>)^(k+1), the reciprocal of the ball kernel, with each
    step written into a new array, never over an operand: numpy may round a
    complex product written over an operand unlike its array loop.
    One column (k = 1) is its own row sum; einsum's would differ at most in
    the sign of a zero, which 1 - x does not see."""
    order = "F" if eta.ndim > 1 and eta.flags.f_contiguous else "C"  # as eta's columns
    conj = np.conjugate(eta, out=np.empty(eta.shape, complex, order))
    shape = np.broadcast_shapes(eta.shape, w.shape)
    prod = np.multiply(conj, w, out=np.empty(shape, complex, order))
    del conj  # freed at its last use: a lower peak
    if k == 1:
        base = prod[..., 0]
    else:
        # a row sum over k columns; np.sum's reduction costs several times
        # more per row there, and einsum adds the products in the same order
        base = np.einsum("...j->...", prod, out=np.empty(shape[:-1], complex))
        del prod
    np.subtract(1.0, base, out=base)
    return int_power(base, k + 1)


def _product_denominator(spec: HartogsDomainSpec, w: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The reciprocal of the product kernel: the product of the factor
    denominators, with no division, each product written into a new array."""
    den = None
    for kj, sl, _, _ in spec.factors:
        factor = _ball_denominator(kj, w[..., sl], eta[..., sl])
        den = factor if den is None else np.multiply(factor, den, out=np.empty_like(factor))
    return den


@lone_point_as_row(w=0, eta=0)
def kernel_punctured_disk(w, eta) -> complex | np.ndarray:
    return 1.0 / _ball_denominator(1, *(_check_point(None, x)[..., None] for x in (w, eta)))


@lone_point_as_row(w=1, eta=1)
def kernel_ball(k: int, w, eta) -> complex | np.ndarray:
    return 1.0 / _ball_denominator(k, *(_check_point(k, x) for x in (w, eta)))


@lone_point_as_row(w=1, eta=1)
def kernel_product(spec: HartogsDomainSpec, w, eta) -> complex | np.ndarray:
    return 1.0 / _product_denominator(spec, *(_check_point(spec.n, x) for x in (w, eta)))


@lone_point_as_row(z=1, zeta=1)
def kernel_hartogs(spec: HartogsDomainSpec, z, zeta) -> complex | np.ndarray:
    """Bergman kernel of the spec's domain via the product-model transfer.

    For non-identity blocks the evaluation composes with the blockwise map to
    the standard model and multiplies by its Jacobian determinants. Both
    points must lie in the domain. Each point array is checked, mapped and
    tested once per block of rows, by the bodies of `domains`' public maps
    and of `contains`; the Jacobians are taken after the test.

    A batch is evaluated in blocks of `mc.CHUNK_SIZE` rows along its first
    axis, on `mc.WORKERS` threads (`mc.map_chunks`); a single pair of points
    is a batch of one row, and a batch of at most that many rows is one
    block. Each value depends on its own pair of points only, bit for bit,
    so the result does not depend on the batch, the block split or the
    worker count. A bad point raises the error it raises alone, in whichever
    block it lies; with bad points in several blocks, the first such block's
    error is raised.
    """
    z, zeta = np.asarray(z, dtype=complex), np.asarray(zeta, dtype=complex)
    batch = np.broadcast_shapes(z.shape[:-1], zeta.shape[:-1])
    if not batch:  # lone points come as rows: here a point is 0-d, which the check refuses
        return _kernel_hartogs_block(spec, z, zeta)
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
    n, k = spec.n, spec.k
    points, charts = [], []
    for x in (z, zeta):  # each array checked, mapped and tested before the next
        points.append(_check_point(n, x))
        w = points[-1] if spec.is_standard else _block_images(spec, points[-1])
        if not np.all(_standard_contains(spec, w)):
            raise ValueError("kernel evaluated outside the domain")
        charts.append(_quotients(n, k, w))
    (z, zeta), (fz, fzeta) = points, charts
    factor = 1.0
    if not spec.is_standard:
        conj_zeta = np.conj(_block_jacobians(spec, zeta))
        factor = _block_jacobians(spec, z) * conj_zeta
    det_z = _chain_jacobian(n, k, fz)
    den = _product_denominator(spec, fz, fzeta)
    return factor / ((np.conj(_chain_jacobian(n, k, fzeta)) * det_z) * den)


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
        w, eta = (_check_point(None, x)[..., None] for x in (w, eta))
        blocks = [(1, slice(None))]
    elif isinstance(model, tuple) and model[0] == "ball":
        k = int(model[1])
        w, eta = (_check_point(k, x) for x in (w, eta))
        blocks = [(k, slice(None))]
    elif isinstance(model, tuple) and model[0] == "product":
        spec: HartogsDomainSpec = model[1]
        w, eta = (_check_point(spec.n, x) for x in (w, eta))
        blocks = spec.factors
    else:
        raise ValueError(f"unknown truncated-kernel model {model!r}")
    return _generating_coefficient(blocks, N, w, eta)


@lone_point_as_row(w=1, eta=1)
def _generating_coefficient(blocks, N: int, w, eta) -> np.ndarray:
    """[t^N] of (1 - t)^-1 prod_j (1 - x_j t)^-(k_j+1), x_j = <w, eta> on the
    columns of factor (k_j, columns, ...). Each factor 1/(1 - x t) is a scan of the
    coefficients y of the product before it, y_r[s] = y_(r-1)[s] + x y_r[s-1]
    with y_0 = 1; the scans advance together one degree at a time, each
    keeping only its last coefficient, so no array has a degree axis."""
    xs = [x for k, sl, *_ in blocks
          for x in [np.einsum("...j->...", np.conj(eta[..., sl]) * w[..., sl])] * (k + 1)]
    states = [np.ones(xs[0].shape, dtype=complex) for _ in xs]
    # numpy rounds `state *= x` on one element unlike its array loop: use a spare array
    product = np.empty_like(states[0])
    for _ in range(N):
        below = 1.0
        for x, state in zip(xs, states):
            np.multiply(state, x, out=product)
            np.add(product, below, out=state)
            below = state
    return states[-1]


# --- Monte-Carlo Bergman projection -------------------------------------


def check_bergman_monomial(n: int, k: int, exps) -> None:
    """Raise ValueError unless z^exps lies in A^2 of the standard model, where
    P f = f holds.

    The quotient chart turns z^e into prod_(i<=k) w_i^(e_i) prod_(j>k) w_j^(S_j),
    S_j = e_1 + ... + e_j, and |J|^2 = prod_(j>k) |w_j|^(2(j-1)) (1-based j),
    so |z^e|^2 is integrable iff e_i >= 0 for i <= k and S_j >= -(j-1) for j > k.
    """
    if len(exps) != n:
        raise ValueError(f"monomial needs {n} exponents")
    for i, e in enumerate(exps[:k], 1):
        if e < 0:
            raise ValueError(f"z^e is not in A^2: the ball exponent e_{i} = {e} is negative")
    partial = sum(exps[:k])
    for j, e in enumerate(exps[k:], k + 1):
        partial += e
        if partial < 1 - j:
            raise ValueError(f"z^e is not in A^2: the partial sum e_1 + ... + e_{j} = "
                             f"{partial} is below -{j - 1}")


def mc_bergman_projection(spec: HartogsDomainSpec, f: Callable[[np.ndarray], np.ndarray],
                          z, samples: int, seed: int, workers: int = mc.WORKERS
                          ) -> tuple[complex, float]:
    """Monte-Carlo estimate of the Bergman projection of f at the point z.

    Integrates K(z, .) f(.) over the domain by sampling the product model and
    weighting with the quotient-chart Jacobian. Returns (estimate, stderr).
    Requires a standard-model spec.

    `f` is called on `workers` threads at once (`mc.mc_mean`), one batch of
    points per call, so it must be safe to call concurrently; the result
    does not depend on `workers`. Each batch is a new column-major (count, n)
    array, as the sampler makes it (see `domains`), and `f` may keep it.
    """
    if not spec.is_standard:
        raise ValueError("projection quadrature is implemented on the standard model")
    if not contains(spec, z):
        raise ValueError("projection point lies outside the domain")
    n, k = spec.n, spec.k
    fz = to_product_model(n, k, z)
    det_z = jacobian_det_from_product(n, k, fz)

    def values(rng: np.random.Generator, count: int) -> np.ndarray:
        w = product_points(spec, rng, count)
        det_w = _chain_jacobian(n, k, w)
        fw = f(_suffix_products(n, k, w))
        quotient = np.multiply(det_w, fw, out=np.empty(count, complex))
        return np.divide(quotient, _product_denominator(spec, fz, w), out=quotient)

    est, stderr = mc.mc_mean(values, samples, seed, workers=workers)
    return complex(est) / complex(det_z), stderr / abs(complex(det_z))
