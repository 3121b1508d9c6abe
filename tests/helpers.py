"""Reference helpers that only the tests use: finite-difference Jacobians,
harmonic numbers, multi-indices, a bisection oracle for the sharp range and
mpmath quadratures of the weighted ball and disk integrals."""

import math
from itertools import combinations_with_replacement
from typing import Callable, Iterator

import numpy as np

from hartogs.schur import param_windows


def complex_jacobian(fn: Callable[[np.ndarray], np.ndarray], z,
                     step: float = 1e-6) -> np.ndarray:
    """Numerical holomorphic Jacobian via central differences along the real axis."""
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    fz = np.asarray(fn(z))
    rows = fz.shape[-1]
    jac = np.empty((rows, n), dtype=complex)
    for j in range(n):
        dz = np.zeros_like(z)
        dz[..., j] = step
        jac[:, j] = (np.asarray(fn(z + dz)) - np.asarray(fn(z - dz))) / (2.0 * step)
    return jac


def numerical_jacobian_det(fn: Callable[[np.ndarray], np.ndarray], z,
                           step: float = 1e-6) -> complex:
    return complex(np.linalg.det(complex_jacobian(fn, z, step)))


def harmonic_number(m: int) -> float:
    return math.fsum(1.0 / j for j in range(1, m + 1))


def multi_indices(k: int, max_degree: int) -> Iterator[tuple[int, ...]]:
    """Multi-indices of length k with total degree <= max_degree, ordered by
    total degree, ties broken lexicographically."""
    for degree in range(max_degree + 1):
        seen = sorted(set(
            _composition(c, k, degree)
            for c in combinations_with_replacement(range(k), degree)))
        for nu in seen:
            yield nu


def _composition(positions: tuple[int, ...], k: int, degree: int) -> tuple[int, ...]:
    out = [0] * k
    for p in positions:
        out[p] += 1
    return tuple(out)


def p_range_by_search(n: int, k: int, tol: float = 1e-9, iters: int = 60
                      ) -> tuple[float, float]:
    """Both ends of the feasible p-range, located by bisection on the
    emptiness of the last chain window, not on `feasible_params` (which
    decides by the sharp range itself)."""
    def feasible(p: float) -> bool:
        return not param_windows(n, k, p)[1][n].is_empty

    if not feasible(2.0):
        raise RuntimeError("p = 2 should always be feasible")
    lo, hi = 1.0 + 1e-12, 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo < tol / 4:
            break
    low_end = 0.5 * (lo + hi)
    lo, hi = 2.0, 2.0 * n  # upper endpoint 2n/(n-1) <= 2n
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo < tol / 4:
            break
    high_end = 0.5 * (lo + hi)
    return low_end, high_end


def disk_quad_ref(mpmath, alpha, beta, r, cutoff):
    """int_(c^2)^1 (1-s)^alpha s^(beta/2) / (1 - r^2 s) ds in mpmath.

    The endpoint factors are absorbed by substitution, not left to
    tanh-sinh: 1 - s = v^(1/(alpha+1)) on [max(c^2, 1/2), 1] (plain
    tanh-sinh in t loses a third of the value at alpha = -0.99), and
    s = z^(1/(beta/2+1)) or u = log s below 1/2.
    """
    a, h, x = mpmath.mpf(alpha), mpmath.mpf(beta) / 2, mpmath.mpf(r) ** 2
    low = mpmath.mpf(cutoff) ** 2
    top = max(low, mpmath.mpf(0.5))

    def near_one(v):
        s = 1 - v ** (1 / (a + 1))
        return s ** h / (1 - x * s) / (a + 1)

    total = mpmath.quad(near_one, mpmath.linspace(0, (1 - top) ** (a + 1), 6))
    if low < top and low > 0:
        total += mpmath.quad(lambda u: (1 - mpmath.e ** u) ** a * mpmath.e ** (u * (h + 1))
                             / (1 - x * mpmath.e ** u),
                             mpmath.linspace(mpmath.log(low), mpmath.log(top), 6))
    elif low < top:
        def near_zero(z):
            s = z ** (1 / (h + 1))
            return (1 - s) ** a / (1 - x * s) / (h + 1)
        total += mpmath.quad(near_zero, mpmath.linspace(0, top ** (h + 1), 6))
    return total


def ball_quad_ref(mpmath, k, alpha, r):
    """The weighted ball integral as an mpmath radial quadrature,
    int_0^1 k s^(k-1) (1-s)^alpha 2F1((k+1)/2, (k+1)/2; k; r^2 s) ds, with s
    the squared radius and the 2F1 the sphere average of the kernel (Rudin,
    Function Theory in the Unit Ball of C^n, 1.4.10). The substitution
    1 - s = v^(1/(alpha+1)) absorbs the endpoint factor, as in
    `disk_quad_ref`."""
    a, h, x = mpmath.mpf(alpha), mpmath.mpf(k + 1) / 2, mpmath.mpf(r) ** 2

    def integrand(v):
        s = 1 - v ** (1 / (a + 1))
        return k * s ** (k - 1) * mpmath.hyp2f1(h, h, k, x * s) / (a + 1)

    return mpmath.quad(integrand, [0, 1])
