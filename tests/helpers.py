"""Reference helpers that only the tests use: finite-difference Jacobians,
harmonic numbers, multi-indices and a bisection oracle for the sharp range."""

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
