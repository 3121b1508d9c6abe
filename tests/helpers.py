"""Reference helpers that only the tests use: finite-difference Jacobians
and harmonic numbers."""

import math
from typing import Callable

import numpy as np


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
