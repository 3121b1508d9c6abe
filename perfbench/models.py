"""Independent NumPy models of the domains and kernels under test.

The pass process uses them to build bulk inputs (kernel pairs) and as the
oracle for kernel values. They are written from the formulas, not from the
library: the quotient chart's Jacobian is the direct triangular determinant
det F'(z) = z_{k+1}^(-k) * prod_{j=k+2..n} z_j^(-1), and the two builtin
example maps (README, "Domain spec files") are restated here.
"""

from __future__ import annotations

import numpy as np

# name -> (n, block dimensions)
SPECS = {"standard": (2, (1,)), "affine4": (4, (1, 2)), "rational3": (3, (2,))}


def forward(name: str, z: np.ndarray) -> np.ndarray:
    """Blockwise map from the named domain onto the standard model."""
    w = z.copy()
    if name == "affine4":
        w[:, 0] = 2.0 * z[:, 0] - 1.0
        w[:, 1] = z[:, 1] + 0.5 * z[:, 2]
    elif name == "rational3":
        w[:, 0] = z[:, 0] / (z[:, 1] - 10.0)
        w[:, 1] = 3.0 * z[:, 1] + 1.0
    return w


def inverse(name: str, w: np.ndarray) -> np.ndarray:
    z = w.copy()
    if name == "affine4":
        z[:, 0] = (w[:, 0] + 1.0) / 2.0
        z[:, 1] = w[:, 1] - 0.5 * w[:, 2]
    elif name == "rational3":
        z[:, 1] = (w[:, 1] - 1.0) / 3.0
        z[:, 0] = w[:, 0] * (z[:, 1] - 10.0)
    return z


def forward_det(name: str, z: np.ndarray) -> np.ndarray:
    if name == "affine4":
        return np.full(z.shape[0], 2.0 + 0j)   # det [2] * det [[1, .5], [0, 1]]
    if name == "rational3":
        return 3.0 / (z[:, 1] - 10.0)
    return np.ones(z.shape[0], dtype=complex)


def standard_points(rng, count: int, n: int, dims) -> np.ndarray:
    """Points of the standard model kept off its boundary: every block norm
    below |z_{k+1}|, chain moduli increasing by at least 10%, all below 0.95."""
    k = sum(dims)
    chain = np.sort(rng.uniform(0.3, 0.9, (count, n - k)), axis=1)
    for i in range(1, n - k):
        chain[:, i] = np.maximum(chain[:, i], 1.1 * chain[:, i - 1])
    chain = np.minimum(chain, 0.95)
    z = np.empty((count, n), dtype=complex)
    z[:, k:] = chain * np.exp(2j * np.pi * rng.random((count, n - k)))
    col = 0
    for d in dims:
        head = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
        scale = rng.uniform(0.1, 0.8, count) * chain[:, 0] / np.linalg.norm(head, axis=1)
        z[:, col:col + d] = head * scale[:, None]
        col += d
    return z


def domain_points(rng, count: int, name: str) -> np.ndarray:
    n, dims = SPECS[name]
    return inverse(name, standard_points(rng, count, n, dims))


def product_kernel(dims, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Closed-form kernel of ball(dims...) x disk^(rest) under normalized volume."""
    val = np.ones(u.shape[0], dtype=complex)
    col = 0
    for d in dims:
        ip = np.sum(u[:, col:col + d] * np.conj(v[:, col:col + d]), axis=1)
        val /= (1.0 - ip) ** (d + 1)
        col += d
    for j in range(col, u.shape[1]):
        val /= (1.0 - u[:, j] * np.conj(v[:, j])) ** 2
    return val


def _chart(k: int, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quotient chart F and its Jacobian determinant det F'(w)."""
    u = np.empty_like(w)
    u[:, :k] = w[:, :k] / w[:, k:k + 1]
    u[:, k:-1] = w[:, k:-1] / w[:, k + 1:]
    u[:, -1] = w[:, -1]
    det = w[:, k] ** (-k) / np.prod(w[:, k + 1:], axis=1)
    return u, det


def hartogs_kernel(name: str, z: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    n, dims = SPECS[name]
    k = sum(dims)
    u, det_u = _chart(k, forward(name, z))
    v, det_v = _chart(k, forward(name, zeta))
    return (product_kernel(dims, u, v) * det_u * np.conj(det_v)
            * forward_det(name, z) * np.conj(forward_det(name, zeta)))


def small_product_points(rng, count: int, n: int, radius: float = 0.5) -> np.ndarray:
    """Points with every coordinate modulus below `radius` (so every ball
    block of dimension d has norm below radius * sqrt(d))."""
    mod = radius * rng.random((count, n))
    return mod * np.exp(2j * np.pi * rng.random((count, n)))
