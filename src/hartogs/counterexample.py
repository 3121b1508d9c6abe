"""The endpoint blow-up sequence: bounded inputs whose projections diverge.

The m-th function is radial in the last coordinate up to a fixed phase twist:

    f(z) = g(|z_n|) (conj(z_n)/|z_n|)^(n-1),   g(r) = r^(1/j - (n+1))
           on the ring a_(j+1) < r <= a_j,     a_j = j^(-j),

truncated to |z_n| > a_(m+1). At p = 2n/(n+1) its norm stays bounded in m
while its Bergman projection is exactly 2 C_m / z_n^(n-1) with C_m growing
like a squared logarithm, so bound/norm diverges. All breakpoint arithmetic
lives in the log domain (a_j underflows double precision near j = 150).

Stages 1..m_max are the prefixes of one cumulative pass over the pieces. Where
k!/n! is subnormal (n > 170 at k = 1), the columns raise ValueError naming n, k.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domains import standard_volume
from .special import int_power, log_factorial

# Size cap of the demo table, not a numerical limit: the piece sums match 20-digit
# mpmath at m = 20000 (test_counterexample.py); an underflowing piece adds nothing.
DEMO_MAX_M = 120


@dataclass(frozen=True)
class RadialStepFunction:
    """The piecewise power profile g on (a_(m+1), 1] for fixed (n, m)."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 2 or self.m < 0:
            raise ValueError("need n >= 2 and m >= 0")

    @property
    def log_breakpoints(self) -> np.ndarray:
        """ln a_j for j = 1..m+1 (strictly decreasing, a_1 = 1)."""
        j = np.arange(1, self.m + 2, dtype=float)
        return -j * np.log(j)

    @property
    def exponents(self) -> np.ndarray:
        j = np.arange(1, self.m + 1, dtype=float)
        return 1.0 / j - (self.n + 1)

    def piece_index(self, r) -> np.ndarray:
        """1-based ring index j with r in (a_(j+1), a_j]; 0 marks r outside."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0) or np.any(r > 1.0):
            raise ValueError("radii must lie in (0, 1]")
        y = -np.log(r)
        cuts = -self.log_breakpoints  # increasing, starts at 0
        idx = np.searchsorted(cuts, y, side="right")  # in 1..m+1
        return np.where(idx <= self.m, idx, 0)

    def value(self, r) -> np.ndarray:
        """g(r) on the support, 0 for r <= a_(m+1)."""
        r = np.asarray(r, dtype=float)
        idx = self.piece_index(r)
        if self.m == 0:
            return np.zeros_like(r)
        inside = idx > 0
        exps = self.exponents[np.where(inside, idx, 1) - 1]
        return np.where(inside, np.exp(exps * np.log(r)), 0.0)


def blowup_eval(n: int, m: int, z) -> complex | np.ndarray:
    """Value of the m-th blow-up function at points of the domain."""
    z = np.asarray(z, dtype=complex)
    zn = z[..., -1]
    r = np.abs(zn)
    if np.any(r == 0.0):
        raise ZeroDivisionError("last coordinate vanishes (outside the domain)")
    profile = RadialStepFunction(n, m)
    g = profile.value(np.atleast_1d(r)).reshape(r.shape)
    phase = int_power(np.conj(zn) / r, n - 1)
    val = np.asarray(g * phase)
    return complex(val) if val.ndim == 0 else val


def moment_constant(n: int, k: int) -> float:
    """k!/(n-1)!, the chain moments' product; k!/n! must be normal, or digits are lost."""
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    if log_factorial(k) - log_factorial(n) < math.log(np.finfo(float).tiny):
        raise ValueError(f"n = {n}, k = {k}: k!/n! is below the smallest normal double")
    return math.factorial(k) / math.factorial(n - 1)


def _stages(n: int, p: float, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(radial_norm_power_integral, C_m) at every stage m = 0..m_max, by one pass.

    Their pieces are (a_j^c - a_(j+1)^c)/c, c = p (1/j - (n+1)) + 2n, and, as
    g(r) r^n has antiderivative j r^(1/j) on ring j, 1 - j a_(j+1)^(1/j).
    """
    if p < 1.0:
        raise ValueError("p must be >= 1")
    profile = RadialStepFunction(n, m_max)
    logs = profile.log_breakpoints
    c = p * profile.exponents + 2 * n
    if np.any(c <= 0.0):  # c decreases in j
        j = np.argmax(c <= 0.0)
        raise ValueError(f"piece j={j + 1} has exponent {c[j]:.6g} <= 0: the profile is not "
                         f"p-integrable in the large-m limit (p > 2n/(n+1))")
    j = np.arange(1, m_max + 1)
    sums = np.zeros((2, m_max + 1))  # stage 0 is the empty sum
    np.cumsum([(np.exp(c * logs[:-1]) - np.exp(c * logs[1:])) / c,
               1.0 - j * np.exp(logs[1:] / j)], axis=1, out=sums[:, 1:])
    return 2.0 * sums[0], sums[1]


def _norms(n: int, k: int, p: float, power: np.ndarray) -> np.ndarray:
    """||f_m|| from power entries, by array arithmetic (numpy's 0-d power rounds otherwise)."""
    return (moment_constant(n, k) * power) ** (1.0 / p)


def radial_norm_power_integral(n: int, m: int, p: float) -> float:
    """2 * integral of g(r)^p r^(2n-1) over (a_(m+1), 1], piecewise closed form."""
    return float(_stages(n, p, m)[0][m])


def blowup_norm(n: int, k: int, m: int, p: float) -> float:
    """Exact L^p norm of the m-th blow-up function on the dimension-(n,k) domain."""
    return float(_norms(n, k, p, _stages(n, p, m)[0][m:])[0])


def projection_constant(m: int) -> float:
    """C_m = sum_j j (a_j^(1/j) - a_(j+1)^(1/j)); 2 C_m = integral of g(r) r^n, any n."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return float(_stages(2, 1.0, m)[1][m])  # C_m's pieces depend on neither n nor p


def projected_blowup(n: int, m: int, z) -> complex | np.ndarray:
    """Closed form of the Bergman projection of the m-th blow-up function.

    Angular orthogonality kills every basis term except z_n^-(n-1), leaving
    (2 C_m) / z_n^(n-1).
    """
    z = np.asarray(z, dtype=complex)
    zn = z[..., -1]
    if np.any(zn == 0.0):
        raise ZeroDivisionError("last coordinate vanishes (outside the domain)")
    val = np.asarray(2.0 * projection_constant(m) / int_power(zn, n - 1))
    return complex(val) if val.ndim == 0 else val


@dataclass
class BlowupTable:
    """Norms vs projection lower bounds along the blow-up sequence."""

    n: int
    k: int
    p: float
    m: np.ndarray
    norm: np.ndarray
    bound: np.ndarray

    @property
    def ratio(self) -> np.ndarray:
        return self.bound / self.norm

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["m", "norm_fm", "proj_lower_bound", "ratio"])
        for m, nv, bv, rv in zip(self.m, self.norm, self.bound, self.ratio):
            writer.writerow([int(m), f"{nv:.12g}", f"{bv:.12g}", f"{rv:.12g}"])
        return buf.getvalue()


def blowup_demo(n: int, k: int, p: float, m_values: Sequence[int]) -> BlowupTable:
    """Tabulate (m, norm, V^(1/p) * 2 C_m, ratio) for the requested m values.

    The bound column is the exact integrated pointwise bound
    |P f_m| >= 2 C_m on a domain of volume V, so ratio = bound/norm is a
    certified lower bound for the operator ratio at stage m.
    """
    p_max = 2.0 * n / (n + 1.0)
    if not 1.0 <= p <= p_max:
        raise ValueError(f"blow-up demo needs 1 <= p <= {p_max:.6g}")
    m_values = sorted(set(int(m) for m in m_values))
    if not m_values or m_values[0] < 1:
        raise ValueError("m values must be positive")
    if m_values[-1] > DEMO_MAX_M:
        raise ValueError(f"demo is capped at m = {DEMO_MAX_M}")
    power, constant = _stages(n, p, m_values[-1])
    rows = np.array(m_values)
    bounds = standard_volume(n, k) ** (1.0 / p) * (2.0 * constant[rows])
    return BlowupTable(n, k, p, rows, _norms(n, k, p, power[rows]), bounds)
