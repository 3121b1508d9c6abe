"""Sphere moments and the weighted kernel integrals behind every boundedness bound.

Two families of radially symmetric integrals are evaluated here, each by an
exact positive-term series and by seeded Monte Carlo:

  ball (dimension k, weight exponent alpha > -1):
      integral over the unit ball of (1-|eta|^2)^alpha / |1 - <w,eta>|^(k+1)
      series coefficient of r^(2m):
      [G(m+(k+1)/2)^2 / (G(m+1)^2 G((k+1)/2)^2)] * [k! m!/(m+k-1)!] * B(alpha+1, m+k)

  disk (weight exponents alpha > -1, beta > -2):
      integral over the punctured disk of
      (1-|eta|^2)^alpha |eta|^beta / |1 - w conj(eta)|^2
      series coefficient of r^(2m):  B(alpha+1, m + beta/2 + 1)

Both depend on |w| only. For -1 < alpha < 0 they stay comparable to
(1-r^2)^alpha up to constants; `asymptotic_ratio_check` measures the constants
on a grid. The disk integral also has an exact one-dimensional radial form
(angular average of the kernel is 1/(1 - r^2 rho^2)) used as an independent
quadrature route and as the truncated evaluator for divergent exponents.

The Monte-Carlo estimators draw the squared radius rho = |eta|^2 from the
Kumaraswamy(a, b) law, whose inverse CDF (1 - (1-u)^(1/b))^(1/a) is closed
form (a = k or beta/2+1, b = alpha+1). Its density a b rho^(a-1)
(1-rho^a)^(b-1) has the same endpoint behaviour as the Beta(a, b) radial law
of the integrand, so the weight left to average, q^alpha with
q = (1-rho)/(1-rho^a), stays between 1 and a^-alpha. The disk estimator
draws 1 - rho instead where that bound is large (beta < 0 < alpha). Every
weight is at most max(1, a, alpha+1), so the variance is finite for every
alpha > -1 and beta > -2.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import integrate

from . import mc, sampling
from .config import DEFAULT_CONFIG, NumericConfig
from .special import log_factorial, log_gamma, log_gamma_vec

MultiIndex = Sequence[int]


class NonConvergenceError(ArithmeticError):
    """Series hit its term cap before meeting the relative tolerance."""

    def __init__(self, message: str, partial_sum: float, terms: int):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.terms = terms


def _check_multi_index(k: int, nu: MultiIndex) -> tuple[int, ...]:
    nu = tuple(int(v) for v in nu)
    if len(nu) != k:
        raise ValueError(f"multi-index length {len(nu)} does not match k={k}")
    if any(v < 0 for v in nu):
        raise ValueError("multi-index entries must be non-negative")
    return nu


def multi_abs(nu: MultiIndex) -> int:
    return int(sum(nu))


def log_multi_factorial(nu: MultiIndex) -> float:
    return sum(log_factorial(int(v)) for v in nu)


def sphere_moment(k: int, nu: MultiIndex) -> float:
    """Mean of |xi^nu|^2 over the unit sphere of C^k: (k-1)! nu!/(|nu|+k-1)!."""
    if k < 1:
        raise ValueError("k must be >= 1")
    nu = _check_multi_index(k, nu)
    return math.exp(log_factorial(k - 1) + log_multi_factorial(nu)
                    - log_factorial(multi_abs(nu) + k - 1))


def sphere_moment_mc(k: int, nu: MultiIndex, cfg: NumericConfig = DEFAULT_CONFIG
                     ) -> tuple[float, float]:
    """Monte-Carlo oracle for `sphere_moment`; returns (estimate, stderr)."""
    nu = np.array(_check_multi_index(k, nu), dtype=float)

    def values(rng: np.random.Generator, count: int) -> np.ndarray:
        xi = sampling.sphere_points(rng, count, k)
        return np.prod(np.abs(xi) ** (2 * nu), axis=1)

    return mc.mc_mean(values, cfg.mc_samples, cfg.seed, cfg.chunk_size, cfg.workers)


# --- series evaluation with cached coefficients -------------------------

_BALL_COEFFS: dict[tuple[int, float], np.ndarray] = {}
_DISK_COEFFS: dict[tuple[float, float], np.ndarray] = {}
_BLOCK = 128


def _ball_coeffs(k: int, alpha: float, upto: int) -> np.ndarray:
    cached = _BALL_COEFFS.get((k, alpha))
    have = 0 if cached is None else cached.size
    if have >= upto:
        return cached
    m = np.arange(have, upto, dtype=float)
    half = (k + 1) / 2.0
    # log of [G(m+half)^2/(G(m+1)^2 G(half)^2)] * [k! m!/(m+k-1)!] * B(alpha+1, m+k),
    # with the G(m+k) of the moment factor cancelled against the Beta numerator
    log_c = (2.0 * log_gamma_vec(m + half) - log_gamma_vec(m + 1.0)
             - 2.0 * log_gamma(half) + log_factorial(k)
             + log_gamma(alpha + 1.0) - log_gamma_vec(m + k + alpha + 1.0))
    fresh = np.exp(log_c)
    out = fresh if cached is None else np.concatenate([cached, fresh])
    _BALL_COEFFS[(k, alpha)] = out
    return out


def _disk_coeffs(alpha: float, beta: float, upto: int) -> np.ndarray:
    cached = _DISK_COEFFS.get((alpha, beta))
    have = 0 if cached is None else cached.size
    if have >= upto:
        return cached
    m = np.arange(have, upto, dtype=float)
    log_c = (log_gamma(alpha + 1.0) + log_gamma_vec(m + beta / 2.0 + 1.0)
             - log_gamma_vec(m + beta / 2.0 + alpha + 2.0))
    fresh = np.exp(log_c)
    out = fresh if cached is None else np.concatenate([cached, fresh])
    _DISK_COEFFS[(alpha, beta)] = out
    return out


def _series_sum(coeffs_for, r: float, rel_tol: float, max_terms: int, label: str) -> float:
    if not 0.0 <= r < 1.0:
        raise ValueError(f"series evaluation requires 0 <= r < 1, got {r}")
    x = r * r
    total = 0.0
    start = 0
    while start < max_terms:
        stop = min(start + _BLOCK, max_terms)
        c = coeffs_for(stop)[start:stop]
        if x == 0.0:
            return float(c[0])
        powers = x ** np.arange(start, stop)
        terms = c * powers
        total += float(terms.sum())
        if terms[-1] < rel_tol * total:
            return total
        start = stop
    raise NonConvergenceError(
        f"{label} series did not converge within {max_terms} terms at r={r}",
        total, max_terms)


def weighted_ball_integral_series(k: int, alpha: float, r: float,
                                  rel_tol: float = 1e-12,
                                  max_terms: int = 1_000_000) -> float:
    """Exact series for the weighted ball integral at radius r in [0, 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1 (the integral diverges otherwise)")
    return _series_sum(lambda upto: _ball_coeffs(k, alpha, upto),
                       r, rel_tol, max_terms, "ball")


def weighted_disk_integral_series(alpha: float, beta: float, r: float,
                                  rel_tol: float = 1e-12,
                                  max_terms: int = 1_000_000) -> float:
    """Exact series for the weighted disk integral at radius r in [0, 1)."""
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1 (the integral diverges otherwise)")
    if beta <= -2.0:
        raise ValueError("beta must exceed -2 (the integral diverges otherwise)")
    return _series_sum(lambda upto: _disk_coeffs(alpha, beta, upto),
                       r, rel_tol, max_terms, "disk")


# |log rho| below which q = (1-rho)/(1-rho^a) takes its two-term Taylor form:
# the form is exact to rounding there, and the direct ratio turns into 0/0
# once 1 - rho^a underflows
_TAYLOR_LOG_RHO = 2.0 ** -26


def _kumaraswamy_radius(a: float, b: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF draw rho ~ Kumaraswamy(a, b) from uniforms u in [0, 1).

    Returns (rho, q) with q = (1-rho)/(1-rho^a), so that for the kernel
    factor g, (b a) B(a, b) E_Beta(a,b)[g] = E_Kumaraswamy(a,b)[q^(b-1) g].
    q lies between 1 and 1/a; it is exactly 1 for a = 1, where the two laws
    coincide. Every u in [0, 1) gives finite values: u = 0 is rho = 0, q = 1,
    and when 1 - rho^a = (1-u)^(1/b) underflows (b -> 0), q -> 1/a.
    """
    log_v = np.log1p(-u) / b                 # v = 1 - rho^a = (1-u)^(1/b)
    with np.errstate(divide="ignore", invalid="ignore"):
        # log rho = log(1-v)/a: log1p(-v) keeps the digits for small v, and
        # log(-expm1(log v)) for v near 1 (u -> 0, where u = 0 gives -inf)
        log_rho = np.where(log_v < -math.log(2.0), np.log1p(-np.exp(log_v)),
                           np.log(-np.expm1(log_v))) / a
        q = np.where(log_rho > -_TAYLOR_LOG_RHO,
                     (1.0 + 0.5 * (1.0 - a) * log_rho) / a,
                     np.expm1(log_rho) / np.expm1(a * log_rho))
    return np.exp(log_rho), q


def weighted_ball_integral_mc(k: int, alpha: float, w,
                              cfg: NumericConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Monte-Carlo estimate of the weighted ball integral at the point w.

    The squared radius is drawn from Kumaraswamy(k, alpha+1), which has the
    endpoint behaviour of the radial law Beta(k, alpha+1) of the integrand:
    each sample averages q^alpha / (alpha+1) times the kernel factor, with
    q = (1-rho)/(1-rho^k) in [1/k, 1]. The weight is bounded, so the
    variance stays finite for every alpha > -1 (plain uniform sampling has
    infinite variance for alpha <= -1/2 and its error bars are meaningless
    there). Each sample consumes 2k+1 uniforms.
    """
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    if w.shape != (k,):
        raise ValueError(f"w must lie in C^{k}")
    if np.linalg.norm(w) >= 1.0:
        raise ValueError("w must lie in the open unit ball")
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1")

    def values(rng: np.random.Generator, count: int) -> np.ndarray:
        u = rng.random((count, 2 * k + 1))
        xi = sampling.sphere_from_uniform(u[:, :2 * k], k)
        rho, q = _kumaraswamy_radius(float(k), alpha + 1.0, u[:, 2 * k])
        eta = np.sqrt(rho)[:, None] * xi
        ip = eta @ np.conj(w)
        return q ** alpha / (alpha + 1.0) / np.abs(1.0 - ip) ** (k + 1)

    return mc.mc_mean(values, cfg.mc_samples, cfg.seed, cfg.chunk_size, cfg.workers)


def weighted_disk_integral_mc(alpha: float, beta: float, w,
                              cfg: NumericConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Monte-Carlo estimate of the weighted disk integral at the point w.

    The squared radius is drawn from Kumaraswamy(a, alpha+1) with
    a = beta/2+1, which has the endpoint behaviour of the radial law
    Beta(a, alpha+1) at both the puncture and the boundary: each sample
    averages q^alpha / (a (alpha+1)) times the kernel factor, with
    q = (1-rho)/(1-rho^a) between 1 and 1/a. For beta < 0 < alpha that
    weight would reach a^-alpha on rare draws near the boundary, so there
    1 - rho is drawn from Kumaraswamy(alpha+1, a) instead, with weight
    q^(a-1) between 1 and alpha+1 for q = rho/(1-(1-rho)^(alpha+1)).
    Every weight is then at most max(1, a, alpha+1). Each sample consumes
    2 uniforms.
    """
    w = complex(np.asarray(w, dtype=complex).reshape(()))
    if abs(w) >= 1.0:
        raise ValueError("w must lie in the open unit disk")
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1")
    if beta <= -2.0:
        raise ValueError("beta must exceed -2")
    a = beta / 2.0 + 1.0
    reflect = a < 1.0 < alpha + 1.0

    def values(rng: np.random.Generator, count: int) -> np.ndarray:
        u = rng.random((count, 2))
        if reflect:
            t, q = _kumaraswamy_radius(alpha + 1.0, a, u[:, 0])
            rho, weight = 1.0 - t, q ** (a - 1.0)
        else:
            rho, q = _kumaraswamy_radius(a, alpha + 1.0, u[:, 0])
            weight = q ** alpha
        eta = np.sqrt(rho) * np.exp(2j * np.pi * u[:, 1])
        return weight / (a * (alpha + 1.0)) / np.abs(1.0 - w * np.conj(eta)) ** 2

    return mc.mc_mean(values, cfg.mc_samples, cfg.seed, cfg.chunk_size, cfg.workers)


def weighted_disk_integral_quad(alpha: float, beta: float, r: float,
                                inner_cutoff: float = 0.0) -> float:
    """Radial quadrature route for the weighted disk integral.

    The angular average of |1 - w conj(eta)|^(-2) is 1/(1 - |w|^2 |eta|^2),
    leaving 2 int_c^1 (1-t^2)^alpha t^(beta+1) / (1 - r^2 t^2) dt with c the
    inner cutoff. A positive cutoff makes divergent exponents (beta <= -2)
    finite, which is how endpoint violations are quantified.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1")
    if beta <= -2.0 and inner_cutoff <= 0.0:
        raise ValueError("beta <= -2 diverges; supply a positive inner cutoff")

    def integrand(t: float) -> float:
        return 2.0 * (1.0 - t * t) ** alpha * t ** (beta + 1.0) / (1.0 - r * r * t * t)

    val, _ = integrate.quad(integrand, inner_cutoff, 1.0, limit=300)
    return val


# --- asymptotic envelope reports ----------------------------------------


@dataclass
class RatioReport:
    """Grid evidence that an integral stays comparable to its boundary envelope."""

    kind: str                 # "ball" or "disk"
    params: dict
    r: np.ndarray
    value: np.ndarray
    envelope: np.ndarray
    refined: "RatioReport | None" = None

    @property
    def ratio(self) -> np.ndarray:
        return self.value / self.envelope

    @property
    def min_ratio(self) -> float:
        return float(self.ratio.min())

    @property
    def max_ratio(self) -> float:
        return float(self.ratio.max())

    def write_csv(self, stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["r", "value", "envelope", "ratio"])
        for r, v, e, q in zip(self.r, self.value, self.envelope, self.ratio):
            writer.writerow([f"{r:.12g}", f"{v:.12g}", f"{e:.12g}", f"{q:.12g}"])

    def to_csv(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


def asymptotic_ratio_check(which: str, params: dict, grid,
                           rel_tol: float = 1e-12,
                           max_terms: int = 1_000_000) -> RatioReport:
    """Evaluate integral/envelope on a radius grid.

    which="ball": params k, alpha; envelope (1-r^2)^alpha.
    which="disk": params alpha, beta; envelope (1-r^2)^alpha, plus the
    refined envelope (1-r^2)^alpha r^beta attached when beta <= 0 (the grid
    must then avoid r = 0).
    """
    grid = np.asarray(grid, dtype=float)
    alpha = float(params["alpha"])
    if not -1.0 < alpha < 0.0:
        raise ValueError("the envelope comparison needs -1 < alpha < 0")
    if which == "ball":
        k = int(params["k"])
        value = np.array([weighted_ball_integral_series(k, alpha, r, rel_tol, max_terms)
                          for r in grid])
        return RatioReport("ball", dict(params), grid, value, (1.0 - grid ** 2) ** alpha)
    if which == "disk":
        beta = float(params["beta"])
        value = np.array([weighted_disk_integral_series(alpha, beta, r, rel_tol, max_terms)
                          for r in grid])
        report = RatioReport("disk", dict(params), grid, value, (1.0 - grid ** 2) ** alpha)
        if beta <= 0.0:
            if np.any(grid == 0.0):
                raise ValueError("refined envelope needs a grid bounded away from r=0")
            report.refined = RatioReport(
                "disk-refined", dict(params), grid, value,
                (1.0 - grid ** 2) ** alpha * grid ** beta)
        return report
    raise ValueError(f"unknown integral family {which!r}")
