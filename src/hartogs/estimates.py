"""Sphere moments and the weighted kernel integrals behind every boundedness bound.

Two families of radially symmetric integrals are evaluated here. Both
depend on r = |w| only and are Gauss hypergeometric functions of r^2
(Forelli-Rudin; Rudin, Function Theory in the Unit Ball of C^n, 1.4.10):

  ball (dimension k, weight exponent alpha > -1):
      integral over the unit ball of (1-|eta|^2)^alpha / |1 - <w,eta>|^(k+1)
      = k! G(alpha+1)/G(k+alpha+1) 2F1((k+1)/2, (k+1)/2; k+alpha+1; r^2)

  disk (weight exponents alpha > -1, beta > -2):
      integral over the punctured disk of
      (1-|eta|^2)^alpha |eta|^beta / |1 - w conj(eta)|^2
      = B(alpha+1, beta/2+1) 2F1(1, beta/2+1; alpha+beta/2+2; r^2)

The closed forms (`weighted_ball_integral`, `weighted_disk_integral`) are
the evaluators; they take an array of radii in one call. Their 2F1s come
from `special.hyp2f1`, which continues F along the hypergeometric equation
toward r = 1 with numpy alone; c - a - b = alpha in both families, and the
same path serves integer, near-integer and non-integer alpha, for every k.
The positive-term series of the same 2F1s (`*_series`), with a stopping rule
that bounds the geometric tail, evaluates them only past the reach of
`hyp2f1` (c > HYP2F1_MAX_C), and is the reference the tests compare with.
For -1 < alpha < 0 both integrals stay comparable to (1-r^2)^alpha up to
constants; `asymptotic_ratio_check` measures the constants on a grid. The
disk integral also has an exact one-dimensional radial form (angular average
of the kernel is 1/(1 - r^2 rho^2)), evaluated by fixed Gauss-Jacobi rules
(`special.gauss_jacobi`) as an independent route and as the truncated
evaluator for divergent exponents.

The Monte-Carlo estimators draw the squared radius rho = |eta|^2 from the
Kumaraswamy(a, b) law, whose inverse CDF (1 - (1-u)^(1/b))^(1/a) is closed
form (a = k or beta/2+1, b = alpha+1). Its density a b rho^(a-1)
(1-rho^a)^(b-1) has the same endpoint behaviour as the Beta(a, b) radial law
of the integrand, so the weight left to average, q^alpha with
q = (1-rho)/(1-rho^a), stays between 1 and a^-alpha. The disk estimator
draws 1 - rho instead where that bound is large (beta < 0 < alpha). Every
weight is at most max(1, a, alpha+1), so the variance is finite for every
alpha > -1 and beta > -2.

Each sample reads the uniforms of one ball or disk point (2k+1 or 2 per
sample, the layout of `sampling`), so results stay seeded, prefix-stable and
independent of the worker count, but it computes one angle, not one per
coordinate. The point measures are unitarily invariant, so the kernel factor
|1 - <eta, w>| has the law of |1 - c exp(2 pi i u)| with c = |w| |eta_1|
and u the phase uniform of eta_1; |eta_1| comes from the Box-Muller radii,
and (1-c)^2 + 4c sin^2(pi u) gives the squared modulus, with
sin^2(pi u) = t^2/(1+t^2) from one tan, t = tan(pi u) (a SIMD loop in numpy,
where sin is scalar libm). Every sample has the law of the full point's
sample, and an estimate depends on w only through |w|.

Exponents must be finite: alpha = inf or beta = nan is a ValueError, as is
an exponent whose Gamma function overflows.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import mc, sampling
from .config import DEFAULT_CONFIG, NumericConfig
from .special import (HYP2F1_MAX_C, NonConvergenceError, gauss_jacobi, hyp2f1, int_power,
                      log_beta, log_factorial)

MultiIndex = Sequence[int]


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
    """Monte-Carlo oracle for `sphere_moment`; returns (estimate, stderr).

    Each sample draws the 2k uniforms of one `sampling.sphere_points` row, so
    the draws are those of a sphere point, but the observable
    |xi^nu|^2 = prod_j (|xi_j|^2)^nu_j needs only the moduli: they come from
    the Box-Muller radii alone (`sampling.sphere_moduli_sq_from_uniform`), and
    the powers are integer powers, so no angle, norm or float power is
    computed.
    """
    nu = _check_multi_index(k, nu)

    def values(rng: np.random.Generator, count: int) -> np.ndarray:
        t = sampling.sphere_moduli_sq_from_uniform(
            rng.random((count, sampling.sphere_draws_per_point(k))), k)
        out = np.ones(count)
        for j, e in enumerate(nu):
            if e:
                out *= int_power(t[:, j], e)
        return out

    return mc.mc_mean(values, cfg.mc_samples, cfg.seed, cfg.chunk_size, cfg.workers)


# --- closed forms (Forelli-Rudin) and the series reference route ----------


def _check_alpha(alpha: float) -> None:
    if not -1.0 < alpha < math.inf:  # also false for NaN
        raise ValueError(f"alpha must exceed -1 and be finite (the integral diverges "
                         f"at alpha <= -1), got {alpha}")


def _check_beta(beta: float) -> None:
    if not -2.0 < beta < math.inf:  # also false for NaN
        raise ValueError(f"beta must exceed -2 and be finite (the integral diverges "
                         f"at beta <= -2), got {beta}")


def _ball_params(k: int, alpha: float) -> tuple[float, float]:
    """Checked ball parameters: (h, c_0) with h = (k+1)/2 and
    c_0 = k! G(alpha+1)/G(k+alpha+1) = k B(k, alpha+1), the value at r = 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_alpha(alpha)
    return (k + 1) / 2.0, k * math.exp(log_beta(float(k), alpha + 1.0))


def _disk_params(alpha: float, beta: float) -> tuple[float, float]:
    """Checked disk parameters: (b, c_0) with b = beta/2+1 and
    c_0 = B(alpha+1, b), the value at r = 0."""
    _check_alpha(alpha)
    _check_beta(beta)
    b = beta / 2.0 + 1.0
    return b, math.exp(log_beta(alpha + 1.0, b))


def _radii(r) -> np.ndarray:
    """r as a float array, every entry checked to lie in [0, 1)."""
    radii = np.asarray(r, dtype=float)
    outside = ~((radii >= 0.0) & (radii < 1.0))
    if outside.any():
        raise ValueError(f"radius must lie in [0, 1), got {radii[outside].flat[0]}")
    return radii


def _like(r, values: np.ndarray):
    """A float for scalar r, the array of values otherwise."""
    return float(values) if np.ndim(r) == 0 else values


def _finite(values: np.ndarray, radii: np.ndarray, family: str, **params) -> np.ndarray:
    """values, checked to be finite: a closed form that lost every digit
    raises here instead of being printed."""
    if np.isfinite(values).all():
        return values
    bad = ~np.isfinite(values)
    where = ", ".join(f"{key}={val}" for key, val in params.items())
    raise ValueError(f"the closed-form {family} integral at {where}, r={radii[bad].flat[0]} "
                     f"is not finite (got {values[bad].flat[0]})")


def _series_at(series, radii: np.ndarray) -> np.ndarray:
    """The series route at every radius, in the shape of radii."""
    return np.array([series(x) for x in radii.flat]).reshape(radii.shape)


def weighted_ball_integral(k: int, alpha: float, r):
    """Weighted ball integral at radii r in [0, 1), in closed form:
    k! G(alpha+1)/G(k+alpha+1) 2F1((k+1)/2, (k+1)/2; k+alpha+1; r^2).

    A value that is not finite is a ValueError: for k in the thousands the
    2F1 passes float64's largest value near r = 1 (at alpha = -0.5, from
    r = 0.967 at k = 1500 and r = 0.733 at k = 4000, where the integral
    nears 1e305). Where k+alpha+1 exceeds the reach of `hyp2f1`, each radius
    goes to `weighted_ball_integral_series` instead, which raises
    NonConvergenceError where its term cap is hit and ValueError where its
    partial sums overflow float64.
    Scalar r gives a float, an array of radii an array of the same shape
    whose entries equal the scalar calls bit for bit.
    """
    half, scale = _ball_params(k, alpha)
    radii = _radii(r)
    c = k + alpha + 1.0
    if c > HYP2F1_MAX_C:
        values = _series_at(functools.partial(weighted_ball_integral_series, k, alpha), radii)
    else:
        values = _finite(scale * hyp2f1(half, half, c, radii * radii),
                         radii, "ball", k=k, alpha=alpha)
    return _like(r, values)


def weighted_disk_integral(alpha: float, beta: float, r):
    """Weighted disk integral at radii r in [0, 1), in closed form:
    B(alpha+1, beta/2+1) 2F1(1, beta/2+1; alpha+beta/2+2; r^2).

    Where alpha+beta/2+2 exceeds the reach of `hyp2f1`, each radius goes to
    `weighted_disk_integral_series` instead (NonConvergenceError where its
    term cap is hit).
    Scalar r gives a float, an array of radii an array of the same shape
    whose entries equal the scalar calls bit for bit.
    """
    b, scale = _disk_params(alpha, beta)
    radii = _radii(r)
    c = alpha + b + 1.0
    if c > HYP2F1_MAX_C:
        values = _series_at(functools.partial(weighted_disk_integral_series, alpha, beta), radii)
    else:
        values = _finite(scale * hyp2f1(1.0, b, c, radii * radii),
                         radii, "disk", alpha=alpha, beta=beta)
    return _like(r, values)


_SERIES_BLOCK = 1024


def _series_sum(first: float, ratio, r: float, rel_tol: float, max_terms: int,
                label: str) -> float:
    """Sum of the positive series sum_m c_m r^(2m), with c_0 = first and
    c_(m+1)/c_m = ratio(m) for an array of m.

    For both families sup_(j >= m) ratio(j) <= Q = max(ratio(m), 1). The
    disk ratio (m+b)/(m+b+alpha+1) rises to 1 from below. The ball ratio
    q(m) = (m+h)^2/((m+1)(m+c)), c = k+alpha+1, h = (k+1)/2, tends to 1,
    and d/dm log q has the sign of (1+alpha) m + 2c - h(c+1), which grows
    with m: q falls while that is negative and then rises to 1 from below,
    so on [m, inf) it stays below max(q(m), 1). With x = r^2 and Qx < 1 the
    tail after the term t_m is therefore at most t_m Qx/(1-Qx); the sum
    stops at the first term where that bound is below rel_tol times the
    partial sum. (The ball ratio falls to 1 only at m = (h^2-c)/(1+alpha),
    past any term cap for k in the thousands.) Partial sums that overflow
    float64 raise a ValueError.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"series evaluation requires 0 <= r < 1, got {r}")
    if not 0.0 < rel_tol < 1.0:  # also false for NaN
        raise ValueError(f"series tolerance must be finite and positive, and below 1, "
                         f"got {rel_tol}")
    if max_terms < 1:
        raise ValueError(f"series term cap must be >= 1, got {max_terms}")
    x = r * r
    if x == 0.0:
        return first
    total, term = 0.0, first       # term is t_start, the first term of the block
    for start in range(0, max_terms, _SERIES_BLOCK):
        m = np.arange(start, min(start + _SERIES_BLOCK, max_terms), dtype=float)
        q = ratio(m)
        steps = q * x
        with np.errstate(over="ignore", invalid="ignore"):
            terms = term * np.concatenate(([1.0], np.cumprod(steps[:-1])))
            qx = np.maximum(q, 1.0) * x
            done = (qx < 1.0) & (terms * (qx / (1.0 - qx))
                                 < rel_tol * (total + np.cumsum(terms)))
            stop = int(done.argmax()) if done.any() else terms.size - 1
            total += float(terms[:stop + 1].sum())
        if not math.isfinite(total):
            raise ValueError(f"{label} series overflows float64 at r={r}: its partial sum "
                             f"passes {np.finfo(float).max:.3g} within {start + stop + 1} terms")
        if done.any():
            return total
        term = float(terms[-1] * steps[-1])
    raise NonConvergenceError(
        f"{label} series did not converge within {max_terms} terms at r={r}",
        total, max_terms)


def weighted_ball_integral_series(k: int, alpha: float, r: float,
                                  rel_tol: float = 1e-12,
                                  max_terms: int = 1_000_000) -> float:
    """Positive-term series for the weighted ball integral at radius r in
    [0, 1): the reference route for `weighted_ball_integral`.

    The coefficient of r^(2m) is c_m = k! G(alpha+1) G(m+h)^2 /
    (G(h)^2 G(m+1) G(m+k+alpha+1)) with h = (k+1)/2, built by the ratio
    c_(m+1)/c_m = (m+h)^2 / ((m+1)(m+k+alpha+1)).
    """
    half, first = _ball_params(k, alpha)
    return _series_sum(first,
                       lambda m: (m + half) ** 2 / ((m + 1.0) * (m + k + alpha + 1.0)),
                       r, rel_tol, max_terms, "ball")


def weighted_disk_integral_series(alpha: float, beta: float, r: float,
                                  rel_tol: float = 1e-12,
                                  max_terms: int = 1_000_000) -> float:
    """Positive-term series for the weighted disk integral at radius r in
    [0, 1): the reference route for `weighted_disk_integral`.

    The coefficient of r^(2m) is B(alpha+1, m+b) with b = beta/2+1, built by
    the ratio c_(m+1)/c_m = (m+b) / (m+b+alpha+1).
    """
    b, first = _disk_params(alpha, beta)
    return _series_sum(first,
                       lambda m: (m + b) / (m + b + alpha + 1.0),
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


def _kernel_factor(c: np.ndarray, u: np.ndarray, power: int) -> np.ndarray:
    """|1 - c exp(2 pi i u)|^power for moduli c >= 0 and uniforms u.

    The squared modulus is written (1-c)^2 + 4c sin^2(pi u), with no
    cancellation as c -> 1 and u -> 0, and sin^2(pi u) = t^2/(1+t^2) from
    one tan per sample, t = tan(pi u); near u = 1/2, t is about 1e16 and t^2
    stays far from overflow. An odd power is an integer power of it times
    one square root; no abs or float power.
    """
    t = np.multiply(np.pi, u)
    np.tan(t, out=t)
    t *= t
    s = np.add(t, 1.0)
    np.divide(t, s, out=s)                 # sin^2(pi u)
    s *= 4.0 * c
    d = 1.0 - c
    s += d * d
    out = int_power(s, power // 2)
    if power % 2:
        out *= np.sqrt(s)
    return out


def weighted_ball_integral_mc(k: int, alpha: float, w,
                              cfg: NumericConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Monte-Carlo estimate of the weighted ball integral at the point w.

    The squared radius is drawn from Kumaraswamy(k, alpha+1), which has the
    endpoint behaviour of the radial law Beta(k, alpha+1) of the integrand:
    each sample averages q^alpha / (alpha+1) times the kernel factor, with
    q = (1-rho)/(1-rho^k) in [1/k, 1]. The weight is bounded, so the
    variance stays finite for every alpha > -1 (plain uniform sampling has
    infinite variance for alpha <= -1/2 and its error bars are meaningless
    there).

    Each sample consumes the 2k+1 uniforms of one ball point (2k for the
    direction xi, one for rho), but computes one angle, not k: the law of
    eta = sqrt(rho) xi is unitarily invariant, so <eta, w> has the law of
    |w| sqrt(rho) xi_1, and the kernel factor needs only |xi_1|^2 (from the
    Box-Muller radii, `sampling.sphere_moduli_sq_from_uniform`) and the
    phase 2 pi u_1 of xi_1. Each sample has the law of the full point's
    sample, and the estimate depends on w only through |w|.
    """
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    if w.shape != (k,):
        raise ValueError(f"w must lie in C^{k}")
    if not np.linalg.norm(w) < 1.0:  # also true for NaN
        raise ValueError("w must lie in the open unit ball")
    _check_alpha(alpha)

    def values(rng: np.random.Generator, count: int) -> np.ndarray:
        return _ball_mc_samples(k, alpha, w, rng.random((count, 2 * k + 1)))

    return mc.mc_mean(values, cfg.mc_samples, cfg.seed, cfg.chunk_size, cfg.workers)


def _ball_mc_samples(k: int, alpha: float, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The samples `weighted_ball_integral_mc` averages, one per row of u:
    q^alpha / (alpha+1) / |1 - c exp(2 pi i u_1)|^(k+1) with
    c = |w| sqrt(rho) |xi_1|."""
    xi1_sq = sampling.sphere_moduli_sq_from_uniform(u[:, :2 * k], k)[:, 0]
    rho, q = _kumaraswamy_radius(float(k), alpha + 1.0, u[:, 2 * k])
    c = np.linalg.norm(w) * np.sqrt(rho * xi1_sq)
    return q ** alpha / (alpha + 1.0) / _kernel_factor(c, u[:, 1], k + 1)


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
    Every weight is then at most max(1, a, alpha+1).

    Each sample consumes the 2 uniforms of one disk point (radius, phase).
    The law of eta is rotation invariant, so w conj(eta) has the law of
    |w| sqrt(rho) exp(2 pi i u_1): the kernel factor takes one angle and no
    complex product, and the estimate depends on w only through |w|.
    """
    w = complex(np.asarray(w, dtype=complex).reshape(()))
    if not abs(w) < 1.0:  # also true for NaN
        raise ValueError("w must lie in the open unit disk")
    _check_alpha(alpha)
    _check_beta(beta)
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
        c = abs(w) * np.sqrt(rho)
        return weight / (a * (alpha + 1.0)) / _kernel_factor(c, u[:, 1], 2)

    return mc.mc_mean(values, cfg.mc_samples, cfg.seed, cfg.chunk_size, cfg.workers)


_QUAD_NODES = 64


def weighted_disk_integral_quad(alpha: float, beta: float, r,
                                inner_cutoff: float = 0.0):
    """Radial quadrature route for the weighted disk integral at radii r.

    The angular average of |1 - w conj(eta)|^(-2) is 1/(1 - |w|^2 |eta|^2);
    with s = |eta|^2 and x = r^2 this leaves
    int_(c^2)^1 (1-s)^alpha s^(beta/2) / (1 - x s) ds, c the inner cutoff. A
    positive cutoff makes divergent exponents (beta <= -2) finite, which is
    how endpoint violations are quantified.

    The rule is fixed and vectorized over r (a scalar r gives a float):
      * on [a, 1] with a = max(c^2, 1/2), Gauss-Jacobi nodes absorb
        (1-s)^alpha. For x >= 1/2 the pole of 1/(1 - x s) at s = 1/x nears
        the interval; its part g(1/x)/(1 - x s), g(s) = s^(beta/2), is
        integrated in closed form, and the nodes see only the smooth
        difference quotient (g(s) - g(1/x))/(1 - x s);
      * on [c^2, 1/2], Gauss-Legendre in u = log s when c > 0 (the factor
        s^(beta/2+1) is then an exponential in u), or Gauss-Jacobi nodes
        absorbing s^(beta/2) when c = 0.
    """
    radii = _radii(r)
    _check_alpha(alpha)
    if not -math.inf < beta < math.inf:  # also false for NaN
        raise ValueError(f"beta must be finite, got {beta}")
    if not 0.0 <= inner_cutoff < 1.0:
        raise ValueError("inner cutoff must lie in [0, 1)")
    if beta <= -2.0 and inner_cutoff <= 0.0:
        raise ValueError("beta <= -2 diverges; supply a positive inner cutoff")
    # 1-d even for scalar r: numpy's scalar power rounds differently from its
    # array loop, and array results must equal the scalar calls bit for bit
    x = np.ravel(radii * radii)
    h = beta / 2.0
    low = inner_cutoff ** 2
    a = max(low, 0.5)
    span = 1.0 - a

    # [a, 1]: s = 1 - span (1-y)/2, so (1-s)^alpha ds = (span/2)^(alpha+1) (1-y)^alpha dy
    y, wy = gauss_jacobi(_QUAD_NODES, alpha, 0.0)
    s = 1.0 - 0.5 * span * (1.0 - y)
    g_pole = np.where(x >= 0.5, np.maximum(x, 0.5) ** -h, 0.0)
    xs = x[:, None]
    smooth = (wy * (s ** h - g_pole[:, None]) / (1.0 - xs * s)).sum(axis=-1)
    # int_a^1 (1-s)^alpha / (1 - x s) ds, a 2F1 after v = 1-s and Pfaff's transformation
    pole = (span ** (alpha + 1.0) / ((alpha + 1.0) * (1.0 - a * x))
            * hyp2f1(1.0, 1.0, alpha + 2.0, span * x / (1.0 - a * x)))
    total = (0.5 * span) ** (alpha + 1.0) * smooth + g_pole * pole

    if low < a:
        if low > 0.0:
            u, wu = gauss_jacobi(_QUAD_NODES, 0.0, 0.0)
            log_lo, log_hi = math.log(low), math.log(a)
            s = np.exp(log_lo + 0.5 * (log_hi - log_lo) * (u + 1.0))
            f = (1.0 - s) ** alpha * s ** (h + 1.0) / (1.0 - xs * s)
            total = total + 0.5 * (log_hi - log_lo) * (wu * f).sum(axis=-1)
        else:
            # s = a (1+y)/2, so s^h ds = (a/2)^(h+1) (1+y)^h dy
            y, wy = gauss_jacobi(_QUAD_NODES, 0.0, h)
            s = 0.5 * a * (1.0 + y)
            f = (1.0 - s) ** alpha / (1.0 - xs * s)
            total = total + (0.5 * a) ** (h + 1.0) * (wy * f).sum(axis=-1)
    return _like(r, total.reshape(radii.shape))


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
    def max_ratio(self) -> float:
        return float(self.ratio.max())

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["r", "value", "envelope", "ratio"])
        for r, v, e, q in zip(self.r, self.value, self.envelope, self.ratio):
            writer.writerow([f"{r:.12g}", f"{v:.12g}", f"{e:.12g}", f"{q:.12g}"])
        return buf.getvalue()


def asymptotic_ratio_check(which: str, params: dict, grid) -> RatioReport:
    """Evaluate integral/envelope on a radius grid.

    which="ball": params k, alpha; envelope (1-r^2)^alpha.
    which="disk": params alpha, beta; envelope (1-r^2)^alpha, plus the
    refined envelope (1-r^2)^alpha r^beta attached when beta <= 0 and the
    grid avoids r = 0, where r^beta is not defined.

    The integrals come from the closed forms, one call for the whole grid.
    """
    grid = np.asarray(grid, dtype=float)
    alpha = float(params["alpha"])
    if not -1.0 < alpha < 0.0:
        raise ValueError("the envelope comparison needs -1 < alpha < 0")
    if which == "ball":
        value = weighted_ball_integral(int(params["k"]), alpha, grid)
    elif which == "disk":
        beta = float(params["beta"])
        value = weighted_disk_integral(alpha, beta, grid)
    else:
        raise ValueError(f"unknown integral family {which!r}")
    envelope = (1.0 - grid ** 2) ** alpha
    report = RatioReport(which, dict(params), grid, value, envelope)
    if which == "disk" and beta <= 0.0 and not np.any(grid == 0.0):
        report.refined = RatioReport("disk-refined", dict(params), grid, value,
                                     envelope * grid ** beta)
    return report
