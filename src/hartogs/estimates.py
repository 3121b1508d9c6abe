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
the evaluators: one `special.hyp2f1` call for an array of radii, continuing
F along the hypergeometric equation toward r = 1 with numpy alone, for every
k and alpha (c - a - b = alpha in both families) up to the cap on c. The
positive-term series of the same 2F1s (`*_series`), with a stopping rule
that bounds the geometric tail, are only the tests' reference.
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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import mc, sampling
from .config import DEFAULT_CONFIG, NumericConfig
from .special import gauss_jacobi, hyp2f1, int_power, log_beta, log_factorial, lone_point_as_row

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
        u = rng.random((count, sampling.sphere_draws_per_point(k)))
        t = sampling.sphere_moduli_sq_from_uniform(u, k)
        out = np.ones(count)
        for j, e in enumerate(nu):
            if e:
                out *= int_power(t[:, j], e)
        return out

    return mc.mc_mean(values, cfg.mc_samples, cfg.seed, cfg.chunk_size, cfg.workers)


# --- closed forms (Forelli-Rudin) and the series reference ---------------


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


def _finite(values: np.ndarray, radii: np.ndarray, family: str, **params) -> np.ndarray:
    """values, checked to be finite: a closed form that lost every digit
    raises here instead of being printed."""
    if np.isfinite(values).all():
        return values
    bad = ~np.isfinite(values)
    where = ", ".join(f"{key}={val}" for key, val in params.items())
    raise ValueError(f"the closed-form {family} integral at {where}, r={radii[bad].flat[0]} "
                     f"is not finite (got {values[bad].flat[0]})")


@lone_point_as_row(r=0)
def weighted_ball_integral(k: int, alpha: float, r):
    """Weighted ball integral at radii r in [0, 1), in closed form:
    k! G(alpha+1)/G(k+alpha+1) 2F1((k+1)/2, (k+1)/2; k+alpha+1; r^2).

    One `hyp2f1` call serves every k and alpha up to its cap on c =
    k+alpha+1. A value that is not finite is a ValueError naming its radius:
    for k in the thousands the 2F1 passes float64's largest value before
    r = 1 (at alpha = -0.5, from r = 0.967, 0.733 and 0.204 at k = 1500,
    4000 and 65000, where the integral nears 1e302 to 1e305).
    """
    half, scale = _ball_params(k, alpha)
    radii = _radii(r)
    return _finite(scale * hyp2f1(half, half, k + alpha + 1.0, radii * radii),
                   radii, "ball", k=k, alpha=alpha)


@lone_point_as_row(r=0)
def weighted_disk_integral(alpha: float, beta: float, r):
    """Weighted disk integral at radii r in [0, 1), in closed form:
    B(alpha+1, beta/2+1) 2F1(1, beta/2+1; alpha+beta/2+2; r^2).

    One `hyp2f1` call serves every alpha and beta up to its cap on c.
    """
    b, scale = _disk_params(alpha, beta)
    radii = _radii(r)
    return _finite(scale * hyp2f1(1.0, b, alpha + b + 1.0, radii * radii),
                   radii, "disk", alpha=alpha, beta=beta)


class NonConvergenceError(ArithmeticError):
    """Series hit its term cap before meeting the relative tolerance."""

    def __init__(self, message: str, partial_sum: float, terms: int):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.terms = terms


_SERIES_BLOCK = 1024
_SERIES_REL_TOL = 1e-12
_SERIES_MAX_TERMS = 1_000_000


def _series_sum(first: float, ratio, r: float, label: str) -> float:
    """Sum of the positive series sum_m c_m r^(2m), with c_0 = first and
    c_(m+1)/c_m = ratio(m) for an array of m.

    For both families sup_(j >= m) ratio(j) <= Q = max(ratio(m), 1). The
    disk ratio (m+b)/(m+b+alpha+1) rises to 1 from below. The ball ratio
    q(m) = (m+h)^2/((m+1)(m+c)), c = k+alpha+1, h = (k+1)/2, tends to 1,
    and d/dm log q has the sign of (1+alpha) m + 2c - h(c+1), which grows
    with m: q falls while that is negative and then rises to 1 from below,
    so on [m, inf) it stays below max(q(m), 1). With x = r^2 and Qx < 1 the
    tail after the term t_m is therefore at most t_m Qx/(1-Qx); the sum
    stops at the first term where that bound is below _SERIES_REL_TOL times
    the partial sum, or raises NonConvergenceError after _SERIES_MAX_TERMS
    terms (the ball ratio falls to 1 only at m = (h^2-c)/(1+alpha), past the
    cap for k in the thousands). Partial sums that overflow raise ValueError.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"series evaluation requires 0 <= r < 1, got {r}")
    x = r * r
    if x == 0.0:
        return first
    total, term = 0.0, first       # term is t_start, the first term of the block
    for start in range(0, _SERIES_MAX_TERMS, _SERIES_BLOCK):
        m = np.arange(start, min(start + _SERIES_BLOCK, _SERIES_MAX_TERMS), dtype=float)
        q = ratio(m)
        steps = q * x
        with np.errstate(over="ignore", invalid="ignore"):
            terms = term * np.concatenate(([1.0], np.cumprod(steps[:-1])))
            qx = np.maximum(q, 1.0) * x
            done = (qx < 1.0) & (terms * (qx / (1.0 - qx))
                                 < _SERIES_REL_TOL * (total + np.cumsum(terms)))
            stop = int(done.argmax()) if done.any() else terms.size - 1
            total += float(terms[:stop + 1].sum())
        if not math.isfinite(total):
            raise ValueError(f"{label} series overflows float64 at r={r}: its partial sum "
                             f"passes {np.finfo(float).max:.3g} within {start + stop + 1} terms")
        if done.any():
            return total
        term = float(terms[-1] * steps[-1])
    raise NonConvergenceError(
        f"{label} series did not converge within {_SERIES_MAX_TERMS} terms at r={r}",
        total, _SERIES_MAX_TERMS)


def weighted_ball_integral_series(k: int, alpha: float, r: float) -> float:
    """Positive-term series for the weighted ball integral at radius r in
    [0, 1): the tests' reference for `weighted_ball_integral`.

    The coefficient of r^(2m) is c_m = k! G(alpha+1) G(m+h)^2 /
    (G(h)^2 G(m+1) G(m+k+alpha+1)) with h = (k+1)/2, built by the ratio
    c_(m+1)/c_m = (m+h)^2 / ((m+1)(m+k+alpha+1)).
    """
    half, first = _ball_params(k, alpha)
    return _series_sum(first,
                       lambda m: (m + half) ** 2 / ((m + 1.0) * (m + k + alpha + 1.0)),
                       r, "ball")


def weighted_disk_integral_series(alpha: float, beta: float, r: float) -> float:
    """Positive-term series for the weighted disk integral at radius r in
    [0, 1): the tests' reference for `weighted_disk_integral`.

    The coefficient of r^(2m) is B(alpha+1, m+b) with b = beta/2+1, built by
    the ratio c_(m+1)/c_m = (m+b) / (m+b+alpha+1).
    """
    b, first = _disk_params(alpha, beta)
    return _series_sum(first,
                       lambda m: (m + b) / (m + b + alpha + 1.0),
                       r, "disk")


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
    s *= np.multiply(4.0, c, out=t)
    d = np.subtract(1.0, c, out=t)
    s += np.multiply(d, d, out=d)
    out = int_power(s, power // 2)
    if power % 2:
        out *= np.sqrt(s, out=t)
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
        return _ball_mc_samples(k, alpha, w, rng.random((count, sampling.ball_draws_per_point(k))))

    return mc.mc_mean(values, cfg.mc_samples, cfg.seed, cfg.chunk_size, cfg.workers)


def _ball_mc_samples(k: int, alpha: float, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The samples `weighted_ball_integral_mc` averages, one per row of u:
    q^alpha / (alpha+1) / |1 - c exp(2 pi i u_1)|^(k+1) with
    c = |w| sqrt(rho) |xi_1|."""
    xi1_sq = sampling.sphere_moduli_sq_from_uniform(u[:, :2 * k], k)[:, 0]
    rho, q = _kumaraswamy_radius(float(k), alpha + 1.0, u[:, 2 * k])
    c = np.sqrt(np.multiply(rho, xi1_sq, out=rho), out=rho)
    c *= np.linalg.norm(w)
    q **= alpha
    q /= alpha + 1.0
    return np.divide(q, _kernel_factor(c, u[:, 1], k + 1), out=q)


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
        u = rng.random((count, sampling.disk_draws_per_point()))
        if reflect:
            t, weight = _kumaraswamy_radius(alpha + 1.0, a, u[:, 0])
            rho = np.subtract(1.0, t, out=t)
            weight **= a - 1.0
        else:
            rho, weight = _kumaraswamy_radius(a, alpha + 1.0, u[:, 0])
            weight **= alpha
        c = np.sqrt(rho, out=rho)
        c *= abs(w)
        weight /= a * (alpha + 1.0)
        return np.divide(weight, _kernel_factor(c, u[:, 1], 2), out=weight)

    return mc.mc_mean(values, cfg.mc_samples, cfg.seed, cfg.chunk_size, cfg.workers)


_QUAD_NODES = 64
# Below s = _FLAT_S / (|alpha| + 1), the factor (1-s)^alpha / (1 - x s) of the
# quadrature route's integrand, 1 + (x - alpha) s + O(s^2) with
# |x - alpha| <= |alpha| + 1, is 1 to rounding.
_FLAT_S = 2.0 ** -54


def _power_integral(h: float, lo: float, hi: float) -> float:
    """int s^h ds over [lo, hi], 0 < lo < hi: the larger of lo^(h+1) and
    hi^(h+1) times (1 - (lo/hi)^|h+1|) / |h+1|, inf with no warning where
    that power passes float64."""
    g, log_ratio = float(h) + 1.0, math.log(hi / lo)
    if g == 0.0:
        return log_ratio
    try:  # Python floats: an overflow raises, where numpy's would warn
        power = float(lo if g < 0.0 else hi) ** g
    except OverflowError:
        return math.inf
    return power * (-math.expm1(-abs(g) * log_ratio) / abs(g))


@lone_point_as_row(r=0)
def weighted_disk_integral_quad(alpha: float, beta: float, r,
                                inner_cutoff: float = 0.0):
    """Radial quadrature route for the weighted disk integral at radii r.

    The angular average of |1 - w conj(eta)|^(-2) is 1/(1 - |w|^2 |eta|^2);
    with s = |eta|^2 and x = r^2 this leaves
    int_(c^2)^1 (1-s)^alpha s^(beta/2) / (1 - x s) ds, c the inner cutoff. A
    positive cutoff makes divergent exponents (beta <= -2) finite, which is
    how endpoint violations are quantified; there c must be at least
    1.4917e-154, so that c^2 is a normal double.

    The rule is fixed and vectorized over r (a scalar r gives a float):
      * on [a, 1] with a = max(c^2, 1/2), Gauss-Jacobi nodes absorb
        (1-s)^alpha. For x >= 1/2 the pole of 1/(1 - x s) at s = 1/x nears
        the interval; its part g(1/x)/(1 - x s), g(s) = s^(beta/2), is
        integrated in closed form, and the nodes see only the smooth
        difference quotient (g(s) - g(1/x))/(1 - x s);
      * on [c^2, 1/2], Gauss-Legendre in u = log s when c > 0 (the factor
        s^(beta/2+1) is then an exponential in u), or Gauss-Jacobi nodes
        absorbing s^(beta/2) when c = 0. Where c^2 lies below
        _FLAT_S / (|alpha| + 1), the rest of the integrand is 1 to rounding
        there, so int s^(beta/2) ds is taken in closed form up to that point
        and the nodes cover at most 37 + ln(|alpha| + 1) units of u at any
        cutoff. Where a node's s^(beta/2+1) passes float64, the node powers
        are taken relative to the largest, whose log scales their sum; that
        part is inf, with no warning, only where it passes float64 itself.
    """
    radii = _radii(r)
    _check_alpha(alpha)
    if not -math.inf < beta < math.inf:  # also false for NaN
        raise ValueError(f"beta must be finite, got {beta}")
    if not 0.0 <= inner_cutoff < 1.0:
        raise ValueError("inner cutoff must lie in [0, 1)")
    if beta <= -2.0 and not inner_cutoff ** 2 >= np.finfo(float).tiny:
        # below that, c^2 is subnormal (digits lost) or 0 (the integral diverges)
        raise ValueError("beta <= -2 diverges; the inner cutoff must be at least "
                         f"1.4917e-154, so that its square is a normal double, got {inner_cutoff}")
    x = radii * radii
    h = beta / 2.0
    low = inner_cutoff ** 2
    a = max(low, 0.5)
    span = 1.0 - a

    # [a, 1]: s = 1 - span (1-y)/2, so (1-s)^alpha ds = (span/2)^(alpha+1) (1-y)^alpha dy
    y, wy = gauss_jacobi(_QUAD_NODES, alpha, 0.0)
    s = 1.0 - 0.5 * span * (1.0 - y)
    g_pole = np.where(x >= 0.5, np.maximum(x, 0.5) ** -h, 0.0)
    xs = x[..., None]
    smooth = (wy * (s ** h - g_pole[..., None]) / (1.0 - xs * s)).sum(axis=-1)
    # int_a^1 (1-s)^alpha / (1 - x s) ds, a 2F1 after v = 1-s and Pfaff's transformation
    pole = (span ** (alpha + 1.0) / ((alpha + 1.0) * (1.0 - a * x))
            * hyp2f1(1.0, 1.0, alpha + 2.0, span * x / (1.0 - a * x)))
    total = (0.5 * span) ** (alpha + 1.0) * smooth + g_pole * pole

    if low < a:
        if low > 0.0:
            flat = _FLAT_S / (abs(alpha) + 1.0)
            if low < flat:
                total = total + _power_integral(h, low, flat)
            u, wu = gauss_jacobi(_QUAD_NODES, 0.0, 0.0)
            log_lo, log_hi = math.log(max(low, flat)), math.log(a)
            s = np.exp(log_lo + 0.5 * (log_hi - log_lo) * (u + 1.0))
            with np.errstate(over="ignore"):
                power = s ** (h + 1.0)
            log_scale = 0.0  # the log of a factor taken out of every node power
            if np.isinf(power).any():
                log_power = (h + 1.0) * np.log(s)
                log_scale = log_power.max()
                power = np.exp(log_power - log_scale)
            f = (1.0 - s) ** alpha * power / (1.0 - xs * s)
            part = 0.5 * (log_hi - log_lo) * (wu * f).sum(axis=-1)
            if log_scale:
                with np.errstate(over="ignore"):  # inf where the part passes float64
                    part = np.exp(np.log(part) + log_scale)
            total = total + part
        else:
            # s = a (1+y)/2, so s^h ds = (a/2)^(h+1) (1+y)^h dy
            y, wy = gauss_jacobi(_QUAD_NODES, 0.0, h)
            s = 0.5 * a * (1.0 + y)
            f = (1.0 - s) ** alpha / (1.0 - xs * s)
            total = total + (0.5 * a) ** (h + 1.0) * (wy * f).sum(axis=-1)
    return total


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


def asymptotic_ratio_check(which: str, params: dict, grid) -> RatioReport:
    """Evaluate integral/envelope on a radius grid.

    which="ball": params k, alpha; envelope (1-r^2)^alpha.
    which="disk": params alpha, beta; envelope (1-r^2)^alpha, plus the
    refined envelope (1-r^2)^alpha r^beta attached when beta <= 0 and the
    grid avoids r = 0, where r^beta is not defined. Where r^beta overflows
    (r near 0 and beta < -1) the refined envelope is inf, with no warning.

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
        with np.errstate(over="ignore"):
            refined_envelope = envelope * grid ** beta
        report.refined = RatioReport("disk-refined", dict(params), grid, value,
                                     refined_envelope)
    return report
