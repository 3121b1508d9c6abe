"""Log-domain Gamma/Beta helpers, integer powers, the Gauss hypergeometric
function, Gauss-Jacobi rules and the series non-convergence error.

Every radial integral in the library reduces to Beta-function values; all of
them are computed as exp(ln B(a, b)) so large arguments never overflow, and
`log_beta` takes lnG(b) - lnG(a+b) for a large b from Stirling series, so the
two large log-Gammas do not cancel. The log-Gamma carries a |relative error|
< 1e-13 contract on the positive axis (checked in the test suite against
Gamma(1/2) = sqrt(pi) and the recurrence Gamma(x+1) = x*Gamma(x)).

`int_power` is the one integer-power routine of the library: kernels,
Jacobians and per-sample Monte-Carlo observables raise to integer exponents by
repeated multiplication, never through the complex logarithm, so there is no
branch ambiguity and no transcendental call per element.

`hyp2f1` evaluates 2F1(a, b; c; x) on [0, 1) for the closed forms of the
weighted integrals, and `gauss_jacobi` builds the rules of their radial
quadrature route; both use numpy alone.

`NonConvergenceError` is raised by the series routes of `estimates` and caught
by the CLI; `estimates` re-exports the same class.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np


class NonConvergenceError(ArithmeticError):
    """Series hit its term cap before meeting the relative tolerance."""

    def __init__(self, message: str, partial_sum: float, terms: int):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.terms = terms


def log_gamma(x: float) -> float:
    """ln Gamma(x) for finite x > 0; a value that overflows raises ValueError
    naming x, so that callers see an invalid argument, not an OverflowError."""
    if not 0.0 < x < math.inf:  # also false for NaN
        raise ValueError(f"log_gamma requires a finite positive argument, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise ValueError(f"log-Gamma overflows at x = {x}") from None


# From this larger argument b on, log_beta takes lnG(b) - lnG(a+b) from
# Stirling series; the first term they leave out is below 1e-15 there.
_STIRLING_MIN = 8.0
# B_2j / (2j (2j-1)), j = 1..7: the Stirling series lnG(z) = (z-1/2) ln z - z
# + ln(2 pi)/2 + sum_j _STIRLING[j-1] z^(1-2j).
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) = lnG(a) + lnG(b) - lnG(a+b) for finite a, b > 0.

    For a large argument b the two log-Gammas grow like b ln b while their
    difference is about a ln b, so subtracting them loses digits (B(0.5, b)
    by 9e-10 at b = 1e6). From _STIRLING_MIN on, that difference comes from
    the difference of Stirling series, written with log1p:

        lnG(b) - lnG(b+a) = -a ln b - [(b+a-1/2) log1p(a/b) - a] + S(b) - S(b+a).
    """
    log_a, log_b = log_gamma(a), log_gamma(b)  # the argument checks and overflow errors
    if max(a, b) < _STIRLING_MIN:
        return log_a + log_b - log_gamma(a + b)
    if a > b:
        a, b, log_a = b, a, log_b
    return (log_a - a * math.log(b) - ((b + a - 0.5) * math.log1p(a / b) - a)
            + (_stirling_tail(b) - _stirling_tail(b + a)))


def _stirling_tail(z: float) -> float:
    """sum_j _STIRLING[j-1] z^(1-2j), the series part of lnG(z) past Stirling's terms."""
    r = 1.0 / z
    total = 0.0
    for coef in reversed(_STIRLING):
        total = total * r * r + coef
    return total * r


def log_factorial(n: int) -> float:
    if n < 0:
        raise ValueError("factorial of a negative integer")
    return log_gamma(n + 1)


def int_power(x, e: int) -> np.ndarray:
    """x**e for an integer e >= 0 by binary repeated multiplication.

    Elementwise on arrays of any dtype. The result is never x itself, so
    callers may update it in place.
    """
    if e < 0:
        raise ValueError("negative exponent")
    base = np.asarray(x)
    result = None
    while True:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if not e:
            break
        base = base * base
    if result is None:
        return np.ones_like(base)
    return result.copy() if result is x else result


def monomial(z, exps) -> np.ndarray:
    """prod_j z_j^e_j over the last axis of z for integer e_j, by `int_power`
    (a negative e_j divides by z_j^-e_j)."""
    z = np.asarray(z)
    out = np.ones(z.shape[:-1], dtype=np.result_type(z, float))
    for j, e in enumerate(exps):
        e = int(e)
        if e > 0:
            out = int_power(z[..., j], e) * out  # operand order: see `kernels`
        elif e < 0:
            out = out / int_power(z[..., j], -e)
    return out


# --- Gauss hypergeometric function on [0, 1) -----------------------------------

# A Taylor expansion is summed until two consecutive terms fall below this
# share of the partial sum.
_TERM_EPS = 2.0 ** -60
# Where the power series at 0 converges at x = 1 within about this many
# terms (c - a - b above about 10 for a, b near 1), that one series serves
# every x in [0, 1) and no band is built.
_WHOLE_SERIES_TERMS = 500
# Bound on theta times the growth rates of the two parasitic modes of a
# band's coefficient recurrence: the ODE's second solution at 0,
# x^(1-c) 2F1(a-c+1, b-c+1; 2-c; x), whose scaled coefficients grow like
# binomial(c-2+j, j) (y/x)^j, and the solution (1-x)^(c-a-b) 2F1(c-a, c-b;
# c-a-b+1; 1-x), whose coefficients binomial(c-a-b, j) alternate. Rounding
# excites both, and a step of theta y sums them with weights about
# exp(theta |c-1| y/x) and (1 + theta)^|c-a-b|. With half steps the error
# stays at rounding level up to a rate times theta of 24 (c = 49 at
# x = 1/2) and reaches 3e-8 at 35 (c = 71) and 7e-8 at 50 (c - a - b = 100),
# so bands halve theta until the bound 16 holds for both.
_STEP_REACH = 16.0
# Largest c accepted: the bands near x = 1/2 shrink like 1/|c-1|, so their
# number grows linearly in c (about 290 bands to x = 1 - 2^-52 at this bound
# for c - a - b below 30, about 700 for c - a - b = 200).
HYP2F1_MAX_C = 4096.0


def hyp2f1(a: float, b: float, c: float, x) -> np.ndarray:
    """Gauss hypergeometric function 2F1(a, b; c; x), elementwise for x in [0, 1).

    Needs a, b > 0 and 0 < c <= HYP2F1_MAX_C (a ValueError otherwise);
    every Taylor coefficient of F is then positive at each point of [0, 1).
    Where the power series at 0 converges at x = 1 within about
    _WHOLE_SERIES_TERMS terms (`_whole_series`), it is summed for every x.
    Otherwise it is summed on [0, 1/2], and past 1/2, F and F' are
    continued toward 1 along the hypergeometric equation
    x(1-x)F'' + [c - (a+b+1)x]F' - abF = 0 by Taylor expansions about
    x_1 = 1/2, x_2, ..., each spanning a fraction theta_i of the remaining
    distance y_i = 1 - x_i (`_step`), with the coefficients scaled as
    g_j = f_j (theta_i y_i)^j:

        g_(j+2) = [(j+a)(j+b) y_i theta_i^2 g_j - (q j + r)(j+1) theta_i g_(j+1)]
                  / (x_i (j+2)(j+1)),
        q = 1 - 2 x_i,  r = c - (a+b+1) x_i.

    Each x is evaluated from the expansion of its own band, at
    s = (x - x_i)/(theta_i y_i) in [0, 1); band 0 holds the terms c_m 2^-m
    of the series at 0, at s = 2x. Every coefficient is then a term of the
    positive Taylor series of F at the end of its band (theta_i is a power
    of two, so the scaling is exact), and none overflows where F there does
    not. Where F passes float64's largest value, the result is inf from the
    start of that band on. No connection formula is used, so the
    path is the same for every c - a - b, integer or not; the expansions stay
    within their radius of convergence (y_i, the distance to the singularity
    at 1), so the error stays at rounding level as x -> 1 (mpmath sweeps are
    in the tests).

    The bands depend on a, b, c alone; only how many are built follows the
    largest x, so every entry of an array equals the scalar call bit for bit.
    """
    if not (a > 0.0 and b > 0.0 and 0.0 < c <= HYP2F1_MAX_C):  # also false for NaN
        raise ValueError(f"hyp2f1 needs a, b > 0 and 0 < c <= {HYP2F1_MAX_C:g}, "
                         f"got a={a}, b={b}, c={c}")
    x = np.asarray(x, dtype=float)
    flat = np.ravel(x)
    starts, scales, coefs = _hyp2f1_bands(a, b, c, float(flat.max(initial=0.0)))
    band = np.searchsorted(starts, flat, side="right") - 1
    s = (flat - starts[band]) / scales[band]
    out = np.zeros_like(flat)
    # Horner over contiguous degree rows, top coefficient first; top zeros are exact
    for row in coefs.T[::-1][:, band]:
        out *= s
        out += row
    return out.reshape(x.shape)


def _step(a: float, b: float, c: float, x: float, y: float) -> float:
    """theta of the band about x, y = 1 - x: the largest power of two up to
    1/2 with theta max(|c-1| y/x, |c-a-b|) <= _STEP_REACH."""
    rate = max(abs(c - 1.0) * y / x, abs(c - a - b))
    theta = 0.5
    while theta * rate > _STEP_REACH:
        theta *= 0.5
    return theta


def _hyp2f1_bands(a: float, b: float, c: float, x_max: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Band starts x_i, scales theta_i y_i and coefficient rows (zero-padded)
    of the expansions of F, up to the band that holds x_max. Band 0 is the
    power series at 0, with scale 1/2 (scale 1 where it is the whole series)."""
    whole = _whole_series(a, b, c)
    if whole is not None:
        return np.zeros(1), np.ones(1), np.array([whole])
    x0, scale = 0.0, 0.5
    poly = _taylor_at_zero(a, b, c, scale)
    starts, scales, polys = [x0], [scale], [poly]
    x_next = 0.5
    while x_next <= x_max:
        value, slope = _value_and_slope(poly, (x_next - x0) / scale)
        y = 1.0 - x_next
        theta = _step(a, b, c, x_next, y)
        poly = _taylor_band(a, b, c, x_next, y, value, slope * y / scale, theta)
        x0, scale = x_next, theta * y
        starts.append(x0)
        scales.append(scale)
        polys.append(poly)
        # at least one ulp forward, so that the chain ends next to x = 1
        x_next = max(1.0 - (1.0 - theta) * y, math.nextafter(x0, 1.0))
    coefs = np.zeros((len(polys), max(map(len, polys))))
    for row, poly in zip(coefs, polys):
        row[:len(poly)] = poly
    return np.array(starts), np.array(scales), coefs


def _whole_series(a: float, b: float, c: float) -> list[float] | None:
    """Coefficients of the power series at 0 enough for every x in [0, 1),
    or None where its terms at x = 1 do not fall fast enough.

    The term at x = 1 of index N = _WHOLE_SERIES_TERMS is
    G(c) G(N+a) G(N+b) / (G(a) G(b) G(N+1) G(N+c)), which decays like
    N^-(c-a-b+1), so the tail after it is about N/(c-a-b) times it; only
    where that is below _TERM_EPS are the terms generated (at most 2N), so
    the test costs no loop for the common small c - a - b."""
    alpha = c - a - b
    if alpha <= 0.0:
        return None
    n = _WHOLE_SERIES_TERMS
    log_tail = (math.lgamma(c) - math.lgamma(a) - math.lgamma(b) + math.lgamma(n + a)
                + math.lgamma(n + b) - math.lgamma(n + 1.0) - math.lgamma(n + c)
                + math.log(n / alpha))
    if log_tail > math.log(_TERM_EPS):
        return None
    return _taylor_at_zero(a, b, c, 1.0, 2 * n)


def _taylor_at_zero(a: float, b: float, c: float, x_end: float,
                    max_terms: float = math.inf) -> list[float] | None:
    """Scaled power-series coefficients c_m x_end^m of F at 0, enough for
    every x <= x_end, or None if that takes more than max_terms.

    They are the terms of F(x_end), so none exceeds it; the bare c_m can
    overflow where F(x_end) does not (they reach 1e613 in
    2F1(2000.5, 2000.5; 4000.5; x) by x_end = 1/2, whose terms stay below
    1e276). x_end is a power of two, so the scaling is exact."""
    coefs = [1.0]
    total, small = 1.0, 0
    while small < 2:
        if len(coefs) > max_terms:
            return None
        m = len(coefs) - 1.0
        coefs.append(coefs[-1] * ((m + a) * (m + b) / ((m + 1.0) * (m + c))) * x_end)
        total += coefs[-1]
        small = small + 1 if coefs[-1] < _TERM_EPS * total else 0
    return coefs


def _taylor_band(a: float, b: float, c: float, x: float, y: float,
                 value: float, scaled_slope: float, theta: float) -> list[float]:
    """Scaled coefficients g_j of F about x (see `hyp2f1`), from g_0 = F(x)
    and g_1 = F'(x) y theta, enough for every s <= 1. They sum to F at
    x + theta y; where that sum passes float64's largest value (or F(x) is
    not finite), the band is [inf], so F is inf from x on."""
    q, r = 1.0 - 2.0 * x, c - (a + b + 1.0) * x
    g0, g1 = value, scaled_slope * theta
    g = [g0, g1]
    total, small, j = g0 + g1, 0, 0.0
    while small < 2:
        if not total < math.inf:  # also true for NaN
            return [math.inf]
        g0, g1 = g1, ((j + a) * (j + b) * y * g0 * theta * theta
                      - (q * j + r) * (j + 1.0) * g1 * theta) / (x * (j + 2.0) * (j + 1.0))
        g.append(g1)
        total += abs(g1)
        small = small + 1 if abs(g1) < _TERM_EPS * total else 0
        j += 1.0
    return g


def _value_and_slope(poly: list[float], s):
    """sum_j g_j s^j and its derivative in s, by Horner (s a float or an array)."""
    value = slope = 0.0
    for coef in reversed(poly):
        slope = slope * s + value
        value = value * s + coef
    return value, slope


# --- Gauss-Jacobi rules ----------------------------------------------------------

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@functools.lru_cache(maxsize=32)
def gauss_jacobi(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the weight (1-y)^alpha (1+y)^beta on [-1, 1],
    alpha, beta > -1: the nodes in ascending order, and their weights, as
    read-only arrays (the last 32 rules are kept for reuse).

    Golub-Welsch gives the nodes as the eigenvalues of the Jacobi matrix. One
    Newton step on P_n = P_n^(alpha, beta) then polishes each node, and its
    weight is 2^(alpha+beta+1) G(n+alpha+1) G(n+beta+1) / (G(n+alpha+beta+1) n!)
    / ((1-y^2) P_n'(y)^2). Each node is handled through its distance u to
    the nearer end (the end y = 1 by P_n^(alpha, beta)(y) =
    (-1)^n P_n^(beta, alpha)(-y)), so that 1 - y^2 keeps its digits there.
    """
    if n < 1:
        raise ValueError(f"a Gauss rule needs n >= 1 nodes, got {n}")
    if not (alpha > -1.0 and beta > -1.0):  # also false for NaN
        raise ValueError(f"Jacobi exponents must exceed -1, got {alpha}, {beta}")
    ab = alpha + beta
    k = np.arange(1.0, n)
    s = 2.0 * k + ab
    diag = np.concatenate(([(beta - alpha) / (ab + 2.0)],
                           (beta * beta - alpha * alpha) / (s * (s + 2.0))))
    off_sq = 4.0 * k * (k + alpha) * (k + beta) * (k + ab) / (s * s * (s + 1.0) * (s - 1.0))
    # k = 1: the factor (k+ab)/(s-1) is 1, also at ab = -1
    off_sq[:1] = 4.0 * (alpha + 1.0) * (beta + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0))
    off = np.sqrt(off_sq)
    y = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    left = y < 0.0
    u, slope_u = _jacobi_end_nodes(n, alpha, beta, 1.0 + y[left])
    v, slope_v = _jacobi_end_nodes(n, beta, alpha, 1.0 - y[~left])
    nodes = np.concatenate([u - 1.0, 1.0 - v])
    one_minus_y2 = np.concatenate([u * (2.0 - u), v * (2.0 - v)])
    slope = np.concatenate([slope_u, slope_v])
    # the Gamma ratio as the total weight mu_0 times Pochhammer products: log-Gamma
    # values near 200 would cost it 1e-13
    log_mu0 = ((ab + 1.0) * math.log(2.0) + log_gamma(alpha + 1.0) + log_gamma(beta + 1.0)
               - log_gamma(ab + 2.0))
    mu0 = math.exp(log_mu0) if log_mu0 < _LOG_FLOAT_MAX else math.inf
    scale = mu0 * (alpha + 1.0) * (beta + 1.0) * math.prod(
        (alpha + j) * (beta + j) / (j * (ab + j)) for j in range(2, n + 1))
    if not scale < math.inf:  # also true for NaN
        raise ValueError(f"Gauss-Jacobi weights overflow float64 at alpha={alpha}, beta={beta}")
    weights = scale / (one_minus_y2 * slope * slope)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _jacobi_end_nodes(n: int, alpha: float, beta: float, u: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y = u - 1 of P_n^(alpha, beta) near -1, given as u and
    polished by one Newton step, with |P_n'(y)| there.

    P_n comes from the three-term recurrence written in u. Next to -1 with
    beta < 0, P_n is the minimal solution of that recurrence, which loses up
    to 1e-9 of it (beta = -0.995, n = 64); nodes with u < 2/n^2 there use the
    terminating series of P_n in u/2 instead, whose terms stay small."""
    near = u < 2.0 / n ** 2 if beta < 0.0 else np.zeros(u.shape, dtype=bool)

    def value_and_slope(u):
        p, dp = _jacobi_recurrence(n, alpha, beta, u)
        if near.any():
            p[near], dp[near] = _jacobi_series(n, alpha, beta, u[near])
        return p, dp

    p, dp = value_and_slope(u)
    u = u - p / dp
    return u, np.abs(value_and_slope(u)[1])


def _jacobi_recurrence(n: int, alpha: float, beta: float, u: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """P_n and P_n' at y = u - 1 by the three-term recurrence in u."""
    ab = alpha + beta
    prev, p = np.ones_like(u), 0.5 * (ab + 2.0) * u - (beta + 1.0)
    for k in range(2, n + 1):
        s = 2.0 * k + ab
        a2 = (s - 1.0) * (s * (s - 2.0) * u - (s * (s - 2.0) + beta * beta - alpha * alpha))
        a3 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * s
        prev, p = p, (a2 * p - a3 * prev) / (2.0 * k * (k + ab) * (s - 2.0))
    # (2n+ab)(1-y^2) P_n' = n((alpha-beta) - (2n+ab)y) P_n + 2(n+alpha)(n+beta) P_(n-1)
    y = u - 1.0
    slope = ((n * ((alpha - beta) - (2 * n + ab) * y) * p
              + 2.0 * (n + alpha) * (n + beta) * prev)
             / ((2 * n + ab) * u * (2.0 - u)))
    return p, slope


def _jacobi_series(n: int, alpha: float, beta: float, u: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """P_n and P_n' at y = u - 1 from
    P_n = (-1)^n binomial(n+beta, n) 2F1(-n, n+alpha+beta+1; beta+1; u/2)."""
    coefs = [1.0]
    for m in range(n):
        coefs.append(coefs[-1] * (m - n) * (n + alpha + beta + 1.0 + m)
                     / ((beta + 1.0 + m) * (m + 1.0)))
    value, slope = _value_and_slope(coefs, 0.5 * u)
    front = (-1) ** n * math.prod((j + beta) / j for j in range(1, n + 1))  # binomial(n+beta, n)
    return front * value, 0.5 * front * slope
