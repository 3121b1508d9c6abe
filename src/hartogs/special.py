"""Log-domain Gamma/Beta helpers, integer powers, the Gauss hypergeometric
function and Gauss-Jacobi rules.

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

`hyp2f1`, the one route of the closed forms of the weighted integrals, and
the one place that caps their c, and `gauss_jacobi`, the rules of their
radial quadrature route, use numpy alone. `lone_point_as_row` is the one
rule of the package for a lone point or radius.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys

import numpy as np


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
    callers may update it in place. Each product is written into a new
    array, never over an operand: numpy may round a complex product written
    into one of its operands unlike its array loop.
    """
    if e < 0:
        raise ValueError("negative exponent")
    x = np.asarray(x)
    if e == 0:
        return np.ones(x.shape, x.dtype)
    base, result = x, None
    while True:
        if e & 1:
            result = base if result is None else np.multiply(
                result, base, out=np.empty(x.shape, x.dtype))
        e >>= 1
        if not e:
            return result.copy() if result is x else result
        base = np.multiply(base, base, out=np.empty(x.shape, x.dtype))


def lone_point_as_row(**point_ndim: int):
    """Evaluate lone points as a one-row batch, so that they get the bits of
    a batch row: numpy's 0-d scalar arithmetic rounds unlike its array loops.

    The decorator names each point argument with the axes of one point: 1
    for a point in C^n, 0 for a disk point or a radius. When every point
    argument has just those axes, each goes in as one row, and the row's
    entry comes back as a Python complex, float or bool. Any other call, a
    lone point broadcast against a batch included, goes in as it is.
    """
    def decorate(evaluate):
        names = list(inspect.signature(evaluate).parameters)

        @functools.wraps(evaluate)
        def evaluate_rows(*args, **kwargs):
            given = dict(zip(names, args), **kwargs)
            points = {name: np.asarray(given[name]) for name in point_ndim if name in given}
            if {name: point.ndim for name, point in points.items()} != point_ndim:
                return evaluate(*args, **kwargs)
            given.update((name, point[None]) for name, point in points.items())
            return evaluate(**given)[0].item()
        return evaluate_rows
    return decorate


@lone_point_as_row(z=1)
def monomial(z, exps) -> complex | float | np.ndarray:
    """prod_j z_j^e_j over the last axis of z for integer e_j, by `int_power`
    (a negative e_j divides by z_j^-e_j), each product and quotient written
    into a new array; z is not written."""
    z = np.asarray(z)
    shape, dtype = z.shape[:-1], np.result_type(z, float)
    out = np.ones(shape, dtype)
    for j, e in enumerate(exps):
        e = int(e)
        if e:
            power = int_power(z[..., j], abs(e))
            new = np.empty(shape, dtype)
            if e > 0:
                out = np.multiply(power, out, out=new)  # operand order: see `kernels`
            else:
                out = np.divide(out, power, out=new)
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
# Largest c accepted. Bands near x = 1/2 shrink like 1/|c-1|, so the cost
# of a grid grows linearly in c: 200 disk radii to r = 0.999 take 5, 23, 98
# and 353 ms at c = 5e3, 2e4, 6.6e4 and 2.6e5 on a 2-core Xeon (the series
# takes 15 ms at each). No theorem input comes near the cap (-1 < alpha < 0,
# -2 < beta <= 0, k <= n).
HYP2F1_MAX_C = 65536.0


def hyp2f1(a: float, b: float, c: float, x) -> np.ndarray:
    """Gauss hypergeometric function 2F1(a, b; c; x), elementwise for x in [0, 1).

    Needs a, b > 0, 0 < c <= HYP2F1_MAX_C and every x in [0, 1); anything
    else, NaN included, is a ValueError naming the value. Every Taylor
    coefficient of F is then positive at each point of [0, 1).
    Where the power series at 0 converges at x = 1 within about
    _WHOLE_SERIES_TERMS terms (`_whole_series`), it is summed for every x.
    Otherwise it is summed on [0, x_1], and past x_1, F and F' are
    continued toward 1 along the hypergeometric equation
    x(1-x)F'' + [c - (a+b+1)x]F' - abF = 0 by Taylor expansions about
    x_1, x_2, ..., each spanning a fraction theta_i of the remaining
    distance y_i = 1 - x_i (`_step`), with the coefficients scaled as
    g_j = f_j (theta_i y_i)^j:

        g_(j+2) = [(j+a)(j+b) y_i theta_i^2 g_j - (q j + r)(j+1) theta_i g_(j+1)]
                  / (x_i (j+2)(j+1)),
        q = 1 - 2 x_i,  r = c - (a+b+1) x_i.

    Each x is evaluated from the expansion of its own band, at
    s = (x - x_i)/(theta_i y_i) in [0, 1); band 0 holds the terms c_m x_1^m
    of the series at 0, at s = x/x_1. Every coefficient is then a term of the
    positive Taylor series of F at the end of its band (x_1 and theta_i are
    powers of two, so the scaling is exact), and none overflows where F there
    does not. No connection formula is used, so the path is the same for
    every c - a - b, integer or not; the expansions stay within their radius
    of convergence (y_i, the distance to the singularity at 1), so the error
    stays at rounding level as x -> 1 (mpmath sweeps are in the tests).

    One term loop (`_taylor`) sums every expansion, with three rules for an F
    that passes float64's largest value:
      * a loop whose running total overflows returns the band [inf];
      * band 0 halves its reach x_1 from 1/2 while its terms overflow (to
        1/32 for the ball at k = 65000, alpha = -0.5);
      * the first [inf] band ends the chain: F is inf from its start on.

    The bands depend on a, b, c alone; only how many are built follows the
    largest x, so every entry of an array equals the scalar call bit for bit.
    """
    if not (a > 0.0 and b > 0.0 and 0.0 < c <= HYP2F1_MAX_C):  # also false for NaN
        raise ValueError(f"hyp2f1 needs a, b > 0 and 0 < c <= {HYP2F1_MAX_C:g}, "
                         f"got a={a}, b={b}, c={c}")
    x = np.asarray(x, dtype=float)
    flat = np.ravel(x)
    outside = ~((flat >= 0.0) & (flat < 1.0))
    if outside.any():
        raise ValueError(f"hyp2f1 needs x in [0, 1), got x={flat[outside][0]}")
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
    of the expansions of F, up to the band that holds x_max or the first
    [inf] one. Band 0 is the series at 0, with scale x_1 (1 if it is whole)."""
    whole = _whole_series(a, b, c)
    if whole is not None:
        return np.zeros(1), np.ones(1), np.array([whole])
    scale = 0.5
    while (poly := _taylor(a, b, c, 0.0, scale, [1.0]))[0] == math.inf:  # F(scale) overflows
        scale *= 0.5
    x0, x_next = 0.0, scale
    starts, scales, polys = [x0], [scale], [poly]
    while x_next <= x_max and poly[0] < math.inf:
        value, slope = _value_and_slope(poly, (x_next - x0) / scale)
        y = 1.0 - x_next
        theta = _step(a, b, c, x_next, y)
        poly = _taylor(a, b, c, x_next, theta, [value, slope * y / scale * theta])
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
    or None where its terms at x = 1 do not fall fast enough (or overflow).

    The term at x = 1 of index N = _WHOLE_SERIES_TERMS is
    G(c) G(N+a) G(N+b) / (G(a) G(b) G(N+1) G(N+c)), which decays like
    N^-(c-a-b+1), so the tail after it is about N/(c-a-b) times it; only
    where that is below _TERM_EPS are the terms generated (about N), so
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
    coefs = _taylor(a, b, c, 0.0, 1.0, [1.0])
    return coefs if coefs[0] < math.inf else None


def _taylor(a: float, b: float, c: float, x: float, theta: float,
            first: list[float]) -> list[float]:
    """Scaled Taylor coefficients g_j = f_j (theta y)^j of F about x, y = 1 - x,
    from the first ones (g_0 = F(x), g_1 = F'(x) y theta; g_0 = 1 alone at
    x = 0) until two in a row fall below _TERM_EPS of the running total of
    moduli. They are the terms of F at x + theta y; where that total passes
    float64's largest value, the band is [inf], so F is inf from x on. At
    x = 0 the equation gives (j+1)(j+c) f_(j+1) = (j+a)(j+b) f_j; elsewhere
    the coefficients follow the two-term recurrence of `hyp2f1`."""
    y = 1.0 - x
    q, r = 1.0 - 2.0 * x, c - (a + b + 1.0) * x
    g = list(first)
    g0, g1 = g[0], g[-1]  # one term starts the series at 0, and g0 goes unused
    total, small, j, at_zero = sum(map(abs, g)), 0, 0.0, x == 0.0
    while small < 2:
        if not total < math.inf:  # also true for NaN
            return [math.inf]
        if at_zero:
            g1 = g1 * ((j + a) * (j + b) / ((j + 1.0) * (j + c))) * theta
        else:
            g0, g1 = g1, ((j + a) * (j + b) * y * g0 * theta * theta
                          - (q * j + r) * (j + 1.0) * g1 * theta) / (x * (j + 2.0) * (j + 1.0))
        g.append(g1)
        size = abs(g1)
        total += size
        small = small + 1 if size < _TERM_EPS * total else 0
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
