"""Log-domain Gamma/Beta helpers, integer powers and the series non-convergence error.

Every radial integral in the library reduces to Beta-function values; all of
them are computed as exp(lnG(a) + lnG(b) - lnG(a+b)) so large arguments never
overflow. The log-Gamma carries a |relative error| < 1e-13 contract on the
positive axis (checked in the test suite against Gamma(1/2) = sqrt(pi) and the
recurrence Gamma(x+1) = x*Gamma(x)).

`int_power` is the one integer-power routine of the library: kernels,
Jacobians and per-sample Monte-Carlo observables raise to integer exponents by
repeated multiplication, never through the complex logarithm, so there is no
branch ambiguity and no transcendental call per element.

`NonConvergenceError` lives here, not in `estimates`, so that the CLI can
catch it without importing scipy; `estimates` re-exports the same class.
"""

from __future__ import annotations

import math

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


def log_beta(a: float, b: float) -> float:
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


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
