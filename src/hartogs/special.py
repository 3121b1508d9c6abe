"""Log-domain Gamma/Beta helpers and the series non-convergence error.

Every radial integral in the library reduces to Beta-function values; all of
them are computed as exp(lnG(a) + lnG(b) - lnG(a+b)) so large arguments never
overflow. The log-Gamma carries a |relative error| < 1e-13 contract on the
positive axis (checked in the test suite against Gamma(1/2) = sqrt(pi) and the
recurrence Gamma(x+1) = x*Gamma(x)).

`NonConvergenceError` lives here, not in `estimates`, so that the CLI can
catch it without importing scipy; `estimates` re-exports the same class.
"""

from __future__ import annotations

import math


class NonConvergenceError(ArithmeticError):
    """Series hit its term cap before meeting the relative tolerance."""

    def __init__(self, message: str, partial_sum: float, terms: int):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.terms = terms


def log_gamma(x: float) -> float:
    if x <= 0.0:
        raise ValueError(f"log_gamma requires a positive argument, got {x}")
    return math.lgamma(x)


def log_beta(a: float, b: float) -> float:
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def beta(a: float, b: float) -> float:
    return math.exp(log_beta(a, b))


def log_factorial(n: int) -> float:
    if n < 0:
        raise ValueError("factorial of a negative integer")
    return math.lgamma(n + 1)
