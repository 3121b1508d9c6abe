"""Schur-test feasibility windows, the sharp p-range, and a numerical verifier.

The boundedness test hinges on a weight

    h(eta) = prod_blocks (1-|eta_block|^2)^s
             * prod_{j=k+1}^n (1-|eta_j|^2)^s |eta_j|^(t_j)

whose exponents must satisfy two inequality systems (one per conjugate
exponent). Together the two systems confine s and every t_j to windows with
closed-form ends, which are non-empty exactly when 2n/(n+1) < p < 2n/(n-1),
for every k; `feasible_params` decides feasibility by that sharp range alone.

`schur_verify` estimates both Schur conditions on sampled product-model
points. The condition integrals factor exactly into one weighted ball
integral per block and one weighted disk integral per chain coordinate, each
a `_Factor` of one record of `HartogsDomainSpec.factors` (owned by `domains`),
so no high-dimensional quadrature is ever performed.

The windows and the sharp range are arithmetic on n, k and p: numpy,
`domains` and `estimates` are imported by the verifier alone, so
`hartogs schur-range` loads none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .config import DEFAULT_CONFIG, NumericConfig


@dataclass(frozen=True)
class FeasibilityWindow:
    """Real interval with individually open or closed ends."""

    lower: float
    upper: float
    lower_open: bool = True
    upper_open: bool = False

    @property
    def is_empty(self) -> bool:
        if self.lower < self.upper:
            return False
        if self.lower == self.upper:
            return self.lower_open or self.upper_open
        return True

    def contains(self, x: float) -> bool:
        if x < self.lower or (x == self.lower and self.lower_open):
            return False
        if x > self.upper or (x == self.upper and self.upper_open):
            return False
        return True


@dataclass(frozen=True)
class SchurWitness:
    """Weight exponents: s for every block factor, t_j per chain coordinate."""

    s: float
    t: dict[int, float]

    def __post_init__(self):
        # the names in parentheses are the CLI options that set these values
        if not math.isfinite(self.s):
            raise ValueError(f"witness exponent s (--witness-s) must be finite, got {self.s}")
        bad = {j: tj for j, tj in self.t.items() if not math.isfinite(tj)}
        if bad:
            raise ValueError(f"witness exponents t (--witness-t) must be finite, got {bad}")


def conjugate_exponent(p: float) -> float:
    if not 1.0 < p < math.inf:  # also false for NaN
        raise ValueError(f"conjugate exponent requires a finite p > 1, got {p}")
    return p / (p - 1.0)


def param_windows(n: int, k: int, p: float
                  ) -> tuple[FeasibilityWindow, dict[int, FeasibilityWindow]]:
    """Joint windows of the two systems for the conjugate exponents p, q.

    The system with exponent e asks -1 < s e < 0 and
    -2 < t_j e + (j-1) <= 0 for j = k+1..n; with lo = min(p, q) and
    hi = max(p, q) both hold exactly on s in (-1/hi, 0) and
    t_j in (-(j+1)/hi, -(j-1)/lo].
    """
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    q = conjugate_exponent(p)
    lo, hi = min(p, q), max(p, q)
    s_win = FeasibilityWindow(-1.0 / hi, 0.0, True, True)
    t_wins = {j: FeasibilityWindow(-(j + 1) / hi, -(j - 1) / lo, True, False)
              for j in range(k + 1, n + 1)}
    return s_win, t_wins


def feasible_params(n: int, k: int, p: float) -> SchurWitness | None:
    """Midpoint witness of the joint windows, or None when p lies outside the
    open sharp range `admissible_p_range(n)`, the one test of feasibility.

    Just inside the ends the chain windows are a few ulps wide, or empty
    in floating point; the midpoint of their ends is still the witness.
    """
    s_win, t_wins = param_windows(n, k, p)
    low, high = admissible_p_range(n)
    if not low < p < high:
        return None
    return SchurWitness(0.5 * (s_win.lower + s_win.upper),
                        {j: 0.5 * (w.lower + w.upper) for j, w in t_wins.items()})


def admissible_p_range(n: int) -> tuple[float, float]:
    """The sharp open p-interval (2n/(n+1), 2n/(n-1)); depends on n only."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return 2.0 * n / (n + 1.0), 2.0 * n / (n - 1.0)


# --- numerical verification of the two Schur conditions ------------------


@dataclass
class SchurReport:
    """Per-sample condition ratios and their summary for one (p, witness) pair."""

    n: int
    k: int
    p: float
    q: float
    witness: SchurWitness
    cond1: np.ndarray
    cond2: np.ndarray
    samples: int
    notes: list[str]

    @property
    def max_ratio(self) -> float:
        return float(max(self.cond1.max(), self.cond2.max()))

    @property
    def mean_ratio(self) -> float:
        import numpy as np
        return float(np.concatenate([self.cond1, self.cond2]).mean())


@dataclass(frozen=True)
class _Factor:
    """One Schur-condition factor, a `spec.factors` record (k, cols, j): the ball integral
    of the k-block (j = 0) or the disk integral of chain coordinate j, alpha = s e, te = t_j e."""

    k: int
    cols: slice
    j: int
    alpha: float
    te: float = 0.0

    @property
    def beta(self) -> float:
        return self.te + (self.j - 1)

    @property
    def quad(self) -> bool:  # divergent disk exponents: radial quadrature from the margin
        return self.j > 0 and not (self.alpha > -1.0 and self.beta > -2.0)

    def log_value(self, r: np.ndarray, margin: float, where: str) -> np.ndarray:
        """log(integral / weight) at the moduli r; each ValueError names `where`."""
        import numpy as np

        from .estimates import (weighted_ball_integral, weighted_disk_integral,
                                weighted_disk_integral_quad)
        name = f"j={self.j} chain" if self.j else f"k={self.k} block"
        if self.quad and not margin ** 2 >= np.finfo(float).tiny:  # also true for margin 0
            raise ValueError(f"{where}: the {name} integral diverges; its quadrature needs a "
                             f"puncture margin (--puncture-margin) >= 1.4917e-154, got {margin}")
        vals = (weighted_disk_integral_quad(self.alpha, self.beta, r, margin) if self.quad
                else weighted_disk_integral(self.alpha, self.beta, r) if self.j
                else weighted_ball_integral(self.k, self.alpha, r))
        if not (vals > 0.0).all():
            raise ValueError(f"{where}: the {name} integral underflows to 0")
        if not self.j:
            return np.log(vals) - self.alpha * np.log1p(-r ** 2)
        return (np.log(vals) - (self.j - 1) * np.log(r) - self.alpha * np.log1p(-r ** 2)
                - self.te * np.log(r))


def schur_verify(n: int, k: int, p: float, witness: SchurWitness,
                 cfg: NumericConfig = DEFAULT_CONFIG,
                 blocks: Sequence[int] | None = None,
                 samples: int = 400,
                 boundary_margin: float = 0.01,
                 puncture_margin: float = 0.01) -> SchurReport:
    """Estimate both Schur-condition ratios on sampled interior points.

    Sample points keep every coordinate modulus within
    [puncture_margin, 1 - boundary_margin], so the margins must satisfy
    0 <= puncture_margin < 1 - boundary_margin <= 1. Ratios of a valid
    witness stay bounded; endpoint or out-of-window witnesses blow up as the
    margins tighten.
    """
    import numpy as np

    from .domains import HartogsDomainSpec, sample_product_model
    # the names in parentheses are the CLI options that set these values
    if not 0.0 <= puncture_margin < 1.0 - boundary_margin <= 1.0:  # also false for NaN, inf
        raise ValueError(
            "margins must satisfy 0 <= puncture margin (--puncture-margin) < "
            "1 - boundary margin (--boundary-margin) <= 1, got "
            f"puncture_margin={puncture_margin}, boundary_margin={boundary_margin}")
    q = conjugate_exponent(p)
    if blocks is not None:
        blocks = tuple(blocks)
        if not all(b >= 1 for b in blocks):
            raise ValueError(f"block dimensions (--blocks) must be >= 1, got {blocks}")
        if sum(blocks) != k:
            raise ValueError(f"block dimensions (--blocks) {blocks} sum to {sum(blocks)}, "
                             f"but k (--k) is {k}")
    spec = HartogsDomainSpec.standard(n, blocks if blocks is not None else k)
    missing = [j for j in range(k + 1, n + 1) if j not in witness.t]
    if missing:
        raise ValueError(f"witness is missing chain exponents for j in {missing}")

    points = sample_product_model(spec, samples, cfg.seed,
                                  r_max=1.0 - boundary_margin,
                                  disk_r_min=puncture_margin,
                                  chunk_size=cfg.chunk_size)
    factors = [[_Factor(kj, cols, j, witness.s * e, witness.t[j] * e if j else 0.0)
                for kj, cols, j, _ in spec.factors] for e in (q, p)]
    moduli = [np.abs(points[:, f.j - 1]) if f.j else np.linalg.norm(points[:, f.cols], axis=1)
              for f in factors[0]]
    ratios = []
    for name, e, terms in zip(("cond1", "cond2"), (q, p), factors):
        where = f"Schur condition {name} (exponent {e:.6g}, witness s={witness.s}, t={witness.t})"
        log_ratio = sum(f.log_value(r, puncture_margin, where) for f, r in zip(terms, moduli))
        if log_ratio.max() > math.log(np.finfo(float).max):
            raise ValueError(f"{where}: the ratio overflows float64")
        ratios.append(np.exp(log_ratio))
    notes = list(dict.fromkeys(  # at p = 2 both conditions give the same note
        f"chain factor j={f.j}: divergent exponents (alpha={f.alpha:.6g}, "
        f"beta={f.beta:.6g}); using radial quadrature truncated at {puncture_margin:.3g}"
        for terms in factors for f in terms if f.quad))
    return SchurReport(n, k, p, q, witness, *ratios, samples, notes)
