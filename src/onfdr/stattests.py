"""Statistical kernels: normal tail probabilities and the one-sided exact
test for 2x2 tables."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr


def normal_cdf(z):
    """Standard normal distribution function, via the complementary error
    function (absolute accuracy well below 1e-12). Accepts scalars or
    arrays."""
    out = ndtr(z)
    return float(out) if np.isscalar(z) else out


def pvalue_one_sided(z):
    """Upper-tail p-value Phi(-z), clamped to [0, 1]."""
    out = np.clip(ndtr(np.negative(z)), 0.0, 1.0)
    return float(out) if np.isscalar(z) else out


def pvalue_two_sided(z):
    """Two-sided p-value 2 * Phi(-|z|), clamped to [0, 1]."""
    out = np.clip(2.0 * ndtr(-np.abs(z)), 0.0, 1.0)
    return float(out) if np.isscalar(z) else out


@dataclass(frozen=True)
class TwoByTwoTable:
    """Success/failure counts for the treatment row (a, b) and control
    row (c, d)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError("cell counts must be nonnegative")

    @property
    def degenerate(self) -> bool:
        return (self.a + self.b == 0 or self.c + self.d == 0
                or self.a + self.c == 0 or self.b + self.d == 0)


# log(m!) for m < len(_LOG_FACTORIAL); replaced by a longer list, never
# changed in place, when a table needs more
_LOG_FACTORIAL = [math.lgamma(m + 1) for m in range(256)]


def _log_factorials(n: int) -> list[float]:
    """A list of ``log(m!)`` for at least ``m = 0..n``."""
    global _LOG_FACTORIAL
    table = _LOG_FACTORIAL
    if n >= len(table):
        table = [math.lgamma(m + 1) for m in range(max(n + 1, 2 * len(table)))]
        _LOG_FACTORIAL = table
    return table


def fisher_exact_greater(table: TwoByTwoTable) -> float:
    """One-sided exact p-value P(X >= a) with both margins fixed, for the
    alternative that the treatment response proportion exceeds the control's.

    Point masses are accumulated on the log scale with a max-shift before
    exponentiation; degenerate margins give p = 1 by convention.
    """
    if table.degenerate:
        return 1.0
    r1, r2 = table.a + table.b, table.c + table.d
    k = table.a + table.c
    n = r1 + r2
    lo, hi = max(0, k - r2), min(k, r1)
    if table.a > hi:
        return 0.0
    if table.a <= lo:
        return 1.0
    lf = _log_factorials(n)
    log_total = lf[n] - lf[k] - lf[n - k]
    log_masses = np.array([
        (lf[r1] - lf[x] - lf[r1 - x]) + (lf[r2] - lf[k - x] - lf[r2 - k + x])
        - log_total
        for x in range(table.a, hi + 1)
    ])
    shift = log_masses.max()
    p = math.exp(shift) * float(np.exp(log_masses - shift).sum())
    return min(max(p, 0.0), 1.0)
