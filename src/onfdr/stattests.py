"""Statistical kernels: normal tail probabilities and the one-sided exact
test for 2x2 tables."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr


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


# margins (r1, r2, k) whose masses are kept: one design's tables share
# n0 + n_arm + 1 of them.  A margin with a wider support is built per call,
# so the kept masses stay within a few megabytes.
_MARGIN_CACHE_SIZE = 256
_MARGIN_CACHE_TERMS = 1024


@lru_cache(maxsize=_MARGIN_CACHE_SIZE)
def _log_binom_row(r: int) -> np.ndarray:
    """Read-only ``log C(r, x)`` for ``x = 0..r``, each element formed as
    ``(log r! - log x!) - log (r - x)!``."""
    lf = np.array(_log_factorials(r)[:r + 1])
    row = (lf[r] - lf) - lf[::-1]
    row.setflags(write=False)
    return row


def _margin_masses(r1: int, r2: int, k: int):
    """For the hypergeometric law of the first cell given row sums r1, r2
    and column sum k: the read-only log point masses over its support
    ``max(0, k - r2)..min(k, r1)`` and their suffix maxima (a tuple), so a
    tail starting at support index j is ``log_masses[j:]`` with maximum
    ``suffix_max[j]``."""
    n = r1 + r2
    lo, hi = max(0, k - r2), min(k, r1)
    lf = _log_factorials(n)
    log_total = lf[n] - lf[k] - lf[n - k]
    # log C(r2, k - x) for x = lo..hi is row(r2) read backwards
    log_masses = (_log_binom_row(r1)[lo:hi + 1]
                  + _log_binom_row(r2)[k - hi:k - lo + 1][::-1])
    log_masses -= log_total
    log_masses.setflags(write=False)
    suffix_max = tuple(np.maximum.accumulate(log_masses[::-1]).tolist()[::-1])
    return log_masses, suffix_max


_margin = lru_cache(maxsize=_MARGIN_CACHE_SIZE)(_margin_masses)


def fisher_exact_greater(table: TwoByTwoTable) -> float:
    """One-sided exact p-value P(X >= a) with both margins fixed, for the
    alternative that the treatment response proportion exceeds the control's.

    Point masses are accumulated on the log scale with a max-shift (the
    tail's own maximum) before exponentiation; degenerate margins give
    p = 1 by convention.  The masses of one margin are computed once and
    shared by every table with that margin.
    """
    if table.degenerate:
        return 1.0
    r1, r2 = table.a + table.b, table.c + table.d
    k = table.a + table.c
    lo, hi = max(0, k - r2), min(k, r1)
    if table.a > hi:
        return 0.0
    if table.a <= lo:
        return 1.0
    margin = _margin if hi - lo < _MARGIN_CACHE_TERMS else _margin_masses
    log_masses, suffix_max = margin(r1, r2, k)
    j = table.a - lo
    shift = suffix_max[j]
    p = math.exp(shift) * float(np.exp(log_masses[j:] - shift).sum())
    return min(max(p, 0.0), 1.0)
