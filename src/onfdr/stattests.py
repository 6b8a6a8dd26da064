"""Statistical kernels: normal tail probabilities and the one-sided exact
test for 2x2 tables.  scipy is imported at the first normal tail, so a
process that draws none never loads it."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sequences import _is_integer


@lru_cache(maxsize=None)
def _ndtr():
    """``scipy.special.ndtr``, imported on the first call."""
    from scipy.special import ndtr
    return ndtr


def pvalue_one_sided(z):
    """Upper-tail p-value Phi(-z), clamped to [0, 1]."""
    out = np.clip(_ndtr()(np.negative(z)), 0.0, 1.0)
    return float(out) if np.isscalar(z) else out


def pvalue_two_sided(z):
    """Two-sided p-value 2 * Phi(-|z|), clamped to [0, 1]."""
    out = np.clip(2.0 * _ndtr()(-np.abs(z)), 0.0, 1.0)
    return float(out) if np.isscalar(z) else out


@dataclass(frozen=True, init=False)
class TwoByTwoTable:
    """Success/failure counts, integers >= 0, for the treatment row (a, b)
    and control row (c, d)."""

    a: int
    b: int
    c: int
    d: int

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        # one dict update, not the generated __init__'s four __setattr__
        if not type(a) is type(b) is type(c) is type(d) is int:
            for count in (a, b, c, d):
                if not _is_integer(count):
                    raise ValueError(
                        f"cell counts must be integers, got {count!r}")
        if a < 0 or b < 0 or c < 0 or d < 0:
            raise ValueError("cell counts must be nonnegative")
        self.__dict__.update(a=a, b=b, c=c, d=d)

    @property
    def degenerate(self) -> bool:
        return (self.a + self.b == 0 or self.c + self.d == 0
                or self.a + self.c == 0 or self.b + self.d == 0)


# margins (r1, r2, k) that are kept: one design's tables share n0 + n_arm + 1
# of them.  Each keeps at most _MARGIN_CACHE_TERMS floats (its tails' terms,
# else its log masses); a margin with a wider support is built per call.
_MARGIN_CACHE_SIZE = 256
_MARGIN_CACHE_TERMS = 1024
_sum = np.add.reduce   # what ndarray.sum runs, without its Python wrapper


@lru_cache(maxsize=_MARGIN_CACHE_SIZE)
def _log_binom_row(r: int) -> np.ndarray:
    """Read-only ``log C(r, x)`` for ``x = 0..r``, each element formed as
    ``(log r! - log x!) - log (r - x)!``."""
    lf = np.array([math.lgamma(m + 1) for m in range(r + 1)])
    row = (lf[r] - lf) - lf[::-1]
    row.setflags(write=False)
    return row


@lru_cache(maxsize=None)
def _tail_layout(size: int):
    """For a support of ``size`` points, every tail laid end to end: the
    tail j and support index x >= j of each term, and each tail's slice.
    Only supports of 44 or less are laid out, so at most 44 are kept."""
    tail, point = np.triu_indices(size)
    starts = [j * size - j * (j - 1) // 2 for j in range(size + 1)]
    return tail, point, tuple(map(slice, starts, starts[1:]))


def _margin_masses(r1: int, r2: int, k: int):
    """For the hypergeometric law of the first cell given row sums r1, r2
    and column sum k, with log point masses ``log_masses`` over its support
    ``max(0, k - r2)..min(k, r1)``: ``(values, tails, suffix_max)``, where
    ``suffix_max[j]`` is the maximum of the tail ``log_masses[j:]`` and the
    read-only ``values[tails[j]]`` is ``exp(log_masses[j:] - suffix_max[j])``
    if the tails hold at most _MARGIN_CACHE_TERMS terms in all (a support of
    44 or less); else ``values`` is ``log_masses`` and ``tails`` is None."""
    n = r1 + r2
    lo, hi = max(0, k - r2), min(k, r1)
    log_total = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    # log C(r2, k - x) for x = lo..hi is row(r2) read backwards
    log_masses = (_log_binom_row(r1)[lo:hi + 1]
                  + _log_binom_row(r2)[k - hi:k - lo + 1][::-1])
    log_masses -= log_total
    suffix_max = np.maximum.accumulate(log_masses[::-1])[::-1]
    size = hi - lo + 1
    values, tails = log_masses, None
    if size * (size + 1) // 2 <= _MARGIN_CACHE_TERMS:
        # subtract and exp are elementwise: each term is a per-tail slice's
        tail, point, tails = _tail_layout(size)
        values = np.exp(log_masses[point] - suffix_max[tail])
    values.setflags(write=False)
    return values, tails, tuple(suffix_max.tolist())


_margin = lru_cache(maxsize=_MARGIN_CACHE_SIZE)(_margin_masses)


def fisher_exact_greater(table: TwoByTwoTable) -> float:
    """One-sided exact p-value P(X >= a) with both margins fixed, for the
    alternative that the treatment response proportion exceeds the control's.

    Point masses are accumulated on the log scale with a max-shift (the
    tail's own maximum) before exponentiation; degenerate margins give
    p = 1 by convention.  The shifted terms (or the masses) of one margin
    are computed once and shared by every table with that margin.
    """
    return _fisher_greater(table.a, table.b, table.c, table.d)


def _fisher_greater(a: int, b: int, c: int, d: int) -> float:
    """:func:`fisher_exact_greater` of the table (a, b, c, d), whose counts
    the caller has checked to be nonnegative."""
    r1, k = a + b, a + c
    # the support is lo..hi with lo = max(0, a - d) and hi = min(k, r1) >= a;
    # a table with an empty row or column has a == 0 or d == 0, so a == lo
    lo = a - d if a > d else 0
    if a <= lo:
        return 1.0
    hi = k if k < r1 else r1
    margin = _margin if hi - lo < _MARGIN_CACHE_TERMS else _margin_masses
    values, tails, suffix_max = margin(r1, c + d, k)
    j = a - lo
    shift = suffix_max[j]
    terms = np.exp(values[j:] - shift) if tails is None else values[tails[j]]
    # p >= 0: the tail's largest term is exp(0) = 1
    p = math.exp(shift) * float(_sum(terms))
    return p if p < 1.0 else 1.0
