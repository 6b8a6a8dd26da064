"""Coefficient sequences that drive the online testing procedures.

A sequence is described by a :class:`SequenceSpec` (shape family, the
normalization constraint its scaling constant must satisfy, and a horizon
with the rebounds that led to it) and materialized, by :func:`build_table`
alone, as a :class:`SequenceTable`.  Three constraint families are supported:

* ``SUM_ONE``      -- sum of coefficients equals 1 (gamma sequences),
* ``SUM_ALPHA``    -- sum of coefficients equals alpha (beta sequences),
* ``XI_WEIGHTED``  -- the dependency-robust constraint
  ``sum xi_j (1 + log j) = alpha/b0`` when ``w0 <= b0`` and
  ``sum xi_j (w0 + b0 log j) = alpha`` otherwise.

Infinite-horizon constants are computed by explicit summation of a long
prefix plus a closed-form integral tail (midpoint rule), which reproduces
the published six-figure constants to well below 1e-10.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

# Scaling constant of the log/exp-sqrt gamma sequence, as published.  The
# infinite sum of the raw shape is ~12.645, so with this constant the series
# totals ~0.976 < 1; unbounded tables keep the published constant (the values
# the procedures are specified with), bounded tables renormalize exactly.
JM_C = 0.07720838

_TOL = 1e-10
_TRUNC_TERMS = 1_000_000
# prefix length at which the midpoint-rule tail error drops below ~1e-13
_VALIDATE_TERMS = 262_144


class SequenceKind(str, Enum):
    JM_OPTIMAL = "jm"
    POWER_LAW = "power-law"
    LOG_POWER = "log-power"
    CONSTANT_BOUNDED = "constant"
    INVERSE_SQUARE = "inverse-square"
    UNIFORM = "uniform"


class Normalization(str, Enum):
    SUM_ONE = "sum-one"
    SUM_ALPHA = "sum-alpha"
    XI_WEIGHTED = "xi-weighted"


class SequenceError(ValueError):
    """Raised for ill-formed sequence specifications or horizon misuse."""


def _is_integer(value) -> bool:
    """An integer (numpy's too) that is not a bool, which is a
    ``numbers.Integral`` as well."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SequenceSpec:
    """Shape family, normalization constraint, horizon and its rebounds."""

    kind: SequenceKind
    normalization: Normalization = Normalization.SUM_ONE
    shape_param: float | None = None   # m for POWER_LAW, nu for LOG_POWER
    bound: int | None = None
    alpha: float | None = None         # SUM_ALPHA and XI_WEIGHTED
    w0: float | None = None            # XI_WEIGHTED
    b0: float | None = None            # XI_WEIGHTED
    rebounds: tuple[tuple[int, int], ...] = ()   # (n, horizon before), in order

    def __post_init__(self) -> None:
        if self.kind in (SequenceKind.CONSTANT_BOUNDED, SequenceKind.UNIFORM):
            if self.bound is None:
                raise SequenceError(f"{self.kind.value} requires a finite bound")
        horizons = [before for _, before in self.rebounds] + [self.bound]
        if any(h is not None and (not _is_integer(h) or h < 1) for h in horizons):
            raise SequenceError("bound must be a positive integer")
        for (n, before), after in zip(self.rebounds, horizons[1:]):
            if before is None:
                raise SequenceError("rebound requires a bounded table")
            if not _is_integer(n):
                raise SequenceError("rebound point n must be an integer")
            if after is None or not 0 <= n < after:
                raise SequenceError("need 0 <= n < new horizon")
            if n > before:
                raise SequenceError(f"cannot have consumed {n} of {before} terms")
        if self.kind is SequenceKind.POWER_LAW:
            if self.shape_param is None or not 1 < self.shape_param < math.inf:
                raise SequenceError("POWER_LAW requires a finite shape_param m > 1")
        elif self.kind is SequenceKind.LOG_POWER:
            if self.shape_param is None or not 2 < self.shape_param < math.inf:
                raise SequenceError("LOG_POWER requires a finite shape_param nu > 2")
        elif self.shape_param is not None:
            raise SequenceError(f"{self.kind.value} takes no shape_param")
        if self.normalization is Normalization.SUM_ONE:
            if self.alpha is not None:
                raise SequenceError("SUM_ONE takes no alpha")
        elif self.alpha is None or not 0 < self.alpha < 1:
            raise SequenceError(f"{self.normalization.name} requires alpha in (0, 1)")
        if self.normalization is Normalization.XI_WEIGHTED:
            if self.w0 is None or not 0 <= self.w0 < math.inf:
                raise SequenceError("XI_WEIGHTED requires a finite w0 >= 0")
            if self.b0 is None or not 0 < self.b0 < math.inf:
                raise SequenceError("XI_WEIGHTED requires a finite b0 > 0")
        elif self.w0 is not None or self.b0 is not None:
            raise SequenceError(f"{self.normalization.name} takes no w0 or b0")

    def rebounded(self, n: int, new_bound: int) -> SequenceSpec:
        """This spec rebound after ``n`` hypotheses to ``new_bound``."""
        return replace(self, bound=new_bound, rebounds=(*self.rebounds, (n, self.bound)))


def gamma_jm(i: int) -> float:
    """Raw coefficient C * log(max(i,2)) / (i * exp(sqrt(log i))) with the
    published C."""
    if i < 1:
        raise ValueError("index must be >= 1")
    return JM_C * math.log(max(i, 2)) / (i * math.exp(math.sqrt(math.log(i))))


# ---------------------------------------------------------------------------
# shapes and analytic tails
# ---------------------------------------------------------------------------

def _shape(spec: SequenceSpec, idx: np.ndarray) -> np.ndarray:
    """Unscaled coefficient shape at 1-based indices ``idx``."""
    j = np.asarray(idx, dtype=np.float64)
    kind = spec.kind
    if kind is SequenceKind.JM_OPTIMAL:
        return np.log(np.maximum(j, 2.0)) / (j * np.exp(np.sqrt(np.log(j))))
    if kind is SequenceKind.POWER_LAW:
        return j ** (-float(spec.shape_param))
    if kind is SequenceKind.LOG_POWER:
        return 1.0 / (j * np.log(np.maximum(j, 2.0)) ** float(spec.shape_param))
    if kind is SequenceKind.INVERSE_SQUARE:
        return j ** -2.0
    # CONSTANT_BOUNDED and UNIFORM
    return np.ones_like(j)


def _tail_integral(spec: SequenceSpec, x: float, log_weight: bool) -> float:
    """Closed form of ``int_x^inf shape(t) * (log t if log_weight else 1) dt``."""
    kind = spec.kind
    if kind is SequenceKind.JM_OPTIMAL:
        s = math.sqrt(math.log(x))
        if not log_weight:
            return 2.0 * math.exp(-s) * (s**3 + 3 * s**2 + 6 * s + 6)
        return 2.0 * math.exp(-s) * (
            s**5 + 5 * s**4 + 20 * s**3 + 60 * s**2 + 120 * s + 120
        )
    if kind in (SequenceKind.POWER_LAW, SequenceKind.INVERSE_SQUARE):
        m = 2.0 if kind is SequenceKind.INVERSE_SQUARE else float(spec.shape_param)
        base = x ** (1.0 - m) / (m - 1.0)
        if not log_weight:
            return base
        return base * (math.log(x) + 1.0 / (m - 1.0))
    if kind is SequenceKind.LOG_POWER:
        nu = float(spec.shape_param)
        u = math.log(x)
        if not log_weight:
            return u ** (1.0 - nu) / (nu - 1.0)
        return u ** (2.0 - nu) / (nu - 2.0)
    raise SequenceError(f"{kind.value} has no infinite-horizon tail")


def _constraint(spec: SequenceSpec):
    """Weights ``(a, b)`` and budget of the spec's normalization constraint
    ``sum_j c_j (a + b log j) = budget``."""
    if spec.normalization is Normalization.SUM_ONE:
        return (1.0, 0.0), 1.0
    if spec.normalization is Normalization.SUM_ALPHA:
        return (1.0, 0.0), float(spec.alpha)
    if spec.w0 <= spec.b0:
        return (1.0, 1.0), spec.alpha / spec.b0
    return (spec.w0, spec.b0), float(spec.alpha)


def _weighted(values: np.ndarray, first: int, weights) -> np.ndarray:
    """``values[k] * (a + b log j)`` with ``j = first + k``, for
    ``weights = (a, b)``."""
    a, b = weights
    if not b:
        return values if a == 1.0 else values * a
    return values * (a + b * np.log(np.arange(first, first + len(values))))


# terms built and summed at a time by _constraint_sum
_SUM_BLOCK = 2 ** 14


def _pairwise_sum(terms, lo: int, hi: int) -> float:
    """``np.sum(terms(lo, hi))`` for ``terms(a, b)``, the float array of
    terms ``a, ..., b - 1``, holding at most ``_SUM_BLOCK`` of them at once.

    numpy sums a contiguous run of ``n`` doubles pairwise: more than 128
    are split at ``n2 = n // 2`` less ``n2 % 8`` and the halves' sums added.
    Splitting the same way down to runs of ``_SUM_BLOCK`` and summing those
    with numpy adds in numpy's order, so the sum is bit for bit the same.
    """
    n = hi - lo
    if n <= _SUM_BLOCK:
        return float(np.sum(terms(lo, hi)))
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum(terms, lo, lo + n2) + _pairwise_sum(terms, lo + n2, hi)


def _constraint_sum(spec: SequenceSpec, scale: float, prefix: np.ndarray,
                    weights, upto: int | None = None,
                    terms: int = _VALIDATE_TERMS) -> float:
    """``sum_{j <= upto} c_j (a + b log j)``, where ``c_j`` is ``prefix[j-1]``
    inside the materialized prefix and ``scale * shape(j)`` past it.

    ``upto=None`` means the bounded horizon, or for an infinite horizon
    ``max(len(prefix), terms)`` terms plus ``scale`` times the analytic tail.
    Terms past the prefix are built ``_SUM_BLOCK`` at a time.
    """
    tail = upto is None and spec.bound is None
    if upto is None:
        upto = spec.bound if spec.bound is not None else max(len(prefix), terms)
    elif spec.bound is not None and upto > spec.bound:
        raise SequenceError(f"index {upto} beyond bounded horizon N={spec.bound}")
    have = len(prefix)

    def weighted(lo: int, hi: int) -> np.ndarray:
        """Terms of the 1-based indices ``lo + 1, ..., hi``."""
        coeffs = prefix[lo:hi]
        if hi > have:
            fresh = _shape(spec, np.arange(max(lo, have) + 1, hi + 1,
                                           dtype=np.float64))
            fresh *= scale
            coeffs = np.concatenate([coeffs, fresh]) if len(coeffs) else fresh
        return _weighted(coeffs, lo + 1, weights)

    total = _pairwise_sum(weighted, 0, upto)
    if tail:
        a, b = weights
        rest = a * _tail_integral(spec, upto + 0.5, False)
        if b:
            rest += b * _tail_integral(spec, upto + 0.5, True)
        total += scale * rest
    return total


def _scale_constant(spec: SequenceSpec) -> float:
    # Unbounded plain-sum JM tables carry the published constant verbatim;
    # its series sums to ~0.976 < budget, which the procedures tolerate
    # (the truncated constraint sum never exceeds the budget).
    if spec.kind is SequenceKind.JM_OPTIMAL and spec.bound is None:
        if spec.normalization is Normalization.SUM_ONE:
            return JM_C
        if spec.normalization is Normalization.SUM_ALPHA:
            return spec.alpha * JM_C
    weights, budget = _constraint(spec)
    return budget / _constraint_sum(spec, 1.0, np.empty(0), weights,
                                    terms=_TRUNC_TERMS)


def xi_constant_bounded(N: int, w0: float, b0: float, alpha: float) -> float:
    """Constant xi level for a bounded horizon: ``alpha / (b0 sum(1+log j))``
    when ``w0 <= b0``, else ``alpha / sum(w0 + b0 log j)``."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if b0 <= 0 or w0 < 0 or not 0 < alpha < 1:
        raise ValueError("require b0 > 0, w0 >= 0, 0 < alpha < 1")
    log_sum = math.lgamma(N + 1)
    if w0 <= b0:
        return alpha / (b0 * (N + log_sum))
    return alpha / (N * w0 + b0 * log_sum)


# ---------------------------------------------------------------------------
# materialized tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SequenceTable:
    """Materialized coefficients; an immutable value with read-only arrays,
    safe to share between streams and threads.  The running partial sums
    are computed from the coefficients when first read.

    Bounded tables hold all N terms.  Infinite-horizon tables hold a prefix;
    reading past it raises :class:`SequenceError`, and :meth:`extended`
    builds a longer table from this one.
    """

    spec: SequenceSpec
    scale_constant: float
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        frozen = np.array(self.coefficients, dtype=np.float64)
        frozen.flags.writeable = False
        object.__setattr__(self, "coefficients", frozen)

    def __deepcopy__(self, memo) -> SequenceTable:
        return self   # immutable, and shared between streams already

    def __reduce__(self):
        # unpickled through the constructor, so its array is read-only again
        return SequenceTable, (self.spec, self.scale_constant, self.coefficients)

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Read-only partial sums, the same bits however the table grew."""
        sums = np.cumsum(self.coefficients)
        sums.flags.writeable = False
        return sums

    @cached_property
    def bound(self) -> int | None:   # a plain attribute once read
        return self.spec.bound

    def __len__(self) -> int:
        return len(self.coefficients)

    def _past_end(self, n: int) -> SequenceError:
        if self.bound is not None:
            return SequenceError(f"index {n} beyond bounded horizon N={self.bound}")
        return SequenceError(f"index {n} beyond the {len(self)} materialized "
                             f"terms; use extended()")

    def extended(self, n: int) -> SequenceTable:
        """This table if it holds ``n`` terms, else a longer infinite table
        (at least double the length) with the same scale constant."""
        have = len(self)
        if n <= have:
            return self
        if self.bound is not None:
            raise self._past_end(n)
        new_len = max(n, 2 * have)
        fresh = self.scale_constant * _shape(self.spec,
                                             np.arange(have + 1, new_len + 1))
        return SequenceTable(
            spec=self.spec,
            scale_constant=self.scale_constant,
            coefficients=np.concatenate([self.coefficients, fresh]),
        )

    def coefficient(self, i: int) -> float:
        """1-based coefficient."""
        if i < 1:
            raise ValueError("index must be >= 1")
        if i > len(self.coefficients):
            raise self._past_end(i)
        return float(self.coefficients[i - 1])

    def head(self, n: int) -> np.ndarray:
        """Read-only view of the first ``n`` coefficients."""
        if n > len(self.coefficients):
            raise self._past_end(n)
        return self.coefficients[:n]

    def cumulative_sum(self, i: int) -> float:
        """Partial sum of coefficients 1..i (0 for i=0)."""
        if i <= 0:
            return 0.0
        if i > len(self):
            raise self._past_end(i)
        return float(self.cumulative[i - 1])

    def constraint_sum(self, upto: int | None = None) -> float:
        """Constraint-weighted sum of the coefficients.

        With ``upto=None`` a bounded table sums all N terms; an infinite
        table sums at least its materialized prefix and adds the analytic
        tail.  Terms past the prefix are computed, not stored.
        """
        weights, _ = _constraint(self.spec)
        return _constraint_sum(self.spec, self.scale_constant,
                               self.coefficients, weights, upto)


def build_table(spec: SequenceSpec, length_hint: int = 1024) -> SequenceTable:
    """Materialize a table for ``spec``; bounded specs materialize fully."""
    if length_hint < 1:
        raise ValueError("length_hint must be >= 1")
    if spec.rebounds:
        return _replayed(spec)
    scale = _scale_constant(spec)
    n = spec.bound if spec.bound is not None else length_hint
    idx = np.arange(1, n + 1)
    return SequenceTable(
        spec=spec,
        scale_constant=scale,
        coefficients=scale * _shape(spec, idx),
    )


@lru_cache(maxsize=2)
def _replayed(spec: SequenceSpec) -> SequenceTable:
    """The table of a rebound spec: its last rebound replayed on the table
    of the spec before it.  Cached, so that each table of a chain of
    rebounds is built once, not once for every later rebound; two entries
    hold a chain's last table and the one before it."""
    *earlier, (n, before) = spec.rebounds
    table = build_table(replace(spec, bound=before, rebounds=tuple(earlier)))
    return rebound(table, n, spec.bound)


def validate_xi(table: SequenceTable, w0: float, b0: float, alpha: float) -> bool:
    """Check the dependency-robust budget inequality for ``table``.

    ``sum xi_j (1 + log j) <= alpha/b0`` when ``w0 <= b0``, otherwise
    ``sum xi_j (w0 + b0 log j) <= alpha``, to absolute tolerance 1e-10.
    Infinite tables add the analytic tail for the unmaterialized part.
    Raises SequenceError unless b0 > 0, w0 >= 0 and 0 < alpha < 1.
    """
    weights, budget = _constraint(replace(
        table.spec, normalization=Normalization.XI_WEIGHTED,
        alpha=alpha, w0=w0, b0=b0))
    total = _constraint_sum(table.spec, table.scale_constant,
                            table.coefficients, weights)
    return total <= budget + _TOL


def rebound(table: SequenceTable, n: int, new_bound: int) -> SequenceTable:
    """Re-spread the unspent budget of a bounded table over a new horizon.

    The first ``n`` coefficients are kept as spent; indices ``n+1..new_bound``
    get same-family coefficients rescaled so spent-plus-remaining equals the
    original budget under the table's normalization constraint.  The new
    table's spec is ``table.spec.rebounded(n, new_bound)``.
    """
    spec = table.spec.rebounded(n, new_bound)
    weights, budget = _constraint(spec)
    remaining = budget - table.constraint_sum(upto=n)
    if remaining < -_TOL:
        raise SequenceError("already-spent mass exceeds the budget")
    tail_shape = _shape(spec, np.arange(n + 1, new_bound + 1))
    tail_norm = float(np.sum(_weighted(tail_shape, n + 1, weights)))
    tail_scale = max(remaining, 0.0) / tail_norm
    return SequenceTable(spec, tail_scale, np.concatenate(
        [table.coefficients[:n], tail_scale * tail_shape]))
