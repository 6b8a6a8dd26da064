"""Offline comparators and scoring: step-up procedure, uncorrected testing,
and the false-discovery/power metrics."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .procedures import _first_invalid


@dataclass(frozen=True, eq=False)
class BatchResult:
    """Rejection flags of an offline rule (read-only, hypothesis i at
    ``i - 1``), with its effective p-value cutoff."""

    rejected: np.ndarray
    threshold: float

    def __post_init__(self) -> None:
        self.rejected.setflags(write=False)

    @cached_property
    def rejected_indices(self) -> frozenset[int]:   # 1-based
        return frozenset((self.rejected.nonzero()[0] + 1).tolist())

    @property
    def n_rejected(self) -> int:
        return int(np.count_nonzero(self.rejected))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BatchResult):
            return NotImplemented
        return self.threshold == other.threshold and \
            np.array_equal(self.rejected, other.rejected)

    def __hash__(self) -> int:
        return hash((self.threshold, self.rejected.tobytes()))


def _pvalue_array(pvalues) -> np.ndarray:
    """``pvalues`` as a one-dimensional float array; NaN or a value outside
    [0, 1] raises ValueError, as it does in the online rules' ``observe``."""
    if not isinstance(pvalues, np.ndarray):
        pvalues = list(pvalues)
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1:
        raise ValueError("p-values must form a one-dimensional sequence")
    k = _first_invalid(p)
    if k < p.size:
        raise ValueError(f"p-value must lie in [0, 1], got {float(p[k])!r} "
                         f"at index {k + 1}")
    return p


def _step_up(p: np.ndarray, level: float):
    """Rejection flags and p-value cutoffs of the step-up rule at ``level``
    on each row of a (rows x N) matrix: a row's cutoff is its largest
    p_(i) <= i * level / N, or -inf where there is none."""
    n = p.shape[1]
    ordered = np.sort(p, axis=1)
    passing = ordered <= np.arange(1, n + 1) * level / n
    # the order statistics ascend: the largest passing one is the last
    cutoff = np.maximum.reduce(ordered, axis=1, where=passing, initial=-np.inf)
    return p <= cutoff[:, None], cutoff


def _harmonic(n: int) -> float:
    return float(np.sum(1.0 / np.arange(1, n + 1)))


def _batch_step_up(p: np.ndarray, level: float) -> BatchResult:
    rejected, cutoff = _step_up(p[None], level)
    return BatchResult(rejected[0], max(float(cutoff[0]), 0.0))


def bh(pvalues, alpha: float) -> BatchResult:
    """Step-up procedure: find the largest i with p_(i) <= i * alpha / N and
    reject every hypothesis with p <= p_(i)."""
    return _batch_step_up(_pvalue_array(pvalues), alpha)


def bh_adjusted(pvalues, alpha: float) -> BatchResult:
    """Step-up procedure with alpha divided by the harmonic sum, valid under
    arbitrary dependence."""
    p = _pvalue_array(pvalues)
    return _batch_step_up(p, alpha / _harmonic(p.size) if p.size else alpha)


def uncorrected(pvalues, alpha: float) -> BatchResult:
    """Reject every p strictly below alpha (no multiplicity correction)."""
    return BatchResult(_pvalue_array(pvalues) < alpha, alpha)


# the offline rules by name
OFFLINE_RULES = {"bh": bh, "bh-adjusted": bh_adjusted, "uncorrected": uncorrected}


def offline_rows(rule: str, pvalues: np.ndarray, alpha: float) -> np.ndarray:
    """Rejection flags of the offline ``rule`` (a key of ``OFFLINE_RULES``)
    on each row of a checked (replicates x N) matrix, equal to the rule's
    flags on that row."""
    n = pvalues.shape[1]
    if OFFLINE_RULES[rule] is uncorrected or n == 0:
        return pvalues < alpha
    level = alpha if OFFLINE_RULES[rule] is bh else alpha / _harmonic(n)
    return _step_up(pvalues, level)[0]


def _flags(values) -> np.ndarray:
    if not isinstance(values, np.ndarray):
        values = list(values)
    return np.asarray(values, dtype=bool)


def score(decisions, truth) -> tuple[float, float | None]:
    """False discovery proportion and power of one batch of decisions.

    FDP is V / max(R, 1); power is the fraction of non-null hypotheses
    rejected, or None when there are no non-nulls.  Both arguments may be
    boolean arrays or sequences of truth values.  Given two (replicates x
    N) matrices it scores each row: FDP and power are arrays, power NaN
    for a row with no non-null.
    """
    decisions, truth = _flags(decisions), _flags(truth)
    if decisions.shape != truth.shape:
        raise ValueError("decisions and truth must have equal length")
    if decisions.ndim == 2:
        r, v, m1 = (np.count_nonzero(x, axis=1)
                    for x in (decisions, decisions & ~truth, truth))
        power = np.divide(r - v, m1, out=np.full(len(m1), np.nan),
                          where=m1 > 0)
        return v / np.maximum(r, 1), power
    r = int(np.count_nonzero(decisions))
    v = int(np.count_nonzero(decisions & ~truth))
    m1 = int(np.count_nonzero(truth))
    fdp = v / max(r, 1)
    if m1 == 0:
        return fdp, None
    return fdp, (r - v) / m1
