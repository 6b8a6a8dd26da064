"""Offline comparators and scoring: step-up procedure, uncorrected testing,
and the false-discovery/power metrics."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


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
    """``pvalues`` as a float array; NaN or a value outside [0, 1] raises
    ValueError, as it does in the online rules' ``observe``."""
    if not isinstance(pvalues, np.ndarray):
        pvalues = list(pvalues)
    p = np.asarray(pvalues, dtype=float)
    valid = (p >= 0) & (p <= 1)   # False for NaN
    if not valid.all():
        k = int(np.argmin(valid))
        raise ValueError(f"p-value must lie in [0, 1], got {float(p[k])!r} "
                         f"at index {k + 1}")
    return p


def bh(pvalues, alpha: float) -> BatchResult:
    """Step-up procedure: find the largest i with p_(i) <= i * alpha / N and
    reject every hypothesis with p <= p_(i)."""
    p = _pvalue_array(pvalues)
    n = p.size
    ordered = np.sort(p)
    ranks = np.arange(1, n + 1)
    passing = np.nonzero(ordered <= ranks * alpha / n)[0]
    if passing.size == 0:
        return BatchResult(np.zeros(n, dtype=bool), 0.0)
    threshold = float(ordered[passing[-1]])
    return BatchResult(p <= threshold, threshold)


def bh_adjusted(pvalues, alpha: float) -> BatchResult:
    """Step-up procedure with alpha divided by the harmonic sum, valid under
    arbitrary dependence."""
    p = list(pvalues)
    n = len(p)
    if n == 0:
        return BatchResult(np.zeros(0, dtype=bool), 0.0)
    harmonic = float(np.sum(1.0 / np.arange(1, n + 1)))
    return bh(p, alpha / harmonic)


def uncorrected(pvalues, alpha: float) -> BatchResult:
    """Reject every p strictly below alpha (no multiplicity correction)."""
    return BatchResult(_pvalue_array(pvalues) < alpha, alpha)


def _flags(values) -> np.ndarray:
    if not isinstance(values, np.ndarray):
        values = list(values)
    return np.asarray(values, dtype=bool)


def score(decisions, truth) -> tuple[float, float | None]:
    """False discovery proportion and power of one batch of decisions.

    FDP is V / max(R, 1); power is the fraction of non-null hypotheses
    rejected, or None when there are no non-nulls.  Both arguments may be
    boolean arrays or sequences of truth values.
    """
    decisions, truth = _flags(decisions), _flags(truth)
    if decisions.shape != truth.shape:
        raise ValueError("decisions and truth must have equal length")
    r = int(np.count_nonzero(decisions))
    v = int(np.count_nonzero(decisions & ~truth))
    m1 = int(np.count_nonzero(truth))
    fdp = v / max(r, 1)
    if m1 == 0:
        return fdp, None
    return fdp, (r - v) / m1
