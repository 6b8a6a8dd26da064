"""Offline comparators and scoring: step-up procedure, uncorrected testing,
and the false-discovery/power metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class BatchResult:
    """Rejection set of an offline rule, with its effective p-value cutoff."""

    rejected_indices: frozenset[int]   # 1-based
    threshold: float

    @property
    def n_rejected(self) -> int:
        return len(self.rejected_indices)

    def mask(self, n: int) -> np.ndarray:
        """Rejection flags of hypotheses 1..n as a boolean array."""
        flags = np.zeros(n, dtype=bool)
        flags[np.fromiter(self.rejected_indices, np.intp,
                          self.n_rejected) - 1] = True
        return flags


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
    if p.size == 0:
        return BatchResult(frozenset(), 0.0)
    n = p.size
    ordered = np.sort(p)
    ranks = np.arange(1, n + 1)
    passing = np.nonzero(ordered <= ranks * alpha / n)[0]
    if passing.size == 0:
        return BatchResult(frozenset(), 0.0)
    threshold = float(ordered[passing[-1]])
    rejected = frozenset((np.nonzero(p <= threshold)[0] + 1).tolist())
    return BatchResult(rejected, threshold)


def bh_adjusted(pvalues, alpha: float) -> BatchResult:
    """Step-up procedure with alpha divided by the harmonic sum, valid under
    arbitrary dependence."""
    p = list(pvalues)
    n = len(p)
    if n == 0:
        return BatchResult(frozenset(), 0.0)
    harmonic = float(np.sum(1.0 / np.arange(1, n + 1)))
    return bh(p, alpha / harmonic)


def uncorrected(pvalues, alpha: float) -> BatchResult:
    """Reject every p strictly below alpha (no multiplicity correction)."""
    p = _pvalue_array(pvalues)
    rejected = frozenset((np.nonzero(p < alpha)[0] + 1).tolist())
    return BatchResult(rejected, alpha)


@dataclass
class MetricsAccumulator:
    """Per-replicate false-discovery proportions and powers with their
    running means and Monte Carlo standard errors.

    Power is recorded only for replicates that contained non-nulls; the
    mean is None until at least one such replicate arrives.
    """

    fdps: list[float] = field(default_factory=list)
    powers: list[float] = field(default_factory=list)

    def add(self, fdp: float, power: float | None) -> None:
        if not 0.0 <= fdp <= 1.0:
            raise ValueError(f"FDP must lie in [0, 1], got {fdp!r}")
        self.fdps.append(float(fdp))
        if power is not None:
            self.powers.append(float(power))

    def add_batch(self, decisions, truth) -> None:
        self.add(*score(decisions, truth))

    @staticmethod
    def _mean_se(values) -> tuple[float | None, float | None]:
        n = len(values)
        if n == 0:
            return None, None
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return mean, se

    @property
    def fdr(self) -> float | None:
        return self._mean_se(self.fdps)[0]

    @property
    def fdr_se(self) -> float | None:
        return self._mean_se(self.fdps)[1]

    @property
    def power(self) -> float | None:
        return self._mean_se(self.powers)[0]

    @property
    def power_se(self) -> float | None:
        return self._mean_se(self.powers)[1]


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
