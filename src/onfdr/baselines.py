"""Offline comparators and scoring: step-up procedure, uncorrected testing,
and the false-discovery/power metrics."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .procedures import _as_pvalues, _shown


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


def _step_up(p: np.ndarray, level: float):
    """Rejection flags and p-value cutoffs of the step-up rule at ``level``
    on each row of a (rows x N) matrix: a row's cutoff is its largest
    p_(i) <= i * level / N, or 0.0 where there is none."""
    n = p.shape[1]
    ordered = np.sort(p, axis=1)
    passing = ordered <= np.arange(1, n + 1) * level / n
    # the order statistics ascend: the largest passing one is the last.  A
    # row with none passing holds no p-value <= 0.0 (it would pass)
    cutoff = np.maximum.reduce(ordered, axis=1, where=passing, initial=0.0)
    return p <= cutoff[:, None], cutoff


def _harmonic(n: int) -> float:
    """The harmonic sum of 1, ..., n, and 1.0 for n = 0."""
    return float(np.sum(1.0 / np.arange(1, max(n, 1) + 1)))


# each offline rule's rejection flags and p-value cutoffs (alpha itself for
# uncorrected testing) on each row of a checked (rows x N) matrix
OFFLINE_RULES = {
    "bh": _step_up,
    "bh-adjusted": lambda p, alpha: _step_up(p, alpha / _harmonic(p.shape[1])),
    "uncorrected": lambda p, alpha: (p < alpha, np.full(len(p), alpha)),
}


def _offline_rule(rule: str):
    """``OFFLINE_RULES[rule]``, refusing a name it lacks with the ones it has."""
    if rule not in OFFLINE_RULES:
        raise ValueError(f"unknown offline rule {rule!r}, expected one of "
                         f"{', '.join(OFFLINE_RULES)}")
    return OFFLINE_RULES[rule]


def _check_alpha(alpha: float) -> None:
    """Refuse a level outside (0, 1), as ``ProcedureConfig`` does."""
    if not 0 < alpha < 1:   # False for NaN
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")


def _one_row(rule: str, pvalues, alpha: float) -> BatchResult:
    """The offline ``rule`` on one sequence of p-values, refused as the
    online rules' ``observe`` refuses them."""
    _check_alpha(alpha)
    p, given, k = _as_pvalues(pvalues, 1)
    if k < p.size:
        raise ValueError(f"p-value must lie in [0, 1], got {_shown(given[k])} "
                         f"at index {k + 1}")
    rejected, cutoff = OFFLINE_RULES[rule](p[None], alpha)
    return BatchResult(rejected[0], float(cutoff[0]))


def bh(pvalues, alpha: float) -> BatchResult:
    """Step-up procedure: find the largest i with p_(i) <= i * alpha / N and
    reject every hypothesis with p <= p_(i)."""
    return _one_row("bh", pvalues, alpha)


def bh_adjusted(pvalues, alpha: float) -> BatchResult:
    """Step-up procedure with alpha divided by the harmonic sum, valid under
    arbitrary dependence."""
    return _one_row("bh-adjusted", pvalues, alpha)


def uncorrected(pvalues, alpha: float) -> BatchResult:
    """Reject every p strictly below alpha (no multiplicity correction)."""
    return _one_row("uncorrected", pvalues, alpha)


def offline_rows(rule: str, pvalues: np.ndarray, alpha: float) -> np.ndarray:
    """Rejection flags of the offline ``rule`` (a key of ``OFFLINE_RULES``)
    on each row of a checked (replicates x N) matrix, equal to the rule's
    flags on that row."""
    _check_alpha(alpha)
    return _offline_rule(rule)(pvalues, alpha)[0]


def _flags(values) -> np.ndarray:
    if not isinstance(values, np.ndarray):
        values = list(values)
    return np.asarray(values, dtype=bool)


def _counts(decisions: np.ndarray, truth: np.ndarray):
    """R, V and m1 along the last axis: rejections, false rejections and
    non-nulls (one count for a one-dimensional ``truth``)."""
    return [x.sum(axis=-1) for x in (decisions, decisions & ~truth, truth)]


def score(decisions, truth) -> tuple[float, float | None]:
    """False discovery proportion and power of one batch of decisions.

    FDP is V / max(R, 1), with R rejections of which V are of nulls; power
    is (R - V) / m1, the fraction of the m1 non-null hypotheses rejected,
    or None when there are no non-nulls.  Both arguments may be boolean
    arrays or sequences of truth values.  Given two (replicates x N)
    matrices it scores each row: FDP and power are arrays, power NaN for a
    row with no non-null.  One batch is scored as a one-row matrix.
    """
    decisions, truth = _flags(decisions), _flags(truth)
    if decisions.shape != truth.shape:
        raise ValueError("decisions and truth must have equal length")
    if decisions.ndim != 2:
        (fdp,), (power,) = score(decisions.reshape(1, -1), truth.reshape(1, -1))
        return float(fdp), None if np.isnan(power) else float(power)
    r, v, m1 = _counts(decisions, truth)
    return v / np.maximum(r, 1), (r - v) / np.where(m1 > 0, m1, np.nan)
