"""Online FDR state machines: one incremental level/observe engine per rule.

Every procedure is driven through the same three operations:
``make_stream`` builds a fresh :class:`StreamState` from a validated
:class:`ProcedureConfig`, ``next_level`` computes the upcoming test level
without mutating the state, and ``observe`` consumes one p-value.  A stream
is strictly sequential; distinct streams are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .sequences import (
    Normalization,
    SequenceKind,
    SequenceSpec,
    SequenceTable,
    build_table,
    rebound,
    validate_xi,
)


class ProcedureKind(str, Enum):
    LORD2 = "lord2"
    LORD3 = "lord3"
    LORDPP = "lord++"
    SAFFRON = "saffron"
    LORD_DEP = "lord-dep"
    LOND_INDEP = "lond"
    LOND_DEP = "lond-dep"
    BONFERRONI = "bonferroni"


_WEALTH_KINDS = (ProcedureKind.LORD3, ProcedureKind.LORD_DEP)
_LOND_KINDS = (ProcedureKind.LOND_INDEP, ProcedureKind.LOND_DEP)


class ConfigError(ValueError):
    """A procedure configuration violates one of its invariants."""


class HorizonExhaustedError(RuntimeError):
    """A bounded stream was asked to test beyond its horizon."""


@dataclass(frozen=True)
class ProcedureConfig:
    """Target level, wealth parameters and coefficient sequence of one rule.

    ``lond_original`` switches LOND's multiplier from ``D(i-1) + 1`` to the
    original ``max(D(i-1), 1)`` form; it is off by default.
    """

    kind: ProcedureKind
    alpha: float = 0.05
    w0: float = 0.0
    b0: float = 0.0
    lam: float = 0.5
    sequence: SequenceSpec | None = None
    lond_original: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ConfigError("alpha must lie in (0, 1)")
        if self.sequence is None:
            raise ConfigError("a coefficient sequence is required")
        k = self.kind
        if k in (ProcedureKind.LORD2, ProcedureKind.LORD3, ProcedureKind.LORD_DEP):
            if self.w0 < 0:
                raise ConfigError("w0 >= 0 is required")
            if self.b0 <= 0:
                raise ConfigError("b0 > 0 is required")
            # dependent LORD's budget is the xi inequality (make_stream)
            if k is not ProcedureKind.LORD_DEP and self.w0 + self.b0 > self.alpha + 1e-12:
                raise ConfigError("w0 + b0 <= alpha is required")
        elif k is ProcedureKind.LORDPP:
            if not 0 <= self.w0 <= self.alpha:
                raise ConfigError("0 <= w0 <= alpha is required")
        elif k is ProcedureKind.SAFFRON:
            if not 0 < self.lam < 1:
                raise ConfigError("lambda must lie in (0, 1)")
            if not 0 <= self.w0 < (1 - self.lam) * self.alpha:
                raise ConfigError("w0 < (1 - lambda) * alpha is required")


@dataclass(frozen=True)
class DecisionRecord:
    """Outcome of testing one hypothesis."""

    index: int
    p: float
    level: float
    rejected: bool
    wealth_after: float | None = None


@dataclass
class StreamState:
    """Sufficient statistics of one running stream."""

    table: SequenceTable
    i: int = 0
    wealth: float | None = None
    wealth_at_discovery: float | None = None
    discoveries: int = 0
    candidates_total: int = 0
    bound: int | None = None
    _harmonic: float = 0.0
    # parallel buffers: rejection times and candidate counts at those times
    _tau: np.ndarray = field(default_factory=lambda: np.zeros(16, dtype=np.int64))
    _cand_at_tau: np.ndarray = field(default_factory=lambda: np.zeros(16, dtype=np.int64))

    @property
    def rejection_times(self) -> list[int]:
        return self._tau[: self.discoveries].tolist()

    def _push_rejection(self, time: int, cand_count: int) -> None:
        k = self.discoveries
        if k == len(self._tau):
            self._tau = np.concatenate([self._tau, np.zeros(k, dtype=np.int64)])
            self._cand_at_tau = np.concatenate(
                [self._cand_at_tau, np.zeros(k, dtype=np.int64)]
            )
        self._tau[k] = time
        self._cand_at_tau[k] = cand_count
        self.discoveries = k + 1


# defaults mirror the simulation-study specification: w0 = alpha/2 and
# b0 = alpha - w0 for the wealth-based rules, lambda = 0.5 with
# w0 = (1 - lambda) * alpha / 2 for the adaptive rule.
def default_sequence(kind: ProcedureKind, alpha: float,
                     bound: int | None = None) -> SequenceSpec:
    """Per-procedure default coefficient sequence."""
    if kind in (ProcedureKind.LORD2, ProcedureKind.LORD3, ProcedureKind.LORDPP):
        return SequenceSpec(SequenceKind.JM_OPTIMAL, Normalization.SUM_ONE,
                            bound=bound)
    if kind is ProcedureKind.SAFFRON:
        return SequenceSpec(SequenceKind.INVERSE_SQUARE, Normalization.SUM_ONE,
                            bound=bound)
    if kind is ProcedureKind.LORD_DEP:
        w0 = alpha / 2
        b0 = alpha - w0
        if bound is None:
            return SequenceSpec(SequenceKind.LOG_POWER, Normalization.XI_WEIGHTED,
                                shape_param=3.0, alpha=alpha, w0=w0, b0=b0)
        return SequenceSpec(SequenceKind.CONSTANT_BOUNDED, Normalization.XI_WEIGHTED,
                            bound=bound, alpha=alpha, w0=w0, b0=b0)
    # LOND (both forms) and Bonferroni
    if bound is None:
        return SequenceSpec(SequenceKind.JM_OPTIMAL, Normalization.SUM_ALPHA,
                            alpha=alpha)
    return SequenceSpec(SequenceKind.UNIFORM, Normalization.SUM_ALPHA,
                        alpha=alpha, bound=bound)


def default_config(kind: ProcedureKind, alpha: float = 0.05,
                   bound: int | None = None, **overrides) -> ProcedureConfig:
    """Config with the simulation-study defaults for ``kind``."""
    params = dict(kind=kind, alpha=alpha,
                  sequence=default_sequence(kind, alpha, bound))
    if kind in (ProcedureKind.LORD2, ProcedureKind.LORD3, ProcedureKind.LORD_DEP):
        params.update(w0=alpha / 2, b0=alpha / 2)
    elif kind is ProcedureKind.LORDPP:
        params.update(w0=alpha / 2)
    elif kind is ProcedureKind.SAFFRON:
        params.update(lam=0.5, w0=(1 - 0.5) * alpha / 2)
    params.update(overrides)
    return ProcedureConfig(**params)


@lru_cache(maxsize=256)
def _table_cache(spec: SequenceSpec) -> SequenceTable:
    return build_table(spec, length_hint=1024)


def _cached_table(spec: SequenceSpec, length_hint: int) -> SequenceTable:
    """The shared table for ``spec``; an infinite one is extended to
    ``length_hint`` terms as a new value, leaving the cached one as it is."""
    table = _table_cache(spec)
    return table if spec.bound is not None else table.extended(length_hint)


@lru_cache(maxsize=256)
def _check_config(config: ProcedureConfig) -> None:
    """Checks of ``config`` against its table; cached, so a config that
    passes is checked once, not once per stream."""
    table = _table_cache(config.sequence)
    if config.kind is ProcedureKind.LORD_DEP:
        if not validate_xi(table, config.w0, config.b0, config.alpha):
            raise ConfigError(
                "xi sequence violates the dependent-LORD budget inequality"
            )
    if config.kind in _WEALTH_KINDS:
        first = table.coefficient(1)
        if first > 1 + 1e-12:
            raise ConfigError("leading coefficient must be <= 1 to keep wealth "
                              "nonnegative")


def make_stream(config: ProcedureConfig, length_hint: int = 1024) -> StreamState:
    """Validate ``config`` and initialize its stream state.

    Tables are immutable and cached per spec, so streams share them; an
    unbounded stream swaps in a longer table when it reaches the end of
    its own.
    """
    _check_config(config)
    spec = config.sequence
    state = StreamState(table=_cached_table(spec, length_hint), bound=spec.bound)
    if config.kind in _WEALTH_KINDS:
        state.wealth = config.w0
        state.wealth_at_discovery = config.w0
    return state


def _payout_sum(table: SequenceTable, gaps: np.ndarray) -> float:
    """Sum of coefficients at the given (non-empty) 1-based index gaps."""
    coeffs = table.coefficients
    if len(gaps) < 24:
        return float(sum(coeffs[g - 1] for g in gaps.tolist()))
    return float(coeffs[gaps - 1].sum())


def next_level(state: StreamState, config: ProcedureConfig) -> float:
    """Test level for hypothesis ``state.i + 1``; does not mutate the state."""
    i = state.i + 1
    if state.bound is not None and i > state.bound:
        raise HorizonExhaustedError(
            f"horizon N={state.bound} exhausted at index {i}; rebound to continue"
        )
    table = state.table
    kind = config.kind
    k = state.discoveries

    if kind is ProcedureKind.LORD2:
        level = table.coefficient(i) * config.w0
        if k:
            gaps = i - state._tau[:k]
            level += config.b0 * _payout_sum(table, gaps)
        return level

    if kind is ProcedureKind.LORD3:
        tau_last = int(state._tau[k - 1]) if k else 0
        return table.coefficient(i - tau_last) * state.wealth_at_discovery

    if kind is ProcedureKind.LORDPP:
        level = table.coefficient(i) * config.w0
        if k:
            level += (config.alpha - config.w0) * table.coefficient(i - int(state._tau[0]))
            if k > 1:
                gaps = i - state._tau[1:k]
                level += config.alpha * _payout_sum(table, gaps)
        return level

    if kind is ProcedureKind.SAFFRON:
        lam, alpha, w0 = config.lam, config.alpha, config.w0
        c_before = state.candidates_total
        tilde = w0 * table.coefficient(i - c_before)
        if k:
            # candidate counts strictly inside (tau_j, i)
            gaps = (i - c_before) - (state._tau[:k] - state._cand_at_tau[:k])
            tilde += ((1 - lam) * alpha - w0) * table.coefficient(int(gaps[0]))
            if k > 1:
                tilde += (1 - lam) * alpha * _payout_sum(table, gaps[1:])
        return min(lam, tilde)

    if kind is ProcedureKind.LORD_DEP:
        return table.coefficient(i) * state.wealth_at_discovery

    if kind in _LOND_KINDS:
        beta = table.coefficient(i)
        if kind is ProcedureKind.LOND_DEP:
            beta /= state._harmonic + 1.0 / i
        mult = max(state.discoveries, 1) if config.lond_original \
            else state.discoveries + 1
        return beta * mult

    # BONFERRONI: the sequence carries the levels (alpha-scaled when SUM_ONE)
    beta = table.coefficient(i)
    if config.sequence.normalization is Normalization.SUM_ONE:
        beta *= config.alpha
    return beta


def observe(state: StreamState, p: float, config: ProcedureConfig) -> DecisionRecord:
    """Consume one p-value: decide, update wealth/history, advance the stream."""
    if not isinstance(p, (int, float)) or math.isnan(p) or not 0.0 <= p <= 1.0:
        raise ValueError(f"p-value must lie in [0, 1], got {p!r}")
    level = next_level(state, config)
    rejected = p <= level
    i = state.i + 1
    kind = config.kind

    if kind in _WEALTH_KINDS:
        state.wealth = state.wealth - level + (config.b0 if rejected else 0.0)
        if rejected:
            state.wealth_at_discovery = state.wealth
    if kind is ProcedureKind.SAFFRON:
        is_candidate = p <= config.lam
        if rejected:
            state._push_rejection(i, state.candidates_total + int(is_candidate))
        state.candidates_total += int(is_candidate)
    elif rejected:
        state._push_rejection(i, 0)
    if kind is ProcedureKind.LOND_DEP:
        state._harmonic += 1.0 / i
    state.i = i
    if state.bound is None and i >= len(state.table):
        state.table = state.table.extended(i + 1)
    return DecisionRecord(
        index=i,
        p=float(p),
        level=level,
        rejected=rejected,
        wealth_after=state.wealth,
    )


def run_stream(config: ProcedureConfig, pvalues, length_hint: int | None = None,
               state: StreamState | None = None) -> list[DecisionRecord]:
    """Fold :func:`observe` over ``pvalues`` in order."""
    pvalues = list(pvalues)
    if state is None:
        hint = length_hint if length_hint is not None else max(len(pvalues), 16)
        state = make_stream(config, length_hint=hint)
    records = []
    for offset, p in enumerate(pvalues):
        try:
            records.append(observe(state, p, config))
        except (ValueError, HorizonExhaustedError) as exc:
            raise type(exc)(f"at stream index {state.i + 1}: {exc}") from exc
    return records


class Decisions(NamedTuple):
    """Levels, rejection flags and (LORD3, dependent LORD) wealth after
    each test of one stream, as arrays."""

    levels: np.ndarray
    rejected: np.ndarray
    wealth: np.ndarray | None


def _checked_pvalues(pvalues, bound: int | None) -> np.ndarray:
    """``pvalues`` as a float array; the first bad value or the first index
    past ``bound`` raises what :func:`run_stream` raises there."""
    if not isinstance(pvalues, np.ndarray):
        pvalues = list(pvalues)
    p = np.asarray(pvalues)
    if p.dtype.kind not in "biuf":   # strings, None, mixed objects
        p = np.array([v if isinstance(v, (int, float)) else np.nan
                      for v in pvalues])
    if p.ndim != 1:
        raise ValueError("p-values must form a one-dimensional sequence")
    p = p.astype(np.float64, copy=False)
    valid = (p >= 0.0) & (p <= 1.0)   # False for NaN
    stop = len(p) if bound is None else min(len(p), bound + 1)
    if not valid[:stop].all():
        i = int(np.argmin(valid)) + 1
        raise ValueError(f"at stream index {i}: p-value must lie in [0, 1], "
                         f"got {pvalues[i - 1]!r}")
    if stop < len(p):
        raise HorizonExhaustedError(
            f"at stream index {stop}: horizon N={bound} exhausted at index "
            f"{stop}; rebound to continue")
    return p


def _scan(p: np.ndarray, fill, on_discovery):
    """Levels and rejections of a stream whose levels change only at
    discoveries: ``fill(s, out)`` writes the levels of hypotheses ``s..``
    (0-based) under the discoveries so far into ``out``, the first
    ``p <= level`` among them is the next discovery, and
    ``on_discovery(t, levels)`` records it."""
    n = len(p)
    levels = np.empty(n)
    start = 0
    while start < n:
        fill(start, levels[start:])
        hits = p[start:] <= levels[start:]
        k = int(hits.argmax())
        if not hits[k]:
            break
        on_discovery(start + k, levels)
        start += k + 1
    return levels, np.less_equal(p, levels)


def decide(config: ProcedureConfig, pvalues) -> Decisions:
    """Every decision of one stream at once, equal to folding :func:`observe`
    over ``pvalues`` from a fresh stream.

    Between two discoveries every rule's levels are a closed-form vector, so
    the work is one vector search per discovery instead of one ``observe``
    call per hypothesis.  Decisions and wealth equal the fold's; payout
    levels (LORD2, LORD++, SAFFRON) after 24 or more discoveries are summed
    in another order and agree to rounding.  Use it when the whole batch is
    known; use :func:`observe` for a true stream or to rebound.
    """
    _check_config(config)
    spec = config.sequence
    p = _checked_pvalues(pvalues, spec.bound)
    n = len(p)
    gamma = _cached_table(spec, max(n, 1)).coefficients[:n]
    kind = config.kind

    if kind is ProcedureKind.BONFERRONI:
        levels = gamma * config.alpha \
            if spec.normalization is Normalization.SUM_ONE else gamma.copy()
        return Decisions(levels, p <= levels, None)

    if kind in _LOND_KINDS:
        beta = gamma
        if kind is ProcedureKind.LOND_DEP:
            # add.accumulate is sequential: the fold's running harmonic sum
            beta = gamma / np.cumsum(1.0 / np.arange(1, n + 1))
        found = 0

        def lond_fill(s, out):
            mult = max(found, 1) if config.lond_original else found + 1
            np.multiply(beta[s:], mult, out=out)

        def lond_found(t, levels):
            nonlocal found
            found += 1

        return Decisions(*_scan(p, lond_fill, lond_found), None)

    if kind in _WEALTH_KINDS:
        # levels gamma_{i - tau} W(tau) (LORD3) or xi_i W(tau) (dependent
        # LORD), W(tau) the wealth after the last discovery tau; run[i + 1]
        # is the wealth after hypothesis i, spent by the sequential fold
        run = np.empty(n + 1)
        run[0] = config.w0
        segment = 0   # first hypothesis after the last discovery

        def spend(t, levels):
            s = segment
            run[s + 1:t + 2] = levels[s:t + 1]
            np.subtract.accumulate(run[s:t + 2], out=run[s:t + 2])

        def wealth_fill(s, out):
            shift = s if kind is ProcedureKind.LORD3 else 0
            np.multiply(gamma[s - shift:n - shift], float(run[s]), out=out)

        def wealth_found(t, levels):
            nonlocal segment
            spend(t, levels)
            run[t + 1] += config.b0
            segment = t + 1

        levels, rejected = _scan(p, wealth_fill, wealth_found)
        spend(n - 1, levels)
        return Decisions(levels, rejected, run[1:])

    # LORD2, LORD++ and SAFFRON: w0 gamma(clock) plus payouts gamma shifted
    # to each discovery; SAFFRON's clock skips candidates (p <= lambda)
    index = np.arange(n)   # clock - 1
    if kind is ProcedureKind.SAFFRON:
        candidates = np.cumsum(p <= config.lam)
        index[1:] -= candidates[:-1]
        first, later = (1 - config.lam) * config.alpha - config.w0, \
            (1 - config.lam) * config.alpha
    elif kind is ProcedureKind.LORDPP:
        first, later = config.alpha - config.w0, config.alpha
    else:   # LORD2 pays b0 for every discovery, summed as one payout
        first, later = None, config.b0
    base = gamma[index] * config.w0
    payout = np.zeros(n)

    def payout_fill(s, out):
        np.multiply(payout[s:], later, out=out)
        np.add(base[s:], out, out=out)
        if kind is ProcedureKind.SAFFRON:
            np.minimum(out, config.lam, out=out)

    def payout_found(t, levels):
        nonlocal first
        if kind is ProcedureKind.SAFFRON:
            shifted = gamma[index[t + 1:] - (t + 1 - int(candidates[t]))]
        else:
            shifted = gamma[:n - t - 1]
        if first is None:
            payout[t + 1:] += shifted
        else:   # the first discovery's payout joins the base term
            base[t + 1:] += first * shifted
            first = None

    return Decisions(*_scan(p, payout_fill, payout_found), None)


def rebound_stream(state: StreamState, config: ProcedureConfig,
                   new_bound: int) -> StreamState:
    """Replace the stream's bounded table, conserving the unspent budget."""
    if state.bound is None:
        raise ConfigError("rebound requires a bounded stream")
    if new_bound <= state.i:
        raise ConfigError(
            f"new horizon {new_bound} must exceed the {state.i} hypotheses tested"
        )
    state.table = rebound(state.table, state.i, new_bound)
    state.bound = new_bound
    return state


def limit_level(config: ProcedureConfig, i: int, length_hint: int = 1024) -> float:
    """Closed-form test level at index ``i`` assuming every prior hypothesis
    was rejected (and, for the adaptive rule, every prior p-value was a
    candidate)."""
    if i < 1:
        raise ValueError("index must be >= 1")
    kind = config.kind
    table = _cached_table(config.sequence, max(length_hint, i))
    alpha, w0, b0 = config.alpha, config.w0, config.b0

    if kind is ProcedureKind.LORD2:
        return table.coefficient(i) * w0 + b0 * table.cumulative_sum(i - 1)

    if kind is ProcedureKind.LORD3:
        g1 = table.coefficient(1)
        decay = (1 - g1) ** (i - 1)
        return g1 * decay * w0 + b0 * (1 - decay)

    if kind is ProcedureKind.LORDPP:
        level = table.coefficient(i) * w0
        if i >= 2:
            level += (alpha - w0) * table.coefficient(i - 1)
            level += alpha * table.cumulative_sum(i - 2)
        return level

    if kind is ProcedureKind.SAFFRON:
        g1 = table.coefficient(1)
        if i == 1:
            return min(config.lam, g1 * w0)
        return min(config.lam, (i - 1) * (1 - config.lam) * alpha * g1)

    if kind is ProcedureKind.LORD_DEP:
        xi = table.head(i)
        if i == 1:
            return float(xi[0]) * w0
        surv = np.cumprod(1.0 - xi[: i - 1])          # prod_{k<=t} (1 - xi_k)
        total = w0 * surv[-1] + b0
        if i >= 3:
            # sum_{j=2}^{i-1} prod_{k=j}^{i-1} (1 - xi_k)
            total += b0 * float(np.sum(surv[-1] / surv[: i - 2]))
        return float(xi[i - 1]) * total

    raise ConfigError(f"no all-rejections closed form for {kind.value}")
