"""Online FDR state machines: one incremental level/observe engine per rule.

The rules form four families.  Payout rules (LORD2, LORD++, SAFFRON) add
to a base ``w0 gamma(c)`` a payout ``gamma(c - d)`` per discovery, ``c`` the
clock of the hypothesis and ``d`` that of the discovery, weighted by
:func:`_payout_weights`.  Wealth rules (LORD3, dependent LORD) scale a
coefficient by the wealth after the last discovery, LOND by the number of
discoveries; Bonferroni's levels are its coefficients.

Every procedure is driven through the same three operations:
``make_stream`` builds a fresh :class:`StreamState` from a validated
:class:`ProcedureConfig`, ``next_level`` computes the upcoming test level
without mutating the state, and ``observe`` consumes one p-value.  A stream
is strictly sequential; distinct streams are independent.

``decide`` consumes a run of p-values at once and equals the fold of
``observe`` over them: a fixpoint search of a few vector passes for the
rules whose levels only grow with the discoveries, one vector search per
discovery for LORD3 and dependent LORD.  Given a state it resumes that
stream and advances it in place, so a long stream can be decided in
chunks, with ``observe`` and ``rebound_stream`` between them.
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


_PAYOUT_KINDS = (ProcedureKind.LORD2, ProcedureKind.LORDPP, ProcedureKind.SAFFRON)
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
    # parallel buffers: rejection times and the clocks of those rejections
    # (the time less the candidates through it for SAFFRON, the time else)
    _tau: np.ndarray = field(default_factory=lambda: np.zeros(16, dtype=np.int64))
    _clock: np.ndarray = field(default_factory=lambda: np.zeros(16, dtype=np.int64))

    @property
    def rejection_times(self) -> list[int]:
        return self._tau[: self.discoveries].tolist()

    def _push_rejections(self, times, clocks) -> None:
        """Append one rejection (scalars) or several (arrays)."""
        k = self.discoveries
        end = k + np.size(times)
        if end > len(self._tau):
            grow = np.zeros(max(end, 2 * len(self._tau)) - len(self._tau), np.int64)
            self._tau = np.concatenate([self._tau, grow])
            self._clock = np.concatenate([self._clock, grow])
        self._tau[k:end] = times
        self._clock[k:end] = clocks
        self.discoveries = end


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


def _payout_weights(config: ProcedureConfig) -> tuple[float | None, float]:
    """Payout weights of LORD2, LORD++ or SAFFRON: that of the stream's
    first discovery (None for LORD2, which pays ``b0`` for every one) and
    that of each later discovery."""
    if config.kind is ProcedureKind.LORD2:
        return None, config.b0
    alpha = config.alpha * (1 - config.lam) \
        if config.kind is ProcedureKind.SAFFRON else config.alpha
    return alpha - config.w0, alpha


def _payout_sum(table: SequenceTable, gaps: np.ndarray) -> float:
    """Sum of coefficients at the given 1-based index gaps."""
    coeffs = table.coefficients
    if len(gaps) < 24:
        # in discovery order, faster than numpy on few terms.  This order at
        # every length would make decide equal the fold bit for bit, but it
        # made a 10^5-row observe loop about 24% slower (2-CPU x86 machine).
        return float(sum(coeffs[g - 1] for g in gaps.tolist()))
    return float(coeffs[gaps - 1].sum())


def next_level(state: StreamState, config: ProcedureConfig) -> float:
    """Test level for hypothesis ``state.i + 1``; does not mutate the state.

    One branch per family: payout (the clock is the index, less the
    candidates for SAFFRON, whose level is capped at lambda), wealth (LORD3
    restarts its coefficients at each discovery), LOND and Bonferroni."""
    i = state.i + 1
    if state.bound is not None and i > state.bound:
        raise HorizonExhaustedError(
            f"horizon N={state.bound} exhausted at index {i}; rebound to continue"
        )
    table = state.table
    kind = config.kind
    k = state.discoveries

    if kind in _PAYOUT_KINDS:
        first, later = _payout_weights(config)
        c = i - state.candidates_total
        level = table.coefficient(c) * config.w0
        if k:
            gaps = c - state._clock[:k]
            if first is not None:
                level += first * table.coefficient(int(gaps[0]))
                gaps = gaps[1:]
            level += later * _payout_sum(table, gaps)
        return min(config.lam, level) if kind is ProcedureKind.SAFFRON else level

    if kind in _WEALTH_KINDS:
        last = int(state._tau[k - 1]) if k and kind is ProcedureKind.LORD3 else 0
        return table.coefficient(i - last) * state.wealth_at_discovery

    if kind in _LOND_KINDS:
        beta = table.coefficient(i)
        if kind is ProcedureKind.LOND_DEP:
            beta /= state._harmonic + 1.0 / i
        return beta * (max(k, 1) if config.lond_original else k + 1)

    # BONFERRONI: the sequence carries the levels (alpha-scaled when SUM_ONE)
    beta = table.coefficient(i)
    if config.sequence.normalization is Normalization.SUM_ONE:
        beta *= config.alpha
    return beta


# what a p-value may be: a Python or numpy real number (or bool), the kinds
# of number `decide` accepts in an array ("biuf")
_REAL_TYPES = (int, float, np.integer, np.floating, np.bool_)


def observe(state: StreamState, p: float, config: ProcedureConfig) -> DecisionRecord:
    """Consume one p-value: decide, update wealth/history, advance the stream."""
    value = p if type(p) is float else \
        float(p) if isinstance(p, _REAL_TYPES) else math.nan
    if not 0.0 <= value <= 1.0:   # False for NaN
        raise ValueError(f"p-value must lie in [0, 1], got {p!r}")
    p = value
    level = next_level(state, config)
    rejected = p <= level
    i = state.i + 1
    kind = config.kind

    if kind in _WEALTH_KINDS:
        state.wealth = state.wealth - level + (config.b0 if rejected else 0.0)
        if rejected:
            state.wealth_at_discovery = state.wealth
    if kind is ProcedureKind.SAFFRON:
        state.candidates_total += p <= config.lam
    if rejected:
        state._push_rejections(i, i - state.candidates_total)
    if kind is ProcedureKind.LOND_DEP:
        state._harmonic += 1.0 / i
    state.i = i
    if state.bound is None and i >= len(state.table):
        state.table = state.table.extended(i + 1)
    return DecisionRecord(
        index=i,
        p=p,
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


def _checked_pvalues(pvalues, state: StreamState) -> np.ndarray:
    """``pvalues`` as a float array; the first bad value or the first index
    past the stream's horizon raises what :func:`run_stream` raises there."""
    if not isinstance(pvalues, np.ndarray):
        pvalues = list(pvalues)
    p = np.asarray(pvalues)
    if p.dtype.kind not in "biuf":   # strings, None, mixed objects
        p = np.array([v if isinstance(v, _REAL_TYPES) else np.nan
                      for v in pvalues])
    if p.ndim != 1:
        raise ValueError("p-values must form a one-dimensional sequence")
    p = p.astype(np.float64, copy=False)
    valid = (p >= 0.0) & (p <= 1.0)   # False for NaN
    bound = state.bound
    stop = len(p) if bound is None else min(len(p), bound - state.i + 1)
    if not valid[:stop].all():
        k = int(np.argmin(valid))
        raise ValueError(f"at stream index {state.i + k + 1}: p-value must lie "
                         f"in [0, 1], got {pvalues[k]!r}")
    if stop < len(p):
        raise HorizonExhaustedError(
            f"at stream index {bound + 1}: horizon N={bound} exhausted at index "
            f"{bound + 1}; rebound to continue")
    return p


# rows filled and searched at once after a discovery; the window doubles
# while it holds no discovery (the least a fixpoint pass proposes, too)
_WINDOW = 64


def _scan(p: np.ndarray, fill, on_discovery):
    """Levels and rejections of a stream whose levels change only at
    discoveries: ``fill(s, out)`` writes the levels of hypotheses
    ``s, s + 1, ...`` (0-based) under the discoveries so far into ``out``,
    the first ``p <= level`` among them is the next discovery, and
    ``on_discovery(t, levels)`` records it.  Only a window after the last
    discovery is filled and searched."""
    n = len(p)
    levels = np.empty(n)
    start, width = 0, _WINDOW
    while start < n:
        stop = min(start + width, n)
        fill(start, levels[start:stop])
        hits = p[start:stop] <= levels[start:stop]
        k = int(hits.argmax())
        if hits[k]:
            on_discovery(start + k, levels)
            start, width = start + k + 1, _WINDOW
        else:
            start, width = stop, 2 * width
    return levels, np.less_equal(p, levels)


_NO_DISCOVERIES = np.empty(0, dtype=np.intp)


def _fixpoint(p: np.ndarray, start, counted: bool = False,
              summed: bool = True):
    """Levels and rejections of a monotone rule, whose level at a hypothesis
    never falls when a discovery is added before it.

    Every hit ``p <= level`` under a subset of the stream's discoveries is
    then a discovery, so the search accepts all hits at once and repeats
    until a pass finds none; the decisions up to the first new hit of a
    pass are final, so the next pass starts after it.  A pass proposes a
    window of rows, so a stream whose discoveries each make only the next
    hypothesis a hit costs a window per discovery, not the rest of the run.

    ``start()`` returns a fresh ``propose(lo, new, rejected, before, out)``:
    it adds the discoveries ``new`` (ascending, flagged in ``rejected``
    since its last call) and writes the levels of hypotheses ``lo, lo + 1,
    ...`` under the flagged ones into ``out``.  If ``counted``,
    ``before[i]`` counts the flagged ones before hypothesis ``i``, up to
    ``lo + len(out)``; else it is None.

    Levels that sum payouts (``summed``) are the fold's bit for bit when the
    discoveries are added in index order; otherwise they may round
    differently, so they are rebuilt in index order and checked.  A level
    depends only on the decisions before it, so where ``p <= level`` first
    disagrees with the search, the decisions before are certified: that one
    is corrected and the search resumes after it.
    """
    n = len(p)
    rejected, levels = np.zeros(n, dtype=bool), np.empty(n)
    before = np.zeros(n + 1, dtype=np.intp) if counted else None
    propose, lo, new, width = start(), 0, _NO_DISCOVERIES, n
    last, ordered = -1, True   # the last discovery added so far
    while True:
        while lo < n:
            hi = min(lo + width, n)
            if counted:
                # the counts up to lo - 1 hold: every discovery since is later
                s = max(lo - 1, 0)
                np.add.accumulate(rejected[s:hi], dtype=np.intp,
                                  out=before[s + 1:hi + 1])
                before[s + 1:hi + 1] += before[s]
            propose(lo, new, rejected, before, levels[lo:hi])
            hits = p[lo:hi] <= levels[lo:hi]
            if last >= lo:
                hits &= ~rejected[lo:hi]
            new = hits.nonzero()[0]
            if not len(new):   # no discovery before hi is missing
                if hi == n:
                    break
                lo, width = hi, 2 * width
                continue
            new += lo
            rejected[new] = True
            width = max(_WINDOW, 2 * (int(new[-1]) + 1 - lo))
            lo = int(new[0]) + 1
            ordered = ordered and lo > last
            last = max(last, int(new[-1]))
        if ordered or not summed:
            return levels, rejected
        # the levels up to the first discovery of the run are pass one's
        new = rejected.nonzero()[0]
        lo = int(new[0]) + 1
        start()(lo, new, rejected, before, levels[lo:])
        wrong = (np.less_equal(p, levels) != rejected).nonzero()[0]
        if not len(wrong):
            return levels, rejected
        x = int(wrong[0])
        rejected[x] = not rejected[x]
        rejected[x + 1:] = False
        propose, lo, new, width = start(), x + 1, rejected.nonzero()[0], n
        last, ordered = (int(new[-1]) if len(new) else -1), True


def decide(config: ProcedureConfig, pvalues,
           state: StreamState | None = None) -> Decisions:
    """Every decision of a run of ``pvalues`` at once, equal to folding
    :func:`observe` over them.

    Without ``state`` the run is a fresh stream.  Given a ``state`` (from
    :func:`make_stream`, :func:`observe`, :func:`rebound_stream` or an
    earlier call), the run continues it and advances it in place as the
    fold would, so a stream may be decided in pieces and interleaved with
    ``observe`` and ``rebound_stream``; a split stream gets the same
    levels, decisions and wealth as one call, bit for bit.  A refused
    value or index raises what :func:`run_stream` raises there and leaves
    ``state`` as it was.

    The levels of LORD2, LORD++, SAFFRON, LOND and dependent LOND never fall
    when a discovery is added before them, so their decisions are the
    fixpoint of a search that accepts every hit at once and recomputes the
    levels under them (:func:`_fixpoint`): a few vector passes per run.
    LORD3 and dependent LORD restart their coefficients at each discovery;
    between two discoveries their levels are a closed-form vector, searched
    once per discovery (:func:`_scan`).  Decisions and wealth equal the
    fold's; payout levels (LORD2, LORD++, SAFFRON) after 24 or more
    discoveries are summed in another order and agree to rounding.
    """
    fresh = state is None
    state = make_stream(config, length_hint=1) if fresh else state
    p = _checked_pvalues(pvalues, state)
    n = len(p)
    i0 = state.i
    if state.bound is None:   # the fold keeps one term past the last index
        state.table = state.table.extended(i0 + n + 1)
    g = state.table.coefficients
    gamma = g[i0:i0 + n]
    kind = config.kind
    wealth = None

    if kind is ProcedureKind.BONFERRONI:
        levels = gamma * config.alpha \
            if config.sequence.normalization is Normalization.SUM_ONE \
            else gamma.copy()
        rejected = p <= levels

    elif kind in _LOND_KINDS:
        beta = gamma
        if kind is ProcedureKind.LOND_DEP:
            # add.accumulate is sequential: the fold's running harmonic sum
            harmonic = np.cumsum(np.concatenate(
                ([state._harmonic], 1.0 / np.arange(i0 + 1, i0 + n + 1))))
            state._harmonic = float(harmonic[-1])
            beta = gamma / harmonic[1:]
        # D + 1 for D discoveries before a hypothesis, or max(D, 1)
        shift = state.discoveries + (0 if config.lond_original else 1)

        def lond_levels(lo, new, rejected, before, out):
            mult = before[lo:lo + len(out)] + shift
            if config.lond_original:
                np.maximum(mult, 1, out=mult)
            np.multiply(beta[lo:lo + len(out)], mult, out=out)

        levels, rejected = _fixpoint(p, lambda: lond_levels, counted=True,
                                     summed=False)

    elif kind in _WEALTH_KINDS:
        # levels gamma_{i - tau} W(tau) (LORD3) or xi_i W(tau) (dependent
        # LORD), W(tau) the wealth after the last discovery tau; run[i + 1]
        # is the wealth after hypothesis i, spent by the sequential fold
        run = np.empty(n + 1)
        run[0] = state.wealth
        at_discovery = state.wealth_at_discovery
        segment = 0   # first hypothesis after the last discovery
        # g[i + shift] is the coefficient of hypothesis i
        if kind is ProcedureKind.LORD3:
            shift = i0 - (int(state._tau[state.discoveries - 1])
                          if state.discoveries else 0)
        else:
            shift = i0

        def spend(t, levels):
            s = segment
            run[s + 1:t + 2] = levels[s:t + 1]
            np.subtract.accumulate(run[s:t + 2], out=run[s:t + 2])

        def wealth_fill(s, out):
            np.multiply(g[s + shift:s + shift + len(out)], at_discovery, out=out)

        def wealth_found(t, levels):
            nonlocal segment, at_discovery, shift
            spend(t, levels)
            run[t + 1] += config.b0
            segment = t + 1
            at_discovery = float(run[t + 1])
            if kind is ProcedureKind.LORD3:
                shift = -segment

        levels, rejected = _scan(p, wealth_fill, wealth_found)
        spend(n - 1, levels)
        wealth = run[1:]
        state.wealth, state.wealth_at_discovery = float(run[n]), at_discovery

    else:
        candidates = np.cumsum(p <= config.lam) \
            if kind is ProcedureKind.SAFFRON else None
        levels, rejected = _fixpoint(
            p, _payout_levels(config, state, p, g, candidates),
            counted=candidates is not None)

    if fresh:   # nobody holds the state
        return Decisions(levels, rejected, wealth)
    times = rejected.nonzero()[0]
    tau = clocks = i0 + 1 + times
    if kind is ProcedureKind.SAFFRON:
        clocks = tau - state.candidates_total - candidates[times]
        state.candidates_total += int(candidates[-1]) if n else 0
    state._push_rejections(tau, clocks)
    state.i = i0 + n
    return Decisions(levels, rejected, wealth)


def _payout_levels(config: ProcedureConfig, state: StreamState, p: np.ndarray,
                   g: np.ndarray, candidates: np.ndarray | None):
    """:func:`_fixpoint`'s ``start`` for the payout family (LORD2, LORD++
    and SAFFRON).

    The clock is the hypothesis index, or for SAFFRON the index less the
    candidates (``p <= lambda``) up to it; ``candidates`` counts them
    through each hypothesis of the run (None for LORD2 and LORD++).  Base
    and payout are kept per clock value of the run, so each discovery is
    one contiguous add.  The payout of the stream's earlier discoveries, on
    their stored clocks, is added first, in discovery order, as one call
    over the whole stream adds it.  A SAFFRON discovery is a candidate, so
    it shares its clock with the candidates just before it, which it does
    not pay: its gamma(1) is added to each hypothesis after it on that
    clock instead.
    """
    n = len(p)
    first, later = _payout_weights(config)
    origin = state.i - state.candidates_total   # clock before the run
    if candidates is not None:
        clock = np.arange(n)   # clock - origin - 1
        clock[1:] -= candidates[:-1]
        span = int(clock[-1]) + 1 if n else 0
    else:
        clock, span = None, n

    def pay(owed, skip=0):
        """Add in order the payouts of discoveries whose gamma(1) falls on
        clock ``origin + 1 + q``, q in ``owed``, from ``skip`` clocks on;
        the stream's first one joins the base term from its own clock."""
        nonlocal first
        for q in owed:
            if first is None:
                s = max(q + skip, 0)
                payout[s:] += g[s - q:span - q]
            else:
                s = max(q, 0)
                base[s:] += first * g[s - q:span - q]
                first = None

    base, payout = g[origin:origin + span] * config.w0, np.zeros(span)
    if state.discoveries:
        pay((state._clock[:state.discoveries] - origin).tolist())
    carried = base, payout, first
    starts = owns = None

    def propose(lo, new, rejected, before, out):
        nonlocal starts, owns
        hi = lo + len(out)
        if clock is None:
            if len(new):
                pay((new + 1).tolist())
            np.multiply(payout[lo:hi], later, out=out)
            np.add(base[lo:hi], out, out=out)
            return
        if len(new):
            if starts is None:
                # first hypothesis on the clock, and after the first
                # discovery of the stream, which paid its own clock into
                # the base term (the same in every search)
                starts = clock.searchsorted(clock)
                if first is not None:
                    np.maximum(starts, new[0] + 1, out=starts)
                # the payout of each hypothesis's clock and its own gamma(1)
                # adds, as the last pass over it found them; lo - 1 is the
                # run's first discovery, with no own adds before it
                owns = np.empty(n)
                owns[lo - 1] = payout[clock[lo - 1]]
            pay(clock[new].tolist(), skip=1)
        at = clock[lo:hi]
        level_base, own = base[at], payout[at]
        if starts is not None:
            # each discovery before a hypothesis on its clock adds gamma(1),
            # in discovery order.  On the clock of lo it is a running sum on
            # from the value of lo - 1, which no discovery since changed:
            # gamma(1) after a discovery, 0.0 (which changes nothing) after
            # the others
            e = int(starts[lo:hi].searchsorted(lo, "right"))
            if starts[lo] < lo:
                own[0] = owns[lo - 1] + g[0] if rejected[lo - 1] \
                    else owns[lo - 1]
            if before[lo + e - 1] > before[lo]:
                np.multiply(rejected[lo:lo + e - 1], g[0], out=own[1:e])
                np.add.accumulate(own[:e], out=own[:e])
            else:
                own[1:e] = own[0]
            if before[hi - 1] > before[lo + e]:
                # the later clocks of the window, one add after the other
                rest = own[e:]
                m = before[lo + e:hi] - before[starts[lo + e:hi]]
                after = m.nonzero()[0]
                while len(after):
                    rest[after] += g[0]
                    m[after] -= 1
                    after = after[m[after] > 0]
            owns[lo:hi] = own
        np.multiply(own, later, out=out)
        np.add(level_base, out, out=out)
        np.minimum(out, config.lam, out=out)

    def start():
        nonlocal base, payout, first
        base, payout, first = carried[0].copy(), carried[1].copy(), carried[2]
        return propose

    return start


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
