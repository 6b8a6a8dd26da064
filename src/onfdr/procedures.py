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
rules whose levels only grow with the discoveries, one windowed vector
search per discovery for LORD3 and dependent LORD.  Given a state it
resumes that stream and advances it in place, so a long stream can be
decided in chunks, with ``observe`` and ``rebound_stream`` between them.

``decide_rows`` decides many fresh streams of one length at once, one row
of a matrix each, with the flags ``decide`` gives each row; the Monte
Carlo harness runs every rule on a batch of replicates through it.  Its
payout rules sweep the clocks in blocks of 64, which costs a few dozen
numpy calls per block and up to ``N**2 / 2`` multiply-adds per row (5 10^9
at N = 10^5), so it does not suit one long stream: on a 10^5-row stream
with a tenth non-null it took 0.33 s against ``decide``'s 0.27 s for
LORD++ and 0.47 s against 0.17 s for SAFFRON (best of 3, 2-CPU x86
machine).
``decide`` stays the tool for ``onfdr run``, ``observe``-style resumption
and the exact-test designs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    """Target level, parameters and coefficient sequence of one rule.

    Unset parameters the rule reads are set to :func:`_rule_parameters`'s
    defaults, which ``dataclasses.replace`` then keeps; one the rule does
    not read is refused.  ``sequence`` gives the shape (by default the
    rule's unbounded one) and the horizon; the rule fixes the
    normalization and the config holds the result.
    ``lond_original`` switches LOND's multiplier from ``D(i-1) + 1`` to the
    original ``max(D(i-1), 1)`` form; it is off by default.
    """

    kind: ProcedureKind
    alpha: float = 0.05
    w0: float | None = None
    b0: float | None = None
    lam: float | None = None
    sequence: SequenceSpec | None = None
    lond_original: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ConfigError("alpha must lie in (0, 1)")
        k = self.kind
        defaults = _rule_parameters(k, self.alpha, self.lam)
        for name, shown in (("w0", "w0"), ("b0", "b0"), ("lam", "lambda")):
            if getattr(self, name) is None:
                object.__setattr__(self, name, defaults.get(name))
            elif name not in defaults:
                raise ConfigError(f"{k.value} takes no {shown}")
        if self.lond_original and k not in _LOND_KINDS:
            raise ConfigError(f"{k.value} takes no lond_original")
        if k in (ProcedureKind.LORD2, ProcedureKind.LORD3, ProcedureKind.LORD_DEP):
            if not 0 <= self.w0 < math.inf:   # False for NaN
                raise ConfigError("a finite w0 >= 0 is required")
            if not 0 < self.b0 < math.inf:
                raise ConfigError("a finite b0 > 0 is required")
            # dependent LORD's budget is its xi sequence's
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
        # the budget of the rule's coefficients: the xi inequality for
        # dependent LORD, alpha for LOND and Bonferroni, 1 for the rest
        budget = dict(normalization=Normalization.SUM_ONE, alpha=None, w0=None,
                      b0=None)
        if k is ProcedureKind.LORD_DEP:
            budget.update(normalization=Normalization.XI_WEIGHTED,
                          alpha=self.alpha, w0=self.w0, b0=self.b0)
        elif k in _LOND_KINDS or k is ProcedureKind.BONFERRONI:
            budget.update(normalization=Normalization.SUM_ALPHA, alpha=self.alpha)
        object.__setattr__(self, "sequence", replace(
            self.sequence or _default_shape(k, None), **budget))


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
    """Sufficient statistics of one running stream; its horizon is its table's."""

    table: SequenceTable
    i: int = 0
    wealth: float | None = None
    wealth_at_discovery: float | None = None
    discoveries: int = 0
    candidates_total: int = 0
    _harmonic: float = 0.0
    # parallel buffers: rejection times and the clocks of those rejections
    # (the time less the candidates through it for SAFFRON, the time else)
    _tau: np.ndarray = field(default_factory=lambda: np.zeros(16, dtype=np.int64))
    _clock: np.ndarray = field(default_factory=lambda: np.zeros(16, dtype=np.int64))

    @property
    def bound(self) -> int | None:
        return self.table.bound

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


def _rule_parameters(kind: ProcedureKind, alpha: float,
                     lam: float | None) -> dict[str, float]:
    """The parameters ``kind`` reads, at the simulation-study defaults;
    SAFFRON's ``w0`` follows ``lam`` when one is given."""
    if kind in (ProcedureKind.LORD2, ProcedureKind.LORD3, ProcedureKind.LORD_DEP):
        return {"w0": alpha / 2, "b0": alpha / 2}
    if kind is ProcedureKind.LORDPP:
        return {"w0": alpha / 2}
    if kind is ProcedureKind.SAFFRON:
        lam = 0.5 if lam is None else lam
        return {"lam": lam, "w0": (1 - lam) * alpha / 2}
    return {}


def _default_shape(kind: ProcedureKind, bound: int | None) -> SequenceSpec:
    """The shape of ``kind``'s default sequence at horizon ``bound``."""
    if kind in (ProcedureKind.LORD2, ProcedureKind.LORD3, ProcedureKind.LORDPP):
        return SequenceSpec(SequenceKind.JM_OPTIMAL, bound=bound)
    if kind is ProcedureKind.SAFFRON:
        return SequenceSpec(SequenceKind.INVERSE_SQUARE, bound=bound)
    if kind is ProcedureKind.LORD_DEP:
        return SequenceSpec(SequenceKind.LOG_POWER, shape_param=3.0) if \
            bound is None else SequenceSpec(SequenceKind.CONSTANT_BOUNDED, bound=bound)
    # LOND (both forms) and Bonferroni
    return SequenceSpec(SequenceKind.JM_OPTIMAL if bound is None
                        else SequenceKind.UNIFORM, bound=bound)


def default_sequence(kind: ProcedureKind, alpha: float,
                     bound: int | None = None) -> SequenceSpec:
    """Per-procedure default coefficient sequence: :func:`default_config`'s."""
    return default_config(kind, alpha, bound).sequence


def default_config(kind: ProcedureKind, alpha: float = 0.05,
                   bound: int | None = None, **overrides) -> ProcedureConfig:
    """Config of ``kind`` with the simulation-study defaults: the rule's
    default shape at horizon ``bound`` unless ``overrides`` gives a
    ``sequence``, and :class:`ProcedureConfig`'s parameter defaults."""
    return ProcedureConfig(kind, alpha, **{
        "sequence": _default_shape(kind, bound), **overrides})


@lru_cache(maxsize=256)
def _table_cache(spec: SequenceSpec) -> SequenceTable:
    return build_table(spec, length_hint=1024)


def _cached_table(spec: SequenceSpec, length_hint: int) -> SequenceTable:
    """The shared table for ``spec``; an infinite one is extended to
    ``length_hint`` terms as a new value, leaving the cached one as it is."""
    table = _table_cache(spec)
    return table if spec.bound is not None else table.extended(length_hint)


def make_stream(config: ProcedureConfig, length_hint: int = 1024) -> StreamState:
    """Initialize the stream state of ``config``.

    Tables are immutable and cached per spec, so streams share them; an
    unbounded stream swaps in a longer table when it reaches the end of
    its own.
    """
    state = StreamState(table=_cached_table(config.sequence, length_hint))
    # a leading coefficient above one spends more than the wealth held: a
    # sum-one table's is at most one, dependent LORD's xi table's may not be
    if config.kind is ProcedureKind.LORD_DEP and state.table.coefficient(1) > 1 + 1e-12:
        raise ConfigError("leading coefficient must be <= 1 to keep wealth "
                          "nonnegative")
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


def _horizon_error(bound: int, located: bool = False) -> HorizonExhaustedError:
    """The error of testing past the horizon ``bound``; ``located`` names
    the stream index first, as :func:`run_stream` does."""
    message = (f"horizon N={bound} exhausted at index {bound + 1}; "
               "rebound to continue")
    return HorizonExhaustedError(
        f"at stream index {bound + 1}: {message}" if located else message)


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
    table = state.table
    if table.bound is not None and i > table.bound:
        raise _horizon_error(table.bound)
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

    return table.coefficient(i)


# what a p-value may be: a Python or numpy real number (or bool), the kinds
# of number `decide` accepts in an array ("biuf")
_REAL_TYPES = (int, float, np.integer, np.floating, np.bool_)
_real_or_nan = np.frompyfunc(
    lambda v: v if isinstance(v, _REAL_TYPES) else math.nan, 1, 1)
# the shapes of the array entry points' p-values, by number of dimensions
_SHAPES = {1: "a one-dimensional sequence", 2: "a (streams x N) matrix"}


def _as_pvalues(pvalues, ndim: int):
    """``pvalues`` as a float array of ``ndim`` dimensions with NaN for a
    value that is not a real number; the values as given, to name a refused
    one; and the flat index of the first value not in [0, 1], else the size."""
    if not isinstance(pvalues, np.ndarray):
        pvalues = list(pvalues)
    p = np.asarray(pvalues)
    if p.dtype.kind not in "biuf":   # strings, None, mixed objects
        p = _real_or_nan(np.asarray(pvalues, dtype=object))
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != ndim:
        raise ValueError(f"p-values must form {_SHAPES[ndim]}")
    valid = (p >= 0.0) & (p <= 1.0)   # False for NaN
    return p, pvalues, p.size if valid.all() else int(valid.argmin())


def _shown(value) -> str:
    """A refused value as the offline rules and :func:`check_rows` name it:
    a real number by its float value, anything else as given."""
    return repr(float(value) if isinstance(value, _REAL_TYPES) else value)


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
    if state.table.bound is None and i >= len(state.table):
        state.table = state.table.extended(i + 1)
    return DecisionRecord(
        index=i,
        p=p,
        level=level,
        rejected=rejected,
        wealth_after=state.wealth,
    )


def run_stream(config: ProcedureConfig, pvalues,
               state: StreamState | None = None) -> list[DecisionRecord]:
    """Fold :func:`observe` over ``pvalues`` in order."""
    pvalues = list(pvalues)
    if state is None:
        state = make_stream(config, length_hint=max(len(pvalues), 16))
    records = []
    for p in pvalues:
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


# rows filled and searched at once after a discovery; the window doubles
# while it holds no discovery (the least a fixpoint pass proposes, too)
_WINDOW = 64


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


def _lond_beta(config: ProcedureConfig, gamma: np.ndarray, i0: int,
               harmonic: float) -> tuple[np.ndarray, float]:
    """LOND's coefficients of hypotheses ``i0 + 1, i0 + 2, ...``: for the
    dependent form divided by the running harmonic sum carried on from
    ``harmonic``; returns them and the sum after the last."""
    if config.kind is not ProcedureKind.LOND_DEP:
        return gamma, harmonic
    # add.accumulate is sequential: the fold's running harmonic sum
    run = np.cumsum(np.concatenate(
        ([harmonic], 1.0 / np.arange(i0 + 1, i0 + len(gamma) + 1))))
    return gamma / run[1:], float(run[-1])


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
    between two discoveries their levels are a closed-form vector, filled
    and searched in a doubling window after each discovery.  Decisions and
    wealth equal the fold's; payout levels (LORD2, LORD++, SAFFRON) after 24
    or more discoveries are summed in another order and agree to rounding.
    """
    fresh = state is None
    state = make_stream(config, length_hint=1) if fresh else state
    p, given, k = _as_pvalues(pvalues, 1)
    n = len(p)
    i0 = state.i
    # the fold checks the value at the first index past the horizon before
    # the horizon itself
    room = n if state.bound is None else state.bound - i0
    if k <= room and k < n:
        raise ValueError(f"at stream index {i0 + k + 1}: p-value must lie "
                         f"in [0, 1], got {given[k]!r}")
    if room < n:
        raise _horizon_error(state.bound, located=True)
    if state.bound is None:   # the fold keeps one term past the last index
        state.table = state.table.extended(i0 + n + 1)
    g = state.table.coefficients
    gamma = g[i0:i0 + n]
    kind = config.kind
    wealth = None

    if kind is ProcedureKind.BONFERRONI:
        levels = gamma.copy()   # not a view of the shared table
        rejected = p <= levels

    elif kind in _LOND_KINDS:
        beta, state._harmonic = _lond_beta(config, gamma, i0, state._harmonic)
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
        # LORD), W(tau) the wealth after the last discovery tau: between two
        # discoveries they are one vector, filled and searched a window at a
        # time.  run[i + 1] is the wealth after hypothesis i, spent in the
        # fold's order (a sequential accumulate, so in pieces too)
        levels, run = np.empty(n), np.empty(n + 1)
        run[0] = state.wealth
        at_discovery = state.wealth_at_discovery
        lord3 = kind is ProcedureKind.LORD3
        # g[i + shift] is the coefficient of hypothesis i
        shift = i0 - (int(state._tau[state.discoveries - 1])
                      if lord3 and state.discoveries else 0)
        start, width = 0, _WINDOW
        while start < n:
            stop = min(start + width, n)
            np.multiply(g[start + shift:stop + shift], at_discovery,
                        out=levels[start:stop])
            hits = p[start:stop] <= levels[start:stop]
            k = int(hits.argmax())
            # spend the wealth through the discovery, or through the window
            end = start + k + 1 if hits[k] else stop
            run[start + 1:end + 1] = levels[start:end]
            np.subtract.accumulate(run[start:end + 1], out=run[start:end + 1])
            if hits[k]:
                run[end] += config.b0
                at_discovery = float(run[end])
                if lord3:
                    shift = -end
                start, width = end, _WINDOW
            else:
                start, width = stop, 2 * width
        rejected = np.less_equal(p, levels)
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


# ---------------------------------------------------------------------------
# many fresh streams at once: one row of a matrix each
# ---------------------------------------------------------------------------

def check_rows(pvalues) -> np.ndarray:
    """``pvalues`` as a (streams x N) float matrix; a value that is not a
    number in [0, 1] raises ValueError naming its row and stream index."""
    p, given, k = _as_pvalues(pvalues, 2)
    if k < p.size:
        r, k = divmod(k, p.shape[1])
        raise ValueError(f"row {r}, at stream index {k + 1}: p-value must lie "
                         f"in [0, 1], got {_shown(given[r][k])}")
    return p


def decide_rows(config: ProcedureConfig, pvalues: np.ndarray) -> np.ndarray:
    """Rejection flags of every row of a matrix from :func:`check_rows`,
    each row a fresh stream: row ``r`` equals
    ``decide(config, pvalues[r]).rejected``.

    Built for Monte Carlo replicates, many short streams of one length:
    Bonferroni is one comparison with its levels; LOND repeats integer-count
    passes over the rows until no decision changes; LORD3 and dependent
    LORD sweep the columns, spending each row's wealth in the fold's order;
    LORD2, LORD++ and SAFFRON run :func:`_payout_rows`, whose products
    with a Toeplitz strip of the coefficients cost up to ``N**2 / 2``
    multiply-adds per row (5 10^9 for one 10^5-row stream, which
    :func:`decide` adds up one discovery at a time), and a row with a
    decision that its rounding bound does not certify is decided again by
    :func:`decide`.
    """
    n = pvalues.shape[1]
    state = make_stream(config, length_hint=n + 1)
    if state.bound is not None and n > state.bound:
        raise _horizon_error(state.bound, located=True)
    if pvalues.size == 0:
        return np.zeros(pvalues.shape, dtype=bool)
    g = state.table.coefficients
    kind = config.kind
    if kind is ProcedureKind.BONFERRONI:
        return pvalues <= g[:n]
    if kind in _LOND_KINDS:
        return _lond_rows(config, pvalues, _lond_beta(config, g[:n], 0, 0.0)[0])
    if kind in _WEALTH_KINDS:
        return _wealth_rows(config, pvalues, g)
    rejected, unsure = _payout_rows(config, pvalues, g)
    for r in unsure.nonzero()[0]:
        rejected[r] = decide(config, pvalues[r]).rejected
    return rejected


def _lond_rows(config: ProcedureConfig, p: np.ndarray,
               beta: np.ndarray) -> np.ndarray:
    """LOND on each row: the levels ``beta * (D + 1)`` (or ``max(D, 1)``)
    under the discoveries of the pass before, until a pass changes nothing.

    The levels are :func:`decide`'s products, exact in any order, and never
    fall when a discovery is added, so the passes only add discoveries and
    stop at the fold's; a row is dropped once a pass leaves it as it was.
    """
    shift = 0 if config.lond_original else 1
    rejected = np.zeros(p.shape, dtype=bool)
    rows = np.arange(len(p))
    while len(rows):
        flags = rejected[rows]
        mult = np.cumsum(flags, axis=1)
        mult -= flags   # the discoveries before each hypothesis
        mult += shift
        if config.lond_original:
            np.maximum(mult, 1, out=mult)
        hits = p[rows] <= np.multiply(beta, mult)
        moved = (hits != flags).any(axis=1)
        rejected[rows[moved]] = hits[moved]
        rows = rows[moved]
    return rejected


def _wealth_rows(config: ProcedureConfig, p: np.ndarray,
                 g: np.ndarray) -> np.ndarray:
    """LORD3 or dependent LORD on each row, one column at a time: the level
    of every row is its coefficient times its wealth after its last
    discovery, and the wealth is spent as :func:`decide` spends it."""
    rows, n = p.shape
    lord3 = config.kind is ProcedureKind.LORD3
    wealth = np.full(rows, config.w0)
    at_discovery = wealth.copy()
    last = np.zeros(rows, dtype=np.intp)   # LORD3: 1-based last discovery
    rejected = np.empty((n, rows), dtype=bool)
    columns = np.ascontiguousarray(p.T)
    level = np.empty(rows)
    for i in range(n):
        np.multiply(g[i - last] if lord3 else g[i], at_discovery, out=level)
        hit = np.less_equal(columns[i], level, out=rejected[i])
        np.subtract(wealth, level, out=wealth)
        if hit.any():
            wealth[hit] += config.b0
            at_discovery[hit] = wealth[hit]
            if lord3:
                last[hit] = i + 1
    return rejected.T


# clocks per block of the payout kernel, and the most hypotheses of a row a
# block holds (SAFFRON's blocks are halved until they hold at most that many,
# down to one clock)
_BLOCK = 64
_WINDOW_ROWS = 8 * _BLOCK


def _toeplitz_strip(c: np.ndarray, length: int) -> np.ndarray:
    """The payouts of a block's discoveries: ``strip[_BLOCK - 1 - a, x] =
    c[x - a - 1]`` for ``x > a``, else 0 (also past the end of ``c``), is
    paid on clock ``x`` (counted from the block's first clock) by a
    discovery on clock ``a`` of the block, for ``length`` clocks.

    A read-only view ``strip[b, x] = padded[b + x]`` of one zero-padded
    copy of ``c``: rows overlap, so it holds ``length + _BLOCK`` floats,
    and each row is contiguous.
    """
    padded = np.zeros(_BLOCK + length)
    padded[_BLOCK:_BLOCK + min(len(c), length)] = c[:length]
    step = padded.strides[0]
    return np.lib.stride_tricks.as_strided(
        padded, shape=(_BLOCK, length), strides=(step, step), writeable=False)


def _add_payouts(out: np.ndarray, count: np.ndarray, strip: np.ndarray) -> None:
    """``out += count[:, ::-1] @ strip``, the payouts of the discoveries
    counted per row and block clock: one product over the rows with a
    nonzero count, or one row add per nonzero count where they are fewer
    than about one per 128 columns of the strip per row (a row add of ``w``
    terms costs about as much as a product row of ``128 w`` multiply-adds,
    on a 2-CPU x86 machine)."""
    rows, clocks = count.nonzero()
    paid = np.unique(rows)
    if len(rows) * 128 > len(paid) * strip.shape[1]:
        # einsum is fast with a contiguous first operand
        out[paid] += np.einsum("ra,ax->rx",
                               np.ascontiguousarray(count[paid, ::-1]), strip)
        return
    for r, a in zip(rows.tolist(), clocks.tolist()):
        c = count[r, a]
        row = strip[_BLOCK - 1 - a]
        out[r] += row if c == 1.0 else c * row


def _payout_rows(config: ProcedureConfig, p: np.ndarray, g: np.ndarray):
    """LORD2, LORD++ or SAFFRON on each row: the rejection flags, and the
    rows whose flags the rounding bound below does not certify.

    Clocks (0-based here: ``k`` is the 1-based clock less one) are swept in
    blocks of ``_BLOCK``.  The decisions on a block's clocks depend on the
    discoveries before the block, whose payouts are summed already, and on
    those inside it: they are the fixpoint of accepting every hit at once
    under the discoveries of the pass before, as in :func:`_fixpoint`,
    found for all rows together.  A block's payouts to the clocks after it
    are one product of its discovery counts with a strip of the Toeplitz
    matrix ``c[x - a - 1]`` (:func:`_toeplitz_strip`; ``c`` is ``g``, or
    ``g[1:]`` for SAFFRON, whose discoveries pay gamma(1) on their own
    clock: that term is added per hypothesis).

    The sums run in another order than :func:`decide`'s, so each decision
    is certified.  Every term of a level is nonnegative (``w0``, the
    weights and the coefficients are).  A level has at most ``n`` nonzero
    terms (the base, the first payout and one coefficient per later
    discovery before it); in our sum and in :func:`decide`'s each passes
    through at most one rounded product before its weight (a count or
    ``w0`` times a coefficient), the product with its weight and at most
    ``n - 1`` inexact additions (adding an exact 0 is exact).  By Higham,
    Accuracy and Stability of Numerical Algorithms (2nd ed., Lemma 3.1 and
    section 4.2), both computed levels then lie within ``gamma_{n+1} L`` of
    the exact level ``L`` of the same discoveries (``gamma_k = k u / (1 -
    k u)``, ``u = 2**-53``; capping at lambda moves neither further), so
    they differ by at most ``2 gamma / (1 - gamma)`` times ours.  A
    p-value farther from our level than that is decided alike by both; the
    bound ``2.5 gamma_{n+8}`` leaves room for rounding the bound and the
    distance.  With every decision certified a row's discoveries are the
    fold's, since each level depends only on the decisions before it; a
    row with any decision inside the bound is left to :func:`decide`.  The
    levels stay far above the subnormal range.
    """
    rows, n = p.shape
    first, later = _payout_weights(config)
    saffron = config.kind is ProcedureKind.SAFFRON
    if saffron:
        cand = p <= config.lam
        clock = np.arange(n) - np.cumsum(cand, axis=1)
        clock += cand   # the candidates before each hypothesis
    else:
        clock = np.broadcast_to(np.arange(n), p.shape)
    span = int(clock[:, -1].max()) + 1
    strip = _toeplitz_strip(g[1:] if saffron else g, max(n, _BLOCK))
    lag = 0 if saffron else 1   # the first payout is g[k - kf - lag]
    gam = (n + 8) * 2.0 ** -53
    bound = 2.5 * gam / (1.0 - gam)

    owed = np.zeros((rows, span + _BLOCK))   # payout sums per clock
    rejected = np.zeros(p.shape, dtype=bool)
    unsure = np.zeros(rows, dtype=bool)
    found = np.full(rows, -1)   # the clock of a row's first discovery
    row_of = np.arange(rows)[:, None]
    kb, hi = 0, np.zeros(rows, dtype=np.intp)
    while kb < span:
        if saffron:
            # the hypotheses on clocks kb, kb + 1, ... (clocks never fall
            # along a row)
            lo, width = hi, _BLOCK
            while True:
                hi = np.count_nonzero(clock < kb + width, axis=1)
                if width == 1 or (hi - lo).max() <= _WINDOW_ROWS:
                    break
                width //= 2
            pos = np.arange(int((hi - lo).max()))
            at = lo[:, None] + pos
            valid = at < hi[:, None]
            np.minimum(at, n - 1, out=at)
            at += row_of * n   # flat: take() gathers faster than [rows, at]
            pw = np.where(valid, p.take(at), np.inf)
            k = clock.take(at)
            m = np.where(valid, k - kb, 0)   # the clock within the block
            prior = owed.take(row_of * owed.shape[1] + kb + m)   # paid before
            # the first hypothesis on each one's clock, within the window
            start = np.where(np.diff(m, axis=1, prepend=-1) != 0, pos, 0)
            np.maximum.accumulate(start, axis=1, out=start)
        else:
            width = min(_BLOCK, n - kb)
            pos = np.arange(width)
            pw = p[:, kb:kb + width]
            k = np.broadcast_to(kb + pos, pw.shape)
            prior = owed[:, kb:kb + width]
        near = strip[:, :width]
        # the level under the discoveries before the block
        fixed = g[k] * config.w0
        if first is not None and (found >= 0).any():
            paid = found[:, None] >= 0
            gap = np.where(paid, k - found[:, None] - lag, 0)
            fixed += np.where(paid, first * g[gap], 0.0)
        fixed += prior * later
        level = np.minimum(fixed, config.lam) if saffron else fixed.copy()
        hits = pw <= level
        count = np.zeros((rows, _BLOCK))
        kf = found.copy()
        act = hits.any(axis=1).nonzero()[0]   # rows whose last pass found more
        while len(act):
            flags, lv = hits[act], fixed[act]
            if first is not None and (found[act] < 0).any():
                # a row's first discovery inside the block is paid as such
                here = (found[act] < 0).nonzero()[0]
                w1 = flags[here].argmax(axis=1)
                ka = k[act[here]]
                kf[act[here]] = ka[np.arange(len(here)), w1]
                after = pos > w1[:, None]
                gap = np.where(after, ka - kf[act[here], None] - lag, 0)
                lv[here] += np.where(after, first * g[gap], 0.0)
                flags[here, w1] = False
            cnt = np.zeros((len(act), _BLOCK))
            local = np.zeros((len(act), width))
            if saffron:
                ma, row = m[act], np.arange(len(act))[:, None]
                cnt.reshape(-1)[:] = np.bincount(
                    (row * _BLOCK + ma)[flags], minlength=len(act) * _BLOCK)
                _add_payouts(local, cnt, near)
                pay = local.take(row * width + ma)
                # gamma(1) of each discovery before on the same clock
                before = np.cumsum(flags, axis=1)
                before -= flags
                before -= before.take(row * len(pos) + start[act])
                pay += before * g[0]
            else:
                cnt[:, :width] = flags
                _add_payouts(local, cnt, near)
                pay = local
            pay *= later
            lv += pay
            if saffron:
                np.minimum(lv, config.lam, out=lv)
            level[act] = lv
            count[act] = cnt
            new, old = pw[act] <= lv, hits[act]
            moved = (new & ~old).any(axis=1)
            hits[act] = new | old
            act = act[moved]
        # the flags are a fixpoint of our levels (with exact sums no pass
        # drops a discovery), and every decision is certified
        unsure |= ((pw <= level) != hits).any(axis=1)
        unsure |= (np.abs(pw - level) <= bound * level).any(axis=1)
        if saffron:
            np.put(rejected, at[valid], hits[valid])
        else:
            rejected[:, kb:kb + width] = hits
        found = kf
        kb += width
        if kb < span:
            _add_payouts(owed[:, kb:span], count,
                         strip[:, width:width + span - kb])
    return rejected, unsure


def rebound_stream(state: StreamState, config: ProcedureConfig,
                   new_bound: int) -> StreamState:
    """Replace the stream's bounded table, conserving the unspent budget.
    The new table depends on the old one and ``state.i`` only, not on the
    p-values, decisions or wealth."""
    if state.bound is None:
        raise ConfigError("rebound requires a bounded stream")
    if new_bound <= state.i:
        raise ConfigError(
            f"new horizon {new_bound} must exceed the {state.i} hypotheses tested"
        )
    state.table = rebound(state.table, state.i, new_bound)
    return state


def limit_level(config: ProcedureConfig, i: int) -> float:
    """Closed-form test level at index ``i`` assuming every prior hypothesis
    was rejected (and, for the adaptive rule, every prior p-value was a
    candidate)."""
    if i < 1:
        raise ValueError("index must be >= 1")
    kind = config.kind
    table = _cached_table(config.sequence, i)
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
