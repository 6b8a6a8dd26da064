"""Online FDR state machines: one incremental level/observe engine per rule.

The rules form four families.  Payout rules (LORD2, LORD++, SAFFRON) add
to a base ``w0 gamma(c)`` a payout ``gamma(c - d)`` per discovery, ``c`` the
clock of the hypothesis and ``d`` that of the discovery, weighted by the
config's ``_payout_weights``, computed once per config.  Wealth rules
(LORD3, dependent LORD) scale a coefficient by the wealth after the last
discovery, LOND by the number of discoveries; Bonferroni's levels are its
coefficients.

Every procedure is driven through the same three operations:
``make_stream`` builds a fresh :class:`StreamState` from a validated
:class:`ProcedureConfig`, ``next_level`` computes the upcoming test level
without advancing the stream, and ``observe`` consumes one p-value and
returns a :class:`DecisionRecord`, a ``NamedTuple``.  A stream is strictly
sequential; distinct streams are independent, also a copy, which owns its
rejection logs: two plain lists, the time and the clock of each discovery,
that only grow at their end.  A payout rule's state owns an account
(:class:`_Account`): the later discoveries' payouts summed, in discovery
order, on a block of upcoming clocks, so a step reads one sum instead of
one coefficient per discovery.  One routine fills it
(:func:`_fill_account`), for ``observe`` and ``decide`` alike; a step whose
clock the account holds, with every discovery paid, reads it without that
call.

``decide`` consumes a run of p-values at once and equals the fold of
``observe`` over them, levels included, bit for bit: one windowed vector
search per discovery, and for LOND, whose levels only grow with the
discoveries, a few passes that accept every hit of a window at once (over
a matrix in ``decide_rows``).  Given a state it resumes that stream and
advances it in place, so a long stream can be decided in chunks, with
``observe`` and ``rebound_stream`` between them; a payout rule's chunk
takes the earlier discoveries' payouts on its clocks from the account, and
the next call pays the chunk's own discoveries into it.

``decide_rows`` decides many fresh streams of one length at once, one row
of a matrix each, with the flags ``decide`` gives each row, and
``decide_stack`` does so for several configs on one matrix, the configs of
a rule family in one kernel call; the Monte Carlo harness runs every
online rule on a batch of replicates through ``decide_stack``.  Their
payout rules sweep the clocks in blocks of 64, which costs a few dozen
numpy calls per block and up to ``N**2 / 2`` multiply-adds per row (5 10^9
at N = 10^5), and each block's payouts read a (64 x N) strip of the
coefficients, so it does not suit one long stream: on a 10^5-row stream
with a tenth non-null it took 1.3 s at OpenBLAS's default two threads and
2.4 s on one, against ``decide``'s 0.1 s, for LORD++, and 0.52 s and
0.71 s against 0.06 s for SAFFRON (best of 3, 2-CPU x86 machine).
``decide`` stays the tool for ``onfdr run``, ``observe``-style resumption
and the exact-test designs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .sequences import (
    Normalization,
    SequenceKind,
    SequenceSpec,
    SequenceTable,
    build_table,
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


# the members, bound once: a module-level name is read faster than a member
# through its class, which every step would pay for
_LORD2 = ProcedureKind.LORD2
_LORD3 = ProcedureKind.LORD3
_LORDPP = ProcedureKind.LORDPP
_SAFFRON = ProcedureKind.SAFFRON
_LORD_DEP = ProcedureKind.LORD_DEP
_LOND_INDEP = ProcedureKind.LOND_INDEP
_LOND_DEP = ProcedureKind.LOND_DEP
_BONFERRONI = ProcedureKind.BONFERRONI

_PAYOUT_KINDS = (_LORD2, _LORDPP, _SAFFRON)
_WEALTH_KINDS = (_LORD3, _LORD_DEP)
_LOND_KINDS = (_LOND_INDEP, _LOND_DEP)


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
        try:
            k = ProcedureKind(self.kind)
        except ValueError:
            raise ConfigError(f"unknown procedure {self.kind!r}, expected one "
                              f"of {', '.join(ProcedureKind)}") from None
        object.__setattr__(self, "kind", k)
        if not 0 < self.alpha < 1:
            raise ConfigError("alpha must lie in (0, 1)")
        defaults = _rule_parameters(k, self.alpha, self.lam)
        for name, shown in (("w0", "w0"), ("b0", "b0"), ("lam", "lambda")):
            if getattr(self, name) is None:
                object.__setattr__(self, name, defaults.get(name))
            elif name not in defaults:
                raise ConfigError(f"{k.value} takes no {shown}")
        if self.lond_original and k not in _LOND_KINDS:
            raise ConfigError(f"{k.value} takes no lond_original")
        if k in (_LORD2, _LORD3, _LORD_DEP):
            if not 0 <= self.w0 < math.inf:   # False for NaN
                raise ConfigError("a finite w0 >= 0 is required")
            if not 0 < self.b0 < math.inf:
                raise ConfigError("a finite b0 > 0 is required")
            # dependent LORD's budget is its xi sequence's
            if k is not _LORD_DEP and self.w0 + self.b0 > self.alpha + 1e-12:
                raise ConfigError("w0 + b0 <= alpha is required")
        elif k is _LORDPP:
            if not 0 <= self.w0 <= self.alpha:
                raise ConfigError("0 <= w0 <= alpha is required")
        elif k is _SAFFRON:
            if not 0 < self.lam < 1:
                raise ConfigError("lambda must lie in (0, 1)")
            if not 0 <= self.w0 < (1 - self.lam) * self.alpha:
                raise ConfigError("w0 < (1 - lambda) * alpha is required")
        # the budget of the rule's coefficients: the xi inequality for
        # dependent LORD, alpha for LOND and Bonferroni, 1 for the rest
        budget = dict(normalization=Normalization.SUM_ONE, alpha=None, w0=None,
                      b0=None)
        if k is _LORD_DEP:
            budget.update(normalization=Normalization.XI_WEIGHTED,
                          alpha=self.alpha, w0=self.w0, b0=self.b0)
        elif k in _LOND_KINDS or k is _BONFERRONI:
            budget.update(normalization=Normalization.SUM_ALPHA, alpha=self.alpha)
        object.__setattr__(self, "sequence", replace(
            self.sequence or _default_shape(k, None), **budget))

    @cached_property
    def _payout_weights(self) -> tuple[float | None, float]:
        """Payout weights of LORD2, LORD++ or SAFFRON: that of the stream's
        first discovery (None for LORD2, which pays ``b0`` for every one) and
        that of each later discovery.  Computed once per config; not a
        field, so equality, hashing and ``dataclasses.replace`` ignore it."""
        if self.kind is _LORD2:
            return None, self.b0
        alpha = self.alpha * (1 - self.lam) \
            if self.kind is _SAFFRON else self.alpha
        return alpha - self.w0, alpha


class DecisionRecord(NamedTuple):
    """Outcome of testing one hypothesis."""

    index: int
    p: float
    level: float
    rejected: bool
    wealth_after: float | None = None


# the call a NamedTuple's generated __new__ makes, bound once for observe
_new_tuple = tuple.__new__


@dataclass(eq=False)
class _Account:
    """Payout sums of a stream's discoveries on a run of clocks: ``sums[x]``
    adds up, in discovery order, ``gamma(start + x - d)`` over the clocks
    ``d < start + x`` of the discoveries ``skip, ..., paid - 1`` (``skip``
    is 1 for LORD++ and SAFFRON, whose first discovery joins the base term).

    The state's own value: a deep copy carries its own, while ``copy.copy``,
    ``dataclasses.replace`` and ``rebound_stream`` start without one.
    Discoveries made since it was filled (by ``observe`` steps or a
    ``decide`` chunk) are paid into it when it is next read.
    """

    paid: int
    start: int
    sums: np.ndarray


@dataclass(eq=False)
class StreamState:
    """Sufficient statistics of one running stream; its horizon is its
    table's.  Equality is identity, and a copy owns its rejection logs."""

    table: SequenceTable
    i: int = 0
    wealth: float | None = None
    wealth_at_discovery: float | None = None
    candidates_total: int = 0
    _harmonic: float = 0.0
    # one entry per discovery: its time, and its clock (the time less the
    # candidates through it for SAFFRON, the time else)
    _tau: list[int] = field(default_factory=list)
    _clock: list[int] = field(default_factory=list)
    # LORD2, LORD++, SAFFRON: the payout sums of the clocks ahead
    _account: _Account | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        # a state built from another's (dataclasses.replace, copy.copy)
        # gets copies of its logs
        self._tau, self._clock = list(self._tau), list(self._clock)

    def __copy__(self) -> StreamState:
        return replace(self)

    @property
    def bound(self) -> int | None:
        return self.table.bound

    @property
    def discoveries(self) -> int:
        return len(self._tau)

    @property
    def rejection_times(self) -> list[int]:
        return self._tau.copy()


def _rule_parameters(kind: ProcedureKind, alpha: float,
                     lam: float | None) -> dict[str, float]:
    """The parameters ``kind`` reads, at the simulation-study defaults;
    SAFFRON's ``w0`` follows ``lam`` when one is given."""
    if kind in (_LORD2, _LORD3, _LORD_DEP):
        return {"w0": alpha / 2, "b0": alpha / 2}
    if kind is _LORDPP:
        return {"w0": alpha / 2}
    if kind is _SAFFRON:
        lam = 0.5 if lam is None else lam
        return {"lam": lam, "w0": (1 - lam) * alpha / 2}
    return {}


def _default_shape(kind: ProcedureKind, bound: int | None) -> SequenceSpec:
    """The shape of ``kind``'s default sequence at horizon ``bound``."""
    if kind in (_LORD2, _LORD3, _LORDPP):
        return SequenceSpec(SequenceKind.JM_OPTIMAL, bound=bound)
    if kind is _SAFFRON:
        return SequenceSpec(SequenceKind.INVERSE_SQUARE, bound=bound)
    if kind is _LORD_DEP:
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
    ``length_hint`` terms as a new value, leaving the cached one as it is.
    The table of a rebound spec is :func:`build_table`'s, which keeps only
    the last two, so a long chain of rebounds does not hold every table it
    passed through."""
    table = build_table(spec) if spec.rebounds else _table_cache(spec)
    return table if spec.bound is not None else table.extended(length_hint)


def make_stream(config: ProcedureConfig, length_hint: int = 1024) -> StreamState:
    """Initialize the stream state of ``config``.

    Tables are immutable and cached per spec, so streams share them; an
    unbounded stream swaps in a longer table when it reaches the end of
    its own.
    """
    state = StreamState(table=_cached_table(config.sequence, length_hint))
    # a leading coefficient above one makes the first level exceed w0: a
    # sum-one table's is at most one, dependent LORD's xi table's may not
    # be.  No later level is bounded here: dependent LORD's wealth can still
    # go below zero (README Limits)
    if config.kind is _LORD_DEP and state.table.coefficient(1) > 1 + 1e-12:
        raise ConfigError("leading coefficient must be <= 1 to keep wealth "
                          "nonnegative")
    if config.kind in _WEALTH_KINDS:
        state.wealth = config.w0
        state.wealth_at_discovery = config.w0
    return state


def _horizon_error(bound: int, located: bool = False) -> HorizonExhaustedError:
    """The error of testing past the horizon ``bound``; ``located`` names
    the stream index first, as :func:`run_stream` does."""
    message = (f"horizon N={bound} exhausted at index {bound + 1}; "
               "rebound to continue")
    return HorizonExhaustedError(
        f"at stream index {bound + 1}: {message}" if located else message)


# clocks a payout stream's account is rebuilt over when its clock leaves it
_ACCOUNT = 4096


def _fill_account(state: StreamState, skip: int, c: int, n: int = 1) -> _Account:
    """The state's payout account, filled to hold the payout sums of its
    discoveries after the first ``skip`` on clocks ``c, ..., c + n - 1``:
    one that is missing, has paid more discoveries than the state holds
    or does not cover them is replaced by ``max(n, _ACCOUNT)`` clocks from
    ``c`` (as far as the table reaches), and the discoveries not paid yet
    are added in order, one slice add each over the rest of the account.
    Every discovery is before ``c``."""
    acc = state._account
    k, g = len(state._clock), state.table.coefficients
    # next_level repeats this test inline for n = 1 and acc.paid == k, the
    # case this call returns ``acc`` unchanged; keep the two in step
    if acc is None or acc.paid > k or \
            not acc.start <= c <= acc.start + len(acc.sums) - n:
        sums = np.zeros(length := min(max(n, _ACCOUNT), len(g) + 1 - c))
        # gamma(c - d) on, from g[c - 1 - d]
        for o in map((c - 1).__sub__, state._clock[skip:]):
            sums += g[o:o + length]
        acc = state._account = _Account(k, c, sums)
    elif acc.paid < k:
        start, sums = acc.start, acc.sums
        end = start + len(sums)
        for d in state._clock[max(acc.paid, skip):]:
            lo = max(d + 1, start)
            sums[lo - start:] += g[lo - d - 1:end - d - 1]
        acc.paid = k
    return acc


def next_level(state: StreamState, config: ProcedureConfig) -> float:
    """Test level for hypothesis ``state.i + 1``.

    One branch per family: payout (the clock is the index, less the
    candidates for SAFFRON, whose level is capped at lambda), wealth (LORD3
    restarts its coefficients at each discovery), LOND and Bonferroni.
    The stream is not advanced; a payout rule's level reads the sum of its
    later discoveries' payouts on clock ``c`` from the state's account, one
    entry, which this call fills lazily (:func:`_fill_account`) when it
    does not hold clock ``c`` or has not paid every discovery, so a step
    costs O(1) but for one O(D) rebuild every ``_ACCOUNT`` clocks.

    Coefficients are read from the table's array: the horizon check and
    the growth of an unbounded table in :func:`observe` and :func:`decide`
    keep index ``i`` inside it."""
    i = state.i + 1
    table = state.table
    if table.bound is not None and i > table.bound:
        raise _horizon_error(table.bound)
    kind = config.kind
    k = len(state._clock)
    g = table.coefficients

    if kind in _PAYOUT_KINDS:
        first, later = config._payout_weights
        skip = 0 if first is None else 1
        c = i - state.candidates_total   # c <= i: the table holds clock c
        level = g.item(c - 1) * config.w0
        if k and skip:
            level += first * g.item(c - 1 - state._clock[0])
        if k > skip:
            acc = state._account
            # _fill_account's own test with n = 1: call it only when it
            # would not return the account unchanged; keep the two in step
            if acc is None or acc.paid != k or \
                    not 0 <= c - acc.start < len(acc.sums):
                acc = _fill_account(state, skip, c)
            level += later * acc.sums.item(c - acc.start)
        return min(config.lam, level) if kind is _SAFFRON else level

    if kind in _WEALTH_KINDS:
        last = state._tau[-1] if k and kind is _LORD3 else 0
        return g.item(i - last - 1) * state.wealth_at_discovery

    if kind in _LOND_KINDS:
        beta = g.item(i - 1)
        if kind is _LOND_DEP:
            beta /= state._harmonic + 1.0 / i
        return beta * (max(k, 1) if config.lond_original else k + 1)

    return g.item(i - 1)


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
    """Consume one p-value: decide, update wealth/history, advance the stream.

    A step costs O(1) but for a payout account rebuild (:func:`next_level`)
    or an unbounded table's growth; the rule is told by identity against
    module-level names and the record is built without ``NamedTuple``'s
    generated ``__new__``."""
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
    elif kind is _SAFFRON:
        state.candidates_total += p <= config.lam
    elif kind is _LOND_DEP:
        state._harmonic += 1.0 / i
    if rejected:
        state._tau.append(i)
        state._clock.append(i - state.candidates_total)
    state.i = i
    table = state.table
    if table.bound is None and i >= len(table.coefficients):
        state.table = table.extended(i + 1)
    # DecisionRecord's __new__ body without its frame; the literal fixes the arity
    return _new_tuple(DecisionRecord, (i, p, level, rejected, state.wealth))


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
# while it holds no discovery
_WINDOW = 64


def _scan(p: np.ndarray, fill, found):
    """Levels and rejections of a stream whose levels change only at
    discoveries: ``fill(s, out)`` writes the levels of hypotheses ``s, s + 1,
    ...`` (0-based) under the discoveries so far into ``out``, the first
    ``p <= level`` among them is the next discovery, and ``found(t,
    levels)`` records it.  Only a window after the last discovery is filled
    and searched."""
    n = len(p)
    levels = np.empty(n)
    start, width = 0, _WINDOW
    while start < n:
        stop = min(start + width, n)
        fill(start, levels[start:stop])
        hits = p[start:stop] <= levels[start:stop]
        k = int(hits.argmax())
        if hits[k]:
            found(start + k, levels)
            start, width = start + k + 1, _WINDOW
        else:
            start, width = stop, 2 * width
    return levels, np.less_equal(p, levels)


def _lond_search(config: ProcedureConfig, p: np.ndarray, beta: np.ndarray,
                 found: int):
    """LOND's levels ``beta * (D + 1)`` (or ``max(D, 1)``) and rejections
    on each row of a (streams x n) matrix, ``D`` the discoveries of the row
    before a hypothesis, ``found`` of them before the run.

    A level never falls when a discovery is added before it, so a hit under
    some of the discoveries is a discovery: a pass accepts every hit of its
    window in every row at once (the first pass's window is the run), and
    the next pass starts after the first column where a row gained one, the
    last column whose levels it knew in every row, with a window twice as
    long as the farthest new hit; a pass that finds none settles its
    window.  A level is one product of a coefficient and an exact count, so
    it is the fold's whichever pass computes it.
    """
    n = p.shape[1]
    rejected, levels = np.zeros(p.shape, dtype=bool), np.empty(p.shape)
    before = np.zeros((len(p), n + 1), np.intp)   # flagged before each one
    shift = found + (0 if config.lond_original else 1)
    lo, width = 0, n
    while lo < n:
        hi = min(lo + width, n)
        # the counts up to lo - 1 hold: every discovery since is later
        s = max(lo - 1, 0)
        np.add.accumulate(rejected[:, s:hi], axis=1, dtype=np.intp,
                          out=before[:, s + 1:hi + 1])
        before[:, s + 1:hi + 1] += before[:, s:s + 1]
        mult = before[:, lo:hi] + shift
        if config.lond_original:
            np.maximum(mult, 1, out=mult)
        np.multiply(beta[lo:hi], mult, out=levels[:, lo:hi])
        # a flag stays a hit as its level only grows: new hits are the rest
        hits = p[:, lo:hi] <= levels[:, lo:hi]
        new = np.greater(hits, rejected[:, lo:hi]).any(axis=0).nonzero()[0]
        if len(new):
            rejected[:, lo:hi] = hits
            width = max(_WINDOW, 2 * (int(new[-1]) + 1))
            lo += int(new[0]) + 1
        else:
            lo, width = hi, 2 * width
    return levels, rejected


def _lond_beta(config: ProcedureConfig, gamma: np.ndarray, i0: int,
               harmonic: float) -> tuple[np.ndarray, float]:
    """LOND's coefficients of hypotheses ``i0 + 1, i0 + 2, ...``: for the
    dependent form divided by the running harmonic sum carried on from
    ``harmonic``; returns them and the sum after the last."""
    if config.kind is not _LOND_DEP:
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

    Between two discoveries the levels of every rule but LOND are a
    closed-form vector, so :func:`_scan` finds each discovery with one
    search of a window after the one before; LOND's levels never fall when
    a discovery is added before them, so :func:`_lond_search` accepts every
    hit of a window at once.  Levels, decisions and wealth equal the
    fold's bit for bit: payouts (LORD2, LORD++, SAFFRON) are summed in
    discovery order, as the fold's account sums them.  On a resumed payout
    stream the earlier discoveries' payouts on the run's clocks are copied
    from the state's account, filled as ``observe`` fills it
    (:func:`_fill_account`): it is rebuilt only when it does not cover the
    run, and the discoveries paid into it before are not paid again.  The
    run's own discoveries are not paid into it here; the next call that
    reads it pays them.
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
    kind = config.kind
    if state.bound is None:   # the fold keeps one term past the last index
        state.table = state.table.extended(i0 + n + 1)
    g = state.table.coefficients
    gamma = g[i0:i0 + n]
    wealth = None

    if kind is _BONFERRONI:
        levels = gamma.copy()   # not a view of the shared table
        rejected = p <= levels

    elif kind in _LOND_KINDS:
        beta, state._harmonic = _lond_beta(config, gamma, i0, state._harmonic)
        levels, rejected = _lond_search(config, p[None], beta, state.discoveries)
        levels, rejected = levels[0], rejected[0]

    elif kind in _WEALTH_KINDS:
        # levels gamma_{i - tau} W(tau) (LORD3) or xi_i W(tau) (dependent
        # LORD), W(tau) the wealth after the last discovery tau.  run[i + 1]
        # is the wealth after hypothesis i, spent in the fold's order (a
        # sequential accumulate, so in pieces too): through each discovery
        # as it is found, through the rest after the scan
        run = np.empty(n + 1)
        run[0] = state.wealth
        at_discovery = state.wealth_at_discovery
        lord3 = kind is _LORD3
        # g[i + shift] is the coefficient of hypothesis i; spent the first
        # hypothesis whose wealth is not spent yet
        shift = i0 - (state._tau[-1] if lord3 and state._tau else 0)
        spent = 0

        def spend(end, levels):
            run[spent + 1:end + 1] = levels[spent:end]
            np.subtract.accumulate(run[spent:end + 1], out=run[spent:end + 1])

        def fill(s, out):
            np.multiply(g[s + shift:s + shift + len(out)], at_discovery, out=out)

        def found(t, levels):
            nonlocal spent, at_discovery, shift
            spend(t + 1, levels)
            run[t + 1] += config.b0
            spent, at_discovery = t + 1, float(run[t + 1])
            if lord3:
                shift = -spent

        levels, rejected = _scan(p, fill, found)
        spend(n, levels)
        wealth = run[1:]
        state.wealth, state.wealth_at_discovery = float(run[n]), at_discovery

    else:
        candidates = np.cumsum(p <= config.lam) \
            if kind is _SAFFRON else None
        fill, found = _payout_levels(config, state, p, g, candidates)
        levels, rejected = _scan(p, fill, found)

    if fresh:   # nobody holds the state
        return Decisions(levels, rejected, wealth)
    times = rejected.nonzero()[0]
    tau = clocks = i0 + 1 + times
    if kind is _SAFFRON:
        clocks = tau - state.candidates_total - candidates[times]
        state.candidates_total += int(candidates[-1]) if n else 0
    state._tau += tau.tolist()
    state._clock += clocks.tolist()
    state.i = i0 + n
    return Decisions(levels, rejected, wealth)


def _payout_levels(config: ProcedureConfig, state: StreamState, p: np.ndarray,
                   g: np.ndarray, candidates: np.ndarray | None):
    """:func:`_scan`'s ``fill`` and ``found`` for the payout family (LORD2,
    LORD++ and SAFFRON).

    The clock is the hypothesis index, or for SAFFRON the index less the
    candidates (``p <= lambda``) up to it; ``candidates`` counts them
    through each hypothesis of the run (None for LORD2 and LORD++).  Base
    and payout are kept per clock value of the run, so each discovery is
    one contiguous add, made in discovery order as the fold sums them.  A
    resumed stream's payouts start from those of its earlier discoveries,
    copied from its account (:func:`_fill_account`) over the run's clocks,
    and its first discovery joins the base term.  A SAFFRON discovery is a
    candidate, so it shares its clock with the candidates just before it;
    their levels are filled when it is found, so its gamma(1) on that clock
    reaches only the hypotheses after it.
    """
    n = len(p)
    first, later = config._payout_weights
    skip = 0 if first is None else 1
    origin = state.i - state.candidates_total   # clock before the run
    if candidates is not None:
        clock = np.arange(n)   # clock - origin - 1
        clock[1:] -= candidates[:-1]
        span = int(clock[-1]) + 1 if n else 0
    else:
        clock, span = None, n
    base = g[origin:origin + span] * config.w0
    if state.discoveries > skip and span:
        acc = _fill_account(state, skip, origin + 1, span)
        off = origin + 1 - acc.start
        payout = acc.sums[off:off + span].copy()
    else:
        payout = np.zeros(span)

    def pay(q):
        """Add the payout of a discovery whose gamma(1) falls on clock
        ``origin + 1 + q``; the stream's first one joins the base term."""
        nonlocal first
        s = max(q, 0)
        if first is None:
            payout[s:] += g[s - q:span - q]
        else:
            base[s:] += first * g[s - q:span - q]
            first = None

    if state.discoveries and skip:
        pay(state._clock[0] - origin)

    def fill(s, out):
        at = slice(s, s + len(out)) if clock is None else clock[s:s + len(out)]
        np.multiply(payout[at], later, out=out)
        np.add(base[at], out, out=out)
        if clock is not None:
            np.minimum(out, config.lam, out=out)

    def found(t, levels):
        pay(t + 1 if clock is None else t + 1 - int(candidates[t]))

    return fill, found


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
    ``decide(config, pvalues[r]).rejected``.  The one-config case of
    :func:`decide_stack`, which says how each rule is decided."""
    return decide_stack([config], pvalues)[0]


def decide_stack(configs, pvalues: np.ndarray) -> list[np.ndarray]:
    """:func:`decide_rows`' flags of every config in ``configs`` on the
    same matrix, in their order; the configs of one rule family are
    decided in one kernel call, their rows stacked.

    Built for Monte Carlo replicates, many short streams of one length,
    where much of a kernel call is numpy's fixed cost per call, so its time
    grows slower than its rows: Bonferroni is one comparison with its
    levels; LOND runs :func:`decide`'s passes (:func:`_lond_search`) over
    the matrix, one window shared by every row, per config (its passes
    recompute every row, so stacking does not pay); LORD3 and dependent
    LORD are one stack, whose columns :func:`_wealth_rows` sweeps; LORD2
    and LORD++ are one stack and SAFFRON another, each run by
    :func:`_payout_rows`, whose BLAS products with a Toeplitz strip of the
    coefficients cost up to ``N**2 / 2`` multiply-adds per row (5 10^9 for
    one 10^5-row stream, which :func:`decide` adds up one discovery at a
    time), and a row with a decision that its rounding bound does not
    certify is decided again by :func:`decide` under its own config.  The
    configs of one spec share one table (and strip), and their rows are
    next to each other in the stack.  A refused config or horizon raises
    what :func:`decide_rows` raises for the first config in order that has
    one, before anything is decided.
    """
    configs = list(configs)
    n = pvalues.shape[1]
    tables = {}   # the coefficients of each spec, shared by its configs
    for config in configs:
        state = make_stream(config, length_hint=n + 1)
        if state.bound is not None and n > state.bound:
            raise _horizon_error(state.bound, located=True)
        tables.setdefault(config.sequence, state.table.coefficients[:n])
    if pvalues.size == 0:
        return [np.zeros(pvalues.shape, dtype=bool) for _ in configs]
    flags = [None] * len(configs)
    families = {}   # (wealth rule, SAFFRON): the indices of the configs
    for j, config in enumerate(configs):
        kind, g = config.kind, tables[config.sequence]
        if kind is _BONFERRONI:
            flags[j] = pvalues <= g
        elif kind in _LOND_KINDS:
            beta = _lond_beta(config, g, 0, 0.0)[0]
            flags[j] = _lond_search(config, pvalues, beta, 0)[1]
        else:
            families.setdefault((kind in _WEALTH_KINDS, kind is _SAFFRON),
                                []).append(j)
    rows = len(pvalues)
    for (wealth, _), members in families.items():
        specs = list(dict.fromkeys(configs[j].sequence for j in members))
        members.sort(key=lambda j: specs.index(configs[j].sequence))
        stack = [configs[j] for j in members]
        which = [specs.index(config.sequence) for config in stack]
        g = np.stack([tables[spec] for spec in specs])
        if wealth:
            rejected = _wealth_rows(stack, which, g, pvalues)
        else:
            rejected, unsure = _payout_rows(stack, which, g, pvalues)
            for q in unsure.nonzero()[0].tolist():
                b, r = divmod(q, rows)
                rejected[q] = decide(stack[b], pvalues[r]).rejected
        for b, j in enumerate(members):
            flags[j] = rejected[b * rows:(b + 1) * rows]
    return flags


def _wealth_rows(configs, which, g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """LORD3 or dependent LORD on each row of ``p`` under each config, row
    ``r`` under ``configs[b]`` being row ``b * len(p) + r`` of the stack,
    whose coefficients are ``g[which[b]]``; one column at a time: the level
    of every row is its coefficient times its wealth after its last
    discovery, and the wealth is spent as :func:`decide` spends it."""
    rows, n = p.shape
    wealth = np.repeat([config.w0 for config in configs], rows)
    b0 = np.repeat([config.b0 for config in configs], rows)
    lord3 = np.repeat([config.kind is _LORD3 for config in configs], rows)
    at_discovery = wealth.copy()
    # hypothesis i's coefficient is g.flat[offset + i - last], last the
    # 1-based last discovery for LORD3 and 0 for dependent LORD: ``at``
    # holds it for column i, one step further per column and back to
    # ``offset`` after a LORD3 discovery
    offset = np.repeat(np.asarray(which, dtype=np.intp) * n, rows)
    at = offset.copy()
    rejected = np.empty((n, len(configs), rows), dtype=bool)
    columns = np.ascontiguousarray(p.T)
    level = np.empty(len(at))
    # views by config, so each config's rows meet the same column
    level_of, hits = level.reshape(-1, rows), rejected.reshape(n, -1)
    for i in range(n):
        g.take(at, out=level)
        np.multiply(level, at_discovery, out=level)
        np.less_equal(columns[i], level_of, out=rejected[i])
        hit = hits[i]
        np.subtract(wealth, level, out=wealth)
        at += 1
        if hit.any():
            # masked updates, not fancy indexing: a row without a hit
            # adds an exact 0 and keeps its values
            wealth += b0 * hit
            np.copyto(at_discovery, wealth, where=hit)
            np.copyto(at, offset, where=hit & lord3)
    return hits.T


# clocks per block of the payout kernel, and the most hypotheses of a row a
# block holds (SAFFRON's blocks are halved until they hold at most that many,
# down to one clock)
_BLOCK = 64
_WINDOW_ROWS = 8 * _BLOCK


def _toeplitz_strip(c: np.ndarray, length: int) -> np.ndarray:
    """The payouts of a block's discoveries: ``strip[a, x] = c[x - a - 1]``
    for ``x > a``, else 0 (also past the end of ``c``), is paid on clock
    ``x`` (counted from the block's first clock) by a discovery on clock
    ``a`` of the block, for ``length`` clocks: a C-contiguous (``_BLOCK`` x
    ``length``) array, so that BLAS multiplies it without a copy."""
    padded = np.zeros(_BLOCK + length)
    padded[_BLOCK:_BLOCK + min(len(c), length)] = c[:length]
    windows = np.lib.stride_tricks.sliding_window_view(padded, length)
    return np.ascontiguousarray(windows[_BLOCK - 1::-1])


def _add_payouts(out: np.ndarray, count: np.ndarray, strips, cuts,
                 x0: int) -> None:
    """``out += count @ strip[:, x0:x0 + out.shape[1]]``, the payouts of
    the discoveries whose weights are summed per row and block clock in
    ``count``, with rows ``cuts[t], ..., cuts[t + 1] - 1`` paid from
    ``strips[t]``: one BLAS product per strip, over the rows with a
    nonzero sum."""
    for strip, lo, hi in zip(strips, cuts, cuts[1:]):
        strip, o, c = strip[:, x0:x0 + out.shape[1]], out[lo:hi], count[lo:hi]
        paid = c.any(axis=1).nonzero()[0]
        if len(paid) == len(o):   # in place: no gather and scatter copy
            o += c @ strip
        elif len(paid):
            o[paid] += c[paid] @ strip


def _payout_rows(configs, which, g: np.ndarray, p: np.ndarray):
    """LORD2 and LORD++, or SAFFRON, on each row of ``p`` under each
    config: the rejection flags and the rows whose flags the rounding bound
    below does not certify, over the stack whose row ``b * len(p) + r`` is
    row ``r`` under ``configs[b]``.  Config ``b``'s coefficients are
    ``g[which[b]]``, and ``which`` does not fall, so the rows of one table
    are next to each other and share its strip.

    Clocks (0-based here: ``k`` is the 1-based clock less one) are swept in
    blocks of ``_BLOCK``.  A level is ``w0 g[k]`` plus each discovery's
    weight (``first`` for a row's first, ``later`` for every other; LORD2
    pays ``b0`` for each) times its coefficient on clock ``k``, with the
    row's own ``w0``, weights, coefficients and (SAFFRON) lambda.  The
    decisions on a block's clocks depend on the discoveries before the
    block, whose payouts are summed already, and on those inside it: they
    are the fixpoint of accepting every hit at once under the discoveries
    of the pass before, found for all rows together.  A block's payouts to
    the clocks after it are one product of its weights, summed per clock,
    with a strip of the Toeplitz matrix ``c[x - a - 1]``
    (:func:`_toeplitz_strip`; ``c`` is ``g``, or ``g[1:]`` for SAFFRON,
    whose discoveries pay gamma(1) on their own clock: that term is added
    per hypothesis), one per table.

    The sums run in another order than :func:`decide`'s, so each decision
    is certified.  The argument is per row, so it holds for a row of a
    stack as for a row alone: the row's terms are those of its own config.
    Every term of a level is nonnegative (``w0``, the weights and the
    coefficients are), and a level has at most ``n``: ``w0 g[k]`` and one
    per discovery before it.  Our sum multiplies each weight, or a sum of
    weights on one clock, by its coefficient once; :func:`decide`
    multiplies ``w0`` or ``first`` by a coefficient, or ``later`` by a sum
    of coefficients.  Either way the terms are added in one tree, so each
    passes through at most one rounded product and at most ``n - 1``
    inexact additions (adding an exact 0 is exact); our BLAS product may
    fuse a multiply and an add and sum an inner product in any order, and
    neither adds a rounding.  By Higham, Accuracy and Stability of
    Numerical Algorithms (2nd ed., Lemma 3.1 and section 4.2),
    both computed levels then lie within ``gamma_n L`` of the exact level
    ``L`` of the same discoveries (``gamma_k = k u / (1 - k u)``, ``u =
    2**-53``; capping at lambda moves neither further), so they differ by
    at most ``2 gamma_n / (1 - gamma_n)`` times ours.  A p-value farther
    from our level than that is decided alike by both; the bound ``2.5
    gamma_{n+8}`` leaves room for rounding the bound and the distance.
    With every decision certified a row's discoveries are the fold's,
    since each level depends only on the decisions before it; a row with
    any decision inside the bound is left to :func:`decide`.  The levels
    stay far above the subnormal range.
    """
    each, n = p.shape   # rows per config
    saffron = configs[0].kind is _SAFFRON
    strips = [_toeplitz_strip(c[1:] if saffron else c, max(n, _BLOCK))
              for c in g]
    # the rows of each table: those of its configs, from the first that
    # reads it to the first that reads the next
    cuts = each * np.searchsorted(which, np.arange(len(g) + 1))

    def per_row(values):
        return np.repeat(values, each)

    weights = [config._payout_weights for config in configs]
    first = per_row([w if f is None else f for f, w in weights])
    later = per_row([w for _, w in weights])
    w0 = per_row([config.w0 for config in configs])[:, None]
    table = per_row(which)
    at_table = (table * n)[:, None]   # g.take(at_table + k): a row's g[k]
    rows = len(configs) * each
    row_of = np.arange(rows)[:, None]
    if saffron:
        lam = per_row([config.lam for config in configs])[:, None]
        g0 = g[table, 0]
        row_in_p = row_of % each * n   # a stacked row's own row of p, flat
        cand = (p <= lam.reshape(-1, each, 1)).reshape(rows, n)
        clock = np.arange(n) - np.cumsum(cand, axis=1)
        clock += cand   # the candidates before each hypothesis
    else:
        clock = np.broadcast_to(np.arange(n), (rows, n))
    span = int(clock[:, -1].max()) + 1
    gam = (n + 8) * 2.0 ** -53
    bound = 2.5 * gam / (1.0 - gam)

    owed = np.zeros((rows, span + _BLOCK))   # weighted payout sums per clock
    rejected = np.zeros((rows, n), dtype=bool)
    unsure = np.zeros(rows, dtype=bool)
    had = np.zeros(rows, dtype=bool)   # a discovery before the block
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
            pw = np.where(valid, p.take(at + row_in_p), np.inf)
            at += row_of * n   # flat: take() gathers faster than [rows, at]
            k = clock.take(at)
            m = np.where(valid, k - kb, 0)   # the clock within the block
            prior = owed.take(row_of * owed.shape[1] + kb + m)   # paid before
            # the first hypothesis on each one's clock, within the window
            start = np.where(np.diff(m, axis=1, prepend=-1) != 0, pos, 0)
            np.maximum.accumulate(start, axis=1, out=start)
        else:
            width = min(_BLOCK, n - kb)
            pw = np.tile(p[:, kb:kb + width], (len(configs), 1))
            k = kb + np.arange(width)
            prior = owed[:, kb:kb + width]
        # the level under the discoveries before the block
        fixed = g.take(at_table + k) * w0 + prior
        level = np.minimum(fixed, lam) if saffron else fixed.copy()
        hits = pw <= level
        count = np.zeros((rows, _BLOCK))
        act = hits.any(axis=1).nonzero()[0]   # rows whose last pass found more
        while len(act):
            flags = hits[act]
            # each discovery's weight: first for a row's first one
            wt = flags * later[act, None]
            fresh = ~had[act]
            wt[fresh, flags[fresh].argmax(axis=1)] = first[act[fresh]]
            cnt = np.zeros((len(act), _BLOCK))
            local = np.zeros((len(act), width))
            if saffron:
                ma, row = m[act], np.arange(len(act))[:, None]
                disc = np.flatnonzero(flags)   # the discoveries in turn
                w = wt.take(disc)
                cnt.reshape(-1)[:] = np.bincount(
                    (row * _BLOCK + ma).take(disc), weights=w,
                    minlength=len(act) * _BLOCK)
                _add_payouts(local, cnt, strips, np.searchsorted(act, cuts), 0)
                pay = local.take(row * width + ma)
                # gamma(1) of the discoveries before each hypothesis on its
                # clock: their weights summed on that clock alone (a
                # difference of running sums would carry the rounding of
                # earlier clocks' weights), by a doubling scan over the
                # discoveries in turn, read at the last one before it.
                # ``before`` counts the discoveries before each hypothesis
                # over the rows in turn, ``rank`` those on its clock
                before = np.cumsum(flags).reshape(flags.shape) - flags
                rank = before - before.take(row * len(pos) + start[act])
                rk = rank.take(disc)
                for d in 2 ** np.arange(int(rk.max()).bit_length()):
                    w[d:] += np.where(rk[d:] >= d, w[:-d], 0.0)
                w *= g0[act].take(disc // len(pos))
                pay += np.where(rank > 0, w.take(before - 1, mode="clip"), 0.0)
            else:
                cnt[:, :width] = wt
                _add_payouts(local, cnt, strips, np.searchsorted(act, cuts), 0)
                pay = local
            lv = fixed[act] + pay
            if saffron:
                np.minimum(lv, lam[act], out=lv)
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
        had |= hits.any(axis=1)
        kb += width
        if kb < span:
            _add_payouts(owed[:, kb:span], count, strips, cuts, width)
    return rejected, unsure


def rebound_stream(state: StreamState, config: ProcedureConfig,
                   new_bound: int) -> StreamState:
    """Replace the stream's bounded table by ``config``'s with the table's
    spec rebound after ``state.i`` hypotheses, conserving the unspent
    budget: it depends on the old table and ``state.i`` only."""
    try:
        spec = state.table.spec.rebounded(state.i, new_bound)
    except ValueError as exc:   # the spec's refusal
        raise ConfigError(str(exc)) from exc
    state.table = make_stream(replace(config, sequence=spec)).table
    state._account = None   # paid from the old table
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

    if kind is _LORD2:
        return table.coefficient(i) * w0 + b0 * table.cumulative_sum(i - 1)

    if kind is _LORD3:
        g1 = table.coefficient(1)
        decay = (1 - g1) ** (i - 1)
        return g1 * decay * w0 + b0 * (1 - decay)

    if kind is _LORDPP:
        level = table.coefficient(i) * w0
        if i >= 2:
            level += (alpha - w0) * table.coefficient(i - 1)
            level += alpha * table.cumulative_sum(i - 2)
        return level

    if kind is _SAFFRON:
        g1 = table.coefficient(1)
        if i == 1:
            return min(config.lam, g1 * w0)
        return min(config.lam, (i - 1) * (1 - config.lam) * alpha * g1)

    if kind is _LORD_DEP:
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
