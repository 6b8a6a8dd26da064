"""Synthetic data generators and experiment drivers.

Three families: a normal mixture on randomly signed equicorrelated noise,
a platform trial with a shared control arm, and a small binary-endpoint
platform with exact tests.  ``estimate``/``estimate_many`` run seeded
replicates and report mean false discovery proportion and power with Monte
Carlo standard errors.

Replicates are drawn one generator per (seed, replicate) and
decided in tasks of at most ``_BATCH``: a task draws its replicates as
one (replicates x N) matrix, the online rules decide it in one
``procedures.decide_stack`` call, each offline rule in one
``baselines.offline_rows`` call, and one ``baselines.score`` call scores
every rule's rows.
A call with less work than a fork pays for runs in the calling process as
one share; a larger one on more than one worker is cut into contiguous
shares of replicates, one per process: the calling process decides the
first share and an ``os.fork`` child each other share, in the same tasks,
and the children's arrays come back pickled through a pipe and are joined
in replicate order, so estimates are the same bits for every worker count.
``eval_kidney`` checks its one realisation as a 1 x K matrix and decides it
through ``offline_rows`` (offline rules) or ``decide`` (online rules).
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import baselines
from .procedures import (
    ProcedureConfig,
    ProcedureKind,
    _one_blas_thread,
    check_rows,
    decide,
    decide_stack,
    default_config,
    make_stream,
)
from .sequences import _is_integer
from .stattests import _fisher_greater, pvalue_one_sided, pvalue_two_sided

THREADS_ENV = "ONFDR_THREADS"


class MixtureAlternative(str, Enum):
    GAUSSIAN = "gaussian"        # two-sided testing
    EXPONENTIAL = "exponential"  # one-sided
    CONSTANT = "constant"        # one-sided


@dataclass(frozen=True)
class MixtureScenario:
    """Z-statistics with a point-mass-or-F1 mean mixture on equicorrelated
    noise x times independent random signs s: two-sided (GAUSSIAN) p-values
    keep the correlation rho, while the one-sided (EXPONENTIAL, CONSTANT)
    nulls are uncorrelated, E[s_i s_j] E[x_i x_j] = 0, though not
    independent; ``alpha`` is the level of the offline rules run on it."""

    N: int
    pi1: float
    rho: float = 0.0
    alternative: MixtureAlternative = MixtureAlternative.GAUSSIAN
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not 0 <= self.pi1 <= 1:
            raise ValueError("pi1 must lie in [0, 1]")
        if not 0 <= self.rho < 1:
            raise ValueError("rho must lie in [0, 1)")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")

    @property
    def two_sided(self) -> bool:
        return self.alternative is MixtureAlternative.GAUSSIAN

    @property
    def effect_scale(self) -> float:
        """Scale of the non-null means: sd for GAUSSIAN, mean for
        EXPONENTIAL, the constant itself for CONSTANT (k=2 up to N=100)."""
        if self.alternative is MixtureAlternative.CONSTANT:
            k = 2.0 if self.N <= 100 else 1.0
            return math.sqrt(k * math.log(self.N))
        return math.sqrt(2.0 * math.log(self.N))


@dataclass(frozen=True)
class PlatformTrialScenario:
    """Normal-outcome platform trial: K arms against a growing shared
    control; ``alpha`` is the level of the offline rules run on it."""

    K: int
    N_target: int = 70
    sigma: float = 6.0
    pi: float = 0.1
    alpha: float = 0.1

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.N_target < 1:   # an empty arm is redrawn until it is not
            raise ValueError("N_target must be >= 1")
        # the earliest analysis (time 0.2) must see a control outcome
        if self.N0 < 5:
            raise ValueError("N0 = round(N_target * sqrt(K)) must be >= 5")
        if not 0 < self.sigma < math.inf:   # False for NaN
            raise ValueError("a finite sigma > 0 is required")
        if not 0 <= self.pi <= 1:
            raise ValueError("pi must lie in [0, 1]")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")

    @property
    def N0(self) -> int:
        return round(self.N_target * math.sqrt(self.K))

    @property
    def effect(self) -> float:
        return math.sqrt(2.0 * math.log(self.K))


@dataclass(frozen=True)
class KidneyTrialScenario:
    """Binary-endpoint platform with a fixed control group and exact tests."""

    delta: tuple[float, ...] = (-0.01, -0.02, 0.23, 0.52, -0.04,
                                0.38, -0.03, 0.22, -0.02, -0.05)
    n0: int = 32
    n_arm: int = 20
    alpha: float = 0.1

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")

    @property
    def K(self) -> int:
        return len(self.delta)

    @property
    def truth(self) -> tuple[bool, ...]:
        return tuple(d > 0 for d in self.delta)


# the five published trial realisations: (control successes, per-arm successes)
KIDNEY_REALISATIONS: dict[int, tuple[int, tuple[int, ...]]] = {
    1: (19, (5, 5, 9, 19, 4, 15, 4, 10, 5, 6)),
    2: (16, (7, 6, 13, 14, 8, 16, 7, 11, 6, 5)),
    3: (13, (5, 13, 10, 15, 10, 15, 5, 11, 5, 3)),
    4: (14, (10, 5, 9, 17, 10, 12, 10, 15, 7, 8)),
    5: (14, (4, 10, 14, 17, 4, 16, 9, 9, 3, 3)),
}


def _check_seed(seed) -> None:
    """Refuse a seed that is not an integer >= 0: ``int`` would run 7.9
    as 7, True as 1 and "3" as 3."""
    if not _is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _rng_for(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        _check_seed(seed)
        seed = np.random.SeedSequence(int(seed))
    return np.random.default_rng(seed)


# Each generator below draws one replicate per generator in ``rngs``, as
# row r of its matrices.  A generator makes its replicate's draws in their
# order, and all else is elementwise on the matrix, or a reduction along a
# C-contiguous row, so row r is what that generator alone gives: the
# public one-replicate functions are the one-row case.

def equicorrelated_normal(n: int, rho: float, rngs) -> np.ndarray:
    """One draw of N(0, Sigma) per generator, as the rows of a
    (len(rngs) x n) matrix: unit variances and constant correlation rho,
    via a single shared factor per row."""
    g = np.empty((len(rngs), 1))
    x = np.empty((len(rngs), n))
    for rng, g_r, x_r in zip(rngs, g, x):
        g_r[0] = rng.standard_normal()
        rng.standard_normal(out=x_r)
    x *= math.sqrt(1.0 - rho)
    x += math.sqrt(rho) * g
    return x


def _mixture_rows(scenario: MixtureScenario, rngs):
    """P-values and non-null indicators of one mixture replicate per
    generator, as (len(rngs) x N) matrices."""
    n, alt, scale = scenario.N, scenario.alternative, scenario.effect_scale
    nonnull = np.array([rng.random(n) for rng in rngs]) < scenario.pi1
    effects = scale   # the non-null means, in row-major order
    if alt is not MixtureAlternative.CONSTANT and nonnull.any():
        counts = np.count_nonzero(nonnull, axis=1).tolist()
        effects = np.concatenate([
            rng.normal(0.0, scale, size=k)
            if alt is MixtureAlternative.GAUSSIAN
            else rng.exponential(scale, size=k)
            for rng, k in zip(rngs, counts) if k])
    z = equicorrelated_normal(n, scenario.rho, rngs)
    z *= np.array([rng.integers(0, 2, size=n) for rng in rngs]) * 2 - 1
    # a null's mean, 0, is not added: it could only turn a -0.0 into 0.0,
    # whose p-value is the same
    z[nonnull] += effects
    p = pvalue_two_sided(z) if scenario.two_sided else pvalue_one_sided(z)
    return p, nonnull


def gen_mixture(scenario: MixtureScenario, seed) -> tuple[np.ndarray, np.ndarray]:
    """P-values and non-null indicators for one mixture replicate."""
    p, nonnull = _mixture_rows(scenario, [_rng_for(seed)])
    return p[0], nonnull[0]


def _platform_draw(scenario: PlatformTrialScenario, rngs):
    """One replicate per generator in arm-index order: (analysis times,
    z-statistics, non-null indicators), each a (len(rngs) x K) matrix."""
    K, sigma = scenario.K, scenario.sigma
    u, tau, n_arm = map(np.array, zip(*(
        (rng.random(K), rng.uniform(0.2, 1.0, size=K),
         rng.binomial(scenario.N_target, 0.9, size=K)) for rng in rngs)))
    nonnull = u < scenario.pi
    # test statistic undefined on an empty arm: its row's generator redraws
    for r in np.flatnonzero((n_arm == 0).any(axis=1)).tolist():
        n_r = n_arm[r]
        while np.any(n_r == 0):
            redo = n_r == 0
            n_r[redo] = rngs[r].binomial(scenario.N_target, 0.9,
                                         size=int(redo.sum()))
    # the arms' outcomes of every row in one vector, arm after arm:
    # normal(theta, sigma) is theta + sigma * standard_normal(), draw for draw
    sizes = n_arm.ravel()
    ends = np.cumsum(sizes)
    row_ends = ends[K - 1::K].tolist()
    control = np.empty((len(rngs), scenario.N0))
    y = np.empty(row_ends[-1])
    for rng, control_r, lo, hi in zip(rngs, control, [0] + row_ends, row_ends):
        control_r[:] = rng.normal(0.0, sigma, size=scenario.N0)
        rng.standard_normal(out=y[lo:hi])
    y *= sigma
    y += np.repeat(np.where(nonnull, scenario.effect, 0.0).ravel(), sizes)
    # each arm's mean by np.mean's own steps: the arms of one size as the
    # C-contiguous rows of one matrix, each summed along its row
    sums = np.empty(sizes.shape)
    starts = ends - sizes
    for size in np.unique(sizes).tolist():
        arms = np.flatnonzero(sizes == size)
        sums[arms] = y[starts[arms, None] + np.arange(size)].sum(axis=1)
    ybar = sums.reshape(n_arm.shape) / n_arm
    n0 = (tau * scenario.N0).astype(int)
    control_cum = np.take_along_axis(np.cumsum(control, axis=1), n0 - 1,
                                     axis=1)
    z = (ybar - control_cum / n0) / (sigma * np.sqrt(1.0 / n0 + 1.0 / n_arm))
    return tau, z, nonnull


def _platform_rows(scenario: PlatformTrialScenario, rngs):
    """P-values and non-null indicators of one platform-trial replicate
    per generator, as (len(rngs) x K) matrices in calendar order."""
    tau, z, nonnull = _platform_draw(scenario, rngs)
    # ascending analysis time, ties broken by arm index
    order = np.argsort(tau, axis=1, kind="stable")
    return (pvalue_one_sided(np.take_along_axis(z, order, axis=1)),
            np.take_along_axis(nonnull, order, axis=1))


def gen_platform(scenario: PlatformTrialScenario, seed) -> tuple[np.ndarray, np.ndarray]:
    """P-values (in calendar order of the analysis times) and non-null
    indicators for one platform-trial replicate.

    Every arm is compared against all control outcomes observed by its
    analysis time, which induces the positive correlation of interest.
    Hypotheses are emitted by ascending analysis time, ties broken by arm
    index.
    """
    p, nonnull = _platform_rows(scenario, [_rng_for(seed)])
    return p[0], nonnull[0]


# ---------------------------------------------------------------------------
# the binary-endpoint platform (exact tests, exact integer fractions)
# ---------------------------------------------------------------------------

KIDNEY_PROCEDURES = ("uncorrected", "bonferroni", "lord2", "lord3",
                     "lord++", "saffron", "lond", "bh")


@dataclass(frozen=True)
class KidneyCell:
    """One procedure's outcome on one realisation, as exact integer
    fractions V/R and TP/m1."""

    false_discoveries: int
    rejections: int
    true_positives: int
    nonnull: int

    @property
    def fdr(self) -> str:
        return f"{self.false_discoveries}/{self.rejections}"

    @property
    def power(self) -> str:
        return f"{self.true_positives}/{self.nonnull}"


def kidney_pvalues(scenario: KidneyTrialScenario, Y0: int, Y) -> list[float]:
    """One-sided exact p-values per arm, in arm-index order."""
    Y = list(Y)
    if len(Y) != scenario.K:
        raise ValueError(f"expected {scenario.K} arm counts, got {len(Y)}")
    if not 0 <= Y0 <= scenario.n0:
        raise ValueError(f"control successes {Y0} outside 0..{scenario.n0}")
    for j, y in enumerate(Y):
        if not 0 <= y <= scenario.n_arm:
            raise ValueError(f"arm {j + 1} successes {y} outside 0..{scenario.n_arm}")
    return [_fisher_greater(y, scenario.n_arm - y, Y0, scenario.n0 - Y0)
            for y in Y]


def eval_kidney(scenario: KidneyTrialScenario, Y0: int, Y) -> dict[str, KidneyCell]:
    """Run ``KIDNEY_PROCEDURES``, bounded, on one realisation and score
    against the scenario's true effect signs."""
    p = check_rows([kidney_pvalues(scenario, Y0, Y)])
    flags = np.empty((len(KIDNEY_PROCEDURES), scenario.K), dtype=bool)
    for row, name in zip(flags, KIDNEY_PROCEDURES):
        if name in baselines.OFFLINE_RULES:
            row[:] = baselines.offline_rows(name, p, scenario.alpha)[0]
        else:
            row[:] = decide(_kidney_config(name, scenario.alpha, scenario.K),
                            p[0]).rejected
    r, v, m1 = (c.tolist() for c in baselines._counts(
        flags, np.array(scenario.truth)))
    return {name: KidneyCell(v[j], r[j], r[j] - v[j], m1)
            for j, name in enumerate(KIDNEY_PROCEDURES)}


@lru_cache(maxsize=256)
def _kidney_config(name: str, alpha: float, K: int) -> ProcedureConfig:
    """The bounded config of online rule ``name`` on a K-arm platform;
    configs are frozen, so every evaluation shares one."""
    return default_config(ProcedureKind(name), alpha=alpha, bound=K)


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimateResult:
    """Replicate-averaged operating characteristics of one procedure."""

    label: str
    fdr: float
    fdr_se: float
    power: float | None
    power_se: float | None
    reps: int
    power_reps: int


def _generate(scenario, rngs):
    """P-values and non-null indicators of one replicate per generator,
    as (len(rngs) x stream length) matrices."""
    if isinstance(scenario, MixtureScenario):
        return _mixture_rows(scenario, rngs)
    return _platform_rows(scenario, rngs)


def _stream_length(scenario) -> int:
    """Hypotheses per replicate of a scenario ``_generate`` draws from."""
    if isinstance(scenario, MixtureScenario):
        return scenario.N
    if isinstance(scenario, PlatformTrialScenario):
        return scenario.K
    raise TypeError(f"cannot generate from {type(scenario).__name__}")


# the most replicates one task draws and decides as one (replicates x N) matrix
_BATCH = 128
# A call's work, in rule-steps, is replicates x (stream length x rules +
# _DRAW_WORK): drawing and scoring a replicate costs about 256 of them.
# Under _FORK_WORK a fork costs more than a second worker saves (crossover
# measured on a 2-CPU x86 machine; see the README).
_DRAW_WORK = 256
_FORK_WORK = 2**17


def _replicate_chunk(args):
    """FDP and power of every rule on replicates ``lo, ..., hi - 1``, as a
    (2 x rules x replicates) array: the replicates are drawn as one
    matrix, each offline rule decides it in one call, and the online rules
    in one ``decide_stack`` call, which runs one kernel per rule family
    with the configs' rows stacked; one ``baselines.score`` call scores
    every rule's flags.  Each row's flags are those ``decide`` gives it
    under its own config, so the estimates do not depend on which rules
    share the task."""
    scenario, procs, seed, lo, hi = args
    p, truth = _generate(scenario, [
        np.random.default_rng(np.random.SeedSequence((seed, r)))
        for r in range(lo, hi)])
    p = check_rows(p)
    online = iter(decide_stack(
        [proc for _, proc in procs if not isinstance(proc, str)], p))
    flags = np.array([baselines.offline_rows(proc, p, scenario.alpha)
                      if isinstance(proc, str) else next(online)
                      for _, proc in procs])
    return np.array(baselines.score(flags, truth))


def worker_count() -> int:
    """The most processes a Monte Carlo call uses: ``ONFDR_THREADS`` if
    set, else min(cpu_count, 8).  ``estimate_many`` uses one for a call
    with less work than ``_FORK_WORK``."""
    env = os.environ.get(THREADS_ENV)
    if env is None:
        return max(1, min(os.cpu_count() or 1, 8))
    value = env.strip()
    if not value.isdecimal() or int(value) < 1:
        raise ValueError(f"{THREADS_ENV} must be an integer >= 1, got {env!r}")
    return int(value)


def _run_shares(scenario, procs, seed, cuts) -> np.ndarray:
    """``_decide_share`` of each share ``cuts[k], ..., cuts[k + 1] - 1``,
    joined in replicate order: this process decides share 0 while one
    ``os.fork`` child per other share decides it and sends its array back
    pickled through a pipe.  A child's exception is raised here; on any
    exception here, the children not yet waited for are killed and reaped.
    OpenBLAS is set to one thread before the first fork, so that the
    children inherit it and no process rebuilds the pool a fork tears down.
    """
    _one_blas_thread()
    children = []   # (pid, read end of its pipe) of each child not yet reaped
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child((scenario, procs, seed, lo, hi), w)
            children.append((pid, open(r, "rb")))
            os.close(w)   # later children must not hold it, or no EOF comes
        shares = [_decide_share(scenario, procs, seed, cuts[0], cuts[1])]
        while children:
            pid, pipe = children[0]
            with pipe:
                blob = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            if not blob:
                raise RuntimeError(f"worker {pid} ended with status "
                                   f"{os.waitstatus_to_exitcode(status)} "
                                   "and sent no results")
            done, value = pickle.loads(blob)
            if not done:
                raise value
            shares.append(value)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return np.concatenate(shares, axis=2)


def _decide_share(scenario, procs, seed, lo, hi) -> np.ndarray:
    """``_replicate_chunk`` of replicates ``lo, ..., hi - 1`` in tasks of at
    most ``_BATCH``, joined in replicate order."""
    return np.concatenate([
        _replicate_chunk((scenario, procs, seed, a, min(a + _BATCH, hi)))
        for a in range(lo, hi, _BATCH)], axis=2)


def _child(share, w: int) -> None:
    """The body of a forked child: write ``(True, _decide_share(*share))``
    or ``(False, exception)`` to ``w`` pickled, then ``os._exit``, so that
    nothing of the parent's (buffered stdout, exit handlers) runs here."""
    status = 1
    try:
        try:
            blob = pickle.dumps((True, _decide_share(*share)),
                                pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            blob = _pickled_error(exc)
        view = memoryview(blob)
        while view:   # a signal handler can cut a write short
            view = view[os.write(w, view):]
        status = 0
    finally:
        os._exit(status)


def _pickled_error(exc: BaseException) -> bytes:
    """``(False, exc)`` pickled, or a ``RuntimeError`` carrying its text if
    ``exc`` does not survive a round trip through pickle."""
    try:
        blob = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        pickle.loads(blob)
        return blob
    except Exception:
        error = RuntimeError(f"{type(exc).__qualname__}: {exc}")
        return pickle.dumps((False, error), pickle.HIGHEST_PROTOCOL)


def estimate_many(procs, scenario, reps: int, seed: int) -> list[EstimateResult]:
    """Estimate FDR and power for several rules on shared replicate data.

    ``procs`` is a list of (label, ProcedureConfig) pairs; the config slot
    may instead name an offline rule (a key of ``baselines.OFFLINE_RULES``).
    Replicate r draws its own generator from (seed, r), so results are
    independent of worker scheduling and bit-reproducible.

    Each process decides one contiguous share of the replicates in tasks
    of at most ``_BATCH``.  A call whose work, ``reps x (N x len(procs) +
    _DRAW_WORK)`` (K for a platform trial), is under ``_FORK_WORK`` is one
    share, decided here; a larger one has ``min(worker_count(), ceil(reps
    / 32))`` shares, cut at ``reps * k // shares``.  Every rule and the
    scenario are checked before any share is decided.
    """
    if not _is_integer(reps):
        raise ValueError(f"reps must be an integer, got {reps!r}")
    _check_seed(seed)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    procs = list(procs)
    if not procs:
        raise ValueError("procs must name at least one rule")
    # check every rule and build each config's table here: a refused one
    # raises before any fork, and forked children inherit the tables
    for label, proc in procs:
        if isinstance(proc, ProcedureConfig):
            make_stream(proc)
        elif not isinstance(proc, str):
            raise TypeError(f"{label}: expected a ProcedureConfig or an "
                            f"offline rule name, got {type(proc).__name__}")
        else:
            try:
                baselines._offline_rule(proc)
            except ValueError as exc:
                raise ValueError(f"{label}: {exc}") from None
    work = reps * (_stream_length(scenario) * len(procs) + _DRAW_WORK)
    workers = worker_count()
    shares = min(workers, math.ceil(reps / 32)) if work >= _FORK_WORK else 1
    fdps, powers = _run_shares(scenario, procs, seed,
                               [reps * k // shares for k in range(shares + 1)])
    # a replicate's power is NaN for every rule alike: it has no non-null.
    # np.compress copies C-contiguous, as _mean_se needs
    powers = np.compress(~np.isnan(powers[0]), powers, axis=1)
    return [EstimateResult(label, fdr, fdr_se, power, power_se, reps,
                           powers.shape[1])
            for (label, _), fdr, fdr_se, power, power_se in zip(
                procs, *_mean_se(fdps), *_mean_se(powers))]


def _mean_se(values: np.ndarray):
    """Mean and standard error (ddof=1; 0.0 for one value) of each row of
    a C-contiguous (rules x n) matrix, as lists; Nones if n is 0.  Each
    row is reduced along its contiguous length, as ``np.mean`` and
    ``np.std`` reduce it alone."""
    rows, n = values.shape
    if n == 0:
        return [None] * rows, [None] * rows
    se = (np.std(values, axis=1, ddof=1) / math.sqrt(n)).tolist() \
        if n > 1 else [0.0] * rows
    return np.mean(values, axis=1).tolist(), se


def estimate(procedure: ProcedureConfig, scenario, reps: int,
             seed: int) -> EstimateResult:
    """Single-procedure convenience wrapper over :func:`estimate_many`."""
    return estimate_many([(procedure.kind.value, procedure)],
                         scenario, reps, seed)[0]
