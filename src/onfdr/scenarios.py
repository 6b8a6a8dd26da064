"""Synthetic data generators and experiment drivers.

Three families: an equicorrelated multivariate-normal mixture, a platform
trial with a shared control arm, and a small binary-endpoint platform with
exact tests.  ``estimate``/``estimate_many`` run seeded replicates and report
mean false discovery proportion and power with Monte Carlo standard errors.

Replicates are drawn one generator per (seed, replicate) and
decided in tasks of at most ``_BATCH``: the online rules decide a task's
(replicates x N) matrix in one ``procedures.decide_stack`` call, each
offline rule in one ``baselines.offline_rows`` call, and
``baselines.score`` scores it per row.
A call of at least 64 replicates on more than one worker deals its tasks
round-robin into one share per worker: the calling process computes the
first share and an ``os.fork`` child each other share, whose arrays come
back pickled through a pipe and are put back in task order, so estimates
are the same bits for every worker count.
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
    """Equicorrelated z-statistics with a point-mass-or-F1 mean mixture;
    ``alpha`` is the level of the offline rules run on it."""

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


def _rng_for(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


def equicorrelated_normal(n: int, rho: float, rng: np.random.Generator) -> np.ndarray:
    """One draw of N(0, Sigma) with unit variances and constant correlation
    rho, via a single shared factor."""
    g = rng.standard_normal()
    eps = rng.standard_normal(n)
    return math.sqrt(rho) * g + math.sqrt(1.0 - rho) * eps


def gen_mixture(scenario: MixtureScenario, seed) -> tuple[np.ndarray, np.ndarray]:
    """P-values and non-null indicators for one mixture replicate."""
    rng = _rng_for(seed)
    n = scenario.N
    nonnull = rng.random(n) < scenario.pi1
    theta = np.zeros(n)
    k = int(nonnull.sum())
    if k:
        alt = scenario.alternative
        if alt is MixtureAlternative.GAUSSIAN:
            theta[nonnull] = rng.normal(0.0, scenario.effect_scale, size=k)
        elif alt is MixtureAlternative.EXPONENTIAL:
            theta[nonnull] = rng.exponential(scenario.effect_scale, size=k)
        else:
            theta[nonnull] = scenario.effect_scale
    x = equicorrelated_normal(n, scenario.rho, rng)
    signs = rng.integers(0, 2, size=n) * 2 - 1
    z = theta + signs * x
    p = pvalue_two_sided(z) if scenario.two_sided else pvalue_one_sided(z)
    return p, nonnull


def _platform_draw(scenario: PlatformTrialScenario, rng: np.random.Generator):
    """One replicate in arm-index order: (analysis times, z-statistics,
    non-null indicators)."""
    K, sigma = scenario.K, scenario.sigma
    n0_total = scenario.N0
    nonnull = rng.random(K) < scenario.pi
    theta = np.where(nonnull, scenario.effect, 0.0)
    tau = rng.uniform(0.2, 1.0, size=K)
    n_arm = rng.binomial(scenario.N_target, 0.9, size=K)
    while np.any(n_arm == 0):   # test statistic undefined on an empty arm
        redo = n_arm == 0
        n_arm[redo] = rng.binomial(scenario.N_target, 0.9, size=int(redo.sum()))
    control_cum = np.cumsum(rng.normal(0.0, sigma, size=n0_total))
    # the arms' outcomes in one call, each arm's mean by np.mean's own steps
    y = rng.normal(np.repeat(theta, n_arm), sigma)
    ybar = np.array([y[e - n:e].sum() for n, e in zip(
        n_arm.tolist(), np.cumsum(n_arm).tolist())]) / n_arm
    n0 = (tau * n0_total).astype(int)
    z = (ybar - control_cum[n0 - 1] / n0) / (sigma * np.sqrt(1.0 / n0 + 1.0 / n_arm))
    return tau, z, nonnull


def gen_platform(scenario: PlatformTrialScenario, seed) -> tuple[np.ndarray, np.ndarray]:
    """P-values (in calendar order of the analysis times) and non-null
    indicators for one platform-trial replicate.

    Every arm is compared against all control outcomes observed by its
    analysis time, which induces the positive correlation of interest.
    Hypotheses are emitted by ascending analysis time, ties broken by arm
    index.
    """
    tau, z, nonnull = _platform_draw(scenario, _rng_for(seed))
    order = np.lexsort((np.arange(scenario.K), tau))
    return pvalue_one_sided(z[order]), nonnull[order]


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


def _generate(scenario, seed):
    if isinstance(scenario, MixtureScenario):
        return gen_mixture(scenario, seed)
    if isinstance(scenario, PlatformTrialScenario):
        return gen_platform(scenario, seed)
    raise TypeError(f"cannot generate from {type(scenario).__name__}")


# the most replicates one task draws and decides as one (replicates x N) matrix
_BATCH = 128


def _replicate_chunk(args):
    """FDP and power of every rule on replicates ``lo, ..., hi - 1``, as a
    (rules x 2 x replicates) array: their p-values are stacked and checked
    once, each offline rule decides the whole matrix in one call, and the
    online rules in one ``decide_stack`` call, which runs one kernel per
    rule family with the configs' rows stacked.  Each row's flags are
    those ``decide`` gives it under its own config, so the estimates do
    not depend on which rules share the task."""
    scenario, procs, seed, lo, hi = args
    p, truth = zip(*(_generate(scenario, np.random.SeedSequence((seed, r)))
                     for r in range(lo, hi)))
    p, truth = check_rows(list(p)), np.array(truth)
    online = iter(decide_stack(
        [proc for _, proc in procs if not isinstance(proc, str)], p))
    decisions = (baselines.offline_rows(proc, p, scenario.alpha)
                 if isinstance(proc, str) else next(online) for _, proc in procs)
    return np.array([baselines.score(d, truth) for d in decisions])


def worker_count() -> int:
    """Processes per Monte Carlo call: ``ONFDR_THREADS`` if set, else
    min(cpu_count, 8)."""
    env = os.environ.get(THREADS_ENV)
    if env is None:
        return max(1, min(os.cpu_count() or 1, 8))
    value = env.strip()
    if not value.isdecimal() or int(value) < 1:
        raise ValueError(f"{THREADS_ENV} must be an integer >= 1, got {env!r}")
    return int(value)


def _run_tasks(tasks, workers: int) -> list[np.ndarray]:
    """``_replicate_chunk`` of every task, in task order.

    The tasks are dealt round-robin into ``min(workers, len(tasks))``
    shares. This process computes share 0 while one ``os.fork`` child per
    other share computes it and sends its arrays back pickled through a
    pipe. A child's exception is raised here; on any exception here, the
    children not yet waited for are killed and reaped.
    """
    n = min(workers, len(tasks))
    children = []   # (pid, read end of its pipe) of each child not yet reaped
    try:
        for k in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(tasks[k::n], w)
            children.append((pid, open(r, "rb")))
            os.close(w)   # later children must not hold it, or no EOF comes
        shares = [[_replicate_chunk(t) for t in tasks[::n]]]
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
    parts = [None] * len(tasks)
    for k, share in enumerate(shares):
        parts[k::n] = share
    return parts


def _child(tasks, w: int) -> None:
    """The body of a forked child: write ``(True, parts)`` or ``(False,
    exception)`` to ``w`` pickled, then ``os._exit``, so that nothing of the
    parent's (its buffered stdout, its exit handlers) runs here."""
    status = 1
    try:
        try:
            blob = pickle.dumps((True, [_replicate_chunk(t) for t in tasks]),
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
    """
    for name, value in (("reps", reps), ("seed", seed)):
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
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
    workers = worker_count()
    chunk = min(_BATCH, max(32, math.ceil(reps / (workers * 8))))
    tasks = [(scenario, procs, seed, lo, min(lo + chunk, reps))
             for lo in range(0, reps, chunk)]
    parts = _run_tasks(tasks, 1 if reps < 64 else workers)
    fdps, powers = np.concatenate(parts, axis=2).swapaxes(0, 1)

    results = []
    # per rule: a reduction over the matrix would sum in another order
    for (label, _), fdp, power in zip(procs, fdps, powers):
        power = power[~np.isnan(power)]
        results.append(EstimateResult(label, *_mean_se(fdp), *_mean_se(power),
                                      reps, len(power)))
    return results


def _mean_se(values: np.ndarray) -> tuple[float | None, float | None]:
    """Mean and standard error (ddof=1; 0.0 for one value), None if empty."""
    n = len(values)
    if n == 0:
        return None, None
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(values)), se


def estimate(procedure: ProcedureConfig, scenario, reps: int,
             seed: int) -> EstimateResult:
    """Single-procedure convenience wrapper over :func:`estimate_many`."""
    return estimate_many([(procedure.kind.value, procedure)],
                         scenario, reps, seed)[0]
