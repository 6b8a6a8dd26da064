"""The three workloads: their inputs, timed loops and output checks.

Each ``run_*`` function generates its inputs from the seed, runs as many
whole rounds of work as fill ``seconds`` at the nominal round time, then
checks the outputs outside the timed region.  Every timed unit of work is
also rescaled to reference host speed (see :mod:`hostspeed`): loops in this
thread probe the host between their units, calls that run for seconds in
this thread probe it from a timer signal (:class:`hostspeed.ThreadSampler`),
and calls whose work runs in pool workers take the samples the workers
take (:class:`hostspeed.WorkerSampler`).  Each returns a dict of
measurements; failures and attempts go to the :class:`Ledger`.  With a
:class:`spans.Tracer` every call into the package is wrapped in a span;
with a :class:`spans.NullTracer` the same code runs untraced.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import resource
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

import oracles
from onfdr import cli
from onfdr.procedures import (
    ProcedureKind,
    default_config,
    make_stream,
    observe,
    rebound_stream,
)
from onfdr.scenarios import (
    KIDNEY_REALISATIONS,
    KidneyTrialScenario,
    MixtureAlternative,
    MixtureScenario,
    PlatformTrialScenario,
    estimate_many,
    eval_kidney,
    worker_count,
)
from onfdr.stattests import TwoByTwoTable, fisher_exact_greater
from spans import NullTracer
from hostspeed import ThreadSampler, WorkerSampler, probe, to_ref
from stats import count_beyond, median, percentile

clock = time.perf_counter


class Ledger:
    """Operations attempted and failed, with a note per failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        self.notes.append(note)


class Tally:
    """Work done, its seconds as measured and at reference host speed."""

    def __init__(self) -> None:
        self.work = 0
        self.seconds = 0.0
        self.ref_seconds = 0.0

    def add(self, work: int, seconds: float, probe_s: float) -> None:
        """``work`` done in ``seconds`` while the probe took ``probe_s``."""
        self.work += work
        self.seconds += seconds
        self.ref_seconds += to_ref(seconds, probe_s)

    def add_median(self, work: int, calls) -> None:
        """``work`` done in the median time of ``calls``, (seconds, probe
        seconds) pairs of the same call repeated: one call in a slow phase
        of the host does not move the rate."""
        self.work += work
        self.seconds += median([secs for secs, _ in calls])
        self.ref_seconds += median([to_ref(secs, probe_s)
                                    for secs, probe_s in calls])

    def rates(self) -> dict[str, float]:
        return {"per_s": self.work / self.seconds,
                "per_ref_s": self.work / self.ref_seconds}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited-for
    child (Linux reports KiB).  Read right after the timed rounds, before
    the set-up probes, also children, run."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def derived_seed(seed: int, *labels) -> int:
    """Independent 32-bit seed for one input of one workload."""
    return int(np.random.SeedSequence([seed, *labels]).generate_state(1)[0])


def rounds_for(seconds: float, nominal_round_s: float) -> int:
    """Rounds that fill ``seconds`` at the nominal round time (measured on a
    2-vCPU host).  The count depends on ``seconds`` only, never on how fast
    a run happens to go, so every run of a workload does the same work and
    the per-unit minima below take the same number of repeats."""
    return max(1, math.ceil(seconds / nominal_round_s))


def run_rounds(count: int, round_fn) -> int:
    for k in range(count):
        round_fn(k)
    return count


# ---------------------------------------------------------------------------
# mc-grid
# ---------------------------------------------------------------------------

ALPHA = 0.05
MC_KINDS = (ProcedureKind.LORD2, ProcedureKind.LORD3, ProcedureKind.LORDPP,
            ProcedureKind.SAFFRON, ProcedureKind.LOND_INDEP,
            ProcedureKind.BONFERRONI)
MC_REPS = 64          # the smallest count estimate_many sends to its pool
MC_PASS_S = 12.0      # nominal seconds per pass over the grid
SHORT_REPEATS = 2     # calls per short cell in a pass
CHECKED_RULES = 3     # rules re-composed per N=1000 cell


@dataclass(frozen=True)
class Cell:
    name: str
    scenario: object
    procs: tuple
    reps: int
    seed: int

    @property
    def short(self) -> bool:
        """Short-stream cell, where per-stream and per-call costs show."""
        return getattr(self.scenario, "N", 0) != 1000

    def estimate(self):
        return estimate_many(list(self.procs), self.scenario, self.reps,
                             self.seed)


def mc_cells(seed: int) -> list[Cell]:
    """The simulation-study cells of acceptance criteria 4-6.

    Building them constructs configs and specs only; no table is built, so
    every pool worker starts cold, as under ``onfdr simulate``.
    """
    cells = []
    for n in (100, 1000):
        for pi1 in (0.05, 0.2, 0.5):
            procs = []
            for kind in MC_KINDS:
                procs.append((kind.value, default_config(kind, alpha=ALPHA)))
                procs.append((kind.value + "-b",
                              default_config(kind, alpha=ALPHA, bound=n)))
            procs.append(("bh", "bh"))
            scenario = MixtureScenario(N=n, pi1=pi1, rho=0.5,
                                       alternative=MixtureAlternative.GAUSSIAN)
            name = f"gaussian-N{n}-pi{pi1}"
            cells.append(Cell(name, scenario, tuple(procs),
                              MC_REPS,
                              derived_seed(seed, len(cells))))
    platform = PlatformTrialScenario(K=25, pi=0.2, alpha=0.1)
    procs = tuple((k.value, default_config(k, alpha=0.1, bound=25))
                  for k in MC_KINDS)
    cells.append(Cell("platform-K25", platform, procs, MC_REPS,
                      derived_seed(seed, len(cells))))
    return cells


def estimates_key(results) -> tuple:
    return tuple((r.label, r.fdr, r.fdr_se, r.power, r.power_se)
                 for r in results)


def check_cell(cell: Cell, results, labels, ledger: Ledger) -> None:
    """Compare the estimates of the rules named in ``labels`` with the
    serial re-composition of their replicates."""
    procs = [(label, proc) for label, proc in cell.procs if label in labels]
    want = oracles.recompose(cell.scenario, procs, cell.seed, cell.reps,
                             NullTracer())
    got = [r for r in results if r.label in labels]
    for res, (fdr, power) in zip(got, want):
        bad_power = (power is None) != (res.power is None) or (
            power is not None and abs(power - res.power) > oracles.ABS_TOL)
        if abs(fdr - res.fdr) > oracles.ABS_TOL or bad_power:
            ledger.fail(cell.reps, f"{cell.name} {res.label}: estimate "
                        f"({res.fdr!r}, {res.power!r}) != re-composed "
                        f"({fdr!r}, {power!r})")


def run_mc_grid(seed: int, seconds: float, tracer, ledger: Ledger,
                tmpdir: str, rounds: int | None = None) -> dict:
    cells = mc_cells(seed)
    workers = worker_count()
    timed: list[tuple[Cell, float, float]] = []
    outputs: dict[str, list] = {c.name: [] for c in cells}

    def one_pass(_k):
        for cell in cells:
            for _ in range(SHORT_REPEATS if cell.short else 1):
                ledger.attempted += cell.reps
                t0 = clock()
                try:
                    with tracer.span("scenarios.estimate_many"):
                        res = cell.estimate()
                except Exception as exc:  # a failed call still counts
                    ledger.fail(cell.reps, f"{cell.name}: {exc!r}")
                    continue
                timed.append((cell, t0, clock()))
                outputs[cell.name].append(res)

    with WorkerSampler(tempfile.mkdtemp(dir=tmpdir)) as sampler:
        n_rounds = run_rounds(rounds or rounds_for(seconds, MC_PASS_S),
                              one_pass)
    rss = peak_rss_mb()
    calls: dict[str, list[tuple[float, float]]] = {c.name: [] for c in cells}
    for cell, t0, t1 in timed:
        # the workers probe side by side, so their probing lengthens the
        # call by about its total over the worker count
        secs = t1 - t0 - sampler.spent_between(t0, t1) / workers
        calls[cell.name].append((secs, sampler.probe_between(t0, t1)))
    # replicates per second over one median call of each cell
    every, short = Tally(), Tally()
    for cell in cells:
        if calls[cell.name]:
            every.add_median(cell.reps, calls[cell.name])
            if cell.short:
                short.add_median(cell.reps, calls[cell.name])

    # checks, outside the timed region: every pass agrees with the first;
    # the short cells, and a seed-drawn subset of rules of each N=1000 cell,
    # agree with the serial re-composition
    rng = np.random.default_rng(derived_seed(seed, 4))
    for cell in cells:
        runs = outputs[cell.name]
        if not runs:
            continue
        first = estimates_key(runs[0])
        for k, res in enumerate(runs[1:], start=1):
            if estimates_key(res) != first:
                ledger.fail(cell.reps, f"{cell.name}: call {k} differs from "
                            "call 0")
        labels = [label for label, _ in cell.procs]
        if not cell.short:
            labels = rng.choice(labels, CHECKED_RULES, replace=False).tolist()
        check_cell(cell, runs[0], labels, ledger)

    return {
        "rounds": n_rounds,
        "primary": every.rates(),
        "secondary": short.rates(),
        "peak_rss_mb": rss,
        "cell_s": [(cell.name, t1 - t0) for cell, t0, t1 in timed],
        "estimates": {name: estimates_key(runs[0]) for name, runs
                      in outputs.items() if runs},
    }


# ---------------------------------------------------------------------------
# stream-run
# ---------------------------------------------------------------------------

STREAM_N = 100_000
STREAM_PI1 = 0.1
LOND_BOUND, LOND_REBOUND = 50_000, 100_000
STREAM_RULES = (
    ("lordpp", ProcedureKind.LORDPP, []),
    ("saffron", ProcedureKind.SAFFRON, []),
    ("lord-dep", ProcedureKind.LORD_DEP, []),
    ("lond", ProcedureKind.LOND_INDEP,
     ["--bound", str(LOND_BOUND), "--rebound", f"{LOND_BOUND}:{LOND_REBOUND}"]),
)
CLI_REPEATS = 3        # onfdr run calls per rule per round
STREAM_ROUND_S = 29.0  # nominal seconds per round (CLI and observe loop)
LEVEL_SAMPLES = 1000
OBSERVE_BLOCK = 2000      # observe calls per host-speed probe


def stream_pvalues(seed: int) -> np.ndarray:
    """One-sided p-values of a 10^5 stream: independent unit normals, a
    tenth of them shifted by the constant alternative sqrt(log N)."""
    rng = np.random.default_rng(derived_seed(seed, 0))
    nonnull = rng.random(STREAM_N) < STREAM_PI1
    z = rng.standard_normal(STREAM_N) + np.where(
        nonnull, np.sqrt(np.log(STREAM_N)), 0.0)
    return ndtr(-z)


def stream_config(kind: ProcedureKind):
    bound = LOND_BOUND if kind is ProcedureKind.LOND_INDEP else None
    return default_config(kind, alpha=ALPHA, bound=bound)


def write_stream_csv(path: str, p: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("id,pvalue\n")
        fh.writelines(f"h{i},{v!r}\n" for i, v in enumerate(p.tolist()))


def read_run_output(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Levels and decisions from an ``onfdr run`` output CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    levels = np.array([float(r[3]) for r in rows])
    rejected = np.array([r[4] == "true" for r in rows])
    return levels, rejected


def digest(rejected: np.ndarray) -> str:
    return hashlib.sha256(np.packbits(rejected).tobytes()).hexdigest()


def observe_loop(kind, p_list, lat, offset, tracer, probes=None):
    """Closed loop of ``observe`` calls, each timed into ``lat``; returns
    the levels, decisions and the stream's discovery count.  Given a
    ``probes`` list, the host is probed before every ``OBSERVE_BLOCK``
    calls."""
    config = stream_config(kind)
    with tracer.span("procedures.make_stream"):
        state = make_stream(config)
    levels = np.empty(len(p_list))
    rejected = np.empty(len(p_list), dtype=bool)
    rebound_at = LOND_BOUND if kind is ProcedureKind.LOND_INDEP else None
    for i, pv in enumerate(p_list):
        if probes is not None and i % OBSERVE_BLOCK == 0:
            probes.append(probe())
        if i == rebound_at:
            with tracer.span("procedures.rebound_stream"):
                rebound_stream(state, config, LOND_REBOUND)
        t0 = clock()
        rec = observe(state, pv, config)
        t1 = clock()
        lat[offset + i] = t1 - t0
        if tracer:
            tracer.record("procedures.observe", t0, t1)
        levels[i] = rec.level
        rejected[i] = rec.rejected
    return levels, rejected, state.discoveries


def check_stream(name, kind, p, levels, rejected, ledger) -> None:
    """Levels against the closed forms on sampled indices (every index for
    lord-dep and lond), and decisions against ``p <= level``."""
    n = len(p)
    config = stream_config(kind)
    wrong = int(np.sum(rejected != (p <= levels)))
    if wrong:
        ledger.fail(wrong, f"{name}: decisions disagree with p <= level")
    idx = np.arange(n)
    if kind is ProcedureKind.LORD_DEP:
        want, want_rej = oracles.lord_dep_levels(
            oracles.coefficients(config, n), config, p)
        wrong = int(np.sum(want_rej != rejected))
        if wrong:
            ledger.fail(wrong, f"{name}: decisions differ from the oracle")
    elif kind is ProcedureKind.LOND_INDEP:
        want = oracles.lond_rebound_levels(config, rejected, LOND_BOUND,
                                           LOND_REBOUND)
    else:
        gamma = oracles.coefficients(config, n)
        tau = np.nonzero(rejected)[0] + 1
        rng = np.random.default_rng(n)
        idx = np.unique(np.concatenate([
            rng.integers(0, n, LEVEL_SAMPLES), tau[:50] - 1, tau[-50:] - 1,
            [0, n - 1]]))
        if kind is ProcedureKind.LORDPP:
            want = [oracles.lordpp_level(gamma, config, tau, i + 1)
                    for i in idx]
        else:
            cand_cum = np.concatenate([[0], np.cumsum(p <= config.lam)])
            want = [oracles.saffron_level(gamma, config, tau, cand_cum, i + 1)
                    for i in idx]
    bad = sum(1 for a, b in zip(levels[idx].tolist(), np.asarray(want).tolist())
              if not oracles.close_rel(a, b))
    if bad:
        ledger.fail(bad, f"{name}: {bad} levels differ from the oracle by "
                    f"more than {oracles.REL_TOL} relative")


def run_stream_run(seed: int, seconds: float, tracer, ledger: Ledger,
                   tmpdir: str, rounds: int | None = None) -> dict:
    p = stream_pvalues(seed)
    p_list = p.tolist()
    src = os.path.join(tmpdir, "stream.csv")
    dst = os.path.join(tmpdir, "decisions.csv")
    write_stream_csv(src, p)
    cli_s = {name: [] for name, _, _ in STREAM_RULES}
    cli_runs = {name: [] for name, _, _ in STREAM_RULES}  # ThreadSamplers
    lat = np.empty(0)
    probes: list[float] = []
    cli_out, loop_out, discoveries = {}, {}, {}

    def one_round(k):
        nonlocal lat
        lat = np.concatenate([lat, np.empty(len(STREAM_RULES) * STREAM_N)])
        base = k * len(STREAM_RULES) * STREAM_N
        for r, (name, kind, extra) in enumerate(STREAM_RULES):
            argv = ["run", "--input", src, "--output", dst,
                    "--procedure", kind.value, "--alpha", str(ALPHA), *extra]
            ledger.attempted += (CLI_REPEATS + 1) * STREAM_N
            for _ in range(CLI_REPEATS):
                with tracer.span("cli.main"), ThreadSampler() as sampler:
                    code = cli.main(argv)
                cli_s[name].append(sampler.seconds())
                cli_runs[name].append(sampler)
                if code != 0:
                    ledger.fail(STREAM_N, f"{name}: onfdr run exited {code}")
                else:
                    cli_out.setdefault(name, []).append(read_run_output(dst))
            levels, rejected, d = observe_loop(kind, p_list, lat,
                                               base + r * STREAM_N, tracer,
                                               probes)
            loop_out.setdefault(name, []).append((levels, rejected))
            discoveries[name] = d

    n_rounds = run_rounds(rounds or rounds_for(seconds, STREAM_ROUND_S),
                          one_round)
    rss = peak_rss_mb()
    # CLI rows per second over one median call of each rule
    cli_tally, observe_tally = Tally(), Tally()
    for runs in cli_runs.values():
        cli_tally.add_median(STREAM_N, [(run.seconds(), run.probe_s())
                                        for run in runs])
    # time inside observe, per block, at the probe taken just before it
    blocks = lat.reshape(-1, OBSERVE_BLOCK).sum(axis=1).tolist()
    for secs, probe_s in zip(blocks, probes):
        observe_tally.add(OBSERVE_BLOCK, secs, probe_s)

    # checks: CLI and incremental paths agree in every round, every round
    # agrees with the first, and the first agrees with the oracle
    for name, kind, _ in STREAM_RULES:
        ref_levels, ref_rej = loop_out[name][0]
        ref_digest = digest(ref_rej)
        for levels, rejected in loop_out[name][1:] + cli_out.get(name, []):
            if digest(rejected) != ref_digest:
                ledger.fail(STREAM_N, f"{name}: decision digest differs")
            bad = sum(1 for a, b in zip(levels[::97].tolist(),
                                        ref_levels[::97].tolist())
                      if not oracles.close_rel(a, b))
            if bad:
                ledger.fail(bad, f"{name}: sampled levels differ between "
                            "paths or rounds")
        check_stream(name, kind, p, ref_levels, ref_rej, ledger)

    samples = lat.tolist()
    return {
        "rounds": n_rounds,
        "primary": cli_tally.rates(),
        "secondary": observe_tally.rates(),
        "peak_rss_mb": rss,
        "observe_p50_us": percentile(samples, 50) * 1e6,
        "observe_p999_us": percentile(samples, 99.9) * 1e6,
        "observe_samples": len(samples),
        "observe_beyond_p999": count_beyond(len(samples), 99.9),
        "discoveries": discoveries,
        "cli_s": cli_s,
    }


# ---------------------------------------------------------------------------
# exact-design
# ---------------------------------------------------------------------------

KIDNEY_SWEEPS = 4
DESIGN_ROUND_S = 5.5   # nominal seconds per round (table and sweeps)
ORACLE_SAMPLES = 2000


def designs(seed: int) -> list[list[tuple[int, int, int, int]]]:
    """Per design (n0 in 20..80 step 4, n_arm in 10..40 step 5, in a
    seed-drawn order), the tables (a, b, c, d) = (y, n_arm - y, Y0, n0 - Y0)
    of every outcome pair (Y0, y).  The seed reorders a fixed set, so every
    seed does the same work."""
    grid = [(n0, n_arm) for n0 in range(20, 81, 4)
            for n_arm in range(10, 41, 5)]
    order = np.random.default_rng(derived_seed(seed, 1)).permutation(len(grid))
    return [[(y, n_arm - y, y0, n0 - y0)
             for y0 in range(n0 + 1) for y in range(n_arm + 1)]
            for n0, n_arm in (grid[i] for i in order)]


def design_tables(seed: int) -> list[tuple[int, int, int, int]]:
    return [t for design in designs(seed) for t in design]


def kidney_sweep(seed: int) -> list[tuple[KidneyTrialScenario, int, tuple]]:
    """(scenario, Y0, Y) for each n0 in 20..80 and each built-in
    realisation, in a seed-drawn order."""
    base = KidneyTrialScenario()
    runs = [(replace(base, n0=n0), y0, y)
            for n0 in range(20, 81)
            for y0, y in KIDNEY_REALISATIONS.values()]
    order = np.random.default_rng(derived_seed(seed, 2)).permutation(len(runs))
    return [runs[i] for i in order]


def kidney_key(cells) -> tuple:
    return tuple((name, c.false_discoveries, c.rejections, c.true_positives,
                  c.nonnull) for name, c in cells.items())


def check_kidney(run, cells, ledger: Ledger) -> None:
    """Uncorrected, Bonferroni and BH cells from oracle p-values."""
    scenario, y0, y = run
    p = np.array([oracles.fisher_greater(v, scenario.n_arm - v, y0,
                                         scenario.n0 - y0) for v in y])
    alpha, truth = scenario.alpha, np.array(scenario.truth)
    for name, decisions in (("uncorrected", p < alpha),
                            ("bonferroni", p <= alpha / scenario.K),
                            ("bh", oracles.bh_count(p, alpha))):
        want = (int(np.sum(decisions & ~truth)), int(np.sum(decisions)),
                int(np.sum(decisions & truth)), int(np.sum(truth)))
        c = cells[name]
        got = (c.false_discoveries, c.rejections, c.true_positives, c.nonnull)
        if got != want:
            ledger.fail(1, f"kidney n0={scenario.n0} Y0={y0} {name}: "
                        f"{got} != oracle {want}")


def run_exact_design(seed: int, seconds: float, tracer, ledger: Ledger,
                     rounds: int | None = None) -> dict:
    groups = designs(seed)
    tables = [t for design in groups for t in design]
    sweep = kidney_sweep(seed)
    pvals = np.empty(len(tables))
    tests, analyses = Tally(), Tally()
    sweep_calls: list[tuple[float, float]] = []   # (seconds, probe seconds)
    first_p = None
    kidney_out: list = []
    mismatched_rounds = 0

    def one_round(k):
        nonlocal first_p, mismatched_rounds
        ledger.attempted += len(tables) + KIDNEY_SWEEPS * len(sweep)
        j = 0
        for design in groups:
            probe_s = probe()
            t0 = clock()
            for a, b, c, d in design:
                s = clock() if tracer else 0.0
                pvals[j] = fisher_exact_greater(TwoByTwoTable(a, b, c, d))
                if tracer:
                    tracer.record("stattests.fisher_exact_greater", s, clock())
                j += 1
            tests.add(len(design), clock() - t0, probe_s)
        if first_p is None:
            first_p = pvals.copy()
        elif not np.array_equal(first_p, pvals):
            mismatched_rounds += 1
        for _ in range(KIDNEY_SWEEPS):
            outs = []
            with ThreadSampler() as sampler:
                for scenario, y0, y in sweep:
                    with tracer.span("scenarios.eval_kidney"):
                        outs.append(eval_kidney(scenario, y0, y))
            sweep_calls.append((sampler.seconds(), sampler.probe_s()))
            for e, cells in enumerate(outs):
                if len(kidney_out) < len(sweep):
                    kidney_out.append(cells)
                elif kidney_key(cells) != kidney_key(kidney_out[e]):
                    ledger.fail(1, f"round {k}: kidney analysis {e} differs "
                                "between sweeps")

    n_rounds = run_rounds(rounds or rounds_for(seconds, DESIGN_ROUND_S),
                          one_round)
    rss = peak_rss_mb()
    analyses.add_median(len(sweep), sweep_calls)

    if mismatched_rounds:
        ledger.fail(mismatched_rounds * len(tables),
                    "exact p-values differ between rounds")
    rng = np.random.default_rng(derived_seed(seed, 3))
    bad = 0
    for j in rng.choice(len(tables), size=ORACLE_SAMPLES, replace=False):
        if abs(oracles.fisher_greater(*tables[j]) - first_p[j]) > oracles.ABS_TOL:
            bad += 1
    if bad:
        ledger.fail(bad, f"{bad} exact p-values differ from the integer "
                    f"oracle by more than {oracles.ABS_TOL}")
    for run, cells in zip(sweep, kidney_out):
        check_kidney(run, cells, ledger)

    return {"rounds": n_rounds, "primary": tests.rates(),
            "secondary": analyses.rates(), "peak_rss_mb": rss}
