"""Per-layer measurements for the traced run.

Every number here times calls into one module of the package from the
benchmark's own code, inside a span named after the call.  The comments on
each block name the end-to-end figure the layer should move (see
``bench/README.md``).
"""

from __future__ import annotations

import os
import time

import numpy as np

import oracles
import workloads
from onfdr import baselines, cli
from onfdr.procedures import (
    ProcedureKind,
    default_config,
    default_sequence,
    make_stream,
    rebound_stream,
    run_stream,
)
from onfdr.scenarios import (
    THREADS_ENV,
    MixtureAlternative,
    MixtureScenario,
    PlatformTrialScenario,
    gen_mixture,
    gen_platform,
    worker_count,
)
from onfdr.sequences import build_table, rebound, validate_xi
from onfdr.stattests import TwoByTwoTable, fisher_exact_greater, \
    pvalue_two_sided
from stats import median, percentile

clock = time.perf_counter

RULES = (("lord2", ProcedureKind.LORD2), ("lord3", ProcedureKind.LORD3),
         ("lordpp", ProcedureKind.LORDPP), ("saffron", ProcedureKind.SAFFRON),
         ("lord-dep", ProcedureKind.LORD_DEP),
         ("lond", ProcedureKind.LOND_INDEP),
         ("lond-dep", ProcedureKind.LOND_DEP),
         ("bonferroni", ProcedureKind.BONFERRONI))
OBSERVE_REPEATS = {100: 15, 1000: 5, 10_000: 1}
POOL_CELLS = ("gaussian-N100-pi0.2", "gaussian-N1000-pi0.2", "platform-K25")


def timed(tracer, name, fn, *args):
    """``fn(*args)`` inside a span; returns (seconds, result)."""
    with tracer.span(name):
        t0 = clock()
        out = fn(*args)
        secs = clock() - t0
    return secs, out


def median_time(tracer, name, repeats, fn, *args) -> float:
    return median([timed(tracer, name, fn, *args)[0] for _ in range(repeats)])


def pool_cells(seed: int):
    return [c for c in workloads.mc_cells(seed) if c.name in POOL_CELLS]


def run_pool(seed: int, tracer) -> dict:
    """Default-worker ``estimate_many`` on three grid cells.  Must run while
    this process has built no table, so the forked workers start cold."""
    out = {}
    for cell in pool_cells(seed):
        out[cell.name] = timed(tracer, "scenarios.estimate_many",
                               cell.estimate)
    return out


def run_layers(seed: int, tracer, ledger, tmpdir: str, pool: dict) -> dict:
    m: dict[str, float] = {}
    cells = pool_cells(seed)

    # scenarios: serial rate, pool efficiency and per-call pool overhead
    # (mc_reps_per_s on mc-grid); the default-worker estimates must equal
    # the single-worker ones bit for bit.
    workers = worker_count()
    saved = os.environ.get(THREADS_ENV)
    os.environ[THREADS_ENV] = "1"
    try:
        serial = {c.name: timed(tracer, "scenarios.estimate_many", c.estimate)
                  for c in cells}
    finally:
        if saved is None:
            del os.environ[THREADS_ENV]
        else:
            os.environ[THREADS_ENV] = saved
    t_ser = sum(serial[c.name][0] for c in cells)
    t_par = sum(pool[c.name][0] for c in cells)
    m["scenarios.serial_reps_per_s"] = sum(c.reps for c in cells) / t_ser
    m["scenarios.parallel_efficiency"] = t_ser / t_par / workers
    m["scenarios.pool_overhead_ms_per_call"] = 1e3 * sum(
        pool[c.name][0] - serial[c.name][0] / workers for c in cells) / len(cells)
    for c in cells:
        ledger.attempted += c.reps
        if (workloads.estimates_key(pool[c.name][1])
                != workloads.estimates_key(serial[c.name][1])):
            ledger.fail(c.reps, f"{c.name}: {workers}-worker estimates differ "
                        "from single-worker estimates")

    # scenarios: one replicate re-composed from its calls; shares of
    # generate / decide / score (mc_reps_per_s, mostly the platform cell)
    first_span = len(tracer)
    for c in cells:
        ledger.attempted += c.reps
        want = oracles.recompose(c.scenario, c.procs, c.seed, c.reps, tracer)
        for res, (fdr, power) in zip(pool[c.name][1], want):
            if abs(res.fdr - fdr) > oracles.ABS_TOL or (
                    power is not None
                    and abs(res.power - power) > oracles.ABS_TOL):
                ledger.fail(c.reps, f"{c.name} {res.label}: re-composed "
                            "replicates do not reproduce estimate_many")
                break
    share = {"generate": 0.0, "decide": 0.0, "score": 0.0}
    total = 0.0
    for idx in range(first_span, len(tracer)):
        name = tracer.names[tracer.name_id[idx]]
        if name == "bench.replicate":
            total += tracer.duration(idx)
        elif name.startswith("scenarios.gen_"):
            share["generate"] += tracer.duration(idx)
        elif name == "baselines.score":
            share["score"] += tracer.duration(idx)
        elif name in ("procedures.run_stream", "baselines.bh"):
            share["decide"] += tracer.duration(idx)
    for key, secs in share.items():
        m[f"scenarios.share.{key}"] = secs / total

    # scenarios: generators (mc_reps_per_s)
    mix = {n: MixtureScenario(N=n, pi1=0.2, rho=0.5,
                              alternative=MixtureAlternative.GAUSSIAN)
           for n in (100, 1000)}
    plat = PlatformTrialScenario(K=25, pi=0.2, alpha=0.1)
    for n, sc in mix.items():
        m[f"scenarios.gen_mixture_ms.N{n}"] = 1e3 * median(
            [timed(tracer, "scenarios.gen_mixture", gen_mixture, sc,
                   np.random.SeedSequence((seed, r)))[0] for r in range(200)])
    m["scenarios.gen_platform_ms.K25"] = 1e3 * median(
        [timed(tracer, "scenarios.gen_platform", gen_platform, plat,
               np.random.SeedSequence((seed, r)))[0] for r in range(200)])

    # baselines: offline rules and scoring (mc_reps_per_s)
    p1000, truth1000 = gen_mixture(mix[1000], np.random.SeedSequence((seed, 0)))
    p25, truth25 = gen_platform(plat, np.random.SeedSequence((seed, 0)))
    dec1000 = oracles.decide("bh", p1000, 0.05)
    dec25 = oracles.decide(default_config(ProcedureKind.LOND_INDEP, 0.1,
                                          bound=25), p25, 0.1)
    m["baselines.bh_us.N1000"] = 1e6 * median_time(
        tracer, "baselines.bh", 200, baselines.bh, p1000, 0.05)
    m["baselines.bh_adjusted_us.N1000"] = 1e6 * median_time(
        tracer, "baselines.bh_adjusted", 200, baselines.bh_adjusted, p1000,
        0.05)
    m["baselines.score_us.N1000"] = 1e6 * median_time(
        tracer, "baselines.score", 200, baselines.score, dec1000,
        truth1000.tolist())
    m["baselines.score_us.N25"] = 1e6 * median_time(
        tracer, "baselines.score", 500, baselines.score, dec25,
        truth25.tolist())

    # stattests (exact_tests_per_s and kidney_evals_per_s on exact-design;
    # the normal tail on mc-grid)
    tables = workloads.design_tables(seed)
    sample = [tables[j] for j in np.random.default_rng(seed).choice(
        len(tables), size=5000, replace=False)]
    secs = 0.0
    for a, b, c, d in sample:
        secs += timed(tracer, "stattests.fisher_exact_greater",
                      fisher_exact_greater, TwoByTwoTable(a, b, c, d))[0]
    m["stattests.fisher_us"] = 1e6 * secs / len(sample)
    m["stattests.fisher_support_terms"] = sum(
        oracles.support_terms(*t) for t in tables) / len(tables)
    z = np.random.default_rng(seed).standard_normal(1000)
    m["stattests.pvalue_two_sided_us.N1000"] = 1e6 * median_time(
        tracer, "stattests.pvalue_two_sided", 500, pvalue_two_sided, z)

    # sequences: cold builds, the dependent-LORD check and a rebound
    # (setup_s everywhere, mc_reps_per_s through cold builds per worker)
    specs = {
        "jm": default_sequence(ProcedureKind.LORDPP, 0.05),
        "inverse-square": default_sequence(ProcedureKind.SAFFRON, 0.05),
        "log-power-xi": default_sequence(ProcedureKind.LORD_DEP, 0.05),
        "uniform-N1000": default_sequence(ProcedureKind.LOND_INDEP, 0.05, 1000),
        "constant-N1000": default_sequence(ProcedureKind.LORD_DEP, 0.05, 1000),
    }
    for label, spec in specs.items():
        m[f"sequences.build_table_ms.{label}"] = 1e3 * median_time(
            tracer, "sequences.build_table", 5, build_table, spec)
    xi_cfg = default_config(ProcedureKind.LORD_DEP, 0.05)
    m["sequences.validate_xi_ms"] = 1e3 * median(
        [timed(tracer, "sequences.validate_xi", validate_xi,
               build_table(xi_cfg.sequence), xi_cfg.w0, xi_cfg.b0,
               xi_cfg.alpha)[0] for _ in range(5)])
    lond_table = build_table(default_sequence(
        ProcedureKind.LOND_INDEP, 0.05, workloads.LOND_BOUND))
    m["sequences.rebound_ms"] = 1e3 * median_time(
        tracer, "sequences.rebound", 5, rebound, lond_table,
        workloads.LOND_BOUND, workloads.LOND_REBOUND)

    # procedures: run_stream per hypothesis (N100/N1000 -> mc_reps_per_s,
    # N10000 -> stream_rows_per_s and observe_p999_us), and a warm
    # make_stream over the grid's variants
    stream_p = workloads.stream_pvalues(seed)
    for n, repeats in OBSERVE_REPEATS.items():
        if n == 10_000:
            p = stream_p[:n].tolist()
        else:
            p = gen_mixture(mix[n], np.random.SeedSequence((seed, n)))[0].tolist()
        for label, kind in RULES:
            for suffix, bound in (("", None), ("-b", n)):
                cfg = default_config(kind, alpha=0.05, bound=bound)
                make_stream(cfg, length_hint=n)
                m[f"procedures.observe_us.{label}{suffix}.N{n}"] = 1e6 / n * \
                    median_time(tracer, "procedures.run_stream", repeats,
                                run_stream, cfg, p)
    n1000 = next(c for c in cells if c.name == "gaussian-N1000-pi0.2")
    grid_cfgs = [cfg for _, cfg in n1000.procs if not isinstance(cfg, str)]
    secs = []
    for _ in range(50):
        for cfg in grid_cfgs:
            secs.append(timed(tracer, "procedures.make_stream", make_stream,
                              cfg, 1000)[0])
    m["procedures.make_stream_us"] = 1e6 * median(secs)

    # procedures on the 10^5 stream: discovery counts (explain
    # observe_p999_us) and the closed-loop observe latency
    lat = np.empty(len(workloads.STREAM_RULES) * workloads.STREAM_N)
    p_list = stream_p.tolist()
    for r, (name, kind, _) in enumerate(workloads.STREAM_RULES):
        _, _, d = workloads.observe_loop(kind, p_list, lat,
                                         r * workloads.STREAM_N, tracer)
        m[f"procedures.discoveries.{name}"] = d
    samples = lat.tolist()
    m["procedures.observe_p50_us.stream"] = 1e6 * percentile(samples, 50)
    m["procedures.observe_p999_us.stream"] = 1e6 * percentile(samples, 99.9)
    m["procedures.observe_calls.stream"] = len(samples)

    # cli: per-row cost and CSV share of onfdr run (stream_rows_per_s)
    src = os.path.join(tmpdir, "layers-stream.csv")
    dst = os.path.join(tmpdir, "layers-decisions.csv")
    workloads.write_stream_csv(src, stream_p)
    for name, kind, extra in workloads.STREAM_RULES:
        argv = ["run", "--input", src, "--output", dst, "--procedure",
                kind.value, *extra]
        t_cli, code = timed(tracer, "cli.main", cli.main, argv)
        ledger.attempted += workloads.STREAM_N
        if code != 0:
            ledger.fail(workloads.STREAM_N, f"cli {name}: exit {code}")
        cfg = workloads.stream_config(kind)
        state = make_stream(cfg)
        t0 = clock()
        if kind is ProcedureKind.LOND_INDEP:
            run_stream(cfg, p_list[:workloads.LOND_BOUND], state=state)
            rebound_stream(state, cfg, workloads.LOND_REBOUND)
            run_stream(cfg, p_list[workloads.LOND_BOUND:], state=state)
        else:
            run_stream(cfg, p_list, state=state)
        t_fold = clock() - t0
        m[f"cli.run_us_per_row.{name}"] = 1e6 * t_cli / workloads.STREAM_N
        m[f"cli.io_share.{name}"] = 1.0 - t_fold / t_cli
    return m
