"""Reference values the output checks compare against.

Each oracle recomputes a result by a path that does not go through the
code it checks: exact p-values by integer arithmetic, stream levels from
the closed forms over the recorded discovery times (coefficients still come
from ``onfdr.sequences``), offline rules from their definitions, and Monte
Carlo estimates by re-composing each replicate serially from the public
generator, rule and scoring functions.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from onfdr import baselines
from onfdr.procedures import ProcedureConfig, run_stream
from onfdr.scenarios import MixtureScenario, gen_mixture, gen_platform
from onfdr.sequences import build_table, rebound

REL_TOL = 1e-12
ABS_TOL = 1e-12


def close_rel(a: float, b: float, tol: float = REL_TOL) -> bool:
    return a == b or abs(a - b) <= tol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# exact test
# ---------------------------------------------------------------------------

def fisher_greater(a: int, b: int, c: int, d: int) -> float:
    """P(X >= a) for the hypergeometric law with the table's margins, in
    exact rational arithmetic; degenerate margins give 1."""
    r1, r2, k = a + b, c + d, a + c
    if r1 == 0 or r2 == 0 or k == 0 or b + d == 0:
        return 1.0
    hi = min(k, r1)
    num = sum(math.comb(r1, x) * math.comb(r2, k - x) for x in range(a, hi + 1))
    return float(Fraction(num, math.comb(r1 + r2, k)))


def support_terms(a: int, b: int, c: int, d: int) -> int:
    """Point masses the one-sided exact test sums for this table (0 when
    the answer needs no summation)."""
    r1, r2, k = a + b, c + d, a + c
    if r1 == 0 or r2 == 0 or k == 0 or b + d == 0:
        return 0
    lo, hi = max(0, k - r2), min(k, r1)
    if a > hi or a <= lo:
        return 0
    return hi - a + 1


# ---------------------------------------------------------------------------
# stream levels
# ---------------------------------------------------------------------------

def coefficients(config: ProcedureConfig, n: int) -> np.ndarray:
    """1-based coefficient vector (index 0 unused) of the config's sequence."""
    table = build_table(config.sequence, length_hint=n)
    return np.concatenate([[np.nan], table.head(n)])


def lordpp_level(gamma, config, tau, i: int) -> float:
    """LORD++ level at ``i`` given all discovery times ``tau`` (sorted)."""
    prior = tau[tau < i]
    level = config.w0 * gamma[i]
    if prior.size:
        level += (config.alpha - config.w0) * gamma[i - prior[0]]
        level += config.alpha * float(gamma[i - prior[1:]].sum())
    return level


def saffron_level(gamma, config, tau, cand_cum, i: int) -> float:
    """SAFFRON level at ``i``; ``cand_cum[t]`` counts candidates among the
    first ``t`` p-values (``cand_cum[0] == 0``)."""
    lam, alpha, w0 = config.lam, config.alpha, config.w0
    prior = tau[tau < i]
    clock = i - cand_cum[i - 1]
    tilde = w0 * gamma[clock]
    if prior.size:
        gaps = clock - (prior - cand_cum[prior])
        tilde += ((1 - lam) * alpha - w0) * gamma[gaps[0]]
        tilde += (1 - lam) * alpha * float(gamma[gaps[1:]].sum())
    return min(lam, tilde)


def lord_dep_levels(xi, config, p) -> tuple[np.ndarray, np.ndarray]:
    """Levels and decisions of dependent LORD: ``xi_i`` times the wealth
    left at the last discovery."""
    wealth = wealth_at = config.w0
    levels = np.empty(len(p))
    rejected = np.empty(len(p), dtype=bool)
    for i, pv in enumerate(p.tolist(), start=1):
        level = xi[i] * wealth_at
        rej = pv <= level
        wealth += (config.b0 if rej else 0.0) - level
        if rej:
            wealth_at = wealth
        levels[i - 1], rejected[i - 1] = level, rej
    return levels, rejected


def lond_rebound_levels(config, rejected, at: int, new_bound: int) -> np.ndarray:
    """LOND levels ``beta_i (D(i-1) + 1)`` with the bounded table re-spread
    onto ``new_bound`` after ``at`` hypotheses."""
    table = rebound(build_table(config.sequence), at, new_bound)
    beta = table.head(len(rejected))
    prior = np.concatenate([[0], np.cumsum(rejected)[:-1]])
    return beta * (prior + 1)


# ---------------------------------------------------------------------------
# offline rules and Monte Carlo re-composition
# ---------------------------------------------------------------------------

def bh_count(p, alpha: float) -> np.ndarray:
    """Step-up rejections by definition: reject every p at or below the
    largest order statistic with ``p_(i) <= i alpha / n``."""
    p = np.asarray(p, dtype=float)
    n = p.size
    ordered = np.sort(p)
    ok = [i for i in range(1, n + 1) if ordered[i - 1] <= i * alpha / n]
    if not ok:
        return np.zeros(n, dtype=bool)
    return p <= ordered[ok[-1] - 1]


def generate(scenario, seed: int, rep: int):
    ss = np.random.SeedSequence((seed, rep))
    if isinstance(scenario, MixtureScenario):
        return gen_mixture(scenario, ss)
    return gen_platform(scenario, ss)


def decide(proc, p, alpha: float) -> list[bool]:
    if isinstance(proc, str):
        rule = {"bh": baselines.bh, "uncorrected": baselines.uncorrected,
                "bh-adjusted": baselines.bh_adjusted}[proc]
        res = rule(p, alpha)
        return [j + 1 in res.rejected_indices for j in range(len(p))]
    return [r.rejected for r in run_stream(proc, p)]


def mean_estimates(fdps, powers) -> list[tuple[float, float | None]]:
    """Per-rule (mean FDP, mean power over replicates with non-nulls)."""
    out = []
    for c in range(len(fdps[0])):
        f = [row[c] for row in fdps]
        w = [row[c] for row in powers if row[c] is not None]
        out.append((float(np.mean(f)), float(np.mean(w)) if w else None))
    return out


def recompose(scenario, procs, seed: int, reps: int, tracer):
    """Per-rule (FDR, power) of ``estimate_many(procs, scenario, reps,
    seed)`` re-composed serially, one span per call into the package."""
    alpha = getattr(scenario, "alpha", 0.05)
    gen_name = ("scenarios.gen_mixture" if isinstance(scenario, MixtureScenario)
                else "scenarios.gen_platform")
    fdps, powers = [], []
    for rep in range(reps):
        with tracer.span("bench.replicate"):
            with tracer.span(gen_name):
                p, truth = generate(scenario, seed, rep)
            truth_list = truth.tolist()
            row_f, row_w = [], []
            for _, proc in procs:
                name = ("baselines." + proc if isinstance(proc, str)
                        else "procedures.run_stream")
                with tracer.span(name):
                    decisions = decide(proc, p, alpha)
                with tracer.span("baselines.score"):
                    fdp, power = baselines.score(decisions, truth_list)
                row_f.append(fdp)
                row_w.append(power)
        fdps.append(row_f)
        powers.append(row_w)
    return mean_estimates(fdps, powers)
