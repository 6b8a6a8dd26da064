"""``decide``'s levels and decisions, and those of the ``observe`` fold and
of a stream that takes turns between the two, against the rules' published
formulas under general histories, where discoveries and non-discoveries
interleave.

The formulas are the benchmark's own oracles (``bench/oracles.py``), each
read from the discovery times and, for SAFFRON, the candidates:
LORD++ (Ramdas et al., NeurIPS 2017), SAFFRON (Ramdas et al., ICML 2018),
dependent LORD (Javanmard & Montanari, Ann. Stat. 2018) and LOND after a
rebound (the bounded modification).  LORD2, LORD3, LOND in both forms,
dependent LOND and Bonferroni are written here from their formulas
(Javanmard & Montanari, Ann. Stat. 2018) over the table's coefficients,
with sums and wealth kept exact or rounded once, and ``decide_rows``'
flags are checked against the LOND and Bonferroni ones too.
"""

import math
import os
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onfdr.procedures import Decisions, ProcedureKind, check_rows, decide, \
    decide_rows, default_config, make_stream, observe, run_stream

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
from oracles import (  # noqa: E402
    close_rel,
    coefficients,
    lond_rebound_levels,
    lord_dep_levels,
    lordpp_level,
    saffron_level,
)

HORIZON = 200


@st.composite
def pvalues(draw) -> np.ndarray:
    """A stream of up to ``HORIZON`` p-values, a share of them signals of
    every magnitude down to 1e-6, so that it holds both discoveries and
    the non-discoveries between them."""
    n = draw(st.integers(1, HORIZON))
    share = draw(st.sampled_from([0.05, 0.2, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signal = rng.random(n) * 10.0 ** -rng.integers(1, 7, n)
    return np.where(rng.random(n) < share, signal, rng.random(n))


def assert_follows(got, want, p, flags=None) -> None:
    """``decide``'s levels ``got`` within ``close_rel`` of the formula's
    ``want`` at every index, and its decisions (and ``decide_rows``'
    ``flags``) those of ``want`` wherever ``p`` is not that close to it."""
    if flags is None:
        flags = got.rejected
    for i, (level, w, pv, rejected, flag) in enumerate(zip(
            got.levels.tolist(), np.asarray(want).tolist(), p.tolist(),
            got.rejected.tolist(), flags.tolist()), start=1):
        assert close_rel(level, w), f"level at {i}: {level!r}, formula {w!r}"
        if not close_rel(pv, w):
            assert rejected == flag == (pv <= w), \
                f"decision at {i}: p {pv!r}, formula level {w!r}"


def folded(config, p) -> Decisions:
    """The levels and decisions of folding ``observe`` over ``p``."""
    recs = run_stream(config, p)
    return Decisions(np.array([r.level for r in recs]),
                     np.array([r.rejected for r in recs]), None)


def interleaved(config, p) -> Decisions:
    """The levels and decisions of one stream decided in turns: one
    ``observe`` step, then a ``decide`` call on the next 1, 2, 3, ...
    hypotheses, and so on."""
    state, levels, rejected = make_stream(config), [], []
    a, size = 0, 1
    while a < len(p):
        rec = observe(state, p[a], config)
        levels.append(rec.level)
        rejected.append(rec.rejected)
        got = decide(config, p[a + 1:a + 1 + size], state)
        levels += got.levels.tolist()
        rejected += got.rejected.tolist()
        a, size = a + 1 + size, size + 1
    return Decisions(np.array(levels), np.array(rejected), None)


def assert_paths_follow(config, p, want, flags=None) -> None:
    """``decide``, the fold and the interleaved stream all follow ``want``
    (from ``decide``'s decisions, which the other two share)."""
    got = decide(config, p)
    assert_follows(got, want, p, flags)
    for other in (folded(config, p), interleaved(config, p)):
        assert other.rejected.tolist() == got.rejected.tolist()
        assert_follows(other, want, p)


def lord_levels(config, rejected) -> list[float]:
    """LORD2's and LORD3's level at every index, given the discovery times
    ``tau_1 < tau_2 < ...`` that ``rejected`` marks:
    - LORD2: ``gamma_i w0 + b0 sum_{tau_j < i} gamma_{i - tau_j}``, the sum
      rounded once (``math.fsum``);
    - LORD3: ``gamma_{i - tau} W(tau)``, ``tau`` the last discovery before
      ``i`` (0 if none) and ``W(t) = W(t - 1) - alpha_t + b0 R_t`` the
      wealth after hypothesis ``t``, ``W(0) = w0``, kept exactly."""
    gamma = coefficients(config, len(rejected))
    w0, b0 = Fraction(config.w0), Fraction(config.b0)
    levels, tau, wealth, last, at_last = [], [], w0, 0, w0
    for i, rej in enumerate(rejected.tolist(), start=1):
        if config.kind is ProcedureKind.LORD2:
            paid = math.fsum(gamma[i - np.array(tau, dtype=int)])
            level = Fraction(float(gamma[i])) * w0 + b0 * Fraction(paid)
        else:
            level = Fraction(float(gamma[i - last])) * at_last
        levels.append(float(level))
        wealth -= level
        if rej:
            tau.append(i)
            wealth += b0
            last, at_last = i, wealth
    return levels


def published_levels(config, p, rejected) -> list[float]:
    """The level at every index from the rule's formula, given the
    discovery times ``rejected`` marks."""
    n = len(p)
    if config.kind in (ProcedureKind.LORD2, ProcedureKind.LORD3):
        return lord_levels(config, rejected)
    gamma = coefficients(config, n)
    tau = np.nonzero(rejected)[0] + 1
    if config.kind is ProcedureKind.LORDPP:
        return [lordpp_level(gamma, config, tau, i) for i in range(1, n + 1)]
    if config.kind is ProcedureKind.SAFFRON:
        cand_cum = np.concatenate([[0], np.cumsum(p <= config.lam)])
        return [saffron_level(gamma, config, tau, cand_cum, i)
                for i in range(1, n + 1)]
    return lord_dep_levels(gamma, config, p)[0].tolist()


@pytest.mark.parametrize("bound", [None, HORIZON], ids=["unbounded", "bounded"])
@pytest.mark.parametrize("kind", [ProcedureKind.LORD2, ProcedureKind.LORD3,
                                  ProcedureKind.LORDPP, ProcedureKind.SAFFRON,
                                  ProcedureKind.LORD_DEP], ids=lambda k: k.value)
@settings(max_examples=40, deadline=None)
@given(p=pvalues())
def test_decide_follows_the_published_formula(kind, bound, p):
    config = default_config(kind, bound=bound)
    assert_paths_follow(config, p, published_levels(
        config, p, decide(config, p).rejected))


def beta_levels(config, rejected) -> list[float]:
    """The level at every index of the rules that scale their coefficient
    ``beta_i`` by the discoveries ``D(i-1)`` before it:
    - LOND: ``beta_i (D(i-1) + 1)``; in its original form
      ``beta_i max(D(i-1), 1)``;
    - dependent LOND: the same with ``beta_i / sum_{j <= i} 1/j`` for
      ``beta_i``, the harmonic sum taken exactly;
    - Bonferroni: ``beta_i``, whatever was discovered."""
    n = len(rejected)
    beta = coefficients(config, n)
    levels, d, harmonic = [], 0, Fraction(0)
    for i, rej in enumerate(rejected.tolist(), start=1):
        harmonic += Fraction(1, i)
        b = Fraction(float(beta[i]))
        if config.kind is ProcedureKind.LOND_DEP:
            b /= harmonic
        if config.kind is ProcedureKind.BONFERRONI:
            levels.append(float(b))
        else:
            levels.append(float(b * (max(d, 1) if config.lond_original
                                     else d + 1)))
        d += rej
    return levels


BETA_RULES = {
    "lond": (ProcedureKind.LOND_INDEP, False),
    "lond-original": (ProcedureKind.LOND_INDEP, True),
    "lond-dep": (ProcedureKind.LOND_DEP, False),
    "lond-dep-original": (ProcedureKind.LOND_DEP, True),
    "bonferroni": (ProcedureKind.BONFERRONI, False),
}


@pytest.mark.parametrize("bound", [None, HORIZON], ids=["unbounded", "bounded"])
@pytest.mark.parametrize("rule", list(BETA_RULES))
@settings(max_examples=40, deadline=None)
@given(p=pvalues())
def test_lond_and_bonferroni_follow_their_formulas(rule, bound, p):
    kind, original = BETA_RULES[rule]
    config = default_config(kind, bound=bound, lond_original=original)
    assert_paths_follow(config, p,
                        beta_levels(config, decide(config, p).rejected),
                        decide_rows(config, check_rows([p]))[0])


@settings(max_examples=40, deadline=None)
@given(p=pvalues(), data=st.data())
def test_lond_after_a_rebound_follows_its_formula(p, data):
    # a config bounded at HORIZON / 2 and rebound to HORIZON after ``at``
    # hypotheses, against the benchmark's formula on the rebound table
    at = data.draw(st.integers(0, HORIZON // 2), label="at")
    base = default_config(ProcedureKind.LOND_INDEP, bound=HORIZON // 2)
    config = replace(base, sequence=base.sequence.rebounded(at, HORIZON))
    assert_paths_follow(config, p, lond_rebound_levels(
        base, decide(config, p).rejected, at, HORIZON),
        decide_rows(config, check_rows([p]))[0])
