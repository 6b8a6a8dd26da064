"""``decide``'s levels and decisions against the rules' published formulas
under general histories, where discoveries and non-discoveries interleave.

The formulas are the benchmark's own oracles (``bench/oracles.py``), each
read from the discovery times and, for SAFFRON, the candidates:
LORD++ (Ramdas et al., NeurIPS 2017), SAFFRON (Ramdas et al., ICML 2018)
and dependent LORD (Javanmard & Montanari, Ann. Stat. 2018).
"""

import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onfdr.procedures import ProcedureKind, decide, default_config

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
from oracles import (  # noqa: E402
    close_rel,
    coefficients,
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


def published_levels(config, p, rejected) -> list[float]:
    """The level at every index from the rule's formula, given the
    discovery times ``rejected`` marks."""
    n = len(p)
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
@pytest.mark.parametrize("kind", [ProcedureKind.LORDPP, ProcedureKind.SAFFRON,
                                  ProcedureKind.LORD_DEP], ids=lambda k: k.value)
@settings(max_examples=40, deadline=None)
@given(p=pvalues())
def test_decide_follows_the_published_formula(kind, bound, p):
    config = default_config(kind, bound=bound)
    got = decide(config, p)
    want = published_levels(config, p, got.rejected)
    for i, (level, w, pv, rejected) in enumerate(zip(
            got.levels.tolist(), want, p.tolist(), got.rejected.tolist()),
            start=1):
        assert close_rel(level, w), f"level at {i}: {level!r}, formula {w!r}"
        if not close_rel(pv, w):
            assert rejected == (pv <= w), \
                f"decision at {i}: p {pv!r}, formula level {w!r}"
