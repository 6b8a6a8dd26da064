"""Per-step guarantees of the online rules, checked at every hypothesis of a
stream rather than as Monte Carlo averages.

- Running FDP-hat (Ramdas et al., NeurIPS 2017, GAI++): the levels spent
  through t, over max(R_t, 1), stay within alpha for LORD2, LORD3, LORD++
  and Bonferroni.  SAFFRON is held to its own estimator, which counts only
  the levels of hypotheses that are not candidates (p > lambda), scaled by
  1 / (1 - lambda) (Ramdas et al., ICML 2018).
- Budget: a bounded stream of p-values 1.0, rebound part way and run to
  its new horizon, spends its whole budget, w0 for LORD2, LORD3, LORD++
  and SAFFRON and alpha for Bonferroni and LOND, before and after the
  rebound together.  Dependent LOND divides by a running harmonic sum, so
  it does not spend its budget exactly; dependent LORD's xi sequence meets
  a log-weighted constraint, not a sum.
- Wealth: for LORD3 and dependent LORD the wealth after t is the account
  w0 - sum(levels) + b0 R_t.  LORD3's wealth never falls below zero.
  Dependent LORD's may: its guarantee is the xi budget inequality, not its
  wealth, and its default unbounded xi sequence sums past 1 (5000 p-values
  of 1.0 leave its wealth at -0.0103).

LOND is not covered: with its ``D + 1`` multiplier the running FDP-hat
reached 1.93 alpha on bounded gaussian-mixture streams.

Every check runs on ``decide`` and on the ``observe`` fold, neither taken
as the other's oracle, on unbounded streams, on bounded ones and on bounded
ones rebound part way.

Tolerance.  The levels are products and sums of doubles, and the checks sum
up to 120 of them again, each step rounding by at most u = 2**-53
relative; both sides of a check then lie within a few hundred u (under
1e-13) of their exact values, so the bounds are checked at 1e-12 relative.
A bounded stream that spends its whole budget reaches alpha exactly in
exact arithmetic (Bonferroni's N levels alpha / N) and may round just
above it.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onfdr.procedures import (
    ProcedureKind,
    decide,
    default_config,
    make_stream,
    rebound_stream,
    run_stream,
)

RTOL = 1e-12
FDP_KINDS = [ProcedureKind.LORD2, ProcedureKind.LORD3, ProcedureKind.LORDPP,
             ProcedureKind.SAFFRON, ProcedureKind.BONFERRONI]
WEALTH_KINDS = [ProcedureKind.LORD3, ProcedureKind.LORD_DEP]
PATHS = ["decide", "fold"]


@st.composite
def streams(draw):
    """(alpha, p-values, bound, cut, new bound): the stream is decided up to
    ``cut``, rebound to ``new bound`` if that is not None, then decided to
    its end."""
    alpha = draw(st.sampled_from([0.05, 0.1, 0.2]))
    p = draw(st.lists(st.one_of(
        st.sampled_from([0.0, 1e-6, 1e-3, 0.02, 0.3, 0.5, 0.9, 1.0]),
        st.floats(0.0, 1.0)), min_size=1, max_size=120))
    n = len(p)
    shape = draw(st.sampled_from(["unbounded", "bounded", "rebound"]))
    if shape == "unbounded":
        return alpha, p, None, n, None
    if shape == "bounded":
        return alpha, p, draw(st.integers(max(n, 2), n + 20)), n, None
    bound = draw(st.integers(2, n + 20))
    cut = draw(st.integers(0, min(bound, n)))
    new_bound = draw(st.integers(max(cut + 1, n), 2 * n + 20)) \
        if cut < n else None
    return alpha, p, bound, cut, new_bound


def decisions(kind, stream, path):
    """The config, and the levels, rejection flags and wealth (None for the
    rules that keep none) of ``stream`` through ``decide`` or the fold."""
    alpha, p, bound, cut, new_bound = stream
    cfg = default_config(kind, alpha=alpha, bound=bound)
    state = make_stream(cfg)

    def run(piece):
        if path == "decide":
            return decide(cfg, piece, state)
        recs = run_stream(cfg, piece, state=state)
        return ([r.level for r in recs], [r.rejected for r in recs],
                [r.wealth_after for r in recs])

    runs = [run(p[:cut])]
    if new_bound is not None:
        rebound_stream(state, cfg, new_bound)
    runs.append(run(p[cut:]))
    def joined(j, dtype):
        return np.concatenate([np.asarray(r[j], dtype=dtype) for r in runs])

    wealth = joined(2, float) if kind in WEALTH_KINDS else None
    return cfg, joined(0, float), joined(1, bool), wealth


def fdp_hat(cfg, p, levels, rejected):
    """The running FDP-hat after each hypothesis (SAFFRON's own estimator
    for SAFFRON)."""
    spent = levels
    if cfg.kind is ProcedureKind.SAFFRON:
        spent = np.where(np.asarray(p) > cfg.lam, levels, 0.0) / (1 - cfg.lam)
    return np.cumsum(spent) / np.maximum(np.cumsum(rejected), 1)


# one discovery, then no more up to the horizon: the whole budget is spent
# on one discovery's payout
SPENT_ON_ONE = (0.05, [0.0] + [1.0] * 39, 40, 40, None)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("kind", FDP_KINDS)
@settings(max_examples=40, deadline=None)
@given(stream=streams())
@example(stream=SPENT_ON_ONE)
def test_running_fdp_hat_within_alpha(kind, path, stream):
    cfg, levels, rejected, _ = decisions(kind, stream, path)
    worst = fdp_hat(cfg, stream[1], levels, rejected).max()
    assert worst <= cfg.alpha * (1 + RTOL)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("kind", WEALTH_KINDS)
@settings(max_examples=40, deadline=None)
@given(stream=streams())
@example(stream=SPENT_ON_ONE)
def test_wealth_is_the_budget_account(kind, path, stream):
    cfg, levels, rejected, wealth = decisions(kind, stream, path)
    earned = cfg.w0 + cfg.b0 * np.cumsum(rejected)
    account = earned - np.cumsum(levels)
    # relative to what the stream has earned: the wealth itself may be 0
    assert np.all(np.abs(wealth - account) <= RTOL * earned)
    if kind is ProcedureKind.LORD3:
        assert np.all(wealth >= -RTOL * earned)


# (n, N, N'): n hypotheses of a stream bounded at N, then rebound to N'
REBOUNDS = [(40, 100, 250), (1, 5, 7), (99, 100, 1000), (0, 10, 11),
            (500, 2000, 2001)]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("kind", [
    ProcedureKind.LORD2, ProcedureKind.LORD3, ProcedureKind.LORDPP,
    ProcedureKind.SAFFRON, ProcedureKind.BONFERRONI, ProcedureKind.LOND_INDEP])
@pytest.mark.parametrize("cut, bound, new_bound", REBOUNDS)
def test_rebound_spends_the_whole_budget(kind, path, cut, bound, new_bound):
    stream = (0.05, [1.0] * new_bound, bound, cut, new_bound)
    cfg, levels, rejected, _ = decisions(kind, stream, path)
    assert not rejected.any()
    budget = cfg.alpha if kind in (ProcedureKind.BONFERRONI,
                                   ProcedureKind.LOND_INDEP) else cfg.w0
    assert math.fsum(levels) == pytest.approx(budget, rel=RTOL, abs=0)
