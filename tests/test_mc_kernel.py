"""The row-batched kernel of the Monte Carlo harness: ``decide_rows`` gives
every row the flags ``decide`` gives it, and estimates do not depend on the
worker count."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onfdr import procedures
from onfdr.procedures import (
    ConfigError,
    HorizonExhaustedError,
    ProcedureKind,
    check_rows,
    decide,
    decide_rows,
    default_config,
    make_stream,
    next_level,
    observe,
)
from onfdr.scenarios import (
    MixtureScenario,
    PlatformTrialScenario,
    estimate_many,
)

ALL_KINDS = list(ProcedureKind)
PAYOUT_KINDS = [ProcedureKind.LORD2, ProcedureKind.LORDPP,
                ProcedureKind.SAFFRON]
LOND_KINDS = [ProcedureKind.LOND_INDEP, ProcedureKind.LOND_DEP]


def config_of(kind, n, bounded, lond_original=False):
    extra = {"lond_original": True} if lond_original else {}
    cfg = default_config(kind, alpha=0.05, bound=n if bounded else None,
                         **extra)
    make_stream(cfg)   # a refused config raises here
    return cfg


def assert_rows_are_decides(cfg, p):
    got = decide_rows(cfg, p)
    assert got.shape == p.shape and got.dtype == bool
    for r, row in enumerate(p):
        np.testing.assert_array_equal(got[r], decide(cfg, row).rejected,
                                      err_msg=f"row {r}")


@st.composite
def matrices(draw, max_rows=6, max_n=300):
    """Rows of a mixture of tiny and uniform p-values, each with its own
    share of tiny ones, and rows with no or only discoveries."""
    n = draw(st.integers(1, max_n), label="n")
    rows = draw(st.integers(1, max_rows), label="rows")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    share = rng.random((rows, 1)) ** 2
    tiny = rng.random((rows, n)) < share
    p = np.where(tiny, rng.random((rows, n)) * 10.0 ** -rng.integers(2, 9),
                 rng.random((rows, n)))
    extremes = draw(st.sampled_from(["none", "zeros", "ones", "both"]),
                    label="extremes")
    if extremes in ("zeros", "both"):
        p[0] = 0.0   # every hypothesis a discovery
    if extremes in ("ones", "both"):
        p[-1] = 1.0  # no discovery
    return check_rows(p)


class TestDecideRows:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(ALL_KINDS), bounded=st.booleans(),
           p=matrices())
    @example(kind=ProcedureKind.LORD_DEP, bounded=True,
             p=check_rows([[0.5]]))
    def test_rows_equal_decide(self, kind, bounded, p):
        n = p.shape[1]
        if kind is ProcedureKind.LORD_DEP and bounded and n == 1:
            # xi_1 = alpha / b0 > 1: refused. A skip here would skip every
            # other example of the run with it.
            with pytest.raises(ConfigError, match="leading coefficient"):
                config_of(kind, n, bounded)
            return
        assert_rows_are_decides(config_of(kind, n, bounded), p)

    @settings(max_examples=15, deadline=None)
    @given(kind=st.sampled_from(LOND_KINDS), bounded=st.booleans(),
           p=matrices())
    def test_lond_original(self, kind, bounded, p):
        assert_rows_are_decides(
            config_of(kind, p.shape[1], bounded, lond_original=True), p)

    @pytest.mark.parametrize("kind", LOND_KINDS)
    @pytest.mark.parametrize("bounded", [False, True])
    @pytest.mark.parametrize("lond_original", [False, True])
    def test_lond_chain_sets_every_rows_window(self, kind, bounded,
                                               lond_original):
        # each p-value of the chain row is its level under every earlier
        # discovery, so each pass over the batch finds about one of them
        # and the window shared by every row creeps along the chain
        n = 300
        cfg = config_of(kind, n, bounded, lond_original)
        state, chain = make_stream(cfg), []
        for _ in range(n):
            chain.append(next_level(state, cfg))
            observe(state, chain[-1], cfg)
        assert decide(cfg, chain).levels.tolist() == chain
        rng = np.random.default_rng(11)
        mixtures = np.where(rng.random((4, n)) < rng.random((4, 1)),
                            rng.random((4, n)) * 1e-3, rng.random((4, n)))
        p = check_rows([chain, np.zeros(n), np.ones(n), *mixtures])
        got = decide_rows(cfg, p)
        assert got[0].all() and got[1].all() and not got[2].any()
        assert_rows_are_decides(cfg, p)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("bounded", [False, True])
    @pytest.mark.parametrize("rows", [1, 40])
    def test_simulation_rows(self, kind, bounded, rows):
        # long rows of the simulation study: several payout blocks, many
        # discoveries, SAFFRON's candidate runs
        rng = np.random.default_rng(rows)
        n = 700
        nonnull = rng.random((rows, n)) < rng.random((rows, 1))
        z = np.where(nonnull, rng.normal(0.0, 3.6, (rows, n)), 0.0) \
            + rng.standard_normal((rows, n))
        p = check_rows(np.minimum(1.0, 2.0 * rng.random((rows, n)) ** 2
                                  * np.exp(-z * z / 2)))
        assert_rows_are_decides(config_of(kind, n, bounded), p)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_and_no_discovery(self, kind):
        p = check_rows([[0.0] * 150, [1.0] * 150])
        got = decide_rows(config_of(kind, 150, False), p)
        assert got[0].all() and not got[1].any()

    @pytest.mark.parametrize("bounded", [False, True])
    def test_saffron_discoveries_sharing_a_clock(self, bounded):
        # three discoveries on the first clock, then non-candidates: the
        # two later ones pay the far clocks twice over, and a p-value just
        # under decide's level far down the row is a discovery only so
        n = 700
        cfg = config_of(ProcedureKind.SAFFRON, n, bounded)
        rows = []
        for probe in (100, 300, 650):
            row = np.ones(n)
            row[:3] = 0.0
            row[probe] = decide(cfg, row).levels[probe] * (1 - 1e-9)
            rows.append(row)
        p = check_rows(rows)
        assert decide_rows(cfg, p)[[0, 1, 2], [100, 300, 650]].all()
        assert_rows_are_decides(cfg, p)

    def test_empty_rows(self):
        cfg = config_of(ProcedureKind.SAFFRON, 10, False)
        assert decide_rows(cfg, check_rows(np.empty((3, 0)))).shape == (3, 0)

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(PAYOUT_KINDS), bounded=st.booleans(),
           data=st.data())
    def test_ties_at_decides_level_fall_back(self, kind, bounded, data):
        # a p-value at decide's level or one ulp either side is closer to
        # the kernel's level than the rounding bound: that row is decided
        # again by decide, and the flags are still decide's
        n = data.draw(st.integers(2, 200), label="n")
        cfg = config_of(kind, n, bounded)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        p = np.where(rng.random((3, n)) < 0.3, rng.random((3, n)) * 1e-4,
                     rng.random((3, n)))
        i = data.draw(st.integers(0, n - 1), label="i")
        level = decide(cfg, p[1]).levels[i]
        p[1, i] = data.draw(st.sampled_from(
            [level, math.nextafter(level, 0.0), math.nextafter(level, 1.0)]))
        calls = []

        def counting(config, pvalues, state=None):
            calls.append(1)
            return decide(config, pvalues, state)

        original = procedures.decide
        procedures.decide = counting
        try:
            got = decide_rows(cfg, check_rows(p))
        finally:
            procedures.decide = original
        assert calls
        for r in range(3):
            np.testing.assert_array_equal(got[r], decide(cfg, p[r]).rejected)

    def test_horizon(self):
        cfg = config_of(ProcedureKind.LORDPP, 5, True)
        with pytest.raises(HorizonExhaustedError,
                           match=r"at stream index 6: horizon N=5 exhausted"):
            decide_rows(cfg, check_rows(np.full((2, 6), 0.5)))
        assert decide_rows(cfg, check_rows(np.full((2, 5), 0.5))).shape == (2, 5)

    def test_refused_config(self):
        cfg = default_config(ProcedureKind.LORD_DEP, alpha=0.05, bound=1)
        with pytest.raises(ConfigError, match="leading coefficient"):
            decide_rows(cfg, check_rows([[0.5]]))

    def test_check_rows(self):
        with pytest.raises(ValueError, match=r"row 1, at stream index 3: "
                           r"p-value must lie in \[0, 1\], got nan"):
            check_rows([[0.1, 0.2, 0.3], [0.1, 0.2, float("nan")]])
        with pytest.raises(ValueError, match="matrix"):
            check_rows([0.1, 0.2])
        assert check_rows([[0, 1]]).dtype == np.float64

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5,
                                     np.nextafter(1.0, 2.0), -5e-324,
                                     float("inf"), float("-inf")])
    def test_check_rows_refuses(self, bad):
        p = np.full((3, 4), 0.5)
        p[2, 1] = p[2, 3] = bad
        with pytest.raises(ValueError, match=re.escape(
                f"row 2, at stream index 2: p-value must lie in [0, 1], "
                f"got {float(bad)!r}")):
            check_rows(p)


SIM_PROCS = [k.value for k in ProcedureKind] + ["bh", "bh-adjusted",
                                                "uncorrected"]


@pytest.mark.parametrize("scenario", [
    MixtureScenario(N=40, pi1=0.3, rho=0.5),
    PlatformTrialScenario(K=25, pi=0.3, alpha=0.1)], ids=["gaussian", "platform"])
@pytest.mark.parametrize("bounded", [False, True])
def test_estimates_independent_of_workers(monkeypatch, scenario, bounded):
    n = getattr(scenario, "N", None) or scenario.K
    procs = [(name, name) if name in ("bh", "bh-adjusted", "uncorrected")
             else (name, default_config(ProcedureKind(name),
                                        alpha=scenario.alpha,
                                        bound=n if bounded else None))
             for name in SIM_PROCS]
    results = []
    for threads in ("1", "2"):
        monkeypatch.setenv("ONFDR_THREADS", threads)
        results.append(estimate_many(procs, scenario, reps=70, seed=8))
    assert results[0] == results[1]
    assert [r.label for r in results[0]] == SIM_PROCS
