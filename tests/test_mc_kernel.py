"""The row-batched kernel of the Monte Carlo harness: ``decide_rows`` gives
every row the flags ``decide`` gives it, and estimates do not depend on the
worker count."""

import dataclasses
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
    decide_stack,
    default_config,
    make_stream,
    next_level,
    observe,
    rebound_stream,
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


def rows_and_fallbacks(configs, p):
    """``decide_stack``'s flags of each config, and the (config, row) of
    each call it made to ``decide``: the rows it left to ``decide``."""
    calls = []

    def counting(config, pvalues, state=None):
        calls.append((config, pvalues))
        return decide(config, pvalues, state)

    original, procedures.decide = procedures.decide, counting
    try:
        return decide_stack(configs, p), calls
    finally:
        procedures.decide = original


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


FAMILIES = [[ProcedureKind.LORD3, ProcedureKind.LORD_DEP],
            [ProcedureKind.LORD2, ProcedureKind.LORDPP],
            [ProcedureKind.SAFFRON],
            [ProcedureKind.LOND_INDEP, ProcedureKind.LOND_DEP,
             ProcedureKind.BONFERRONI]]


@st.composite
def stacks(draw):
    """1-4 configs of one family (the last group: the rules decided per
    config) as (kind, alpha, parameters, bounded, rebound) recipes: their
    own alpha, w0, b0 and lambda, the payout weights at the edges of
    ``test_simulation_rows`` among them, and bounded, unbounded and rebound
    tables; ``rebound`` is (share of the row before it, horizon added)."""
    family = draw(st.sampled_from(FAMILIES), label="family")
    recipes = []
    for _ in range(draw(st.integers(1, 4), label="configs")):
        kind = draw(st.sampled_from(family))
        alpha = draw(st.sampled_from([0.05, 0.1, 0.2]))
        share = st.sampled_from([0.0, 0.25, 0.5, 1.0])
        params = {}
        if kind in (ProcedureKind.LORD2, ProcedureKind.LORD3,
                    ProcedureKind.LORD_DEP):
            # b0 = alpha: w0 = 0; dependent LORD refuses a small b0 at once
            b0 = draw(st.sampled_from([0.5, 1.0] if kind is
                                      ProcedureKind.LORD_DEP else [0.25, 0.5, 1.0]))
            params = dict(w0=alpha * (1 - b0) * draw(share), b0=alpha * b0)
        elif kind is ProcedureKind.LORDPP:
            params = dict(w0=alpha * draw(share))   # first weight 0 at w0 = alpha
        elif kind is ProcedureKind.SAFFRON:
            lam = draw(st.sampled_from([0.1, 0.5, 0.9]))
            params = dict(lam=lam, w0=(1 - lam) * alpha
                          * draw(st.sampled_from([0.0, 0.5, 0.99])))
        bounded = draw(st.booleans())
        rebound = draw(st.none() | st.tuples(st.floats(0, 1), st.integers(0, 300))) \
            if bounded else None
        recipes.append((kind, alpha, params, bounded, rebound))
    return recipes


class TestDecideRows:
    @settings(max_examples=40, deadline=None)
    @given(stack=stacks(), p=matrices())
    @example(stack=[(ProcedureKind.LORD_DEP, 0.05, {}, True, None)],
             p=check_rows([[0.5]]))
    # horizon one refused, but rebound before its first hypothesis: accepted
    @example(stack=[(ProcedureKind.LORD_DEP, 0.05, {"w0": 0.0, "b0": 0.025},
                     True, (0.0, 1))],
             p=check_rows([[0.00041]]))
    def test_rows_equal_decide(self, stack, p):
        # a stack of configs of one family, each row of each config equal
        # to decide under that config
        n = p.shape[1]
        configs, references = [], []
        for kind, alpha, params, bounded, rebound in stack:
            cfg = default_config(kind, alpha, bound=n if bounded else None,
                                 **params)
            if rebound is None:
                configs.append(cfg)
                references.append(lambda row, cfg=cfg: decide(cfg, row).rejected)
                continue
            # a config rebound after ``at`` hypotheses: each row is decided
            # to ``at``, rebound and decided on, with no code of its own
            at = round(rebound[0] * n)
            new_bound = max(n, at + 1) + rebound[1]
            rebounded = dataclasses.replace(
                cfg, sequence=cfg.sequence.rebounded(at, new_bound))
            configs.append(rebounded)
            if at == 0:
                # nothing is decided under the first table, so the stream
                # (and a refusal) follows the rebound one alone
                references.append(
                    lambda row, cfg=rebounded: decide(cfg, row).rejected)
                continue

            def chain(row, cfg=cfg, at=at, new_bound=new_bound):
                state = make_stream(cfg)
                head = decide(cfg, row[:at], state).rejected
                rebound_stream(state, cfg, new_bound)
                return np.concatenate([head, decide(cfg, row[at:], state).rejected])

            references.append(chain)
        refusals = []
        for cfg in configs:
            try:
                make_stream(cfg)
            except ConfigError as exc:
                refusals.append(str(exc))
        if refusals:
            # dependent LORD's xi_1 = alpha / b0 > 1 at a short horizon: the
            # stack is refused as its first refused config is. A skip here
            # would skip every other example of the run with it.
            with pytest.raises(ConfigError, match=re.escape(refusals[0])):
                decide_stack(configs, p)
            return
        got = decide_stack(configs, p)
        assert len(got) == len(configs)
        for b, (flags, reference) in enumerate(zip(got, references)):
            assert flags.shape == p.shape and flags.dtype == bool
            for r, row in enumerate(p):
                np.testing.assert_array_equal(flags[r], reference(row),
                                              err_msg=f"config {b}, row {r}")

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
        cfg = config_of(kind, n, bounded)
        # also the payout weights at their edges: LORD++'s first weight 0
        # (w0 = alpha) or equal to the later one (w0 = 0), SAFFRON's and
        # LORD2's w0 = 0
        edges = {ProcedureKind.LORD2: [dict(w0=0.0, b0=0.05)],
                 ProcedureKind.LORDPP: [dict(w0=0.05), dict(w0=0.0)],
                 ProcedureKind.SAFFRON: [dict(w0=0.0)]}.get(kind, [])
        configs = [cfg] + [dataclasses.replace(cfg, **w) for w in edges]
        # each alone, then all of them stacked with the other horizon's
        # table: the kernel certifies ordinary rows, stacked or not (a
        # kernel that left every row to decide would still give decide's
        # flags)
        stack = configs + [config_of(kind, n, not bounded)]
        for group in [[cfg] for cfg in configs] + [stack]:
            got, fallbacks = rows_and_fallbacks(group, p)
            assert fallbacks == []
            for cfg, flags in zip(group, got):
                for r, row in enumerate(p):
                    np.testing.assert_array_equal(
                        flags[r], decide(cfg, row).rejected, err_msg=f"row {r}")

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
        # again by decide under its own config, the second of a stack with
        # one of another table first, and the flags are still decide's
        n = data.draw(st.integers(2, 200), label="n")
        partner = {ProcedureKind.LORD2: ProcedureKind.LORDPP,
                   ProcedureKind.LORDPP: ProcedureKind.LORD2}.get(kind, kind)
        stack = [config_of(partner, n, not bounded), config_of(kind, n, bounded)]
        cfg = stack[1]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        p = np.where(rng.random((3, n)) < 0.3, rng.random((3, n)) * 1e-4,
                     rng.random((3, n)))
        i = data.draw(st.integers(0, n - 1), label="i")
        level = decide(cfg, p[1]).levels[i]
        p[1, i] = data.draw(st.sampled_from(
            [level, math.nextafter(level, 0.0), math.nextafter(level, 1.0)]))
        p = check_rows(p)
        got, fallbacks = rows_and_fallbacks(stack, p)
        assert any(c == cfg and np.array_equal(row, p[1]) for c, row in fallbacks)
        for c, flags in zip(stack, got):
            for r in range(3):
                np.testing.assert_array_equal(flags[r], decide(c, p[r]).rejected)

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
        # a stack raises what the first config in order with a refusal or a
        # short horizon raises alone, as one call per config would
        short = config_of(ProcedureKind.LORDPP, 5, True)
        p = check_rows(np.full((2, 6), 0.5))
        with pytest.raises(ConfigError, match="leading coefficient"):
            decide_stack([config_of(ProcedureKind.LORD2, 6, False), cfg, short], p)
        with pytest.raises(HorizonExhaustedError, match="horizon N=5"):
            decide_stack([short, cfg], p)

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
def test_estimates_independent_of_workers(monkeypatch, forking, scenario,
                                          bounded):
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
