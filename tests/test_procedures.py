import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from onfdr import procedures
from onfdr.procedures import (
    ConfigError,
    HorizonExhaustedError,
    ProcedureConfig,
    ProcedureKind,
    decide,
    default_config,
    default_sequence,
    limit_level,
    make_stream,
    next_level,
    observe,
    rebound_stream,
    run_stream,
)
from onfdr.sequences import Normalization, SequenceKind, SequenceSpec, \
    build_table, validate_xi

ALL_KINDS = list(ProcedureKind)
# the rules whose levels never fall when a discovery is added before them
MONOTONE_KINDS = [ProcedureKind.LORD2, ProcedureKind.LORDPP,
                  ProcedureKind.SAFFRON, ProcedureKind.LOND_INDEP,
                  ProcedureKind.LOND_DEP]
LIMIT_KINDS = [ProcedureKind.LORD2, ProcedureKind.LORD3, ProcedureKind.LORDPP,
               ProcedureKind.SAFFRON, ProcedureKind.LORD_DEP]

pvalue_lists = st.lists(
    st.floats(0.0, 1.0, allow_nan=False, width=32), min_size=1, max_size=60)


def uniform_beta(alpha, bound):
    return SequenceSpec(SequenceKind.UNIFORM, Normalization.SUM_ALPHA,
                        alpha=alpha, bound=bound)


class TestConfigValidation:
    def test_lord3_initial_wealth(self):
        cfg = default_config(ProcedureKind.LORD3, alpha=0.05)
        state = make_stream(cfg)
        assert state.wealth == 0.025
        assert state.i == 0 and state.discoveries == 0

    def test_saffron_w0_too_large(self):
        with pytest.raises(ConfigError, match="lambda"):
            default_config(ProcedureKind.SAFFRON, alpha=0.05, w0=0.03)

    def test_lord2_budget_exceeded(self):
        with pytest.raises(ConfigError, match="w0 \\+ b0"):
            default_config(ProcedureKind.LORD2, alpha=0.05, w0=0.04, b0=0.02)

    def test_lond_starts_empty(self):
        cfg = default_config(ProcedureKind.LOND_INDEP, alpha=0.05)
        state = make_stream(cfg)
        assert state.discoveries == 0 and state.rejection_times == []

    def test_invalid_alpha(self):
        with pytest.raises(ConfigError, match="alpha"):
            default_config(ProcedureKind.LORD2, alpha=1.5)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("alpha", [0.0, 1.0, math.nan])
    def test_default_sequence_checks_alpha(self, kind, alpha):
        # the sum-one rules' sequences do not read alpha, but their
        # configs do
        with pytest.raises(ConfigError, match=r"alpha must lie in \(0, 1\)"):
            default_sequence(kind, alpha)

    @pytest.mark.parametrize("kind, params, message", [
        (ProcedureKind.LORDPP, dict(w0=0.06), "0 <= w0 <= alpha is required"),
        (ProcedureKind.SAFFRON, dict(lam=1.0), r"lambda must lie in \(0, 1\)"),
    ])
    def test_parameter_out_of_range(self, kind, params, message):
        with pytest.raises(ConfigError, match=message):
            default_config(kind, alpha=0.05, **params)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_bare_config_is_the_default(self, kind):
        # the parameters the rule reads and its unbounded default shape
        assert ProcedureConfig(kind) == default_config(kind)

    def test_saffron_w0_follows_lambda(self):
        cfg = default_config(ProcedureKind.SAFFRON, alpha=0.05, lam=0.9)
        assert (cfg.lam, cfg.w0) == (0.9, (1 - 0.9) * 0.05 / 2)
        assert make_stream(cfg).i == 0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_unread_parameter_refused(self, kind):
        # the parameters each rule reads, as the README's table gives them
        reads = {ProcedureKind.LORD2: ("w0", "b0"),
                 ProcedureKind.LORD3: ("w0", "b0"),
                 ProcedureKind.LORD_DEP: ("w0", "b0"),
                 ProcedureKind.LORDPP: ("w0",),
                 ProcedureKind.SAFFRON: ("lam", "w0"),
                 ProcedureKind.LOND_INDEP: ("lond_original",),
                 ProcedureKind.LOND_DEP: ("lond_original",)}.get(kind, ())
        cfg = default_config(kind, alpha=0.05)
        assert all(getattr(cfg, name) is not None for name in reads)
        for name, value, shown in (("w0", 0.01, "w0"), ("b0", 0.01, "b0"),
                                   ("lam", 0.3, "lambda"),
                                   ("lond_original", True, "lond_original")):
            if name not in reads:
                with pytest.raises(ConfigError, match=(
                        f"^{re.escape(kind.value)} takes no {shown}$")):
                    default_config(kind, alpha=0.05, **{name: value})

    @pytest.mark.parametrize("shape", [
        SequenceSpec(SequenceKind.LOG_POWER, shape_param=3.0),
        SequenceSpec(SequenceKind.POWER_LAW, shape_param=2.0),
        SequenceSpec(SequenceKind.POWER_LAW, shape_param=2.0, bound=500),
        SequenceSpec(SequenceKind.CONSTANT_BOUNDED, bound=100)],
        ids=["log-power", "power-law", "power-law-500", "constant-100"])
    @pytest.mark.parametrize("w0, b0", [(0.01, 0.04), (0.025, 0.025),
                                        (0.04, 0.01), (0.0, 0.05)])
    def test_lord_dep_table_meets_its_budget(self, shape, w0, b0):
        # the config normalizes its xi table for its own w0 and b0, with
        # the budget inequality saturated
        alpha = 0.05
        cfg = default_config(ProcedureKind.LORD_DEP, alpha=alpha, w0=w0,
                             b0=b0, sequence=shape)
        table = make_stream(cfg).table
        assert validate_xi(table, w0, b0, alpha)
        budget = alpha / b0 if w0 <= b0 else alpha
        assert table.constraint_sum() == pytest.approx(budget, abs=1e-9)

    @pytest.mark.parametrize("kind", [ProcedureKind.LORD2, ProcedureKind.LORD3,
                                      ProcedureKind.LORD_DEP])
    @pytest.mark.parametrize("name", ["w0", "b0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_wealth_parameter_refused(self, kind, name, value):
        params = {"w0": 0.025, "b0": 0.025, name: value}
        with pytest.raises(ConfigError, match=f"finite {name}"):
            ProcedureConfig(kind=kind, alpha=0.05,
                            sequence=default_sequence(kind, 0.05), **params)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rule_fixes_the_normalization(self, kind):
        # the normalization given is replaced by the rule's, with the
        # config's alpha, w0 and b0; shape and horizon are kept
        given = SequenceSpec(SequenceKind.JM_OPTIMAL, Normalization.SUM_ALPHA,
                             alpha=0.2, bound=50)
        cfg = default_config(kind, alpha=0.05, sequence=given)
        want = {ProcedureKind.LORD_DEP: Normalization.XI_WEIGHTED,
                ProcedureKind.LOND_INDEP: Normalization.SUM_ALPHA,
                ProcedureKind.LOND_DEP: Normalization.SUM_ALPHA,
                ProcedureKind.BONFERRONI: Normalization.SUM_ALPHA}.get(
                    kind, Normalization.SUM_ONE)
        seq = cfg.sequence
        assert (seq.kind, seq.bound, seq.normalization) == \
            (SequenceKind.JM_OPTIMAL, 50, want)
        assert seq.alpha == (None if want is Normalization.SUM_ONE else 0.05)
        reads = {name: value for name, value in dict(w0=0.01, b0=0.02).items()
                 if getattr(cfg, name) is not None}
        moved = dataclasses.replace(cfg, **reads)
        dep = kind is ProcedureKind.LORD_DEP
        assert (moved.sequence.w0, moved.sequence.b0) == \
            ((0.01, 0.02) if dep else (None, None))


class TestNextLevel:
    def test_lord2_first_level(self):
        cfg = default_config(ProcedureKind.LORD2, alpha=0.05)
        state = make_stream(cfg)
        g1w0 = 0.0535167709126 * 0.025
        assert next_level(state, cfg) == pytest.approx(g1w0, abs=1e-12)

    def test_next_level_pure(self):
        cfg = default_config(ProcedureKind.SAFFRON, alpha=0.05)
        state = make_stream(cfg)
        first = next_level(state, cfg)
        assert next_level(state, cfg) == first
        assert state.i == 0

    def test_lond_counts_discoveries(self):
        cfg = default_config(ProcedureKind.LOND_INDEP, alpha=0.05,
                             sequence=uniform_beta(0.05, 5))
        state = make_stream(cfg)
        observe(state, 0.005, cfg)
        observe(state, 0.2, cfg)
        assert next_level(state, cfg) == pytest.approx(0.02, abs=1e-12)

    def test_lond_dep_harmonic_rescaling(self):
        cfg = default_config(ProcedureKind.LOND_DEP, alpha=0.05,
                             sequence=uniform_beta(0.05, 5))
        state = make_stream(cfg)
        observe(state, 0.005, cfg)
        observe(state, 0.2, cfg)
        expected = (0.01 / (1 + 1 / 2 + 1 / 3)) * 2
        assert next_level(state, cfg) == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(0.0109091, abs=1e-7)

    def test_saffron_first_level(self):
        cfg = default_config(ProcedureKind.SAFFRON, alpha=0.05)
        state = make_stream(cfg)
        expected = min((6 / math.pi**2) * 0.0125, 0.5)
        assert next_level(state, cfg) == pytest.approx(expected, abs=1e-9)

    def test_lond_original_multiplier(self):
        base = dict(alpha=0.05, sequence=uniform_beta(0.05, 5))
        plus_one = default_config(ProcedureKind.LOND_INDEP, **base)
        original = default_config(ProcedureKind.LOND_INDEP,
                                  lond_original=True, **base)
        for cfg, expect in ((plus_one, 0.02), (original, 0.01)):
            state = make_stream(cfg)
            observe(state, 0.0, cfg)
            assert next_level(state, cfg) == pytest.approx(expect, abs=1e-12)


class TestObserve:
    def test_lord3_no_rejection_spends_wealth(self):
        cfg = default_config(ProcedureKind.LORD3, alpha=0.05)
        rec = observe(make_stream(cfg), 0.9, cfg)
        assert rec.level == pytest.approx(0.0013379, abs=1e-7)
        assert not rec.rejected
        assert rec.wealth_after == pytest.approx(0.0236621, abs=1e-7)

    def test_lord3_rejection_pays_out(self):
        cfg = default_config(ProcedureKind.LORD3, alpha=0.05)
        rec = observe(make_stream(cfg), 0.0001, cfg)
        assert rec.rejected
        assert rec.wealth_after == pytest.approx(0.0486621, abs=1e-7)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_pvalue_rejected(self, kind):
        cfg = default_config(kind, alpha=0.05)
        rec = observe(make_stream(cfg), 0.0, cfg)
        assert rec.rejected

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5,
                                     np.nextafter(1.0, 2.0), -5e-324,
                                     float("inf"), float("-inf")])
    def test_invalid_pvalue(self, bad):
        cfg = default_config(ProcedureKind.LORD2, alpha=0.05)
        with pytest.raises(ValueError):
            observe(make_stream(cfg), bad, cfg)

    def test_tie_is_rejection(self):
        cfg = default_config(ProcedureKind.LOND_INDEP, alpha=0.05,
                             sequence=uniform_beta(0.05, 5))
        rec = observe(make_stream(cfg), 0.01, cfg)
        assert rec.rejected and rec.p == rec.level

    @pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int64])
    def test_numpy_scalars_as_in_arrays(self, dtype):
        # one rule for both paths: observe takes the numpy real scalars
        # that decide takes in an array, and refuses the same values
        cfg = default_config(ProcedureKind.LORD3, alpha=0.05)
        p = np.array([0.001, 0.5, 0.0, 1.0, 0.02]).astype(dtype)
        want = run_stream(cfg, p.astype(float).tolist())
        assert run_stream(cfg, p) == want   # one numpy scalar per observe
        got = decide(cfg, p)
        assert got.levels.tolist() == [r.level for r in want]
        assert got.rejected.tolist() == [r.rejected for r in want]
        bad = dtype(2)
        message = f"p-value must lie in [0, 1], got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            observe(make_stream(cfg), bad, cfg)
        with pytest.raises(ValueError,
                           match=re.escape(f"at stream index 1: {message}")):
            decide(cfg, np.array([bad]))


class TestRunStream:
    def test_empty(self):
        cfg = default_config(ProcedureKind.LORD2, alpha=0.05)
        assert run_stream(cfg, []) == []

    def test_all_ones_lord2(self):
        cfg = default_config(ProcedureKind.LORD2, alpha=0.05)
        recs = run_stream(cfg, [1.0] * 50)
        assert not any(r.rejected for r in recs)
        table = make_stream(cfg).table
        for r in recs:
            assert r.level == pytest.approx(
                table.coefficient(r.index) * 0.025, abs=1e-15)

    def test_long_stream_swaps_tables(self):
        cfg = default_config(ProcedureKind.LORDPP, alpha=0.05)
        state = make_stream(cfg, length_hint=4)
        start = state.table
        recs = run_stream(cfg, [1.0] * 5000, state=state)
        gamma = build_table(cfg.sequence, length_hint=5000)
        assert recs[-1].index == 5000
        assert recs[-1].level == cfg.w0 * gamma.coefficient(5000)
        # the cached table the stream started from is unchanged
        assert state.table is not start
        assert make_stream(cfg, length_hint=4).table is start
        assert len(start) == 1024
        assert not start.coefficients.flags.writeable
        assert not start.cumulative.flags.writeable

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_equals_fold_of_observe(self, kind):
        rng = np.random.default_rng(3)
        p = np.round(rng.random(40), 3).tolist()
        cfg = default_config(kind, alpha=0.05)
        folded = []
        state = make_stream(cfg)
        for v in p:
            folded.append(observe(state, v, cfg))
        assert run_stream(cfg, p) == folded

    def test_error_carries_offending_index(self):
        cfg = default_config(ProcedureKind.LORD2, alpha=0.05)
        with pytest.raises(ValueError, match="index 3"):
            run_stream(cfg, [0.5, 0.5, 2.0])

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_deterministic(self, kind):
        rng = np.random.default_rng(5)
        p = rng.random(60).tolist()
        cfg = default_config(kind, alpha=0.05)
        assert run_stream(cfg, p) == run_stream(cfg, p)


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(p=pvalue_lists, kind=st.sampled_from(ALL_KINDS))
    def test_decision_coherence(self, p, kind):
        cfg = default_config(kind, alpha=0.05)
        for rec in run_stream(cfg, p):
            assert rec.rejected == (rec.p <= rec.level)

    @settings(max_examples=30, deadline=None)
    @given(p=pvalue_lists)
    def test_lord3_wealth_nonnegative(self, p):
        cfg = default_config(ProcedureKind.LORD3, alpha=0.05)
        for rec in run_stream(cfg, p):
            assert rec.wealth_after >= -1e-12

    @settings(max_examples=30, deadline=None)
    @given(p=pvalue_lists)
    def test_lord_dep_levels_nonnegative(self, p):
        # the literal wealth recursion can dip below zero between discoveries
        # (the xi series may sum past 1), but the levels are anchored at the
        # wealth of the last discovery and must stay nonnegative
        cfg = default_config(ProcedureKind.LORD_DEP, alpha=0.05)
        for rec in run_stream(cfg, p):
            assert rec.level >= 0.0

    @settings(max_examples=30, deadline=None)
    @given(p=pvalue_lists)
    def test_lordpp_dominates_lord2(self, p):
        alpha = 0.05
        lord2 = default_config(ProcedureKind.LORD2, alpha=alpha)
        lordpp = default_config(ProcedureKind.LORDPP, alpha=alpha)
        levels2 = [r.level for r in run_stream(lord2, p)]
        levelspp = [r.level for r in run_stream(lordpp, p)]
        for l2, lpp in zip(levels2, levelspp):
            assert lpp >= l2 - 1e-15

    @settings(max_examples=30, deadline=None)
    @given(p=pvalue_lists)
    def test_lond_dominates_bonferroni(self, p):
        seq = default_sequence(ProcedureKind.LOND_INDEP, alpha=0.05)
        lond = default_config(ProcedureKind.LOND_INDEP, alpha=0.05, sequence=seq)
        bonf = default_config(ProcedureKind.BONFERRONI, alpha=0.05, sequence=seq)
        lond_levels = [r.level for r in run_stream(lond, p)]
        bonf_levels = [r.level for r in run_stream(bonf, p)]
        for ll, bl in zip(lond_levels, bonf_levels):
            assert ll >= bl - 1e-15

    @settings(max_examples=20, deadline=None)
    @given(p=pvalue_lists, kind=st.sampled_from(ALL_KINDS), data=st.data())
    def test_online_causality(self, p, kind, data):
        cut = data.draw(st.integers(1, len(p)), label="cut")
        cfg = default_config(kind, alpha=0.05)
        full = run_stream(cfg, p)
        prefix = run_stream(cfg, p[:cut])
        assert full[:cut] == prefix

    @settings(max_examples=25, deadline=None)
    @given(p=pvalue_lists, data=st.data())
    def test_lord2_monotone_payout(self, p, data):
        idx = data.draw(st.integers(0, len(p) - 1), label="idx")
        cfg = default_config(ProcedureKind.LORD2, alpha=0.05)
        before = [r.level for r in run_stream(cfg, p)]
        forced = list(p)
        forced[idx] = 0.0
        after = [r.level for r in run_stream(cfg, forced)]
        for b, a in zip(before[idx + 1:], after[idx + 1:]):
            assert a >= b - 1e-15

    @settings(max_examples=120, deadline=None)
    @given(p=pvalue_lists, kind=st.sampled_from(MONOTONE_KINDS),
           bounded=st.booleans(), original=st.booleans(), data=st.data())
    def test_added_rejection_never_lowers_levels(self, p, kind, bounded,
                                                 original, data):
        # the condition decide's fixpoint search rests on: a state with one
        # more rejection time has no lower next level (to rounding)
        cut = data.draw(st.integers(1, len(p)), label="cut")
        cfg = default_config(kind, alpha=0.05,
                             bound=cut + 1 if bounded else None)
        if kind in (ProcedureKind.LOND_INDEP, ProcedureKind.LOND_DEP):
            cfg = dataclasses.replace(cfg, lond_original=original)
        state = make_stream(cfg)
        for v in p[:cut]:
            observe(state, v, cfg)
        # a SAFFRON rejection is a candidate
        free = [t for t in range(1, cut + 1)
                if t not in state.rejection_times
                and (kind is not ProcedureKind.SAFFRON or p[t - 1] <= cfg.lam)]
        assume(free)
        t = data.draw(st.sampled_from(free), label="t")
        # a SAFFRON rejection's clock is its index less the candidates
        # through it; every other rule's is its index
        clock = t - sum(v <= cfg.lam for v in p[:t]) \
            if kind is ProcedureKind.SAFFRON else t
        more = with_rejection(state, t, clock)
        assert next_level(more, cfg) >= next_level(state, cfg) * (1 - 1e-12)


def with_rejection(state, t, clock):
    """A copy of ``state`` with a rejection at index ``t`` on ``clock``."""
    k = state.discoveries
    pairs = sorted(zip(state.rejection_times + [t],
                       state._clock[:k].tolist() + [clock]))
    more = dataclasses.replace(state, discoveries=0,
                               _tau=np.zeros(0, dtype=np.int64),
                               _clock=np.zeros(0, dtype=np.int64))
    more._push_rejections(*map(np.array, zip(*pairs)))
    return more


class TestLimitLevel:
    @pytest.mark.parametrize("kind", LIMIT_KINDS)
    def test_matches_all_zero_stream(self, kind):
        cfg = default_config(kind, alpha=0.05, bound=300)
        recs = run_stream(cfg, [0.0] * 300)
        for rec in recs:
            assert rec.level == pytest.approx(
                limit_level(cfg, rec.index), abs=1e-10)

    def test_lord3_approaches_payout(self):
        cfg = default_config(ProcedureKind.LORD3, alpha=0.05)
        assert limit_level(cfg, 2000) == pytest.approx(0.025, abs=1e-9)

    def test_saffron_threshold_index(self):
        cfg = default_config(ProcedureKind.SAFFRON, alpha=0.05)
        g1 = 6 / math.pi**2
        threshold = 1 + cfg.lam / ((1 - cfg.lam) * cfg.alpha * g1)
        assert threshold == pytest.approx(33.9, abs=0.1)
        first_capped = math.ceil(threshold)
        assert limit_level(cfg, first_capped) == pytest.approx(cfg.lam)
        assert limit_level(cfg, first_capped - 1) < cfg.lam

    def test_lordpp_uniform_example(self):
        spec = SequenceSpec(SequenceKind.UNIFORM, Normalization.SUM_ONE, bound=10)
        cfg = default_config(ProcedureKind.LORDPP, alpha=0.05, w0=0.02,
                             sequence=spec)
        expected = 0.1 * 0.02 + (0.05 - 0.02) * 0.1 + 0.05 * 0.1
        assert limit_level(cfg, 3) == pytest.approx(expected, abs=1e-12)

    def test_unsupported_kind(self):
        cfg = default_config(ProcedureKind.LOND_INDEP, alpha=0.05)
        with pytest.raises(ConfigError):
            limit_level(cfg, 5)

    def test_index_from_one(self):
        cfg = default_config(ProcedureKind.LORD2, alpha=0.05)
        with pytest.raises(ValueError, match="index must be >= 1"):
            limit_level(cfg, 0)


class TestBoundsAndRebound:
    def test_horizon_exhausted(self):
        cfg = default_config(ProcedureKind.LORD2, alpha=0.05, bound=3)
        state = make_stream(cfg)
        for _ in range(3):
            observe(state, 0.5, cfg)
        with pytest.raises(HorizonExhaustedError):
            next_level(state, cfg)

    def test_rebound_same_horizon_noop(self):
        cfg = default_config(ProcedureKind.LORD2, alpha=0.05, bound=10)
        plain = make_stream(cfg)
        rebounded = make_stream(cfg)
        rebound_stream(rebounded, cfg, 10)
        for p in (0.5, 0.001, 0.2, 0.9):
            assert observe(plain, p, cfg) == observe(rebounded, p, cfg)

    def test_lond_rebound_example(self):
        cfg = default_config(ProcedureKind.LOND_INDEP, alpha=0.05, bound=10)
        state = make_stream(cfg)
        for _ in range(5):
            observe(state, 0.9, cfg)
        rebound_stream(state, cfg, 20)
        rec = observe(state, 0.9, cfg)
        assert rec.level == pytest.approx(0.025 / 15, abs=1e-12)
        assert state.bound == 20

    def test_rebound_conserves_gamma_mass(self):
        cfg = default_config(ProcedureKind.LORD2, alpha=0.05, bound=8)
        state = make_stream(cfg)
        for _ in range(4):
            observe(state, 0.3, cfg)
        rebound_stream(state, cfg, 30)
        spent = state.table.cumulative_sum(4)
        rest = state.table.coefficients[4:].sum()
        assert spent + rest == pytest.approx(1.0, abs=1e-10)
        # stream continues on the new tail without exhausting
        for _ in range(26):
            observe(state, 0.3, cfg)
        with pytest.raises(HorizonExhaustedError):
            next_level(state, cfg)

    def test_rebound_requires_future_horizon(self):
        cfg = default_config(ProcedureKind.LORD2, alpha=0.05, bound=10)
        state = make_stream(cfg)
        for _ in range(5):
            observe(state, 0.5, cfg)
        with pytest.raises(ConfigError):
            rebound_stream(state, cfg, 5)

    def test_rebound_requires_bound(self):
        cfg = default_config(ProcedureKind.LORD2, alpha=0.05)
        with pytest.raises(ConfigError):
            rebound_stream(make_stream(cfg), cfg, 10)


class TestStateInvariants:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rejection_times_strictly_increasing(self, kind):
        rng = np.random.default_rng(11)
        cfg = default_config(kind, alpha=0.2 if kind.value.startswith("lond")
                             else 0.05)
        state = make_stream(cfg)
        for p in rng.random(80) ** 3:
            observe(state, float(p), cfg)
        times = state.rejection_times
        assert times == sorted(set(times))
        assert state.discoveries == len(times)
        assert all(1 <= t <= state.i for t in times)


# ---------------------------------------------------------------------------
# the batch kernel against the fold of observe
# ---------------------------------------------------------------------------

LAMBDAS = (0.2, 0.5, 0.8)


@st.composite
def kernel_configs(draw, bounded):
    """A config of any kind with drawn parameters (few distinct sequences,
    so cached tables are reused); ``bounded`` is the horizon or None."""
    kind = draw(st.sampled_from(ALL_KINDS))
    alpha = draw(st.sampled_from([0.05, 0.1, 0.2]))
    share = draw(st.sampled_from([0.0, 0.25, 0.5, 0.9]))
    if kind in (ProcedureKind.LORD2, ProcedureKind.LORD3):
        w0 = share * alpha
        b0 = draw(st.sampled_from([0.3, 1.0])) * (alpha - w0)
        return default_config(kind, alpha=alpha, bound=bounded, w0=w0, b0=b0)
    if kind is ProcedureKind.LORD_DEP:
        w0, b0 = share * alpha, draw(st.sampled_from([0.5, 1.0])) * alpha
        if bounded is None:
            shape = dict(kind=SequenceKind.LOG_POWER, shape_param=3.0)
        else:
            shape = dict(kind=SequenceKind.CONSTANT_BOUNDED, bound=bounded)
        spec = SequenceSpec(normalization=Normalization.XI_WEIGHTED,
                            alpha=alpha, w0=w0, b0=b0, **shape)
        return ProcedureConfig(kind=kind, alpha=alpha, w0=w0, b0=b0, sequence=spec)
    if kind is ProcedureKind.LORDPP:
        return default_config(kind, alpha=alpha, bound=bounded, w0=share * alpha)
    if kind is ProcedureKind.SAFFRON:
        lam = draw(st.sampled_from(LAMBDAS))
        return default_config(kind, alpha=alpha, bound=bounded, lam=lam,
                              w0=share * (1 - lam) * alpha)
    if kind in (ProcedureKind.LOND_INDEP, ProcedureKind.LOND_DEP):
        return default_config(kind, alpha=alpha, bound=bounded,
                              lond_original=draw(st.booleans()))
    if draw(st.booleans()):   # Bonferroni given a sum-one JM shape: sum-alpha
        spec = SequenceSpec(SequenceKind.JM_OPTIMAL, Normalization.SUM_ONE,
                            bound=bounded)
        return default_config(kind, alpha=alpha, sequence=spec)
    return default_config(kind, alpha=alpha, bound=bounded)


kernel_pvalues = st.lists(
    st.one_of(st.sampled_from((0.0, 1.0) + LAMBDAS),
              st.floats(0.0, 1e-3), st.floats(0.0, 1.0)),
    min_size=0, max_size=200)


@st.composite
def kernel_cases(draw):
    """p-values and a config whose horizon, if any, covers them."""
    p = draw(kernel_pvalues)
    bound = draw(st.one_of(st.none(), st.integers(max(len(p), 1), len(p) + 5)),
                 label="bound")
    return p, draw(kernel_configs(bound))


def lord_dep_constant(alpha, w0, b0, bound):
    spec = SequenceSpec(SequenceKind.CONSTANT_BOUNDED, Normalization.XI_WEIGHTED,
                        alpha=alpha, w0=w0, b0=b0, bound=bound)
    return ProcedureConfig(kind=ProcedureKind.LORD_DEP, alpha=alpha, w0=w0,
                           b0=b0, sequence=spec)


def assert_kernel_equals_fold(cfg, p):
    try:
        recs = run_stream(cfg, p)
    except ConfigError as exc:   # a refused config is refused by both
        with pytest.raises(ConfigError) as info:
            decide(cfg, p)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        return
    got = decide(cfg, np.asarray(p, dtype=float))
    assert got.rejected.tolist() == [r.rejected for r in recs]
    assert np.allclose(got.levels, [r.level for r in recs], rtol=1e-12, atol=0)
    if cfg.kind in (ProcedureKind.LORD3, ProcedureKind.LORD_DEP):
        assert got.wealth.tolist() == [r.wealth_after for r in recs]
    else:
        assert got.wealth is None


def raised(fn, *args, **kwargs):
    with pytest.raises((ValueError, HorizonExhaustedError)) as info:
        fn(*args, **kwargs)
    return type(info.value), str(info.value)


def assert_same_state(got, want, cfg):
    assert (got.i, got.rejection_times, got.wealth, got.wealth_at_discovery,
            got.candidates_total, got._harmonic, got.bound) == \
        (want.i, want.rejection_times, want.wealth, want.wealth_at_discovery,
         want.candidates_total, want._harmonic, want.bound)
    k = want.discoveries
    assert got._clock[:k].tolist() == want._clock[:k].tolist()
    if got.bound is None or got.i < got.bound:   # and the table ahead
        assert next_level(got, cfg) == next_level(want, cfg)


class TestDecide:
    @settings(max_examples=150, deadline=None)
    @given(case=kernel_cases())
    # bounded dependent LORD at N=1 with xi_1 = alpha / b0 = 2 > 1: refused
    @example(case=([], lord_dep_constant(0.05, 0.0, 0.025, 1)))
    def test_equals_fold_of_observe(self, case):
        p, cfg = case
        assert_kernel_equals_fold(cfg, p)

    @settings(max_examples=100, deadline=None)
    @given(case=kernel_cases(), data=st.data())
    def test_pieces_equal_one_call(self, case, data):
        # a stream decided in pieces, carrying the state, gets one call's
        # levels, decisions and wealth bit for bit, and leaves the state
        # the fold of observe leaves
        p, cfg = case
        try:
            state, fold = make_stream(cfg), make_stream(cfg)
        except ConfigError:   # refused: see test_equals_fold_of_observe
            return
        cuts = sorted(data.draw(st.lists(st.integers(0, len(p)), max_size=4),
                                label="cuts"))
        pieces = [decide(cfg, p[a:b], state)
                  for a, b in zip([0] + cuts, cuts + [len(p)])]
        one = decide(cfg, p)
        assert np.concatenate([d.levels for d in pieces]).tobytes() == \
            one.levels.tobytes()
        assert np.concatenate([d.rejected for d in pieces]).tolist() == \
            one.rejected.tolist()
        if one.wealth is not None:
            assert np.concatenate([d.wealth for d in pieces]).tobytes() == \
                one.wealth.tobytes()
        run_stream(cfg, p, state=fold)
        assert_same_state(state, fold, cfg)

    @settings(max_examples=100, deadline=None)
    @given(case=kernel_cases(), data=st.data())
    def test_interleaves_with_observe_and_rebound(self, case, data):
        # pieces through decide, single steps through observe and horizon
        # rebounds between them, against the fold doing the same
        p, cfg = case
        try:
            state, fold = make_stream(cfg), make_stream(cfg)
        except ConfigError:   # refused: see test_equals_fold_of_observe
            return
        cuts = sorted(data.draw(st.lists(st.integers(0, len(p)), max_size=4),
                                label="cuts"))
        levels, rejected, wealth, recs = [], [], [], []
        for a, b in zip([0] + cuts, cuts + [len(p)]):
            step = data.draw(st.sampled_from(["decide", "observe", "rebound"]),
                             label="step")
            if step == "rebound" and state.bound is not None:
                new_bound = state.bound + data.draw(st.integers(0, 5),
                                                    label="extra horizon")
                if new_bound > state.i:
                    recs += run_stream(cfg, p[len(recs):a], state=fold)
                    rebound_stream(state, cfg, new_bound)
                    rebound_stream(fold, cfg, new_bound)
            if step == "observe" and a < b:
                rec = observe(state, p[a], cfg)
                levels.append(rec.level)
                rejected.append(rec.rejected)
                wealth.append(rec.wealth_after)
                a += 1
            got = decide(cfg, p[a:b], state)
            levels += got.levels.tolist()
            rejected += got.rejected.tolist()
            wealth += [None] * (b - a) if got.wealth is None \
                else got.wealth.tolist()
        recs += run_stream(cfg, p[len(recs):], state=fold)
        assert rejected == [r.rejected for r in recs]
        assert np.allclose(levels, [r.level for r in recs], rtol=1e-12, atol=0)
        assert wealth == [r.wealth_after for r in recs]
        assert_same_state(state, fold, cfg)

    @settings(max_examples=16, deadline=None)
    @given(data=st.data(), n=st.integers(1025, 2500),
           seed=st.integers(0, 2**32 - 1), pi1=st.sampled_from([0.05, 0.3]))
    def test_long_unbounded_streams(self, data, n, seed, pi1):
        # past the 1024 cached terms the stream and the kernel both need a
        # longer table
        rng = np.random.default_rng(seed)
        p = np.where(rng.random(n) < pi1, rng.random(n) * 1e-3, rng.random(n))
        assert_kernel_equals_fold(data.draw(kernel_configs(None)), p.tolist())

    def test_many_discoveries_reorder_payout_sums(self):
        # more than 24 discoveries: the fold sums payouts pairwise, the
        # kernel in discovery order; decisions still agree exactly
        p = [0.0] * 40 + [1e-4, 0.3, 2e-3] * 100
        for kind in (ProcedureKind.LORD2, ProcedureKind.LORDPP,
                     ProcedureKind.SAFFRON):
            assert_kernel_equals_fold(default_config(kind, alpha=0.05), p)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 30),
           bad=st.sampled_from([float("nan"), -0.5, 1.5, "0.5", None,
                                np.nextafter(1.0, 2.0), -5e-324,
                                float("inf"), float("-inf")]),
           as_array=st.booleans())
    def test_bad_pvalue_raises_as_run_stream(self, data, n, bad, as_array):
        k = data.draw(st.integers(0, n - 1), label="k")
        bound = data.draw(st.one_of(st.none(), st.integers(1, n + 2)),
                          label="bound")
        cfg = data.draw(kernel_configs(bound))
        p = [0.01 * j for j in range(n)]
        p[k] = bad
        if as_array and isinstance(bad, float):
            p = np.array(p)
        want = raised(run_stream, cfg, p)
        assert raised(decide, cfg, p) == want

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_past_the_horizon_raises_as_run_stream(self, kind):
        cfg = default_config(kind, alpha=0.05, bound=5)
        p = [0.5] * 7
        want = raised(run_stream, cfg, p)
        assert want[0] is HorizonExhaustedError
        assert raised(decide, cfg, p) == want

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_one_past_the_horizon_raises_as_run_stream(self, kind):
        # a run one value longer than the room left, fresh or resumed
        cfg = default_config(kind, alpha=0.05, bound=5)
        want = raised(run_stream, cfg, [0.5] * 6)
        assert want[0] is HorizonExhaustedError
        assert raised(decide, cfg, [0.5] * 6) == want
        state, folded = make_stream(cfg), make_stream(cfg)
        decide(cfg, [0.5] * 2, state)
        run_stream(cfg, [0.5] * 2, state=folded)
        assert raised(decide, cfg, [0.5] * 4, state) == \
            raised(run_stream, cfg, [0.5] * 4, state=folded)
        assert state.i == 2

    @pytest.mark.parametrize("bound", [None, 30])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_levels_are_a_fresh_array(self, kind, bound):
        cfg = default_config(kind, alpha=0.05, bound=bound)
        state = make_stream(cfg)
        levels = decide(cfg, [0.5] * 20, state).levels
        assert levels.flags.writeable
        assert not np.shares_memory(levels, state.table.coefficients)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_empty_stream(self, kind):
        got = decide(default_config(kind, alpha=0.05), [])
        assert len(got.levels) == len(got.rejected) == 0

    def test_rejected_config_raises(self):
        # xi_1 = alpha / b0 = 2 at horizon one
        cfg = default_config(ProcedureKind.LORD_DEP, alpha=0.05, bound=1)
        with pytest.raises(ConfigError, match="leading coefficient"):
            decide(cfg, [0.5])
        with pytest.raises(ConfigError, match="leading coefficient"):
            decide(cfg, [0.5])   # a failed check is not cached as a pass

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(MONOTONE_KINDS), bounded=st.booleans(),
           data=st.data())
    def test_ties_at_the_fold_level(self, kind, bounded, data):
        # p-values at the fold's level and one ulp either side: the search
        # may round another way, and its check must find and correct that
        # (under 24 discoveries the fold sums in discovery order too, so
        # its levels are the kernel's bit for bit)
        n = data.draw(st.integers(1, 23), label="n")
        cfg = default_config(kind, alpha=0.05, bound=n if bounded else None)
        state, p = make_stream(cfg), []
        for _ in range(n):
            level = next_level(state, cfg)
            v = data.draw(st.one_of(
                st.sampled_from([level, math.nextafter(level, 0.0),
                                 math.nextafter(level, 1.0)]),
                st.floats(0.0, 1e-3), st.floats(0.0, 1.0)), label="p")
            observe(state, v, cfg)
            p.append(v)
        assert_levels_are_the_folds(cfg, p)

    def test_resume_after_rounding(self, monkeypatch):
        # a stream whose search adds discoveries out of index order and
        # rounds one tie the other way: the check corrects it and the
        # search resumes after it
        p = [0.0013379192728150214, 0.0005923628693439936,
             1.4059085148911854e-05, 0.002082777038724266,
             0.0022574987814579658, 0.0024086462899995872,
             0.00023950895547226138, 0.0026602630312472786,
             0.00035181932914803805, 0.0028647430442304707,
             0.00036485722486725037, 0.0007166049207154763,
             0.003113582304960104, 0.0031852636625890733,
             0.0019145627931343174, 0.8584353255541872,
             0.0014988305341595302]
        searches = []
        fixpoint = procedures._fixpoint

        def counting(pvalues, start, counted=False):
            def started():
                searches.append(1)
                return start()
            return fixpoint(pvalues, started, counted)

        monkeypatch.setattr(procedures, "_fixpoint", counting)
        assert_levels_are_the_folds(default_config(ProcedureKind.LORD2), p)
        # the search, the rebuild in index order, the resumed search
        assert len(searches) >= 3

    @pytest.mark.parametrize("kind", MONOTONE_KINDS)
    def test_chain_stream(self, kind):
        # each discovery makes only the next hypothesis a hit, the worst
        # case for the number of search passes
        cfg = default_config(kind, alpha=0.05)
        state, p = make_stream(cfg), []
        for _ in range(300):
            v = next_level(state, cfg) * (1 - 1e-9)
            observe(state, v, cfg)
            p.append(v)
        got = decide(cfg, p)
        assert got.rejected.all()
        assert_kernel_equals_fold(cfg, p)
        if kind is not ProcedureKind.SAFFRON:   # capped at lambda later on
            without = decide(cfg, p[:10] + [1.0] + p[11:])
            assert not without.rejected[11]

    @pytest.mark.parametrize("kind", MONOTONE_KINDS)
    @pytest.mark.parametrize("shape", ["blocks", "chain", "mixture"])
    def test_row_by_row_equals_one_call(self, kind, shape):
        # one row at a time, the carried discoveries pay in discovery order;
        # one call must sum every level the same way, also after hundreds of
        # discoveries, runs of them on one SAFFRON clock, and search passes
        # that each take a window of rows
        cfg = default_config(kind, alpha=0.05)
        rng = np.random.default_rng(11)
        if shape == "blocks":
            p = rng.random(1200)
            for a in (5, 300, 700):
                p[a:a + 150] = 1e-9 * rng.random(150)
        elif shape == "chain":
            state, p = make_stream(cfg), np.empty(400)
            for i in range(400):
                p[i] = next_level(state, cfg) * (1 - 1e-9)
                observe(state, p[i], cfg)
        else:
            signal = rng.random(1500) < 0.4
            p = np.where(signal, 0.01 * rng.random(1500) ** 4,
                         rng.random(1500))
        one = decide(cfg, p)
        state = make_stream(cfg)
        rows = [decide(cfg, p[i:i + 1], state) for i in range(len(p))]
        assert np.concatenate([d.levels for d in rows]).tobytes() == \
            one.levels.tobytes()
        assert np.concatenate([d.rejected for d in rows]).tolist() == \
            one.rejected.tolist()
        assert one.rejected.sum() >= 100

    @pytest.mark.parametrize("bounded", [False, True])
    def test_saffron_chain_then_candidates(self, bounded):
        # a chain of discoveries on one clock, one per search pass, then a
        # long run of candidates that are not discoveries: the passes over
        # that run carry the chain's gamma(1) adds on from the pass before
        cfg = default_config(ProcedureKind.SAFFRON, alpha=0.05,
                             bound=400 if bounded else None)
        state, p = make_stream(cfg), [0.9, 0.7]
        for v in p:
            observe(state, v, cfg)
        for i in range(300):
            level = next_level(state, cfg)
            v = level * (1 - 1e-9) if i < 6 else min(1.5 * level, cfg.lam)
            observe(state, v, cfg)
            p.append(v)
        p += [0.9, 0.3, 0.8]
        got = decide(cfg, p)
        assert got.rejected.sum() == 6 and max(got.levels) < cfg.lam
        assert_levels_are_the_folds(cfg, p)

    @settings(max_examples=150, deadline=None)
    @given(lam=st.sampled_from(LAMBDAS), bounded=st.booleans(),
           runs=st.lists(st.tuples(st.integers(0, 4), st.integers(1, 3),
                                   st.integers(0, 2)), min_size=1, max_size=8),
           data=st.data())
    def test_saffron_candidate_runs_ending_in_discoveries(self, lam, bounded,
                                                         runs, data):
        # runs of candidates that end in discoveries share one clock value:
        # a discovery pays it only to the hypotheses after it
        p = []
        for plain, found, after in runs:
            p += [data.draw(st.floats(lam / 2, lam), label="candidate")
                  for _ in range(plain)]
            p += [data.draw(st.floats(0.0, 1e-4), label="discovery")
                  for _ in range(found)]
            p += [data.draw(st.floats(0.0, lam), label="candidate")
                  for _ in range(after)]
            p.append(data.draw(st.floats(lam, 1.0, exclude_min=True),
                               label="non-candidate"))
        cfg = default_config(ProcedureKind.SAFFRON, alpha=0.1, lam=lam,
                             w0=(1 - lam) * 0.1 / 2,
                             bound=len(p) if bounded else None)
        assert_levels_are_the_folds(cfg, p)


def assert_levels_are_the_folds(cfg, p):
    """Decisions equal the fold's; so do the levels, bit for bit, while the
    fold sums its payouts in discovery order (under 24 discoveries)."""
    recs = run_stream(cfg, p)
    got = decide(cfg, p)
    assert got.rejected.tolist() == [r.rejected for r in recs]
    if sum(r.rejected for r in recs) < 24:
        assert got.levels.tolist() == [r.level for r in recs]
    else:
        assert np.allclose(got.levels, [r.level for r in recs], rtol=1e-12,
                           atol=0)
