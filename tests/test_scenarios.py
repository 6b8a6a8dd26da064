import math
import os
import re
import time

import numpy as np
import pytest
from scipy import stats

from onfdr import baselines, procedures, scenarios
from onfdr.procedures import ConfigError, ProcedureKind, default_config, \
    run_stream
from onfdr.scenarios import (
    KIDNEY_REALISATIONS,
    KidneyTrialScenario,
    MixtureAlternative,
    MixtureScenario,
    PlatformTrialScenario,
    _platform_draw,
    equicorrelated_normal,
    estimate,
    estimate_many,
    eval_kidney,
    gen_mixture,
    gen_platform,
    kidney_pvalues,
    worker_count,
)
from onfdr.stattests import TwoByTwoTable, fisher_exact_greater


class TestMixtureScenario:
    def test_constant_effect_small_n(self):
        sc = MixtureScenario(N=50, pi1=0.2,
                             alternative=MixtureAlternative.CONSTANT)
        assert sc.effect_scale == pytest.approx(math.sqrt(2 * math.log(50)))
        assert sc.effect_scale == pytest.approx(2.7971, abs=5e-5)

    def test_constant_k_switches_at_100(self):
        small = MixtureScenario(N=100, pi1=0.2,
                                alternative=MixtureAlternative.CONSTANT)
        large = MixtureScenario(N=101, pi1=0.2,
                                alternative=MixtureAlternative.CONSTANT)
        assert small.effect_scale == pytest.approx(math.sqrt(2 * math.log(100)))
        assert large.effect_scale == pytest.approx(math.sqrt(math.log(101)))

    def test_sidedness_binding(self):
        gauss = MixtureScenario(N=10, pi1=0.0)
        assert gauss.two_sided
        for alt in (MixtureAlternative.EXPONENTIAL, MixtureAlternative.CONSTANT):
            assert not MixtureScenario(N=10, pi1=0.0, alternative=alt).two_sided

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="N must be >= 1"):
            MixtureScenario(N=0, pi1=0.5)
        with pytest.raises(ValueError):
            MixtureScenario(N=10, pi1=1.5)
        with pytest.raises(ValueError):
            MixtureScenario(N=10, pi1=0.5, rho=1.0)

    @pytest.mark.parametrize("fields, message", [
        (dict(K=0), "K must be >= 1"),
        (dict(K=-3), "K must be >= 1"),
        (dict(K=5, N_target=0), "N_target must be >= 1"),
        (dict(K=1, N_target=2), "N0 = round(N_target * sqrt(K)) must be >= 5"),
        (dict(K=5, sigma=0.0), "a finite sigma > 0 is required"),
        (dict(K=5, sigma=-1.0), "a finite sigma > 0 is required"),
        (dict(K=5, sigma=math.inf), "a finite sigma > 0 is required"),
        (dict(K=5, sigma=math.nan), "a finite sigma > 0 is required"),
        (dict(K=5, pi=-0.1), "pi must lie in [0, 1]"),
        (dict(K=5, pi=1.5), "pi must lie in [0, 1]"),
        (dict(K=5, pi=math.nan), "pi must lie in [0, 1]"),
    ])
    def test_invalid_platform(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PlatformTrialScenario(**fields)

    def test_smallest_platform_draws(self):
        # one arm, and a control of five: every analysis sees one outcome
        p, truth = gen_platform(PlatformTrialScenario(K=1, N_target=5), 3)
        assert len(p) == len(truth) == 1 and 0 <= p[0] <= 1

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, float("nan")])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            MixtureScenario(N=10, pi1=0.5, alpha=alpha)
        with pytest.raises(ValueError, match="alpha"):
            PlatformTrialScenario(K=10, alpha=alpha)


class TestGenMixture:
    def test_deterministic(self):
        sc = MixtureScenario(N=100, pi1=0.3, rho=0.5)
        p1, t1 = gen_mixture(sc, 7)
        p2, t2 = gen_mixture(sc, 7)
        assert np.array_equal(p1, p2) and np.array_equal(t1, t2)
        p3, _ = gen_mixture(sc, 8)
        assert not np.array_equal(p1, p3)

    def test_takes_a_generator(self):
        sc = MixtureScenario(N=100, pi1=0.3, rho=0.5)
        rng = np.random.default_rng(np.random.SeedSequence(7))
        p1, t1 = gen_mixture(sc, rng)
        p2, t2 = gen_mixture(sc, 7)
        assert np.array_equal(p1, p2) and np.array_equal(t1, t2)

    def test_null_uniformity(self):
        sc = MixtureScenario(N=10_000, pi1=0.0, rho=0.0,
                             alternative=MixtureAlternative.CONSTANT)
        p, truth = gen_mixture(sc, 123)
        assert not truth.any()
        assert stats.kstest(p, "uniform").pvalue > 1e-3

    def test_factor_model_correlation(self):
        rng = np.random.default_rng(99)
        draws = np.array([equicorrelated_normal(2, 0.5, rng)
                          for _ in range(100_000)])
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert corr == pytest.approx(0.5, abs=0.01)
        assert draws.std(axis=0) == pytest.approx([1.0, 1.0], abs=0.02)

    def test_nonnull_fraction(self):
        sc = MixtureScenario(N=50_000, pi1=0.2, rho=0.5)
        _, truth = gen_mixture(sc, 5)
        assert truth.mean() == pytest.approx(0.2, abs=0.01)

    def test_one_sided_signals_shrink_pvalues(self):
        sc = MixtureScenario(N=2_000, pi1=0.5, rho=0.0,
                             alternative=MixtureAlternative.CONSTANT)
        p, truth = gen_mixture(sc, 21)
        assert p[truth].mean() < 0.15 < p[~truth].mean()

    def test_exponential_alternative(self):
        # one-sided tests of positive exponential means: seeded, and the
        # p-values of an all-non-null stream sit below 0.5
        sc = MixtureScenario(N=2_000, pi1=1.0, rho=0.0,
                             alternative=MixtureAlternative.EXPONENTIAL)
        p1, t1 = gen_mixture(sc, 7)
        p2, t2 = gen_mixture(sc, 7)
        assert np.array_equal(p1, p2) and np.array_equal(t1, t2)
        assert not np.array_equal(p1, gen_mixture(sc, 8)[0])
        assert t1.all()
        assert p1.mean() < 0.2 and (p1 < 0.5).mean() > 0.85


class TestGenPlatform:
    def test_control_sizing(self):
        sc = PlatformTrialScenario(K=25, N_target=70)
        assert sc.N0 == 350
        assert sc.effect == pytest.approx(math.sqrt(2 * math.log(25)))
        assert sc.effect == pytest.approx(2.5373, abs=5e-5)

    def test_deterministic(self):
        sc = PlatformTrialScenario(K=10, pi=0.3)
        a = gen_platform(sc, 3)
        b = gen_platform(sc, 3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_sorted_by_analysis_time(self):
        sc = PlatformTrialScenario(K=25, pi=0.2)
        rng = np.random.default_rng(17)
        tau, z, nonnull = _platform_draw(sc, rng)
        order = np.lexsort((np.arange(sc.K), tau))
        p_sorted, truth_sorted = gen_platform(sc, 17)
        assert np.array_equal(truth_sorted, nonnull[order])
        assert np.all(np.diff(tau[order]) >= 0)

    def test_empty_arms_are_redrawn(self):
        # N_target = 1 leaves an arm empty with probability 0.1, so most
        # replicates of 25 arms redraw one; an empty arm's mean would warn
        class CountingRng:
            def __init__(self, rng):
                self.rng, self.binomial_calls = rng, 0

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def binomial(self, *args, **kwargs):
                self.binomial_calls += 1
                return self.rng.binomial(*args, **kwargs)

        sc = PlatformTrialScenario(K=25, N_target=1)
        redraws = 0
        for r in range(20):
            rng = CountingRng(np.random.default_rng(r))
            _, z, _ = _platform_draw(sc, rng)
            assert np.isfinite(z).all()
            redraws += rng.binomial_calls > 1
        assert redraws >= 10

    @pytest.mark.parametrize("K, N_target", [
        (K, n) for K in (1, 3, 25, 100) for n in (1, 5, 70)
        if round(n * math.sqrt(K)) >= 5])
    def test_draw_is_the_per_arm_loop(self, K, N_target):
        # one generator call per arm, as the draw was first written: the
        # one-call draw must read the same stream and round the same way
        def per_arm(scenario, rng):
            nonnull = rng.random(K) < scenario.pi
            theta = np.where(nonnull, scenario.effect, 0.0)
            tau = rng.uniform(0.2, 1.0, size=K)
            n_arm = rng.binomial(N_target, 0.9, size=K)
            while np.any(n_arm == 0):
                redo = n_arm == 0
                n_arm[redo] = rng.binomial(N_target, 0.9, size=int(redo.sum()))
            control_cum = np.cumsum(rng.normal(0.0, scenario.sigma,
                                               size=scenario.N0))
            z = np.empty(K)
            for j in range(K):
                nj = int(n_arm[j])
                ybar_j = rng.normal(theta[j], scenario.sigma, size=nj).mean()
                n0j = int(tau[j] * scenario.N0)
                ybar_0 = control_cum[n0j - 1] / n0j
                z[j] = (ybar_j - ybar_0) / (
                    scenario.sigma * math.sqrt(1.0 / n0j + 1.0 / nj))
            return tau, z, nonnull

        sc = PlatformTrialScenario(K=K, N_target=N_target, pi=0.5)
        for seed in range(25):
            want_rng = np.random.default_rng(seed)
            got_rng = np.random.default_rng(seed)
            want = per_arm(sc, want_rng)
            got = _platform_draw(sc, got_rng)
            for w, g in zip(want, got):
                np.testing.assert_array_equal(g, w, strict=True)
            assert got_rng.random() == want_rng.random()

    def test_global_null_per_test_level(self):
        sc = PlatformTrialScenario(K=25, pi=0.0, alpha=0.1)
        reps, hits, total = 400, 0, 0
        for r in range(reps):
            p, truth = gen_platform(sc, np.random.SeedSequence((1234, r)))
            assert not truth.any()
            hits += int((p < 0.1).sum())
            total += len(p)
        rate = hits / total
        se = math.sqrt(0.1 * 0.9 / total) * 3  # correlated, inflate the bound
        assert rate == pytest.approx(0.1, abs=max(3 * se, 0.02))


class TestKidney:
    def test_pvalues_match_exact_test(self):
        sc = KidneyTrialScenario()
        y0, y = KIDNEY_REALISATIONS[1]
        p = kidney_pvalues(sc, y0, y)
        direct = fisher_exact_greater(
            TwoByTwoTable(y[3], sc.n_arm - y[3], y0, sc.n0 - y0))
        assert p[3] == direct
        assert len(p) == 10

    def test_truth_from_effect_signs(self):
        sc = KidneyTrialScenario()
        assert sc.truth == (False, False, True, True, False,
                            True, False, True, False, False)
        assert sc.K == 10

    def test_no_successes_no_rejections(self):
        sc = KidneyTrialScenario()
        cells = eval_kidney(sc, 0, [0] * 10)
        for cell in cells.values():
            assert cell.rejections == 0 and cell.false_discoveries == 0
            assert cell.fdr == "0/0" and cell.power == "0/4"

    def test_rejects_bad_counts(self):
        sc = KidneyTrialScenario()
        with pytest.raises(ValueError):
            eval_kidney(sc, 40, [0] * 10)
        with pytest.raises(ValueError):
            eval_kidney(sc, 5, [25] + [0] * 9)
        with pytest.raises(ValueError):
            eval_kidney(sc, 5, [0] * 9)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.1, float("nan")])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            KidneyTrialScenario(alpha=alpha)

    def test_uncorrected_and_bh_cells(self):
        # saturated case: every arm at the maximum, control at zero
        sc = KidneyTrialScenario()
        cells = eval_kidney(sc, 0, [20] * 10)
        assert cells["uncorrected"].rejections == 10
        assert cells["uncorrected"].false_discoveries == 6
        assert cells["bh"].true_positives == 4


def _record_forks(monkeypatch) -> list:
    """Wrap ``os.fork`` so that each fork made by this process appends the
    table cache's miss count at that moment to the returned list."""
    forks, fork, pid = [], os.fork, os.getpid()

    def recording_fork():
        if os.getpid() == pid:
            forks.append(procedures._table_cache.cache_info().misses)
        return fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    return forks


def _record_tasks(monkeypatch, path):
    """Wrap ``_replicate_chunk`` so that every process that computes a task
    appends (pid, lo, hi) to ``path``; returns a reader of those lines."""
    chunk = scenarios._replicate_chunk

    def recording_chunk(args):
        *_, lo, hi = args
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()} {lo} {hi}\n")
        return chunk(args)

    monkeypatch.setattr(scenarios, "_replicate_chunk", recording_chunk)
    return lambda: [tuple(map(int, line.split()))
                    for line in path.read_text().splitlines()]


class TestEstimate:
    def test_reproducible(self):
        sc = MixtureScenario(N=50, pi1=0.2, rho=0.5)
        cfg = default_config(ProcedureKind.LORDPP, alpha=0.05)
        a = estimate(cfg, sc, reps=40, seed=11)
        b = estimate(cfg, sc, reps=40, seed=11)
        assert a == b

    def test_negative_seed_refused(self, monkeypatch):
        def no_fork():
            raise AssertionError("a worker was forked")

        # refused before the fork that 100 replicates on two workers make
        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setenv("ONFDR_THREADS", "2")
        sc = MixtureScenario(N=50, pi1=0.2, rho=0.5)
        cfg = default_config(ProcedureKind.LORDPP, alpha=0.05)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            estimate_many([("lord++", cfg)], sc, reps=100, seed=-1)

    @pytest.mark.parametrize("proc, error, message", [
        ("bhh", ValueError, "x: unknown offline rule 'bhh'"),
        (3, TypeError, "x: expected a ProcedureConfig or an offline rule "
                       "name, got int")])
    def test_unknown_rule_refused_before_the_pool(self, monkeypatch, proc,
                                                  error, message):
        forks = _record_forks(monkeypatch)
        monkeypatch.setenv("ONFDR_THREADS", "2")
        sc = MixtureScenario(N=20, pi1=0.2, rho=0.5)
        with pytest.raises(error, match=re.escape(message)):
            estimate_many([("bh", "bh"), ("x", proc)], sc, reps=64, seed=1)
        assert forks == []
        estimate_many([("bh", "bh")], sc, reps=64, seed=1)
        assert len(forks) == 1   # the same call with a good rule forks

    def test_only_mixture_and_platform_scenarios_generate(self):
        with pytest.raises(TypeError,
                           match="cannot generate from KidneyTrialScenario"):
            estimate_many([("bh", "bh")], KidneyTrialScenario(), reps=5, seed=1)

    def test_worker_count_invariance(self):
        sc = MixtureScenario(N=50, pi1=0.2, rho=0.5)
        cfg = default_config(ProcedureKind.LOND_INDEP, alpha=0.05)
        old = os.environ.get("ONFDR_THREADS")
        try:
            os.environ["ONFDR_THREADS"] = "1"
            serial = estimate(cfg, sc, reps=80, seed=3)
            os.environ["ONFDR_THREADS"] = "2"
            parallel = estimate(cfg, sc, reps=80, seed=3)
        finally:
            if old is None:
                os.environ.pop("ONFDR_THREADS", None)
            else:
                os.environ["ONFDR_THREADS"] = old
        assert serial == parallel

    def test_pool_capped_at_chunks(self, monkeypatch, tmp_path):
        forks = _record_forks(monkeypatch)
        tasks = _record_tasks(monkeypatch, tmp_path / "tasks")
        monkeypatch.setenv("ONFDR_THREADS", "16")
        sc = MixtureScenario(N=20, pi1=0.2, rho=0.5)
        cfg = default_config(ProcedureKind.LOND_INDEP, alpha=0.05)
        forked = estimate(cfg, sc, reps=64, seed=3)   # two tasks of 32
        # this process computes one task and one forked child the other
        assert len(forks) == 1
        assert sorted((lo, hi) for _, lo, hi in tasks()) == [(0, 32),
                                                               (32, 64)]
        assert len({pid for pid, _, _ in tasks()}) == 2
        monkeypatch.setenv("ONFDR_THREADS", "1")
        assert estimate(cfg, sc, reps=64, seed=3) == forked
        assert len(forks) == 1

    @pytest.mark.parametrize("scenario", [
        MixtureScenario(N=40, pi1=0.3, rho=0.5),
        PlatformTrialScenario(K=10, pi=0.3)], ids=["mixture", "platform"])
    def test_estimates_do_not_depend_on_the_task_split(self, monkeypatch,
                                                       scenario):
        # 301 replicates leave an uneven last task under every cap
        n = scenario.N if isinstance(scenario, MixtureScenario) else scenario.K
        procs = [(f"{k.value}-{b}", default_config(k, alpha=scenario.alpha,
                                                     bound=b))
                 for k in ProcedureKind for b in (None, n)]
        procs += [(rule, rule) for rule in baselines.OFFLINE_RULES]
        got = []
        for cap in (7, 32, 128):
            monkeypatch.setattr(scenarios, "_BATCH", cap)
            for threads in ("1", "2"):
                monkeypatch.setenv("ONFDR_THREADS", threads)
                got.append(estimate_many(procs, scenario, reps=301, seed=5))
        assert len(got[0]) == 19
        assert all(res == got[0] for res in got[1:])

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_no_task_decides_more_than_the_cap(self, monkeypatch, tmp_path,
                                               threads):
        tasks = _record_tasks(monkeypatch, tmp_path / "tasks")
        monkeypatch.setenv("ONFDR_THREADS", threads)
        sc = MixtureScenario(N=5, pi1=0.3, rho=0.5)
        estimate_many([("bh", "bh")], sc, reps=2000, seed=1)
        spans = sorted((lo, hi) for _, lo, hi in tasks())
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
        assert spans[-1][1] == 2000
        assert max(hi - lo for lo, hi in spans) <= scenarios._BATCH
        assert len({pid for pid, _, _ in tasks()}) == int(threads)

    def test_tables_built_before_the_pool(self, monkeypatch):
        # configs are checked and their tables built before the first
        # fork: a refused config raises first, and no process builds one
        # after it (this one's later misses would show; a child's would
        # not, and it inherits the tables built here)
        forks = _record_forks(monkeypatch)
        monkeypatch.setenv("ONFDR_THREADS", "2")
        sc = MixtureScenario(N=30, pi1=0.3, rho=0.5)
        # xi_1 = alpha / b0 = 2 at horizon one
        refused = default_config(ProcedureKind.LORD_DEP, alpha=0.05, bound=1)
        with pytest.raises(ConfigError, match="leading coefficient"):
            estimate_many([("bh", "bh"), ("dep", refused)], sc, reps=64,
                          seed=1)
        assert forks == []
        procs = [(k.value, default_config(k, alpha=0.0431))
                 for k in (ProcedureKind.LORD2, ProcedureKind.SAFFRON)]
        procedures._table_cache.cache_clear()   # so that the call builds
        estimate_many(procs, sc, reps=64, seed=1)
        misses = procedures._table_cache.cache_info().misses
        assert forks == [misses] and misses > 0

    @pytest.mark.parametrize("reps", [63, 64, 301])
    def test_estimates_equal_for_every_worker_count(self, monkeypatch, reps):
        sc = MixtureScenario(N=30, pi1=0.3, rho=0.5)
        procs = [(k.value, default_config(k, alpha=0.05))
                 for k in ProcedureKind] + [("bh", "bh")]
        got = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("ONFDR_THREADS", threads)
            got.append(estimate_many(procs, sc, reps=reps, seed=6))
        assert got[1] == got[0] and got[2] == got[0]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_summaries_match_a_serial_recomposition(self, monkeypatch,
                                                    threads):
        # N=10, pi1=0.15: about a third of the replicates have no non-null
        monkeypatch.setenv("ONFDR_THREADS", threads)
        sc = MixtureScenario(N=10, pi1=0.15, rho=0.5, alpha=0.2)
        procs = [("lord++", default_config(ProcedureKind.LORDPP, alpha=0.2)),
                 ("bh", "bh"), ("unc", "uncorrected")]
        reps, seed = 70, 3
        got = estimate_many(procs, sc, reps=reps, seed=seed)
        for (label, proc), res in zip(procs, got):
            fdps, powers = [], []
            for r in range(reps):
                p, truth = gen_mixture(sc, np.random.SeedSequence((seed, r)))
                if isinstance(proc, str):
                    offline = baselines.bh if proc == "bh" else baselines.uncorrected
                    decisions = offline(p, sc.alpha).rejected_indices
                    decisions = [i + 1 in decisions for i in range(len(p))]
                else:
                    decisions = [rec.rejected for rec in run_stream(proc, p)]
                fdp, power = baselines.score(decisions, truth)
                fdps.append(fdp)
                if power is not None:
                    powers.append(power)
            assert 0 < len(powers) < reps
            assert (res.label, res.reps, res.power_reps) == (label, reps, len(powers))
            assert res.fdr == float(np.mean(fdps))
            assert res.fdr_se == float(np.std(fdps, ddof=1) / math.sqrt(reps))
            assert res.power == float(np.mean(powers))
            assert res.power_se == float(np.std(powers, ddof=1)
                                         / math.sqrt(len(powers)))

    def test_one_replicate_has_zero_se(self):
        sc = MixtureScenario(N=10, pi1=1.0, rho=0.5)
        for res in estimate_many([("lond", default_config(ProcedureKind.LOND_INDEP)),
                                  ("bh", "bh")], sc, reps=1, seed=4):
            assert res.fdr_se == 0.0 and res.power_se == 0.0
            assert res.reps == res.power_reps == 1

    def test_global_null(self):
        sc = MixtureScenario(N=100, pi1=0.0, rho=0.5)
        cfg = default_config(ProcedureKind.LORDPP, alpha=0.05)
        res = estimate(cfg, sc, reps=300, seed=4)
        assert res.power is None and res.power_reps == 0
        assert res.fdr <= 0.05 + 3 * res.fdr_se

    def test_estimate_many_shares_data(self):
        sc = MixtureScenario(N=80, pi1=0.3, rho=0.5)
        cfg = default_config(ProcedureKind.LORD2, alpha=0.05)
        alone = estimate(cfg, sc, reps=50, seed=9)
        paired = estimate_many(
            [("lord2", cfg), ("unc", "uncorrected")], sc, reps=50, seed=9)
        assert paired[0].fdr == alone.fdr and paired[0].power == alone.power
        assert paired[1].label == "unc"
        assert paired[1].power >= paired[0].power  # uncorrected dominates

    def test_offline_rules_supported(self):
        sc = MixtureScenario(N=60, pi1=0.2, rho=0.5)
        res = estimate_many([("bh", "bh"), ("adj", "bh-adjusted")],
                            sc, reps=40, seed=2)
        assert res[0].power >= res[1].power  # adjusted BH is more conservative

    @pytest.mark.parametrize("value,expected", [("3", 3), (" 2 ", 2),
                                                ("64", 64)])
    def test_worker_count_from_env(self, monkeypatch, value, expected):
        monkeypatch.setenv("ONFDR_THREADS", value)
        assert worker_count() == expected

    @pytest.mark.parametrize("value", ["", "abc", "0", "-2", "1.5", "2x"])
    def test_worker_count_rejects_bad_env(self, monkeypatch, value):
        monkeypatch.setenv("ONFDR_THREADS", value)
        with pytest.raises(ValueError, match="ONFDR_THREADS"):
            worker_count()

    def test_rejects_bad_reps(self):
        sc = MixtureScenario(N=10, pi1=0.1)
        cfg = default_config(ProcedureKind.LORD2, alpha=0.05)
        with pytest.raises(ValueError):
            estimate(cfg, sc, reps=0, seed=1)


def _no_children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TwoArgError(Exception):
    """Pickles, but unpickling calls it with its one message argument."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


class TestForkedShares:
    """Two workers on 64 replicates: this process computes the task at
    ``lo = 0`` and one forked child the task at ``lo = 32``."""

    SCENARIO = MixtureScenario(N=20, pi1=0.3, rho=0.5)

    def before_task_in(self, monkeypatch, where, action):
        """Run ``action()`` before each task that this process
        (``where="parent"``) or the child computes."""
        chunk, pid = scenarios._replicate_chunk, os.getpid()

        def acting_chunk(args):
            if (os.getpid() == pid) == (where == "parent"):
                action()
            return chunk(args)

        monkeypatch.setattr(scenarios, "_replicate_chunk", acting_chunk)
        monkeypatch.setenv("ONFDR_THREADS", "2")

    def fail_in(self, monkeypatch, where, exc):
        def fail():
            raise exc

        self.before_task_in(monkeypatch, where, fail)

    def run(self):
        return estimate_many([("bh", "bh")], self.SCENARIO, reps=64, seed=2)

    def test_no_child_outlives_a_call(self, monkeypatch):
        monkeypatch.setenv("ONFDR_THREADS", "2")
        self.run()
        assert _no_children_left()

    def test_child_exception_raised_with_its_type_and_message(self,
                                                              monkeypatch):
        self.fail_in(monkeypatch, "child", KeyError("no such arm"))
        with pytest.raises(KeyError, match="no such arm"):
            self.run()
        assert _no_children_left()

    def test_unpicklable_child_exception_arrives_as_runtime_error(
            self, monkeypatch):
        class LocalError(Exception):   # a local class does not pickle
            pass

        self.fail_in(monkeypatch, "child", LocalError("cannot travel"))
        with pytest.raises(RuntimeError, match="LocalError: cannot travel"):
            self.run()
        assert _no_children_left()

    def test_exception_that_does_not_unpickle_arrives_as_runtime_error(
            self, monkeypatch):
        self.fail_in(monkeypatch, "child", TwoArgError("one", "two"))
        with pytest.raises(RuntimeError, match="TwoArgError: one and two"):
            self.run()
        assert _no_children_left()

    @pytest.mark.parametrize("exc", [ValueError("in the parent's share"),
                                     KeyboardInterrupt()],
                             ids=["error", "interrupt"])
    def test_parent_failure_reaps_the_children(self, monkeypatch, exc):
        self.fail_in(monkeypatch, "parent", exc)
        with pytest.raises(type(exc)):
            self.run()
        assert _no_children_left()

    def test_parent_failure_kills_a_child_still_computing(self, monkeypatch):
        self.before_task_in(monkeypatch, "child", lambda: time.sleep(60))
        self.fail_in(monkeypatch, "parent", ValueError("in the parent's share"))
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="in the parent's share"):
            self.run()
        assert time.perf_counter() - t0 < 30
        assert _no_children_left()

    def test_child_that_dies_without_results_is_an_error(self, monkeypatch):
        self.before_task_in(monkeypatch, "child", lambda: os._exit(7))
        with pytest.raises(RuntimeError, match="status 7 and sent no results"):
            self.run()
        assert _no_children_left()
