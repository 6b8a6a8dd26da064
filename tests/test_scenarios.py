import hashlib
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
        p3, t3 = gen_mixture(sc, np.int64(7))   # numpy integers are integers
        assert np.array_equal(p1, p3) and np.array_equal(t1, t3)

    @pytest.mark.parametrize("gen, sc", [
        (gen_mixture, MixtureScenario(N=10, pi1=0.3)),
        (gen_platform, PlatformTrialScenario(K=5))],
        ids=["mixture", "platform"])
    @pytest.mark.parametrize("seed, message", [
        (7.9, "seed must be an integer, got 7.9"),
        (7.0, "seed must be an integer, got 7.0"),
        (True, "seed must be an integer, got True"),
        ("3", "seed must be an integer, got '3'"),
        (np.float64(2.0), "seed must be an integer, got np.float64(2.0)"),
        (-1, "seed must be >= 0, got -1"),
        (np.int64(-2), "seed must be >= 0, got -2")])
    def test_bad_seed_refused(self, gen, sc, seed, message):
        # int() ran 7.9 as 7, True as 1 and "3" as 3
        with pytest.raises(ValueError, match=re.escape(message)):
            gen(sc, seed)

    def test_null_uniformity(self):
        sc = MixtureScenario(N=10_000, pi1=0.0, rho=0.0,
                             alternative=MixtureAlternative.CONSTANT)
        p, truth = gen_mixture(sc, 123)
        assert not truth.any()
        assert stats.kstest(p, "uniform").pvalue > 1e-3

    def test_factor_model_correlation(self):
        # one generator for every row: its draws run row after row
        draws = equicorrelated_normal(2, 0.5,
                                      [np.random.default_rng(99)] * 100_000)
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
        (tau,), (z,), (nonnull,) = _platform_draw(sc, [rng])
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
        rngs = [CountingRng(np.random.default_rng(r)) for r in range(20)]
        _, z, _ = _platform_draw(sc, rngs)
        assert np.isfinite(z).all()
        assert sum(rng.binomial_calls > 1 for rng in rngs) >= 10

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

        # and the 25 replicates drawn as one matrix, row r by generator r
        sc = PlatformTrialScenario(K=K, N_target=N_target, pi=0.5)
        got_rngs = [np.random.default_rng(seed) for seed in range(25)]
        got = _platform_draw(sc, got_rngs)
        for seed, got_rng in enumerate(got_rngs):
            want_rng = np.random.default_rng(seed)
            want = per_arm(sc, want_rng)
            for w, g in zip(want, got):
                np.testing.assert_array_equal(g[seed], w, strict=True)
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


# sha256 of the (p, truth) bytes of replicates (2026, 0), (2026, 1), ...
# as the per-replicate generators drew them: a change to any draw, its
# order or the arithmetic after it changes one of these
STREAM_DIGESTS = {
    "gaussian-0.0-1":
        "10fd34587408a55836cafa577f9c604876efe85589f806cc0aef7ccb545ef3a7",
    "gaussian-0.0-7":
        "66c584678cb7fb18cd2201f982a40a9fea06943e3aee4cee52b1172eab53d38a",
    "gaussian-0.0-100":
        "12a27400a45468baacbf39e6d6f6f0d2761736f5bcaee80c8aecd88aefa07bf9",
    "gaussian-0.3-1":
        "5d788f1def8a0c9a3db5b0d11ffc73915c81dc77b7b138405729ac0223a28aee",
    "gaussian-0.3-7":
        "b8ae6a2983700faf3db246654dc06e79d5c805aa55082816a01a34f8d5aabb17",
    "gaussian-0.3-100":
        "d0f1c5ef78dd38e50759ac579f776c124092617bd3cd6aeb98e09b47c12991dd",
    "gaussian-1.0-1":
        "cdb3f545d5b2612dccadb3afd761c2b2cb41acc1b7c8d2369894a06781d024fb",
    "gaussian-1.0-7":
        "45901163edf2017bf70bf86d201d05ee1a421d186ac39e828137467571634588",
    "gaussian-1.0-100":
        "6ea6363aff1f9e8d73713f7f82dabbd72c75c13b34f57cf1503325f9d74d9d3f",
    "exponential-0.0-1":
        "30702cd596328a24761df6d7f3c9b4bbbebfaeafec8341c6d1c0bbccc07b1907",
    "exponential-0.0-7":
        "e2a14a3fe3d1f201a833cc6b1a225522b6cc9495a42884c50850e3ab33617c7a",
    "exponential-0.0-100":
        "4692c408e8cf589159c7874ed29a2e841f211054d86e2efb1905a9e7ecffcfdc",
    "exponential-0.3-1":
        "830ac4618d3150ead313a49a43b9765d52cab0a63ef988257dbd5420c7ad9a1c",
    "exponential-0.3-7":
        "219f7f42ecd6f7aa28fd01bbc7ffc056d51bff47fd3b084c7afe8da2c52fd2a1",
    "exponential-0.3-100":
        "01227e12f71445fd7113313f544464d8fc32371582f6bd7280e08469234cc385",
    "exponential-1.0-1":
        "678cdb53449ea43ca076c9cd62b4a1f06f68c9c885cc858ee11c6f49d3794e0d",
    "exponential-1.0-7":
        "f6f9a078ddfe92ccca99878b1fdb8c30f720cb16ffae2e7fcbbedd37e07c69f6",
    "exponential-1.0-100":
        "2791313dc1e235f60797bb679610a5d2171d2ab07cbfb2ab7b626ebdb2e19492",
    "constant-0.0-1":
        "30702cd596328a24761df6d7f3c9b4bbbebfaeafec8341c6d1c0bbccc07b1907",
    "constant-0.0-7":
        "e2a14a3fe3d1f201a833cc6b1a225522b6cc9495a42884c50850e3ab33617c7a",
    "constant-0.0-100":
        "4692c408e8cf589159c7874ed29a2e841f211054d86e2efb1905a9e7ecffcfdc",
    "constant-0.3-1":
        "49a36a08c9180a757ef5c05d4e9d93e99f1af65177a95f75f4cb36e72aad8b42",
    "constant-0.3-7":
        "dc577e3b8e9d3d3afa31664a07631f837844e94b5360e70dee087a89a0fe473e",
    "constant-0.3-100":
        "33f6f724007797013cfdbea7897e5485344c7519680fc86ff86cb69cf7eda400",
    "constant-1.0-1":
        "502c27fdbe9f603ca5807fb550a99ea6f034d041f46727a6ee318d7842f33b80",
    "constant-1.0-7":
        "37f1f1e908bb34d9c817b229d45931a3a566df942730fdb46cf873d341d8e526",
    "constant-1.0-100":
        "7e596ff6b6e3dd71b9b315b4f5e80b6e9a8a0404cebc494800dd6439d8f5faff",
    "platform-1-70":
        "c65a46d808c73f5e85922ca71da1aac011c7b22bbfe048b59d12fe9b5fc88ee6",
    "platform-10-70":
        "a4f353af0a36d3a7255110b0be0253693a25ce0801c958c08e28250e1e3f3120",
    "platform-25-70":
        "81526be5f68f226ba4effb77e9cc3aa6820dc03adb3d660ad092c93f1fb78368",
    "platform-25-1":
        "fab14783776bf422202ecc9fd88379d251a9c697febf336bab43a5a0c8c9945f",
    "platform-1-5":
        "b1b7f84ec46039a76e0bdc892cc09b6023bfc700e8681caf1a98d14d823d8915",
}
ESTIMATE_DIGEST = \
    "57a45f7e66c3ab06b52d4210a9145f15c07bc3d2ce7379f603ab11ba0331a32d"


def _stream_digest(scenario, rows) -> str:
    """sha256 over ``rows`` replicates of (p, truth) bytes, each drawn alone
    by the public generator; asserts the rows drawn as one matrix are the
    same bytes."""
    gen = gen_mixture if isinstance(scenario, MixtureScenario) else gen_platform
    seeds = [np.random.SeedSequence((2026, r)) for r in range(rows)]
    alone, stacked = hashlib.sha256(), hashlib.sha256()
    matrices = scenarios._generate(
        scenario, [np.random.default_rng(ss) for ss in seeds])
    for ss, p_row, truth_row in zip(seeds, *matrices):
        p, truth = gen(scenario, ss)
        alone.update(p.tobytes() + truth.tobytes())
        stacked.update(p_row.tobytes() + truth_row.tobytes())
    assert stacked.hexdigest() == alone.hexdigest()
    return alone.hexdigest()


class TestPinnedStreams:
    @pytest.mark.parametrize("N", [1, 7, 100])
    @pytest.mark.parametrize("pi1", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("alt", [a.value for a in MixtureAlternative])
    def test_mixture(self, alt, pi1, N):
        sc = MixtureScenario(N=N, pi1=pi1, rho=0.5,
                             alternative=MixtureAlternative(alt))
        assert _stream_digest(sc, 4) == STREAM_DIGESTS[f"{alt}-{pi1}-{N}"]

    # N_target = 1 leaves most 25-arm replicates an empty arm to redraw
    @pytest.mark.parametrize("K, N_target", [
        (1, 70), (10, 70), (25, 70), (25, 1), (1, 5)])
    def test_platform(self, K, N_target):
        sc = PlatformTrialScenario(K=K, N_target=N_target, pi=0.3)
        assert _stream_digest(sc, 8) == STREAM_DIGESTS[
            f"platform-{K}-{N_target}"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_estimate_many(self, monkeypatch, forking, threads):
        monkeypatch.setenv("ONFDR_THREADS", threads)
        procs = [(k.value, default_config(k, alpha=0.1))
                 for k in ProcedureKind]
        procs += [("bh", "bh"), ("unc", "uncorrected")]
        got = estimate_many(procs, MixtureScenario(N=30, pi1=0.2, rho=0.5,
                                                   alpha=0.1), 150, 8)
        got += estimate_many(procs[:3], PlatformTrialScenario(
            K=6, N_target=20, pi=0.2), 150, 8)
        key = [(r.label, r.fdr, r.fdr_se, r.power, r.power_se, r.reps,
                r.power_reps) for r in got]
        assert hashlib.sha256(repr(key).encode()).hexdigest() == \
            ESTIMATE_DIGEST


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

    @pytest.mark.parametrize("name", ["n0", "n_arm"])
    @pytest.mark.parametrize("size", [0, -3, 2.5, 20.0, True, "20", None])
    def test_invalid_group_size(self, name, size):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            KidneyTrialScenario(**{name: size})

    def test_numpy_integer_group_sizes(self):
        sc = KidneyTrialScenario(n0=np.int64(32), n_arm=np.int32(20))
        y0, y = KIDNEY_REALISATIONS[1]
        assert eval_kidney(sc, y0, y) == eval_kidney(KidneyTrialScenario(), y0, y)

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

    def test_negative_seed_refused(self, monkeypatch, forking):
        def no_fork():
            raise AssertionError("a worker was forked")

        # refused before the fork that 100 replicates on two workers make
        monkeypatch.setattr(os, "fork", no_fork)
        sc = MixtureScenario(N=50, pi1=0.2, rho=0.5)
        cfg = default_config(ProcedureKind.LORDPP, alpha=0.05)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            estimate_many([("lord++", cfg)], sc, reps=100, seed=-1)
        # and a count or seed that is not an integer: reps=True ran one
        # replicate, reps=2.5 failed inside range and seed=True ran as 1
        for reps, seed, message in (
                (0, 1, "reps must be >= 1"),
                (True, 1, "reps must be an integer, got True"),
                (100.0, 1, "reps must be an integer, got 100.0"),
                (2.5, 1, "reps must be an integer, got 2.5"),
                (100, True, "seed must be an integer, got True"),
                (100, 1.0, "seed must be an integer, got 1.0"),
                (100, np.float64(3.0),
                 "seed must be an integer, got np.float64(3.0)")):
            with pytest.raises(ValueError, match=re.escape(message)):
                estimate_many([("lord++", cfg)], sc, reps=reps, seed=seed)
        # numpy integers are integers
        assert estimate_many([("lord++", cfg)], sc, reps=np.int64(3),
                             seed=np.int64(2)) == \
            estimate_many([("lord++", cfg)], sc, reps=3, seed=2)

    def test_no_rule_refused_before_the_pool(self, monkeypatch, forking):
        forks = _record_forks(monkeypatch)
        with pytest.raises(ValueError, match="procs must name at least one rule"):
            estimate_many([], MixtureScenario(N=10, pi1=0.1), reps=64, seed=0)
        assert forks == []

    @pytest.mark.parametrize("proc, error, message", [
        ("bhh", ValueError, "x: unknown offline rule 'bhh'"),
        (3, TypeError, "x: expected a ProcedureConfig or an offline rule "
                       "name, got int")])
    def test_unknown_rule_refused_before_the_pool(self, monkeypatch, forking,
                                                  proc, error, message):
        forks = _record_forks(monkeypatch)
        sc = MixtureScenario(N=20, pi1=0.2, rho=0.5)
        with pytest.raises(error, match=re.escape(message)):
            estimate_many([("bh", "bh"), ("x", proc)], sc, reps=64, seed=1)
        assert forks == []
        estimate_many([("bh", "bh")], sc, reps=64, seed=1)
        assert len(forks) == 1   # the same call with a good rule forks

    def test_only_mixture_and_platform_scenarios_generate(self, monkeypatch,
                                                          forking):
        # refused before the fork that 64 replicates on two workers make
        forks = _record_forks(monkeypatch)
        for scenario, name in ((KidneyTrialScenario(), "KidneyTrialScenario"),
                               ("gaussian", "str")):
            with pytest.raises(TypeError,
                               match=f"cannot generate from {name}$"):
                estimate_many([("bh", "bh")], scenario, reps=64, seed=1)
        assert forks == []

    def test_worker_count_invariance(self, monkeypatch, forking):
        sc = MixtureScenario(N=50, pi1=0.2, rho=0.5)
        cfg = default_config(ProcedureKind.LOND_INDEP, alpha=0.05)
        monkeypatch.setenv("ONFDR_THREADS", "1")
        serial = estimate(cfg, sc, reps=80, seed=3)
        monkeypatch.setenv("ONFDR_THREADS", "2")
        parallel = estimate(cfg, sc, reps=80, seed=3)
        assert serial == parallel

    def test_calls_under_the_crossover_run_here(self, monkeypatch):
        # the bench's short cells: 64 replicates of 13 rules at N = 100
        forks = _record_forks(monkeypatch)
        monkeypatch.setenv("ONFDR_THREADS", "2")
        sc = MixtureScenario(N=100, pi1=0.2, rho=0.5)
        procs = [(f"{k.value}-{b}", default_config(k, alpha=0.05, bound=b))
                 for k in (ProcedureKind.LORD2, ProcedureKind.LORD3,
                           ProcedureKind.LORDPP, ProcedureKind.SAFFRON,
                           ProcedureKind.LOND_INDEP, ProcedureKind.BONFERRONI)
                 for b in (None, 100)] + [("bh", "bh")]
        assert 64 * (100 * len(procs) + scenarios._DRAW_WORK) \
            < scenarios._FORK_WORK
        serial = estimate_many(procs, sc, reps=64, seed=2)
        assert forks == []
        monkeypatch.setattr(scenarios, "_FORK_WORK", 0)
        assert estimate_many(procs, sc, reps=64, seed=2) == serial
        assert len(forks) == 1

    @pytest.mark.parametrize("sc", [
        MixtureScenario(N=1000, pi1=0.2, rho=0.5),
        MixtureScenario(N=5, pi1=0.2, rho=0.5),
        PlatformTrialScenario(K=25, pi=0.2)],
        ids=["N1000", "N5", "platform-K25"])
    def test_fork_at_the_crossover(self, monkeypatch, tmp_path, sc):
        # one rule: the fewest replicates whose work reaches the crossover
        # fork, one fewer do not (at N = 5 the work is mostly the draws)
        forks = _record_forks(monkeypatch)
        tasks = _record_tasks(monkeypatch, tmp_path / "tasks")
        monkeypatch.setenv("ONFDR_THREADS", "2")
        n = sc.N if isinstance(sc, MixtureScenario) else sc.K
        at = math.ceil(scenarios._FORK_WORK / (n + scenarios._DRAW_WORK))
        assert at - 1 >= 64
        below = estimate_many([("bh", "bh")], sc, reps=at - 1, seed=4)
        assert forks == []
        assert len({pid for pid, _, _ in tasks()}) == 1
        estimate_many([("bh", "bh")], sc, reps=at, seed=4)
        assert len(forks) == 1
        assert len({pid for pid, _, _ in tasks()}) == 2
        monkeypatch.setenv("ONFDR_THREADS", "1")
        assert estimate_many([("bh", "bh")], sc, reps=at - 1,
                             seed=4) == below
        assert len(forks) == 1

    def test_pool_capped_at_chunks(self, monkeypatch, tmp_path, forking):
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
                                                       forking, scenario):
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

    @pytest.mark.parametrize("threads, fork_work, reps, workers, shares", [
        ("1", 0, 2000, 1, [(0, 2000)]),
        ("2", 0, 2000, 2, [(0, 1000), (1000, 2000)]),
        ("2", None, 300, 1, [(0, 300)]),
        # shares of at most _BATCH: one task per process
        ("2", 0, 256, 2, [(0, 128), (128, 256)]),
        ("3", 0, 301, 3, [(0, 100), (100, 200), (200, 301)])],
        ids=["1", "2", "under-the-crossover", "256-on-two", "301-on-three"])
    def test_no_task_decides_more_than_the_cap(self, monkeypatch, tmp_path,
                                               threads, fork_work, reps,
                                               workers, shares):
        tasks = _record_tasks(monkeypatch, tmp_path / "tasks")
        if fork_work is not None:
            monkeypatch.setattr(scenarios, "_FORK_WORK", fork_work)
        monkeypatch.setenv("ONFDR_THREADS", threads)
        sc = MixtureScenario(N=5, pi1=0.3, rho=0.5)
        estimate_many([("bh", "bh")], sc, reps=reps, seed=1)
        spans = sorted((lo, hi) for _, lo, hi in tasks())
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
        assert spans[-1][1] == reps
        assert max(hi - lo for lo, hi in spans) <= scenarios._BATCH
        assert len({pid for pid, _, _ in tasks()}) == workers
        # each process decides one contiguous share, every task of it but
        # the last full
        ranges = []
        for pid in {pid for pid, _, _ in tasks()}:
            own = sorted((lo, hi) for p, lo, hi in tasks() if p == pid)
            assert [lo for lo, _ in own[1:]] == [hi for _, hi in own[:-1]]
            assert {hi - lo for lo, hi in own[:-1]} <= {scenarios._BATCH}
            ranges.append((own[0][0], own[-1][1]))
        assert sorted(ranges) == shares

    def test_tables_built_before_the_pool(self, monkeypatch, forking):
        # configs are checked and their tables built before the first
        # fork: a refused config raises first, and no process builds one
        # after it (this one's later misses would show; a child's would
        # not, and it inherits the tables built here)
        forks = _record_forks(monkeypatch)
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
    def test_estimates_equal_for_every_worker_count(self, monkeypatch,
                                                    forking, reps):
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
                                                    forking, threads):
        # about a third (mixture) and half (platform) of the replicates
        # have no non-null; the platform's arms take 15-20 outcomes
        monkeypatch.setenv("ONFDR_THREADS", threads)
        for sc in (MixtureScenario(N=10, pi1=0.15, rho=0.5, alpha=0.2),
                   PlatformTrialScenario(K=4, N_target=20, pi=0.15,
                                         alpha=0.2)):
            self.check_recomposition(sc, reps=70, seed=3)

    @staticmethod
    def check_recomposition(sc, reps, seed):
        gen = gen_mixture if isinstance(sc, MixtureScenario) else gen_platform
        procs = [("lord++", default_config(ProcedureKind.LORDPP, alpha=0.2)),
                 ("bh", "bh"), ("unc", "uncorrected")]
        got = estimate_many(procs, sc, reps=reps, seed=seed)
        for (label, proc), res in zip(procs, got):
            fdps, powers = [], []
            for r in range(reps):
                p, truth = gen(sc, np.random.SeedSequence((seed, r)))
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


@pytest.mark.usefixtures("forking")
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

    def fail_in(self, monkeypatch, where, exc):
        def fail():
            raise exc

        self.before_task_in(monkeypatch, where, fail)

    def run(self):
        return estimate_many([("bh", "bh")], self.SCENARIO, reps=64, seed=2)

    def test_no_child_outlives_a_call(self):
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
