import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onfdr.baselines import (
    bh,
    bh_adjusted,
    offline_rows,
    score,
    uncorrected,
)

grid_pvalues = st.lists(
    st.integers(0, 100).map(lambda k: k / 100), min_size=1, max_size=8)


def bh_bruteforce(pvalues, alpha):
    """Try every cutoff rank directly and keep the largest admissible one."""
    n = len(pvalues)
    ordered = sorted(pvalues)
    best = 0
    for rank in range(1, n + 1):
        if ordered[rank - 1] <= rank * alpha / n:
            best = rank
    if best == 0:
        return frozenset()
    thr = ordered[best - 1]
    return frozenset(i + 1 for i, p in enumerate(pvalues) if p <= thr)


class TestBH:
    def test_worked_example(self):
        res = bh([0.01, 0.02, 0.04, 0.9], 0.05)
        assert res.rejected_indices == {1, 2}
        assert res.threshold == 0.02

    def test_all_ones(self):
        assert bh([1.0] * 6, 0.05).rejected_indices == frozenset()

    def test_single_pvalue(self):
        assert bh([0.04], 0.05).rejected_indices == {1}

    def test_empty(self):
        res = bh([], 0.05)
        assert res.rejected_indices == frozenset() and res.threshold == 0.0

    def test_threshold_tie_included(self):
        res = bh([0.025, 0.025], 0.05)
        assert res.rejected_indices == {1, 2}

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            bh([0.5, 1.2], 0.05)

    @settings(max_examples=300, deadline=None)
    @given(p=grid_pvalues)
    def test_matches_bruteforce(self, p):
        assert bh(p, 0.05).rejected_indices == bh_bruteforce(p, 0.05)

    @settings(max_examples=100, deadline=None)
    @given(p=grid_pvalues, data=st.data())
    def test_lowering_a_pvalue_grows_rejections(self, p, data):
        idx = data.draw(st.integers(0, len(p) - 1))
        newval = data.draw(st.floats(0, p[idx], allow_nan=False))
        lowered = list(p)
        lowered[idx] = newval
        assert bh(p, 0.05).rejected_indices <= bh(lowered, 0.05).rejected_indices


class TestBHAdjusted:
    def test_single_matches_bh(self):
        p = [0.03]
        assert bh_adjusted(p, 0.05) == bh(p, 0.05)

    def test_worked_example_no_rejection(self):
        # harmonic sum 25/12 shrinks alpha to 0.024; no rank passes
        res = bh_adjusted([0.01, 0.02, 0.04, 0.9], 0.05)
        assert res.rejected_indices == frozenset()

    def test_all_zero(self):
        res = bh_adjusted([0.0, 0.0, 0.0], 0.05)
        assert res.rejected_indices == {1, 2, 3}

    @settings(max_examples=100, deadline=None)
    @given(p=grid_pvalues)
    def test_subset_of_bh(self, p):
        assert bh_adjusted(p, 0.05).rejected_indices <= bh(p, 0.05).rejected_indices


@pytest.mark.parametrize("rule", [bh, bh_adjusted, uncorrected])
@pytest.mark.parametrize("pvalues,bad", [
    ([float("nan"), 0.01], "nan"),
    ([0.01, 2.0], "2.0"),
    ([0.2, 0.3, -1.0], "-1.0"),
    ([float("nan"), 2.0, -1.0], "nan"),
    (np.array([0.5, np.inf]), "inf"),
    ([0.5, np.nextafter(1.0, 2.0)], "1.0000000000000002"),
    ([-5e-324, 0.5], "-5e-324"),
    ([0.5, 0.2, float("-inf")], "-inf"),
])
def test_offline_rules_reject_invalid_pvalues(rule, pvalues, bad):
    with pytest.raises(ValueError, match=re.escape(f"got {bad} at index")):
        rule(pvalues, 0.05)


@pytest.mark.parametrize("rule", [bh, bh_adjusted, uncorrected])
@pytest.mark.parametrize("pvalues", [
    [[0.01, 0.2], [0.5, 0.03]], np.full((2, 3), 0.5), np.array(0.5),
    [[0.01]]])
def test_offline_rules_refuse_a_matrix(rule, pvalues):
    with pytest.raises(ValueError,
                       match="p-values must form a one-dimensional sequence"):
        rule(pvalues, 0.05)


class TestUncorrected:
    def test_strict_boundary(self):
        res = uncorrected([0.049, 0.05, 0.051], 0.05)
        assert res.rejected_indices == {1}

    def test_empty(self):
        assert uncorrected([], 0.05).rejected_indices == frozenset()

    def test_exact_alpha_not_rejected(self):
        assert uncorrected([0.05], 0.05).rejected_indices == frozenset()

    @settings(max_examples=100, deadline=None)
    @given(p=grid_pvalues)
    def test_superset_of_bh(self, p):
        # uncorrected uses strict <, BH inclusive <=; compare on the interior
        unc = uncorrected(p, 0.0500001).rejected_indices
        assert bh(p, 0.05).rejected_indices <= unc


class TestScore:
    def test_no_rejections_guard(self):
        fdp, power = score([False, False], [True, False])
        assert fdp == 0.0 and power == 0.0

    def test_mixed(self):
        fdp, power = score([True, True, True, True],
                           [False, False, True, True])
        assert fdp == 0.5 and power == 1.0

    def test_power_missing_without_nonnulls(self):
        fdp, power = score([True, False], [False, False])
        assert fdp == 1.0 and power is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            score([True], [True, False])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_permutation_equivariance(self, data):
        n = data.draw(st.integers(1, 12))
        decisions = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        truth = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        perm = data.draw(st.permutations(range(n)))
        base = score(decisions, truth)
        shuffled = score([decisions[i] for i in perm], [truth[i] for i in perm])
        assert base == shuffled

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_arrays_equal_lists(self, data):
        n = data.draw(st.integers(0, 40))
        decisions = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        truth = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        as_lists = score(decisions, truth)
        assert score(np.array(decisions, dtype=bool),
                     np.array(truth, dtype=bool)) == as_lists
        assert score(iter(decisions), (t for t in truth)) == as_lists
        v = sum(d and not t for d, t in zip(decisions, truth))
        r, m1 = sum(decisions), sum(truth)
        assert as_lists == (v / max(r, 1), (r - v) / m1 if m1 else None)


class TestMask:
    @settings(max_examples=100, deadline=None)
    @given(p=grid_pvalues, rule=st.sampled_from([bh, bh_adjusted, uncorrected]))
    def test_flags_the_rejected_indices(self, p, rule):
        res = rule(p, 0.2)
        flags = res.rejected
        assert flags.dtype == bool and len(flags) == len(p)
        assert not flags.flags.writeable
        # hypothesis i is flagged when p_i is inside the rule's cutoff
        inside = np.less if rule is uncorrected else np.less_equal
        assert flags.tolist() == inside(p, res.threshold).tolist()
        assert set((np.flatnonzero(flags) + 1).tolist()) == res.rejected_indices
        assert res.n_rejected == len(res.rejected_indices)

    def test_equal_flags_and_threshold_are_one_value(self):
        a, b = bh([0.01, 0.5], 0.05), bh(np.array([0.01, 0.5]), 0.05)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != uncorrected([0.01, 0.5], 0.05)   # same flags, other cutoff
        assert a != bh([0.01, 0.5, 0.9], 0.05)


class TestBHAdjustedLevel:
    @settings(max_examples=100, deadline=None)
    @given(p=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1,
                      max_size=40),
           alpha=st.floats(0.001, 0.5))
    def test_is_bh_at_the_harmonic_level(self, p, alpha):
        harmonic = float(np.sum(1.0 / np.arange(1, len(p) + 1)))
        assert bh_adjusted(p, alpha) == bh(p, alpha / harmonic)

    @pytest.mark.parametrize("rule", [bh, bh_adjusted])
    def test_empty(self, rule):
        res = rule([], 0.05)
        assert res.rejected.shape == (0,) and res.threshold == 0.0


class TestRows:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 5), n=st.integers(1, 30), seed=st.integers(0, 999),
           rule=st.sampled_from(["bh", "bh-adjusted", "uncorrected"]))
    def test_offline_rows_are_the_rules(self, rows, n, seed, rule):
        rng = np.random.default_rng(seed)
        p = np.where(rng.random((rows, n)) < 0.5, rng.random((rows, n)) * 0.01,
                     rng.random((rows, n)))
        p[0, : n // 2] = 0.0
        got = offline_rows(rule, p, 0.05)
        one = {"bh": bh, "bh-adjusted": bh_adjusted,
               "uncorrected": uncorrected}[rule]
        for r in range(rows):
            np.testing.assert_array_equal(got[r], one(p[r], 0.05).rejected)

    def test_score_per_row(self):
        decisions = np.array([[True, True, False], [False, False, False],
                              [True, False, True]])
        truth = np.array([[True, False, False], [False, False, False],
                          [True, True, True]])
        fdp, power = score(decisions, truth)
        for r in range(3):
            want = score(decisions[r], truth[r])
            assert fdp[r] == want[0]
            assert (np.isnan(power[r]) if want[1] is None
                    else power[r] == want[1])
