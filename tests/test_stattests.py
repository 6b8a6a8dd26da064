import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onfdr import stattests
from onfdr.stattests import (
    TwoByTwoTable,
    fisher_exact_greater,
    pvalue_one_sided,
    pvalue_two_sided,
)


def hypergeom_tail_oracle(a, b, c, d):
    """Exact-integer enumeration of P(X >= a) with both margins fixed."""
    r1, r2 = a + b, c + d
    k, n = a + c, a + b + c + d
    num = sum(math.comb(r1, x) * math.comb(r2, k - x)
              for x in range(a, min(k, r1) + 1))
    return num / math.comb(n, k)


class TestPValues:
    def test_zero_statistic(self):
        assert pvalue_one_sided(0.0) == 0.5
        assert pvalue_two_sided(0.0) == 1.0

    def test_signal_scale(self):
        # sqrt(log 1000) ~ 2.63
        assert pvalue_one_sided(2.63) == pytest.approx(0.00427, abs=5e-6)

    @settings(max_examples=100, deadline=None)
    @given(z=st.floats(-8, 8, allow_nan=False))
    def test_two_sided_symmetry(self, z):
        assert pvalue_two_sided(z) == pvalue_two_sided(-z)

    @settings(max_examples=100, deadline=None)
    @given(z=st.floats(-8, 8, allow_nan=False))
    def test_one_sided_complement(self, z):
        total = pvalue_one_sided(z) + pvalue_one_sided(-z)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_clamped(self):
        assert 0.0 <= pvalue_one_sided(45.0) <= 1.0
        assert pvalue_two_sided(-50.0) <= 1.0


class TestFisherExact:
    def test_total_probability_at_zero(self):
        assert fisher_exact_greater(TwoByTwoTable(0, 7, 3, 5)) == 1.0

    def test_perfect_separation(self):
        p = fisher_exact_greater(TwoByTwoTable(5, 0, 0, 5))
        assert p == pytest.approx(1 / 252, rel=1e-12)

    def test_kidney_strongest_arm_regression(self):
        # treatment 17/20 vs control 14/32; frozen from the integer oracle
        table = TwoByTwoTable(17, 3, 14, 18)
        oracle = hypergeom_tail_oracle(17, 3, 14, 18)
        assert fisher_exact_greater(table) == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(0.003167231127308848, rel=1e-12)

    def test_degenerate_margins(self):
        assert fisher_exact_greater(TwoByTwoTable(0, 0, 3, 5)) == 1.0
        assert fisher_exact_greater(TwoByTwoTable(0, 4, 0, 5)) == 1.0

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TwoByTwoTable(-1, 2, 3, 4)
        with pytest.raises(ValueError, match="nonnegative"):
            TwoByTwoTable(1, 2, 3, np.int64(-4))

    @pytest.mark.parametrize("count", [1.5, 2.0, np.float64(2.0), True,
                                       np.bool_(True), "2", None])
    def test_rejects_counts_that_are_not_integers(self, count):
        with pytest.raises(ValueError, match="integers"):
            TwoByTwoTable(1, 2, 3, count)
        with pytest.raises(ValueError, match="integers"):
            TwoByTwoTable(count, 2, 3, 4)

    def test_table_is_a_frozen_value(self):
        table = TwoByTwoTable(7, 13, 9, 23)
        assert table == TwoByTwoTable(7, 13, 9, 23) != TwoByTwoTable(7, 13, 9, 22)
        assert hash(table) == hash(TwoByTwoTable(7, 13, 9, 23))
        assert repr(table) == "TwoByTwoTable(a=7, b=13, c=9, d=23)"
        assert dataclasses.astuple(table) == (7, 13, 9, 23)
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.a = 8
        assert dataclasses.replace(table, a=8) == TwoByTwoTable(8, 13, 9, 23)
        with pytest.raises(ValueError, match="integers"):
            dataclasses.replace(table, d=2.5)

    def test_numpy_integer_counts(self):
        counts = np.array([7, 13, 9, 23])
        table = TwoByTwoTable(*counts)
        assert table == TwoByTwoTable(7, 13, 9, 23)
        assert fisher_exact_greater(table) == \
            fisher_exact_greater(TwoByTwoTable(7, 13, 9, 23))

    def test_monotone_in_successes(self):
        margins = (12, 20)  # row sums
        k = 10
        prev = 1.1
        for a in range(0, min(k, margins[0]) + 1):
            c = k - a
            if c > margins[1]:
                continue
            p = fisher_exact_greater(
                TwoByTwoTable(a, margins[0] - a, c, margins[1] - c))
            assert p <= prev + 1e-15
            prev = p

    def test_oracle_agreement_small_margins(self):
        for r1 in range(1, 13):
            for r2 in range(1, 13):
                for a in range(r1 + 1):
                    for c in range(r2 + 1):
                        got = fisher_exact_greater(
                            TwoByTwoTable(a, r1 - a, c, r2 - c))
                        want = hypergeom_tail_oracle(a, r1 - a, c, r2 - c)
                        assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_oracle_agreement_random(self, data):
        r1 = data.draw(st.integers(1, 60), label="r1")
        r2 = data.draw(st.integers(1, 60), label="r2")
        a = data.draw(st.integers(0, r1), label="a")
        c = data.draw(st.integers(0, r2), label="c")
        got = fisher_exact_greater(TwoByTwoTable(a, r1 - a, c, r2 - c))
        want = hypergeom_tail_oracle(a, r1 - a, c, r2 - c)
        assert got == pytest.approx(want, abs=1e-12)


# log(m!) for the reference, up to the largest margins tested (1100 + 1100)
LOG_FACTORIAL = [math.lgamma(m + 1) for m in range(2201)]


def fisher_reference_tails(r1, r2, k):
    """``{a: P(X >= a)}`` for every ``a`` of the support of margin
    (r1, r2, k) past its lower end, by the formula the exact test used
    before its margin cache: one list comprehension of log masses, then
    ``max``, a shifted ``exp`` and a ``sum`` over each tail.  The log
    masses do not depend on ``a``, so the list is formed once per margin."""
    n = r1 + r2
    lo, hi = max(0, k - r2), min(k, r1)
    lf = LOG_FACTORIAL
    log_total = lf[n] - lf[k] - lf[n - k]
    terms = [
        (lf[r1] - lf[x] - lf[r1 - x]) + (lf[r2] - lf[k - x] - lf[r2 - k + x])
        - log_total
        for x in range(lo, hi + 1)
    ]
    tails = {}
    for a in range(lo + 1, hi + 1):
        log_masses = np.array(terms[a - lo:])
        shift = log_masses.max()
        p = math.exp(shift) * float(np.exp(log_masses - shift).sum())
        tails[a] = min(max(p, 0.0), 1.0)
    return tails


def reference_pvalue(tails, a, b, c, d):
    """The p-value of table (a, b, c, d) from its margin's reference tails,
    with the early returns of the exact test."""
    if TwoByTwoTable(a, b, c, d).degenerate:
        return 1.0
    return 1.0 if a <= max(0, a - d) else tails[a]   # a - d = k - r2


@pytest.fixture(scope="module")
def small_margin_tables():
    """Every table with both row sums <= 40, grouped by margin, with its
    reference p-value."""
    tables, want = [], []
    for r1 in range(41):
        for r2 in range(41):
            for k in range(r1 + r2 + 1):
                tails = fisher_reference_tails(r1, r2, k)
                for a in range(max(0, k - r2), min(k, r1) + 1):
                    t = (a, r1 - a, k - a, r2 - (k - a))
                    tables.append(t)
                    want.append(reference_pvalue(tails, *t))
    return tables, want


class TestFisherMarginCache:
    """The cached exact test returns the reference formula's floats bit for
    bit, whatever the order of calls and the state of the cache."""

    def test_every_small_table_cold_then_warm(self, small_margin_tables):
        # in margin order the first table of a margin builds it and the
        # rest read it
        tables, want = small_margin_tables
        stattests._margin.cache_clear()
        got = [fisher_exact_greater(TwoByTwoTable(*t)) for t in tables]
        assert got == want

    def test_every_small_table_shuffled(self, small_margin_tables):
        tables, want = small_margin_tables
        order = list(range(len(tables)))
        random.Random(9).shuffle(order)
        stattests._margin.cache_clear()
        got = [fisher_exact_greater(TwoByTwoTable(*tables[i])) for i in order]
        assert got == [want[i] for i in order]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_large_margins(self, data):
        r1 = data.draw(st.integers(1, 400), label="r1")
        r2 = data.draw(st.integers(1, 400), label="r2")
        a = data.draw(st.integers(0, r1), label="a")
        c = data.draw(st.integers(0, r2), label="c")
        tails = fisher_reference_tails(r1, r2, a + c)
        got = fisher_exact_greater(TwoByTwoTable(a, r1 - a, c, r2 - c))
        assert got == reference_pvalue(tails, a, r1 - a, c, r2 - c)

    def test_wide_margin_built_per_call(self):
        # a support wider than the cache admits is built per call, not kept
        stattests._margin.cache_clear()
        tails = fisher_reference_tails(1100, 1100, 1100)
        for a in (1, 540, 550, 560, 1100):
            t = (a, 1100 - a, 1100 - a, a)
            assert fisher_exact_greater(TwoByTwoTable(*t)) == \
                reference_pvalue(tails, *t)
        assert stattests._margin.cache_info().currsize == 0

    def test_cached_values_are_read_only(self):
        fisher_exact_greater(TwoByTwoTable(7, 13, 9, 23))
        terms, tails, suffix_max = stattests._margin(20, 32, 16)
        assert isinstance(tails, tuple) and isinstance(suffix_max, tuple)
        log_masses, tails, _ = stattests._margin(60, 60, 60)
        assert tails is None
        for array in (terms, log_masses, stattests._log_binom_row(20)):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_entries_keep_at_most_the_term_budget(self):
        budget = stattests._MARGIN_CACHE_TERMS
        for size in (1, 2, 21, 44, 45, 46, 300, budget):
            values, tails, suffix_max = stattests._margin(size - 1, size - 1,
                                                          size - 1)
            assert len(suffix_max) == size
            assert values.size <= budget
            # support 44 keeps its 44 * 45 / 2 = 990 terms, 45 its masses
            assert (tails is None) == (size > 44)
            assert values.size == (size if tails is None
                                   else size * (size + 1) // 2)

    def test_kept_terms_equal_each_tail_formed_alone(self, monkeypatch):
        # with no term budget the entry is the margin's log masses
        margins = [(size - 1, r2, k)
                   for size in range(1, 45)
                   for r2 in (size - 1, size + 20)
                   for k in (size - 1, (size - 1 + r2) // 2, r2)]
        margins += [(30, 1000, 500), (40, 3, 20), (43, 900, 43)]
        for r1, r2, k in margins:
            terms, tails, suffix_max = stattests._margin_masses(r1, r2, k)
            with monkeypatch.context() as m:
                m.setattr(stattests, "_MARGIN_CACHE_TERMS", 0)
                log_masses, none, suffix_max_alone = \
                    stattests._margin_masses(r1, r2, k)
            assert none is None and suffix_max == suffix_max_alone
            assert len(tails) == len(log_masses) <= 44
            for j, tail in enumerate(tails):
                alone = np.exp(log_masses[j:] - suffix_max[j])
                assert terms[tail].tobytes() == alone.tobytes()

    def test_cache_stays_bounded(self):
        info = stattests._margin.cache_info()
        for k in range(1, info.maxsize + 60):
            fisher_exact_greater(TwoByTwoTable(1, 400, k, 400))
        info = stattests._margin.cache_info()
        assert info.currsize <= info.maxsize
        assert stattests._log_binom_row.cache_info().currsize <= \
            stattests._log_binom_row.cache_info().maxsize
