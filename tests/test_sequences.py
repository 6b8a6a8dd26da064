import copy
import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onfdr import sequences
from onfdr.sequences import (
    Normalization,
    SequenceError,
    SequenceKind,
    SequenceSpec,
    SequenceTable,
    build_table,
    gamma_jm,
    rebound,
    validate_xi,
    xi_constant_bounded,
)


def xi_spec(kind, bound=None, shape_param=None, alpha=0.05, w0=0.025, b0=0.025):
    return SequenceSpec(kind, Normalization.XI_WEIGHTED, shape_param=shape_param,
                        bound=bound, alpha=alpha, w0=w0, b0=b0)


class TestGammaJM:
    def test_first_coefficient(self):
        # 0.07720838 * log 2
        assert gamma_jm(1) == pytest.approx(0.0535167709126, abs=1e-10)

    def test_second_coefficient(self):
        # 0.07720838 * log 2 / (2 e^sqrt(log 2))
        assert gamma_jm(2) == pytest.approx(0.0116382057829, abs=1e-10)

    def test_nonincreasing(self):
        vals = [gamma_jm(i) for i in range(1, 500)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            gamma_jm(0)


class TestBuildTable:
    def test_uniform_sum_alpha(self):
        spec = SequenceSpec(SequenceKind.UNIFORM, Normalization.SUM_ALPHA,
                            alpha=0.05, bound=10)
        table = build_table(spec)
        assert np.allclose(table.head(10), 0.005, atol=1e-15)

    def test_power_law_xi_constant(self):
        table = build_table(xi_spec(SequenceKind.POWER_LAW, shape_param=2.0))
        assert table.scale_constant / (0.05 / 0.025) == pytest.approx(
            0.387224, abs=1e-5)

    def test_log_power_xi_constant(self):
        table = build_table(xi_spec(SequenceKind.LOG_POWER, shape_param=3.0))
        assert table.scale_constant / (0.05 / 0.025) == pytest.approx(
            0.139307, abs=1e-5)

    def test_inverse_square_sum_one(self):
        spec = SequenceSpec(SequenceKind.INVERSE_SQUARE, Normalization.SUM_ONE)
        table = build_table(spec)
        assert table.coefficient(1) == pytest.approx(6 / math.pi**2, abs=1e-10)

    @pytest.mark.parametrize("kind,param", [
        (SequenceKind.JM_OPTIMAL, None),
        (SequenceKind.INVERSE_SQUARE, None),
        (SequenceKind.POWER_LAW, 2.5),
        (SequenceKind.LOG_POWER, 3.0),
        (SequenceKind.UNIFORM, None),
    ])
    @pytest.mark.parametrize("bound", [1, 7, 100])
    def test_bounded_sum_one_exact(self, kind, param, bound):
        spec = SequenceSpec(kind, Normalization.SUM_ONE, shape_param=param,
                            bound=bound)
        table = build_table(spec)
        assert abs(table.cumulative_sum(bound) - 1.0) <= 1e-10

    def test_bounded_sum_alpha_exact(self):
        spec = SequenceSpec(SequenceKind.JM_OPTIMAL, Normalization.SUM_ALPHA,
                            alpha=0.05, bound=100)
        table = build_table(spec)
        assert abs(table.cumulative_sum(100) - 0.05) <= 1e-10

    def test_unbounded_jm_keeps_published_constant(self):
        spec = SequenceSpec(SequenceKind.JM_OPTIMAL, Normalization.SUM_ONE)
        table = build_table(spec)
        assert table.coefficient(1) == pytest.approx(gamma_jm(1), abs=1e-15)
        assert table.coefficient(137) == pytest.approx(gamma_jm(137), abs=1e-15)

    @pytest.mark.parametrize("kind,param", [
        (SequenceKind.JM_OPTIMAL, None),
        (SequenceKind.POWER_LAW, 2.0),
        (SequenceKind.LOG_POWER, 3.0),
        (SequenceKind.INVERSE_SQUARE, None),
    ])
    def test_nonincreasing_coefficients(self, kind, param):
        spec = SequenceSpec(kind, Normalization.SUM_ONE, shape_param=param,
                            bound=200)
        coeffs = build_table(spec).head(200)
        assert np.all(np.diff(coeffs) <= 1e-18)

    def test_lazy_extension(self):
        spec = SequenceSpec(SequenceKind.INVERSE_SQUARE, Normalization.SUM_ONE)
        table = build_table(spec, length_hint=5000)
        assert table.coefficient(5000) == pytest.approx(
            (6 / math.pi**2) / 5000**2, rel=1e-12)
        short = build_table(spec, length_hint=4)
        with pytest.raises(SequenceError, match="materialized"):
            short.coefficient(5000)
        longer = short.extended(5000)
        assert len(short) == 4 and len(longer) == 5000
        assert np.array_equal(longer.coefficients, table.coefficients)
        assert longer.scale_constant == short.scale_constant

    @pytest.mark.parametrize("kind", [SequenceKind.JM_OPTIMAL,
                                      SequenceKind.INVERSE_SQUARE])
    def test_extended_sums_equal_a_cold_build(self, kind):
        # partial sums must not depend on how the table grew
        spec = SequenceSpec(kind, Normalization.SUM_ONE)
        cold = build_table(spec, length_hint=5000)
        for start in (1, 4, 1024):
            grown = build_table(spec, length_hint=start).extended(5000)
            assert grown.cumulative.tobytes() == cold.cumulative.tobytes()

    def test_refuses_bad_indices(self):
        spec = SequenceSpec(SequenceKind.UNIFORM, bound=10)
        with pytest.raises(ValueError, match="length_hint must be >= 1"):
            build_table(spec, length_hint=0)
        table = build_table(spec)
        with pytest.raises(ValueError, match="index must be >= 1"):
            table.coefficient(0)
        with pytest.raises(SequenceError,
                           match="index 11 beyond bounded horizon N=10"):
            table.constraint_sum(upto=11)

    def test_bounded_extension_refused(self):
        spec = SequenceSpec(SequenceKind.UNIFORM, Normalization.SUM_ONE, bound=5)
        table = build_table(spec)
        with pytest.raises(SequenceError):
            table.coefficient(6)

    def test_truncated_sums_monotone_below_budget(self):
        for spec in (
            SequenceSpec(SequenceKind.JM_OPTIMAL, Normalization.SUM_ONE),
            xi_spec(SequenceKind.POWER_LAW, shape_param=2.0),
            xi_spec(SequenceKind.LOG_POWER, shape_param=3.0),
        ):
            table = build_table(spec, length_hint=2000)
            budget = 1.0 if spec.normalization is Normalization.SUM_ONE else 2.0
            partials = [table.constraint_sum(upto=n) for n in (1, 10, 100, 2000)]
            assert all(a < b for a, b in zip(partials, partials[1:]))
            assert partials[-1] <= budget + 1e-10


class TestImmutableTable:
    def table(self, length_hint=16):
        spec = SequenceSpec(SequenceKind.JM_OPTIMAL, Normalization.SUM_ONE)
        return build_table(spec, length_hint=length_hint)

    def test_arrays_read_only(self):
        table = self.table()
        for arr in (table.coefficients, table.cumulative, table.head(4)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_fields_frozen(self):
        table = self.table()
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.coefficients = np.zeros(16)

    def test_constructor_copies(self):
        # a caller's array is copied, also a read-only one or a view, as the
        # caller may still write it or the array it views
        coeffs = np.full(3, 0.1)
        read_only, view = coeffs.copy(), coeffs.view()
        read_only.flags.writeable = view.flags.writeable = False
        for given in (coeffs, read_only, view):
            table = SequenceTable(
                spec=SequenceSpec(SequenceKind.UNIFORM, Normalization.SUM_ONE, bound=3),
                scale_constant=0.1, coefficients=given)
            assert not np.shares_memory(table.coefficients, given)
        coeffs[0] = 9.0
        assert table.coefficient(1) == 0.1 and coeffs.flags.writeable

    def test_built_tables_are_read_only_and_share_nothing(self):
        spec = SequenceSpec(SequenceKind.UNIFORM, bound=8)
        built = build_table(spec)
        infinite = self.table()
        tables = [built, rebound(built, 3, 12), infinite,
                  infinite.extended(40)]
        for table in tables:
            assert not table.coefficients.flags.writeable
            with pytest.raises(ValueError):
                table.coefficients[0] = 1.0
        # each table made its own array: no two share memory
        for a in tables:
            for b in tables:
                assert a is b or not np.shares_memory(a.coefficients,
                                                      b.coefficients)

    def test_copies_stay_read_only(self):
        table = self.table().extended(40)
        copies = [copy.deepcopy(table), pickle.loads(pickle.dumps(table))]
        for other in copies:
            assert not other.coefficients.flags.writeable
            assert other.coefficients.tobytes() == table.coefficients.tobytes()
            assert other.spec == table.spec
            assert other.scale_constant == table.scale_constant
        # a deep copy is the shared table itself
        assert copies[0] is table

    def test_reads_past_prefix_raise(self):
        table = self.table()
        for read in (table.coefficient, table.head, table.cumulative_sum):
            with pytest.raises(SequenceError):
                read(17)

    def test_extended_grows_by_doubling(self):
        table = self.table()
        assert table.extended(16) is table
        longer = table.extended(17)
        assert len(longer) == 32 and len(table) == 16
        assert np.array_equal(longer.coefficients,
                              self.table(32).coefficients)
        assert np.array_equal(longer.cumulative[:16], table.cumulative)

    def test_bounded_table_does_not_extend(self):
        spec = SequenceSpec(SequenceKind.UNIFORM, Normalization.SUM_ONE, bound=5)
        with pytest.raises(SequenceError, match="bounded horizon"):
            build_table(spec).extended(6)

    def test_sums_past_prefix_leave_table_alone(self):
        table = self.table()
        assert table.constraint_sum(upto=100) == pytest.approx(
            float(np.sum(self.table(100).coefficients)), rel=1e-15)
        spec = xi_spec(SequenceKind.LOG_POWER, shape_param=3.0)
        xi = build_table(spec)
        assert validate_xi(xi, spec.w0, spec.b0, spec.alpha)
        assert len(table) == 16 and len(xi) == 1024


class TestSpecValidation:
    def test_uniform_requires_bound(self):
        with pytest.raises(SequenceError):
            SequenceSpec(SequenceKind.UNIFORM, Normalization.SUM_ONE)

    def test_constant_requires_bound(self):
        with pytest.raises(SequenceError):
            SequenceSpec(SequenceKind.CONSTANT_BOUNDED, Normalization.SUM_ONE)

    def test_power_law_exponent(self):
        with pytest.raises(SequenceError):
            SequenceSpec(SequenceKind.POWER_LAW, Normalization.SUM_ONE,
                         shape_param=1.0, bound=10)

    def test_log_power_exponent(self):
        with pytest.raises(SequenceError):
            SequenceSpec(SequenceKind.LOG_POWER, Normalization.SUM_ONE,
                         shape_param=2.0, bound=10)

    @pytest.mark.parametrize("kind,name", [(SequenceKind.POWER_LAW, "m > 1"),
                                           (SequenceKind.LOG_POWER, "nu > 2")])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_shape_param_must_be_finite(self, kind, name, value):
        with pytest.raises(SequenceError, match=f"finite shape_param {name}"):
            SequenceSpec(kind, shape_param=value)

    def test_bound_must_be_positive(self):
        with pytest.raises(SequenceError, match="bound must be a positive integer"):
            SequenceSpec(SequenceKind.UNIFORM, bound=0)
        # also each horizon a rebound started from
        with pytest.raises(SequenceError, match="bound must be a positive integer"):
            SequenceSpec(SequenceKind.UNIFORM, bound=5, rebounds=((0, 0),))
        # and an integer: a float horizon would fail later, inside numpy
        spec = SequenceSpec(SequenceKind.UNIFORM, bound=4)
        for bad in (dict(bound=2.5), dict(bound=1e3),
                    dict(bound=6, rebounds=((1, 4.0),))):
            with pytest.raises(SequenceError,
                               match="bound must be a positive integer"):
                dataclasses.replace(spec, **bad)
        with pytest.raises(SequenceError,
                           match="bound must be a positive integer"):
            spec.rebounded(1, 6.0)
        with pytest.raises(SequenceError, match="n must be an integer"):
            spec.rebounded(1.5, 6)
        # numpy integers are integers
        for kind in (SequenceKind.UNIFORM, SequenceKind.JM_OPTIMAL):
            as_numpy = SequenceSpec(kind, bound=np.int64(5))
            assert as_numpy == SequenceSpec(kind, bound=5)
            np.testing.assert_array_equal(
                build_table(as_numpy).coefficients,
                build_table(SequenceSpec(kind, bound=5)).coefficients)
        assert spec.rebounded(np.int64(1), np.int64(6)) == spec.rebounded(1, 6)

    @pytest.mark.parametrize("kind", [SequenceKind.JM_OPTIMAL,
                                      SequenceKind.INVERSE_SQUARE,
                                      SequenceKind.UNIFORM,
                                      SequenceKind.CONSTANT_BOUNDED])
    def test_shape_param_refused_where_there_is_none(self, kind):
        with pytest.raises(SequenceError, match="takes no shape_param"):
            SequenceSpec(kind, shape_param=2.0, bound=10)

    @pytest.mark.parametrize("name", ["w0", "b0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_xi_weighted_needs_finite_parameters(self, name, value):
        params = {"alpha": 0.05, "w0": 0.025, "b0": 0.025, name: value}
        with pytest.raises(SequenceError, match=f"finite {name}"):
            SequenceSpec(SequenceKind.POWER_LAW, Normalization.XI_WEIGHTED,
                         shape_param=2.0, **params)

    def test_xi_weighted_needs_parameters(self):
        with pytest.raises(SequenceError):
            SequenceSpec(SequenceKind.POWER_LAW, Normalization.XI_WEIGHTED,
                         shape_param=2.0, alpha=0.05, w0=0.025)  # b0 missing

    def test_sum_alpha_needs_alpha(self):
        with pytest.raises(SequenceError):
            SequenceSpec(SequenceKind.UNIFORM, Normalization.SUM_ALPHA, bound=5)


class TestXiConstant:
    def test_single_term(self):
        assert xi_constant_bounded(1, 0.02, 0.025, 0.05) == pytest.approx(
            0.05 / 0.025, abs=1e-12)

    def test_matches_closed_form(self):
        # alpha / (b0 * (N + log N!)) on the w0 <= b0 branch
        for n in (100, 1000, 10_000):
            expected = 0.05 / (0.025 * (n + math.lgamma(n + 1)))
            assert xi_constant_bounded(n, 0.02, 0.025, 0.05) == pytest.approx(
                expected, rel=1e-14)

    def test_w0_greater_branch(self):
        n = 50
        expected = 0.05 / (n * 0.04 + 0.005 * math.lgamma(n + 1))
        assert xi_constant_bounded(n, 0.04, 0.005, 0.05) == pytest.approx(
            expected, rel=1e-14)

    @pytest.mark.parametrize("args,message", [
        ((0, 0.02, 0.025, 0.05), "N must be >= 1"),
        ((10, 0.02, 0.0, 0.05), "require b0 > 0")])
    def test_refuses_bad_arguments(self, args, message):
        with pytest.raises(ValueError, match=message):
            xi_constant_bounded(*args)

    def test_agrees_with_constant_bounded_table(self):
        spec = xi_spec(SequenceKind.CONSTANT_BOUNDED, bound=100, w0=0.02)
        table = build_table(spec)
        assert table.coefficient(7) == pytest.approx(
            xi_constant_bounded(100, 0.02, 0.025, 0.05), rel=1e-12)


class TestValidateXi:
    @pytest.mark.parametrize("spec", [
        xi_spec(SequenceKind.POWER_LAW, shape_param=2.0),
        xi_spec(SequenceKind.POWER_LAW, shape_param=1.7, w0=0.04, b0=0.01),
        xi_spec(SequenceKind.LOG_POWER, shape_param=3.0),
        xi_spec(SequenceKind.CONSTANT_BOUNDED, bound=100),
        xi_spec(SequenceKind.CONSTANT_BOUNDED, bound=100, w0=0.04, b0=0.01),
        xi_spec(SequenceKind.JM_OPTIMAL),
        xi_spec(SequenceKind.POWER_LAW, shape_param=2.0, bound=25),
    ])
    def test_builder_tables_valid(self, spec):
        table = build_table(spec)
        assert validate_xi(table, spec.w0, spec.b0, spec.alpha)

    def test_doubled_coefficients_invalid(self):
        spec = xi_spec(SequenceKind.POWER_LAW, shape_param=2.0)
        t = build_table(spec)
        doubled = type(t)(spec=t.spec, scale_constant=2 * t.scale_constant,
                          coefficients=2 * t.coefficients.copy())
        assert not validate_xi(doubled, 0.025, 0.025, 0.05)

    @settings(max_examples=25, deadline=None)
    @given(m=st.floats(1.5, 4.0), w0=st.floats(0.0, 0.04), alpha=st.floats(0.01, 0.2))
    def test_builder_valid_over_parameters(self, m, w0, alpha):
        b0 = 0.025
        spec = xi_spec(SequenceKind.POWER_LAW, shape_param=m, alpha=alpha,
                       w0=w0, b0=b0)
        assert validate_xi(build_table(spec), w0, b0, alpha)


class TestRebound:
    def uniform_table(self, total, bound):
        return build_table(SequenceSpec(
            SequenceKind.UNIFORM,
            Normalization.SUM_ONE if total == 1.0 else Normalization.SUM_ALPHA,
            alpha=None if total == 1.0 else total, bound=bound))

    def test_uniform_same_horizon(self):
        table = self.uniform_table(1.0, 10)
        new = rebound(table, 5, 10)
        assert new.coefficients[5:].sum() == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(new.coefficients, table.coefficients, atol=1e-15)

    def test_uniform_extended_horizon(self):
        table = self.uniform_table(0.05, 10)
        new = rebound(table, 5, 20)
        tail = new.coefficients[5:]
        assert len(tail) == 15
        assert tail.sum() == pytest.approx(0.025, abs=1e-12)

    def test_jm_conservation_by_summation(self):
        spec = SequenceSpec(SequenceKind.JM_OPTIMAL, Normalization.SUM_ONE,
                            bound=100)
        table = build_table(spec)
        new = rebound(table, 10, 200)
        expected_tail = 1.0 - table.cumulative_sum(10)
        assert new.coefficients[10:].sum() == pytest.approx(expected_tail,
                                                            abs=1e-10)

    def test_xi_weighted_conservation(self):
        spec = xi_spec(SequenceKind.POWER_LAW, shape_param=2.0, bound=50)
        table = build_table(spec)
        new = rebound(table, 20, 80)
        j = np.arange(1, 81)
        total = float(np.sum(new.coefficients * (1 + np.log(j))))
        assert total == pytest.approx(0.05 / 0.025, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_conservation_randomized(self, data):
        bound = data.draw(st.integers(2, 60), label="bound")
        n = data.draw(st.integers(0, bound - 1), label="n")
        new_bound = data.draw(st.integers(n + 1, 120), label="new_bound")
        spec = SequenceSpec(SequenceKind.JM_OPTIMAL, Normalization.SUM_ONE,
                            bound=bound)
        table = build_table(spec)
        new = rebound(table, n, new_bound)
        spent = table.cumulative_sum(n)
        assert spent + new.coefficients[n:].sum() == pytest.approx(1.0,
                                                                   abs=1e-10)
        # the table is its spec's, which is not a fresh table's of the new
        # horizon, and a second rebound replays the first
        assert build_table(new.spec).coefficients.tobytes() == \
            new.coefficients.tobytes()
        assert new.spec != dataclasses.replace(spec, bound=new_bound)
        again = data.draw(st.integers(0, new_bound), label="again")
        twice = rebound(new, again, data.draw(st.integers(again + 1, 200),
                                              label="again_to"))
        replayed = build_table(twice.spec)
        assert replayed.coefficients.tobytes() == twice.coefficients.tobytes()
        assert replayed.scale_constant == twice.scale_constant

    def test_double_rebound_conserves(self):
        table = self.uniform_table(1.0, 10)
        once = rebound(table, 4, 16)
        twice = rebound(once, 8, 30)
        assert twice.coefficients.sum() == pytest.approx(1.0, abs=1e-10)

    def test_requires_bounded(self):
        spec = SequenceSpec(SequenceKind.JM_OPTIMAL, Normalization.SUM_ONE)
        with pytest.raises(SequenceError):
            rebound(build_table(spec), 5, 50)

    def test_rejects_bad_horizon(self):
        table = self.uniform_table(1.0, 10)
        with pytest.raises(SequenceError):
            rebound(table, 7, 7)

    def test_rejects_more_spent_than_the_horizon(self):
        table = self.uniform_table(1.0, 10)
        with pytest.raises(SequenceError, match="cannot have consumed 11 of 10"):
            rebound(table, 11, 20)

    def test_rejects_overspent_table(self):
        table = self.uniform_table(1.0, 10)
        inflated = type(table)(spec=table.spec, scale_constant=3.0,
                               coefficients=3 * table.coefficients.copy())
        with pytest.raises(SequenceError):
            rebound(inflated, 8, 20)


class TestBlockedConstraintSum:
    """Long constraint sums are built and summed in blocks; they must stay
    numpy's sum over the materialized terms, bit for bit."""

    SAFFRON = SequenceSpec(SequenceKind.INVERSE_SQUARE, Normalization.SUM_ONE)
    LORD_DEP = xi_spec(SequenceKind.LOG_POWER, shape_param=3.0)

    @staticmethod
    def materialized(spec, scale, prefix, upto):
        weights, _ = sequences._constraint(spec)
        fresh = sequences._shape(
            spec, np.arange(len(prefix) + 1, upto + 1, dtype=np.float64))
        fresh *= scale
        coeffs = np.concatenate([prefix, fresh])
        return float(np.sum(sequences._weighted(coeffs, 1, weights)))

    @pytest.mark.parametrize("spec", [SAFFRON, LORD_DEP],
                             ids=["saffron", "lord-dep"])
    def test_scale_constant_sum(self, spec):
        weights, _ = sequences._constraint(spec)
        upto = sequences._TRUNC_TERMS
        blocked = sequences._constraint_sum(spec, 1.0, np.empty(0), weights,
                                            upto=upto)
        assert blocked == self.materialized(spec, 1.0, np.empty(0), upto)

    @pytest.mark.parametrize("spec", [SAFFRON, LORD_DEP],
                             ids=["saffron", "lord-dep"])
    def test_validate_xi_sum(self, spec):
        table = build_table(spec, length_hint=1024)
        weights, _ = sequences._constraint(spec)
        upto = sequences._VALIDATE_TERMS
        blocked = sequences._constraint_sum(
            spec, table.scale_constant, table.coefficients, weights, upto=upto)
        assert blocked == self.materialized(spec, table.scale_constant,
                                            table.coefficients, upto)

    @pytest.mark.parametrize("n", [1, 7, 128, 129, 16384, 16385, 100_003,
                                   1_000_000])
    def test_numpys_pairwise_split(self, n):
        # signed terms over twelve decades: another split rounds otherwise
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
        got = sequences._pairwise_sum(lambda lo, hi: values[lo:hi], 0, n)
        assert got == float(np.sum(values))

    @pytest.mark.parametrize("spec", [SAFFRON, LORD_DEP],
                             ids=["saffron", "lord-dep"])
    def test_cold_scale_constant_holds_no_long_array(self, spec):
        tracemalloc.start()
        try:
            sequences._scale_constant(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
