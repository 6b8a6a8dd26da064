"""Self-tests for the benchmark's own arithmetic.

    python3 -m pytest bench/tests -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from spans import Tracer  # noqa: E402
from stats import (  # noqa: E402
    count_beyond,
    covered_length,
    fail_frac,
    median,
    percentile,
    self_time,
)


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))          # 1..100
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100
        assert percentile(values, 0.5) == 1

    def test_order_does_not_matter(self):
        assert percentile([5, 1, 4, 2, 3], 60) == 3

    def test_p999_of_400k(self):
        # 99.9% of 400000 is exactly 399600: the p99.9 sample is the
        # 399600th smallest and 400 samples lie beyond it
        values = list(range(400_000))
        assert percentile(values, 99.9) == 399_599
        assert count_beyond(400_000, 99.9) == 400

    def test_count_beyond(self):
        assert count_beyond(10, 50) == 5
        assert count_beyond(1000, 99) == 10
        assert count_beyond(999, 99) == 9     # rank ceil(989.01) = 990
        assert count_beyond(1, 99.9) == 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 0)
        with pytest.raises(ValueError):
            count_beyond(0, 50)

    def test_median(self):
        assert median([3, 1, 2]) == 2
        assert median([4, 1, 3, 2]) == 2.5


class TestFailFrac:
    def test_ratio(self):
        assert fail_frac(0, 800_000) == 0.0
        assert fail_frac(1, 4) == 0.25
        assert fail_frac(7, 7) == 1.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            fail_frac(0, 0)
        with pytest.raises(ValueError):
            fail_frac(5, 4)
        with pytest.raises(ValueError):
            fail_frac(-1, 4)


class TestSelfTime:
    def test_union_of_intervals(self):
        assert covered_length([]) == 0.0
        assert covered_length([(0, 2), (1, 3), (5, 6)]) == 4.0
        assert covered_length([(0, 10), (2, 3)]) == 10.0

    def test_children_subtracted_once(self):
        # overlapping children cover [1, 4]; the parent spans [0, 10]
        assert self_time(0, 10, [(1, 3), (2, 4)]) == 7.0

    def test_children_clipped_to_parent(self):
        assert self_time(0, 10, [(-5, 2), (9, 20)]) == 7.0
        assert self_time(0, 10, [(11, 12)]) == 10.0

    def test_tracer_layers(self):
        tr = Tracer()
        root = tr.record("bench.round", 0.0, 10.0)
        tr._stack.append(root)
        call = tr.record("scenarios.estimate_many", 1.0, 7.0)
        tr._stack.append(call)
        tr.record("procedures.run_stream", 2.0, 5.0)
        tr._stack.pop()
        tr.record("stattests.fisher_exact_greater", 8.0, 9.0)
        tr._stack.pop()
        assert tr.self_times() == {"bench.round": 3.0,
                                   "scenarios.estimate_many": 3.0,
                                   "procedures.run_stream": 3.0,
                                   "stattests.fisher_exact_greater": 1.0}
        layers = tr.layer_self_times()
        assert sum(layers.values()) == 10.0
        assert layers["procedures"] == 3.0

    def test_span_nesting(self):
        tr = Tracer()
        with tr.span("bench.outer") as outer:
            with tr.span("sequences.build_table") as inner:
                pass
        assert tr.parent[inner] == outer and tr.parent[outer] == -1
        assert tr.start[outer] <= tr.start[inner] <= tr.end[inner] <= tr.end[outer]

