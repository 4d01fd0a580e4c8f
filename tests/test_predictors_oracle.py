"""Tests for the micro-workloads."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.micro import (
    aliasing_pair_trace,
    alternating_trace,
    biased_field_trace,
    correlated_pair_trace,
    loop_trace,
    pattern_trace,
)


class TestMicroWorkloads:
    def test_loop_trace_shape(self):
        trace = loop_trace(trips=4, repeats=3)
        assert len(trace) == 12
        assert list(trace.taken[:4]) == [True, True, True, False]
        assert trace.num_static_branches == 1

    def test_loop_validation(self):
        with pytest.raises(WorkloadError):
            loop_trace(trips=1, repeats=3)

    def test_alternating(self):
        trace = alternating_trace(6)
        assert list(trace.taken) == [True, False] * 3

    def test_correlated_pair_pure(self):
        trace = correlated_pair_trace(100, noise=0.0, seed=1)
        a = trace.taken[0::2]
        b = trace.taken[1::2]
        assert np.array_equal(a, b)
        assert trace.num_static_branches == 2

    def test_correlated_pair_noise(self):
        trace = correlated_pair_trace(10_000, noise=0.3, seed=1)
        a = trace.taken[0::2]
        b = trace.taken[1::2]
        disagree = float(np.mean(a != b))
        assert abs(disagree - 0.3) < 0.03

    def test_aliasing_pair_strides(self):
        trace = aliasing_pair_trace(10, stride_counters=16)
        assert int(trace.pc[1]) - int(trace.pc[0]) == 64

    def test_pattern_trace(self):
        trace = pattern_trace([True, False, False], repeats=2)
        assert list(trace.taken) == [True, False, False] * 2

    def test_biased_field(self):
        trace = biased_field_trace(branches=5, executions_each=100,
                                   taken_probability=1.0)
        assert trace.num_static_branches == 5
        assert trace.taken.all()

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: alternating_trace(1),
            lambda: correlated_pair_trace(1),
            lambda: aliasing_pair_trace(1),
            lambda: pattern_trace([True], 2),
            lambda: biased_field_trace(0, 1),
        ],
    )
    def test_validation(self, factory):
        with pytest.raises(WorkloadError):
            factory()
