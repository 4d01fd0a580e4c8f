"""Remaining result-container and engine-internals coverage."""

import numpy as np
import pytest

from repro.predictors import BimodalPredictor, make_predictor_spec
from repro.sim import simulate_reference
from repro.workloads.micro import alternating_trace


class TestReferenceEngineWithObjects:
    def test_accepts_bare_predictor(self):
        trace = alternating_trace(50)
        predictor = BimodalPredictor(counters=16)
        result = simulate_reference(predictor, trace)
        assert result.engine == "reference"
        assert result.spec.scheme == "bimodal"
        assert result.accesses == 50

    def test_spec_fallback_for_exotic_objects(self):
        """Hand-built objects without a clean spec still simulate."""
        from repro.predictors import StaticPredictor, TournamentPredictor

        predictor = TournamentPredictor(
            component_a=StaticPredictor("taken"),
            component_b=StaticPredictor("not_taken"),
            chooser_rows=16,
        )
        trace = alternating_trace(30)
        result = simulate_reference(predictor, trace)
        assert result.accesses == 30

    def test_empty_trace_rejected(self):
        from repro.errors import TraceError
        from repro.traces import BranchTrace

        with pytest.raises(TraceError):
            simulate_reference(
                make_predictor_spec("bimodal", cols=4),
                BranchTrace.from_records([]),
            )


class TestExperimentOptions:
    def test_trace_caching_through_options(self):
        from repro.experiments import ExperimentOptions

        options = ExperimentOptions(length=2_000, seed=3)
        a = options.trace("compress")
        b = options.trace("compress")
        assert a is b  # served from the workload cache

    def test_resolve_defaults(self):
        from repro.experiments import ExperimentOptions

        options = ExperimentOptions()
        assert options.resolve_benchmarks(["espresso"]) == ["espresso"]
        options = ExperimentOptions(benchmarks=["sdet"])
        assert options.resolve_benchmarks(["espresso"]) == ["sdet"]


class TestSimulationResultEdgeCases:
    def test_predictions_shape_preserved(self):
        trace = alternating_trace(20)
        result = simulate_reference(
            make_predictor_spec("pas", rows=4, cols=2), trace
        )
        assert result.predictions.dtype == bool
        assert len(result.predictions) == 20
        assert result.first_level_miss_rate == 0.0  # perfect first level

    def test_taken_array_is_a_copy(self):
        trace = alternating_trace(10)
        result = simulate_reference(
            make_predictor_spec("bimodal", cols=4), trace
        )
        result.taken[0] = not result.taken[0]
        assert bool(trace.taken[0]) != bool(result.taken[0])

    def test_repr_mentions_rate(self):
        trace = alternating_trace(10)
        result = simulate_reference(
            make_predictor_spec("bimodal", cols=4), trace
        )
        assert "%" in repr(result)


class TestNumericEdges:
    def test_one_access_simulation(self):
        from repro.traces import BranchTrace

        trace = BranchTrace(
            pc=np.array([0x100], dtype=np.uint64),
            taken=np.array([True]),
            target=np.array([0x200], dtype=np.uint64),
        )
        for scheme, kwargs in [
            ("bimodal", dict(cols=4)),
            ("gshare", dict(rows=4)),
            ("pas", dict(rows=4, cols=2)),
        ]:
            spec = make_predictor_spec(scheme, **kwargs)
            from repro.sim import simulate_vectorized

            fast = simulate_vectorized(spec, trace)
            slow = simulate_reference(spec, trace)
            assert np.array_equal(fast.predictions, slow.predictions)
