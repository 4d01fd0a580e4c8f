"""Tests for the BTB and the pipeline cost model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pipeline import (
    BranchTargetBuffer,
    PipelineConfig,
    btb_hit_stream,
    evaluate_pipeline,
    pipeline_report,
)
from repro.predictors import make_predictor_spec
from repro.sim import simulate
from repro.sim.results import SimulationResult
from repro.workloads import make_workload
from repro.workloads.micro import biased_field_trace, loop_trace


class TestBranchTargetBuffer:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(entries=8, assoc=2)
        assert btb.lookup(0x100) is None
        btb.install(0x100, 0x400)
        assert btb.lookup(0x100) == 0x400

    def test_refresh_updates_target(self):
        btb = BranchTargetBuffer(entries=8, assoc=2)
        btb.install(0x100, 0x400)
        btb.install(0x100, 0x500)
        assert btb.lookup(0x100) == 0x500

    def test_lru_eviction(self):
        btb = BranchTargetBuffer(entries=2, assoc=2)
        btb.install(0x100, 1)
        btb.install(0x104, 2)
        btb.lookup(0x100)  # refresh
        btb.install(0x108, 3)  # evicts 0x104
        assert btb.lookup(0x104) is None
        assert btb.lookup(0x100) == 1

    def test_hit_rate(self):
        btb = BranchTargetBuffer(entries=8, assoc=2)
        btb.lookup(0x100)
        btb.install(0x100, 1)
        btb.lookup(0x100)
        assert btb.hit_rate == pytest.approx(0.5)

    def test_geometry_validated(self):
        with pytest.raises(ConfigurationError):
            BranchTargetBuffer(entries=8, assoc=3)

    def test_reset(self):
        btb = BranchTargetBuffer(entries=8, assoc=2)
        btb.install(0x100, 1)
        btb.reset()
        assert btb.lookup(0x100) is None
        assert btb.accesses == 1

    def test_hit_stream_matches_scalar_up_to_fill_policy(self):
        """The shared LRU stream equals the scalar BTB's residency for
        a workload where every branch is taken (fill policies agree)."""
        trace = biased_field_trace(
            branches=20, executions_each=30, taken_probability=1.0, seed=1
        )
        fast = btb_hit_stream(trace, entries=8, assoc=2)
        btb = BranchTargetBuffer(entries=8, assoc=2)
        slow = np.empty(len(trace), dtype=bool)
        for i, (pc, taken, target) in enumerate(trace):
            slow[i] = btb.lookup(pc) is not None
            btb.install(pc, target)
        assert np.array_equal(fast, slow)


class TestPipelineConfig:
    def test_defaults_valid(self):
        config = PipelineConfig()
        assert config.issue_width == 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(issue_width=0)
        with pytest.raises(ConfigurationError):
            PipelineConfig(redirect_penalty=-1)


class TestEvaluatePipeline:
    def perfect_result(self, trace):
        return SimulationResult(
            spec=make_predictor_spec("static"),
            trace_name=trace.name,
            predictions=trace.taken.copy(),
            taken=trace.taken.copy(),
        )

    def test_cycle_decomposition_exact(self):
        # 10-iteration loop repeated 5 times, all resident in the BTB
        # after the first visit; perfect prediction.
        trace = loop_trace(trips=10, repeats=5)
        result = self.perfect_result(trace)
        config = PipelineConfig(
            issue_width=1, mispredict_penalty=8, redirect_penalty=2,
            btb_entries=8, btb_assoc=1,
        )
        metrics = evaluate_pipeline(result, trace, config)
        assert metrics.mispredictions == 0
        assert metrics.mispredict_cycles == 0
        # One compulsory BTB miss; the branch is taken at that access,
        # so exactly one redirect.
        assert metrics.redirect_cycles == 2
        assert metrics.base_cycles == 50  # instruction_count == length
        assert metrics.cycles == 52

    def test_mispredictions_dominate(self):
        trace = loop_trace(trips=4, repeats=50)
        wrong = self.perfect_result(trace)
        object.__setattr__  # silence linters; result is a plain class
        wrong.predictions = ~trace.taken  # everything mispredicted
        metrics = evaluate_pipeline(wrong, trace, PipelineConfig())
        assert metrics.mispredictions == len(trace)
        assert metrics.branch_overhead > 0.5

    def test_length_mismatch_rejected(self):
        trace = loop_trace(trips=4, repeats=5)
        result = self.perfect_result(trace)
        with pytest.raises(ConfigurationError):
            evaluate_pipeline(result, trace.slice(0, 4))

    def test_rates_consistent(self):
        trace = make_workload("compress", length=6_000, seed=1)
        result = simulate(make_predictor_spec("bimodal", cols=512), trace)
        metrics = evaluate_pipeline(result, trace)
        assert metrics.cpi == pytest.approx(1.0 / metrics.ipc)
        assert metrics.instructions == trace.instruction_count
        assert 0 < metrics.btb_hit_rate <= 1

    def test_better_predictor_better_ipc(self):
        trace = make_workload("mpeg_play", length=20_000, seed=1)
        weak = simulate(make_predictor_spec("static"), trace)
        strong = simulate(
            make_predictor_spec("pas", rows=256, cols=4), trace
        )
        assert (
            evaluate_pipeline(strong, trace).ipc
            > evaluate_pipeline(weak, trace).ipc
        )


class TestPipelineReport:
    def test_report_renders_with_speedups(self):
        trace = make_workload("compress", length=6_000, seed=1)
        labeled = []
        for label, spec in [
            ("static", make_predictor_spec("static")),
            ("bimodal", make_predictor_spec("bimodal", cols=512)),
        ]:
            result = simulate(spec, trace)
            labeled.append((label, evaluate_pipeline(result, trace)))
        text = pipeline_report(labeled)
        assert "IPC" in text and "speedup" in text
        assert "1.000x" in text  # the baseline row

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            pipeline_report([])
