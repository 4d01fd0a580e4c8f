"""Fault-injection suite for the resilient experiment runtime.

Forces the failures a long sweep must survive — engine crashes,
interrupts mid-run, torn and corrupted result writes, expired
deadlines — and asserts the runtime degrades, resumes, or refuses
exactly as documented.
"""

import json
import os
import signal

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.experiments import ExperimentOptions, run_experiment
from repro.predictors.factory import make_predictor_spec
from repro.runtime import (
    CooperativeInterrupt,
    Deadline,
    DeadlineExceeded,
    InjectedFault,
    atomic_write_text,
    clear_faults,
    install_faults,
    maybe_inject,
    parse_fault_spec,
    result_invariant_violation,
    retry_with_backoff,
    sweep_key,
)
from repro.sim.engine import simulate
from repro.sim.reference import simulate_reference
from repro.sim.sweep import sweep_tiers
from repro.workloads import make_workload


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    yield
    clear_faults()


@pytest.fixture(scope="module")
def trace():
    return make_workload("compress", length=2_000, seed=3)


def surface_cells(surface):
    return [
        (n, p.col_bits, p.row_bits, p.misprediction_rate,
         p.first_level_miss_rate)
        for n in surface.sizes
        for p in surface.tier(n)
    ]


class TestFaultSpecs:
    def test_parse_all_clause_shapes(self):
        plan = parse_fault_spec(
            "a:raise, b:interrupt@2 ,c:corrupt%3,,d:raise"
        )
        assert {site for site in plan.clauses} == {"a", "b", "c", "d"}
        assert plan.for_site("b")[0].nth == 2
        assert plan.for_site("c")[0].every == 3

    @pytest.mark.parametrize(
        "spec", ["noaction", "x:explode", "x:raise@zero", "x:raise@0"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_fault_spec(spec)

    def test_env_gating(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "site.x:raise@2")
        assert maybe_inject("site.x") is False  # first pass survives
        with pytest.raises(InjectedFault):
            maybe_inject("site.x")
        monkeypatch.delenv("REPRO_FAULT_SPEC")
        clear_faults()
        assert maybe_inject("site.x") is False

    def test_nth_clause_fires_once(self):
        install_faults("s:raise@1")
        with pytest.raises(InjectedFault):
            maybe_inject("s")
        assert maybe_inject("s") is False


class TestEngineFallback:
    def test_auto_degrades_to_reference_identically(self, trace, caplog):
        spec = make_predictor_spec("gshare", rows=64)
        expected = simulate_reference(spec, trace)
        install_faults("engine.vectorized:raise")
        result = simulate(spec, trace, engine="auto")
        assert result.engine == expected.engine == "reference"
        assert np.array_equal(result.predictions, expected.predictions)
        assert np.array_equal(result.taken, expected.taken)
        assert result.first_level_miss_rate == expected.first_level_miss_rate
        assert result.misprediction_rate == expected.misprediction_rate
        assert any(
            "degraded" in record.message for record in caplog.records
        )

    def test_explicit_vectorized_propagates(self, trace):
        spec = make_predictor_spec("gshare", rows=64)
        install_faults("engine.vectorized:raise")
        with pytest.raises(SimulationError) as excinfo:
            simulate(spec, trace, engine="vectorized")
        assert isinstance(excinfo.value.__cause__, InjectedFault)

    def test_reference_engine_ignores_engine_faults(self, trace):
        spec = make_predictor_spec("gshare", rows=64)
        install_faults("engine.vectorized:raise")
        result = simulate(spec, trace, engine="reference")
        assert result.engine == "reference"

    def test_invariant_violation_degrades(self, trace, monkeypatch, caplog):
        spec = make_predictor_spec("gshare", rows=64)
        good = simulate_reference(spec, trace)

        def broken(spec, trace):
            bad = simulate_reference(spec, trace)
            bad.predictions = bad.predictions[:-1]
            bad.taken = bad.taken[:-1]
            return bad

        import repro.runtime.guard as guard

        monkeypatch.setattr(guard, "simulate_vectorized", broken)
        result = simulate(spec, trace, engine="auto")
        assert len(result.predictions) == len(trace)
        assert np.array_equal(result.predictions, good.predictions)
        with pytest.raises(SimulationError):
            simulate(spec, trace, engine="vectorized")

    def test_invariant_checks(self, trace):
        spec = make_predictor_spec("gshare", rows=64)
        result = simulate_reference(spec, trace)
        assert result_invariant_violation(result, trace) is None
        result.predictions = result.predictions[:-1]
        assert "shape" in result_invariant_violation(result, trace)

    def test_paranoid_agreement_passes(self, trace):
        spec = make_predictor_spec("gshare", rows=64)
        fast = simulate(spec, trace, engine="auto", paranoid=True)
        assert fast.engine == "vectorized"

    def test_paranoid_disagreement_raises_when_explicit(
        self, trace, monkeypatch
    ):
        import repro.runtime.guard as guard

        spec = make_predictor_spec("gshare", rows=64)
        real = guard.simulate_vectorized

        def flipped(spec, inner_trace):
            result = real(spec, inner_trace)
            if "[0:" in inner_trace.name:  # only the prefix re-run
                result.predictions = ~result.predictions
            return result

        monkeypatch.setattr(guard, "simulate_vectorized", flipped)
        with pytest.raises(SimulationError, match="disagree"):
            simulate(spec, trace, engine="vectorized", paranoid=True)
        # auto degrades to the reference engine instead of dying.
        result = simulate(spec, trace, engine="auto", paranoid=True)
        assert result.engine == "reference"


class TestDurableWrites:
    def test_atomic_write_replaces_whole_file(self, tmp_path):
        path = str(tmp_path / "f.txt")
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert open(path).read() == "second"
        assert not os.path.exists(path + ".tmp")

    def test_sweep_key_ignores_engine_but_not_options(self, trace):
        base = sweep_key("gas", trace.fingerprint(), [4, 5])
        assert base == sweep_key(
            "gas", trace.fingerprint(), [5, 4], engine="reference"
        )
        assert base != sweep_key("gas", trace.fingerprint(), [4, 6])
        assert base != sweep_key("gshare", trace.fingerprint(), [4, 5])
        assert base != sweep_key("gas", "0" * 16, [4, 5])


class TestResumableSweeps:
    def test_kill_then_resume_bit_identical(self, trace, tmp_path):
        uninterrupted = sweep_tiers("gas", trace, size_bits=[4, 5])
        install_faults("sweep.point:interrupt@4")
        with pytest.raises(KeyboardInterrupt):
            sweep_tiers(
                "gas", trace, size_bits=[4, 5],
                checkpoint_dir=str(tmp_path),
            )
        clear_faults()
        resumed = sweep_tiers(
            "gas", trace, size_bits=[4, 5], checkpoint_dir=str(tmp_path)
        )
        assert surface_cells(resumed) == surface_cells(uninterrupted)

    def test_resume_skips_completed_points(self, trace, tmp_path):
        sweep_tiers(
            "gas", trace, size_bits=[4], checkpoint_dir=str(tmp_path)
        )
        # Any further simulation would trip this fault; resume must not
        # simulate at all.
        install_faults("sweep.point:raise")
        resumed = sweep_tiers(
            "gas", trace, size_bits=[4], checkpoint_dir=str(tmp_path)
        )
        assert len(surface_cells(resumed)) == 5

    def test_engine_fault_mid_sweep_degrades_not_dies(self, trace, tmp_path):
        clean = sweep_tiers("gas", trace, size_bits=[4])
        install_faults("engine.vectorized:raise%2")
        survived = sweep_tiers(
            "gas", trace, size_bits=[4], checkpoint_dir=str(tmp_path)
        )
        assert surface_cells(survived) == surface_cells(clean)

    def test_deadline_flushes_and_resumes(self, trace, tmp_path):
        deadline = Deadline(seconds=1e-9)
        with pytest.raises(DeadlineExceeded):
            sweep_tiers(
                "gas", trace, size_bits=[4],
                checkpoint_dir=str(tmp_path), deadline=deadline,
            )
        resumed = sweep_tiers(
            "gas", trace, size_bits=[4], checkpoint_dir=str(tmp_path)
        )
        assert surface_cells(resumed) == surface_cells(
            sweep_tiers("gas", trace, size_bits=[4])
        )

    def test_run_experiment_resumes_after_kill(self, trace, tmp_path):
        options = ExperimentOptions(
            length=2_000, seed=3, benchmarks=["compress"], size_bits=[4],
        )
        baseline = run_experiment("fig4", options)
        install_faults("sweep.point:interrupt@3")
        checkpointed = ExperimentOptions(
            length=2_000, seed=3, benchmarks=["compress"], size_bits=[4],
            checkpoint_dir=str(tmp_path),
        )
        with pytest.raises(KeyboardInterrupt):
            run_experiment("fig4", checkpointed)
        clear_faults()
        assert len(list(tmp_path.glob("rs-*.json"))) == 2  # landed points
        resumed = run_experiment("fig4", checkpointed)
        assert resumed.text == baseline.text


class TestDeadlinesAndRetries:
    def test_deadline_unbounded_never_expires(self):
        deadline = Deadline(None)
        assert not deadline.expired()
        deadline.check()  # no raise

    def test_deadline_expiry(self):
        deadline = Deadline(1e-9)
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded, match="deadline"):
            deadline.check("unit test")

    def test_bad_deadline_rejected(self):
        with pytest.raises(SimulationError):
            Deadline(0)

    def test_retry_recovers_from_transient_failures(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("contention")
            return "ok"

        slept = []
        assert retry_with_backoff(flaky, sleep=slept.append) == "ok"
        assert len(attempts) == 3
        assert slept == [0.05, 0.1]  # exponential backoff

    def test_retry_gives_up_and_propagates(self):
        def always_fails():
            raise OSError("still broken")

        with pytest.raises(OSError):
            retry_with_backoff(
                always_fails, retries=2, sleep=lambda _: None
            )

    def test_retry_ignores_non_retryable(self):
        def wrong_kind():
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            retry_with_backoff(wrong_kind, sleep=lambda _: None)

    def test_cooperative_interrupt_defers_sigint(self):
        with CooperativeInterrupt() as interrupt:
            os.kill(os.getpid(), signal.SIGINT)
            assert interrupt.pending  # deferred, not raised
            with pytest.raises(KeyboardInterrupt):
                interrupt.checkpoint()

    def test_cooperative_interrupt_restores_handler(self):
        before = signal.getsignal(signal.SIGINT)
        with CooperativeInterrupt():
            assert signal.getsignal(signal.SIGINT) is not before
        assert signal.getsignal(signal.SIGINT) is before


class TestSmokeScript:
    def test_smoke_resume_script_passes(self, capsys):
        """Run the benchmarks/ smoke script in-process (tier-1 guard
        for the interrupted-then-resumed path)."""
        import importlib.util

        script = os.path.join(
            os.path.dirname(__file__), "..", "benchmarks", "smoke_resume.py"
        )
        loader_spec = importlib.util.spec_from_file_location(
            "smoke_resume", script
        )
        module = importlib.util.module_from_spec(loader_spec)
        loader_spec.loader.exec_module(module)
        assert module.main(["--length", "1500"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestAtomicTraceSave:
    def test_save_fault_leaves_no_partial_file(self, tmp_path, trace):
        from repro.traces import load_trace, save_trace

        path = tmp_path / "t.npz"
        save_trace(trace, path)
        install_faults("trace.save:raise")
        with pytest.raises(InjectedFault):
            save_trace(trace, path)
        clear_faults()
        # The original archive is intact and loadable.
        loaded = load_trace(path)
        assert np.array_equal(loaded.pc, trace.pc)
        assert not list(tmp_path.glob("*.tmp"))


class TestFaultGrammarExtensions:
    def test_parse_arguments_and_new_actions(self):
        plan = parse_fault_spec(
            "a:delay(0.5)@2,b:kill@3,c:torn-write%3"
        )
        assert plan.for_site("a")[0].arg == 0.5
        assert plan.for_site("a")[0].nth == 2
        assert plan.for_site("b")[0].action == "kill"
        assert plan.for_site("b")[0].nth == 3
        assert plan.for_site("c")[0].action == "torn-write"

    @pytest.mark.parametrize(
        "spec", ["x:delay(0.5", "x:delay(abc)", "x:kill()"]
    )
    def test_bad_arguments_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_fault_spec(spec)

    def test_fire_site_returns_passive_actions(self):
        from repro.runtime.faults import fire_site

        install_faults("s:torn-write(3),s:corrupt")
        assert fire_site("s") == {"torn-write": 3.0, "corrupt": 0.0}

    def test_kill_action_sigkills_the_process(self):
        from repro.runtime.faults import fire_site

        pid = os.fork()
        if pid == 0:  # the child must die here, never return to pytest
            try:
                install_faults("s:kill")
                fire_site("s")
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status)
        assert os.WTERMSIG(status) == signal.SIGKILL

    def test_delay_sleeps_in_place(self, monkeypatch):
        from repro.runtime import faults

        slept = []
        monkeypatch.setattr(faults.time, "sleep", slept.append)
        install_faults("s:delay(0.25)")
        assert faults.fire_site("s") == {}
        assert slept == [0.25]

    def test_maybe_inject_stays_boolean(self):
        install_faults("s:torn-write")
        assert maybe_inject("s") is False  # torn-write is not corrupt
        install_faults("s:corrupt")
        assert maybe_inject("s") is True


class TestBackoffPolicy:
    def test_deterministic_schedule_and_cap(self):
        from repro.runtime.backoff import BackoffPolicy

        policy = BackoffPolicy(base_delay=0.05, factor=2.0, max_delay=0.2)
        assert [policy.delay_for(i) for i in range(5)] == [
            0.05, 0.1, 0.2, 0.2, 0.2,
        ]

    def test_jitter_bounds(self):
        import random

        from repro.runtime.backoff import BackoffPolicy

        policy = BackoffPolicy(
            base_delay=1.0, factor=1.0, max_delay=1.0, jitter=0.5
        )
        rng = random.Random(0)
        for _ in range(50):
            delay = policy.delay_for(0, rng=rng)
            assert 0.5 <= delay <= 1.0

    def test_invalid_policies_rejected(self):
        from repro.runtime.backoff import BackoffPolicy

        with pytest.raises(SimulationError):
            BackoffPolicy(base_delay=-1.0)
        with pytest.raises(SimulationError):
            BackoffPolicy(jitter=1.5)
        with pytest.raises(SimulationError):
            BackoffPolicy().delay_for(-1)

    def test_sleep_invokes_callable(self):
        from repro.runtime.backoff import BackoffPolicy

        slept = []
        policy = BackoffPolicy(base_delay=0.05, factor=2.0, max_delay=2.0)
        policy.sleep(1, sleep=slept.append)
        assert slept == [0.1]


class TestTornWriteRecovery:
    def test_torn_flush_resumes_and_recomputes_only_lost_point(
        self, trace, tmp_path
    ):
        """A torn ``results.put`` damages exactly one artifact; the next
        run reads it as a miss, restores every intact point, and
        recomputes only the lost one — bit-identically."""
        from repro.obs import snapshot

        serial = sweep_tiers("gshare", trace, size_bits=[4])
        install_faults("results.put:torn-write@3")
        sweep_tiers(
            "gshare", trace, size_bits=[4], checkpoint_dir=str(tmp_path)
        )
        clear_faults()

        before = snapshot()["counters"]
        resumed = sweep_tiers(
            "gshare", trace, size_bits=[4], checkpoint_dir=str(tmp_path)
        )
        after = snapshot()["counters"]
        assert after["sweep.points_computed"] - before["sweep.points_computed"] == 1
        assert after["sweep.points_restored"] - before["sweep.points_restored"] == 4
        assert surface_cells(resumed) == surface_cells(serial)

    def test_torn_journal_passes_doctor_after_repair(self, trace, tmp_path):
        from repro.check.doctor import scan_result_store

        install_faults("results.put:corrupt@2")
        sweep_tiers(
            "gshare", trace, size_bits=[4], checkpoint_dir=str(tmp_path)
        )
        clear_faults()
        findings = scan_result_store(str(tmp_path), repair=True)
        assert [f.check for f in findings if f.severity == "error"] == [
            "doctor.results-corrupt"
        ]
        assert any(f.check == "doctor.results-repaired" for f in findings)
        assert len(list(tmp_path.glob("*.quarantine"))) == 1
        findings = scan_result_store(str(tmp_path))
        assert all(f.severity == "info" for f in findings)
