"""Failure suite for the resilient experiment runtime.

Forces the failures a long sweep must survive — engine crashes, a real
SIGINT mid-run, damaged result artifacts, a crash mid-save — by
substituting functions in the real code (see ``conftest.py``), and
asserts the runtime degrades, resumes, or refuses exactly as documented.
"""

import os
import signal

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.experiments import ExperimentOptions, run_experiment
from repro.predictors.factory import make_predictor_spec
from repro.runtime import (
    CooperativeInterrupt,
    atomic_write_text,
    result_invariant_violation,
    sweep_key,
)
from repro.sim.engine import simulate
from repro.sim.reference import simulate_reference
from repro.sim.sweep import sweep_tiers
from repro.workloads import make_workload


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


class TestEngineFallback:
    def test_auto_degrades_to_reference_identically(
        self, trace, caplog, crashing_vectorized
    ):
        spec = make_predictor_spec("gshare", rows=64)
        expected = simulate_reference(spec, trace)
        crashing_vectorized()
        result = simulate(spec, trace, engine="auto")
        assert result.engine == expected.engine == "reference"
        assert np.array_equal(result.predictions, expected.predictions)
        assert np.array_equal(result.taken, expected.taken)
        assert result.first_level_miss_rate == expected.first_level_miss_rate
        assert result.misprediction_rate == expected.misprediction_rate
        assert any(
            "degraded" in record.message for record in caplog.records
        )

    def test_explicit_vectorized_propagates(self, trace, crashing_vectorized):
        spec = make_predictor_spec("gshare", rows=64)
        crashing_vectorized()
        with pytest.raises(SimulationError) as excinfo:
            simulate(spec, trace, engine="vectorized")
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert "crashed" in str(excinfo.value.__cause__)

    def test_reference_engine_ignores_engine_faults(
        self, trace, crashing_vectorized
    ):
        spec = make_predictor_spec("gshare", rows=64)
        crashing_vectorized()
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
    def test_kill_then_resume_bit_identical(
        self, trace, tmp_path, sigint_on_point
    ):
        uninterrupted = sweep_tiers("gas", trace, size_bits=[4, 5])
        sigint_on_point(4)
        with pytest.raises(KeyboardInterrupt):
            sweep_tiers(
                "gas", trace, size_bits=[4, 5],
                checkpoint_dir=str(tmp_path),
            )
        # The point in flight when SIGINT arrived landed too.
        assert len(list(tmp_path.glob("rs-*.json"))) == 4
        resumed = sweep_tiers(
            "gas", trace, size_bits=[4, 5], checkpoint_dir=str(tmp_path)
        )
        assert surface_cells(resumed) == surface_cells(uninterrupted)

    def test_resume_skips_completed_points(
        self, trace, tmp_path, monkeypatch
    ):
        import repro.sim.sweep as sweep

        sweep_tiers(
            "gas", trace, size_bits=[4], checkpoint_dir=str(tmp_path)
        )

        def must_not_simulate(*args, **kwargs):
            raise AssertionError("resume simulated a stored point")

        monkeypatch.setattr(sweep, "compute_point", must_not_simulate)
        resumed = sweep_tiers(
            "gas", trace, size_bits=[4], checkpoint_dir=str(tmp_path)
        )
        assert len(surface_cells(resumed)) == 5

    def test_engine_fault_mid_sweep_degrades_not_dies(
        self, trace, tmp_path, crashing_vectorized
    ):
        clean = sweep_tiers("gas", trace, size_bits=[4])
        crashing_vectorized({2, 4})
        survived = sweep_tiers(
            "gas", trace, size_bits=[4], checkpoint_dir=str(tmp_path)
        )
        assert surface_cells(survived) == surface_cells(clean)

    def test_run_experiment_resumes_after_kill(
        self, trace, tmp_path, sigint_on_point
    ):
        options = ExperimentOptions(
            length=2_000, seed=3, benchmarks=["compress"], size_bits=[4],
        )
        baseline = run_experiment("fig4", options)
        sigint_on_point(3)
        checkpointed = ExperimentOptions(
            length=2_000, seed=3, benchmarks=["compress"], size_bits=[4],
            checkpoint_dir=str(tmp_path),
        )
        with pytest.raises(KeyboardInterrupt):
            run_experiment("fig4", checkpointed)
        # Two finished points plus the one in flight at the SIGINT.
        assert len(list(tmp_path.glob("rs-*.json"))) == 3
        resumed = run_experiment("fig4", checkpointed)
        assert resumed.text == baseline.text


class TestCooperativeInterrupt:
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
    def test_save_fault_leaves_no_partial_file(
        self, tmp_path, trace, monkeypatch
    ):
        from repro.traces import load_trace, save_trace

        path = tmp_path / "t.npz"
        save_trace(trace, path)

        def failing_replace(src, dst):
            raise OSError("disk full")

        # The crash lands after the temp file is written, before the
        # rename: the worst moment for debris.
        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            save_trace(trace, path)
        monkeypatch.undo()
        # The original archive is intact and loadable.
        loaded = load_trace(path)
        assert np.array_equal(loaded.pc, trace.pc)
        assert not list(tmp_path.glob("*.tmp"))


def _truncate(path):
    with open(path, "r+", encoding="ascii") as handle:
        handle.truncate(len(handle.read()) // 2)


def _flip_digit(path):
    """Change one digit of the stored point; the CRC no longer holds."""
    text = open(path, encoding="ascii").read()
    at = text.index('"misprediction_rate": ') + len('"misprediction_rate": ')
    at += next(i for i, ch in enumerate(text[at:]) if ch in "123456789")
    flipped = "1" if text[at] != "1" else "2"
    with open(path, "w", encoding="ascii") as handle:
        handle.write(text[:at] + flipped + text[at + 1:])


class TestTornWriteRecovery:
    def test_torn_flush_resumes_and_recomputes_only_lost_point(
        self, trace, tmp_path
    ):
        """A torn artifact (a crash between ``write`` and ``fsync``)
        reads as a miss: the next run restores every intact point and
        recomputes only the lost one — bit-identically."""
        from repro.obs import snapshot

        serial = sweep_tiers("gshare", trace, size_bits=[4])
        sweep_tiers(
            "gshare", trace, size_bits=[4], checkpoint_dir=str(tmp_path)
        )
        _truncate(sorted(tmp_path.glob("rs-*.json"))[2])

        before = snapshot()["counters"]
        resumed = sweep_tiers(
            "gshare", trace, size_bits=[4], checkpoint_dir=str(tmp_path)
        )
        after = snapshot()["counters"]
        assert after["sweep.points_computed"] - before["sweep.points_computed"] == 1
        assert after["sweep.points_restored"] - before["sweep.points_restored"] == 4
        assert surface_cells(resumed) == surface_cells(serial)

    def test_byte_flipped_artifact_is_recomputed(self, trace, tmp_path):
        from repro.obs import snapshot

        serial = sweep_tiers("gshare", trace, size_bits=[4])
        sweep_tiers(
            "gshare", trace, size_bits=[4], checkpoint_dir=str(tmp_path)
        )
        artifact = sorted(tmp_path.glob("rs-*.json"))[1]
        sound = artifact.read_text()
        _flip_digit(artifact)
        assert artifact.read_text() != sound

        before = snapshot()["counters"]
        resumed = sweep_tiers(
            "gshare", trace, size_bits=[4], checkpoint_dir=str(tmp_path)
        )
        after = snapshot()["counters"]
        assert after["sweep.points_computed"] - before["sweep.points_computed"] == 1
        assert surface_cells(resumed) == surface_cells(serial)
        # The recomputed point was written back over the damage.
        assert artifact.read_text() == sound

    def test_corrupt_artifact_passes_doctor_after_repair(
        self, trace, tmp_path
    ):
        from repro.check.doctor import scan_result_store

        sweep_tiers(
            "gshare", trace, size_bits=[4], checkpoint_dir=str(tmp_path)
        )
        _flip_digit(sorted(tmp_path.glob("rs-*.json"))[1])
        findings = scan_result_store(str(tmp_path), repair=True)
        assert [f.check for f in findings if f.severity == "error"] == [
            "doctor.results-corrupt"
        ]
        assert any(f.check == "doctor.results-repaired" for f in findings)
        assert len(list(tmp_path.glob("*.quarantine"))) == 1
        findings = scan_result_store(str(tmp_path))
        assert all(f.severity == "info" for f in findings)
