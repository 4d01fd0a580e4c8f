"""Tests for transition rates, run lengths, and the trace store."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.traces import BranchTrace, run_length_counts, transition_rate
from repro.traces.stats import outcome_entropy, per_branch_entropy
from repro.workloads import TraceStore, make_workload


def trace_of(records):
    return BranchTrace.from_records(records)


class TestTransitionRate:
    def test_constant_branch_never_transitions(self):
        trace = trace_of([(0x100, True)] * 20)
        assert transition_rate(trace) == 0.0

    def test_alternating_branch_always_transitions(self):
        trace = trace_of([(0x100, i % 2 == 0) for i in range(20)])
        assert transition_rate(trace) == 1.0

    def test_mixed(self):
        # TTTN per period: 1 transition in... runs T T T | N: outcome
        # changes twice per period of 4 (T->N and N->T).
        pattern = [True, True, True, False]
        trace = trace_of([(0x100, pattern[i % 4]) for i in range(400)])
        assert transition_rate(trace) == pytest.approx(0.5, abs=0.01)

    def test_interleaved_branches_independent(self):
        # Two constant branches interleaved: no per-branch transitions
        # even though the global stream alternates.
        records = []
        for _ in range(50):
            records.append((0x100, True))
            records.append((0x200, False))
        assert transition_rate(trace_of(records)) == 0.0

    def test_too_short_rejected(self):
        with pytest.raises(TraceError):
            transition_rate(trace_of([(0x100, True)]))

    def test_no_repeats_rejected(self):
        with pytest.raises(TraceError):
            transition_rate(trace_of([(0x100, True), (0x104, True)]))


class TestRunLengths:
    def test_constant_branch_one_long_run(self):
        trace = trace_of([(0x100, True)] * 10)
        counts = run_length_counts(trace, max_length=16)
        assert counts[10] == 1
        assert counts.sum() == 1

    def test_alternating_runs_of_one(self):
        trace = trace_of([(0x100, i % 2 == 0) for i in range(10)])
        counts = run_length_counts(trace)
        assert counts[1] == 10

    def test_long_runs_clipped(self):
        trace = trace_of([(0x100, True)] * 100)
        counts = run_length_counts(trace, max_length=8)
        assert counts[8] == 1
        assert len(counts) == 9

    def test_loop_workload_has_long_run_tail(self):
        trace = make_workload("compress", length=10_000, seed=1)
        counts = run_length_counts(trace, max_length=8)
        # Back-edges produce runs at the clipped tail.
        assert counts[8] > 0

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            run_length_counts(trace_of([]))


class TestOutcomeEntropy:
    def test_fair_coin_is_one_bit(self):
        assert outcome_entropy(0.5) == pytest.approx(1.0)

    def test_boundaries_are_zero(self):
        assert outcome_entropy(0.0) == 0.0
        assert outcome_entropy(1.0) == 0.0

    def test_symmetry(self):
        for rate in (0.1, 0.25, 0.4):
            assert outcome_entropy(rate) == pytest.approx(
                outcome_entropy(1.0 - rate)
            )

    def test_monotone_toward_half(self):
        rates = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        values = [outcome_entropy(r) for r in rates]
        assert values == sorted(values)

    @pytest.mark.parametrize("rate", [-0.01, 1.01, 2.0])
    def test_out_of_range_rejected(self, rate):
        with pytest.raises(TraceError):
            outcome_entropy(rate)


class TestPerBranchEntropy:
    def test_empty_trace_rejected(self):
        empty = BranchTrace(
            pc=np.empty(0, dtype=np.uint64),
            taken=np.empty(0, dtype=bool),
            target=np.empty(0, dtype=np.uint64),
            name="empty",
        )
        with pytest.raises(TraceError):
            per_branch_entropy(empty)

    def test_single_branch_trace(self):
        trace = trace_of([(0x100, i % 2 == 0) for i in range(40)])
        entropies = per_branch_entropy(trace)
        assert set(entropies) == {0x100}
        assert entropies[0x100] == pytest.approx(1.0)

    def test_all_taken_stream_has_zero_entropy(self):
        trace = trace_of(
            [(0x100, True)] * 30 + [(0x200, True)] * 10
        )
        entropies = per_branch_entropy(trace)
        assert entropies == {0x100: 0.0, 0x200: 0.0}

    def test_mixed_branches_score_independently(self):
        trace = trace_of(
            [(0x100, True)] * 20
            + [(0x200, i % 2 == 0) for i in range(20)]
        )
        entropies = per_branch_entropy(trace)
        assert entropies[0x100] == 0.0
        assert entropies[0x200] == pytest.approx(1.0)


class TestTraceStore:
    def test_generate_then_load(self, tmp_path):
        store = TraceStore(str(tmp_path))
        assert not store.contains("compress", 2_000, seed=1)
        first = store.get("compress", 2_000, seed=1)
        assert store.contains("compress", 2_000, seed=1)
        second = store.get("compress", 2_000, seed=1)
        assert np.array_equal(first.pc, second.pc)
        assert len(store.stored_files()) == 1

    def test_distinct_keys_distinct_files(self, tmp_path):
        store = TraceStore(str(tmp_path))
        store.get("compress", 1_000, seed=1)
        store.get("compress", 1_000, seed=2)
        store.get("compress", 2_000, seed=1)
        assert len(store.stored_files()) == 3

    def test_missing_directory_lists_empty(self, tmp_path):
        store = TraceStore(str(tmp_path / "nope"))
        assert store.stored_files() == []

    def test_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "env"))
        store = TraceStore()
        assert store.directory == str(tmp_path / "env")


class TestGenerateCli:
    def test_generate_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        code = main(
            ["generate", "compress", "--length", "2000",
             "--store", store_dir]
        )
        assert code == 0
        assert "generated" in capsys.readouterr().out
        code = main(
            ["generate", "compress", "--length", "2000",
             "--store", store_dir]
        )
        assert code == 0
        assert "loaded" in capsys.readouterr().out

    def test_generate_loads_no_experiment_analysis_or_check(self, tmp_path):
        # Generating a calibrated trace needs the workload layer only;
        # run in a fresh interpreter so no other test's imports count.
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        env["PYTHONPATH"] = os.path.abspath(src)
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "argv = ['generate', 'real_gcc', '--length', '2000']\n"
            f"assert main(argv + ['--store', {str(tmp_path)!r}]) == 0\n"
            "layers = ('repro.experiments', 'repro.cfg', 'repro.check')\n"
            "print(sorted(m for m in sys.modules if m in layers\n"
            "             or m.startswith(tuple(p + '.' for p in layers))))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
