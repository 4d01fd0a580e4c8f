"""Worker-pool tests: identity, fault paths, crash safety, services.

The contract under test: ``sweep_tiers(..., workers=N)`` must produce
*exactly* the serial results — same points, same floats, same tier
order — while surviving worker errors and deaths and a parent SIGINT,
each forced by substituting a function the forked workers inherit.
The parent is the only process that writes finished
points, so a SIGKILLed run resumes from the result artifacts it left,
and its workers never outlive it. The trace store is covered here too.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

import pytest

from repro.cli import EXIT_INTERRUPT, main
from repro.errors import ConfigurationError
from repro.exec import parallel
from repro.exec.parallel import PointTask, run_points
from repro.obs import get_tracer, reset_metrics, snapshot
from repro.obs.spans import SpanTracer
from repro.serve.results import ResultStore, point_key
from repro.sim.sweep import compute_point, spec_for_point, sweep_tiers
from repro.workloads.registry import make_workload
from repro.workloads.store import TraceStore


@pytest.fixture(autouse=True)
def _clean_runtime(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
    reset_metrics()
    get_tracer().reset()
    yield
    reset_metrics()
    get_tracer().close_sink()
    get_tracer().reset()


@pytest.fixture(scope="module")
def trace():
    return make_workload("compress", length=4_000, seed=2)


def surface_cells(surface):
    """Every field of every point, in rendering order — equality on
    this is byte-for-byte equality of the sweep's results."""
    return [
        (n, p.col_bits, p.row_bits, p.misprediction_rate,
         p.aliasing_rate, p.first_level_miss_rate)
        for n, points in surface.tiers.items()
        for p in points
    ]


class TestParallelIdentity:
    @pytest.mark.parametrize("scheme", ["gas", "gshare"])
    def test_matches_serial_exactly(self, scheme, trace):
        serial = sweep_tiers(scheme, trace, size_bits=[4, 5])
        parallel = sweep_tiers(scheme, trace, size_bits=[4, 5], workers=2)
        assert surface_cells(parallel) == surface_cells(serial)

    def test_matches_serial_with_checkpoint_dir(self, trace, tmp_path):
        serial = sweep_tiers("gas", trace, size_bits=[4, 5])
        parallel = sweep_tiers(
            "gas", trace, size_bits=[4, 5], workers=3,
            checkpoint_dir=str(tmp_path),
        )
        assert surface_cells(parallel) == surface_cells(serial)
        # One result artifact per point, written by the parent; nothing
        # else (no journal, no worker scratch) is left behind.
        assert sorted(os.listdir(tmp_path)) == sorted(
            p.name for p in tmp_path.glob("rs-*.json")
        )
        assert len(os.listdir(tmp_path)) == 11

    def test_tier_order_follows_plan_not_completion(self, trace):
        surface = sweep_tiers("gas", trace, size_bits=[5, 4], workers=2)
        assert list(surface.tiers) == [5, 4]
        for points in surface.tiers.values():
            rows = [p.row_bits for p in points]
            assert rows == sorted(rows)

    def test_parallel_run_leaves_no_tempdirs(self, trace):
        pattern = os.path.join(tempfile.gettempdir(), "repro-sweep-*")
        before = set(glob.glob(pattern))
        sweep_tiers("gas", trace, size_bits=[4], workers=2)
        assert set(glob.glob(pattern)) == before

    def test_workers_must_be_positive(self, trace):
        with pytest.raises(ConfigurationError):
            sweep_tiers("gas", trace, size_bits=[4], workers=0)


def _point_of(spec):
    """The ``(n, row_bits)`` tier point a sweep spec simulates."""
    return spec.column_bits + spec.history_bits, spec.history_bits


def _in_workers(monkeypatch, fail):
    """Substitute the pool's ``compute_point`` so that ``fail(n,
    row_bits)`` runs first in forked workers only; the parent's serial
    fallback computes normally."""
    parent = os.getpid()

    def failing(spec, trace):
        if os.getpid() != parent:
            fail(*_point_of(spec))
        return compute_point(spec, trace)

    monkeypatch.setattr(parallel, "compute_point", failing)


class TestWorkerCrashResilience:
    def test_all_workers_crashing_falls_back_to_serial(
        self, trace, monkeypatch
    ):
        serial_cells = surface_cells(
            sweep_tiers("gas", trace, size_bits=[4])
        )
        reset_metrics()

        def crash(n, row_bits):
            raise RuntimeError(f"worker crashed on n={n} r={row_bits}")

        _in_workers(monkeypatch, crash)
        surface = sweep_tiers("gas", trace, size_bits=[4], workers=2)
        assert surface_cells(surface) == serial_cells
        counters = snapshot()["counters"]
        assert counters["exec.worker_failures"] > 0
        assert counters["sweep.points_computed"] == 5

    def test_killed_worker_points_survive(
        self, trace, tmp_path, monkeypatch
    ):
        # The first worker to start a point SIGKILLs itself (once across
        # all processes, claimed through an exclusive-create marker): the
        # parent replaces the dead worker, re-dispatches its in-flight
        # point, and converges on the serial surface.
        serial_cells = surface_cells(
            sweep_tiers("gas", trace, size_bits=[4])
        )
        reset_metrics()
        marker = str(tmp_path / "killed")

        def kill_once(n, row_bits):
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return
            os.kill(os.getpid(), signal.SIGKILL)

        _in_workers(monkeypatch, kill_once)
        surface = sweep_tiers("gas", trace, size_bits=[4], workers=2)
        assert surface_cells(surface) == serial_cells
        counters = snapshot()["counters"]
        assert counters["exec.worker_failures"] == 1
        # A replacement worker made progress after the death.
        assert counters["exec.workers_spawned"] == 3

    def test_interrupted_parallel_run_resumes_from_artifacts(
        self, trace, tmp_path, worker_sigint
    ):
        serial_cells = surface_cells(
            sweep_tiers("gas", trace, size_bits=[4, 5])
        )
        worker_sigint(4, 1)
        with pytest.raises(KeyboardInterrupt):
            sweep_tiers(
                "gas", trace, size_bits=[4, 5], workers=2,
                checkpoint_dir=str(tmp_path),
            )
        # The point whose worker sent the SIGINT was in flight; it landed.
        stored = ResultStore(str(tmp_path))
        assert stored.get(point_key("gas", trace.fingerprint(), 4, 1))
        resumed = sweep_tiers(
            "gas", trace, size_bits=[4, 5], workers=2,
            checkpoint_dir=str(tmp_path),
        )
        assert surface_cells(resumed) == serial_cells


class TestPointFailure:
    """A point that fails in every round and serially fails the sweep
    without losing the points that landed."""

    BAD = (4, 2)  # (n, row_bits) of the point that always fails

    @pytest.fixture()
    def failing_point(self, monkeypatch):
        def failing(spec, trace):
            if _point_of(spec) == self.BAD:
                n, row_bits = self.BAD
                raise ValueError(f"cannot simulate n={n} r={row_bits}")
            return compute_point(spec, trace)

        monkeypatch.setattr(parallel, "compute_point", failing)

    def test_run_points_returns_the_error_per_key(
        self, trace, failing_point
    ):
        tasks = [
            PointTask(f"k{n}-{r}", spec_for_point("gas", n - r, r), trace)
            for n, r in [(4, 1), self.BAD, (4, 3)]
        ]
        landed = []
        errors = run_points(
            tasks, lambda task, point: landed.append(task.key), workers=2
        )
        assert sorted(landed) == ["k4-1", "k4-3"]
        assert list(errors) == ["k4-2"]
        assert isinstance(errors["k4-2"], ValueError)

    def test_failed_point_keeps_the_rest_and_resumes(
        self, trace, tmp_path, failing_point, monkeypatch
    ):
        with pytest.raises(ValueError, match="n=4 r=2"):
            sweep_tiers(
                "gas", trace, size_bits=[4, 5], workers=2,
                checkpoint_dir=str(tmp_path),
            )
        store = ResultStore(str(tmp_path))
        fingerprint = trace.fingerprint()
        for n in (4, 5):
            for r in range(n + 1):
                stored = store.get(point_key("gas", fingerprint, n, r))
                assert (stored is None) == ((n, r) == self.BAD)

        monkeypatch.setattr(parallel, "compute_point", compute_point)
        reset_metrics()
        resumed = sweep_tiers(
            "gas", trace, size_bits=[4, 5], workers=2,
            checkpoint_dir=str(tmp_path),
        )
        counters = snapshot()["counters"]
        assert counters["sweep.points_computed"] == 1
        assert counters["sweep.points_restored"] == 10
        assert surface_cells(resumed) == surface_cells(
            sweep_tiers("gas", trace, size_bits=[4, 5])
        )


class TestCliParallel:
    RUN = ["run", "fig4", "--length", "2000",
           "--benchmark", "compress", "--sizes", "4"]

    def test_workers_flag_matches_serial_output(self, capsys):
        assert main(self.RUN) == 0
        baseline = capsys.readouterr().out
        assert main(self.RUN + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == baseline

    def test_parallel_interrupt_exits_130_and_resumes(
        self, tmp_path, capsys, worker_sigint
    ):
        assert main(self.RUN) == 0
        baseline = capsys.readouterr().out
        worker_sigint(4, 1)
        code = main(
            self.RUN + ["--checkpoint-dir", str(tmp_path),
                        "--workers", "2"]
        )
        assert code == EXIT_INTERRUPT
        assert "interrupted" in capsys.readouterr().err
        assert list(tmp_path.glob("rs-*.json"))
        code = main(
            self.RUN + ["--checkpoint-dir", str(tmp_path),
                        "--workers", "2"]
        )
        assert code == 0
        assert capsys.readouterr().out == baseline


class TestTraceStore:
    def test_from_env_requires_variable(self, tmp_path, monkeypatch):
        assert TraceStore.from_env() is None
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        store = TraceStore.from_env()
        assert store is not None
        assert store.directory == str(tmp_path)

    def test_get_counts_hits_and_misses(self, tmp_path):
        store = TraceStore(str(tmp_path))
        first = store.get("compress", length=2_000, seed=1)
        second = store.get("compress", length=2_000, seed=1)
        counters = snapshot()["counters"]
        assert counters["store.misses"] == 1
        assert counters["store.hits"] == 1
        assert list(first.taken) == list(second.taken)

    def test_experiment_trace_goes_through_store(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments.base import ExperimentOptions

        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        options = ExperimentOptions(length=2_000, seed=3)
        options.trace("compress")
        options.trace("compress")
        counters = snapshot()["counters"]
        assert counters["store.misses"] == 1
        assert counters["store.hits"] == 1

class TestTelemetryMerge:
    def test_worker_telemetry_is_counters_and_spans(self, trace):
        sweep_tiers("gas", trace, size_bits=[4])
        telemetry = parallel._telemetry()
        assert set(telemetry) == {"counters", "spans"}
        assert all(telemetry["counters"].values())  # zeros are dropped
        branches = telemetry["counters"]["sim.branches"]
        reset_metrics()
        get_tracer().reset()
        parallel._absorb(telemetry)
        assert snapshot()["counters"]["sim.branches"] == branches
        assert snapshot()["counters"]["sim.wall_s"] == 0  # parent's own
        assert get_tracer().aggregates()["engine.vectorized"]["count"] == 5

    def test_tracer_absorb_aggregates(self):
        tracer = SpanTracer()
        tracer.absorb_aggregates(
            {"counter_update": {"count": 2, "total_s": 3.0, "self_s": 1.0,
                                "min_s": 1.0, "max_s": 2.0}}
        )
        tracer.absorb_aggregates(
            {"counter_update": {"count": 1, "total_s": 0.5, "self_s": 0.25,
                                "min_s": 0.5, "max_s": 0.5}}
        )
        aggregates = tracer.aggregates()
        assert aggregates["counter_update"]["count"] == 3
        assert aggregates["counter_update"]["min_s"] == 0.5
        assert aggregates["counter_update"]["self_s"] == 1.25

    def test_parallel_run_merges_worker_telemetry(self, trace):
        sweep_tiers("gas", trace, size_bits=[4], workers=2)
        data = snapshot()
        assert data["counters"]["sim.branches"] == 5 * 4_000
        spans = get_tracer().aggregates()
        assert spans["engine.vectorized"]["count"] == 5
        assert spans["engine.vectorized"]["self_s"] > 0

    def test_worker_span_counts_match_serial(self, tmp_path, capsys):
        run = ["run", "fig4", "--benchmark", "compress", "--length", "2000",
               "--sizes", "4", "5"]
        spans = {}
        for workers in ("1", "2"):
            metrics = tmp_path / f"m{workers}.json"
            argv = run + ["--workers", workers, "--metrics-out", str(metrics)]
            assert main(argv) == 0
            spans[workers] = json.loads(metrics.read_text())["spans"]
        serial, merged = spans["1"], spans["2"]
        for name in ("engine.vectorized", "index_stream", "counter_update",
                     "fsm_scan"):
            assert serial[name]["count"] == merged[name]["count"] == 11
            assert merged[name]["self_s"] > 0
        for name, summary in serial.items():
            assert merged[name]["count"] == summary["count"], name


SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: A fig4 run long enough (~100 points) to be killed part-way through.
KILL_RUN = ["run", "fig4", "--benchmark", "compress", "--length", "20000",
            "--sizes", "4", "5", "6", "7", "8", "9", "10", "11", "12"]


#: ``repro`` with every pool point stalled for a minute; forked workers
#: inherit the substitution.
STALLED_WORKERS = (
    "import sys, time\n"
    "from repro.cli import main\n"
    "from repro.exec.parallel import PointTask\n"
    "PointTask.compute = lambda self: time.sleep(60)\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def _repro_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _alive(pid):
    """Whether ``pid`` is a live (running, not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def _children(pid):
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as f:
            return [int(child) for child in f.read().split()]
    except OSError:
        return []


def _wait_for(predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


@pytest.mark.skipif(
    not os.path.exists("/proc/self/task"), reason="needs Linux /proc"
)
class TestParentKill:
    def test_sigkilled_run_resumes_from_its_artifacts(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        env = _repro_env()
        serial = subprocess.run(
            [sys.executable, "-m", "repro", *KILL_RUN],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert serial.returncode == 0, serial.stderr
        total = sum(n + 1 for n in range(4, 13))

        run = subprocess.Popen(
            [sys.executable, "-m", "repro", *KILL_RUN, "--workers", "2",
             "--checkpoint-dir", str(ckpt)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            assert _wait_for(lambda: len(list(ckpt.glob("rs-*.json"))) >= 5)
        finally:
            run.kill()
            run.wait()
        found = len(list(ckpt.glob("rs-*.json")))
        assert 0 < found < total

        metrics = tmp_path / "m.json"
        resumed = subprocess.run(
            [sys.executable, "-m", "repro", *KILL_RUN, "--workers", "2",
             "--checkpoint-dir", str(ckpt), "--metrics-out", str(metrics)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == serial.stdout
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["sweep.points_computed"] == total - found
        assert counters["sweep.points_restored"] == found

    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        # Every worker stalls a minute inside its first point, so only
        # noticing the parent's death can end it within the bound.
        run = subprocess.Popen(
            [sys.executable, "-c", STALLED_WORKERS, *KILL_RUN,
             "--workers", "2"],
            env=_repro_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            assert _wait_for(lambda: len(_children(run.pid)) >= 2)
            workers = _children(run.pid)
        finally:
            run.send_signal(signal.SIGKILL)
            run.wait()
        assert _wait_for(
            lambda: not any(_alive(pid) for pid in workers), timeout=10.0
        ), [pid for pid in workers if _alive(pid)]
