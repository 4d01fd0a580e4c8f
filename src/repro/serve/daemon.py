"""The ``repro serve`` daemon: queue in, cached figures out.

One daemon owns one queue directory. Each scheduling pass (*tick*) it

1. honors cancel flags and fails jobs whose specs cannot be planned,
2. *plans* every live job: resolve benchmarks, materialize traces into
   the trace store, statically precheck the sweep grid, and derive the
   content address of every point,
3. *serves* whatever the :class:`~repro.serve.results.ResultStore`
   already holds (``cache.hits``; a repeat submission finishes here
   without touching the simulator),
4. fans the remaining points of **all** jobs over the worker pool
   (:func:`repro.exec.parallel.run_points`, the same pool ``repro run
   --workers`` uses); each point is written to the store the moment it
   lands, and a point that fails even serially fails only the jobs
   that need it,
5. *finalizes*: rebuilds each job's surfaces in plan order from the
   store, writes a CRC-stamped result artifact next to the job file,
   records ledger rows, and appends the terminal queue event.

Because every finished point lands in the store before any job is
finalized, two jobs needing the same point simulate it once, and a
daemon killed at any instant restarts from the queue with no lost or
duplicated points: the store already holds every point that landed,
and ``running`` jobs from the dead daemon re-queue.

SIGTERM/SIGINT drain cooperatively — in-flight points land in the
store, live jobs re-queue resumably — and the daemon exits 0 with a
merged metrics report covering everything any worker simulated under
it.
"""

from __future__ import annotations

import itertools
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.exec.parallel import PointTask, run_points
from repro.obs.dashboard import FleetDashboard
from repro.obs.logging import get_logger
from repro.obs.metrics import counter, histogram
from repro.obs.spans import span
from repro.runtime.durable import atomic_write_text, sweep_key
from repro.sim.results import TierPoint
from repro.traces.trace import BranchTrace

from repro.serve.queue import Job, JobQueue, ServeError
from repro.serve.results import RESULT_STORE_ENV, ResultStore, point_key

#: Schema tag of the finished-job artifact written next to the job file.
JOB_RESULT_SCHEMA = "repro.job-result/1"

#: Idle sleep between queue scans.
POLL_INTERVAL_S = 0.05


class _Drained(Exception):
    """Raised from the pool's poll hook once a stop signal arrived."""


@dataclass
class UnitPlan:
    """One benchmark of one job, decomposed into addressed points."""

    benchmark: str
    trace: BranchTrace
    fingerprint: str
    plan: List[Tuple[int, int]]
    keys: Dict[Tuple[int, int], str]
    sweep_key: str


@dataclass
class JobPlan:
    """A planned job: per-benchmark units plus cache accounting."""

    job: Job
    scheme: str
    units: List[UnitPlan]
    cache_hits: int = 0
    cache_misses: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def total_points(self) -> int:
        return sum(len(unit.plan) for unit in self.units)


class ServeDaemon:
    """Long-lived scheduler over one queue directory."""

    def __init__(
        self,
        queue_dir: str,
        workers: int = 2,
        once: bool = False,
        poll_interval: float = POLL_INTERVAL_S,
        dashboard: bool = False,
        engine: str = "auto",
    ):
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers!r}")
        self.queue = JobQueue(queue_dir)
        self.workers = workers
        self.once = once
        self.poll_interval = poll_interval
        self.dashboard = dashboard
        self.engine = engine
        results_dir = os.environ.get(RESULT_STORE_ENV) or os.path.join(
            queue_dir, "results"
        )
        self.results = ResultStore(results_dir)
        self.log = get_logger("repro.serve")
        self._stop = False

    # -- lifecycle -----------------------------------------------------

    def run(self) -> int:
        """Serve until stopped (or, with ``once``, until the queue
        drains); returns the process exit code."""
        os.makedirs(self.queue.directory, exist_ok=True)
        previous = self._install_signals()
        try:
            self._requeue_running()
            while not self._stop:
                progressed = self.tick()
                if self._stop:
                    break
                if self.once:
                    if not self._live_jobs():
                        break
                elif not progressed:
                    time.sleep(self.poll_interval)
        finally:
            self._restore_signals(previous)
            self._shutdown()
        return 0

    def _install_signals(self):
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, self._on_signal)
            except ValueError:  # pragma: no cover - non-main thread
                pass
        return previous

    def _restore_signals(self, previous) -> None:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except ValueError:  # pragma: no cover - non-main thread
                pass

    def _on_signal(self, signum, frame) -> None:
        # Just flip the flag: the poll loops notice it within one tick
        # and coordinate the drain from normal control flow.
        self._stop = True

    def _live_jobs(self) -> List[Job]:
        return [job for job in self.queue.jobs() if job.is_live()]

    def _requeue_running(self) -> None:
        """Re-queue the ``running`` jobs a dead daemon left behind.

        Every point that daemon finished is already in the result
        store, so the next pass serves those as cache hits.
        """
        requeued = 0
        for job in self.queue.jobs():
            if job.state == "running":
                self.queue.append_event(job, "queued", {"requeued": True})
                requeued += 1
        if requeued:
            self.log.info("%d running job(s) re-queued", requeued)

    def _shutdown(self) -> None:
        """Leave the queue resumable and the telemetry written."""
        from repro.obs.report import write_metrics

        for job in self._live_jobs():
            if job.state == "running":
                self.queue.append_event(job, "queued", {"drained": True})
        try:
            write_metrics(
                os.path.join(self.queue.directory, "serve_metrics.json")
            )
        except OSError:  # pragma: no cover - queue dir vanished
            pass

    # -- one scheduling pass -------------------------------------------

    def tick(self) -> bool:
        """Plan, serve, simulate, and finalize every live job once.

        Returns whether any job made progress (the idle loop sleeps
        when nothing did). Jobs submitted while a pass is running are
        picked up by the next pass.
        """
        self._honor_cancels()
        plans = self._plan_live_jobs()
        if not plans:
            return False

        # Serve from the store first: every already-cached point is a
        # hit, and a fully cached job never reaches the pool.
        wanted: set = set()
        per_job: List[List[PointTask]] = []
        for plan in plans:
            per_job.append(self._serve_cached(plan, wanted))
            if plan.job.state == "queued":
                self.queue.append_event(
                    plan.job,
                    "running",
                    {
                        "points": plan.total_points,
                        "cache_hits": plan.cache_hits,
                    },
                )

        # Interleave jobs so no single job monopolizes the first
        # dispatches: every live figure makes progress from the start.
        tasks = [
            task
            for group in itertools.zip_longest(*per_job)
            for task in group
            if task is not None
        ]
        errors: Dict[str, str] = {}
        if tasks and not self._stop:
            errors = self._execute(tasks)

        for plan in plans:
            self._finalize(plan, errors)
        return True

    def _honor_cancels(self) -> None:
        for job in self._live_jobs():
            if not job.cancel_requested():
                continue
            self.queue.append_event(job, "cancelled", {})
            self.queue.clear_cancel(job)
            counter("serve.jobs_cancelled").inc()
            self.log.info("job %s cancelled", job.id)

    def _plan_live_jobs(self) -> List[JobPlan]:
        plans = []
        for job in self._live_jobs():
            try:
                plans.append(self._plan_job(job))
            except ReproError as error:
                self.queue.append_event(job, "failed", {"error": str(error)})
                counter("serve.jobs_failed").inc()
                self.log.error("job %s rejected: %s", job.id, error)
        return plans

    def _plan_job(self, job: Job) -> JobPlan:
        from repro.experiments.base import FOCUS, ExperimentOptions
        from repro.experiments.surface_common import SURFACE_SCHEMES
        from repro.workloads.store import TraceStore

        spec = job.spec
        scheme = SURFACE_SCHEMES.get(spec.experiment)
        if scheme is None:
            known = ", ".join(sorted(SURFACE_SCHEMES))
            raise ServeError(
                f"experiment {spec.experiment!r} is not servable; the "
                f"sweep service schedules the surface figures ({known}) "
                "— run others with one-shot `repro run`"
            )
        options = ExperimentOptions(
            length=spec.length,
            seed=spec.seed,
            benchmarks=list(spec.benchmarks) or None,
            size_bits=list(spec.size_bits),
        )
        benchmarks = options.resolve_benchmarks(FOCUS)

        from repro.check.configs import verify_sweep_plan

        findings = verify_sweep_plan(scheme, list(spec.size_bits))
        blocking = [f for f in findings if f.severity == "error"]
        if blocking:
            raise ServeError(
                f"sweep precheck rejected {len(blocking)} planned "
                f"point(s): {blocking[0].render()}"
            )

        store = TraceStore.from_env()
        if store is None:
            store = TraceStore(
                os.path.join(self.queue.directory, "traces")
            )
        units = []
        grid = [
            (n, row_bits)
            for n in spec.size_bits
            for row_bits in range(n + 1)
        ]
        for bench in benchmarks:
            trace = store.get(bench, length=spec.length, seed=spec.seed)
            fingerprint = trace.fingerprint()
            keys = {
                (n, row_bits): point_key(scheme, fingerprint, n, row_bits)
                for n, row_bits in grid
            }
            units.append(
                UnitPlan(
                    benchmark=bench,
                    trace=trace,
                    fingerprint=fingerprint,
                    plan=list(grid),
                    keys=keys,
                    sweep_key=sweep_key(
                        scheme, fingerprint, list(spec.size_bits)
                    ),
                )
            )
        return JobPlan(job=job, scheme=scheme, units=units)

    def _serve_cached(
        self, plan: JobPlan, wanted: set
    ) -> List[PointTask]:
        """Count hits/misses for the job; return tasks for its misses.

        Identical points wanted by several jobs collapse to one task:
        ``wanted`` holds the content addresses already queued this
        pass, which is exactly the in-flight dedup the result store's
        addressing buys.
        """
        tasks = []
        for unit in plan.units:
            for n, row_bits in unit.plan:
                key = unit.keys[(n, row_bits)]
                if self.results.get(key) is not None:
                    plan.cache_hits += 1
                    continue
                plan.cache_misses += 1
                if key not in wanted:
                    wanted.add(key)
                    tasks.append(
                        PointTask(key, plan.scheme, unit.trace, n, row_bits)
                    )
        return tasks

    # -- execution -----------------------------------------------------

    def _execute(self, tasks: List[PointTask]) -> Dict[str, str]:
        """Run ``tasks`` on the pool; returns per-key error messages.

        Every point is written to the store as it lands. A stop signal
        drains the pool (in-flight points still land) and returns with
        the rest missing; their jobs re-queue at shutdown.
        """
        def poll() -> None:
            if self._stop:
                raise _Drained()

        def persist(task: PointTask, point: TierPoint) -> None:
            self.results.put(task.key, task.n, point)

        counter("serve.rounds").inc()
        fleet = (
            FleetDashboard(f"serve x{self.workers}")
            if self.dashboard
            else None
        )
        try:
            errors = run_points(
                tasks,
                persist,
                workers=self.workers,
                engine=self.engine,
                poll=poll,
                fleet=fleet,
            )
        except _Drained:
            return {}
        return {
            key: f"{type(error).__name__}: {error}"
            for key, error in errors.items()
        }

    # -- completion ----------------------------------------------------

    def _finalize(self, plan: JobPlan, errors: Dict[str, str]) -> None:
        """Assemble, persist, and account one job's result — or record
        why it cannot be."""
        from repro.analysis.ascii_plots import render_surface
        from repro.experiments.runner import experiment_title
        from repro.obs.ledger import note_sweep_key, record_run
        from repro.sim.results import TierSurface

        job = plan.job
        if job.state != "running":  # cancelled (or failed) mid-pass
            return
        missing = 0
        first_error: Optional[str] = None
        surfaces = []
        for unit in plan.units:
            surface = TierSurface(
                scheme=plan.scheme, trace_name=unit.trace.name
            )
            for n, row_bits in unit.plan:
                key = unit.keys[(n, row_bits)]
                point = self.results.peek(key)
                if point is None:
                    missing += 1
                    if first_error is None and key in errors:
                        first_error = errors[key]
                    continue
                surface.add(n, point)
            surfaces.append(surface)
        if self._stop and missing:
            return  # draining: the job re-queues resumably at shutdown
        if missing:
            detail = {
                "error": first_error
                or f"{missing} point(s) missing after execution",
                "missing": missing,
            }
            self.queue.append_event(job, "failed", detail)
            counter("serve.jobs_failed").inc()
            self.log.error(
                "job %s failed: %s", job.id, detail["error"]
            )
            return

        computed = plan.total_points - plan.cache_hits
        with span("serve.job", id=job.id, experiment=job.spec.experiment):
            payload = {
                "schema": JOB_RESULT_SCHEMA,
                "id": job.id,
                "experiment": job.spec.experiment,
                "title": experiment_title(job.spec.experiment),
                "text": "\n\n".join(render_surface(s) for s in surfaces),
            }
            from repro.obs.ledger import _entry_crc

            payload["crc"] = _entry_crc(payload)
            import json

            atomic_write_text(
                job.result_path(),
                json.dumps(payload, sort_keys=True) + "\n",
            )
        for unit in plan.units:
            note_sweep_key(unit.sweep_key)
        record_run(f"serve:{job.spec.experiment}", workers=self.workers)
        detail = {
            "points": plan.total_points,
            "cache_hits": plan.cache_hits,
            "computed": computed,
        }
        self.queue.append_event(job, "done", detail)
        counter("serve.jobs_completed").inc()
        started = job.events[0]["ts"] if job.events else job.submitted
        histogram("serve.job_s").observe(max(0.0, time.time() - started))
        self.log.info(
            "job %s done: %d point(s), %d from cache, %d computed",
            job.id,
            plan.total_points,
            plan.cache_hits,
            computed,
        )
