"""The ``repro serve`` daemon: queue in, cached figures out.

One daemon owns one queue directory. Each scheduling pass (*tick*) it

1. honors cancel flags and fails jobs whose specs cannot be planned,
2. *plans* every live job: resolve benchmarks, materialize traces into
   the trace store, statically precheck the sweep grid, and derive the
   content address of every point,
3. *serves* whatever the :class:`~repro.serve.results.ResultStore`
   already holds (``cache.hits``; a repeat submission finishes here
   without touching the simulator),
4. fans the remaining tasks of **all** jobs over one shared worker
   pool (:mod:`repro.serve.pool`) — respawn rounds re-claim crashed
   workers' shards, and a serial in-process fallback guarantees
   completion even if every worker dies every round,
5. *finalizes*: rebuilds each job's surfaces in plan order from the
   store, writes a CRC-stamped result artifact next to the job file,
   records ledger rows, and appends the terminal queue event.

Because every finished point lands in the store before any job is
finalized, two jobs needing the same point simulate it once, and a
daemon killed at any instant restarts from the queue with no lost or
duplicated points: leftover worker result logs are fence-checked and
salvaged into the store at startup, and ``running`` jobs from the dead
daemon re-queue.

SIGTERM/SIGINT drain cooperatively — workers finish their in-flight
task, logs fold into the store, live jobs re-queue resumably — and the
daemon exits 0 with a merged metrics report covering everything any
worker simulated under it.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.dashboard import FleetDashboard
from repro.obs.logging import get_logger
from repro.obs.metrics import counter, histogram
from repro.obs.spans import span
from repro.runtime.backoff import RESPAWN_BACKOFF
from repro.runtime.checkpoint import atomic_write_text, sweep_key

from repro.serve.pool import (
    PoolPlan,
    PoolTask,
    clear_pool_artifacts,
    load_pool_results,
    pool_progress,
    pool_worker_main,
    result_point,
    shard_tasks,
)
from repro.serve.queue import Job, JobQueue, ServeError
from repro.serve.results import RESULT_STORE_ENV, ResultStore, point_key

#: Schema tag of the finished-job artifact written next to the job file.
JOB_RESULT_SCHEMA = "repro.job-result/1"

#: Seconds between daemon poll-loop ticks while workers run, and the
#: idle sleep between queue scans (matches the executor's cadence).
POLL_INTERVAL_S = 0.05

#: Respawn rounds after worker failures before the daemon finishes the
#: remainder serially in-process (guaranteed completion).
MAX_ROUNDS = 3

#: Seconds a draining worker gets to finish its in-flight task.
DRAIN_TIMEOUT_S = 30.0


@dataclass
class UnitPlan:
    """One benchmark of one job, decomposed into addressed points."""

    benchmark: str
    trace_name: str
    trace_path: str
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


def _mp_context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - no fork on this platform
        return multiprocessing.get_context("spawn")


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
        self.scratch = os.path.join(queue_dir, "pool")
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
        os.makedirs(self.scratch, exist_ok=True)
        previous = self._install_signals()
        try:
            self._salvage()
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

    def _salvage(self) -> None:
        """Recover whatever a previous daemon's death left behind.

        Worker result logs carry each point's content address, so a
        crashed daemon's finished points fold straight into the result
        store (fence-checked — a zombie's superseded lines are dropped)
        without re-deriving any job's plan; ``running`` jobs re-queue
        and their next pass serves the salvaged points as cache hits.
        """
        from repro.exec.merge import absorb_worker_reports
        from repro.exec.worker import clear_stop

        salvaged = 0
        for key, payload in load_pool_results(self.scratch).items():
            self.results.put(key, int(payload["n"]), result_point(payload))
            salvaged += 1
        absorb_worker_reports(self.scratch)
        clear_pool_artifacts(self.scratch)
        clear_stop(self.scratch)
        requeued = 0
        for job in self.queue.jobs():
            if job.state == "running":
                self.queue.append_event(
                    job, "queued", {"requeued": True}
                )
                requeued += 1
        if salvaged or requeued:
            self.log.info(
                "salvage: %d point(s) recovered into the result store, "
                "%d running job(s) re-queued",
                salvaged,
                requeued,
            )

    def _shutdown(self) -> None:
        """Leave the queue resumable and the telemetry merged."""
        from repro.obs.report import write_metrics

        for key, payload in load_pool_results(self.scratch).items():
            self.results.put(key, int(payload["n"]), result_point(payload))
        from repro.exec.merge import absorb_worker_reports
        from repro.exec.worker import clear_stop

        absorb_worker_reports(self.scratch)
        clear_pool_artifacts(self.scratch)
        clear_stop(self.scratch)
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
        tasks: Dict[str, PoolTask] = {}
        for plan in plans:
            self._serve_cached(plan, tasks)
            if plan.job.state == "queued":
                self.queue.append_event(
                    plan.job,
                    "running",
                    {
                        "points": plan.total_points,
                        "cache_hits": plan.cache_hits,
                    },
                )

        errors: Dict[str, str] = {}
        if tasks and not self._stop:
            self._run_rounds(plans, tasks)
            self._serial_fallback(tasks, errors)

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
            trace_path = store.put(trace)
            fingerprint = trace.fingerprint()
            keys = {
                (n, row_bits): point_key(scheme, fingerprint, n, row_bits)
                for n, row_bits in grid
            }
            units.append(
                UnitPlan(
                    benchmark=bench,
                    trace_name=trace.name,
                    trace_path=trace_path,
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
        self, plan: JobPlan, tasks: Dict[str, PoolTask]
    ) -> None:
        """Count hits/misses for the job; queue tasks for the misses.

        Identical points wanted by several jobs collapse to one task —
        the task bag is keyed by content address, which is exactly the
        in-flight dedup the result store's addressing buys.
        """
        for unit in plan.units:
            for n, row_bits in unit.plan:
                key = unit.keys[(n, row_bits)]
                if self.results.get(key) is not None:
                    plan.cache_hits += 1
                    continue
                plan.cache_misses += 1
                tasks.setdefault(
                    key,
                    PoolTask(
                        key=key,
                        job_id=plan.job.id,
                        benchmark=unit.benchmark,
                        scheme=plan.scheme,
                        trace_path=unit.trace_path,
                        n=n,
                        row_bits=row_bits,
                    ),
                )

    # -- execution -----------------------------------------------------

    def _pending(self, tasks: Dict[str, PoolTask]) -> List[PoolTask]:
        """Tasks whose points the store still lacks, jobs interleaved.

        Round-robin across jobs so no single job monopolizes the
        fleet's early shards — both concurrently submitted figures make
        progress from the first round.
        """
        by_job: Dict[str, List[PoolTask]] = {}
        for key in sorted(tasks):
            task = tasks[key]
            if self.results.peek(key) is not None:
                continue
            by_job.setdefault(task.job_id, []).append(task)
        ordered: List[PoolTask] = []
        queues = list(by_job.values())
        while queues:
            queues = [q for q in queues if q]
            for q in queues:
                if q:
                    ordered.append(q.pop(0))
        return ordered

    def _run_rounds(
        self, plans: List[JobPlan], tasks: Dict[str, PoolTask]
    ) -> None:
        from repro.exec.leases import default_ttl_s
        from repro.exec.merge import absorb_worker_reports
        from repro.exec.worker import clear_stop, request_stop

        fleet = (
            FleetDashboard(f"serve x{self.workers}")
            if self.dashboard
            else None
        )
        total = sum(plan.total_points for plan in plans)
        clear_stop(self.scratch)
        try:
            for round_index in range(MAX_ROUNDS):
                pending = self._pending(tasks)
                if not pending or self._stop:
                    break
                if round_index > 0:
                    counter("retry.attempts").inc()
                    RESPAWN_BACKOFF.sleep(round_index - 1)
                counter("serve.rounds").inc()
                shards = shard_tasks(pending, self.workers)
                context = _mp_context()
                processes = []
                count = min(self.workers, len(shards))
                for position in range(count):
                    worker_plan = PoolPlan(
                        worker_id=round_index * self.workers + position,
                        shards=tuple(shards),
                        scratch_dir=self.scratch,
                        engine=self.engine,
                        lease_ttl_s=default_ttl_s(),
                        start_offset=(position * len(shards)) // count,
                    )
                    process = context.Process(
                        target=pool_worker_main,
                        args=(worker_plan,),
                        daemon=True,
                    )
                    process.start()
                    processes.append(process)
                counter("exec.workers_spawned").inc(len(processes))
                stop_sent = False
                while any(p.is_alive() for p in processes):
                    if self._stop and not stop_sent:
                        request_stop(self.scratch)
                        stop_sent = True
                    if fleet is not None and fleet.due():
                        done = total - len(self._pending(tasks))
                        fleet.update(
                            pool_progress(self.scratch),
                            done=done,
                            total=total,
                            fence_rejections=int(
                                counter("lease.fence_rejections").value
                            ),
                            shards_total=len(shards),
                        )
                    time.sleep(self.poll_interval)
                deadline_at = time.monotonic() + DRAIN_TIMEOUT_S
                for process in processes:
                    process.join(
                        timeout=max(0.0, deadline_at - time.monotonic())
                    )
                for process in processes:
                    if process.is_alive():  # pragma: no cover - hung worker
                        process.terminate()
                        process.join(timeout=5.0)
                failures = sum(
                    1 for p in processes if p.exitcode not in (0, None)
                )
                for key, payload in load_pool_results(self.scratch).items():
                    self.results.put(
                        key, int(payload["n"]), result_point(payload)
                    )
                absorb_worker_reports(self.scratch)
                clear_pool_artifacts(self.scratch)
                if failures:
                    counter("exec.worker_failures").inc(failures)
                    self.log.warning(
                        "serve round %d: %d worker(s) died; "
                        "re-claiming their shards",
                        round_index,
                        failures,
                    )
                else:
                    break
        finally:
            if fleet is not None:
                fleet.finish()

    def _serial_fallback(
        self, tasks: Dict[str, PoolTask], errors: Dict[str, str]
    ) -> None:
        """Finish what survived every round in-process.

        A deterministic failure surfaces here as a per-point error and
        fails only the jobs that need that point; everything else
        completes.
        """
        from repro.exec.worker import WorkerPlan, compute_point
        from repro.traces.io import load_trace

        traces: Dict[str, object] = {}
        for task in self._pending(tasks):
            if self._stop:
                return
            stub = WorkerPlan(
                worker_id=-1,
                scheme=task.scheme,
                trace_path=task.trace_path,
                shards=(),
                scratch_dir=self.scratch,
                journal_key="",
                engine=self.engine,
                bht_entries=task.bht_entries,
                bht_assoc=task.bht_assoc,
            )
            try:
                if task.trace_path not in traces:
                    traces[task.trace_path] = load_trace(task.trace_path)
                point = compute_point(
                    stub, traces[task.trace_path], task.n, task.row_bits
                )
            except Exception as error:
                errors[task.key] = f"{type(error).__name__}: {error}"
                self.log.error(
                    "point (%s n=%d r=%d) failed deterministically: %s",
                    task.scheme,
                    task.n,
                    task.row_bits,
                    errors[task.key],
                )
                continue
            counter("sweep.points_computed").inc()
            self.results.put(task.key, task.n, point)

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
                scheme=plan.scheme, trace_name=unit.trace_name
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
