"""The worker pool: point tasks in, finished points back to the parent.

The pool behind ``repro run --workers N`` (through
:func:`repro.sim.sweep.sweep_tiers`). The caller
hands :func:`run_points` a list of :class:`PointTask` and an
``on_result`` callback; every point is a deterministic function of its
task, so the pool needs no leases, fencing or journals:

* workers are forked with the task list, receive task indices over a
  pipe, and *return* ``(point, telemetry delta)`` — they write no
  files, ignore SIGINT, and exit on their own when the parent dies;
* the parent is the only process that writes: it folds each worker's
  telemetry into its registry and calls ``on_result`` the moment a
  point lands, so a killed parent loses only the in-flight points;
* a task whose worker raised or died is re-dispatched (a dead worker
  is replaced) until it has failed :data:`MAX_ROUNDS` times; whatever
  is left then runs serially in the parent, and a point that fails
  there too comes back as a per-key error instead of an exception.

``poll`` is called between scheduling steps and may raise to stop the
pool (a deferred SIGINT): dispatch stops, in-flight points still land
through ``on_result`` (bounded by :data:`DRAIN_TIMEOUT_S`), and the
exception propagates.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY, counter, reset_metrics, snapshot
from repro.obs.spans import get_tracer, span
from repro.sim.results import TierPoint
from repro.sim.sweep import compute_point
from repro.traces.trace import BranchTrace

#: Seconds the parent waits for a worker message before polling again.
POLL_INTERVAL_S = 0.05

#: Times a task may fail in a worker before the parent runs it serially.
MAX_ROUNDS = 3

#: Seconds in-flight points get to land after ``poll`` stops the pool.
DRAIN_TIMEOUT_S = 30.0

#: Seconds between a worker's checks that its parent is still alive.
PARENT_CHECK_S = 0.2


@dataclass(frozen=True)
class PointTask:
    """One sweep point to compute, and the content key it lands under."""

    key: str
    scheme: str
    trace: BranchTrace
    n: int
    row_bits: int
    bht_entries: Optional[int] = None
    bht_assoc: int = 4

    def compute(self, engine: str, paranoid: bool) -> TierPoint:
        return compute_point(
            self.scheme,
            self.trace,
            self.n,
            self.row_bits,
            bht_entries=self.bht_entries,
            bht_assoc=self.bht_assoc,
            engine=engine,
            paranoid=paranoid,
        )


@dataclass
class _Worker:
    process: Any
    conn: Any
    task: Optional[int] = None  # index of the task in flight


def _mp_context():
    import multiprocessing

    # fork keeps worker startup at milliseconds and shares the traces
    # copy-on-write (the parent runs no threads when it forks); spawn is
    # the portable fallback.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - no fork on this platform
        return multiprocessing.get_context("spawn")


def _exit_with_parent(parent_pid: int) -> None:
    while os.getppid() == parent_pid:
        time.sleep(PARENT_CHECK_S)
    os._exit(1)


def _telemetry() -> Dict[str, Any]:
    """This worker's metrics and span aggregates since the last reset."""
    data = snapshot()
    return {
        "counters": {k: v for k, v in data["counters"].items() if v},
        "histograms": {
            k: h for k, h in data["histograms"].items() if h.get("count")
        },
        "spans": get_tracer().aggregates(),
    }


def _worker_main(conn, tasks, engine, paranoid, parent_pid) -> None:
    """Process body: compute the tasks the parent sends until told to stop.

    A task that raises is reported back; anything stronger (a
    ``BaseException``, a kill) ends the process, and the parent sees it
    die.
    """
    # The parent owns SIGINT/SIGTERM handling; a worker takes the
    # default SIGTERM so the parent can always terminate it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    threading.Thread(
        target=_exit_with_parent, args=(parent_pid,), daemon=True
    ).start()
    tracer = get_tracer()
    tracer.abandon_sink()  # a fork inherits the parent's open sink
    while True:
        try:
            index = conn.recv()
        except (EOFError, OSError):
            return
        if index is None:
            return
        reset_metrics()
        tracer.reset()
        point = error = None
        try:
            point = tasks[index].compute(engine, paranoid)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        conn.send((index, point, error, _telemetry()))


def _absorb(telemetry: Dict[str, Any]) -> None:
    for name, value in telemetry["counters"].items():
        # Concurrent workers' engine wall time is CPU time from here
        # (it is in their sim.cpu_s); the parent accounts elapsed wall.
        if name != "sim.wall_s":
            REGISTRY.counter(name).inc(value)
    for name, summary in telemetry["histograms"].items():
        REGISTRY.histogram(name).absorb(summary)
    get_tracer().absorb_aggregates(telemetry["spans"])


def run_points(
    tasks: Sequence[PointTask],
    on_result: Callable[[PointTask, TierPoint], None],
    *,
    workers: int,
    engine: str = "auto",
    paranoid: bool = False,
    poll: Callable[[], None] = lambda: None,
) -> Dict[str, BaseException]:
    """Compute ``tasks`` on ``workers`` processes; returns per-key errors.

    ``on_result(task, point)`` runs in this process as each point
    lands. The returned dict maps the key of every task that failed
    even serially to its exception; it is empty when every point landed.
    """
    log = get_logger("repro.exec")
    errors: Dict[str, BaseException] = {}
    queue: Deque[int] = deque(range(len(tasks)))
    attempts = [0] * len(tasks)
    fallback: List[int] = []
    pool: List[_Worker] = []
    context = _mp_context()
    draining = False

    # Elapsed-wall accounting: worker engine seconds arrive as sim.cpu_s,
    # so this region's elapsed time is the parent's sim.wall_s, minus
    # what its own engine calls (the serial fallback) already counted.
    wall_counter = counter("sim.wall_s")
    own_engine_before = wall_counter.value
    region_started = time.perf_counter()

    def spawn() -> None:
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_worker_main,
            args=(
                child_conn,
                tasks,
                engine,
                paranoid,
                os.getpid(),
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        pool.append(_Worker(process, parent_conn))
        counter("exec.workers_spawned").inc()

    def failed(index: int, why: str) -> None:
        counter("exec.worker_failures").inc()
        attempts[index] += 1
        log.warning(
            "pool point %s failed in a worker (%d/%d): %s",
            tasks[index].key,
            attempts[index],
            MAX_ROUNDS,
            why,
        )
        (queue if attempts[index] < MAX_ROUNDS else fallback).append(index)

    def dispatch(worker: _Worker) -> None:
        if queue and not draining:
            worker.task = queue.popleft()
            try:
                worker.conn.send(worker.task)
            except OSError:
                pass  # dead: its sentinel reports it next

    def reap(worker: _Worker) -> None:
        pool.remove(worker)
        worker.conn.close()
        worker.process.join()
        if worker.task is not None:
            failed(
                worker.task, f"worker exited with {worker.process.exitcode}"
            )
            # Each replacement follows a failed attempt, so respawns are
            # bounded by len(tasks) * MAX_ROUNDS.
            if queue and not draining:
                spawn()

    def collect() -> None:
        ready = set(
            wait(
                [w.conn for w in pool] + [w.process.sentinel for w in pool],
                timeout=POLL_INTERVAL_S,
            )
        )
        for worker in list(pool):
            if worker.conn in ready:
                try:
                    index, point, error, telemetry = worker.conn.recv()
                except (EOFError, OSError):
                    reap(worker)
                    continue
                # Hand out the next point before persisting this one, so
                # the worker computes while the parent writes.
                worker.task = None
                dispatch(worker)
                _absorb(telemetry)
                if error is not None:
                    failed(index, error)
                    continue
                on_result(tasks[index], point)
            elif worker.process.sentinel in ready:
                reap(worker)

    try:
        with span("exec.pool", workers=workers, points=len(tasks)):
            for _ in range(min(workers, len(tasks))):
                spawn()
            while pool and (queue or any(w.task is not None for w in pool)):
                poll()
                for worker in pool:
                    if worker.task is None:
                        dispatch(worker)
                collect()
            fallback.extend(queue)
            _stop(pool)
            # Completion is guaranteed even if every worker always
            # crashes, and a deterministic failure surfaces here.
            for index in fallback:
                poll()
                task = tasks[index]
                try:
                    point = task.compute(engine, paranoid)
                except Exception as exc:
                    errors[task.key] = exc
                    log.error(
                        "point %s (%s n=%d r=%d) failed serially: %s",
                        task.key,
                        task.scheme,
                        task.n,
                        task.row_bits,
                        exc,
                    )
                    continue
                on_result(task, point)
    except BaseException:
        # Stopped: dispatch nothing new, but land what is in flight.
        draining = True
        deadline_at = time.monotonic() + DRAIN_TIMEOUT_S
        while (
            any(w.task is not None for w in pool)
            and time.monotonic() < deadline_at
        ):
            collect()
        raise
    finally:
        _stop(pool)
        own_engine = wall_counter.value - own_engine_before
        elapsed = time.perf_counter() - region_started
        wall_counter.inc(max(0.0, elapsed - own_engine))
    return errors


def _stop(pool: List[_Worker]) -> None:
    """Ask idle workers to exit; terminate any that do not."""
    for worker in pool:
        try:
            worker.conn.send(None)
        except OSError:
            pass
    for worker in pool:
        worker.process.join(timeout=1.0)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join()
        worker.conn.close()
    pool.clear()
