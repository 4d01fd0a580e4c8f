"""Service-lifecycle tests: the daemon as an actual process.

The contract: SIGTERM drains gracefully (exit 0, jobs resumable), a
SIGKILLed daemon restarts from the durable queue with no lost or
duplicated points, and crashed pool workers are replaced without
failing the job.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.serve.client import fetch_result, job_status, submit_job

MICRO_ARGS = [
    "--benchmark",
    "compress",
    "--length",
    "2000",
    "--sizes",
    "4",
    "5",
]
MICRO_KWARGS = dict(
    benchmarks=("compress",), length=2_000, seed=0, size_bits=(4, 5)
)
MICRO_POINTS = 11


def _env(queue_dir, **extra):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_SERVE_QUEUE"] = str(queue_dir)
    env.pop("REPRO_FAULT_SPEC", None)
    env.update(extra)
    return env


def _repro(args, queue_dir, **extra):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=_env(queue_dir, **extra),
        capture_output=True,
        text=True,
        timeout=300,
    )


def _serve_once(queue_dir, **extra):
    proc = _repro(
        ["serve", "--once", "--workers", "2"], queue_dir, **extra
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _wait_for_state(queue_dir, job_id, states, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        (row,) = job_status(str(queue_dir), job_id)
        if row["state"] in states:
            return row
        time.sleep(0.05)
    raise AssertionError(
        f"job {job_id} never reached {states}: {row}"
    )


def _assert_complete(queue_dir, job_id):
    (row,) = job_status(str(queue_dir), job_id)
    assert row["state"] == "done", row
    assert row["points"] == MICRO_POINTS
    # No lost points (the surface is complete) and no duplicated ones
    # (every point is either a cache hit or computed exactly once).
    assert row["cache_hits"] + row["computed"] == MICRO_POINTS
    payload = fetch_result(str(queue_dir), job_id)
    assert payload["experiment"] == "fig4"
    assert payload["text"]
    return payload


class TestGracefulDrain:
    def test_sigterm_exits_zero_and_journals_resumably(self, tmp_path):
        job, _ = submit_job(str(tmp_path), "fig4", **MICRO_KWARGS)
        daemon = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--workers",
                "2",
            ],
            env=_env(tmp_path),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            _wait_for_state(
                tmp_path, job.id, ("running", "done"), timeout=120
            )
            daemon.send_signal(signal.SIGTERM)
            daemon.wait(timeout=120)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
        assert daemon.returncode == 0

        # Shutdown wrote the merged metrics report next to the queue.
        metrics_path = tmp_path / "serve_metrics.json"
        assert metrics_path.exists()
        json.loads(metrics_path.read_text())

        # Whatever the drain left behind (done, or requeued as
        # queued), one more pass finishes it with nothing lost.
        (row,) = job_status(str(tmp_path), job.id)
        assert row["state"] in ("done", "queued")
        if row["state"] != "done":
            _serve_once(tmp_path)
        _assert_complete(tmp_path, job.id)

    def test_sigint_behaves_like_sigterm(self, tmp_path):
        job, _ = submit_job(str(tmp_path), "fig4", **MICRO_KWARGS)
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "2"],
            env=_env(tmp_path),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            _wait_for_state(
                tmp_path, job.id, ("running", "done"), timeout=120
            )
            daemon.send_signal(signal.SIGINT)
            daemon.wait(timeout=120)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
        assert daemon.returncode == 0
        (row,) = job_status(str(tmp_path), job.id)
        assert row["state"] in ("done", "queued")


class TestCrashRecovery:
    def test_sigkill_restarts_from_queue(self, tmp_path):
        job, _ = submit_job(str(tmp_path), "fig4", **MICRO_KWARGS)
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "2"],
            env=_env(tmp_path),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            _wait_for_state(
                tmp_path, job.id, ("running", "done"), timeout=120
            )
        finally:
            daemon.kill()
            daemon.wait()

        # Every point that landed before the kill is already a result
        # artifact; a restarted daemon requeues the interrupted job,
        # serves those points from the store and computes the rest.
        (killed,) = job_status(str(tmp_path), job.id)
        landed = len(list((tmp_path / "results").glob("rs-*.json")))
        _serve_once(tmp_path)
        _assert_complete(tmp_path, job.id)
        if killed["state"] == "running":
            (row,) = job_status(str(tmp_path), job.id)
            assert row["cache_hits"] == landed

    def test_crashed_workers_are_respawned(self, tmp_path):
        job, _ = submit_job(str(tmp_path), "fig4", **MICRO_KWARGS)
        # Every worker's 3rd point crashes its process; respawn rounds
        # must still finish the job (the serial fallback backstops the
        # last round).
        _serve_once(tmp_path, REPRO_FAULT_SPEC="exec.worker:raise@3")
        _assert_complete(tmp_path, job.id)


class TestCliSmoke:
    def test_submit_serve_fetch_matches_run(self, tmp_path):
        submitted = _repro(
            ["submit", "fig4", *MICRO_ARGS, "--json"], tmp_path
        )
        assert submitted.returncode == 0, submitted.stderr
        job_id = json.loads(submitted.stdout)["id"]
        _serve_once(tmp_path)

        fetched = _repro(["fetch", job_id], tmp_path)
        assert fetched.returncode == 0, fetched.stderr
        one_shot = _repro(
            ["run", "fig4", *MICRO_ARGS, "--no-cache"], tmp_path
        )
        assert one_shot.returncode == 0, one_shot.stderr
        assert fetched.stdout == one_shot.stdout

    def test_status_and_cancel_messages(self, tmp_path):
        submitted = _repro(
            ["submit", "fig4", *MICRO_ARGS, "--json"], tmp_path
        )
        job_id = json.loads(submitted.stdout)["id"]
        status = _repro(["status"], tmp_path)
        assert job_id in status.stdout and "queued" in status.stdout
        cancelled = _repro(["cancel", job_id], tmp_path)
        assert "cancel requested" in cancelled.stdout
        _serve_once(tmp_path)
        final = _repro(["status", job_id, "--json"], tmp_path)
        (row,) = json.loads(final.stdout)
        assert row["state"] == "cancelled"
