"""Durable job-queue tests (see :mod:`repro.serve.queue`).

The queue is append-only JSONL with the ledger's CRC stamp on every
line: submitters create headers exclusively, the daemon is the sole
event appender, and torn tails roll the job back to its last good
state instead of corrupting it.
"""

import os
import threading

import pytest

from repro.obs import reset_metrics, snapshot
from repro.serve.queue import (
    JobQueue,
    JobSpec,
    ServeError,
    summarize,
)


@pytest.fixture(autouse=True)
def _clean_metrics():
    reset_metrics()
    yield
    reset_metrics()


def _spec(**overrides):
    base = dict(
        experiment="fig4",
        benchmarks=("compress",),
        length=2_000,
        seed=0,
        size_bits=(4, 5),
    )
    base.update(overrides)
    return JobSpec(**base)


class TestJobSpec:
    def test_key_is_content_addressed(self):
        assert _spec().key() == _spec().key()
        assert _spec().key() != _spec(length=3_000).key()
        assert _spec().key() != _spec(experiment="fig6").key()

    def test_json_roundtrip(self):
        spec = _spec()
        assert JobSpec.from_json(spec.to_json()) == spec


class TestSubmit:
    def test_submit_creates_durable_job(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job, attached = queue.submit(_spec())
        assert not attached
        assert job.state == "queued"
        assert os.path.exists(job.path)
        loaded = queue.find(job.id)
        assert loaded.spec == _spec()

    def test_identical_live_job_dedups(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        first, _ = queue.submit(_spec())
        second, attached = queue.submit(_spec())
        assert attached
        assert second.id == first.id
        counters = snapshot()["counters"]
        assert counters["serve.jobs_submitted"] == 1
        assert counters["serve.jobs_deduped"] == 1

    def test_different_specs_never_dedup(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        a, _ = queue.submit(_spec())
        b, attached = queue.submit(_spec(experiment="fig6"))
        assert not attached
        assert a.id != b.id

    def test_terminal_job_gets_a_fresh_sequence(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        first, _ = queue.submit(_spec())
        queue.append_event(first, "done", {"points": 11})
        second, attached = queue.submit(_spec())
        assert not attached
        assert second.id != first.id
        assert second.state == "queued"

    def test_concurrent_identical_submissions_share_one_job(
        self, tmp_path
    ):
        queue_dir = str(tmp_path)
        outcomes = []
        barrier = threading.Barrier(8)

        def submit():
            barrier.wait()
            job, attached = JobQueue(queue_dir).submit(_spec())
            outcomes.append((job.id, attached))

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ids = {job_id for job_id, _ in outcomes}
        assert len(ids) == 1
        assert sum(1 for _, attached in outcomes if not attached) == 1

    def test_submitter_paused_before_publish_attaches_to_winner(
        self, tmp_path, monkeypatch
    ):
        # A writes its staging file, then stalls before linking it to
        # the seq name; B submits in that gap and must not see A's
        # half-published job. When A resumes its link loses, and A
        # attaches to B's job.
        queue_dir = str(tmp_path)
        real_link = os.link
        staged = threading.Event()
        resume = threading.Event()
        outcomes = {}

        def paused_link(src, dst):
            if threading.current_thread().name == "submitter-a":
                staged.set()
                resume.wait(timeout=10)
            return real_link(src, dst)

        monkeypatch.setattr(os, "link", paused_link)

        def submit_a():
            outcomes["a"] = JobQueue(queue_dir).submit(_spec())

        thread = threading.Thread(target=submit_a, name="submitter-a")
        thread.start()
        assert staged.wait(timeout=10)
        outcomes["b"] = JobQueue(queue_dir).submit(_spec())
        resume.set()
        thread.join(timeout=10)

        (job_a, attached_a), (job_b, attached_b) = outcomes["a"], outcomes["b"]
        assert job_a.id == job_b.id
        assert [attached_a, attached_b] == [True, False]
        assert len(JobQueue(queue_dir).jobs()) == 1
        assert sorted(os.listdir(queue_dir)) == [
            os.path.basename(job_b.path)
        ]


class TestEventsAndState:
    def test_state_follows_last_event(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job, _ = queue.submit(_spec())
        queue.append_event(job, "running", {"points": 11})
        queue.append_event(queue.find(job.id), "done", {"points": 11})
        final = queue.find(job.id)
        assert final.state == "done"
        assert final.detail["points"] == 11
        assert not final.is_live()

    def test_torn_event_tail_rolls_back(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job, _ = queue.submit(_spec())
        queue.append_event(job, "running", {"points": 11})
        with open(job.path, "a", encoding="ascii") as handle:
            handle.write('{"kind": "event", "state": "done"')  # torn
        loaded = queue.find(job.id)
        assert loaded.state == "running"

    def test_corrupt_header_skips_job(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job, _ = queue.submit(_spec())
        with open(job.path, "w", encoding="ascii") as handle:
            handle.write("not json\n")
        assert queue.jobs() == []

    def test_find_unknown_raises(self, tmp_path):
        with pytest.raises(ServeError):
            JobQueue(str(tmp_path)).find("no-such-job")

    def test_empty_directory_required(self):
        with pytest.raises(ServeError):
            JobQueue("")


class TestCancel:
    def test_cancel_drops_sidecar_for_live_job(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job, _ = queue.submit(_spec())
        queue.request_cancel(job.id)
        assert queue.find(job.id).cancel_requested()
        queue.clear_cancel(queue.find(job.id))
        assert not queue.find(job.id).cancel_requested()

    def test_cancel_of_terminal_job_is_a_noop(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job, _ = queue.submit(_spec())
        queue.append_event(job, "done", {})
        result = queue.request_cancel(job.id)
        assert result.state == "done"
        assert not result.cancel_requested()


class TestSummarize:
    def test_rows_carry_point_accounting(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job, _ = queue.submit(_spec())
        queue.append_event(
            job, "done", {"points": 11, "cache_hits": 4, "computed": 7}
        )
        (row,) = summarize([queue.find(job.id)])
        assert row["id"] == job.id
        assert row["experiment"] == "fig4"
        assert row["state"] == "done"
        assert row["points"] == 11
        assert row["cache_hits"] == 4
        assert row["computed"] == 7
