"""Serve daemon tests: the ISSUE's acceptance criteria, in-process.

The hard contracts: a served figure job renders bit-identical to the
one-shot ``repro run`` path; resubmitting it is served ~entirely from
the content-addressed result store; two different figure jobs complete
concurrently over one shared pool under one merged metrics report; and
the one-shot sweep itself memoizes finished points through the same
store (``--no-cache`` opting out).
"""

import pytest

from repro.experiments.base import ExperimentOptions
from repro.experiments.runner import run_experiment
from repro.obs import get_tracer, reset_metrics, snapshot
from repro.serve.client import (
    cancel_job,
    fetch_result,
    job_status,
    submit_job,
)
from repro.serve.daemon import ServeDaemon
from repro.serve.queue import JobQueue, ServeError
from repro.sim.sweep import sweep_tiers
from repro.workloads.registry import make_workload

#: Micro-scale job: 2^4 and 2^5 tiers -> 5 + 6 = 11 points.
MICRO = dict(
    benchmarks=("compress",), length=2_000, seed=0, size_bits=(4, 5)
)
MICRO_POINTS = 11


@pytest.fixture(autouse=True)
def _clean_runtime(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
    reset_metrics()
    get_tracer().reset()
    yield
    reset_metrics()
    get_tracer().close_sink()
    get_tracer().reset()


def _serve_once(queue_dir, workers=2):
    code = ServeDaemon(str(queue_dir), workers=workers, once=True).run()
    assert code == 0


class TestServeRoundTrip:
    def test_bit_identical_to_one_shot_run(self, tmp_path):
        job, _ = submit_job(str(tmp_path), "fig4", **MICRO)
        _serve_once(tmp_path)
        payload = fetch_result(str(tmp_path), job.id)

        one_shot = run_experiment(
            "fig4",
            ExperimentOptions(
                benchmarks=MICRO["benchmarks"],
                length=MICRO["length"],
                seed=MICRO["seed"],
                size_bits=MICRO["size_bits"],
            ),
        )
        assert payload["experiment"] == one_shot.experiment_id
        assert payload["title"] == one_shot.title
        assert payload["text"] == one_shot.text

    def test_resubmission_is_served_from_cache(self, tmp_path):
        submit_job(str(tmp_path), "fig4", **MICRO)
        _serve_once(tmp_path)
        reset_metrics()
        second, attached = submit_job(str(tmp_path), "fig4", **MICRO)
        assert not attached  # first job is terminal, not deduped
        _serve_once(tmp_path)
        (row,) = job_status(str(tmp_path), second.id)
        assert row["state"] == "done"
        assert row["points"] == MICRO_POINTS
        assert row["cache_hits"] == MICRO_POINTS
        assert row["computed"] == 0
        counters = snapshot()["counters"]
        assert counters["cache.hits"] == MICRO_POINTS

    def test_two_jobs_share_one_pool_and_one_report(self, tmp_path):
        a, _ = submit_job(str(tmp_path), "fig4", **MICRO)
        b, _ = submit_job(str(tmp_path), "fig6", **MICRO)
        _serve_once(tmp_path)

        for job_id, experiment in ((a.id, "fig4"), (b.id, "fig6")):
            (row,) = job_status(str(tmp_path), job_id)
            assert row["state"] == "done", row
            payload = fetch_result(str(tmp_path), job_id)
            assert payload["experiment"] == experiment

        # One merged metrics report covers both jobs: a single pass of
        # pool rounds computed every point of both figures.
        counters = snapshot()["counters"]
        assert counters["serve.jobs_completed"] == 2
        assert (
            counters["sweep.points_computed"] == 2 * MICRO_POINTS
        )

    def test_in_flight_resubmission_attaches(self, tmp_path):
        first, _ = submit_job(str(tmp_path), "fig4", **MICRO)
        again, attached = submit_job(str(tmp_path), "fig4", **MICRO)
        assert attached and again.id == first.id
        _serve_once(tmp_path)
        (row,) = job_status(str(tmp_path), first.id)
        assert row["state"] == "done"
        counters = snapshot()["counters"]
        assert counters["serve.jobs_deduped"] == 1

    def test_cross_job_point_dedup(self, tmp_path):
        # Identical spec under two different experiment ids would not
        # dedup, but identical points *within* one pass must: submit
        # the same figure twice back-to-back (second attaches), then a
        # fig4 job whose points all landed in the store already.
        submit_job(str(tmp_path), "fig4", **MICRO)
        _serve_once(tmp_path)
        reset_metrics()
        # A wider job shares the (4, 5) tiers with the finished one.
        submit_job(
            str(tmp_path),
            "fig4",
            benchmarks=("compress",),
            length=2_000,
            seed=0,
            size_bits=(4, 5, 6),
        )
        _serve_once(tmp_path)
        counters = snapshot()["counters"]
        # Only the 2^6 tier (7 points) is new work.
        assert counters["cache.hits"] == MICRO_POINTS
        assert counters["sweep.points_computed"] == 7


class TestServeFailures:
    def test_unsupported_experiment_fails_cleanly(self, tmp_path):
        job, _ = submit_job(str(tmp_path), "fig10", **MICRO)
        _serve_once(tmp_path)
        (row,) = job_status(str(tmp_path), job.id)
        assert row["state"] == "failed"
        assert "fig10" in row["error"]
        with pytest.raises(ServeError):
            fetch_result(str(tmp_path), job.id)
        counters = snapshot()["counters"]
        assert counters["serve.jobs_failed"] == 1

    def test_failed_job_does_not_poison_the_pass(self, tmp_path):
        bad, _ = submit_job(str(tmp_path), "fig10", **MICRO)
        good, _ = submit_job(str(tmp_path), "fig4", **MICRO)
        _serve_once(tmp_path)
        (bad_row,) = job_status(str(tmp_path), bad.id)
        (good_row,) = job_status(str(tmp_path), good.id)
        assert bad_row["state"] == "failed"
        assert good_row["state"] == "done"

    def test_fetch_before_done_raises_with_state(self, tmp_path):
        job, _ = submit_job(str(tmp_path), "fig4", **MICRO)
        with pytest.raises(ServeError, match="queued"):
            fetch_result(str(tmp_path), job.id)


class TestServeDrain:
    def test_stop_before_any_point_lands_requeues(self, tmp_path):
        # A stop signal that arrives as the first pool round starts
        # leaves every point missing; the drain must requeue the job,
        # not try to render its empty surfaces.
        job, _ = submit_job(str(tmp_path), "fig4", **MICRO)
        daemon = ServeDaemon(str(tmp_path), workers=2, once=True)
        def stop_before_any_point(tasks):
            daemon._stop = True
            return {}

        daemon._execute = stop_before_any_point
        assert daemon.run() == 0
        (row,) = job_status(str(tmp_path), job.id)
        assert row["state"] == "queued"

        _serve_once(tmp_path)
        (row,) = job_status(str(tmp_path), job.id)
        assert row["state"] == "done"
        assert row["computed"] == MICRO_POINTS


class TestServeCancel:
    def test_cancel_before_serving(self, tmp_path):
        job, _ = submit_job(str(tmp_path), "fig4", **MICRO)
        cancel_job(str(tmp_path), job.id)
        _serve_once(tmp_path)
        (row,) = job_status(str(tmp_path), job.id)
        assert row["state"] == "cancelled"
        counters = snapshot()["counters"]
        assert counters["serve.jobs_cancelled"] == 1
        assert counters.get("sweep.points_computed", 0) == 0
        # The sidecar is consumed with the cancellation.
        assert not JobQueue(str(tmp_path)).find(job.id).cancel_requested()


class TestSweepMemoization:
    """Satellite 1: one-shot sweeps consult the result store."""

    @pytest.fixture()
    def trace(self):
        return make_workload("compress", length=2_000, seed=0)

    def test_second_sweep_is_all_cache_hits(
        self, tmp_path, trace, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path))
        first = sweep_tiers("gas", trace, size_bits=(4, 5))
        reset_metrics()
        second = sweep_tiers("gas", trace, size_bits=(4, 5))
        assert second.tiers == first.tiers
        counters = snapshot()["counters"]
        assert counters["cache.hits"] == MICRO_POINTS
        assert counters.get("sweep.points_computed", 0) == 0

    def test_no_cache_bypasses_the_store(
        self, tmp_path, trace, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path))
        sweep_tiers("gas", trace, size_bits=(4, 5))
        reset_metrics()
        sweep_tiers("gas", trace, size_bits=(4, 5), use_cache=False)
        counters = snapshot()["counters"]
        assert counters.get("cache.hits", 0) == 0

    def test_without_store_env_cache_is_inert(self, trace):
        surface = sweep_tiers("gas", trace, size_bits=(4,))
        counters = snapshot()["counters"]
        assert counters.get("cache.hits", 0) == 0
        assert counters.get("cache.misses", 0) == 0
        assert len(surface.tiers) == 1

    def test_store_roundtrip_preserves_floats(
        self, tmp_path, trace, monkeypatch
    ):
        direct = sweep_tiers("gas", trace, size_bits=(4, 5))
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path))
        sweep_tiers("gas", trace, size_bits=(4, 5))
        cached = sweep_tiers("gas", trace, size_bits=(4, 5))
        for n in (4, 5):
            for mine, theirs in zip(cached.tiers[n], direct.tiers[n]):
                assert mine == theirs
