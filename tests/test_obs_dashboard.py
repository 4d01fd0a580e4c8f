"""Fleet-dashboard tests: throttling, stragglers, rendering, wiring."""

import io

import pytest

from repro.obs import get_tracer, reset_metrics, snapshot
from repro.obs.dashboard import FleetDashboard
from repro.sim.sweep import sweep_tiers
from repro.workloads.registry import make_workload


@pytest.fixture(autouse=True)
def _clean_telemetry():
    reset_metrics()
    get_tracer().reset()
    yield
    get_tracer().reset()
    reset_metrics()


class _Tty(io.StringIO):
    def isatty(self):
        return True


def make_dashboard(stream=None, **kwargs):
    clock = {"now": 0.0}
    kwargs.setdefault("min_interval_s", 0.0)
    dash = FleetDashboard(
        "test x2",
        stream=stream if stream is not None else io.StringIO(),
        clock=lambda: clock["now"],
        **kwargs,
    )
    return dash, clock


class TestThrottling:
    def test_first_frame_always_due(self):
        dash, _ = make_dashboard(min_interval_s=10.0)
        assert dash.due()

    def test_frames_throttled_by_interval(self):
        stream = io.StringIO()
        dash, clock = make_dashboard(stream, min_interval_s=5.0)
        dash.update({0: {"points": 1}})
        clock["now"] = 1.0
        dash.update({0: {"points": 2}})  # suppressed
        clock["now"] = 6.0
        dash.update({0: {"points": 3}})
        frames = stream.getvalue().count("[test x2]")
        assert frames == 2


class TestStragglerDetection:
    def test_stalled_worker_flagged_after_warmup(self):
        dash, clock = make_dashboard(min_samples=4)
        # Both workers land a point per second for four ticks.
        for tick in range(1, 5):
            clock["now"] = float(tick)
            dash.update(
                {0: {"points": tick},
                 1: {"points": tick}}
            )
        assert dash.fleet_p90() is not None
        assert dash.stragglers() == []
        # Worker 1 stalls while worker 0 keeps landing points.
        for tick in range(5, 12):
            clock["now"] = float(tick)
            dash.update(
                {0: {"points": tick},
                 1: {"points": 4}}
            )
        assert dash.stragglers() == [1]
        assert snapshot()["counters"]["exec.stragglers"] == 1
        frame = dash.render_frame()
        assert "straggler" in frame and "ok" in frame

    def test_counter_fires_once_per_transition(self):
        dash, clock = make_dashboard(min_samples=2)
        for tick in range(1, 4):
            clock["now"] = float(tick)
            dash.update(
                {0: {"points": tick},
                 1: {"points": tick}}
            )
        for tick in range(4, 20):  # long stall, many polls
            clock["now"] = float(tick)
            dash.update(
                {0: {"points": tick},
                 1: {"points": 3}}
            )
        assert snapshot()["counters"]["exec.stragglers"] == 1

    def test_no_flags_before_min_samples(self):
        dash, clock = make_dashboard(min_samples=50)
        for tick in range(1, 10):
            clock["now"] = float(tick)
            dash.update({0: {"points": tick}})
        assert dash.fleet_p90() is None
        assert dash.stragglers() == []


class TestRendering:
    def test_waiting_message_without_workers(self):
        dash, _ = make_dashboard()
        assert "(waiting for workers)" in dash.render_frame()

    def test_frame_contents(self):
        dash, clock = make_dashboard()
        clock["now"] = 1.0
        dash.update({0: {"points": 3}}, done=3, total=10)
        frame = dash.render_frame(done=3, total=10)
        assert "3/10 points" in frame
        assert "w0000" in frame
        assert "shard" not in frame and "fence" not in frame

    def test_non_tty_frames_are_plain_text(self):
        stream = io.StringIO()
        dash, clock = make_dashboard(stream)
        dash.update({0: {"points": 1}})
        clock["now"] = 1.0
        dash.update({0: {"points": 2}})
        dash.finish()
        out = stream.getvalue()
        assert "\x1b[" not in out
        assert "\n\n" in out  # frames separated by a blank line

    def test_tty_frames_rewrite_in_place(self):
        stream = _Tty()
        dash, clock = make_dashboard(stream)
        dash.update({0: {"points": 1}})
        assert "\x1b[" not in stream.getvalue()  # nothing to overwrite yet
        clock["now"] = 1.0
        dash.update({0: {"points": 2}})
        out = stream.getvalue()
        assert "\x1b[" in out and "\x1b[0J" in out
        dash.finish()
        assert stream.getvalue().endswith("\n")


class TestParallelIntegration:
    def test_dashboard_run_bit_identical_to_serial(self, capsys):
        trace = make_workload("compress", length=4000, seed=0)
        serial = sweep_tiers("gas", trace, size_bits=[4])
        reset_metrics()
        get_tracer().reset()
        fleet = sweep_tiers(
            "gas", trace, size_bits=[4], workers=2, dashboard=True
        )
        assert serial.tiers == fleet.tiers
        err = capsys.readouterr().err
        assert "fleet:" in err
        assert "\x1b[" not in err  # captured stderr is not a tty
