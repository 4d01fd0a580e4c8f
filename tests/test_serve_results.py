"""Content-addressed result store tests (see :mod:`repro.serve.results`).

The store is a sibling of the trace store with the same discipline:
CRC-stamped artifacts, corrupt-is-a-miss reads, LRU eviction — plus a
combined ``gc_stores`` budget shared with the trace store. One-shot
sweeps memoize finished points through it (``--no-cache`` opting out).
"""

import json
import os

import pytest

from repro.cli import main
from repro.obs import reset_metrics, snapshot
from repro.serve.results import ResultStore, gc_stores, point_key
from repro.sim.results import TierPoint
from repro.sim.sweep import sweep_tiers
from repro.workloads.registry import make_workload
from repro.workloads.store import TraceStore

#: Micro-scale sweep: 2^4 and 2^5 tiers -> 5 + 6 = 11 points.
MICRO_POINTS = 11


@pytest.fixture(autouse=True)
def _clean_metrics():
    reset_metrics()
    yield
    reset_metrics()


def _point(rate=0.123456789012345):
    return TierPoint(
        col_bits=3,
        row_bits=2,
        misprediction_rate=rate,
        aliasing_rate=0.01,
        first_level_miss_rate=None,
    )


class TestPointKey:
    def test_deterministic(self):
        a = point_key("gas", "fp0", 5, 2)
        assert a == point_key("gas", "fp0", 5, 2)

    def test_sensitive_to_every_input(self):
        base = point_key("gas", "fp0", 5, 2)
        assert point_key("gshare", "fp0", 5, 2) != base
        assert point_key("gas", "fp1", 5, 2) != base
        assert point_key("gas", "fp0", 6, 2) != base
        assert point_key("gas", "fp0", 5, 3) != base
        assert point_key("gas", "fp0", 5, 2, bht_entries=128) != base

    def test_engine_never_in_the_key(self):
        # Both engines are bit-identical, so the key must not depend
        # on which one computed the point. point_key delegates to
        # sweep_key, whose digest deliberately excludes the engine.
        from repro.runtime.durable import sweep_key

        assert sweep_key(
            "gas", "fp0", [5], engine="vector"
        ) == sweep_key("gas", "fp0", [5], engine="reference")


class TestResultStore:
    def test_roundtrip_exact_floats(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = point_key("gas", "fp0", 5, 2)
        point = _point(rate=1.0 / 3.0)
        store.put(key, 5, point)
        got = store.get(key)
        assert got == point
        assert got.misprediction_rate == point.misprediction_rate

    def test_get_counts_hits_and_misses(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = point_key("gas", "fp0", 5, 2)
        assert store.get(key) is None
        store.put(key, 5, _point())
        assert store.get(key) is not None
        counters = snapshot()["counters"]
        assert counters["cache.hits"] == 1
        assert counters["cache.misses"] == 1

    def test_peek_is_silent(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = point_key("gas", "fp0", 5, 2)
        store.put(key, 5, _point())
        assert store.peek(key) is not None
        assert store.peek("0" * 16) is None
        counters = snapshot()["counters"]
        assert counters.get("cache.hits", 0) == 0
        assert counters.get("cache.misses", 0) == 0

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = point_key("gas", "fp0", 5, 2)
        path = store.put(key, 5, _point())
        payload = json.loads(open(path, encoding="ascii").read())
        payload["point"]["misprediction_rate"] = 0.999  # CRC now stale
        with open(path, "w", encoding="ascii") as handle:
            handle.write(json.dumps(payload))
        assert store.get(key) is None

    def test_truncated_artifact_is_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = point_key("gas", "fp0", 5, 2)
        path = store.put(key, 5, _point())
        with open(path, "w", encoding="ascii") as handle:
            handle.write('{"schema": "repro.resu')
        assert store.get(key) is None

    def test_put_is_idempotent(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = point_key("gas", "fp0", 5, 2)
        store.put(key, 5, _point())
        store.put(key, 5, _point())
        assert len(store.stored_files()) == 1

    def test_ls_and_total_bytes(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for row_bits in range(3):
            store.put(point_key("gas", "fp0", 5, row_bits), 5, _point())
        rows = store.ls()
        assert len(rows) == 3
        assert store.total_bytes() == sum(r["bytes"] for r in rows)

    def test_gc_evicts_lru_first(self, tmp_path):
        store = ResultStore(str(tmp_path))
        keys = [point_key("gas", "fp0", 5, r) for r in range(3)]
        paths = [store.put(k, 5, _point()) for k in keys]
        # Make the first artifact the oldest, then touch it via get()
        # so eviction order follows use, not creation.
        for index, path in enumerate(paths):
            os.utime(path, (1000 + index, 1000 + index))
        store.get(keys[0])
        survivor_budget = store.total_bytes() - 1
        store.gc(survivor_budget)
        remaining = store.stored_files()
        assert len(remaining) == 2
        assert store.peek(keys[0]) is not None  # recently used survives
        assert store.peek(keys[1]) is None  # LRU evicted

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        assert ResultStore.from_env() is None
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path))
        store = ResultStore.from_env()
        assert store is not None and store.directory == str(tmp_path)


class TestGcStores:
    def test_combined_budget_spans_both_stores(self, tmp_path):
        traces = TraceStore(str(tmp_path / "traces"))
        results = ResultStore(str(tmp_path / "results"))
        traces.get("compress", length=500, seed=0)
        for row_bits in range(4):
            results.put(
                point_key("gas", "fp0", 5, row_bits), 5, _point()
            )
        total = traces.total_bytes() + results.total_bytes()
        removed = gc_stores([traces, results], total // 2)
        assert removed
        combined = traces.total_bytes() + results.total_bytes()
        assert combined <= total // 2


class TestSweepMemoization:
    """One-shot sweeps consult the result store."""

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


class TestCliMemoization:
    """``repro run`` twice over one ``$REPRO_RESULT_STORE``: the second
    run simulates nothing and prints what a ``--no-cache`` run prints."""

    RUN = ["run", "fig4", "--benchmark", "compress", "--length", "2000",
           "--sizes", "4", "5"]

    def test_second_run_is_all_hits_and_byte_identical(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "results"))
        assert main(self.RUN) == 0
        capsys.readouterr()
        warm = tmp_path / "warm.json"
        assert main(self.RUN + ["--metrics-out", str(warm)]) == 0
        warm_out = capsys.readouterr().out
        assert main(self.RUN + ["--no-cache"]) == 0
        assert warm_out == capsys.readouterr().out

        counters = json.loads(warm.read_text())["counters"]
        assert counters["cache.hits"] == MICRO_POINTS
        assert counters.get("sweep.points_computed", 0) == 0
