"""Integrity-doctor and trace-store-hygiene tests.

``repro doctor`` must detect (and with ``--repair`` fix) every way the
on-disk state can rot: damaged result artifacts in a result store (a
``--checkpoint-dir`` or ``$REPRO_RESULT_STORE``), and unloadable trace
archives. ``repro store ls/gc`` keep the trace cache bounded.
"""

import json
import os

import pytest

from repro.check.doctor import run_doctor, scan_result_store, scan_store
from repro.cli import main
from repro.errors import CheckError
from repro.obs import reset_metrics, snapshot
from repro.serve.results import gc_stores
from repro.sim.results import TierPoint
from repro.workloads.store import TraceStore


@pytest.fixture(autouse=True)
def _clean_runtime(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
    reset_metrics()
    yield
    reset_metrics()


def _point(row_bits):
    return TierPoint(
        col_bits=4 - row_bits,
        row_bits=row_bits,
        misprediction_rate=0.1 + row_bits / 100.0,
        first_level_miss_rate=None,
    )


def _checkpoint(directory, n_points=3):
    """What a ``--checkpoint-dir`` run leaves: one artifact per point;
    returns the artifact paths."""
    from repro.serve.results import ResultStore, point_key

    store = ResultStore(str(directory))
    return [
        store.put(point_key("gas", "fp0", 4, row_bits), 4, _point(row_bits))
        for row_bits in range(n_points)
    ]


def _rot(path):
    with open(path, "w", encoding="ascii") as handle:
        handle.write("rot")


def checks_of(findings):
    return [f.check for f in findings]


def _archive(directory):
    """A trace archive as a ``$REPRO_TRACE_STORE`` run leaves it;
    returns the store and the archive's path."""
    store = TraceStore(str(directory))
    store.get("compress", 500, seed=4)
    (path,) = store.stored_files()
    return store, path


class TestScanStore:
    def test_healthy_store_verifies(self, tmp_path):
        _archive(tmp_path)
        findings = scan_store(str(tmp_path))
        assert checks_of(findings) == ["doctor.store-ok"]
        assert "1/1" in findings[0].why

    def test_corrupt_archive_detected_and_quarantined(self, tmp_path):
        store, path = _archive(tmp_path)
        with open(path, "wb") as handle:
            handle.write(b"this is not an npz")
        findings = scan_store(str(tmp_path))
        assert "doctor.store-corrupt" in checks_of(findings)
        findings = scan_store(str(tmp_path), repair=True)
        assert "doctor.store-repaired" in checks_of(findings)
        assert not os.path.exists(path)
        assert os.path.exists(path + ".quarantine")
        # A quarantined entry regenerates transparently on next use.
        store.get("compress", 500, seed=4)
        assert snapshot()["counters"]["store.misses"] == 2
        assert checks_of(scan_store(str(tmp_path))) == ["doctor.store-ok"]

    def test_empty_store_is_fine(self, tmp_path):
        assert checks_of(scan_store(str(tmp_path))) == [
            "doctor.store-empty"
        ]


class TestRunDoctor:
    def test_requires_a_target(self):
        with pytest.raises(CheckError):
            run_doctor()

    def test_aggregates_passes(self, tmp_path):
        _checkpoint(tmp_path / "ckpt")
        _archive(tmp_path / "store")
        report = run_doctor(
            store_dir=str(tmp_path / "store"),
            results_dir=str(tmp_path / "ckpt"),
        )
        assert report.exit_code(strict=False) == 0

    def test_exit_one_on_findings(self, tmp_path):
        _rot(_checkpoint(tmp_path)[1])
        report = run_doctor(results_dir=str(tmp_path))
        assert report.exit_code(strict=False) == 1

    def test_legacy_journals_are_ignored(self, tmp_path):
        _checkpoint(tmp_path)
        (tmp_path / "gas-compress-0123456789abcdef.journal").write_text("x")
        report = run_doctor(results_dir=str(tmp_path))
        assert report.exit_code(strict=True) == 0


class TestStoreHygiene:
    def _fill(self, tmp_path, count=3):
        store = TraceStore(str(tmp_path))
        for seed in range(count):
            store.get("compress", 300, seed=seed)
        return store

    def test_ls_reports_lru_order_and_sizes(self, tmp_path):
        store = self._fill(tmp_path)
        rows = store.ls()
        assert len(rows) == 3
        assert all(row["bytes"] > 0 for row in rows)
        used = [row["used_at"] for row in rows]
        assert used == sorted(used)
        # A load refreshes recency: the oldest entry moves to the back.
        oldest = rows[0]["path"]
        os.utime(oldest, (0, 0))
        assert store.ls()[0]["path"] == oldest
        store.get("compress", 300, seed=0)
        reordered = store.ls()
        hit = [r for r in reordered if "s0" in str(r["path"])]
        assert reordered[-1]["path"] == hit[0]["path"]

    def test_gc_evicts_lru_until_cap(self, tmp_path):
        store = self._fill(tmp_path)
        rows = store.ls()
        keep = int(rows[-1]["bytes"])
        before = snapshot()["counters"]["store.evictions"]
        evicted = gc_stores([store], keep)
        assert evicted == [str(rows[0]["path"]), str(rows[1]["path"])]
        assert store.total_bytes() <= keep
        assert snapshot()["counters"]["store.evictions"] == before + 2
        assert gc_stores([store], keep) == []  # already under the cap

    def test_gc_zero_empties_negative_rejected(self, tmp_path):
        store = self._fill(tmp_path, count=2)
        with pytest.raises(ValueError):
            gc_stores([store], -1)
        assert len(gc_stores([store], 0)) == 2
        assert store.total_bytes() == 0


class TestDoctorCli:
    def test_doctor_checkpoint_dir_clean(self, tmp_path, capsys):
        _checkpoint(tmp_path)
        code = main(["doctor", "--results", str(tmp_path)])
        assert code == 0
        assert "doctor.results-ok" in capsys.readouterr().out

    def test_doctor_repair_restores_results_and_store(
        self, tmp_path, capsys
    ):
        # The acceptance scenario: one corrupted checkpoint artifact and
        # one corrupted store artifact; `repro doctor --repair` leaves
        # both healthy on a second scan.
        _rot(_checkpoint(tmp_path)[2])
        store_dir = tmp_path / "store"
        _, artifact = _archive(store_dir)
        with open(artifact, "wb") as handle:
            handle.write(b"rot")
        code = main(
            [
                "doctor",
                "--results",
                str(tmp_path),
                "--store",
                str(store_dir),
                "--repair",
            ]
        )
        capsys.readouterr()
        assert code == 1  # findings were present (and repaired)
        code = main(
            [
                "doctor",
                "--results",
                str(tmp_path),
                "--store",
                str(store_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "doctor.results-ok" in out

    def test_doctor_cli_covers_results(self, tmp_path, capsys):
        code = main(["doctor", "--results", str(tmp_path)])
        assert code == 0
        assert "doctor.results-empty" in capsys.readouterr().out

    def test_doctor_json_output(self, tmp_path, capsys):
        _checkpoint(tmp_path)
        code = main(
            ["doctor", "--results", str(tmp_path), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"]

    def test_store_cli_ls_gc_verify(self, tmp_path, capsys):
        store = TraceStore(str(tmp_path))
        for seed in range(2):
            store.get("compress", 300, seed=seed)
        assert main(["store", "ls", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "total: 2 trace(s)" in out
        assert main(["doctor", "--store", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "store",
                    "gc",
                    "--max-bytes",
                    "0",
                    "--store",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 evicted" in out
        assert store.total_bytes() == 0


class TestScanResultStore:
    def _store(self, tmp_path):
        from repro.serve.results import ResultStore, point_key

        store = ResultStore(str(tmp_path))
        key = point_key("gas", "fp0", 4, 1)
        path = store.put(key, 4, _point(1))
        return store, key, path

    def test_healthy_results_verify(self, tmp_path):
        self._store(tmp_path)
        findings = scan_result_store(str(tmp_path))
        assert checks_of(findings) == ["doctor.results-ok"]
        assert "1/1" in findings[0].why

    def test_empty_results_are_fine(self, tmp_path):
        assert checks_of(scan_result_store(str(tmp_path))) == [
            "doctor.results-empty"
        ]

    def test_rotted_artifact_detected_and_quarantined(self, tmp_path):
        store, key, path = self._store(tmp_path)
        payload = json.loads(open(path, encoding="ascii").read())
        payload["point"]["misprediction_rate"] = 0.5  # stale CRC
        with open(path, "w", encoding="ascii") as handle:
            handle.write(json.dumps(payload))
        findings = scan_result_store(str(tmp_path))
        assert "doctor.results-corrupt" in checks_of(findings)
        findings = scan_result_store(str(tmp_path), repair=True)
        assert "doctor.results-repaired" in checks_of(findings)
        assert not os.path.exists(path)
        assert os.path.exists(path + ".quarantine")
        # A quarantined result is just a cache miss on next request.
        assert store.get(key) is None

    def test_filename_key_mismatch_detected(self, tmp_path):
        store, key, path = self._store(tmp_path)
        impostor = os.path.join(str(tmp_path), "rs-" + "0" * 16 + ".json")
        os.rename(path, impostor)
        findings = scan_result_store(str(tmp_path))
        assert "doctor.results-corrupt" in checks_of(findings)
        assert "does not match" in findings[0].why
