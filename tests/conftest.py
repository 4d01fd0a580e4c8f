"""Suite-wide isolation for cross-run telemetry.

``repro run`` appends to the run ledger (``~/.repro/ledger.jsonl`` by
default), which must never leak out of (or between) tests. Every test
gets a throwaway ledger path via ``$REPRO_LEDGER`` and a pinned
``$REPRO_GIT_REV`` (so ledger tests never shell out to git).
"""

import pytest


@pytest.fixture(autouse=True)
def _isolated_ledger(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger.jsonl"))
    monkeypatch.setenv("REPRO_GIT_REV", "testrev")
    monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
    yield
