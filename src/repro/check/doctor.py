"""Integrity doctor: scan and repair stores.

``repro doctor`` is the operational answer to "a host died mid-sweep /
a disk lied — can I trust what's on disk?". It scans these artifact
families:

* **The trace store** (``--store``) — every ``.npz`` must load.
  ``--repair`` moves unloadable archives aside (``.quarantine``
  suffix) so the store regenerates them on next use.
* **The result store** (``--results``: a ``--checkpoint-dir`` or
  ``$REPRO_RESULT_STORE``) — every ``rs-<key>.json`` artifact must pass
  :meth:`~repro.serve.results.ResultStore.verify`; repair quarantines
  liars so the next request is an honest cache miss that recomputes
  the point.

Findings reuse the ``repro check`` machinery: exit 0 clean, 1 when
something needs attention, 2 on internal error. Repairs count the
``doctor.repairs`` metric.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.check.findings import CheckReport, Finding
from repro.errors import CheckError
from repro.obs.metrics import counter
from repro.runtime.durable import quarantine_path


def _quarantine_artifact(path: str) -> None:
    os.replace(path, quarantine_path(path))
    counter("doctor.repairs").inc()


def scan_store(directory: str, repair: bool = False) -> List[Finding]:
    """Findings for a trace store directory; optionally repair it.

    Every archive must load; one that does not is a cache entry the
    next run would fail on instead of regenerating.
    """
    from repro.errors import TraceError
    from repro.traces.io import load_trace
    from repro.workloads.store import TraceStore

    findings: List[Finding] = []
    store = TraceStore(directory)
    files = store.stored_files()
    if not files:
        return [
            Finding(
                check="doctor.store-empty",
                severity="info",
                why="trace store is empty",
                location=directory,
            )
        ]
    healthy = 0
    for path in files:
        try:
            load_trace(path)
        except TraceError as exc:
            findings.append(
                Finding(
                    check="doctor.store-corrupt",
                    severity="error",
                    why=f"unloadable trace archive: {exc}",
                    location=path,
                )
            )
            if repair:
                _quarantine_artifact(path)
                findings.append(
                    Finding(
                        check="doctor.store-repaired",
                        severity="info",
                        why="corrupt archive quarantined "
                        "(will regenerate on next use)",
                        location=path,
                    )
                )
            continue
        healthy += 1
    findings.append(
        Finding(
            check="doctor.store-ok",
            severity="info",
            why=f"{healthy}/{len(files)} archive(s) verified",
            location=directory,
        )
    )
    return findings


def scan_result_store(
    directory: str, repair: bool = False
) -> List[Finding]:
    """Findings for a result store directory; optionally repair it.

    An artifact that fails :meth:`ResultStore.verify
    <repro.serve.results.ResultStore.verify>` would be served as a
    sweep point that was never simulated under that address. Repair
    quarantines it; the next request for that key is simply a cache
    miss that recomputes it.
    """
    from repro.serve.results import ResultStore

    findings: List[Finding] = []
    store = ResultStore(directory)
    files = store.stored_files()
    if not files:
        return [
            Finding(
                check="doctor.results-empty",
                severity="info",
                why="result store is empty",
                location=directory,
            )
        ]
    healthy = 0
    for path in files:
        _, why = store.verify(path)
        if why is not None:
            findings.append(
                Finding(
                    check="doctor.results-corrupt",
                    severity="error",
                    why=why,
                    location=path,
                )
            )
            if repair:
                _quarantine_artifact(path)
                findings.append(
                    Finding(
                        check="doctor.results-repaired",
                        severity="info",
                        why="corrupt result quarantined (next request "
                        "recomputes it)",
                        location=path,
                    )
                )
            continue
        healthy += 1
    findings.append(
        Finding(
            check="doctor.results-ok",
            severity="info",
            why=f"{healthy}/{len(files)} result artifact(s) verified",
            location=directory,
        )
    )
    return findings


def run_doctor(
    store_dir: Optional[str] = None,
    results_dir: Optional[str] = None,
    repair: bool = False,
) -> CheckReport:
    """Aggregate scans into one report (the CLI entry point)."""
    report = CheckReport()
    if store_dir is None and results_dir is None:
        raise CheckError(
            "doctor needs something to scan: --store or --results"
        )
    if store_dir is not None:
        report.extend("doctor.store", scan_store(store_dir, repair=repair))
    if results_dir is not None:
        report.extend(
            "doctor.results", scan_result_store(results_dir, repair=repair)
        )
    return report
