"""Integrity doctor: scan and repair checkpoints, stores and queues.

``repro doctor`` is the operational answer to "a host died mid-sweep /
a disk lied — can I trust what's on disk?". It scans these artifact
families:

* **The trace store** — every ``.npz`` is loaded and, for
  fingerprint-keyed files (``fp-<hash>.npz``), re-hashed against its
  filename. ``--repair`` moves corrupt or mismatched artifacts aside
  (``.quarantine`` suffix) so the store regenerates them on next use.
* **The result store** (``--results``, and ``--checkpoint-dir``, which
  is a result store) — every ``rs-<key>.json`` artifact is schema-,
  CRC- and key-verified; repair quarantines liars so the next request
  is an honest cache miss that recomputes the point.
* **The serve queue** (``--queue``) — unrecoverable job-file headers
  quarantine the file, torn event tails truncate to the last good
  event, and finished-job result artifacts are CRC-verified.

Findings reuse the ``repro check`` machinery: exit 0 clean, 1 when
something needs attention, 2 on internal error. Repairs count the
``doctor.repairs`` metric.
"""

from __future__ import annotations

import glob
import json
import os
from typing import List, Optional

from repro.check.findings import CheckReport, Finding
from repro.errors import CheckError
from repro.obs.metrics import counter
from repro.runtime.durable import atomic_write_text, quarantine_path


def _read_lines(path: str) -> List[str]:
    try:
        with open(path, "r", encoding="ascii", errors="replace") as handle:
            return handle.read().splitlines()
    except OSError as exc:
        raise CheckError(f"cannot read {path!r}: {exc}") from exc


def _repair_journal(
    path: str, original: List[str], good: List[str]
) -> None:
    """Quarantine the original bytes, rewrite only the good lines."""
    atomic_write_text(quarantine_path(path), "\n".join(original) + "\n")
    atomic_write_text(path, "\n".join(good) + "\n")
    counter("doctor.repairs").inc()


def _store_fingerprint_of(path: str) -> Optional[str]:
    """The fingerprint embedded in an ``fp-<hash>.npz`` filename."""
    stem = os.path.basename(path)
    if not stem.startswith("fp-") or not stem.endswith(".npz"):
        return None
    return stem[len("fp-") : -len(".npz")]


def _quarantine_artifact(path: str) -> None:
    os.replace(path, path + ".quarantine")
    counter("doctor.repairs").inc()


def scan_store(directory: str, repair: bool = False) -> List[Finding]:
    """Findings for a trace store directory; optionally repair it.

    Every archive must load; fingerprint-keyed archives must also
    re-hash to the fingerprint in their filename (a mismatch means the
    bytes rotted or were tampered with — either way the cache entry is
    a lie and workers loading it would simulate a different trace).
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
            trace = load_trace(path)
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
        expected = _store_fingerprint_of(path)
        if expected is not None and trace.fingerprint() != expected:
            findings.append(
                Finding(
                    check="doctor.store-fingerprint",
                    severity="error",
                    why="content hash does not match the fingerprint "
                    "in the filename",
                    location=path,
                )
            )
            if repair:
                _quarantine_artifact(path)
                findings.append(
                    Finding(
                        check="doctor.store-repaired",
                        severity="info",
                        why="mismatched archive quarantined",
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

    Every ``rs-<key>.json`` artifact must parse, carry the result
    schema, pass its CRC, and embed the key its filename claims — a
    failure on any axis means the cache entry would be served as a
    sweep point that was never simulated under that address. Repair
    quarantines the artifact; the next request for that key is simply
    a cache miss that recomputes it.
    """
    from repro.obs.ledger import _entry_crc

    from repro.serve.results import RESULT_SCHEMA, ResultStore

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
        stem = os.path.basename(path)
        claimed = stem[len("rs-") : -len(".json")]
        why = None
        try:
            with open(path, "r", encoding="ascii") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            payload = None
            why = "unparseable result artifact"
        if why is None:
            if (
                not isinstance(payload, dict)
                or payload.get("schema") != RESULT_SCHEMA
            ):
                why = "missing or unrecognized result schema"
            elif payload.get("crc") != _entry_crc(payload):
                why = "CRC mismatch (bytes rotted or torn)"
            elif payload.get("key") != claimed:
                why = (
                    f"stored key {payload.get('key')!r} does not match "
                    "the key in the filename"
                )
            elif not isinstance(payload.get("point"), dict):
                why = "artifact carries no point payload"
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


def scan_queue(directory: str, repair: bool = False) -> List[Finding]:
    """Findings for a serve queue directory; optionally repair it.

    An unreadable job-file header quarantines the whole file (the job is unrecoverable — resubmit
    it), while torn or corrupt event lines truncate back to the last
    good event, which is always safe because every job state is either
    re-derivable by the daemon or terminal. Finished-job result
    artifacts are CRC-verified the same way the fetch client does.
    """
    from repro.obs.ledger import _entry_crc

    from repro.serve.daemon import JOB_RESULT_SCHEMA
    from repro.serve.queue import JobQueue, _decode_line

    findings: List[Finding] = []
    queue = JobQueue(directory)
    paths = queue.job_paths()
    if not paths and not glob.glob(
        os.path.join(directory, "job-*.result.json")
    ):
        return [
            Finding(
                check="doctor.queue-empty",
                severity="info",
                why="no job files found",
                location=directory,
            )
        ]
    healthy = 0
    for path in paths:
        lines = _read_lines(path)
        header = _decode_line(lines[0], "job") if lines else None
        if header is None:
            findings.append(
                Finding(
                    check="doctor.queue-header",
                    severity="error",
                    why="corrupt or unrecognized job header",
                    location=f"{path}:1",
                )
            )
            if repair:
                _quarantine_artifact(path)
                findings.append(
                    Finding(
                        check="doctor.queue-repaired",
                        severity="info",
                        why="job file quarantined (unrecoverable "
                        "header; resubmit the job)",
                        location=path,
                    )
                )
            continue
        good = [lines[0]]
        bad = 0
        for lineno, line in enumerate(lines[1:], start=2):
            event = _decode_line(line, "event")
            if event is None:
                bad += 1
                at_end = lineno == len(lines)
                findings.append(
                    Finding(
                        check="doctor.queue-event",
                        severity="warning" if at_end else "error",
                        why=(
                            "torn tail (truncated final event)"
                            if at_end
                            else "corrupt event (bad JSON or CRC)"
                        ),
                        location=f"{path}:{lineno}",
                    )
                )
                continue
            good.append(line)
        if bad == 0:
            healthy += 1
        elif repair:
            _repair_journal(path, lines, good)
            findings.append(
                Finding(
                    check="doctor.queue-repaired",
                    severity="info",
                    why=f"job file truncated to last good event "
                    f"({bad} line(s) quarantined)",
                    location=path,
                )
            )
    for path in sorted(
        glob.glob(os.path.join(directory, "job-*.result.json"))
    ):
        why = None
        try:
            with open(path, "r", encoding="ascii") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            payload = None
            why = "unparseable job result artifact"
        if why is None and (
            not isinstance(payload, dict)
            or payload.get("schema") != JOB_RESULT_SCHEMA
            or payload.get("crc") != _entry_crc(payload)
        ):
            why = "job result artifact fails schema or CRC check"
        if why is not None:
            findings.append(
                Finding(
                    check="doctor.queue-result",
                    severity="error",
                    why=why,
                    location=path,
                )
            )
            if repair:
                _quarantine_artifact(path)
                findings.append(
                    Finding(
                        check="doctor.queue-repaired",
                        severity="info",
                        why="damaged job result quarantined "
                        "(resubmit — the cache makes it cheap)",
                        location=path,
                    )
                )
            continue
        healthy += 1
    findings.append(
        Finding(
            check="doctor.queue-ok",
            severity="info",
            why=f"{healthy} queue artifact(s) verified",
            location=directory,
        )
    )
    return findings


def run_doctor(
    checkpoint_dir: Optional[str] = None,
    store_dir: Optional[str] = None,
    results_dir: Optional[str] = None,
    queue_dir: Optional[str] = None,
    repair: bool = False,
) -> CheckReport:
    """Aggregate scans into one report (the CLI entry point)."""
    report = CheckReport()
    if (
        checkpoint_dir is None
        and store_dir is None
        and results_dir is None
        and queue_dir is None
    ):
        raise CheckError(
            "doctor needs something to scan: --checkpoint-dir, "
            "--store, --results, or --queue"
        )
    if checkpoint_dir is not None:
        report.extend(
            "doctor.checkpoints",
            scan_result_store(checkpoint_dir, repair=repair),
        )
    if store_dir is not None:
        report.extend("doctor.store", scan_store(store_dir, repair=repair))
    if results_dir is not None:
        report.extend(
            "doctor.results", scan_result_store(results_dir, repair=repair)
        )
    if queue_dir is not None:
        report.extend("doctor.queue", scan_queue(queue_dir, repair=repair))
    return report
