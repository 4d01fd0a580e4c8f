"""Durable on-disk job queue for the sweep service.

One job = one ``job-<speckey>-<seq>.job`` JSONL file in the queue
directory (schema ``repro.job/1``), CRC-stamped line by line exactly
like the run ledger:

* line 1 — the header: ``{"schema": "repro.job/1", "kind": "job",
  "id": ..., "spec": {...}, "submitted": ..., "crc": ...}``;
* then — one state event per transition: ``{"kind": "event",
  "state": "queued|running|done|failed|cancelled", "ts": ...,
  "detail": {...}, "crc": ...}``. The job's current state is its last
  valid event (no events = ``queued``).

Durability and single-writer discipline: the header is written once by
the submitting client, into a private staging file that is then
hard-linked to the sequence-numbered name. The link fails if the name
exists, so two clients racing the same sequence number cannot both
win, and a job file is never visible before its header is complete
and synced. Every later event is
appended by the daemon alone via whole-file atomic rewrite. Cancel
requests therefore travel out-of-band — a ``<job file>.cancel``
sidecar created by the client, honored and recorded by the daemon — so
client and daemon never rewrite the same file concurrently.

Dedup (in-flight identical submissions) falls out of the naming
scheme: the filename embeds a digest of the canonical spec JSON, so a
second submission scans for a live job with its own spec key and
attaches instead of enqueueing a duplicate. Torn files never block the
queue: a corrupt event tail just rolls the state back to the previous
event, and ``repro doctor --queue`` quarantines the bad bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.metrics import counter
from repro.runtime.checkpoint import atomic_write_text

#: Schema tag stamped into every job-file line.
JOB_SCHEMA = "repro.job/1"

#: Environment variable naming the default queue directory.
QUEUE_ENV = "REPRO_SERVE_QUEUE"

#: States a job can be in. ``queued``/``running`` are *live* (dedup
#: attaches to them); the rest are terminal.
LIVE_STATES = ("queued", "running")
TERMINAL_STATES = ("done", "failed", "cancelled")


class ServeError(ReproError):
    """A sweep-service job could not be submitted, read, or served."""


@dataclass(frozen=True)
class JobSpec:
    """What a client asked for: one experiment at one trace scale.

    ``benchmarks=()`` means the experiment's own defaults (the paper's
    focus trio for the surface figures). The spec is canonicalized to
    sorted-key JSON before digesting, so key equality is exactly
    request equality.
    """

    experiment: str
    benchmarks: Tuple[str, ...] = ()
    length: int = 150_000
    seed: int = 0
    size_bits: Tuple[int, ...] = tuple(range(4, 16))

    def to_json(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "benchmarks": list(self.benchmarks),
            "length": self.length,
            "seed": self.seed,
            "size_bits": list(self.size_bits),
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "JobSpec":
        try:
            return cls(
                experiment=str(payload["experiment"]),
                benchmarks=tuple(payload.get("benchmarks") or ()),
                length=int(payload["length"]),
                seed=int(payload["seed"]),
                size_bits=tuple(payload["size_bits"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServeError(f"malformed job spec: {exc}") from exc

    def key(self) -> str:
        """Digest identifying this request (the dedup unit)."""
        canonical = json.dumps(self.to_json(), sort_keys=True)
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:12]


def _line_crc(payload: Dict[str, Any]) -> int:
    from repro.obs.ledger import _entry_crc

    return _entry_crc(payload)


def _decode_line(line: str, kind: str) -> Optional[Dict[str, Any]]:
    """Decode one CRC-stamped job-file line; None when torn/corrupt."""
    try:
        payload = json.loads(line)
    except ValueError:
        return None
    if not isinstance(payload, dict) or payload.get("kind") != kind:
        return None
    if payload.get("crc") != _line_crc(payload):
        return None
    return payload


@dataclass
class Job:
    """One queued/running/finished job, as read from its file."""

    id: str
    path: str
    spec: JobSpec
    submitted: float
    events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def state(self) -> str:
        return self.events[-1]["state"] if self.events else "queued"

    @property
    def detail(self) -> Dict[str, Any]:
        """The last event's detail payload (point/cache accounting)."""
        if not self.events:
            return {}
        detail = self.events[-1].get("detail")
        return detail if isinstance(detail, dict) else {}

    @property
    def spec_key(self) -> str:
        return self.spec.key()

    def is_live(self) -> bool:
        return self.state in LIVE_STATES

    def cancel_path(self) -> str:
        return self.path + ".cancel"

    def cancel_requested(self) -> bool:
        return os.path.exists(self.cancel_path())

    def result_path(self) -> str:
        """Where the daemon writes the finished artifact."""
        base = self.path[: -len(".job")] if self.path.endswith(".job") else self.path
        return base + ".result.json"


class JobQueue:
    """The queue directory: submit, list, transition, cancel."""

    def __init__(self, directory: str):
        if not directory:
            raise ServeError(
                "no queue directory: pass --queue DIR or set "
                f"${QUEUE_ENV}"
            )
        self.directory = directory

    @classmethod
    def from_env(cls, override: Optional[str] = None) -> "JobQueue":
        return cls(override or os.environ.get(QUEUE_ENV) or "")

    def _job_path(self, spec_key: str, seq: int) -> str:
        return os.path.join(
            self.directory, f"job-{spec_key}-{seq:03d}.job"
        )

    # -- submission ----------------------------------------------------

    def submit(self, spec: JobSpec) -> Tuple[Job, bool]:
        """Enqueue ``spec``; returns ``(job, attached)``.

        Dedup: when a live job with the same spec key already exists,
        the submission *attaches* to it (``attached=True``, counted in
        ``serve.jobs_deduped``) instead of enqueueing a duplicate. Two
        clients racing the same spec are serialized by ``os.link`` of a
        fully written staging file onto the sequence-numbered name — the
        loser rescans and attaches to the winner's job.
        """
        os.makedirs(self.directory, exist_ok=True)
        spec_key = spec.key()
        for _attempt in range(50):
            # Pick the seq before scanning for a live job: a job
            # published after the pick either shows up in the scan or
            # holds this seq, which makes the link below fail.
            seq = self._next_seq(spec_key)
            live = self._live_job(spec_key)
            if live is not None:
                counter("serve.jobs_deduped").inc()
                return live, True
            path = self._job_path(spec_key, seq)
            header = {
                "schema": JOB_SCHEMA,
                "kind": "job",
                "id": f"{spec_key}-{seq:03d}",
                "spec": spec.to_json(),
                "submitted": time.time(),
            }
            header["crc"] = _line_crc(header)
            # The staging name never matches ``job-*.job``, so scans
            # ignore it until the link publishes the finished header.
            staging = os.path.join(
                self.directory, f".submit-{spec_key}-{os.urandom(8).hex()}.tmp"
            )
            fd = os.open(staging, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            try:
                with os.fdopen(fd, "w", encoding="ascii") as handle:
                    handle.write(json.dumps(header, sort_keys=True) + "\n")
                    handle.flush()
                    os.fsync(handle.fileno())
                os.link(staging, path)
            except FileExistsError:
                continue  # lost the race for this seq: rescan (may attach)
            finally:
                os.unlink(staging)
            counter("serve.jobs_submitted").inc()
            return (
                Job(
                    id=str(header["id"]),
                    path=path,
                    spec=spec,
                    submitted=float(header["submitted"]),
                ),
                False,
            )
        raise ServeError(
            f"could not enqueue job for spec {spec_key} after 50 attempts "
            "(submission race never settled)"
        )

    def _live_job(self, spec_key: str) -> Optional[Job]:
        for job in self.jobs():
            if job.spec_key == spec_key and job.is_live():
                return job
        return None

    def _next_seq(self, spec_key: str) -> int:
        import glob as _glob

        best = -1
        pattern = os.path.join(self.directory, f"job-{spec_key}-*.job")
        for path in _glob.glob(pattern):
            stem = os.path.basename(path)[: -len(".job")]
            try:
                best = max(best, int(stem.rsplit("-", 1)[1]))
            except ValueError:
                continue
        return best + 1

    # -- reading -------------------------------------------------------

    def job_paths(self) -> List[str]:
        if not os.path.isdir(self.directory):
            return []
        return sorted(
            os.path.join(self.directory, f)
            for f in os.listdir(self.directory)
            if f.startswith("job-") and f.endswith(".job")
        )

    def load(self, path: str) -> Optional[Job]:
        """Read one job file; None when its header is unreadable.

        Corrupt or torn *event* lines are dropped (the state rolls back
        to the previous valid event — always safe, because every state
        is either re-derivable or terminal); a corrupt header makes the
        whole file unreadable and is the doctor's business.
        """
        try:
            with open(path, "r", encoding="ascii", errors="replace") as handle:
                lines = handle.read().splitlines()
        except OSError:
            return None
        if not lines:
            return None
        header = _decode_line(lines[0], "job")
        if header is None or header.get("schema") != JOB_SCHEMA:
            return None
        try:
            spec = JobSpec.from_json(header.get("spec") or {})
        except ServeError:
            return None
        job = Job(
            id=str(header.get("id")),
            path=path,
            spec=spec,
            submitted=float(header.get("submitted") or 0.0),
        )
        for line in lines[1:]:
            event = _decode_line(line, "event")
            if event is None:
                continue
            if event.get("state") in LIVE_STATES + TERMINAL_STATES:
                job.events.append(event)
        return job

    def jobs(self) -> List[Job]:
        """Every readable job, submission order."""
        out = []
        for path in self.job_paths():
            job = self.load(path)
            if job is not None:
                out.append(job)
        out.sort(key=lambda j: (j.submitted, j.id))
        return out

    def find(self, job_id: str) -> Job:
        for job in self.jobs():
            if job.id == job_id:
                return job
        raise ServeError(
            f"no job {job_id!r} in queue {self.directory!r}"
        )

    # -- transitions (daemon-only writers) -----------------------------

    def append_event(
        self, job: Job, state: str, detail: Optional[Dict[str, Any]] = None
    ) -> None:
        """Record a state transition (atomic whole-file rewrite).

        Only the daemon calls this, so the read-modify-write cannot
        race another writer; the rewrite re-reads the file first so an
        event appended after a daemon restart preserves history.
        """
        if state not in LIVE_STATES + TERMINAL_STATES:
            raise ServeError(f"unknown job state {state!r}")
        current = self.load(job.path)
        if current is None:
            raise ServeError(
                f"job file {job.path!r} unreadable; run `repro doctor "
                "--queue` to quarantine it"
            )
        event = {
            "kind": "event",
            "state": state,
            "ts": time.time(),
            "detail": detail or {},
        }
        event["crc"] = _line_crc(event)
        current.events.append(event)
        job.events.append(event)
        lines = [self._header_line(current)]
        lines.extend(
            json.dumps(e, sort_keys=True) for e in current.events
        )
        atomic_write_text(job.path, "\n".join(lines) + "\n")

    def _header_line(self, job: Job) -> str:
        header = {
            "schema": JOB_SCHEMA,
            "kind": "job",
            "id": job.id,
            "spec": job.spec.to_json(),
            "submitted": job.submitted,
        }
        header["crc"] = _line_crc(header)
        return json.dumps(header, sort_keys=True)

    # -- cancellation (client-side signal) -----------------------------

    def request_cancel(self, job_id: str) -> Job:
        """Flag a job for cancellation; returns its current snapshot.

        The flag is a sidecar file (exclusive to the job, creation is
        atomic, never touches the job file), so a client can cancel
        while the daemon is mid-rewrite without a lost update. A
        terminal job is left alone.
        """
        job = self.find(job_id)
        if not job.is_live():
            return job
        atomic_write_text(job.cancel_path(), "cancel\n")
        return job

    def clear_cancel(self, job: Job) -> None:
        try:
            os.remove(job.cancel_path())
        except OSError:
            pass


def summarize(jobs: Sequence[Job]) -> List[Dict[str, Any]]:
    """Plain-dict rows for ``repro status`` (text and ``--json``)."""
    rows = []
    for job in jobs:
        row: Dict[str, Any] = {
            "id": job.id,
            "experiment": job.spec.experiment,
            "state": job.state,
            "submitted": job.submitted,
        }
        if job.cancel_requested() and job.is_live():
            row["cancel_requested"] = True
        detail = job.detail
        for key in ("points", "cache_hits", "computed", "error"):
            if key in detail:
                row[key] = detail[key]
        rows.append(row)
    return rows
