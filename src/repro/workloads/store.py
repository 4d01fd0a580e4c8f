"""On-disk trace store.

Generating a multi-million-branch calibrated trace takes seconds;
repeated benchmark runs should not pay it every time. The store maps a
workload request (name, length, seeds) to a ``.npz`` file under a
directory, generating on first request and loading thereafter —
exactly the role the original trace tapes played for the paper's
authors.

The store doubles as the service layer other subsystems share:

* ``TraceStore.from_env()`` returns a store rooted at
  ``$REPRO_TRACE_STORE`` (or ``None`` when the variable is unset), so
  experiments and ``check dealias --validate`` opt into caching by
  environment without code changes at every call site;
* :meth:`TraceStore.get_or_create` caches arbitrary trace factories
  (the estimator's validation micros) under a caller-chosen key.

Every load that skips generation counts ``store.hits``; every request
that had to generate counts ``store.misses``.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Union

from repro.obs.metrics import counter
from repro.traces.io import load_trace, save_trace
from repro.traces.trace import BranchTrace
from repro.workloads.registry import make_workload

#: Directory used when none is given; overridable via environment.
DEFAULT_STORE_ENV = "REPRO_TRACE_STORE"


def _safe_key(key: str) -> str:
    """A filename-safe rendering of a caller-chosen cache key."""
    return "".join(
        ch if ch.isalnum() or ch in "-_." else "_" for ch in key
    )


class TraceStore:
    """Directory-backed cache of generated workload traces."""

    def __init__(self, directory: Optional[str] = None):
        if directory is None:
            directory = os.environ.get(
                DEFAULT_STORE_ENV, os.path.join(".", "traces")
            )
        self.directory = directory

    @classmethod
    def from_env(cls) -> Optional["TraceStore"]:
        """The store named by ``$REPRO_TRACE_STORE``, or None when unset.

        The explicit-opt-in shape: callers that *can* use a store (the
        serial sweep runner, ``check dealias --validate``) consult this
        and fall back to plain generation when the operator has not
        pointed the environment at a cache directory.
        """
        directory = os.environ.get(DEFAULT_STORE_ENV)
        if not directory:
            return None
        return cls(directory)

    def _path(
        self, name: str, length: int, seed: int, trace_seed: int
    ) -> str:
        filename = f"{name}-L{length}-s{seed}-t{trace_seed}.npz"
        return os.path.join(self.directory, filename)

    def get(
        self,
        name: str,
        length: int,
        seed: int = 0,
        trace_seed: Optional[int] = None,
    ) -> BranchTrace:
        """Load the trace from disk, generating and saving on a miss."""
        if trace_seed is None:
            trace_seed = seed
        path = self._path(name, length, seed, trace_seed)
        if os.path.exists(path):
            counter("store.hits").inc()
            self._touch(path)
            return load_trace(path)
        counter("store.misses").inc()
        trace = make_workload(
            name,
            length=length,
            seed=seed,
            trace_seed=trace_seed,
            cache=False,
        )
        os.makedirs(self.directory, exist_ok=True)
        save_trace(trace, path)
        return trace

    def get_or_create(
        self, key: str, factory: Callable[[], BranchTrace]
    ) -> BranchTrace:
        """Load the trace cached under ``key``, else build and save it.

        ``key`` is caller-chosen and must capture everything the
        factory's output depends on (name, length, seeds) — the store
        never re-derives it. Saved traces round-trip name and arrays
        exactly, so a cached load is simulation-identical to a fresh
        ``factory()`` call.
        """
        path = os.path.join(self.directory, _safe_key(key) + ".npz")
        if os.path.exists(path):
            counter("store.hits").inc()
            self._touch(path)
            return load_trace(path)
        counter("store.misses").inc()
        trace = factory()
        os.makedirs(self.directory, exist_ok=True)
        save_trace(trace, path)
        return trace

    def contains(
        self,
        name: str,
        length: int,
        seed: int = 0,
        trace_seed: Optional[int] = None,
    ) -> bool:
        """Whether the trace is already materialized on disk."""
        if trace_seed is None:
            trace_seed = seed
        return os.path.exists(self._path(name, length, seed, trace_seed))

    def stored_files(self) -> list:
        """Paths of all stored traces (empty if the dir is absent)."""
        if not os.path.isdir(self.directory):
            return []
        return sorted(
            os.path.join(self.directory, f)
            for f in os.listdir(self.directory)
            if f.endswith(".npz")
        )

    # -- hygiene -------------------------------------------------------

    def ls(self) -> List[Dict[str, Union[str, int, float]]]:
        """One row per stored trace: path, bytes, last-use time.

        Last use is the file's mtime — loads touch it (see
        :meth:`_touch`), so the listing doubles as the LRU order used
        by :meth:`gc` (oldest first).
        """
        rows: List[Dict[str, Union[str, int, float]]] = []
        for path in self.stored_files():
            try:
                stat = os.stat(path)
            except OSError:
                continue
            rows.append(
                {
                    "path": path,
                    "bytes": stat.st_size,
                    "used_at": stat.st_mtime,
                }
            )
        rows.sort(key=lambda row: (row["used_at"], row["path"]))
        return rows

    def total_bytes(self) -> int:
        """Bytes currently held by the store."""
        return sum(int(row["bytes"]) for row in self.ls())

    def gc(self, max_bytes: int) -> List[str]:
        """Evict least-recently-used traces until the cap is met.

        Returns the evicted paths. A ``max_bytes`` of 0 empties the
        store; a cap the store already satisfies evicts nothing.
        Everything evicted is regenerable (that is the store's
        contract), so gc never needs confirmation.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        rows = self.ls()
        total = sum(int(row["bytes"]) for row in rows)
        evicted: List[str] = []
        for row in rows:
            if total <= max_bytes:
                break
            path = str(row["path"])
            try:
                os.remove(path)
            except OSError:
                continue
            total -= int(row["bytes"])
            evicted.append(path)
            counter("store.evictions").inc()
        return evicted

    @staticmethod
    def _touch(path: str) -> None:
        """Refresh a file's mtime so the LRU order tracks real use."""
        try:
            os.utime(path, None)
        except OSError:  # pragma: no cover - racing gc
            pass
