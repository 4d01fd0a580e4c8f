"""On-disk trace store.

Generating a multi-million-branch calibrated trace takes seconds;
repeated benchmark runs should not pay it every time. The store maps a
workload request (name, length, seeds) to a ``.npz`` file under a
directory, generating on first request and loading thereafter —
exactly the role the original trace tapes played for the paper's
authors.

``TraceStore.from_env()`` returns a store rooted at
``$REPRO_TRACE_STORE`` (or ``None`` when the variable is unset), so
experiments opt into caching by environment without code changes at
every call site; :meth:`TraceStore.get` is the one way in.

Every load that skips generation counts ``store.hits``; every request
that had to generate counts ``store.misses``.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.obs.metrics import counter
from repro.runtime.durable import Row, lru_rows, touch
from repro.traces.io import load_trace, save_trace
from repro.traces.trace import BranchTrace
from repro.workloads.registry import make_workload

#: Directory used when none is given; overridable via environment.
DEFAULT_STORE_ENV = "REPRO_TRACE_STORE"


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
        experiments' trace builder) consult this and fall back to plain
        generation when the operator has not pointed the environment at
        a cache directory.
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
            touch(path)
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

    def ls(self) -> List[Row]:
        """One row per stored trace: path, bytes, last-use time.

        Last use is the file's mtime — loads touch it, so the listing
        doubles as the LRU order ``gc_stores`` evicts in (oldest first).
        """
        return lru_rows(self.stored_files())

    def total_bytes(self) -> int:
        """Bytes currently held by the store."""
        return sum(int(row["bytes"]) for row in self.ls())
