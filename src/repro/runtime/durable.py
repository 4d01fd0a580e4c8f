"""Sweep keys and durable writes.

A finished sweep point is a deterministic function of its scheme,
trace and geometry, so resuming needs no journal: every point lands in
a :class:`~repro.serve.results.ResultStore` under its content address
(:func:`repro.serve.results.point_key`, a single-point
:func:`sweep_key`), and a re-run restores what is there. This module
keeps the primitives that design rests on:

* :func:`sweep_key` -- the digest identifying a sweep (or, with one
  tier and one row exponent, a single point);
* :func:`atomic_write_text` -- write-temp-then-rename, so a kill at any
  instant leaves either the old file or the new one, never a torn one;
* :func:`lru_rows` / :func:`evict_lru` / :func:`touch` -- the LRU
  hygiene both stores share: a file's mtime is its last use, and
  eviction removes the oldest files first.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Optional, Union

from repro.obs.metrics import counter

#: One stored file: ``{"path", "bytes", "used_at"}``.
Row = Dict[str, Union[str, int, float]]


def sweep_key(
    scheme: str,
    trace_fingerprint: str,
    size_bits: Iterable[int],
    bht_entries: Optional[int] = None,
    bht_assoc: int = 4,
    engine: str = "auto",
    row_bits_filter: Optional[Iterable[int]] = None,
) -> str:
    """Digest identifying one sweep: same key => same results.

    ``engine`` is accepted but deliberately excluded from the digest:
    the vectorized and reference engines are bit-identical (asserted by
    ``tests/test_sim_equivalence.py`` and the e2e benchmark's
    ``checks.py``), so a point's result does not depend on which engine
    computed it.
    """
    payload = json.dumps(
        {
            "scheme": scheme,
            "trace": trace_fingerprint,
            "size_bits": sorted(size_bits),
            "bht_entries": bht_entries,
            "bht_assoc": bht_assoc,
            "row_bits_filter": (
                sorted(row_bits_filter) if row_bits_filter is not None else None
            ),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via write-temp-then-rename."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def lru_rows(paths: Iterable[str]) -> List[Row]:
    """One row per file: path, bytes, last-use mtime; oldest first.

    A file that vanishes between listing and ``stat`` (a racing gc) is
    skipped.
    """
    rows: List[Row] = []
    for path in paths:
        try:
            stat = os.stat(path)
        except OSError:
            continue
        rows.append(
            {"path": path, "bytes": stat.st_size, "used_at": stat.st_mtime}
        )
    rows.sort(key=lambda row: (row["used_at"], row["path"]))
    return rows


def evict_lru(rows: List[Row], max_bytes: int) -> List[str]:
    """Remove files oldest-first until ``rows`` fit under ``max_bytes``.

    ``rows`` must be in :func:`lru_rows` order. Returns the evicted
    paths; a ``max_bytes`` of 0 removes every file.
    """
    if max_bytes < 0:
        raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
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


def touch(path: str) -> None:
    """Refresh a file's mtime so the LRU order tracks real use."""
    try:
        os.utime(path, None)
    except OSError:  # pragma: no cover - racing gc
        pass
