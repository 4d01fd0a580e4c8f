"""Sweep keys and durable writes.

A finished sweep point is a deterministic function of its scheme,
trace and geometry, so resuming needs no journal: every point lands in
a :class:`~repro.serve.results.ResultStore` under its content address
(:func:`repro.serve.results.point_key`, a single-point
:func:`sweep_key`), and a re-run restores what is there. This module
keeps the two primitives that design rests on:

* :func:`sweep_key` -- the digest identifying a sweep (or, with one
  tier and one row exponent, a single point);
* :func:`atomic_write_text` -- write-temp-then-rename, so a kill at any
  instant leaves either the old file or the new one, never a torn one.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable, Optional


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

    The engine is deliberately excluded: both engines produce identical
    predictions (asserted by the equivalence suite), so a point begun
    vectorized may be finished on the reference engine after a
    degradation and still land under the same key.
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


def quarantine_path(path: str) -> str:
    """The sidecar that preserves a damaged file's pre-repair bytes."""
    return path + ".quarantine"
