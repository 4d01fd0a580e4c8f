"""Content-addressed result store: finished sweep points by key.

The sibling of :class:`~repro.workloads.store.TraceStore`: where the
trace store holds the *inputs* a sweep needs, the result store holds
its *outputs* — one small CRC-stamped JSON artifact per completed
:class:`~repro.sim.results.TierPoint`, addressed by a single-point
``sweep_key`` (one tier exponent, one ``row_bits_filter`` entry). The
key covers scheme, trace content fingerprint, and the full predictor
geometry, so identical work requested twice — by two figure jobs, by a
served sweep and a one-shot ``repro run``, in either order — is
simulated once and served from disk forever after. The store is also
the one durable record of a resumable sweep: ``--checkpoint-dir`` is a
result store, and resuming is reading it.

Discipline mirrors the trace store exactly: loads count ``cache.hits``
and touch the file's mtime (the LRU order), lookups that must simulate
count ``cache.misses``, ``ls``/``total_bytes``/``gc`` provide the same
hygiene surface, and a corrupt artifact reads as a miss (left in place
for ``repro doctor`` to quarantine). :func:`gc_stores` evicts across a
trace store *and* a result store under one byte cap, oldest first,
regardless of which store a file lives in.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Union

from repro.obs.metrics import counter
from repro.runtime.durable import atomic_write_text, sweep_key
from repro.runtime.faults import fire_site
from repro.sim.results import TierPoint

#: Environment variable naming the shared result-store directory.
RESULT_STORE_ENV = "REPRO_RESULT_STORE"

#: Schema tag stamped into every result artifact.
RESULT_SCHEMA = "repro.result/1"

#: Artifact filename shape: ``rs-<sweep_key>.json``.
_PREFIX = "rs-"
_SUFFIX = ".json"


def point_key(
    scheme: str,
    trace_fingerprint: str,
    n: int,
    row_bits: int,
    bht_entries: Optional[int] = None,
    bht_assoc: int = 4,
) -> str:
    """The content address of one sweep point.

    Literally a single-point :func:`~repro.runtime.durable.sweep_key`
    (``size_bits=[n]``, ``row_bits_filter=[row_bits]``), so the digest
    covers everything that determines the point's result and nothing
    that does not (the engine is excluded: both engines are
    bit-identical).
    """
    return sweep_key(
        scheme,
        trace_fingerprint,
        [n],
        bht_entries=bht_entries,
        bht_assoc=bht_assoc,
        row_bits_filter=[row_bits],
    )


def _point_to_json(n: int, point: TierPoint) -> Dict:
    return {
        "n": n,
        "col_bits": point.col_bits,
        "row_bits": point.row_bits,
        "misprediction_rate": point.misprediction_rate,
        "aliasing_rate": point.aliasing_rate,
        "first_level_miss_rate": point.first_level_miss_rate,
    }


def _point_from_json(payload: Dict) -> TierPoint:
    return TierPoint(
        col_bits=payload["col_bits"],
        row_bits=payload["row_bits"],
        misprediction_rate=payload["misprediction_rate"],
        aliasing_rate=payload.get("aliasing_rate"),
        first_level_miss_rate=payload.get("first_level_miss_rate"),
    )


def _artifact_crc(payload: Dict) -> int:
    from repro.obs.ledger import _entry_crc

    return _entry_crc(payload)


class ResultStore:
    """Directory-backed cache of finished sweep points."""

    def __init__(self, directory: str):
        self.directory = directory

    @classmethod
    def from_env(cls) -> Optional["ResultStore"]:
        """The store named by ``$REPRO_RESULT_STORE``, or None.

        Same opt-in shape as ``TraceStore.from_env``: the serial sweep
        loop consults this and skips memoization entirely when the
        operator has not pointed the environment at a cache directory.
        """
        directory = os.environ.get(RESULT_STORE_ENV)
        if not directory:
            return None
        return cls(directory)

    def _path(self, key: str) -> str:
        safe = "".join(ch for ch in key if ch.isalnum())
        return os.path.join(self.directory, f"{_PREFIX}{safe}{_SUFFIX}")

    def get(self, key: str) -> Optional[TierPoint]:
        """The cached point for ``key``, or None (counts hits/misses).

        A corrupt or schema-mismatched artifact is a miss, not an
        error: the caller simulates and overwrites it, and ``repro
        doctor --results`` reports/quarantines whatever is left.
        """
        payload = self._load(self._path(key))
        if payload is None or payload.get("key") != key:
            counter("cache.misses").inc()
            return None
        counter("cache.hits").inc()
        self._touch(self._path(key))
        return _point_from_json(payload["point"])

    def peek(self, key: str) -> Optional[TierPoint]:
        """Like :meth:`get` but silent: no counters, no LRU touch."""
        payload = self._load(self._path(key))
        if payload is None or payload.get("key") != key:
            return None
        return _point_from_json(payload["point"])

    def put(self, key: str, n: int, point: TierPoint) -> str:
        """Persist one finished point under ``key``; returns the path.

        Idempotent and last-writer-wins safe: results are deterministic
        functions of their key, so concurrent writers of the same key
        write identical bytes and the atomic rename keeps readers from
        ever seeing a torn artifact. The ``results.put`` fault site can
        tear or corrupt the written bytes; such an artifact reads as a
        miss and is recomputed.
        """
        os.makedirs(self.directory, exist_ok=True)
        payload = {
            "schema": RESULT_SCHEMA,
            "key": key,
            "point": _point_to_json(n, point),
        }
        payload["crc"] = _artifact_crc(payload)
        text = json.dumps(payload, sort_keys=True) + "\n"
        fired = fire_site("results.put")
        if "corrupt" in fired:
            text = text[:-8] + "#corrupt"
        elif "torn-write" in fired:
            text = text[: len(text) // 2]
        path = self._path(key)
        atomic_write_text(path, text)
        return path

    def _load(self, path: str) -> Optional[Dict]:
        try:
            with open(path, "r", encoding="ascii") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("schema") != RESULT_SCHEMA:
            return None
        if payload.get("crc") != _artifact_crc(payload):
            return None
        if not isinstance(payload.get("point"), dict):
            return None
        return payload

    # -- hygiene (the TraceStore surface) ------------------------------

    def stored_files(self) -> List[str]:
        if not os.path.isdir(self.directory):
            return []
        return sorted(
            os.path.join(self.directory, f)
            for f in os.listdir(self.directory)
            if f.startswith(_PREFIX) and f.endswith(_SUFFIX)
        )

    def ls(self) -> List[Dict[str, Union[str, int, float]]]:
        """One row per artifact: path, bytes, last-use mtime (LRU order)."""
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
        return sum(int(row["bytes"]) for row in self.ls())

    def gc(self, max_bytes: int) -> List[str]:
        """Evict least-recently-used results until the cap is met."""
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        return _evict(self.ls(), max_bytes)

    @staticmethod
    def _touch(path: str) -> None:
        try:
            os.utime(path, None)
        except OSError:  # pragma: no cover - racing gc
            pass


def _evict(
    rows: List[Dict[str, Union[str, int, float]]], max_bytes: int
) -> List[str]:
    """Remove oldest-first until the rows fit under ``max_bytes``."""
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


def gc_stores(stores, max_bytes: int) -> List[str]:
    """LRU-evict across several stores under one combined byte cap.

    ``stores`` is any mix of trace and result stores (anything with an
    ``ls()`` returning ``{path, bytes, used_at}`` rows). Eviction is
    strictly oldest-first across the union, so a hot trace outlives a
    cold result and vice versa — one cap governs the whole artifact
    budget, which is what ``repro store gc`` exposes when both stores
    are named.
    """
    if max_bytes < 0:
        raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
    rows: List[Dict[str, Union[str, int, float]]] = []
    for store in stores:
        rows.extend(store.ls())
    rows.sort(key=lambda row: (row["used_at"], row["path"]))
    return _evict(rows, max_bytes)
