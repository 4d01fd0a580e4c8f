"""Cross-run telemetry: the append-only run ledger.

``run_metrics.json`` is a one-shot artifact — it answers "what did
*this* run do" and evaporates at the next run. The ledger is the
longitudinal memory and the repo's one perf trajectory: every ``repro
run`` and every ``benchmarks/bench_*.py`` run appends one CRC-stamped
JSON line (schema :data:`LEDGER_SCHEMA`) recording when it ran, at
which git revision, with which engine and worker count, how long it
took and how many branches/second it sustained, plus the full
counters/histograms snapshot for forensics.

* **Location.** ``~/.repro/ledger.jsonl`` by default; ``$REPRO_LEDGER``
  overrides the path, and an *empty* ``$REPRO_LEDGER`` disables
  recording entirely (tests set a per-test path via that variable).
* **Durability.** Appends go through the checkpoint layer's
  ``atomic_write_text`` (write temp + rename), so a crash mid-append
  leaves either the old or the new complete ledger. A torn or corrupt
  *tail* left by earlier tooling is recovered: original bytes
  preserved to a ``.quarantine`` sidecar, file truncated to its last
  good line.
* **Queries.** ``repro obs history`` lists rows, ``repro obs diff
  REV1 REV2`` compares the latest row per bench across two revisions,
  and ``repro obs regress`` gates the newest row of each bench against
  the median of its last K predecessors (findings in the ``repro
  check`` schema; exit 1 on a real regression).
"""

from __future__ import annotations

import json
import os
import time
import zlib
from typing import Any, Dict, List, Optional, Tuple

#: Schema tag stamped into every ledger line.
LEDGER_SCHEMA = "repro.ledger/1"

#: Default on-disk location (under the user's home directory).
DEFAULT_LEDGER = os.path.join("~", ".repro", "ledger.jsonl")

#: Environment override; empty string disables the ledger.
LEDGER_ENV = "REPRO_LEDGER"

def resolve_ledger_path(override: Optional[str] = None) -> Optional[str]:
    """The ledger file to use, or ``None`` when recording is disabled.

    Priority: explicit ``override`` argument, then ``$REPRO_LEDGER``
    (empty disables), then the :data:`DEFAULT_LEDGER` home location.
    """
    if override is not None:
        return os.path.expanduser(override) if override else None
    env = os.environ.get(LEDGER_ENV)
    if env is not None:
        return os.path.expanduser(env) if env else None
    return os.path.expanduser(DEFAULT_LEDGER)


def _entry_crc(payload: Dict[str, Any]) -> int:
    """crc32 of the canonical JSON encoding (sans the ``crc`` field)."""
    body = {k: v for k, v in payload.items() if k != "crc"}
    canonical = json.dumps(body, sort_keys=True).encode("ascii")
    return zlib.crc32(canonical) & 0xFFFFFFFF


def _decode_entry(line: str) -> Optional[Dict[str, Any]]:
    """Decode one ledger line; ``None`` when torn/corrupt/foreign."""
    try:
        payload = json.loads(line)
    except ValueError:
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("schema") != LEDGER_SCHEMA:
        return None
    if payload.get("crc") != _entry_crc(payload):
        return None
    return payload


def load_entries(path: str) -> Tuple[List[Dict[str, Any]], List[int]]:
    """All valid entries plus the line numbers of invalid lines.

    Never raises on content problems: a torn tail (or any corrupt
    line) is reported by line number and skipped, so queries keep
    working against whatever survives. A missing file is an empty
    ledger.
    """
    if not os.path.exists(path):
        return [], []
    from repro.errors import ReproError

    try:
        with open(path, "r", encoding="ascii", errors="replace") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise ReproError(f"cannot read ledger {path!r}: {exc}") from exc
    entries: List[Dict[str, Any]] = []
    bad: List[int] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        entry = _decode_entry(line)
        if entry is None:
            bad.append(lineno)
        else:
            entries.append(entry)
    return entries, bad


def recover_ledger(path: str) -> int:
    """Quarantine bad bytes and truncate to the good lines.

    The original file is preserved to a ``.quarantine`` sidecar, then
    the ledger is rewritten with only its CRC-valid lines. Returns the
    number of lines dropped.
    """
    from repro.runtime.durable import atomic_write_text, quarantine_path

    entries, bad = load_entries(path)
    if not bad:
        return 0
    with open(path, "r", encoding="ascii", errors="replace") as handle:
        original = handle.read()
    atomic_write_text(quarantine_path(path), original)
    good = "".join(
        json.dumps(entry, sort_keys=True) + "\n" for entry in entries
    )
    atomic_write_text(path, good)
    from repro.obs.metrics import counter

    counter("doctor.repairs").inc()
    return len(bad)


def append_entry(
    entry: Dict[str, Any], path: Optional[str] = None
) -> Optional[str]:
    """Append one entry atomically; returns the path written (or None).

    The whole file is rewritten through ``atomic_write_text`` — ledgers
    are small (one line per run) and the rename guarantees a reader
    never sees a half-appended line. A torn tail found on the way in is
    recovered first (quarantine + truncate), so one bad byte never
    poisons the history.
    """
    target = resolve_ledger_path(path)
    if target is None:
        return None
    from repro.runtime.durable import atomic_write_text

    directory = os.path.dirname(target)
    if directory:
        os.makedirs(directory, exist_ok=True)
    if os.path.exists(target):
        _, bad = load_entries(target)
        if bad:
            recover_ledger(target)
    entries, _ = load_entries(target)
    payload = {k: v for k, v in entry.items() if k != "crc"}
    payload["crc"] = _entry_crc(payload)
    text = "".join(
        json.dumps(row, sort_keys=True) + "\n" for row in entries
    ) + json.dumps(payload, sort_keys=True) + "\n"
    atomic_write_text(target, text)
    return target


def git_revision() -> str:
    """The current short git revision; ``$REPRO_GIT_REV`` overrides.

    Returns ``"unknown"`` outside a git checkout — the ledger must
    never make a run fail just because the run directory moved.
    """
    env = os.environ.get("REPRO_GIT_REV")
    if env:
        return env
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def engine_label(counters: Dict[str, Any]) -> str:
    """Which engine(s) a run used, from its counters snapshot."""
    vectorized = counters.get("engine.vectorized.runs", 0)
    reference = counters.get("engine.reference.runs", 0)
    if vectorized and reference:
        return "mixed"
    return "reference" if reference else "vectorized"


def record_run(
    bench: str,
    *,
    branches_per_sec: Optional[float] = None,
    wall_s: Optional[float] = None,
    engine: Optional[str] = None,
    workers: int = 1,
    path: Optional[str] = None,
) -> Optional[Dict[str, Any]]:
    """Build a ledger entry from the live metrics registry and append it.

    The CLI calls this at report time after every ``repro run``; the
    benchmark harness calls it with explicit ``branches_per_sec`` /
    ``wall_s`` overrides (its timer brackets more than engine time).
    Returns the appended entry, or ``None`` when the ledger is
    disabled.
    """
    target = resolve_ledger_path(path)
    if target is None:
        return None
    from repro.obs.metrics import snapshot

    snap = snapshot()
    counters = snap["counters"]
    branches = int(counters.get("sim.branches") or 0)
    wall = (
        float(wall_s)
        if wall_s is not None
        else float(counters.get("sim.wall_s") or 0.0)
    )
    bps = (
        float(branches_per_sec)
        if branches_per_sec is not None
        else (branches / wall if wall else 0.0)
    )
    entry: Dict[str, Any] = {
        "schema": LEDGER_SCHEMA,
        "ts": time.time(),
        "bench": bench,
        "git_rev": git_revision(),
        "engine": engine if engine is not None else engine_label(counters),
        "workers": int(workers),
        "wall_s": wall,
        "cpu_s": float(counters.get("sim.cpu_s") or 0.0) or wall,
        "branches": branches,
        "branches_per_sec": bps,
        "counters": counters,
        "histograms": snap["histograms"],
    }
    append_entry(entry, path=target)
    return entry


# ----------------------------------------------------------------------
# Queries: history, diff, regress
# ----------------------------------------------------------------------


def _by_bench(
    entries: List[Dict[str, Any]], bench: Optional[str] = None
) -> Dict[str, List[Dict[str, Any]]]:
    """Entries grouped by bench, in file (= append) order."""
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for entry in entries:
        name = str(entry.get("bench", "?"))
        if bench is not None and name != bench:
            continue
        grouped.setdefault(name, []).append(entry)
    return grouped


def _when(entry: Dict[str, Any]) -> str:
    try:
        stamp = float(entry.get("ts") or 0.0)
    except (TypeError, ValueError):
        stamp = 0.0
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(stamp))


def render_history(
    entries: List[Dict[str, Any]],
    bench: Optional[str] = None,
    limit: int = 20,
) -> str:
    """Aligned text table of the most recent ledger rows."""
    from repro.utils.tables import format_table

    rows = []
    selected = [
        e for e in entries if bench is None or e.get("bench") == bench
    ]
    for entry in selected[-limit:] if limit else selected:
        rows.append(
            [
                _when(entry),
                str(entry.get("bench", "?")),
                str(entry.get("git_rev", "?")),
                str(entry.get("engine", "?")),
                int(entry.get("workers") or 1),
                float(entry.get("wall_s") or 0.0),
                float(entry.get("branches_per_sec") or 0.0),
            ]
        )
    if not rows:
        return "(ledger empty)"
    return format_table(
        rows,
        headers=(
            "when", "bench", "rev", "engine", "workers",
            "wall_s", "branches/s",
        ),
        float_fmt=".4g",
    )


def diff_rows(
    entries: List[Dict[str, Any]],
    rev1: str,
    rev2: str,
    bench: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Latest-run throughput per bench at two revisions, with deltas."""
    rows: List[Dict[str, Any]] = []
    for name, runs in sorted(_by_bench(entries, bench).items()):
        latest: Dict[str, Optional[Dict[str, Any]]] = {rev1: None, rev2: None}
        for entry in runs:
            rev = str(entry.get("git_rev", ""))
            if rev in latest:
                latest[rev] = entry
        first, second = latest[rev1], latest[rev2]
        if first is None and second is None:
            continue
        bps1 = float(first.get("branches_per_sec") or 0.0) if first else None
        bps2 = float(second.get("branches_per_sec") or 0.0) if second else None
        delta = None
        if bps1 and bps2 is not None:
            delta = 100.0 * (bps2 - bps1) / bps1
        rows.append(
            {
                "bench": name,
                rev1: bps1,
                rev2: bps2,
                "delta_pct": delta,
            }
        )
    return rows


def render_diff(
    entries: List[Dict[str, Any]],
    rev1: str,
    rev2: str,
    bench: Optional[str] = None,
) -> str:
    """Aligned text table of :func:`diff_rows`."""
    from repro.utils.tables import format_table

    rows = diff_rows(entries, rev1, rev2, bench)
    if not rows:
        return f"(no ledger rows at {rev1!r} or {rev2!r})"
    table = [
        [
            row["bench"],
            "-" if row[rev1] is None else float(row[rev1]),
            "-" if row[rev2] is None else float(row[rev2]),
            "-" if row["delta_pct"] is None else f"{row['delta_pct']:+.1f}%",
        ]
        for row in rows
    ]
    return format_table(
        table,
        headers=("bench", f"b/s @{rev1}", f"b/s @{rev2}", "delta"),
        float_fmt=".4g",
    )


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def regress_report(
    entries: List[Dict[str, Any]],
    threshold_pct: float = 10.0,
    baseline_window: int = 5,
    bench: Optional[str] = None,
):
    """The regression gate: newest run vs the median of its history.

    For every bench with at least two ledger rows, compare the latest
    ``branches_per_sec`` against the median of the previous
    ``baseline_window`` rows (a robust baseline — one slow CI machine
    does not poison it). A drop of more than ``threshold_pct`` percent
    is an ``error`` finding (exit 1 through the standard
    ``CheckReport`` machinery); everything else is an ``info`` row so
    the gate's output always shows what it measured.
    """
    from repro.check.findings import CheckReport, Finding
    from repro.errors import ReproError

    if threshold_pct <= 0:
        raise ReproError(
            f"regression threshold must be positive, got {threshold_pct!r}"
        )
    if baseline_window < 1:
        raise ReproError(
            f"baseline window must be >= 1, got {baseline_window!r}"
        )
    findings: List[Finding] = []
    grouped = _by_bench(entries, bench)
    if not grouped:
        findings.append(
            Finding(
                check="obs.regress-empty",
                severity="info",
                why="ledger has no matching rows; nothing to gate",
            )
        )
    for name, runs in sorted(grouped.items()):
        latest = runs[-1]
        history = runs[:-1][-baseline_window:]
        current = float(latest.get("branches_per_sec") or 0.0)
        if not history:
            findings.append(
                Finding(
                    check="obs.regress-baseline",
                    severity="info",
                    why=(
                        f"only one run on record "
                        f"({current:.4g} branches/s); no baseline yet"
                    ),
                    point=name,
                )
            )
            continue
        baseline = _median(
            [float(e.get("branches_per_sec") or 0.0) for e in history]
        )
        if baseline <= 0:
            findings.append(
                Finding(
                    check="obs.regress-baseline",
                    severity="warning",
                    why="baseline throughput is zero; cannot gate",
                    point=name,
                )
            )
            continue
        delta_pct = 100.0 * (current - baseline) / baseline
        data = {
            "current": current,
            "baseline": baseline,
            "window": len(history),
            "delta_pct": delta_pct,
        }
        if delta_pct < -threshold_pct:
            findings.append(
                Finding(
                    check="obs.regression",
                    severity="error",
                    why=(
                        f"throughput regressed {-delta_pct:.1f}% "
                        f"(> {threshold_pct:g}% threshold): "
                        f"{current:.4g} vs median {baseline:.4g} "
                        f"branches/s over {len(history)} run(s)"
                    ),
                    point=name,
                    data=data,
                )
            )
        else:
            findings.append(
                Finding(
                    check="obs.regress-ok",
                    severity="info",
                    why=(
                        f"{current:.4g} branches/s, "
                        f"{delta_pct:+.1f}% vs median of "
                        f"{len(history)} run(s)"
                    ),
                    point=name,
                    data=data,
                )
            )
    report = CheckReport()
    report.extend("obs.regress", findings)
    return report
