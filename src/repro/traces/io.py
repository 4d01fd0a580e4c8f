"""Trace persistence.

Two formats, chosen by extension:

* ``.npz`` (default) — compressed numpy archive with the three arrays
  plus name and instruction count; exact round-trip.
* ``.txt`` — one branch per line, ``0xPC TAKEN 0xTARGET`` with taken
  as ``0``/``1``; human-greppable, drops the name.

Saves are atomic: the file is written to a ``.tmp`` sibling and
renamed into place, so a crash mid-save leaves any previous archive
untouched and no temp debris.
"""

from __future__ import annotations

import os
from typing import List, Union

import numpy as np

from repro.errors import TraceError
from repro.traces.trace import BranchTrace

PathLike = Union[str, "os.PathLike[str]"]


def _resolve_path(path: PathLike) -> str:
    """Normalize to str, defaulting extension-less paths to ``.npz``."""
    text = os.fspath(path)
    root, ext = os.path.splitext(text)
    if not ext:
        return text + ".npz"
    return text


def _write_npz(trace: BranchTrace, path: str) -> None:
    instruction_count = (
        -1 if trace.instruction_count is None else trace.instruction_count
    )
    with open(path, "wb") as handle:
        np.savez_compressed(
            handle,
            pc=trace.pc,
            taken=trace.taken,
            target=trace.target,
            name=np.array(trace.name),
            instruction_count=np.array(instruction_count, dtype=np.int64),
        )


def _write_text(trace: BranchTrace, path: str) -> None:
    lines = [
        f"0x{int(pc):x} {int(taken)} 0x{int(target):x}"
        for pc, taken, target in zip(trace.pc, trace.taken, trace.target)
    ]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
        if lines:
            handle.write("\n")


def save_trace(trace: BranchTrace, path: PathLike) -> str:
    """Write ``trace`` to ``path`` atomically; returns the real path.

    A path without an extension gains ``.npz``; the returned string is
    always the file actually written, so it can be handed straight to
    :func:`load_trace`.
    """
    final = _resolve_path(path)
    tmp = final + ".tmp"
    try:
        if final.endswith(".txt"):
            _write_text(trace, tmp)
        else:
            _write_npz(trace, tmp)
        os.replace(tmp, final)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return final


def _load_npz(path: str) -> BranchTrace:
    with np.load(path, allow_pickle=False) as archive:
        try:
            pc = archive["pc"]
            taken = archive["taken"]
            target = archive["target"]
        except KeyError as exc:
            raise TraceError(
                f"trace archive {path!r} is missing array {exc}"
            ) from exc
        if not (len(pc) == len(taken) == len(target)):
            raise TraceError(
                f"trace archive {path!r} has mismatched array lengths"
            )
        name = str(archive["name"]) if "name" in archive else "trace"
        instruction_count = None
        if "instruction_count" in archive:
            raw = int(archive["instruction_count"])
            instruction_count = None if raw < 0 else raw
    return BranchTrace(
        pc=pc,
        taken=taken,
        target=target,
        name=name,
        instruction_count=instruction_count,
    )


def _load_text(path: str) -> BranchTrace:
    pcs: List[int] = []
    taken: List[bool] = []
    targets: List[int] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 3:
                raise TraceError(
                    f"{path}:{lineno}: expected 'pc taken target', "
                    f"got {line!r}"
                )
            try:
                pcs.append(int(fields[0], 0))
                flag = int(fields[1], 0)
                targets.append(int(fields[2], 0))
            except ValueError as exc:
                raise TraceError(
                    f"{path}:{lineno}: bad number in {line!r}"
                ) from exc
            if flag not in (0, 1):
                raise TraceError(
                    f"{path}:{lineno}: taken flag must be 0 or 1, "
                    f"got {flag}"
                )
            taken.append(bool(flag))
    name = os.path.splitext(os.path.basename(path))[0]
    return BranchTrace(
        pc=np.array(pcs, dtype=np.uint64),
        taken=np.array(taken, dtype=bool),
        target=np.array(targets, dtype=np.uint64),
        name=name,
    )


def load_trace(path: PathLike) -> BranchTrace:
    """Read a trace saved by :func:`save_trace` (either format)."""
    from repro.obs.spans import span

    text = os.fspath(path)
    if not os.path.exists(text):
        raise TraceError(f"no trace file at {text!r}")
    with span("trace_decode"):
        if text.endswith(".txt"):
            return _load_text(text)
        try:
            return _load_npz(text)
        except (OSError, ValueError) as exc:
            raise TraceError(
                f"cannot read trace archive {text!r}: {exc}"
            ) from exc
