"""Low-overhead runtime branch-outcome recorder.

:class:`BranchProfiler` instruments a set of Python callables and
records the outcome of every *conditional* branch they execute, in
execution order, across all instrumented code objects at once — the
interleaved stream a hardware predictor would see. Two recording
backends sit behind one interface:

* on CPython 3.12+ the ``sys.monitoring`` BRANCH event (PEP 669)
  delivers ``(code, branch offset, destination offset)`` callbacks with
  near-zero overhead for uninstrumented code;
* below 3.12 a ``sys.settrace`` opcode tracer reconstructs the same
  stream: when an opcode event lands on a known branch site, the *next*
  opcode event in that frame reveals which successor executed.

Both backends resolve the observed destination against the statically
extracted CFG (:func:`repro.cfg.bytecode.extract_cfg`): an event whose
destination block is not a static successor of the branch is recorded
as a *violation* (the CFG-soundness tests assert there are none), and
an event at an offset with no static site is counted as *unknown*.

The recorded stream becomes a real :class:`~repro.traces.trace
.BranchTrace` via :meth:`BranchProfiler.build_trace`: each static site
gets a synthetic word-aligned address laid out from the static CFG
(per-function text regions, ordinal-ordered sites, loop-closing
branches targeting their function base), so the measured program drives
the same simulate/sweep/figure pipeline as the synthetic workloads.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from types import CodeType, FrameType
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.cfg.bytecode import (
    BranchSite,
    ControlFlowGraph,
    extract_cfg,
    get_monitoring,
    iter_code_objects,
)
from repro.errors import AnalysisError
from repro.obs.metrics import counter
from repro.obs.spans import span
from repro.traces.trace import INSTRUCTION_BYTES, BranchTrace

#: Base of the synthetic text segment profiled functions are laid out
#: in (mirrors the synthetic layout's user text base).
TEXT_BASE = 0x0040_0000

#: Words between consecutive branch sites in the synthetic layout.
SITE_GAP_WORDS = 3

#: Words of padding between consecutive functions' text regions.
FUNCTION_GAP_WORDS = 16


@dataclass(frozen=True)
class BranchEvent:
    """One dynamic conditional-branch execution."""

    code_slot: int  # index into the profiler's code list
    ordinal: int  # BranchSite ordinal within that code object
    taken: bool


@dataclass(frozen=True)
class EdgeViolation:
    """A runtime destination the static CFG has no edge for."""

    qualname: str
    offset: int
    destination: int


def _resolve_outcome(
    cfg: ControlFlowGraph, site: BranchSite, destination: int
) -> Optional[bool]:
    """Map an observed destination offset to taken/not-taken.

    Exact offsets are preferred; otherwise the destination is matched
    at block granularity (interpreters may report a landing offset a
    few instructions into the successor block, e.g. past ``END_FOR``).
    Returns None when the destination lies in neither successor block —
    a CFG soundness violation the caller records.
    """
    if destination == site.fallthrough:
        return False
    if destination == site.taken_target:
        return True
    try:
        dest_block = cfg.block_at(destination).index
    except AnalysisError:
        return None
    taken_block = cfg.block_at(site.taken_target).index
    fall_block: Optional[int] = None
    try:
        fall_block = cfg.block_at(site.fallthrough).index
    except AnalysisError:
        pass
    if dest_block == taken_block:
        return True
    if fall_block is not None and dest_block == fall_block:
        return False
    return None


class BranchProfiler:
    """Record conditional-branch outcomes of instrumented callables.

    Use as a context manager around the code to measure::

        profiler = BranchProfiler([quicksort])
        with profiler:
            quicksort(values)
        trace = profiler.build_trace("measured")

    ``functions`` are plain Python callables; each contributes its code
    object plus (by default) every nested code object — closures,
    comprehensions on interpreters that compile them separately. Code
    objects without conditional branches are extracted (their blocks
    and edges still count toward the CFG metrics) but not instrumented.
    """

    def __init__(
        self,
        functions: Sequence[Callable],
        include_nested: bool = True,
    ) -> None:
        codes: List[CodeType] = []
        seen: Set[int] = set()
        for func in functions:
            code = getattr(func, "__code__", None)
            if code is None:
                raise AnalysisError(
                    f"{func!r} is not a pure-Python callable; only "
                    "functions with bytecode can be profiled"
                )
            children = (
                iter_code_objects(code) if include_nested else (code,)
            )
            for child in children:
                if id(child) not in seen:
                    seen.add(id(child))
                    codes.append(child)
        if not codes:
            raise AnalysisError("no code objects to profile")
        self.codes: Tuple[CodeType, ...] = tuple(codes)
        self.cfgs: Tuple[ControlFlowGraph, ...] = tuple(
            extract_cfg(code) for code in codes
        )
        counter("analyze.functions").inc(len(self.cfgs))
        counter("analyze.cfg.blocks").inc(
            sum(cfg.num_blocks for cfg in self.cfgs)
        )
        counter("analyze.cfg.edges").inc(
            sum(cfg.num_edges for cfg in self.cfgs)
        )
        self._slot_of: Dict[CodeType, int] = {
            code: slot for slot, code in enumerate(codes)
        }
        self._sites: Tuple[Dict[int, BranchSite], ...] = tuple(
            {site.offset: site for site in cfg.branch_sites}
            for cfg in self.cfgs
        )
        self.events: List[BranchEvent] = []
        self.violations: List[EdgeViolation] = []
        self.unknown_sites: int = 0
        self._active = False
        # settrace backend state
        self._prior_trace: Optional[Callable] = None
        self._pending: Dict[int, Tuple[int, BranchSite]] = {}
        # monitoring backend state
        self._monitoring = get_monitoring()
        self._tool_id: Optional[int] = None

    # -- event recording ----------------------------------------------

    def _record(self, slot: int, site: BranchSite, destination: int) -> None:
        taken = _resolve_outcome(self.cfgs[slot], site, destination)
        if taken is None:
            self.violations.append(
                EdgeViolation(
                    qualname=self.cfgs[slot].qualname,
                    offset=site.offset,
                    destination=destination,
                )
            )
            return
        self.events.append(BranchEvent(slot, site.ordinal, taken))

    # -- sys.monitoring backend (3.12+) -------------------------------

    def _on_branch(
        self, code: CodeType, offset: int, destination: int
    ) -> None:
        slot = self._slot_of.get(code)
        if slot is None:  # pragma: no cover - local events only
            return
        site = self._sites[slot].get(offset)
        if site is None:
            self.unknown_sites += 1
            return
        self._record(slot, site, destination)

    def _enter_monitoring(self) -> None:
        monitoring = self._monitoring
        assert monitoring is not None
        tool_id = None
        for candidate in range(6):
            if monitoring.get_tool(candidate) is None:
                tool_id = candidate
                break
        if tool_id is None:  # pragma: no cover - all tool slots busy
            raise AnalysisError(
                "no free sys.monitoring tool id; another profiler owns "
                "all six slots"
            )
        monitoring.use_tool_id(tool_id, "repro-cfg")
        monitoring.register_callback(
            tool_id, monitoring.events.BRANCH, self._on_branch
        )
        for slot, code in enumerate(self.codes):
            if self._sites[slot]:
                monitoring.set_local_events(
                    tool_id, code, monitoring.events.BRANCH
                )
        self._tool_id = tool_id

    def _exit_monitoring(self) -> None:
        monitoring = self._monitoring
        assert monitoring is not None and self._tool_id is not None
        for slot, code in enumerate(self.codes):
            if self._sites[slot]:
                monitoring.set_local_events(self._tool_id, code, 0)
        monitoring.register_callback(
            self._tool_id, monitoring.events.BRANCH, None
        )
        monitoring.free_tool_id(self._tool_id)
        self._tool_id = None

    # -- settrace backend (3.10/3.11) ---------------------------------

    def _global_trace(
        self, frame: FrameType, event: str, arg: object
    ) -> Optional[Callable]:
        if event == "call":
            slot = self._slot_of.get(frame.f_code)
            if slot is not None and self._sites[slot]:
                frame.f_trace_opcodes = True
                return self._local_trace
        return None

    def _local_trace(
        self, frame: FrameType, event: str, arg: object
    ) -> Optional[Callable]:
        key = id(frame)
        if event == "opcode":
            pending = self._pending.pop(key, None)
            offset = frame.f_lasti
            if pending is not None:
                slot, site = pending
                self._record(slot, site, offset)
            slot = self._slot_of[frame.f_code]
            site = self._sites[slot].get(offset)
            if site is not None:
                self._pending[key] = (slot, site)
        elif event in ("return", "exception"):
            # An exception teleports control; a pending branch whose
            # destination we never saw cannot be resolved.
            self._pending.pop(key, None)
        return self._local_trace

    def _enter_settrace(self) -> None:
        self._prior_trace = sys.gettrace()
        self._pending.clear()
        sys.settrace(self._global_trace)

    def _exit_settrace(self) -> None:
        sys.settrace(self._prior_trace)
        self._prior_trace = None
        self._pending.clear()

    # -- context manager ----------------------------------------------

    def __enter__(self) -> "BranchProfiler":
        if self._active:
            raise AnalysisError("profiler is already active")
        if self._monitoring is not None:
            self._enter_monitoring()
        else:
            self._enter_settrace()
        self._active = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._monitoring is not None:
            self._exit_monitoring()
        else:
            self._exit_settrace()
        self._active = False

    # -- results ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def observed_edges(self) -> Dict[int, Set[Tuple[int, bool]]]:
        """Per code slot: the set of (site ordinal, taken) observed."""
        table: Dict[int, Set[Tuple[int, bool]]] = {}
        for event in self.events:
            table.setdefault(event.code_slot, set()).add(
                (event.ordinal, event.taken)
            )
        return table

    def site_layout(self) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """``(code slot, ordinal) -> (pc, taken target)`` addresses.

        Each code object gets a contiguous region of synthetic text;
        sites sit ``SITE_GAP_WORDS`` apart in ordinal order. A site
        whose static taken edge points backwards targets its function
        base (a loop-closing shape); forward branches target a short
        skip, as compiled if/else code does.
        """
        layout: Dict[Tuple[int, int], Tuple[int, int]] = {}
        cursor = TEXT_BASE
        for slot, cfg in enumerate(self.cfgs):
            base = cursor
            for site in cfg.branch_sites:
                pc = base + (
                    site.ordinal * SITE_GAP_WORDS * INSTRUCTION_BYTES
                )
                if site.taken_target <= site.offset:
                    target = base
                else:
                    target = pc + 4 * INSTRUCTION_BYTES
                layout[(slot, site.ordinal)] = (pc, target)
            cursor = base + (
                (len(cfg.branch_sites) * SITE_GAP_WORDS + FUNCTION_GAP_WORDS)
                * INSTRUCTION_BYTES
            )
        return layout

    def build_trace(self, name: str = "profiled") -> BranchTrace:
        """The recorded stream as a simulable :class:`BranchTrace`."""
        if not self.events:
            raise AnalysisError(
                f"profiler recorded no branch events for {name!r}; "
                "was the instrumented code actually executed?"
            )
        layout = self.site_layout()
        n = len(self.events)
        pc = np.empty(n, dtype=np.uint64)
        taken = np.empty(n, dtype=bool)
        target = np.empty(n, dtype=np.uint64)
        for index, event in enumerate(self.events):
            address, jump_target = layout[(event.code_slot, event.ordinal)]
            pc[index] = address
            taken[index] = event.taken
            target[index] = jump_target
        counter("analyze.branches_profiled").inc(n)
        return BranchTrace(pc=pc, taken=taken, target=target, name=name)


def profile_calls(
    run: Callable[[], object],
    instrument: Sequence[Callable],
    name: str = "profiled",
) -> BranchTrace:
    """Run ``run()`` with ``instrument`` profiled; return the trace.

    The one-shot convenience wrapper: builds a profiler over the
    instrumented callables, executes the workload inside the
    ``analyze.profile`` span, which times it, and materializes the
    recorded stream as a named trace.
    """
    profiler = BranchProfiler(instrument)
    with span("analyze.profile"), profiler:
        run()
    return profiler.build_trace(name)
