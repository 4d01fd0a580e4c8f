"""Conflict detection on counter-index streams."""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.errors import TraceError
from repro.predictors.specs import PredictorSpec
from repro.sim.fsm_scan import segmented_counter_predictions
from repro.sim.results import TierPoint, TierSurface
from repro.sim.sweep import SWEEPABLE_SCHEMES, spec_for_point
from repro.sim.vectorized import index_stream
from repro.traces.trace import BranchTrace


def conflict_mask(indices: np.ndarray, pc: np.ndarray) -> np.ndarray:
    """Per-access conflict flags (time order).

    Access t conflicts when the previous access to the same counter
    came from a different branch — the paper's direct-mapped-cache
    analogy, computed with one stable sort: within the sorted-by-index
    stream, neighbours are consecutive accesses to one counter.
    """
    if len(indices) != len(pc):
        raise TraceError("indices and pc must have equal lengths")
    total = len(indices)
    conflicts = np.zeros(total, dtype=bool)
    if total < 2:
        return conflicts
    order = np.argsort(indices, kind="stable")
    sorted_idx = indices[order]
    sorted_pc = pc[order]
    hit_same_counter = sorted_idx[1:] == sorted_idx[:-1]
    from_other_branch = sorted_pc[1:] != sorted_pc[:-1]
    sorted_conflicts = np.zeros(total, dtype=bool)
    sorted_conflicts[1:] = hit_same_counter & from_other_branch
    conflicts[order] = sorted_conflicts
    return conflicts


def aliasing_rate(spec: PredictorSpec, trace: BranchTrace) -> float:
    """Fraction of accesses that conflict under ``spec``'s indexing.

    For an address-indexed table this equals the first-level conflict
    rate of an equally-sized direct-mapped history table (the identity
    the paper uses in section 5: "the conflict rates in a direct mapped
    first-level table are the same as the aliasing rates in an address
    indexed second-level table").
    """
    if len(trace) == 0:
        raise TraceError("cannot measure aliasing on an empty trace")
    indices = index_stream(spec, trace)
    return float(np.count_nonzero(conflict_mask(indices, trace.pc))) / len(
        trace
    )


def observed_alias_sets(
    spec: PredictorSpec, trace: BranchTrace
) -> List[Tuple[int, ...]]:
    """Groups of branch PCs observed conflicting with each other.

    Builds the transitive closure (union-find) over dynamic conflict
    pairs — consecutive accesses to one counter from distinct branches.
    This is the *observed* counterpart of the ahead-of-time partition
    :func:`repro.check.static_alias.alias_sets` computes; the static
    sets are provably a superset (tested exact on micro workloads).

    Returns sorted tuples of PCs, one per multi-branch group, sorted by
    first member.
    """
    if len(trace) == 0:
        raise TraceError("cannot observe aliasing on an empty trace")
    indices = index_stream(spec, trace)
    order = np.argsort(indices, kind="stable")
    sorted_idx = indices[order]
    sorted_pc = trace.pc[order]
    conflict = (sorted_idx[1:] == sorted_idx[:-1]) & (
        sorted_pc[1:] != sorted_pc[:-1]
    )

    parent: Dict[int, int] = {}

    def find(pc: int) -> int:
        root = pc
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[pc] != root:  # path compression
            parent[pc], pc = root, parent[pc]
        return root

    for position in np.flatnonzero(conflict):
        a = find(int(sorted_pc[position]))
        b = find(int(sorted_pc[position + 1]))
        if a != b:
            parent[max(a, b)] = min(a, b)

    groups: Dict[int, List[int]] = {}
    for pc in parent:
        groups.setdefault(find(pc), []).append(pc)
    return sorted(
        tuple(sorted(members)) for members in groups.values()
        if len(members) > 1
    )


def interference_free_predictions(
    spec: PredictorSpec, trace: BranchTrace
) -> np.ndarray:
    """Predictions of the counterfactual *dealiased* predictor.

    Every static branch gets a private copy of ``spec``'s second-level
    table while keeping the identical per-access row selection: the
    counter index is offset by ``branch_id * num_counters``, so two
    branches can never share a counter but each branch's history-driven
    row stream is untouched. The difference against the real table
    (:func:`dealias_delta`) is therefore *exactly* the misprediction
    cost of second-level aliasing.
    """
    if len(trace) == 0:
        raise TraceError("cannot simulate an empty trace")
    return _private_predictions(spec, trace, index_stream(spec, trace))


def _private_predictions(
    spec: PredictorSpec, trace: BranchTrace, indices: np.ndarray
) -> np.ndarray:
    """:func:`interference_free_predictions` over a computed stream."""
    _, branch_ids = np.unique(trace.pc, return_inverse=True)
    private = branch_ids.astype(np.int64) * spec.num_counters + indices
    return segmented_counter_predictions(
        private, trace.taken, counter_bits=spec.counter_bits
    )


def dealias_delta(spec: PredictorSpec, trace: BranchTrace) -> float:
    """Simulated misprediction-rate delta of removing all second-level
    aliasing (shared table minus private per-branch tables).

    This is the exact cost of aliasing the paper measures (sections
    4-5): both predictors run the same index stream, so the delta is
    what sharing counters across branches costs and nothing else.
    """
    if len(trace) == 0:
        raise TraceError("cannot simulate an empty trace")
    indices = index_stream(spec, trace)
    shared = segmented_counter_predictions(
        indices, trace.taken, counter_bits=spec.counter_bits
    )
    private = _private_predictions(spec, trace, indices)
    shared_rate = float(np.count_nonzero(shared != trace.taken))
    private_rate = float(np.count_nonzero(private != trace.taken))
    return (shared_rate - private_rate) / len(trace)


def sweep_aliasing(
    scheme: str,
    trace: BranchTrace,
    size_bits: Iterable[int],
    measure_misprediction: bool = False,
) -> TierSurface:
    """Aliasing-rate surface over the paper's tier grid (Figure 5).

    With ``measure_misprediction`` the points also carry misprediction
    rates (so best-in-tier markers can be drawn on the aliasing
    surface, as the paper does).
    """
    if scheme not in SWEEPABLE_SCHEMES:
        raise TraceError(f"sweeps cover {SWEEPABLE_SCHEMES}, not {scheme!r}")
    from repro.sim.engine import simulate  # local import: avoid cycle

    surface = TierSurface(scheme=scheme, trace_name=trace.name)
    for n in size_bits:
        for row_bits in range(n + 1):
            spec = spec_for_point(scheme, col_bits=n - row_bits,
                                  row_bits=row_bits)
            rate = aliasing_rate(spec, trace)
            mispredict = float("nan")
            if measure_misprediction:
                mispredict = simulate(spec, trace).misprediction_rate
            surface.add(
                n,
                TierPoint(
                    col_bits=n - row_bits,
                    row_bits=row_bits,
                    misprediction_rate=mispredict,
                    aliasing_rate=rate,
                ),
            )
    return surface
