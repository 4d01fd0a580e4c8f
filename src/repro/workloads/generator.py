"""Trace generation: walking a synthetic program.

The walk has two halves. A Python loop steps through routine
*invocations* (phase schedule, routine cycles, trip counts) and draws
each invocation's uniforms as one block; numpy then builds the branches
of a whole batch of invocations at once from :class:`WalkTables`, the
program as arrays. Generation cost is therefore a few random calls per
invocation plus a fixed number of numpy passes per batch of ~8k
(invocation, iteration, slot) cells.

Emission order within an invocation is iteration-major: for each loop
iteration, the included body branches fire in body order, then the
back-edge fires (taken, except on the final iteration). This ordering is
what gives global-history predictors something to correlate on — the
outcome of a source branch sits a few slots back in the history register
when its dependent branch is predicted.

Random numbers are consumed in a fixed order per invocation: the trip
coin, the geometric trip count when the coin says so, then one block of
uniforms. Within the block each body slot owns, in body order, its
behaviour's draws (``trips`` for a biased branch and for a correlated
branch with noise, none otherwise) followed by its guard's draws (one
for a prefix guard, ``trips`` for a random guard, none when the branch
always runs). A length-L trace is therefore a prefix of every longer
trace from the same program and seed.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, WorkloadError
from repro.traces.trace import BranchTrace
from repro.utils.rng import make_rng
from repro.workloads.behaviors import (
    BiasedBehavior,
    CorrelatedBehavior,
    LoopPositionBehavior,
    PatternBehavior,
)
from repro.workloads.program import Program

#: Trip counts are capped at this multiple of the routine mean so a
#: single geometric draw cannot blow up one invocation block.
_TRIP_CAP_FACTOR = 8

#: Probability an invocation runs the routine's characteristic (fixed)
#: trip count instead of a geometric draw; see
#: :class:`repro.workloads.program.Routine`.
_FIXED_TRIP_PROB = 0.75

#: Routine invocations within a phase repeat a fixed cycle of this many
#: entries (drawn per phase residence). Real programs call the same
#: function sequence over and over; this repetition is what makes
#: global-history patterns recur and therefore be learnable.
_CYCLE_RANGE = (4, 12)

#: Each cycle is repeated this many times before a fresh cycle is drawn.
_CYCLE_REPEATS = (3, 9)

#: A batch closes once its invocations span this many (iteration, slot)
#: cells: enough to amortise the per-batch numpy calls, few enough that
#: the per-cell temporaries stay small.
_BATCH_CELLS = 8_192


class _Row(NamedTuple):
    """One static branch as :class:`WalkTables` stores it; the defaults
    are a branch that never draws, never cuts and always runs."""

    pc: int
    target: int
    invert: bool = False
    threshold: float = 0.0
    draw_a: int = 0
    draw_b: int = 0
    draw_step: int = 0
    fraction: float = 0.0
    cut_offset: int = 0
    pattern_start: int = 0
    pattern_period: int = 1
    depth: int = 0
    source_delta: int = 0
    inclusion: float = 1.0
    guard_random: bool = False
    guard_a: int = 0
    guard_b: int = 0


#: Column dtypes of :class:`WalkTables`; every other column is int32.
_DTYPES = {
    "pc": np.uint64,
    "target": np.uint64,
    "invert": np.bool_,
    "threshold": np.float64,
    "fraction": np.float64,
    "inclusion": np.float64,
    "guard_random": np.bool_,
}
_TABLE = np.dtype([(name, _DTYPES.get(name, np.int32)) for name in _Row._fields])


class WalkTables:
    """A program as arrays, so numpy can build many invocations at once.

    One row per static branch, in routine order: each routine's body
    slots, then its back-edge. A row's outcome in iteration ``j`` of an
    invocation with ``trips`` iterations is ``invert`` XOR one of

    * ``U < threshold``, where ``U`` is the uniform at ``draw_a * trips +
      draw_b + draw_step * j`` in the invocation's block (a biased
      branch; for a correlated one, the noise flip, further XORed with
      its source's outcome in the same iteration, ``source_delta`` rows
      back);
    * ``j < ceil(fraction * trips) - cut_offset`` (a loop-position
      branch, or a back-edge with fraction 1 and offset 1);
    * the pattern bit at ``(iterations of earlier invocations of the
      routine + j) mod pattern_period`` (rows with a period above 1).

    Rows without a draw or cut get a zero threshold or fraction, so
    whatever uniform they read never matters. The guard's uniform sits
    at ``guard_a * trips + guard_b + guard_random * j``: a prefix guard
    runs the branch while ``j < floor(x) + (U < x - floor(x))`` for ``x =
    inclusion * trips``, a random guard while ``U < inclusion``.
    """

    def __init__(self, program: Program):
        routines = program.routines
        self.fixed_trips = [r.fixed_trips for r in routines]
        self.geometric_p = [1.0 / r.mean_trips for r in routines]
        self.trip_cap = [max(2, int(r.mean_trips * _TRIP_CAP_FACTOR)) for r in routines]
        #: Per routine: rows, and uniforms per invocation as
        #: ``per_trip * trips + once``.
        self.rows = [len(r.body) + 1 for r in routines]
        self.per_trip: List[int] = []
        self.once: List[int] = []

        table = np.empty(sum(self.rows), dtype=_TABLE)
        first = 0
        pattern_bits: List[bool] = []
        for routine in routines:
            per_trip = once = 0  # the routine's draws so far
            routine_rows: List[_Row] = []
            for slot, branch in enumerate(routine.body):
                behavior = branch.behavior
                p, flip, cut, start, period = 0.0, False, 0.0, 0, 1
                source = draws = 0
                if isinstance(behavior, BiasedBehavior):
                    p, draws = behavior.p_taken, 1
                elif isinstance(behavior, CorrelatedBehavior):
                    if behavior.source_slot >= slot:
                        raise ConfigurationError(
                            f"correlated branch references slot "
                            f"{behavior.source_slot}, which has no outcomes "
                            "yet; sources must precede their dependents in "
                            "the loop body"
                        )
                    source = slot - behavior.source_slot
                    p, flip = behavior.noise, behavior.invert
                    draws = int(behavior.noise > 0.0)
                elif isinstance(behavior, PatternBehavior):
                    start, period = len(pattern_bits), len(behavior.pattern)
                    pattern_bits.extend(behavior.pattern)
                elif isinstance(behavior, LoopPositionBehavior):
                    cut, flip = behavior.fraction, behavior.invert
                else:
                    raise WorkloadError(
                        f"no walk rule for behaviour {type(behavior).__name__}"
                    )
                depth = routine_rows[slot - source].depth + 1 if source else 0
                guarded = branch.inclusion < 1.0
                randomly = guarded and branch.inclusion_mode != "prefix"
                routine_rows.append(_Row(  # positional: keywords cost ~3 us a row
                    branch.pc, branch.taken_target, flip,
                    p, per_trip * draws, once * draws, draws,  # draw
                    cut, 0,  # loop-position cut
                    start, period,  # pattern
                    depth, source,  # correlation
                    min(1.0, branch.inclusion), randomly,  # guard
                    (per_trip + draws) * guarded, once * guarded,
                ))
                per_trip += draws + randomly
                once += guarded and not randomly
            # Back-edge: taken while j < ceil(1.0 * trips) - 1, always run.
            backedge = routine.backedge
            routine_rows.append(
                _Row(backedge.pc, backedge.taken_target, fraction=1.0, cut_offset=1)
            )
            table[first : first + len(routine_rows)] = routine_rows
            first += len(routine_rows)
            self.per_trip.append(per_trip)
            self.once.append(once)

        #: Column name -> one value per row.
        self.column: Dict[str, np.ndarray] = {
            name: np.ascontiguousarray(table[name]) for name in _Row._fields
        }
        self.pattern_bits = np.asarray(pattern_bits, dtype=bool)
        self.first_row = np.cumsum([0] + self.rows[:-1], dtype=np.int32)
        self.row_count = np.asarray(self.rows, dtype=np.int32)

    def emit(
        self,
        routines: List[int],
        trips: List[int],
        done: List[int],
        blocks: List[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Build (pc, taken, target) for a batch of invocations.

        Invocation ``i`` runs routine ``routines[i]`` for ``trips[i]``
        iterations with uniform block ``blocks[i]``; ``done[i]`` is the
        iterations that routine ran before it (its patterns' phase).
        """
        col = self.column
        routine = np.asarray(routines, dtype=np.int32)
        trip = np.asarray(trips, dtype=np.int32)
        rows = self.row_count[routine]
        cells = trip * rows
        sizes = np.fromiter(map(len, blocks), np.int32, len(blocks))
        # One spare uniform, so a row that draws nothing still indexes
        # inside the array when its invocation's block is empty.
        uniforms = np.concatenate(blocks + [np.zeros(1)])

        # Cells in iteration-major order: invocation, iteration j, slot.
        inv = np.repeat(np.arange(len(routine), dtype=np.int32), cells)
        k = np.arange(len(inv), dtype=np.int32) - (cells.cumsum(dtype=np.int32) - cells)[inv]
        rows_c = rows[inv]
        j = k // rows_c
        row = self.first_row[routine][inv] + k - j * rows_c
        del k, rows_c
        trip_c = trip[inv]
        base = (sizes.cumsum(dtype=np.int32) - sizes)[inv]

        at = base + col["draw_a"][row] * trip_c + col["draw_b"][row]
        at += col["draw_step"][row] * j
        taken = uniforms[at] < col["threshold"][row]
        taken |= j < np.ceil(col["fraction"][row] * trip_c) - col["cut_offset"][row]
        period = col["pattern_period"][row]
        patterned = np.flatnonzero(period > 1)
        phase = np.asarray(done, dtype=np.int64)[inv[patterned]] + j[patterned]
        phase %= period[patterned]
        taken[patterned] = self.pattern_bits[col["pattern_start"][row[patterned]] + phase]
        taken ^= col["invert"][row]
        del period, patterned, phase
        # Correlated cells, shallowest first, so each source is final
        # when its dependents read it.
        depth = col["depth"][row]
        for level in range(1, int(depth.max(initial=0)) + 1):
            dependent = np.flatnonzero(depth == level)
            source = dependent - col["source_delta"][row[dependent]]
            taken[dependent] ^= taken[source]
        del depth

        at = base + col["guard_a"][row] * trip_c + col["guard_b"][row]
        randomly = col["guard_random"][row]
        at += randomly * j
        guard = uniforms[at]
        del at, base, uniforms
        inclusion = col["inclusion"][row]
        exact = inclusion * trip_c
        whole = np.floor(exact)
        include = np.where(randomly, guard < inclusion, j < whole + (guard < exact - whole))
        row = row[include]
        return col["pc"][row], taken[include], col["target"][row]


def _invocations(
    program: Program, tables: WalkTables, rng: np.random.Generator
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Yield ``(routine, trips, uniforms)`` per invocation, forever."""
    phase_length = max(1, program.profile.phase_length)
    num_phases = len(program.phases)
    fixed_trips = tables.fixed_trips
    geometric_p = tables.geometric_p
    trip_cap = tables.trip_cap
    per_trip = tables.per_trip
    once = tables.once
    phase_index = int(rng.integers(0, num_phases))
    while True:
        members, probs = program.phases[phase_index]
        duration = max(1, int(rng.poisson(phase_length)))
        # A phase residence is a sequence of short routine cycles, each
        # repeated a few times before a new cycle is drawn. Cycles are
        # drawn by invocation weight, so long-run frequencies stay
        # calibrated; the repetition is what makes global-history
        # patterns recur locally while cold routines still get their
        # turns across cycles.
        blocks = []
        planned = 0
        while planned < duration:
            cycle_len = int(rng.integers(*_CYCLE_RANGE))
            repeats = int(rng.integers(*_CYCLE_REPEATS))
            cycle = rng.choice(members, size=cycle_len, p=probs)
            blocks.append(np.tile(cycle, repeats))
            planned += cycle_len * repeats
        for r in np.concatenate(blocks)[:duration].tolist():
            if rng.random() < _FIXED_TRIP_PROB:
                trips = fixed_trips[r]
            else:
                trips = min(int(rng.geometric(geometric_p[r])), trip_cap[r])
            yield r, trips, rng.random(per_trip[r] * trips + once[r])
        phase_index = int(rng.integers(0, num_phases))


def generate_trace(
    program: Program,
    length: int,
    seed: int = 0,
    name: Optional[str] = None,
) -> BranchTrace:
    """Generate ``length`` dynamic conditional branches from ``program``.

    ``seed`` selects the dynamic path (phase schedule, trip counts,
    stochastic outcomes) independently of the program-structure seed, so
    one program can produce many statistically independent traces.
    """
    if length < 1:
        raise WorkloadError(f"trace length must be >= 1, got {length}")
    name = name or program.name
    rng = make_rng(seed, f"walk:{program.name}:{program.seed}")
    tables = program.walk_tables
    if tables is None:
        tables = program.walk_tables = WalkTables(program)
    rows = tables.rows

    invocations = _invocations(program, tables, rng)
    trips_done = [0] * len(rows)  # per routine, for pattern phases
    chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    emitted = 0
    while emitted < length:
        routines: List[int] = []
        trips: List[int] = []
        done: List[int] = []
        blocks: List[np.ndarray] = []
        # A cell emits at most one branch, so a batch never needs more
        # cells than the branches still missing.
        limit = min(_BATCH_CELLS, length - emitted)
        cells = 0
        for r, t, block in invocations:
            routines.append(r)
            trips.append(t)
            done.append(trips_done[r])
            blocks.append(block)
            trips_done[r] += t
            cells += t * rows[r]
            if cells >= limit:
                break
        chunks.append(tables.emit(routines, trips, done, blocks))
        emitted += len(chunks[-1][0])

    pc, taken, target = (np.concatenate(parts)[:length] for parts in zip(*chunks))
    instruction_count = int(round(length / program.profile.branch_fraction))
    return BranchTrace(
        pc=pc,
        taken=taken,
        target=target,
        name=name,
        instruction_count=instruction_count,
    )
