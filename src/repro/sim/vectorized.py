"""Vectorized simulation engines.

Every engine here follows the same two-phase plan:

1. compute the *counter index* each dynamic branch accesses (possible
   up front because every row-selection box in the paper is a function
   of the outcome/target stream and the PC stream, never of predictor
   state). Each box is a table of shift registers picked by a key: one
   register for global history and Nair's path register, one per
   branch for PAg/PAs/PAp, one per set for SAg/SAs. One sequential
   loop, :func:`run_history`, runs all of them (in C, or its Python
   twin without a compiler); the index arithmetic around it is numpy;
2. hand the ``(index, outcome)`` stream to the counter kernel
   (:func:`repro.sim.fsm_scan.segmented_counter_predictions`), one
   sequential C pass (its Python twin without a compiler), to obtain
   the per-access predictions.

The per-address engines additionally need the first-level table's
hit/miss stream. That LRU is genuinely stateful, so it runs in the same
C library (:mod:`repro.sim.native`), or, without a compiler, through
the scalar :class:`repro.predictors.bht.BranchHistoryTable` the
reference engine uses. It depends only on (trace, entries, assoc), not
on the second-level shape, so one pass is shared by an entire Figure-10
surface: the miss stream, like the dense PC ids, is cached on the trace
object and dies with it.

Equivalence with the scalar reference engine is asserted
prediction-by-prediction in ``tests/test_sim_equivalence.py``.
"""

from __future__ import annotations

import weakref
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, TraceError
from repro.obs.metrics import counter
from repro.obs.spans import span
from repro.predictors.bht import (
    BranchHistoryTable,
    check_bht_geometry,
    drive_history,
    reset_history,
)
from repro.predictors.counters import (
    counter_init_state,
    counter_outputs,
    counter_transitions,
)
from repro.predictors.specs import (
    PredictorSpec,
    bht_set_index,
    counter_index,
    word_index,
)
from repro.sim.fsm_scan import (
    _as_indices,
    _check_table,
    run_automaton,
    segmented_counter_predictions,
)
from repro.sim.results import SimulationResult
from repro.traces.trace import BranchTrace

#: Schemes with a vectorized engine. "bimode" is reference-only: its
#: choice-table update reads the direction bank's prediction, coupling
#: the two tables' state chains.
VECTORIZED_SCHEMES: Tuple[str, ...] = (
    "static",
    "bimodal",
    "gag",
    "gas",
    "gap",
    "gshare",
    "path",
    "pag",
    "pas",
    "pap",
    "sag",
    "sas",
    "agree",
    "gskew",
    "tournament",
)


def has_vectorized_engine(spec: PredictorSpec) -> bool:
    """True when ``simulate_vectorized`` supports ``spec``."""
    if spec.scheme == "tournament":
        return (
            spec.component_a.scheme in VECTORIZED_SCHEMES
            and spec.component_a.scheme != "tournament"
            and spec.component_b.scheme in VECTORIZED_SCHEMES
            and spec.component_b.scheme != "tournament"
        )
    return spec.scheme in VECTORIZED_SCHEMES


# ----------------------------------------------------------------------
# Row-selection streams: one keyed shift-register loop
# ----------------------------------------------------------------------


def run_history(
    chunk: np.ndarray,
    shift: int,
    bits: int,
    regs: np.ndarray,
    key: Optional[np.ndarray] = None,
    reset_at: Optional[np.ndarray] = None,
    reset: int = 0,
) -> np.ndarray:
    """Values of a table of ``bits``-wide shift registers at each access.

    Access t takes register ``regs[key[t]]`` (``regs[0]`` without a
    key), sets it to ``reset`` where ``reset_at[t]`` holds, reports it,
    then shifts in ``chunk[t]`` (an outcome bit, or a ``shift``-bit
    target chunk). ``regs`` (uint64) is updated in place, so a stream
    run in two pieces equals one run. Returns the int64 values.

    Every bound the C loop trusts is checked first, as in
    :func:`repro.sim.fsm_scan.run_automaton`; without a compiler the
    loop runs in Python (:func:`repro.predictors.bht.drive_history`).
    """
    chunk = np.ascontiguousarray(chunk)
    if chunk.dtype == bool:
        chunk = chunk.view(np.uint8)
    n = len(chunk)
    if chunk.ndim != 1 or chunk.dtype != np.uint8:
        raise ConfigurationError("chunks must be a 1-D bool or uint8 array")
    if not (0 < shift < 64 and 0 <= bits < 64):
        raise ConfigurationError(f"bad shift {shift} or width {bits}")
    register_mask = (1 << bits) - 1
    if n and int(chunk.max()) >> shift or not 0 <= reset <= register_mask:
        raise ConfigurationError("a chunk or the reset value is too wide")
    _check_table(regs, np.uint64, "regs")
    if key is not None:
        key = _as_indices(key, "register keys")
    if reset_at is not None:
        reset_at = np.ascontiguousarray(reset_at)
        if reset_at.dtype != bool:
            raise ConfigurationError("reset_at must be a bool array")
        reset_at = reset_at.view(np.uint8)
    for column in (key, reset_at):
        if column is not None and column.shape != chunk.shape:
            raise ConfigurationError("key, reset_at and chunk lengths differ")
    if n and (int(key.max()) if key is not None else 0) >= len(regs):
        raise ConfigurationError(f"a key falls outside {len(regs)} registers")

    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    from repro.sim import native  # first use only, as in fsm_scan

    lib = native.library()
    if lib is None:
        drive_history(
            key, reset_at, chunk, shift, register_mask, reset, regs, out
        )
        return out
    lib.repro_history(
        None if key is None else key.ctypes.data,
        None if reset_at is None else reset_at.ctypes.data,
        chunk.ctypes.data, n, shift, register_mask, reset,
        regs.ctypes.data, out.ctypes.data,
    )
    counter("sim.native_calls").inc()
    return out


def global_history(taken: np.ndarray, bits: int) -> np.ndarray:
    """The global register at each access: the outcomes of the last
    ``bits`` branches, newest in bit 0, zero before the first."""
    return run_history(taken, 1, bits, np.zeros(1, dtype=np.uint64))


def _first_level_history(
    spec: PredictorSpec, trace: BranchTrace, words: np.ndarray
) -> np.ndarray:
    """Per-address (PAg/PAs/PAp) or per-set (SAg/SAs) histories.

    One register per branch, or per set of the untagged per-set table
    (colliding branches interleave). Each starts at the 0xC3FF prefix;
    a branch's miss in a finite tagged table resets its register to it
    (the first-level pollution model of the paper's Figure 10).
    """
    bits = max(1, spec.history_bits)
    initial = reset_history(bits)
    miss = None
    if spec.scheme in ("sag", "sas"):
        key = bht_set_index(spec, words)
    elif spec.scheme in ("pag", "pas") and spec.bht_entries is not None:
        # A tagged table holds one entry per word (``pc >> 2``), as
        # BranchHistoryTable does: PCs in one word share a register.
        key = pc_ids(trace, per_word=True)
        miss = bht_miss_stream(trace, spec.bht_entries, spec.bht_assoc)
    else:
        key = pc_ids(trace)
    regs = np.full(int(key.max(initial=-1)) + 1, initial, dtype=np.uint64)
    return run_history(
        trace.taken, 1, bits, regs, key=key, reset_at=miss, reset=initial
    )


# ----------------------------------------------------------------------
# Per-trace arrays: dense PC ids and the first-level BHT (cached)
# ----------------------------------------------------------------------

#: trace -> {"pc_ids"/"word_ids": dense ids, (entries, assoc): miss
#: stream}. Keyed by the trace object (traces are immutable by
#: convention), so a lookup hashes nothing and the entries die with
#: their trace.
_TRACE_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def pc_ids(trace: BranchTrace, per_word: bool = False) -> np.ndarray:
    """Dense int64 id of each access's PC, in PC order from 0: the
    per-address register keys and the gap/pap columns. ``per_word``
    numbers words (``pc >> 2``) instead, the entries of a tagged
    first-level table; on word-aligned PCs both numberings agree."""
    name = "word_ids" if per_word else "pc_ids"
    derived = _TRACE_CACHE.setdefault(trace, {})
    if name not in derived:
        values = word_index(trace.pc) if per_word else trace.pc
        ids = np.unique(values, return_inverse=True)[1]
        derived[name] = ids.astype(np.int64, copy=False)
    return derived[name]


def bht_miss_stream(
    trace: BranchTrace, entries: int, assoc: int
) -> np.ndarray:
    """Hit/miss stream of a tagged set-associative LRU history table.

    Semantically identical to driving
    :class:`repro.predictors.bht.BranchHistoryTable.lookup` per access.
    Independent of history length and of the second-level shape, so the
    result is cached per trace object: a whole PAs surface shares one
    pass.
    """
    check_bht_geometry(entries, assoc)
    derived = _TRACE_CACHE.setdefault(trace, {})
    cached = derived.get((entries, assoc))
    if cached is not None:
        return cached

    from repro.sim import native  # first use only, as in fsm_scan

    lib = native.library()
    if lib is None:
        table = BranchHistoryTable(entries, assoc, history_bits=1)
        miss = table.miss_stream(trace.pc.tolist())
    else:
        num_sets = entries // assoc
        pc = np.ascontiguousarray(trace.pc, dtype=np.uint64)
        ways = np.zeros(entries, dtype=np.uint64)
        fill = np.zeros(num_sets, dtype=np.int64)
        miss = np.empty(len(pc), dtype=bool)
        lib.repro_lru(
            pc.ctypes.data, len(pc), num_sets, assoc,
            ways.ctypes.data, fill.ctypes.data, miss.ctypes.data,
        )
        counter("sim.native_calls").inc()

    derived[(entries, assoc)] = miss
    return miss


# ----------------------------------------------------------------------
# Counter-index streams per scheme
# ----------------------------------------------------------------------


def index_stream(spec: PredictorSpec, trace: BranchTrace) -> np.ndarray:
    """The second-level counter index each access selects.

    Shared by the simulation engines and by the aliasing
    instrumentation (:mod:`repro.aliasing`), which counts conflicts on
    exactly this stream. The flat-index arithmetic itself lives in the
    spec layer (:func:`repro.predictors.specs.counter_index`) so the
    static checker proves bounds on the same formula the engines run.
    """
    with span("index_stream"):
        return _index_stream(spec, trace)


def _index_stream(spec: PredictorSpec, trace: BranchTrace) -> np.ndarray:
    scheme = spec.scheme
    words = word_index(trace.pc)
    if scheme == "bimodal":
        return counter_index(spec, 0, words)
    if scheme in ("gag", "gas", "gap", "gshare", "agree"):
        rows = global_history(trace.taken, spec.history_bits)
    elif scheme == "path":
        # Nair's register records where control went: the target when
        # taken, the fall-through otherwise.
        went = np.where(trace.taken, trace.target, trace.pc + np.uint64(4))
        shift = spec.path_bits_per_branch
        chunk = (word_index(went) & ((1 << shift) - 1)).astype(np.uint8)
        regs = np.zeros(1, dtype=np.uint64)
        rows = run_history(chunk, shift, spec.history_bits, regs)
    elif scheme in ("pag", "pas", "pap", "sag", "sas"):
        rows = _first_level_history(spec, trace, words)
    else:
        raise ConfigurationError(
            f"no index stream for scheme {spec.scheme!r}"
        )
    if scheme in ("gap", "pap"):
        rows &= spec.rows - 1
        return pc_ids(trace) * spec.rows + rows
    if scheme == "gshare":
        rows ^= words >> spec.column_bits
    elif scheme == "agree":
        # cols == 1 for agree, so the row-major flat index reduces to
        # the hashed row itself.
        rows ^= words
    return counter_index(spec, rows, words)


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------


def simulate_vectorized(
    spec: PredictorSpec, trace: BranchTrace
) -> SimulationResult:
    """Vectorized simulation; exact match with the reference engine."""
    if len(trace) == 0:
        raise TraceError("cannot simulate an empty trace")
    if not has_vectorized_engine(spec):
        raise ConfigurationError(
            f"no vectorized engine for scheme {spec.scheme!r}; use the "
            "reference engine"
        )
    scheme = spec.scheme
    own_engine = {
        "static": _static_predictions,
        "agree": _agree_predictions,
        "gskew": _gskew_predictions,
        "tournament": _tournament_predictions,
    }.get(scheme)
    miss_rate = None
    if own_engine is not None:
        predictions = own_engine(spec, trace)
    else:
        indices = index_stream(spec, trace)
        predictions = segmented_counter_predictions(
            indices, trace.taken, counter_bits=spec.counter_bits
        )
        if scheme in ("pag", "pas") and spec.bht_entries is not None:
            miss = bht_miss_stream(trace, spec.bht_entries, spec.bht_assoc)
            miss_rate = float(np.count_nonzero(miss)) / len(trace)
        elif scheme in ("pag", "pas", "pap"):
            miss_rate = 0.0
    return SimulationResult(
        spec=spec,
        trace_name=trace.name,
        predictions=predictions,
        taken=trace.taken.copy(),
        first_level_miss_rate=miss_rate,
        engine="vectorized",
    )


def _static_predictions(
    spec: PredictorSpec, trace: BranchTrace
) -> np.ndarray:
    if spec.static_policy == "taken":
        return np.ones(len(trace), dtype=bool)
    if spec.static_policy == "not_taken":
        return np.zeros(len(trace), dtype=bool)
    return trace.target < trace.pc  # btfn


def _agree_predictions(
    spec: PredictorSpec, trace: BranchTrace
) -> np.ndarray:
    """Agree predictor: counters track agreement with per-entry bias.

    The bias entry is set by the first access that maps to it; the
    counter stream is then the *agreement* stream, scanned as usual.
    """
    bias_entries = 4096  # matches AgreePredictor's default
    words = word_index(trace.pc)
    bias_index = words & (bias_entries - 1)
    _, first_occurrence = np.unique(bias_index, return_index=True)
    bias_value = np.zeros(bias_entries, dtype=bool)
    bias_value[bias_index[first_occurrence]] = trace.taken[first_occurrence]
    bias = bias_value[bias_index]

    # The counter stream agrees with the *stored* bias, which from the
    # first update onward is the entry's first observed outcome.
    agreed = trace.taken == bias
    indices = index_stream(spec, trace)
    agree_prediction = segmented_counter_predictions(
        indices, agreed, counter_bits=spec.counter_bits
    )
    # At an entry's first access the bias bit has not been written yet,
    # so prediction uses the power-on default (taken) — mirror that.
    first_access = np.zeros(len(trace), dtype=bool)
    first_access[first_occurrence] = True
    bias_at_predict = np.where(first_access, True, bias)
    return np.where(agree_prediction, bias_at_predict, ~bias_at_predict)


def _gskew_predictions(
    spec: PredictorSpec, trace: BranchTrace
) -> np.ndarray:
    """Majority vote over three independently-scanned banks.

    All banks use the total-update policy (train on every outcome), so
    each bank is an independent counter table over its own hash.
    """
    from repro.utils.bits import fold_xor

    row_bits = spec.history_bits
    bits = max(row_bits, 1)
    row_mask = spec.rows - 1
    words = word_index(trace.pc)
    history = global_history(trace.taken, row_bits)

    base = (history ^ words) & row_mask
    skew1 = (
        fold_xor(words, 2 * bits, bits)
        ^ ((history >> 1) | (history << (bits - 1)))
    ) & row_mask
    skew2 = (
        fold_xor(history ^ (words >> 1), 2 * bits, bits) ^ words >> bits
    ) & row_mask
    # The scalar GskewPredictor computes the same three hashes; keeping
    # the expressions in sync is asserted by the equivalence tests.

    votes = np.zeros(len(trace), dtype=np.int8)
    for bank_rows in (base, skew1, skew2):
        votes += segmented_counter_predictions(
            bank_rows, trace.taken, counter_bits=spec.counter_bits
        )
    return votes >= 2


def _tournament_predictions(
    spec: PredictorSpec, trace: BranchTrace
) -> np.ndarray:
    """Chooser-combined components, each simulated vectorized.

    The chooser is a 4-input automaton over (a_correct, b_correct)
    pairs: it moves toward the component that was exclusively correct
    and holds otherwise — scanned exactly like a counter table.
    """
    pred_a = simulate_vectorized(spec.component_a, trace).predictions
    pred_b = simulate_vectorized(spec.component_b, trace).predictions
    a_correct = pred_a == trace.taken
    b_correct = pred_b == trace.taken

    nbits = spec.counter_bits
    decrement, increment = counter_transitions(nbits)
    identity = np.arange(len(decrement), dtype=np.uint8)
    # Input encoding: a_correct + 2*b_correct.
    transitions = np.stack([identity, decrement, increment, identity])

    words = word_index(trace.pc)
    chooser_index = words & (spec.chooser_rows - 1)
    inputs = a_correct.astype(np.uint8) + 2 * b_correct.astype(np.uint8)

    chooser_state = np.full(
        spec.chooser_rows, counter_init_state(nbits), dtype=np.uint8
    )
    states_before = run_automaton(
        transitions, inputs, chooser_index, chooser_state
    )
    use_b = counter_outputs(nbits)[states_before]
    return np.where(use_b, pred_b, pred_a)
