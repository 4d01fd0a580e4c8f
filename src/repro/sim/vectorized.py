"""Vectorized simulation engines.

Every engine here follows the same two-phase plan:

1. compute, with numpy array operations only, the *counter index* each
   dynamic branch accesses (this is possible because every row-selection
   box in the paper is a function of the outcome/target stream and the
   PC stream, never of predictor state);
2. hand the ``(index, outcome)`` stream to the segmented automaton scan
   (:func:`repro.sim.fsm_scan.segmented_counter_predictions`) to obtain
   the per-access predictions.

The per-address engines additionally need the first-level table's
hit/miss stream; that is the one genuinely stateful component (LRU), so
it is simulated with a Python loop over accesses — but it only depends
on (trace, entries, assoc), not on the second-level shape, so one pass
is shared by an entire Figure-10 surface via a small cache.

Equivalence with the scalar reference engine is asserted
prediction-by-prediction in ``tests/test_sim_equivalence.py``.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, TraceError
from repro.obs.spans import span
from repro.predictors.bht import reset_history
from repro.predictors.counters import counter_init_state, counter_outputs
from repro.predictors.specs import (
    PredictorSpec,
    bht_set_index,
    counter_index,
    word_index,
)
from repro.sim.fsm_scan import scan_automaton, segmented_counter_predictions
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
# Row-selection streams
# ----------------------------------------------------------------------


def global_history_stream(taken: np.ndarray, bits: int) -> np.ndarray:
    """``gh[t]`` = directions of the last ``bits`` branches before t,
    newest outcome in bit 0 (the scalar register's convention)."""
    gh = np.zeros(len(taken), dtype=np.int64)
    taken64 = taken.astype(np.int64)
    for age in range(1, bits + 1):
        gh[age:] |= taken64[:-age] << (age - 1)
    return gh


def path_register_stream(
    trace: BranchTrace, row_bits: int, bits_per_target: int
) -> np.ndarray:
    """Nair's register: low target bits of recent control-flow
    destinations, newest chunk in the low bits."""
    went = np.where(
        trace.taken, trace.target, trace.pc + np.uint64(4)
    ).astype(np.int64)
    chunks = (went >> 2) & ((1 << bits_per_target) - 1)
    register = np.zeros(len(trace), dtype=np.int64)
    slots = -(-row_bits // bits_per_target)  # ceil
    for age in range(1, slots + 1):
        register[age:] |= chunks[:-age] << ((age - 1) * bits_per_target)
    return register & ((1 << row_bits) - 1)


def per_address_history_stream(
    trace: BranchTrace,
    bits: int,
    miss: Optional[np.ndarray] = None,
    group_key: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-branch history register values at each access.

    With ``miss=None`` histories are perfect (the paper's PAs(inf)).
    With a hit/miss stream from :func:`bht_miss_stream`, a miss resets
    the register to the 0xC3FF prefix and accumulation restarts — the
    exact first-level pollution model of the paper's Figure 10.

    ``group_key`` overrides the register-sharing key (default: the PC,
    one register per branch). Passing an untagged-table index instead
    yields the per-*set* histories of SAg/SAs, where colliding branches
    silently interleave into one register.
    """
    total = len(trace)
    key = trace.pc if group_key is None else group_key
    order = np.argsort(key, kind="stable")
    sorted_pc = key[order]
    sorted_taken = trace.taken[order].astype(np.int64)

    new_group = np.empty(total, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_pc[1:] != sorted_pc[:-1]

    if miss is None:
        run_start = new_group
    else:
        # A run is broken by the branch's own first-level misses: the
        # entry was stolen, the history reset.
        run_start = new_group | miss[order]
    # Rank within run: positions since the last run start.
    indices = np.arange(total)
    start_positions = np.where(run_start, indices, 0)
    np.maximum.accumulate(start_positions, out=start_positions)
    depth = indices - start_positions  # 0 at the run-start access

    reset = reset_history(bits)
    history_sorted = np.zeros(total, dtype=np.int64)
    for bit in range(bits):
        from_outcome = depth > bit
        outcome_bit = np.zeros(total, dtype=np.int64)
        if total > bit + 1:
            outcome_bit[bit + 1 :] = sorted_taken[: -(bit + 1)]
        pad_index = np.clip(bit - depth, 0, bits - 1)
        reset_bit = (reset >> pad_index) & 1
        history_sorted |= np.where(from_outcome, outcome_bit, reset_bit) << bit

    history = np.empty(total, dtype=np.int64)
    history[order] = history_sorted
    return history


# ----------------------------------------------------------------------
# First-level BHT simulation (stateful; cached per trace geometry)
# ----------------------------------------------------------------------

_BHT_CACHE: Dict[Tuple[int, int, int, int], np.ndarray] = {}
_BHT_CACHE_LIMIT = 64


def _trace_fingerprint(trace: BranchTrace) -> int:
    return zlib.crc32(trace.pc.tobytes()) ^ (len(trace) << 32)


def bht_miss_stream(
    trace: BranchTrace, entries: int, assoc: int
) -> np.ndarray:
    """Hit/miss stream of a tagged set-associative LRU history table.

    Semantically identical to driving
    :class:`repro.predictors.bht.BranchHistoryTable.lookup` per access.
    Independent of history length and of the second-level shape, so the
    result is cached: a whole PAs surface shares one pass.
    """
    if entries % assoc != 0:
        raise ConfigurationError(
            f"entries ({entries}) must be a multiple of assoc ({assoc})"
        )
    key = (_trace_fingerprint(trace), len(trace), entries, assoc)
    cached = _BHT_CACHE.get(key)
    if cached is not None:
        return cached

    num_sets = entries // assoc
    words = (trace.pc >> np.uint64(2)).astype(np.int64)
    set_ids = (words % num_sets).tolist()
    tags = (words // num_sets).tolist()
    miss = np.empty(len(trace), dtype=bool)
    sets = [[] for _ in range(num_sets)]
    # LRU recency is genuinely sequential state; this is the one
    # documented per-access loop, and its result is cached per trace.
    for i in range(len(trace)):  # check: allow(hot-loop)
        ways = sets[set_ids[i]]
        tag = tags[i]
        try:
            position = ways.index(tag)
        except ValueError:
            miss[i] = True
            if len(ways) >= assoc:
                ways.pop()
            ways.insert(0, tag)
        else:
            miss[i] = False
            if position:
                ways.insert(0, ways.pop(position))

    if len(_BHT_CACHE) >= _BHT_CACHE_LIMIT:
        _BHT_CACHE.pop(next(iter(_BHT_CACHE)))
    _BHT_CACHE[key] = miss
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
    row_mask = spec.rows - 1

    if scheme == "bimodal":
        return counter_index(spec, 0, words)
    if scheme in ("gag", "gas"):
        rows = global_history_stream(trace.taken, spec.history_bits)
        return counter_index(spec, rows, words)
    if scheme == "gshare":
        history = global_history_stream(trace.taken, spec.history_bits)
        rows = history ^ (words >> spec.column_bits)
        return counter_index(spec, rows, words)
    if scheme == "path":
        rows = path_register_stream(
            trace, spec.history_bits, spec.path_bits_per_branch
        )
        return counter_index(spec, rows, words)
    if scheme in ("pag", "pas"):
        miss = None
        if spec.bht_entries is not None:
            miss = bht_miss_stream(trace, spec.bht_entries, spec.bht_assoc)
        history = per_address_history_stream(
            trace, max(1, spec.history_bits), miss
        )
        return counter_index(spec, history, words)
    if scheme == "gap":
        rows = global_history_stream(trace.taken, spec.history_bits) & row_mask
        columns = _dense_pc_ids(trace.pc)
        return columns * spec.rows + rows
    if scheme == "pap":
        history = per_address_history_stream(trace, max(1, spec.history_bits))
        columns = _dense_pc_ids(trace.pc)
        return columns * spec.rows + (history & row_mask)
    if scheme in ("sag", "sas"):
        set_index = bht_set_index(spec, words)
        history = per_address_history_stream(
            trace, max(1, spec.history_bits), group_key=set_index
        )
        return counter_index(spec, history, words)
    if scheme == "agree":
        history = global_history_stream(trace.taken, spec.history_bits)
        # cols == 1 for agree, so the row-major flat index reduces to
        # the hashed row itself.
        return counter_index(spec, history ^ words, words)
    raise ConfigurationError(
        f"no index stream for scheme {spec.scheme!r}"
    )


def _dense_pc_ids(pc: np.ndarray) -> np.ndarray:
    _, inverse = np.unique(pc, return_inverse=True)
    return inverse.astype(np.int64)


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
    if scheme == "static":
        predictions = _static_predictions(spec, trace)
        miss_rate = None
    elif scheme == "agree":
        predictions = _agree_predictions(spec, trace)
        miss_rate = None
    elif scheme == "gskew":
        predictions = _gskew_predictions(spec, trace)
        miss_rate = None
    elif scheme == "tournament":
        predictions = _tournament_predictions(spec, trace)
        miss_rate = None
    else:
        indices = index_stream(spec, trace)
        predictions = segmented_counter_predictions(
            indices, trace.taken, counter_bits=spec.counter_bits
        )
        miss_rate = None
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
    words = (trace.pc >> np.uint64(2)).astype(np.int64)
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
    from repro.predictors.dealiased import GskewPredictor
    from repro.utils.bits import fold_xor

    row_bits = spec.history_bits
    bits = max(row_bits, 1)
    row_mask = spec.rows - 1
    words = (trace.pc >> np.uint64(2)).astype(np.int64)
    history = global_history_stream(trace.taken, row_bits)

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
    del GskewPredictor

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
    states = 1 << nbits
    identity = np.arange(states, dtype=np.uint8)
    decrement = np.maximum(np.arange(states) - 1, 0).astype(np.uint8)
    increment = np.minimum(np.arange(states) + 1, states - 1).astype(np.uint8)
    # Input encoding: a_correct + 2*b_correct.
    transitions = np.stack([identity, decrement, increment, identity])

    words = (trace.pc >> np.uint64(2)).astype(np.int64)
    chooser_index = words & (spec.chooser_rows - 1)
    inputs = a_correct.astype(np.uint8) + 2 * b_correct.astype(np.uint8)

    order = np.argsort(chooser_index, kind="stable")
    states_before = scan_automaton(
        transitions=transitions,
        inputs=inputs[order],
        segment_ids=chooser_index[order],
        init_state=counter_init_state(nbits),
    )
    outputs = counter_outputs(nbits)
    use_b = np.empty(len(trace), dtype=bool)
    use_b[order] = outputs[states_before]
    return np.where(use_b, pred_b, pred_a)
