"""Vectorized engines must match the scalar reference engine exactly.

These are the load-bearing tests of the whole benchmark harness: every
figure is regenerated with the vectorized engines, and these tests
guarantee those engines implement precisely the semantics of the
(obviously-correct) scalar predictors — prediction by prediction, on
both synthetic random traces and calibrated workload traces.
"""

import functools
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.predictors import PredictorSpec, make_predictor_spec
from repro.predictors.specs import KNOWN_SCHEMES
from repro.sim import simulate, simulate_reference, simulate_vectorized
from repro.sim.sweep import spec_for_point
from repro.sim.vectorized import bht_miss_stream, has_vectorized_engine
from repro.traces import BranchTrace
from repro.workloads import make_workload
from repro.workloads.micro import (
    alternating_trace,
    correlated_pair_trace,
    interference_field_trace,
    loop_trace,
)


def random_trace(seed, length=600, npcs=12):
    rng = np.random.default_rng(seed)
    pc = (0x1000 + rng.integers(0, npcs, size=length) * 4).astype(np.uint64)
    taken = rng.random(length) < rng.uniform(0.3, 0.8)
    target = ((pc * np.uint64(2654435761)) & np.uint64(0xFFFFFC)) + np.uint64(
        0x10000
    )
    return BranchTrace(pc=pc, taken=taken, target=target, name=f"rand{seed}")


SPECS = [
    make_predictor_spec("static", static_policy="btfn"),
    make_predictor_spec("bimodal", cols=8),
    make_predictor_spec("gag", rows=16),
    make_predictor_spec("gas", rows=8, cols=4),
    make_predictor_spec("gshare", rows=16, cols=2),
    make_predictor_spec("path", rows=16, cols=2),
    make_predictor_spec("gap", rows=8),
    make_predictor_spec("pag", rows=8),
    make_predictor_spec("pas", rows=8, cols=4),
    make_predictor_spec("pas", rows=8, cols=2, bht_entries=4, bht_assoc=2),
    make_predictor_spec("pag", rows=16, bht_entries=8, bht_assoc=1),
    make_predictor_spec("pap", rows=8),
    make_predictor_spec("sag", rows=16, bht_entries=8),
    make_predictor_spec("sas", rows=8, cols=2, bht_entries=16, bht_assoc=1),
    make_predictor_spec("agree", rows=16),
    make_predictor_spec("gskew", rows=16),
    make_predictor_spec(
        "tournament",
        component_a=make_predictor_spec("bimodal", cols=8),
        component_b=make_predictor_spec("gshare", rows=16),
        chooser_rows=8,
    ),
]


def _assert_engines_agree(spec, trace):
    fast = simulate_vectorized(spec, trace)
    slow = simulate_reference(spec, trace)
    mismatches = np.flatnonzero(fast.predictions != slow.predictions)
    assert mismatches.size == 0, (
        f"{spec.describe()} first mismatch at access {mismatches[:5]}"
    )
    assert fast.first_level_miss_rate == slow.first_level_miss_rate


@functools.lru_cache(maxsize=None)
def _espresso_600():
    return make_workload("espresso", length=600, seed=3)


class TestEveryConstructibleSpec:
    """A spec either fails at construction or simulates: no
    configuration ``PredictorSpec`` accepts may raise mid-run."""

    @given(
        scheme=st.sampled_from(
            [s for s in KNOWN_SCHEMES if s not in ("static", "tournament")]
        ),
        row_bits=st.integers(0, 8),
        # Half the schemes take no column bits: draw 0 often enough
        # that most examples construct.
        col_bits=st.just(0) | st.integers(0, 8),
        bht_entries=st.one_of(
            st.none(),
            st.integers(0, 10).map(lambda bits: 1 << bits),
            st.integers(1, 1 << 10),
        ),
        bht_assoc=st.integers(1, 8),
        counter_bits=st.integers(1, 8),
    )
    @example(
        scheme="pas", row_bits=2, col_bits=2, bht_entries=4, bht_assoc=8,
        counter_bits=2,
    )
    @settings(max_examples=400, deadline=None)
    def test_construct_or_simulate_identically(
        self, scheme, row_bits, col_bits, bht_entries, bht_assoc,
        counter_bits,
    ):
        try:
            spec = PredictorSpec(
                scheme=scheme,
                rows=1 << row_bits,
                cols=1 << col_bits,
                counter_bits=counter_bits,
                bht_entries=bht_entries,
                bht_assoc=bht_assoc,
            )
        except ConfigurationError:
            return
        trace = _espresso_600()
        if has_vectorized_engine(spec):
            _assert_engines_agree(spec, trace)
        else:
            simulate_reference(spec, trace)

    @pytest.mark.parametrize(
        "spec",
        [
            make_predictor_spec("bimodal", cols=16, counter_bits=8),
            make_predictor_spec("gshare", rows=16, cols=2, counter_bits=8),
        ],
        ids=["bimodal", "gshare"],
    )
    def test_eight_bit_counters_match(self, spec):
        # The widest counter the uint8 automaton states hold.
        _assert_engines_agree(spec, _espresso_600())
        _assert_engines_agree(spec, random_trace(7))


class TestEngineEquivalence:
    @pytest.mark.parametrize(
        "spec", SPECS, ids=[s.describe() for s in SPECS]
    )
    def test_exact_match_on_random_trace(self, spec):
        _assert_engines_agree(spec, random_trace(11))

    @pytest.mark.parametrize(
        "spec", SPECS, ids=[s.describe() for s in SPECS]
    )
    def test_exact_match_on_workload_trace(self, spec):
        trace = make_workload("espresso", length=3_000, seed=5)
        fast = simulate_vectorized(spec, trace)
        slow = simulate_reference(spec, trace)
        assert np.array_equal(fast.predictions, slow.predictions)

    @pytest.mark.parametrize(
        "spec", SPECS, ids=[s.describe() for s in SPECS]
    )
    def test_numpy_fallback_matches_reference(self, spec, monkeypatch):
        """Without the C kernels (no compiler), the counter loop's Python
        twin and the scalar LRU give the same predictions."""
        from repro.sim import native, vectorized

        monkeypatch.setattr(native, "library", lambda: None)
        monkeypatch.setattr(vectorized, "_TRACE_CACHE", weakref.WeakKeyDictionary())
        _assert_engines_agree(spec, random_trace(13))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_property_gshare_and_pas_match(self, seed):
        trace = random_trace(seed, length=400, npcs=9)
        for spec in (
            make_predictor_spec("gshare", rows=8, cols=2),
            make_predictor_spec("pas", rows=4, cols=2, bht_entries=4,
                                bht_assoc=2),
        ):
            fast = simulate_vectorized(spec, trace)
            slow = simulate_reference(spec, trace)
            assert np.array_equal(fast.predictions, slow.predictions)

    @pytest.mark.parametrize(
        "spec",
        [
            make_predictor_spec("pas", rows=16, cols=2, bht_entries=16,
                                bht_assoc=2),
            make_predictor_spec("pag", rows=16, bht_entries=8, bht_assoc=1),
        ],
        ids=lambda spec: spec.describe(),
    )
    def test_finite_bht_on_unaligned_pcs(self, spec):
        """A tagged first-level entry holds a word (``pc >> 2``), so PCs
        inside one word share one history register in both engines."""
        rng = np.random.default_rng(0)
        pc = (0x1000 + rng.integers(0, 40, size=3_000)).astype(np.uint64)
        trace = BranchTrace(
            pc=pc, taken=rng.random(3_000) < 0.6, target=pc + np.uint64(64),
            name="unaligned",
        )
        _assert_engines_agree(spec, trace)

    def test_bimode_falls_back_to_reference(self):
        spec = make_predictor_spec("bimode", rows=16)
        assert not has_vectorized_engine(spec)
        trace = random_trace(3)
        result = simulate(spec, trace)
        assert result.engine == "reference"

    def test_auto_prefers_vectorized(self):
        spec = make_predictor_spec("gshare", rows=16)
        result = simulate(spec, random_trace(3))
        assert result.engine == "vectorized"


#: Adversarial micro traces: a counted loop, a never-saturating
#: alternation, a correlated branch pair under noise, and a field of
#: branches contending for the same rows.
MICROS = {
    "loop": lambda: loop_trace(trips=7, repeats=48),
    "alternating": lambda: alternating_trace(384),
    "correlated-pair": lambda: correlated_pair_trace(512, noise=0.1, seed=3),
    "interference-field": lambda: interference_field_trace(
        branches=8, length=1536, seed=1
    ),
}

#: Every split of one tier, including the ``row_bits=0`` bimodal edge
#: and the single-column edge.
TIER_BITS = 5
TIER_SPLITS = [
    (scheme, row_bits)
    for scheme in ("gas", "gshare", "path", "pas", "sas")
    for row_bits in range(TIER_BITS + 1)
]


class TestMicroTraceTiers:
    @pytest.mark.parametrize(
        "scheme,row_bits",
        TIER_SPLITS,
        ids=[f"{scheme}-r{row_bits}" for scheme, row_bits in TIER_SPLITS],
    )
    @pytest.mark.parametrize("micro", sorted(MICROS))
    def test_every_split_matches_reference(self, micro, scheme, row_bits):
        spec = spec_for_point(
            scheme, col_bits=TIER_BITS - row_bits, row_bits=row_bits
        )
        _assert_engines_agree(spec, MICROS[micro]())

    @pytest.mark.parametrize("micro", sorted(MICROS))
    def test_pas_with_finite_bht_matches_reference(self, micro):
        spec = spec_for_point(
            "pas", col_bits=2, row_bits=3, bht_entries=64, bht_assoc=4
        )
        _assert_engines_agree(spec, MICROS[micro]())


class TestBhtMissStream:
    def test_matches_scalar_table(self):
        from repro.predictors.bht import BranchHistoryTable

        trace = random_trace(21, length=500, npcs=20)
        fast = bht_miss_stream(trace, entries=8, assoc=2)
        table = BranchHistoryTable(entries=8, assoc=2, history_bits=4)
        slow = np.empty(len(trace), dtype=bool)
        for i, (pc, taken, _) in enumerate(trace):
            _, hit = table.lookup(pc)
            slow[i] = not hit
            table.record(pc, taken)
        assert np.array_equal(fast, slow)

    def test_cache_returns_same_array(self):
        trace = random_trace(22)
        a = bht_miss_stream(trace, entries=8, assoc=2)
        b = bht_miss_stream(trace, entries=8, assoc=2)
        assert a is b

    def test_cache_is_keyed_by_trace_object(self, monkeypatch):
        """A hit runs no kernel; the entry is collected with its trace."""
        import gc

        from repro.obs import snapshot
        from repro.sim import vectorized

        streams = weakref.WeakKeyDictionary()
        monkeypatch.setattr(vectorized, "_TRACE_CACHE", streams)
        trace = random_trace(23)
        first = bht_miss_stream(trace, entries=8, assoc=2)
        calls = snapshot()["counters"]["sim.native_calls"]
        assert bht_miss_stream(trace, entries=8, assoc=2) is first
        assert snapshot()["counters"]["sim.native_calls"] == calls
        assert len(streams) == 1
        del trace
        gc.collect()
        assert len(streams) == 0

    def test_geometry_validated(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            bht_miss_stream(random_trace(1), entries=8, assoc=3)

    @pytest.mark.parametrize(
        "entries,assoc",
        [(16, 1), (16, 2), (16, 4), (16, 16), (64, 4), (8, 8), (1, 1)],
        ids=["1-way", "2-way", "4-way", "fully-assoc-16", "64x4",
             "fully-assoc-8", "one-entry"],
    )
    @pytest.mark.parametrize("engine", ["native", "fallback"])
    def test_native_and_fallback_match_scalar_table(
        self, entries, assoc, engine, monkeypatch
    ):
        """The C LRU and the no-compiler path (the scalar table itself)
        equal driving ``BranchHistoryTable.lookup``, on random PCs
        that overflow every set."""
        from repro.predictors.bht import BranchHistoryTable
        from repro.sim import native, vectorized

        if engine == "native" and native.library() is None:
            pytest.skip("no C compiler")
        if engine == "fallback":
            monkeypatch.setattr(native, "library", lambda: None)
        monkeypatch.setattr(vectorized, "_TRACE_CACHE", weakref.WeakKeyDictionary())
        for seed in range(4):
            rng = np.random.default_rng(seed)
            pc = (rng.integers(0, 3 * entries + 5, size=700) * 4
                  + 0x40_0000_0000).astype(np.uint64)
            trace = BranchTrace(pc=pc, taken=rng.random(700) < 0.5,
                                target=pc + np.uint64(8))
            table = BranchHistoryTable(entries, assoc, history_bits=2)
            expected = np.array([not table.lookup(int(p))[1] for p in pc])
            got = bht_miss_stream(trace, entries=entries, assoc=assoc)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "entries,assoc", [(8, 3), (0, 1), (8, 0), (4, 8), (12, 4), (8, -2)]
    )
    def test_bad_geometry_never_reaches_c(self, entries, assoc, monkeypatch):
        from repro.errors import ConfigurationError
        from repro.sim import native

        class NoC:
            def __getattr__(self, name):
                raise AssertionError(f"{name} reached C")

        monkeypatch.setattr(native, "library", NoC)
        with pytest.raises(ConfigurationError):
            bht_miss_stream(random_trace(5), entries=entries, assoc=assoc)
