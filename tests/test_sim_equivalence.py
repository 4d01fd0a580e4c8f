"""Vectorized engines must match the scalar reference engine exactly.

These are the load-bearing tests of the whole benchmark harness: every
figure is regenerated with the vectorized engines, and these tests
guarantee those engines implement precisely the semantics of the
(obviously-correct) scalar predictors — prediction by prediction, on
both synthetic random traces and calibrated workload traces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors import make_predictor_spec
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
    if slow.first_level_miss_rate is not None:
        assert fast.first_level_miss_rate == pytest.approx(
            slow.first_level_miss_rate
        )


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

    def test_geometry_validated(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            bht_miss_stream(random_trace(1), entries=8, assoc=3)
