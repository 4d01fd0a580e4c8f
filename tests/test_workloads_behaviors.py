"""Tests for the per-branch behaviour models, as the trace walker runs them.

Behaviours are parameter records; their outcomes come from
:func:`repro.workloads.generate_trace`. Each test builds a program of
one routine whose body is the behaviours under test and reads the
outcomes back from the trace. With every branch always run, an
iteration emits the body in order and then the back-edge, so the taken
bits reshape to one column per body slot.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.workloads import (
    Program,
    Routine,
    StaticBranch,
    build_program,
    generate_trace,
    get_profile,
)
from repro.workloads import generator
from repro.workloads.behaviors import (
    BiasedBehavior,
    CorrelatedBehavior,
    LoopPositionBehavior,
    PatternBehavior,
    behavior_summary,
    make_pattern,
    population_mix_taken_rate,
)
from repro.workloads.generator import WalkTables

BASE = 0x4000


def one_routine(behaviors, mean_trips=5.0, inclusion=1.0, mode="prefix"):
    """A program whose only routine runs ``behaviors`` in body order."""
    body = [
        StaticBranch(
            pc=BASE + 4 * slot,
            taken_target=BASE + 0x100 + 4 * slot,
            weight=1.0,
            behavior=behavior,
            inclusion=inclusion,
            behavior_class="test",
            inclusion_mode=mode,
        )
        for slot, behavior in enumerate(behaviors)
    ]
    backedge = StaticBranch(
        pc=BASE + 4 * len(body),
        taken_target=BASE,
        weight=1.0,
        behavior=None,
        inclusion=1.0,
        behavior_class="backedge",
        is_backedge=True,
    )
    routine = Routine(
        index=0, base=BASE, body=body, backedge=backedge,
        mean_trips=mean_trips, invocation_weight=1.0,
    )
    return Program(
        name="one-routine",
        profile=get_profile("compress"),
        routines=[routine],
        phases=[(np.array([0]), np.array([1.0]))],
        seed=0,
    )


def slot_outcomes(program, length, seed=0):
    """Taken bits of an always-run routine: one column per body slot."""
    rows = len(program.routines[0].body) + 1
    trace = generate_trace(program, length - length % rows, seed=seed)
    return trace.taken.reshape(-1, rows)[:, :-1]


def invocation_starts(program, length, seed=0):
    """Iteration index at which each invocation starts."""
    rows = len(program.routines[0].body) + 1
    trace = generate_trace(program, length - length % rows, seed=seed)
    loops = trace.taken.reshape(-1, rows)[:, -1]
    return np.concatenate([[0], np.flatnonzero(~loops)[:-1] + 1])


class TestBiasedBehavior:
    def test_extreme_probabilities(self):
        out = slot_outcomes(one_routine([BiasedBehavior(1.0), BiasedBehavior(0.0)]), 300)
        assert out[:, 0].all()
        assert not out[:, 1].any()

    def test_rate_close_to_p(self):
        out = slot_outcomes(one_routine([BiasedBehavior(0.7)]), 40_000, seed=1)
        assert abs(out.mean() - 0.7) < 0.02

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            BiasedBehavior(1.5)

    def test_expected_rate(self):
        assert BiasedBehavior(0.25).expected_taken_rate() == 0.25


class TestPatternBehavior:
    def test_repeats_pattern(self):
        out = slot_outcomes(one_routine([PatternBehavior((True, True, False))]), 12)
        assert list(out[:, 0]) == [True, True, False, True, True, False]

    def test_phase_persists_across_invocations(self):
        pattern = (True, False, False)
        program = one_routine([PatternBehavior(pattern)], mean_trips=4.0)
        out = slot_outcomes(program, 2_000)[:, 0]
        starts = invocation_starts(program, 2_000)
        # Four-trip invocations would restart the period mid-pattern if
        # the phase did not carry over.
        assert len(starts) > 10 and (np.diff(starts) % 3).any()
        assert np.array_equal(out, np.resize(pattern, len(out)))

    def test_regenerating_restarts_pattern(self):
        # Trace generation is a pure function of (program, seed): a
        # second walk of the same program starts the phase afresh.
        program = one_routine([PatternBehavior((True, False, False))])
        first = generate_trace(program, 500, seed=4)
        second = generate_trace(program, 500, seed=4)
        assert np.array_equal(first.taken, second.taken)

    def test_short_pattern_rejected(self):
        with pytest.raises(ConfigurationError):
            PatternBehavior((True,))

    def test_expected_rate(self):
        assert PatternBehavior((True, True, False)).expected_taken_rate() == (
            pytest.approx(2 / 3)
        )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25)
    def test_make_pattern_is_nonconstant(self, seed):
        pattern = make_pattern(np.random.default_rng(seed))
        assert 2 <= len(pattern) <= 6
        assert any(pattern) and not all(pattern)


class TestCorrelatedBehavior:
    def test_follows_source_exactly_without_noise(self):
        program = one_routine(
            [BiasedBehavior(0.5), CorrelatedBehavior(source_slot=0, invert=False, noise=0.0)]
        )
        out = slot_outcomes(program, 3_000)
        assert 0 < out[:, 0].sum() < len(out)
        assert np.array_equal(out[:, 1], out[:, 0])

    def test_invert(self):
        program = one_routine(
            [BiasedBehavior(0.5), CorrelatedBehavior(source_slot=0, invert=True, noise=0.0)]
        )
        out = slot_outcomes(program, 3_000)
        assert np.array_equal(out[:, 1], ~out[:, 0])

    def test_noise_flips_some(self):
        program = one_routine(
            [BiasedBehavior(1.0), CorrelatedBehavior(source_slot=0, noise=0.2)]
        )
        out = slot_outcomes(program, 30_000, seed=3)
        assert abs((~out[:, 1]).mean() - 0.2) < 0.02

    def test_chain_resolves_through_every_depth(self):
        # Slot 2 reads slot 1, which reads slot 0; slot 3 reads slot 2.
        program = one_routine(
            [
                BiasedBehavior(0.5),
                CorrelatedBehavior(source_slot=0, invert=True, noise=0.0),
                CorrelatedBehavior(source_slot=1, invert=True, noise=0.0),
                CorrelatedBehavior(source_slot=2, invert=True, noise=0.0),
            ]
        )
        out = slot_outcomes(program, 5_000)
        assert np.array_equal(out[:, 1], ~out[:, 0])
        assert np.array_equal(out[:, 2], out[:, 0])
        assert np.array_equal(out[:, 3], ~out[:, 0])

    def test_missing_source_rejected(self):
        program = one_routine([CorrelatedBehavior(source_slot=3)])
        with pytest.raises(ConfigurationError):
            generate_trace(program, 100)

    def test_negative_slot_rejected(self):
        with pytest.raises(ConfigurationError):
            CorrelatedBehavior(-1)


def reference_invocation(routine, trips, uniforms, phases):
    """One invocation built slot by slot: the loop the batch build replaces.

    Each body slot takes its behaviour's uniforms, then its guard's,
    from ``uniforms`` in order, which must be used up exactly.
    ``phases`` maps each pattern behaviour to its position and is
    advanced. Returns (pc, taken, target).
    """
    rest = list(uniforms)

    def draw(n):
        head, rest[:n] = rest[:n], []
        assert len(head) == n, "block too short"
        return np.array(head)

    rows = len(routine.body) + 1
    j = np.arange(trips)
    taken = np.zeros((rows, trips), dtype=bool)
    include = np.ones((rows, trips), dtype=bool)
    for slot, branch in enumerate(routine.body):
        behavior = branch.behavior
        if isinstance(behavior, BiasedBehavior):
            taken[slot] = draw(trips) < behavior.p_taken
        elif isinstance(behavior, PatternBehavior):
            start = phases.get(id(behavior), 0)
            phases[id(behavior)] = start + trips
            taken[slot] = np.array(behavior.pattern)[(start + j) % len(behavior.pattern)]
        elif isinstance(behavior, LoopPositionBehavior):
            taken[slot] = (j < np.ceil(behavior.fraction * trips)) ^ behavior.invert
        else:
            taken[slot] = taken[behavior.source_slot] ^ behavior.invert
            if behavior.noise > 0.0:
                taken[slot] ^= draw(trips) < behavior.noise
        if branch.inclusion >= 1.0:
            continue
        if branch.inclusion_mode == "prefix":
            exact = branch.inclusion * trips
            include[slot] = j < int(exact) + (draw(1)[0] < exact - int(exact))
        else:
            include[slot] = draw(trips) < branch.inclusion
    taken[-1] = j < trips - 1
    assert not rest, "block too long"
    mask = include.T.ravel()
    pcs = np.tile([b.pc for b in routine.branches], trips)
    targets = np.tile([b.taken_target for b in routine.branches], trips)
    return pcs[mask], taken.T.ravel()[mask], targets[mask]


class TestWalk:
    """The walk tables and the batch build, with chosen uniforms."""

    @pytest.mark.parametrize("name", ["mpeg_play", "xlisp"])
    def test_batch_build_matches_slot_by_slot_reference(self, name):
        program = build_program(get_profile(name), seed=1)
        tables = WalkTables(program)
        rng = np.random.default_rng(9)
        trips_done = [0] * len(program.routines)
        phases = {}
        for _ in range(3):
            routines = rng.integers(0, len(program.routines), size=60).tolist()
            trips = rng.integers(1, 14, size=60).tolist()
            done, blocks, expected = [], [], []
            for r, t in zip(routines, trips):
                done.append(trips_done[r])
                trips_done[r] += t
                blocks.append(rng.random(tables.per_trip[r] * t + tables.once[r]))
                expected.append(
                    reference_invocation(program.routines[r], t, blocks[-1], phases)
                )
            got = tables.emit(routines, trips, done, blocks)
            for field, want in zip(got, zip(*expected)):
                assert np.array_equal(field, np.concatenate(want))

    def test_two_trips_with_chosen_uniforms(self):
        program = one_routine(
            [BiasedBehavior(0.5), LoopPositionBehavior(0.5, invert=True)],
            inclusion=0.5, mode="random",
        )
        tables = WalkTables(program)
        # Per trip: slot 0 draws its outcome, then each slot its guard.
        assert (tables.per_trip, tables.once) == ([3], [0])
        block = np.array([
            0.2, 0.9,  # slot 0 outcomes: taken, not taken
            0.1, 0.1,  # slot 0 guard: runs both iterations
            0.7, 0.3,  # slot 1 guard: runs the second iteration only
        ])
        pc, taken, target = tables.emit([0], [2], [0], [block])
        assert list(pc) == [BASE, BASE + 8, BASE, BASE + 4, BASE + 8]
        assert list(taken) == [True, True, False, True, False]
        assert list(target) == [BASE + 0x100, BASE, BASE + 0x100, BASE + 0x104, BASE]

    def test_prefix_guard_rounds_stochastically(self):
        program = one_routine([BiasedBehavior(1.0)], inclusion=0.5)
        tables = WalkTables(program)
        assert (tables.per_trip, tables.once) == ([1], [1])
        # 3 trips x 0.5 = 1.5 iterations: the guard uniform picks 1 or 2.
        for guard, runs in ((0.7, 1), (0.2, 2)):
            block = np.array([0.0, 0.0, 0.0, guard])
            pc, _, _ = tables.emit([0], [3], [0], [block])
            assert int((pc == BASE).sum()) == runs

    def test_routine_without_draws(self):
        program = one_routine(
            [PatternBehavior((True, False)), LoopPositionBehavior(0.5)]
        )
        tables = WalkTables(program)
        assert (tables.per_trip, tables.once) == ([0], [0])
        _, taken, _ = tables.emit([0, 0], [3, 2], [0, 3], [np.empty(0)] * 2)
        # Per iteration: pattern (T N T, then N T, as 3 trips ran
        # before), position (ceil(0.5 * trips) taken), back-edge.
        assert list(taken) == [
            True, True, True, False, True, True, True, False, False,
            False, True, True, True, False, False,
        ]

    def test_batch_ending_mid_invocation_changes_nothing(self, monkeypatch):
        program = one_routine(
            [
                BiasedBehavior(0.5),
                CorrelatedBehavior(source_slot=0, noise=0.1),
                PatternBehavior((True, True, False)),
            ],
            inclusion=0.6,
            mean_trips=9.0,
        )
        whole = generate_trace(program, 4_001, seed=2)
        monkeypatch.setattr(generator, "_BATCH_CELLS", 7)
        for length in (1, 13, 4_001):
            cut = generate_trace(program, length, seed=2)
            assert np.array_equal(cut.pc, whole.pc[:length])
            assert np.array_equal(cut.taken, whole.taken[:length])


class TestSummaries:
    def test_behavior_summary_tokens(self):
        assert behavior_summary(BiasedBehavior(0.5)) == "biased(0.50)"
        assert behavior_summary(PatternBehavior((True, False))) == "pattern(TN)"
        assert "slot=2" in behavior_summary(CorrelatedBehavior(2))

    def test_population_mix(self):
        pop = [BiasedBehavior(0.0), BiasedBehavior(1.0)]
        assert population_mix_taken_rate(pop) == 0.5

    def test_population_mix_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            population_mix_taken_rate([])
