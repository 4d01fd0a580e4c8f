"""RandomTape: a draw-for-draw replay of ``np.random.default_rng``.

Every test draws the same calls from a Generator and from a tape over
an identically seeded Generator, and requires identical values: any
call the tape does not replicate must raise instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import RAW_BLOCK, RandomTape, make_rng
from repro.workloads.layout import choose_taken_target, place_routines
from repro.workloads.program import _partition_sizes

#: Ranges ``hi - 1 - lo`` with a path of their own each: no draw (0),
#: one bit (1), a non-power-of-two, a span whose Lemire rejection band
#: is half the 32-bit space (2**31), and the bare 32-bit draw (2**32 - 1).
SPANS = (0, 1, 2, 21, 2**20 - 1, 2**31, 2**32 - 1)

_calls = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(
        st.just("uniform"),
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(0.0, 1e6, allow_nan=False),
    ),
    st.tuples(
        st.just("integers"),
        st.integers(-(2**40), 2**40),
        st.sampled_from(SPANS),
        st.one_of(st.none(), st.integers(0, 9)),
    ),
    st.tuples(st.just("permutation"), st.sampled_from((0, 1, 2, 3, 17, 300))),
)


def _call(source, call):
    """Make ``call`` on a Generator or a tape; arrays become lists."""
    kind = call[0]
    if kind == "random":
        return source.random()
    if kind == "uniform":
        _, low, width = call
        return source.uniform(low, low + width)
    if kind == "integers":
        _, low, span, size = call
        value = source.integers(low, low + span + 1, size=size)
    else:
        value = source.permutation(call[1])
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value if isinstance(value, list) else int(value)


def _assert_replays(generator, calls):
    """``calls`` give the same values from ``generator`` and a tape."""
    twin = np.random.default_rng()
    twin.bit_generator.state = generator.bit_generator.state
    tape = RandomTape(twin)
    for index, call in enumerate(calls):
        want, got = _call(generator, call), _call(tape, call)
        assert got == want, (index, call, want, got)
        assert type(got) is type(want), (index, call)


class TestReplay:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.lists(_calls, max_size=80))
    def test_interleaved_calls_match_default_rng(self, seed, calls):
        _assert_replays(np.random.default_rng(seed), calls)

    def test_runs_longer_than_one_raw_block(self):
        # Every kind, over about three blocks of raw words, with 32-bit
        # draws left buffered across each refill.
        cycle = [
            ("random",),
            ("integers", 0, 1, None),
            ("uniform", -3.0, 5.0),
            ("integers", 2, 21, 3),
            ("integers", 0, 2**32 - 1, None),
            ("permutation", 5),
            ("integers", -7, 0, 2),
            ("integers", 0, 2**31, None),
        ]
        calls = cycle * (3 * RAW_BLOCK // len(cycle))
        _assert_replays(np.random.default_rng(11), calls)

    @pytest.mark.parametrize("span", SPANS)
    def test_each_span_alone_over_several_blocks(self, span):
        _assert_replays(
            np.random.default_rng(5), [("integers", 3, span, 7)] * (RAW_BLOCK // 2)
        )

    @pytest.mark.parametrize("n", [0, 1, 2, 1000])
    def test_permutation(self, n):
        _assert_replays(
            np.random.default_rng(n), [("permutation", n), ("permutation", n)]
        )

    def test_buffered_half_word_is_taken_over(self):
        # One 32-bit draw leaves the high half of a raw word buffered in
        # the generator's state; the tape must hand it out first.
        generator = np.random.default_rng(3)
        generator.integers(0, 10)
        assert generator.bit_generator.state["has_uint32"] == 1
        _assert_replays(generator, [("integers", 0, 9, None)] * 5)


class TestRefusals:
    @pytest.fixture
    def tape(self):
        return RandomTape(make_rng(1))

    def test_ranges_beyond_32_bits(self, tape):
        with pytest.raises(ValueError):
            tape.integers(0, 2**32 + 1)
        with pytest.raises(ValueError):
            tape.integers(-(2**40), 2**40, size=3)

    def test_empty_range(self, tape):
        with pytest.raises(ValueError):
            tape.integers(5, 5)

    @pytest.mark.parametrize("kwargs", [{"dtype": np.int32}, {"endpoint": True}])
    def test_other_dtypes_and_endpoint(self, tape, kwargs):
        with pytest.raises(TypeError):
            tape.integers(0, 10, **kwargs)

    def test_non_integer_arguments(self, tape):
        with pytest.raises(TypeError):
            tape.integers(0.0, 5)
        with pytest.raises(TypeError):
            tape.integers(0, 5, size=(2, 2))
        with pytest.raises(TypeError):
            tape.permutation([3, 1, 2])

    def test_reversed_uniform_bounds(self, tape):
        with pytest.raises(ValueError):
            tape.uniform(1.0, 0.0)

    def test_other_bit_generators(self):
        with pytest.raises(TypeError):
            RandomTape(np.random.Generator(np.random.MT19937(0)))


class TestProgramHelpers:
    """The program builders accept a Generator or a tape alike."""

    def test_placement_matches(self):
        sizes = [2, 5, 13, 40, 3] * 20
        by_rng = place_routines(sizes, 0.3, make_rng(4, "layout:x"))
        by_tape = place_routines(sizes, 0.3, RandomTape(make_rng(4, "layout:x")))
        assert by_tape == by_rng

    def test_partition_and_targets_match(self):
        rng, tape = make_rng(8), RandomTape(make_rng(8))
        assert _partition_sizes(500, (3, 9), tape, 0.1) == _partition_sizes(
            500, (3, 9), rng, 0.1
        )
        pcs = range(0x400100, 0x400100 + 4 * 300, 4)
        assert [choose_taken_target(pc, 0x400000, tape) for pc in pcs] == [
            choose_taken_target(pc, 0x400000, rng) for pc in pcs
        ]
