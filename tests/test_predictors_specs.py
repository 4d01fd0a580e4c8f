"""Tests for PredictorSpec validation and derived properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.predictors import PredictorSpec, build_predictor, make_predictor_spec


class TestValidation:
    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            make_predictor_spec("neural")

    def test_bimodal_rejects_rows(self):
        with pytest.raises(ConfigurationError):
            make_predictor_spec("bimodal", rows=4, cols=16)

    def test_gag_rejects_columns(self):
        with pytest.raises(ConfigurationError):
            make_predictor_spec("gag", rows=16, cols=2)

    def test_gas_requires_history(self):
        with pytest.raises(ConfigurationError):
            make_predictor_spec("gas", rows=1, cols=16)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            make_predictor_spec("gas", rows=12, cols=4)

    def test_bht_only_for_per_address(self):
        with pytest.raises(ConfigurationError):
            make_predictor_spec("gshare", rows=16, bht_entries=128)

    def test_path_bits_bounded_by_rows(self):
        with pytest.raises(ConfigurationError):
            make_predictor_spec("path", rows=4, path_bits_per_branch=5)

    def test_static_policy_validated(self):
        with pytest.raises(ConfigurationError):
            make_predictor_spec("static", static_policy="always")

    def test_static_rejects_table(self):
        with pytest.raises(ConfigurationError):
            make_predictor_spec("static", cols=16)

    def test_tournament_requires_components(self):
        with pytest.raises(ConfigurationError):
            make_predictor_spec("tournament")

    @pytest.mark.parametrize(
        "entries, assoc", [(64, 3), (4, 8)], ids=["indivisible", "too-wide"]
    )
    @pytest.mark.parametrize("scheme", ["pag", "pas"])
    def test_first_level_must_split_into_sets(self, scheme, entries, assoc):
        # The engines would raise mid-simulation; construction refuses.
        cols = 1 if scheme == "pag" else 4
        with pytest.raises(ConfigurationError):
            PredictorSpec(
                scheme=scheme, rows=4, cols=cols,
                bht_entries=entries, bht_assoc=assoc,
            )

    def test_counter_bits_above_8_rejected(self):
        # Automaton states are uint8: 9 bits cannot be simulated.
        PredictorSpec(scheme="bimodal", cols=16, counter_bits=8)
        with pytest.raises(ConfigurationError, match="counter_bits"):
            PredictorSpec(scheme="bimodal", cols=16, counter_bits=9)

    def test_components_only_for_tournament(self):
        with pytest.raises(ConfigurationError):
            make_predictor_spec(
                "gshare",
                rows=16,
                component_a=make_predictor_spec("bimodal", cols=4),
            )


class TestDerived:
    def test_history_bits(self):
        assert make_predictor_spec("gas", rows=64, cols=4).history_bits == 6

    def test_num_counters(self):
        assert make_predictor_spec("gas", rows=64, cols=8).num_counters == 512

    def test_size_label(self):
        assert make_predictor_spec("gas", rows=64, cols=8).size_label == (
            "2^3x2^6"
        )

    def test_with_shape(self):
        spec = make_predictor_spec("gshare", rows=64, cols=2)
        bigger = spec.with_shape(rows=128, cols=4)
        assert bigger.rows == 128 and bigger.cols == 4
        assert bigger.scheme == "gshare"

    def test_describe_mentions_bht(self):
        spec = make_predictor_spec("pas", rows=16, cols=2, bht_entries=128)
        assert "BHT=128" in spec.describe()
        spec = make_predictor_spec("pas", rows=16, cols=2)
        assert "perfect" in spec.describe()

    def test_specs_hashable_and_equal(self):
        a = make_predictor_spec("gas", rows=16, cols=4)
        b = make_predictor_spec("gas", rows=16, cols=4)
        assert a == b
        assert hash(a) == hash(b)
        assert a != make_predictor_spec("gshare", rows=16, cols=4)


class TestSpecSweepProperty:
    @given(
        st.sampled_from(["gas", "gshare", "path", "pas"]),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_valid_shape_builds(self, scheme, row_bits, col_bits):
        if scheme == "path":
            # The path register records 2 bits per target, so the row
            # index must be at least 2 bits wide.
            row_bits = max(row_bits, 2)
        spec = PredictorSpec(
            scheme=scheme, rows=1 << row_bits, cols=1 << col_bits
        )
        predictor = build_predictor(spec)
        predictor.predict(0x104, 0x200)
        predictor.update(0x104, True, 0x200)
