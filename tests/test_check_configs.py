"""Tests for the configs pass and the pre-sweep guard."""

import json

import pytest

from repro.check import (
    CheckReport,
    Finding,
    canonical_specs,
    check_configs,
    nearest_sound_split,
    verify_spec,
    verify_spec_dict,
    verify_sweep_plan,
)
from repro.check.configs import load_spec_file
from repro.errors import CheckError, ConfigurationError
from repro.obs.metrics import counter, reset_metrics
from repro.predictors.specs import PredictorSpec
from repro.sim.sweep import sweep_tiers
from repro.workloads.micro import biased_field_trace


def errors_of(findings):
    return [f for f in findings if f.severity == "error"]


class TestVerifySpec:
    def test_canonical_specs_are_clean(self):
        for label, spec in canonical_specs():
            findings = verify_spec(spec, point=f"canonical:{label}")
            assert not errors_of(findings), (label, findings)

    def test_sound_sweep_spec_passes_with_budget(self):
        spec = PredictorSpec(scheme="gshare", rows=64, cols=16)
        assert not errors_of(verify_spec(spec, budget_bits=10))

    def test_budget_mismatch_is_an_error(self):
        spec = PredictorSpec(scheme="gshare", rows=4, cols=4)
        findings = verify_spec(spec, budget_bits=5)
        assert [f.check for f in errors_of(findings)] == ["config.budget"]
        assert "suggested_split" not in findings[-1].data


class TestNearestSoundSplit:
    def test_fix_attaches_nearest_split(self):
        # 2^2 x 2^2 against a 2^5 budget: the closest sound split
        # keeps the column width and grows the rows.
        spec = PredictorSpec(scheme="gshare", rows=4, cols=4)
        findings = verify_spec(spec, budget_bits=5, fix=True)
        (budget,) = [f for f in findings if f.check == "config.budget"]
        assert budget.data["suggested_split"] == {
            "cols": 4,
            "rows": 8,
            "point": "c=2 r=3",
        }
        assert "2^2x2^3" in budget.why

    def test_suggestion_prefers_column_distance(self):
        spec = PredictorSpec(scheme="gas", rows=2, cols=16)
        suggestion = nearest_sound_split(spec, 6)
        assert (suggestion.cols, suggestion.rows) == (16, 4)

    def test_matching_budget_needs_no_suggestion(self):
        spec = PredictorSpec(scheme="gshare", rows=8, cols=4)
        assert verify_spec(spec, budget_bits=5, fix=True) == []

    def test_fix_flows_through_spec_dicts(self):
        findings = verify_spec_dict(
            {"scheme": "gshare", "rows": 4, "cols": 4, "budget_bits": 5},
            origin="spec[0]",
            fix=True,
        )
        (budget,) = errors_of(findings)
        assert budget.check == "config.budget"
        assert budget.data["suggested_split"]["point"] == "c=2 r=3"

    def test_check_configs_threads_fix(self):
        findings = check_configs(
            spec_dicts=[
                {"scheme": "gshare", "rows": 4, "cols": 4, "budget_bits": 5}
            ],
            schemes=("gshare",),
            size_bits=(4,),
            fix=True,
        )
        budget = [f for f in findings if f.check == "config.budget"]
        assert len(budget) == 1
        assert "suggested_split" in budget[0].data

    def test_non_integer_budget_bits_is_a_contract_finding(self):
        findings = verify_spec_dict(
            {"scheme": "gshare", "rows": 4, "cols": 4, "budget_bits": "5"},
            origin="spec[0]",
        )
        assert [f.check for f in findings] == ["config.contract"]

    def test_indivisible_first_level_is_an_error(self):
        # validate() accepts this spec, but bht_miss_stream would raise
        # mid-sweep: the guard exists for exactly this case.
        spec = PredictorSpec(
            scheme="pas", rows=4, cols=4, bht_entries=1024, bht_assoc=3
        )
        findings = verify_spec(spec)
        assert any(
            f.check == "config.first-level" and f.severity == "error"
            for f in findings
        )

    def test_wide_counters_warn(self):
        spec = PredictorSpec(scheme="bimodal", cols=16, counter_bits=7)
        findings = verify_spec(spec)
        assert any(f.check == "config.counter-bits" for f in findings)

    def test_tournament_recurses_into_components(self):
        bad = PredictorSpec(
            scheme="pas", rows=4, cols=4, bht_entries=1024, bht_assoc=3
        )
        spec = PredictorSpec(
            scheme="tournament",
            component_a=PredictorSpec(scheme="bimodal", cols=16),
            component_b=bad,
            chooser_rows=16,
        )
        findings = verify_spec(spec)
        assert any(
            f.check == "config.first-level"
            and "component_b" in (f.point or "")
            for f in findings
        )


class TestVerifySpecDict:
    def test_contract_violation_becomes_finding(self):
        findings = verify_spec_dict(
            {"scheme": "gshare", "rows": 3, "cols": 4}, origin="spec[0]"
        )
        assert [f.check for f in findings] == ["config.contract"]
        assert findings[0].severity == "error"
        assert findings[0].point == "spec[0]"

    def test_unknown_field_becomes_finding(self):
        findings = verify_spec_dict(
            {"scheme": "gshare", "rowz": 4}, origin="spec[1]"
        )
        assert [f.check for f in findings] == ["config.contract"]

    def test_nested_component_dicts_materialize(self):
        findings = verify_spec_dict(
            {
                "scheme": "tournament",
                "component_a": {"scheme": "bimodal", "cols": 16},
                "component_b": {"scheme": "gshare", "rows": 4, "cols": 4},
                "chooser_rows": 16,
            },
            origin="spec[2]",
        )
        assert not errors_of(findings)


class TestSweepPlan:
    def test_default_grids_are_clean(self):
        for scheme in ("gas", "gshare", "path", "pas", "sas"):
            findings = verify_sweep_plan(scheme, range(4, 16))
            assert not errors_of(findings), scheme

    def test_bad_first_level_flags_every_pas_point(self):
        findings = verify_sweep_plan(
            "pas", [6], bht_entries=1024, bht_assoc=3
        )
        flagged = errors_of(findings)
        assert flagged
        # Every point with a first level (r >= 1) is flagged.
        assert all(f.check == "config.first-level" for f in flagged)
        assert len(flagged) == 6

    def test_full_pass_is_clean_and_counts_coverage(self):
        findings = check_configs()
        assert not errors_of(findings)
        coverage = [f for f in findings if f.check == "config.coverage"]
        assert len(coverage) == 1
        assert coverage[0].data["sweep_points"] > 0


class TestSweepGuard:
    def test_precheck_rejects_before_simulating(self):
        trace = biased_field_trace(branches=8, executions_each=4)
        with pytest.raises(ConfigurationError, match="precheck"):
            sweep_tiers(
                "pas",
                trace,
                size_bits=[4],
                bht_entries=64,
                bht_assoc=3,
            )

    def test_precheck_feeds_findings_counter(self):
        reset_metrics()
        trace = biased_field_trace(branches=8, executions_each=4)
        with pytest.raises(ConfigurationError):
            sweep_tiers(
                "pas", trace, size_bits=[4], bht_entries=64, bht_assoc=3
            )
        assert counter("check.findings").value > 0

    def test_clean_sweep_still_runs_with_precheck(self):
        trace = biased_field_trace(branches=8, executions_each=4)
        surface = sweep_tiers("gshare", trace, size_bits=[4])
        assert len(surface.tier(4)) == 5


class TestFindings:
    def test_severity_is_validated(self):
        with pytest.raises(CheckError):
            Finding(check="x", severity="fatal", why="no such level")

    def test_json_omits_unset_coordinates(self):
        finding = Finding(check="config.budget", severity="error", why="w")
        assert finding.to_json() == {
            "check": "config.budget",
            "severity": "error",
            "why": "w",
        }

    def test_report_exit_codes(self):
        report = CheckReport()
        report.extend(
            "configs",
            [Finding(check="c", severity="warning", why="w")],
        )
        assert report.exit_code(strict=False) == 0
        assert report.exit_code(strict=True) == 1
        report.extend(
            "code", [Finding(check="c", severity="error", why="w")]
        )
        assert report.exit_code(strict=False) == 1


class TestSpecFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "specs.json"
        path.write_text(
            json.dumps([{"scheme": "gshare", "rows": 4, "cols": 4}])
        )
        assert load_spec_file(str(path)) == [
            {"scheme": "gshare", "rows": 4, "cols": 4}
        ]

    def test_wrapped_form(self, tmp_path):
        path = tmp_path / "specs.json"
        path.write_text(json.dumps({"specs": [{"scheme": "static"}]}))
        assert load_spec_file(str(path)) == [{"scheme": "static"}]

    def test_malformed_payload_raises_check_error(self, tmp_path):
        path = tmp_path / "specs.json"
        path.write_text(json.dumps({"nope": 1}))
        with pytest.raises(CheckError):
            load_spec_file(str(path))

    def test_missing_file_raises_check_error(self, tmp_path):
        with pytest.raises(CheckError):
            load_spec_file(str(tmp_path / "absent.json"))
