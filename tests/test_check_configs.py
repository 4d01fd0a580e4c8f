"""Configuration checks: sweep grids construct, a bad one fails before
anything simulates, and the findings report the checks print."""

import dataclasses

import pytest

import repro.sim.sweep as sweep
from repro.check.findings import CheckReport, Finding
from repro.errors import CheckError, ConfigurationError
from repro.predictors.specs import PredictorSpec
from repro.serve.results import ResultStore
from repro.sim.sweep import SWEEPABLE_SCHEMES, spec_for_point, sweep_tiers
from repro.workloads.micro import biased_field_trace
from tests.test_cli import CANONICAL_SPECS


class TestVerifySpec:
    def test_canonical_specs_are_clean(self):
        # Rebuilding a spec reruns validate(), the one contract check.
        for label, spec in CANONICAL_SPECS.items():
            assert dataclasses.replace(spec) == spec, label

    def test_sound_sweep_spec_passes_with_budget(self):
        spec = PredictorSpec(scheme="gshare", rows=64, cols=16)
        assert spec.num_counters == 1 << 10
        assert spec_for_point("gshare", 4, 6) == spec


class TestNearestSoundSplit:
    def test_indivisible_first_level_is_an_error(self):
        # bht_miss_stream would raise mid-sweep; construction refuses.
        with pytest.raises(ConfigurationError, match="assoc"):
            PredictorSpec(
                scheme="pas", rows=4, cols=4, bht_entries=1024, bht_assoc=3
            )

    def test_tournament_recurses_into_components(self):
        sound = CANONICAL_SPECS["pas"]
        with pytest.raises(ConfigurationError, match="assoc"):
            PredictorSpec(
                scheme="tournament",
                component_a=PredictorSpec(scheme="bimodal", cols=16),
                component_b=dataclasses.replace(sound, bht_assoc=3),
                chooser_rows=16,
            )


class TestSweepPlan:
    def test_default_grids_are_clean(self):
        # Every split of every paper tier constructs and fills the
        # tier's budget of 2^n counters (with and without a realistic
        # first level for PAs).
        for scheme in SWEEPABLE_SCHEMES:
            geometries = [(None, 4)]
            if scheme == "pas":
                geometries.append((512, 4))
            for entries, assoc in geometries:
                for n in range(4, 16):
                    for row_bits in range(n + 1):
                        spec = spec_for_point(
                            scheme, n - row_bits, row_bits,
                            bht_entries=entries, bht_assoc=assoc,
                        )
                        assert spec.num_counters == 1 << n, spec.describe()

    def test_bad_first_level_flags_every_pas_point(self):
        # Every point with a first level (r >= 1) refuses to construct;
        # the r = 0 edge is bimodal and has none.
        spec_for_point("pas", 6, 0, bht_entries=1024, bht_assoc=3)
        for row_bits in range(1, 7):
            with pytest.raises(ConfigurationError, match="assoc"):
                spec_for_point(
                    "pas", 6 - row_bits, row_bits,
                    bht_entries=1024, bht_assoc=3,
                )


class TestSweepGuard:
    def test_precheck_rejects_before_simulating(self, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a point ran before the plan was checked")

        monkeypatch.setattr(sweep, "compute_point", must_not_run)
        monkeypatch.setattr(ResultStore, "put", must_not_run)
        trace = biased_field_trace(branches=8, executions_each=4)
        with pytest.raises(ConfigurationError, match="n=4 c=3 r=1"):
            sweep_tiers(
                "pas",
                trace,
                size_bits=[4],
                bht_entries=64,
                bht_assoc=3,
                checkpoint_dir=str(tmp_path),
            )
        assert list(tmp_path.iterdir()) == []

    def test_clean_sweep_still_runs_with_precheck(self):
        trace = biased_field_trace(branches=8, executions_each=4)
        surface = sweep_tiers("gshare", trace, size_bits=[4])
        assert len(surface.tier(4)) == 5


class TestFindings:
    def test_severity_is_validated(self):
        with pytest.raises(CheckError):
            Finding(check="x", severity="fatal", why="no such level")

    def test_json_omits_unset_coordinates(self):
        finding = Finding(check="code.hot-loop", severity="error", why="w")
        assert finding.to_json() == {
            "check": "code.hot-loop",
            "severity": "error",
            "why": "w",
        }

    def test_report_exit_codes(self):
        report = CheckReport()
        report.extend(
            "code",
            [Finding(check="c", severity="warning", why="w")],
        )
        assert report.exit_code(strict=False) == 0
        assert report.exit_code(strict=True) == 1
        report.extend(
            "doctor.store", [Finding(check="c", severity="error", why="w")]
        )
        assert report.exit_code(strict=False) == 1
