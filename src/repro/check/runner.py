"""Orchestration of the check passes: `repro check [pass|all]`.

Each pass runs inside an observability span and feeds the
``check.findings`` counter, so a pre-sweep guard shows up in the same
telemetry as the sweep it protects. A pass blowing up (as opposed to
*finding* something) is converted to :class:`repro.errors.CheckError`,
which the CLI maps to exit code 2 — findings themselves map to 1.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.check.configs import check_configs, load_spec_file
from repro.check.findings import CheckReport, Finding
from repro.check.lint import HOT_PATH_SUFFIXES, lint_paths
from repro.check.static_alias import check_aliasing
from repro.errors import CheckError, ReproError
from repro.obs.metrics import counter
from repro.obs.spans import span

#: Pass names in execution order; "all" expands to this.
PASSES = ("configs", "aliasing", "code")


def run_checks(
    which: str = "all",
    spec_file: Optional[str] = None,
    paths: Optional[Sequence[str]] = None,
    hot_suffixes: Sequence[str] = (),
    benchmarks: Optional[Sequence[str]] = None,
    schemes: Optional[Sequence[str]] = None,
    size_bits: Optional[Sequence[int]] = None,
    seed: int = 0,
    fix: bool = False,
    bht_entries: Optional[int] = None,
    bht_assoc: int = 4,
) -> CheckReport:
    """Run one pass (or all core passes) and aggregate the findings."""
    if which != "all" and which not in PASSES:
        raise CheckError(
            f"unknown check pass {which!r}; choose from "
            f"{PASSES + ('all',)}"
        )
    if which == "all":
        selected = PASSES
    else:
        selected = (which,)

    spec_dicts = load_spec_file(spec_file) if spec_file else None
    runners: Dict[str, Callable[[], List[Finding]]] = {
        "configs": lambda: check_configs(
            spec_dicts=spec_dicts,
            schemes=schemes,
            size_bits=size_bits,
            fix=fix,
        ),
        "aliasing": lambda: check_aliasing(
            benchmarks=benchmarks,
            schemes=schemes,
            size_bits=size_bits,
            seed=seed,
            bht_entries=bht_entries,
            bht_assoc=bht_assoc,
        ),
        "code": lambda: lint_paths(
            paths=paths,
            hot_suffixes=tuple(HOT_PATH_SUFFIXES) + tuple(hot_suffixes),
        ),
    }

    report = CheckReport()
    for pass_name in selected:
        with span(f"check.{pass_name}"):
            try:
                findings = runners[pass_name]()
            except ReproError:
                raise
            except Exception as error:  # internal fault -> exit 2
                raise CheckError(
                    f"check pass {pass_name!r} failed internally: "
                    f"{type(error).__name__}: {error}"
                ) from error
        actionable = [f for f in findings if f.severity != "info"]
        counter("check.findings").inc(len(actionable))
        report.extend(pass_name, findings)
    return report


def render(report: CheckReport, as_json: bool, strict: bool) -> str:
    return report.render_json() if as_json else report.render_text(strict)
