"""Pass 1: static verification of predictor configurations.

A sweep visits every ``(c, r)`` split of every tier; a bad spec in that
grid used to surface as a mid-sweep exception hours into a run. This
pass proves, before anything simulates, that each spec honors the
index contracts the engines rely on:

* the column and row index widths sum to the tier budget ``n``;
* the flat counter index (the shared formula in
  :func:`repro.predictors.specs.counter_index`) cannot exceed the
  table bounds for any reachable row/history value;
* PA-family first-level geometry is consistent (entries divisible by
  associativity — the precondition ``bht_miss_stream`` enforces at
  simulation time).

Every violation becomes a machine-readable :class:`Finding` instead of
an exception mid-sweep.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.check.findings import Finding
from repro.errors import CheckError, ConfigurationError
from repro.predictors.specs import (
    KNOWN_SCHEMES,
    PER_ADDRESS_COLUMN_SCHEMES,
    PER_ADDRESS_SCHEMES,
    ROW_MAJOR_SCHEMES,
    SET_SCHEMES,
    DEFAULT_SET_ENTRIES,
    PredictorSpec,
    max_counter_index,
)

#: Tier exponents the default verification grid covers (the paper's).
DEFAULT_SIZE_BITS: Tuple[int, ...] = tuple(range(4, 16))

#: Widest counter automaton the counter kernel's tables are built for.
MAX_SANE_COUNTER_BITS = 6


def canonical_specs() -> List[Tuple[str, PredictorSpec]]:
    """One representative configuration per registered scheme.

    The shapes mirror the paper's mid-range operating points; the goal
    is that every scheme's contract code path runs, not that every
    shape is covered (the sweep-plan verification does that).
    """
    bimodal = PredictorSpec(scheme="bimodal", cols=1024)
    gshare = PredictorSpec(scheme="gshare", rows=256, cols=4)
    shapes: Dict[str, PredictorSpec] = {
        "static": PredictorSpec(scheme="static"),
        "bimodal": bimodal,
        "gag": PredictorSpec(scheme="gag", rows=1024),
        "gas": PredictorSpec(scheme="gas", rows=64, cols=16),
        "gap": PredictorSpec(scheme="gap", rows=16),
        "gshare": gshare,
        "path": PredictorSpec(scheme="path", rows=64, cols=16),
        "pag": PredictorSpec(
            scheme="pag", rows=1024, bht_entries=512, bht_assoc=4
        ),
        "pas": PredictorSpec(
            scheme="pas", rows=64, cols=16, bht_entries=512, bht_assoc=4
        ),
        "pap": PredictorSpec(scheme="pap", rows=16),
        "sag": PredictorSpec(scheme="sag", rows=1024, bht_entries=1024),
        "sas": PredictorSpec(
            scheme="sas", rows=64, cols=16, bht_entries=1024
        ),
        "agree": PredictorSpec(scheme="agree", rows=1024),
        "bimode": PredictorSpec(scheme="bimode", rows=1024),
        "gskew": PredictorSpec(scheme="gskew", rows=1024),
        "tournament": PredictorSpec(
            scheme="tournament",
            component_a=bimodal,
            component_b=gshare,
            chooser_rows=1024,
        ),
    }
    missing = set(KNOWN_SCHEMES) - set(shapes)
    if missing:
        raise CheckError(
            f"canonical_specs lost track of schemes: {sorted(missing)}"
        )
    return [(scheme, shapes[scheme]) for scheme in KNOWN_SCHEMES]


def nearest_sound_split(
    spec: PredictorSpec, budget_bits: int
) -> Optional[PredictorSpec]:
    """Closest sound ``(c, r)`` split of ``spec`` meeting a tier budget.

    Walks every split of ``2^budget_bits`` counters, keeps those that
    both construct (``PredictorSpec.validate``) and verify clean, and
    returns the one closest to the original shape (column distance
    first, then row distance). ``None`` when no split of the budget is
    sound for the scheme.
    """
    candidates: List[Tuple[Tuple[int, int], PredictorSpec]] = []
    for col_bits in range(budget_bits + 1):
        row_bits = budget_bits - col_bits
        try:
            candidate = dataclasses.replace(
                spec, rows=1 << row_bits, cols=1 << col_bits
            )
        except ConfigurationError:
            continue
        problems = [
            finding
            for finding in verify_spec(candidate, budget_bits=budget_bits)
            if finding.severity == "error"
        ]
        if problems:
            continue
        distance = (
            abs(col_bits - spec.column_bits),
            abs(row_bits - spec.history_bits),
        )
        candidates.append((distance, candidate))
    if not candidates:
        return None
    return min(candidates, key=lambda item: item[0])[1]


def verify_spec(
    spec: PredictorSpec,
    budget_bits: Optional[int] = None,
    point: Optional[str] = None,
    fix: bool = False,
) -> List[Finding]:
    """Prove the index contracts for one constructed spec.

    With ``fix``, budget-mismatch findings carry the nearest sound
    split in ``data["suggested_split"]`` (when one exists).
    """
    findings: List[Finding] = []

    def add(check: str, severity: str, why: str, **data: Any) -> None:
        findings.append(
            Finding(
                check=check,
                severity=severity,
                why=why,
                scheme=spec.scheme,
                point=point,
                data=data,
            )
        )

    if spec.scheme == "tournament":
        for label, component in (
            ("component_a", spec.component_a),
            ("component_b", spec.component_b),
        ):
            assert component is not None  # validate() guarantees
            sub_point = f"{point or 'tournament'}.{label}"
            findings.extend(verify_spec(component, point=sub_point))
        return findings

    if budget_bits is not None and spec.scheme != "static":
        if spec.num_counters != 1 << budget_bits:
            data: Dict[str, Any] = {
                "budget_bits": budget_bits,
                "num_counters": spec.num_counters,
            }
            why = (
                f"column/row widths sum to {spec.column_bits} + "
                f"{spec.history_bits} but the tier budget is "
                f"n={budget_bits} (2^{budget_bits} counters, got "
                f"{spec.num_counters})"
            )
            if fix:
                suggestion = nearest_sound_split(spec, budget_bits)
                if suggestion is not None:
                    data["suggested_split"] = {
                        "cols": suggestion.cols,
                        "rows": suggestion.rows,
                        "point": (
                            f"c={suggestion.column_bits} "
                            f"r={suggestion.history_bits}"
                        ),
                    }
                    why += (
                        f"; nearest sound split is "
                        f"{suggestion.size_label}"
                    )
            add("config.budget", "error", why, **data)

    if spec.scheme in ROW_MAJOR_SCHEMES:
        bound = max_counter_index(spec)
        if bound >= spec.num_counters:
            add(
                "config.bounds",
                "error",
                f"flat counter index can reach {bound} but the table "
                f"holds {spec.num_counters} counters — a sweep would "
                "die on an out-of-bounds access",
                max_index=bound,
            )
    elif spec.scheme in PER_ADDRESS_COLUMN_SCHEMES:
        add(
            "config.unbounded",
            "info",
            "idealized per-address columns: second-level size grows "
            "with the static branch population (not a fixed budget)",
        )

    if spec.bht_entries is not None and spec.scheme in PER_ADDRESS_SCHEMES:
        if spec.bht_entries % spec.bht_assoc != 0:
            add(
                "config.first-level",
                "error",
                f"first-level entries ({spec.bht_entries}) are not "
                f"divisible by the associativity ({spec.bht_assoc}); "
                "bht_miss_stream would raise mid-sweep",
            )
        elif spec.bht_assoc > spec.bht_entries:
            add(
                "config.first-level",
                "error",
                f"associativity {spec.bht_assoc} exceeds the "
                f"{spec.bht_entries}-entry first level",
            )

    if spec.scheme in SET_SCHEMES:
        entries = spec.bht_entries or DEFAULT_SET_ENTRIES
        if entries & (entries - 1):
            add(
                "config.first-level",
                "error",
                f"per-set table size {entries} is not a power of two; "
                "the direct index would leave sets unreachable",
            )

    if not 1 <= spec.counter_bits <= MAX_SANE_COUNTER_BITS:
        add(
            "config.counter-bits",
            "warning",
            f"{spec.counter_bits}-bit counters are outside the sane "
            f"range 1..{MAX_SANE_COUNTER_BITS}; the automaton tables "
            "grow as 2^bits",
        )
    return findings


def verify_spec_dict(
    kwargs: Dict[str, Any], origin: str, fix: bool = False
) -> List[Finding]:
    """Construct-and-verify a spec given as plain keyword data.

    Construction failures (the contract violations
    ``PredictorSpec.validate`` rejects) become error findings rather
    than exceptions, so one bad spec in a file does not hide the rest.
    A ``"budget_bits"`` key is not part of the spec itself: it declares
    the tier the spec must fill, enabling budget verification (and,
    with ``fix``, split suggestions) for file-supplied specs.
    """
    materialized = dict(kwargs)
    budget_bits = materialized.pop("budget_bits", None)
    if budget_bits is not None and not isinstance(budget_bits, int):
        return [
            Finding(
                check="config.contract",
                severity="error",
                why=(
                    "budget_bits must be an integer tier exponent, "
                    f"got {budget_bits!r}"
                ),
                scheme=str(kwargs.get("scheme", "?")),
                point=origin,
            )
        ]
    try:
        spec = _spec_from_dict(materialized)
    except ConfigurationError as error:
        return [
            Finding(
                check="config.contract",
                severity="error",
                why=str(error),
                scheme=str(kwargs.get("scheme", "?")),
                point=origin,
            )
        ]
    except (TypeError, ValueError) as error:
        return [
            Finding(
                check="config.contract",
                severity="error",
                why=f"spec data does not describe a configuration: {error}",
                scheme=str(kwargs.get("scheme", "?")),
                point=origin,
            )
        ]
    return verify_spec(spec, budget_bits=budget_bits, point=origin, fix=fix)


def _spec_from_dict(kwargs: Dict[str, Any]) -> PredictorSpec:
    materialized = dict(kwargs)
    for key in ("component_a", "component_b"):
        if isinstance(materialized.get(key), dict):
            materialized[key] = _spec_from_dict(materialized[key])
    return PredictorSpec(**materialized)


def load_spec_file(path: str) -> List[Dict[str, Any]]:
    """Read a JSON spec file: a list of spec objects or {"specs": [...]}."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise CheckError(f"cannot read spec file {path!r}: {error}") from error
    if isinstance(payload, dict):
        payload = payload.get("specs")
    if not isinstance(payload, list) or not all(
        isinstance(item, dict) for item in payload
    ):
        raise CheckError(
            f"spec file {path!r} must hold a JSON list of spec objects "
            "(or {\"specs\": [...]})"
        )
    return payload


def verify_sweep_plan(
    scheme: str,
    size_bits: Iterable[int],
    bht_entries: Optional[int] = None,
    bht_assoc: int = 4,
    row_bits_filter: Optional[Sequence[int]] = None,
    counter_bits: int = 2,
) -> List[Finding]:
    """Verify every point a :func:`repro.sim.sweep.sweep_tiers` call
    would visit, without simulating any of them."""
    from repro.sim.sweep import spec_for_point

    findings: List[Finding] = []
    for n in size_bits:
        for row_bits in range(n + 1):
            if row_bits_filter is not None and row_bits not in row_bits_filter:
                continue
            point = f"n={n} c={n - row_bits} r={row_bits}"
            try:
                spec = spec_for_point(
                    scheme,
                    col_bits=n - row_bits,
                    row_bits=row_bits,
                    bht_entries=bht_entries,
                    bht_assoc=bht_assoc,
                    counter_bits=counter_bits,
                )
            except ConfigurationError as error:
                findings.append(
                    Finding(
                        check="config.contract",
                        severity="error",
                        why=str(error),
                        scheme=scheme,
                        point=point,
                    )
                )
                continue
            findings.extend(
                verify_spec(spec, budget_bits=n, point=point)
            )
    return findings


def check_configs(
    spec_dicts: Optional[List[Dict[str, Any]]] = None,
    schemes: Optional[Sequence[str]] = None,
    size_bits: Optional[Sequence[int]] = None,
    fix: bool = False,
) -> List[Finding]:
    """The full configs pass.

    Verifies the canonical spec of every registered scheme, the whole
    sweep grid of every sweepable scheme (with and without a realistic
    first level for the PA family), and — when given — externally
    supplied spec data. ``fix`` attaches nearest-sound-split
    suggestions to budget mismatches.
    """
    from repro.sim.sweep import SWEEPABLE_SCHEMES

    findings: List[Finding] = []
    verified = 0
    for label, spec in canonical_specs():
        findings.extend(verify_spec(spec, point=f"canonical:{label}"))
        verified += 1

    grid = tuple(size_bits) if size_bits is not None else DEFAULT_SIZE_BITS
    sweep_schemes = (
        tuple(schemes) if schemes is not None else SWEEPABLE_SCHEMES
    )
    points = 0
    for scheme in sweep_schemes:
        plans: List[Tuple[Optional[int], int]] = [(None, 4)]
        if scheme in PER_ADDRESS_SCHEMES:
            plans.append((512, 4))  # realistic tagged first level
        for entries, assoc in plans:
            findings.extend(
                verify_sweep_plan(
                    scheme, grid, bht_entries=entries, bht_assoc=assoc
                )
            )
            points += sum(n + 1 for n in grid)

    if spec_dicts:
        for index, kwargs in enumerate(spec_dicts):
            findings.extend(
                verify_spec_dict(kwargs, origin=f"spec[{index}]", fix=fix)
            )
            verified += 1

    findings.append(
        Finding(
            check="config.coverage",
            severity="info",
            why=(
                f"verified {verified} specs and {points} sweep points "
                f"across {len(sweep_schemes)} schemes"
            ),
            data={"specs": verified, "sweep_points": points},
        )
    )
    return findings
