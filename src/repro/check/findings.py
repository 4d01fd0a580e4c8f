"""Machine-readable findings: the common currency of every check pass.

A :class:`Finding` is one verified statement about the repo or a
configuration — an unsound spec, a hot-path regression, a predicted
alias hotspot. Passes produce findings; the :class:`CheckReport`
aggregates them, renders them for humans or as JSON, and maps them to
the command's exit code (0 clean, 1 findings, 2 internal error — the
internal-error path is :class:`repro.errors.CheckError`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import CheckError

#: Ordered severities, mildest first.
SEVERITIES: Tuple[str, ...] = ("info", "warning", "error")


@dataclass(frozen=True)
class Finding:
    """One statement emitted by a check pass.

    ``check`` identifies the rule (``config.budget``,
    ``code.hot-loop``, ``predict.hard-branch`` ...), ``why`` is the
    human-readable justification, and the optional coordinates say
    where: ``scheme``/``point`` for configuration-space findings,
    ``location`` (``path:line``) for source findings.
    """

    check: str
    severity: str
    why: str
    scheme: Optional[str] = None
    point: Optional[str] = None
    location: Optional[str] = None
    data: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise CheckError(
                f"finding severity must be one of {SEVERITIES}, "
                f"got {self.severity!r}"
            )

    def to_json(self) -> Dict[str, Any]:
        """Plain-dict view (stable keys; None coordinates omitted)."""
        out: Dict[str, Any] = {
            "check": self.check,
            "severity": self.severity,
            "why": self.why,
        }
        for key in ("scheme", "point", "location"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.data:
            out["data"] = dict(self.data)
        return out

    def render(self) -> str:
        """One-line human rendering: ``severity check [where]: why``."""
        where = self.location or " ".join(
            part
            for part in (self.scheme, self.point)
            if part is not None
        )
        coordinates = f" [{where}]" if where else ""
        return f"{self.severity:7s} {self.check}{coordinates}: {self.why}"


@dataclass
class CheckReport:
    """Findings of one ``repro check`` invocation, plus pass bookkeeping."""

    passes: List[str] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)

    def extend(self, pass_name: str, findings: List[Finding]) -> None:
        self.passes.append(pass_name)
        self.findings.extend(findings)

    def count(self, severity: str) -> int:
        return sum(1 for f in self.findings if f.severity == severity)

    @property
    def counts(self) -> Dict[str, int]:
        return {severity: self.count(severity) for severity in SEVERITIES}

    def blocking(self, strict: bool = False) -> List[Finding]:
        """Findings that fail the run (errors; warnings too if strict)."""
        floor = ("error",) if not strict else ("error", "warning")
        return [f for f in self.findings if f.severity in floor]

    def exit_code(self, strict: bool = False) -> int:
        """0 clean, 1 findings. (2 = internal error, raised not returned.)"""
        return 1 if self.blocking(strict) else 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "passes": list(self.passes),
            "counts": self.counts,
            "findings": [f.to_json() for f in self.findings],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=False)

    def render_text(self, strict: bool = False) -> str:
        lines = [f.render() for f in self.findings]
        counts = self.counts
        summary = (
            f"repro check [{', '.join(self.passes)}]: "
            f"{counts['error']} error(s), {counts['warning']} warning(s), "
            f"{counts['info']} note(s)"
        )
        verdict = "FAIL" if self.exit_code(strict) else "OK"
        lines.append(f"{summary} -> {verdict}")
        return "\n".join(lines)
