"""Findings and the shared text/JSON reporters.

Both analysis prongs (linter, race detector, sanitizer) normalize their
output into :class:`Finding` so one reporter serves ``python -m repro
lint`` and the sanitizer's divergence reports alike.  The JSON form is
a stable schema (``repro.analysis/v1``) for CI annotation tooling;
``python -m repro gate`` writes its own ``repro.gate/v1`` report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

__all__ = ["Finding", "format_findings"]


@dataclass(frozen=True)
class Finding:
    """One reported problem, anchored to a source (or trace) location."""

    rule: str            # rule id (D001..) or "RACE" / "DIVERGENCE"
    severity: str        # "error" | "warning"
    path: str            # file path, or a logical location for dynamic findings
    line: int            # 1-based; 0 when no source anchor exists
    col: int             # 0-based column offset
    message: str
    hint: str = ""
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.hint:
            out["hint"] = self.hint
        if self.detail:
            out["detail"] = dict(sorted(self.detail.items()))
        return out


def _sort_key(finding: Finding) -> tuple:
    return (finding.path, finding.line, finding.col, finding.rule)


def format_findings(findings: Sequence[Finding], fmt: str = "text",
                    tool: str = "repro-lint") -> str:
    """Render findings as a text report or one ``repro.analysis/v1`` blob."""
    ordered = sorted(findings, key=_sort_key)
    if fmt == "json":
        blob = {
            "schema": "repro.analysis/v1",
            "tool": tool,
            "findings": [finding.to_dict() for finding in ordered],
            "summary": _summary(ordered),
        }
        return json.dumps(blob, indent=2, sort_keys=True)
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    if not ordered:
        return f"{tool}: clean (0 findings)"
    lines: List[str] = []
    for finding in ordered:
        where = (f"{finding.path}:{finding.line}:{finding.col + 1}"
                 if finding.line else finding.path)
        lines.append(f"{where}: {finding.severity} {finding.rule}: "
                     f"{finding.message}")
        if finding.hint:
            lines.append(f"    hint: {finding.hint}")
    counts = _summary(ordered)
    lines.append(f"{tool}: {counts['total']} finding(s) "
                 f"({counts['errors']} error, {counts['warnings']} warning)")
    return "\n".join(lines)


def _summary(findings: Sequence[Finding]) -> Dict[str, int]:
    return {
        "total": len(findings),
        "errors": sum(1 for f in findings if f.severity == "error"),
        "warnings": sum(1 for f in findings if f.severity == "warning"),
    }
