"""Render a :class:`LintResult` as text, JSON, GitHub, or SARIF.

All formats emit findings in a deterministic order (path, line,
column, rule id) so golden tests and CI diffs are stable.  The SARIF
renderer targets SARIF 2.1.0 — the interchange format GitHub code
scanning ingests — and includes the full rule catalogue in the tool
descriptor so suppressed runs still document what was checked.
"""

from __future__ import annotations

import json

from repro.lint.core import Finding, Rule
from repro.lint.runner import LintResult

__all__ = ["FORMATS", "render"]

FORMATS = ("text", "json", "github", "sarif")

SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render(
    result: LintResult, fmt: str, *, rules: list[Rule] | None = None
) -> str:
    if fmt == "text":
        return _render_text(result)
    if fmt == "json":
        return _render_json(result)
    if fmt == "github":
        return _render_github(result)
    if fmt == "sarif":
        return _render_sarif(result, rules or [])
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _line(f: Finding) -> str:
    hint = f"  [hint: {f.hint}]" if f.hint else ""
    return (
        f"{f.path}:{f.line}:{f.col + 1}: {f.rule_id} "
        f"{f.severity}: {f.message}{hint}"
    )


def _render_text(result: LintResult) -> str:
    lines = [_line(f) for f in result.findings]
    for path, err in result.parse_errors:
        lines.append(f"{path}:1:1: RPL000 error: unparseable file ({err})")
    summary = (
        f"{len(result.findings)} finding(s) in "
        f"{result.files_checked} file(s)"
    )
    if result.suppressed:
        summary += f" ({len(result.suppressed)} suppressed inline)"
    lines.append(summary)
    return "\n".join(lines)


def _finding_dict(f: Finding) -> dict[str, object]:
    return {
        "rule_id": f.rule_id,
        "severity": f.severity,
        "path": f.path,
        "line": f.line,
        "col": f.col,
        "message": f.message,
        "hint": f.hint,
    }


def _render_json(result: LintResult) -> str:
    payload = {
        "ok": result.ok,
        "files_checked": result.files_checked,
        "findings": [_finding_dict(f) for f in result.findings],
        "suppressed": [_finding_dict(f) for f in result.suppressed],
        "parse_errors": [
            {"path": p, "error": e} for p, e in result.parse_errors
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _render_github(result: LintResult) -> str:
    """GitHub Actions workflow-command annotations."""
    lines = []
    for f in result.findings:
        level = "error" if f.severity == "error" else "warning"
        message = f.message.replace("\n", " ")
        if f.hint:
            message += f" (hint: {f.hint})"
        lines.append(
            f"::{level} file={f.path},line={f.line},col={f.col + 1},"
            f"title={f.rule_id}::{message}"
        )
    for path, err in result.parse_errors:
        lines.append(
            f"::error file={path},line=1,title=RPL000::unparseable "
            f"file ({err})"
        )
    return "\n".join(lines)


def _sarif_level(severity: str) -> str:
    return "error" if severity == "error" else "warning"


def _sarif_result(f: Finding, *, suppressed: bool = False) -> dict[str, object]:
    out: dict[str, object] = {
        "ruleId": f.rule_id,
        "level": _sarif_level(f.severity),
        "message": {
            "text": f.message + (f"\nhint: {f.hint}" if f.hint else "")
        },
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": f.path.replace("\\", "/"),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": max(f.line, 1),
                        "startColumn": f.col + 1,
                    },
                }
            }
        ],
    }
    if suppressed:
        out["suppressions"] = [
            {
                "kind": "inSource",
                "justification": "inline repro-lint suppression",
            }
        ]
    return out


def _render_sarif(result: LintResult, rules: list[Rule]) -> str:
    """SARIF 2.1.0 — one run, full rule catalogue, suppressions kept."""
    results = [_sarif_result(f) for f in result.findings]
    results += [
        _sarif_result(f, suppressed=True) for f in result.suppressed
    ]
    for path, err in result.parse_errors:
        results.append(
            {
                "ruleId": "RPL000",
                "level": "error",
                "message": {"text": f"unparseable file ({err})"},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": path.replace("\\", "/"),
                                "uriBaseId": "SRCROOT",
                            },
                            "region": {"startLine": 1, "startColumn": 1},
                        }
                    }
                ],
            }
        )
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://example.invalid/repro-lint"
                        ),
                        "rules": [
                            {
                                "id": r.rule_id,
                                "name": r.name,
                                "shortDescription": {"text": r.summary},
                                "help": {"text": r.hint or r.summary},
                                "defaultConfiguration": {
                                    "level": _sarif_level(r.severity)
                                },
                            }
                            for r in sorted(
                                rules, key=lambda r: r.rule_id
                            )
                        ],
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
