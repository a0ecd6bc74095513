"""Lint driver: discover files, run every checker, filter, report.

The runner maps file paths to dotted module names relative to the
``src`` root (so scope checks like "is this repro.runtime?" work), runs
every registered checker over the whole file set at once, then applies
the inline suppressions — the one exemption mechanism, policed by
RPL090 — and returns a :class:`LintResult` with full accounting of
what was filtered (suppressed findings are counted, never silent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.checkers import all_checkers
from repro.lint.core import Checker, Finding, LintConfig, Rule, SourceFile

__all__ = [
    "LintResult",
    "discover_files",
    "run_lint",
]


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors


def _module_name(path: Path, roots: list[Path]) -> str:
    """Dotted module name for *path*, relative to the innermost root."""
    resolved = path.resolve()
    for root in roots:
        try:
            rel = resolved.relative_to(root.resolve())
        except ValueError:
            continue
        parts = list(rel.parts)
        if parts[-1] == "__init__.py":
            parts = parts[:-1]
        else:
            parts[-1] = parts[-1][: -len(".py")]
        return ".".join(parts) if parts else path.stem
    return path.stem


def discover_files(
    paths: list[Path], *, src_roots: list[Path] | None = None
) -> tuple[list[SourceFile], list[tuple[str, str]]]:
    """Parse every ``.py`` under *paths*; returns (files, parse_errors)."""
    roots = src_roots or []
    py_files: list[Path] = []
    for p in paths:
        if p.is_dir():
            py_files.extend(sorted(p.rglob("*.py")))
            # a directory argument that contains src-layout packages is
            # its own module root (e.g. `src` or a fixture tree)
            roots.append(p)
        elif p.suffix == ".py":
            py_files.append(p)
            roots.append(p.parent)
    files: list[SourceFile] = []
    errors: list[tuple[str, str]] = []
    seen: set[Path] = set()
    for path in py_files:
        resolved = path.resolve()
        if resolved in seen:
            continue
        seen.add(resolved)
        try:
            text = path.read_text()
            files.append(
                SourceFile.parse(path, _module_name(path, roots), text)
            )
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            errors.append((str(path), f"{type(exc).__name__}: {exc}"))
    return files, errors


def run_lint(
    paths: list[Path],
    *,
    config: LintConfig | None = None,
    checkers: list[Checker] | None = None,
    src_roots: list[Path] | None = None,
) -> LintResult:
    config = config or LintConfig()
    checkers = checkers if checkers is not None else all_checkers()
    files, parse_errors = discover_files(paths, src_roots=src_roots)
    by_path = {str(sf.path): sf for sf in files}

    raw = [f for checker in checkers for f in checker.check(files, config)]
    raw.sort(key=Finding.sort_key)

    result = LintResult(
        files_checked=len(files), parse_errors=parse_errors
    )
    for finding in raw:
        sf = by_path.get(finding.path)
        if sf is not None and sf.is_suppressed(finding):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    return result


def all_rules(checkers: list[Checker] | None = None) -> list[Rule]:
    """Every rule across the checker set, sorted by id."""
    checkers = checkers if checkers is not None else all_checkers()
    rules: list[Rule] = []
    for checker in checkers:
        rules.extend(checker.rules)
    return sorted(rules, key=lambda r: r.rule_id)
