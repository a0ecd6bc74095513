"""``repro.lint`` — domain-aware static analysis for this repository.

An AST-based checker framework with domain rules the generic linters
cannot express: lock-order cycles across the service and runtime
layers, blocking work under locks, allocator reservations that can
escape without release, nondeterminism inside the reproducible engine,
impure cache-key functions, and metric/trace naming hygiene.

Run it as ``python -m repro lint [paths...]``; see
``python -m repro lint --list-rules`` for the rule table.
"""

from __future__ import annotations

from repro.lint.core import Checker, Finding, LintConfig, Rule, SourceFile
from repro.lint.output import FORMATS, render
from repro.lint.runner import (
    LintResult,
    all_rules,
    discover_files,
    run_lint,
)

__all__ = [
    "Checker",
    "FORMATS",
    "Finding",
    "LintConfig",
    "LintResult",
    "Rule",
    "SourceFile",
    "all_rules",
    "discover_files",
    "render",
    "run_lint",
]
