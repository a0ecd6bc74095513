"""Core model of the ``repro.lint`` framework.

The framework is deliberately small: a :class:`SourceFile` wraps one
parsed module (path, AST, inline suppressions), a :class:`Rule` is the
immutable identity of one diagnostic (``RPL0xx`` id, severity, fix
hint), a :class:`Finding` is one concrete diagnostic at one location,
and a :class:`Checker` turns a *whole program* (every source file at
once) into findings.  Checkers get the whole file set — not one file at
a time — because the program-scope rules read a cross-module call
graph; per-file checkers simply iterate.

Inline suppressions use the grammar::

    x = risky()          # repro-lint: disable=RPL002 -- why it is fine
    # repro-lint: disable-file=RPL010 -- whole-module opt-out

A same-line ``disable`` silences the named rules (or all rules when no
ids are given) for findings reported on that line; ``disable-file``
silences them for the whole module.  Suppressions are counted, never
silent: the runner reports how many findings each run suppressed.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Checker",
    "Finding",
    "LintConfig",
    "Rule",
    "Severity",
    "SourceFile",
    "Suppression",
    "registry",
]

#: Ordered severities; ``error`` gates CI, ``warning`` still fails the
#: run (a warning you never read is a comment), the split exists so
#: output consumers can triage.
Severity = str
SEVERITIES: tuple[Severity, ...] = ("error", "warning")

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?P<scope>-file)?"
    r"(?:\s*=\s*(?P<rules>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*))?"
    r"(?:\s*--\s*(?P<why>\S.*))?"
)


def _iter_comments(text: str) -> list[tuple[int, str]]:
    """``(line, comment-text)`` for every *real* comment token.

    Tokenizing (rather than regex-scanning raw lines) keeps suppression
    grammar shown inside docstrings — the framework documents itself —
    from being honored or flagged as if it were live.
    """
    try:
        return [
            (tok.start[0], tok.string)
            for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # unlikely (the file already parsed), but fall back to raw lines
        return list(enumerate(text.splitlines(), start=1))


@dataclass(frozen=True)
class Rule:
    """Immutable identity of one diagnostic."""

    rule_id: str
    name: str
    severity: Severity
    summary: str
    hint: str = ""

    def __post_init__(self) -> None:
        if not re.fullmatch(r"RPL\d{3}", self.rule_id):
            raise ValueError(f"rule id {self.rule_id!r} is not RPLxxx")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")


@dataclass(frozen=True)
class Finding:
    """One diagnostic at one location."""

    rule_id: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def sort_key(self) -> tuple[str, int, int, str, str]:
        return (self.path, self.line, self.col, self.rule_id, self.message)


@dataclass(frozen=True)
class Suppression:
    """One inline ``# repro-lint: disable`` comment, as written.

    ``rules`` is None for a bare ``disable`` (all rules); ``why`` is the
    text after ``--`` (empty when the author skipped the justification —
    which RPL090 counts as a warning of its own).
    """

    line: int
    file_scope: bool
    rules: frozenset[str] | None
    why: str = ""

    @property
    def justified(self) -> bool:
        return bool(self.why.strip())


@dataclass
class SourceFile:
    """One parsed module plus its inline suppressions."""

    path: Path
    module: str
    text: str
    tree: ast.Module
    line_suppressions: dict[int, frozenset[str] | None] = field(
        default_factory=dict
    )
    file_suppressions: frozenset[str] | None | bool = False
    suppressions: list[Suppression] = field(default_factory=list)

    def is_suppressed(self, finding: Finding) -> bool:
        if finding.rule_id == "RPL090":
            # the unjustified-suppression warning cannot be silenced by
            # the very comment it flags: only an *explicit* RPL090
            # mention counts (bare blanket disables do not)
            return any(
                s.rules is not None
                and "RPL090" in s.rules
                and (s.file_scope or s.line == finding.line)
                for s in self.suppressions
            )
        if self.file_suppressions is None:
            return True
        if self.file_suppressions and isinstance(
            self.file_suppressions, frozenset
        ):
            if finding.rule_id in self.file_suppressions:
                return True
        rules = self.line_suppressions.get(finding.line, False)
        if rules is None:
            return True
        if rules and finding.rule_id in rules:
            return True
        return False

    @classmethod
    def parse(cls, path: Path, module: str, text: str) -> "SourceFile":
        tree = ast.parse(text, filename=str(path))
        line_sup: dict[int, frozenset[str] | None] = {}
        file_sup: frozenset[str] | None | bool = False
        comments: list[Suppression] = []
        for lineno, comment in _iter_comments(text):
            m = _SUPPRESS_RE.search(comment)
            if m is None:
                continue
            rules = m.group("rules")
            parsed: frozenset[str] | None = (
                frozenset(r.strip() for r in rules.split(",")) if rules else None
            )
            comments.append(
                Suppression(
                    line=lineno,
                    file_scope=bool(m.group("scope")),
                    rules=parsed,
                    why=m.group("why") or "",
                )
            )
            if m.group("scope"):
                if file_sup is None or parsed is None:
                    file_sup = None
                elif file_sup is False:
                    file_sup = parsed
                else:
                    file_sup = file_sup | parsed
            else:
                existing = line_sup.get(lineno, frozenset())
                if parsed is None or existing is None:
                    line_sup[lineno] = None
                else:
                    line_sup[lineno] = existing | parsed
        return cls(
            path=path,
            module=module,
            text=text,
            tree=tree,
            line_suppressions=line_sup,
            file_suppressions=file_sup,
            suppressions=comments,
        )


@dataclass
class LintConfig:
    """Repo-invariant knobs the domain checkers read.

    The defaults encode *this* repository's contracts; tests override
    them to point the checkers at fixture modules.
    """

    #: module prefixes the whole-program concurrency analysis covers
    concurrency_modules: tuple[str, ...] = (
        "repro.service",
        "repro.runtime",
        "repro.gpu",
        "repro.parallel",
        "repro.cluster",
        "repro.api",
    )
    #: modules that promise bit-for-bit reproducible behaviour
    deterministic_modules: tuple[str, ...] = (
        "repro.runtime.events",
        "repro.runtime.engine",
        "repro.runtime.faults",
        "repro.verify",
        "repro.bench",
        "repro.cluster",
        "repro.service.cache",
        "repro.service.tiers",
        "repro.multifrontal.batched",
        "repro.symbolic.supernodes",
    )
    #: modules whose functions feed cache keys (plus any ``*_key`` fn)
    key_modules: tuple[str, ...] = ("repro.service.keys",)
    #: modules exempt from the allocator-ownership rule (the allocator
    #: implementation itself has nothing to release)
    allocator_impl_modules: tuple[str, ...] = ("repro.gpu.allocator",)
    #: engine-name kinds accepted by the trace exporter; mirrors
    #: ``repro.gpu.trace._ENGINE_ORDER``
    engine_kinds: tuple[str, ...] = ("cpu", "gpu", "nic")
    #: calls that are expensive enough to count as "blocking" when made
    #: while a lock is held (domain knowledge: these factor matrices or
    #: train models)
    expensive_calls: frozenset[str] = frozenset(
        {
            "train_default_classifier",
            "factorize",
            "analyze",
            "symbolic_factorize",
            "solve_factored",
            "iterative_refinement",
            "factorize_numeric",
            "parallel_schedule",
            "postorder_numeric_factor",
        }
    )

    #: modules whose surface is the public wire (``/v1`` envelopes and
    #: metric expositions) — where the RPL08x hygiene sinks live
    wire_modules: tuple[str, ...] = ("repro.api",)
    #: exception classes whose text is *crafted* for the wire (their
    #: message is the public contract, not leaked internals)
    wire_safe_exceptions: tuple[str, ...] = ("ApiError",)
    #: functions that scrub exception/path taint from a value before it
    #: goes on the wire (the sanctioned laundering points)
    wire_sanitizers: tuple[str, ...] = ("public_message",)
    #: minimum fraction of non-``__init__`` accesses that must hold one
    #: lock before guard inference (RPL070/071) calls the attribute
    #: lock-guarded
    guard_majority: float = 2 / 3

    def engine_kinds_tuple(self) -> tuple[str, ...]:
        try:
            from repro.gpu.trace import _ENGINE_ORDER

            return tuple(_ENGINE_ORDER)
        except ImportError:  # pragma: no cover - trace always importable
            return self.engine_kinds


class Checker:
    """Base class: a named pass producing findings over the file set."""

    #: rules this checker may emit (drives ``--list-rules`` and docs)
    rules: tuple[Rule, ...] = ()

    def check(
        self, files: list[SourceFile], config: LintConfig
    ) -> list[Finding]:  # pragma: no cover - abstract
        raise NotImplementedError

    def rule(self, rule_id: str) -> Rule:
        for r in self.rules:
            if r.rule_id == rule_id:
                return r
        raise KeyError(rule_id)

    def finding(
        self,
        rule_id: str,
        sf: SourceFile,
        node: ast.AST | None,
        message: str,
        *,
        hint: str | None = None,
    ) -> Finding:
        r = self.rule(rule_id)
        line = getattr(node, "lineno", 1) if node is not None else 1
        col = getattr(node, "col_offset", 0) if node is not None else 0
        return Finding(
            rule_id=r.rule_id,
            severity=r.severity,
            path=str(sf.path),
            line=int(line),
            col=int(col),
            message=message,
            hint=hint if hint is not None else r.hint,
        )


#: every registered checker class, in registration order
registry: list[type[Checker]] = []


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker to the global registry."""
    registry.append(cls)
    return cls


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None
