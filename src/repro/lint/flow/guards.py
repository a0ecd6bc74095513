"""Guard inference (RPL070–072): a static race detector.

Instead of asking the author which lock protects which attribute, the
pass infers it from the program itself: for every class that owns at
least one lock, every ``self.<attr>`` access in every method is
recorded together with the set of class locks held at that point.
When a clear majority (:attr:`LintConfig.guard_majority`) of an
attribute's accesses hold the same lock, that lock is the attribute's
*inferred guard* — and the minority accesses are the bugs:

* **RPL070** (error) — a write without the inferred guard;
* **RPL071** (warning) — a read without the inferred guard;
* **RPL072** (warning) — an access holding a *different* class lock
  than the inferred one (two half-guarded critical sections do not
  exclude each other).

Held-lock context is interprocedural: a private helper's entry-held
set is the intersection, over every internal call site, of the locks
held at the site plus the caller's own entry set (``_pop_locked`` is
guarded because every caller holds the condition).  Public methods are
assumed callable with no locks held; never-called private helpers are
given the benefit of the doubt.

Aliasing matters: ``self._cond = Condition(self._lock)`` wraps the
same mutex, so both identities canonicalize to the underlying lock
before counting.  ``__init__`` (construction happens-before any
sharing) and ``__repr__``/``__str__`` (best-effort debug output) are
exempt from both counting and flagging.  Attributes never written
outside ``__init__`` are immutable-after-construction and need no
guard.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.core import LintConfig, SourceFile
from repro.lint.flow.callgraph import (
    FlowFinding,
    ProgramIndex,
    calls_in,
    self_attr,
    stmt_exprs,
)

__all__ = ["run_guard_inference"]

_EXEMPT_METHODS = {"__init__", "__new__", "__repr__", "__str__", "__del__"}


@dataclass
class _Access:
    cls: str
    attr: str
    write: bool
    method_key: str
    module: str
    line: int
    col: int
    held: frozenset[str]


class _ClassWalker:
    """Collects attribute accesses + internal call sites for one class."""

    def __init__(
        self,
        index: ProgramIndex,
        sf: SourceFile,
        cls: str,
        class_locks: frozenset[str],
    ):
        self.index = index
        self.sf = sf
        self.cls = cls
        self.class_locks = class_locks
        self.accesses: list[_Access] = []
        #: (caller_key, callee_key, held-at-site)
        self.call_sites: list[tuple[str, str, frozenset[str]]] = []

    def _own_lock(self, expr: ast.expr) -> str | None:
        """The lock *expr* denotes, if it is one of this class's own."""
        lid = self.index.lock_id(self.sf, self.cls, expr)
        return lid if lid in self.class_locks else None

    def walk_method(
        self, method_key: str, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._method_key = method_key
        self._walk(list(fn.body), frozenset())

    def _walk(self, stmts: list[ast.stmt], held: frozenset[str]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = set(held)
                for item in stmt.items:
                    lid = self._own_lock(item.context_expr)
                    if lid is not None:
                        inner.add(lid)
                    else:
                        self._record_exprs([item.context_expr], held)
                self._walk(stmt.body, frozenset(inner))
                continue
            held = self._scan_stmt(stmt, held)
            for attr in ("body", "orelse", "finalbody"):
                block = getattr(stmt, attr, None)
                if block:
                    self._walk(block, held)
            for handler in getattr(stmt, "handlers", []) or []:
                self._walk(handler.body, held)

    def _scan_stmt(
        self, stmt: ast.stmt, held: frozenset[str]
    ) -> frozenset[str]:
        exprs = stmt_exprs(stmt)
        # manual acquire/release within a statement sequence
        taken = set(held)
        for expr in exprs:
            for call in calls_in(expr):
                if isinstance(call.func, ast.Attribute):
                    lid = self._own_lock(call.func.value)
                    if lid is not None and call.func.attr == "acquire":
                        taken.add(lid)
                        continue
                    if lid is not None and call.func.attr == "release":
                        taken.discard(lid)
                        continue
                key = self.index.resolve_call(self.sf, self.cls, call)
                if key is not None:
                    self.call_sites.append(
                        (self._method_key, key, frozenset(taken))
                    )
        self._record_exprs(exprs, frozenset(taken))
        return frozenset(taken)

    def _record_exprs(
        self, exprs: list[ast.expr], held: frozenset[str]
    ) -> None:
        for expr in exprs:
            for node in ast.walk(expr):
                if not isinstance(node, ast.Attribute):
                    continue
                if self_attr(node) is None or self._own_lock(node):
                    continue  # not shared data: not ours, or a lock itself
                write = isinstance(node.ctx, (ast.Store, ast.Del))
                self.accesses.append(
                    _Access(
                        cls=self.cls,
                        attr=node.attr,
                        write=write,
                        method_key=self._method_key,
                        module=self.sf.module,
                        line=node.lineno,
                        col=node.col_offset,
                        held=held,
                    )
                )


def _entry_held(
    index: ProgramIndex,
    call_sites: list[tuple[str, str, frozenset[str]]],
    method_keys: set[str],
) -> dict[str, frozenset[str] | None]:
    """Fixpoint over call sites: ``entry[m]`` is the lock set held on
    *every* internal path into ``m``.  ``None`` is ⊤ (never called)."""
    entry: dict[str, frozenset[str] | None] = {}
    for key in method_keys:
        info = index.functions[key]
        is_private = info.name.startswith("_") and not info.name.startswith(
            "__"
        )
        entry[key] = None if is_private else frozenset()
    for _ in range(len(method_keys) + 2):
        changed = False
        for caller, callee, held in call_sites:
            if callee not in entry:
                continue
            base = entry.get(caller, frozenset())
            if base is None:
                continue  # caller itself unreached so far
            eff = held | base
            cur = entry[callee]
            new = eff if cur is None else cur & eff
            if new != cur:
                entry[callee] = new
                changed = True
        if not changed:
            break
    return entry


def run_guard_inference(
    index: ProgramIndex, config: LintConfig
) -> list[FlowFinding]:
    findings: list[FlowFinding] = []
    # group locks by owning class ("Cls.attr" identities only)
    class_locks: dict[str, set[str]] = {}
    for lid in index.locks:
        if ":" in lid:
            continue
        cls, _ = lid.split(".", 1)
        class_locks.setdefault(cls, set()).add(lid)

    for sf in index.files:
        for cls_node in sf.tree.body:
            if not isinstance(cls_node, ast.ClassDef):
                continue
            cls = cls_node.name
            locks = frozenset(
                index.lock_aliases.get(lid, lid)
                for lid in class_locks.get(cls, set())
            )
            if not locks:
                continue
            walker = _ClassWalker(index, sf, cls, locks)
            method_keys: set[str] = set()
            for sub in cls_node.body:
                if not isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                key = f"{sf.module}:{cls}.{sub.name}"
                method_keys.add(key)
                walker.walk_method(key, sub)
            entry = _entry_held(index, walker.call_sites, method_keys)
            findings.extend(
                _judge_class(index, walker, entry, locks, config)
            )
    return findings


def _judge_class(
    index: ProgramIndex,
    walker: _ClassWalker,
    entry: dict[str, frozenset[str] | None],
    locks: frozenset[str],
    config: LintConfig,
) -> list[FlowFinding]:
    findings: list[FlowFinding] = []
    by_attr: dict[str, list[tuple[_Access, frozenset[str]]]] = {}
    for acc in walker.accesses:
        info = index.functions.get(acc.method_key)
        if info is None or info.name in _EXEMPT_METHODS:
            continue
        base = entry.get(acc.method_key, frozenset())
        if base is None:
            continue  # unreached private helper: benefit of the doubt
        by_attr.setdefault(acc.attr, []).append((acc, acc.held | base))

    # writes outside __init__ (exempt methods already filtered out)
    for attr in sorted(by_attr):
        rows = by_attr[attr]
        if not any(acc.write for acc, _ in rows):
            continue  # immutable after construction
        total = len(rows)
        counts: dict[str, int] = {}
        for _, held in rows:
            for lid in held & locks:
                counts[lid] = counts.get(lid, 0) + 1
        if not counts or total < 3:
            continue
        guard = max(sorted(counts), key=lambda lid: counts[lid])
        guarded = counts[guard]
        if guarded < 2 or guarded / total < config.guard_majority:
            continue
        for acc, held in rows:
            if guard in held:
                continue
            if held & locks:
                findings.append(
                    FlowFinding(
                        "RPL072", acc.module, acc.line, acc.col,
                        f"{acc.cls}.{acc.attr} is guarded by {guard} at "
                        f"{guarded}/{total} accesses, but this one holds "
                        f"{', '.join(sorted(held & locks))} instead — two "
                        "different locks do not exclude each other",
                    )
                )
            elif acc.write:
                findings.append(
                    FlowFinding(
                        "RPL070", acc.module, acc.line, acc.col,
                        f"unguarded write to {acc.cls}.{acc.attr}: "
                        f"{guarded}/{total} of its accesses hold {guard}, "
                        "this write holds no lock",
                    )
                )
            else:
                findings.append(
                    FlowFinding(
                        "RPL071", acc.module, acc.line, acc.col,
                        f"unguarded read of {acc.cls}.{acc.attr}: "
                        f"{guarded}/{total} of its accesses hold {guard}, "
                        "this read holds no lock",
                    )
                )
    return findings
