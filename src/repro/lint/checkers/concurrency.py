"""Concurrency checkers: lock-order graph, blocking and callbacks under locks.

The pass is whole-program.  Locks, resolved calls and what a call may
transitively do — which locks it acquires, whether it may wake
external waiters (``Event.set`` / completion callbacks), block, or do
expensive solver work (the domain list in
:attr:`LintConfig.expensive_calls`) — come from the one
:class:`~repro.lint.flow.callgraph.ProgramIndex` every program-scope
rule shares.  What is private to this module is the **held-lock walk**:
every function of the modules in :attr:`LintConfig.concurrency_modules`
is re-walked tracking the stack of held locks through ``with`` blocks
and ``.acquire()``/``.release()`` pairs, emitting:

* **RPL001** — a cycle in the lock-acquisition graph (lock A held
  while taking B somewhere, B held while taking A elsewhere);
* **RPL002** — a blocking or expensive call while a lock is held
  (``time.sleep``, foreign ``.wait()``, thread ``.join()``, file
  I/O, or anything in the expensive-call list);
* **RPL003** — waking external waiters under a lock: ``Event.set``,
  functions that transitively complete futures, or calls through
  ``*_factory``/``*_callback`` values and callable parameters.

``Condition.wait``/``notify`` on the *held* condition are exempt (that
is how conditions are used); waiting on anything else while holding a
lock is the classic lost-wakeup/deadlock shape and is flagged.
"""

from __future__ import annotations

import ast
from functools import partial

from repro.lint.core import (
    Checker,
    Finding,
    LintConfig,
    Rule,
    SourceFile,
    dotted_name,
    register,
)
from repro.lint.flow.callgraph import (
    BLOCKS,
    EXPENSIVE,
    WAKES,
    FunctionInfo,
    ProgramIndex,
    calls_in,
    in_scope,
    is_blocking_call,
    stmt_exprs,
)
from repro.lint.flow.engine import analyze

__all__ = ["ConcurrencyChecker"]

_BLOCKING_BUILTINS = {"open", "input"}
_CALLBACK_ATTR_SUFFIXES = ("_factory", "_callback", "_hook", "_fn")

#: lock graph: edge (held -> taken) with one witness location each
_Edges = dict[tuple[str, str], tuple[SourceFile, ast.AST]]


@register
class ConcurrencyChecker(Checker):
    rules = (
        Rule(
            "RPL001",
            "lock-order-cycle",
            "error",
            "Two locks are acquired in opposite orders on different "
            "paths; with two threads this deadlocks.",
            hint="pick one global order for these locks and acquire "
            "them in that order everywhere",
        ),
        Rule(
            "RPL002",
            "blocking-call-under-lock",
            "error",
            "A blocking or expensive call runs while a lock is held, "
            "stalling every other thread that needs the lock.",
            hint="move the slow work outside the critical section; "
            "snapshot state under the lock, compute after releasing it",
        ),
        Rule(
            "RPL003",
            "callback-under-lock",
            "warning",
            "External code (completion events, factories, callbacks) "
            "is invoked while an internal lock is held, inviting "
            "re-entrancy deadlocks.",
            hint="collect the callbacks under the lock, invoke them "
            "after releasing it",
        ),
    )

    def check(
        self, files: list[SourceFile], config: LintConfig
    ) -> list[Finding]:
        index = analyze(files, config).index
        findings: list[Finding] = []
        edges: _Edges = {}
        for info in index.functions.values():
            if in_scope(info.module, config.concurrency_modules):
                self._walk_function(index, info, findings, edges)
        findings.extend(self._lock_cycles(edges))
        return findings

    # ------------------------------------------------------------------
    def _walk_function(
        self,
        index: ProgramIndex,
        info: FunctionInfo,
        findings: list[Finding],
        edges: _Edges,
    ) -> None:
        sf = index.function_file(info)
        lock_id = partial(index.lock_id, sf, info.cls)

        def note_acquire(
            node: ast.AST, lock: str, held: tuple[str, ...]
        ) -> None:
            for h in held:
                if h != lock:
                    edges.setdefault((h, lock), (sf, node))

        def walk(stmts: list[ast.stmt], held: tuple[str, ...]) -> None:
            for stmt in stmts:
                if isinstance(stmt, ast.With):
                    inner = list(held)
                    for item in stmt.items:
                        lid = lock_id(item.context_expr)
                        if lid is not None:
                            note_acquire(item.context_expr, lid, held)
                            inner.append(lid)
                    walk(stmt.body, tuple(inner))
                    continue
                taken = list(held)
                for expr in stmt_exprs(stmt):
                    for call in calls_in(expr):
                        func = call.func
                        if isinstance(func, ast.Attribute) and func.attr in (
                            "acquire", "release",
                        ):
                            lid = lock_id(func.value)
                            if lid is not None and func.attr == "acquire":
                                note_acquire(call, lid, tuple(taken))
                                taken.append(lid)
                                continue
                            if lid is not None and lid in taken:
                                taken.remove(lid)
                                continue
                        if taken:
                            self._check_call_under_locks(
                                index, info, call, tuple(taken),
                                findings, edges,
                            )
                held = tuple(taken)
                for attr in ("body", "orelse", "finalbody"):
                    walk(getattr(stmt, attr, None) or [], held)
                for handler in getattr(stmt, "handlers", []):
                    walk(handler.body, held)

        walk(list(info.node.body), ())

    def _check_call_under_locks(
        self,
        index: ProgramIndex,
        info: FunctionInfo,
        call: ast.Call,
        held: tuple[str, ...],
        findings: list[Finding],
        edges: _Edges,
    ) -> None:
        sf = index.function_file(info)
        name = dotted_name(call.func) or ""
        last = name.rsplit(".", 1)[-1]
        held_desc = ", ".join(sorted(set(held)))

        callee_key = index.resolve_call(sf, info.cls, call, info.local_types)
        callee = index.functions[callee_key] if callee_key else None
        if callee is not None:
            for lid in sorted(callee.acquires):
                for h in held:
                    if h != lid:
                        edges.setdefault((h, lid), (sf, call))

        # -- RPL002: blocking / expensive ---------------------------------
        blocking_reason: str | None = None
        if is_blocking_call(name):
            blocking_reason = f"blocking call {name}()"
        elif isinstance(call.func, ast.Name) and name in _BLOCKING_BUILTINS:
            blocking_reason = f"blocking builtin {name}()"
        elif isinstance(call.func, ast.Attribute) and call.func.attr == "wait":
            target = index.lock_id(sf, info.cls, call.func.value)
            if target is None or target not in held:
                blocking_reason = (
                    f"waiting on {dotted_name(call.func.value) or 'an object'}"
                    " that is not the held lock"
                )
        elif isinstance(call.func, ast.Attribute) and call.func.attr == "join":
            recv = (dotted_name(call.func.value) or "").lower()
            if any(t in recv for t in ("thread", "worker", "proc")):
                blocking_reason = f"joining {recv}"
        elif last in index.config.expensive_calls:
            blocking_reason = f"expensive solver call {last}()"
        elif callee is not None and EXPENSIVE in callee.facts:
            blocking_reason = (
                f"{last}() transitively performs expensive solver work"
            )
        elif callee is not None and BLOCKS in callee.facts:
            blocking_reason = f"{last}() transitively blocks"
        if blocking_reason is not None:
            findings.append(
                self.finding(
                    "RPL002", sf, call,
                    f"{blocking_reason} while holding {held_desc}",
                )
            )
            return

        # -- RPL003: waking external code ---------------------------------
        wake_reason: str | None = None
        if isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            if attr == "set" and not call.args:
                wake_reason = f"{name}() wakes waiters"
            elif attr.endswith(_CALLBACK_ATTR_SUFFIXES):
                wake_reason = f"callback {name}() invoked"
            elif attr in ("notify", "notify_all"):
                target = index.lock_id(sf, info.cls, call.func.value)
                if target is not None and target not in held:
                    wake_reason = f"{name}() notifies a foreign condition"
        elif isinstance(call.func, ast.Name):
            if call.func.id in info.params:
                wake_reason = (
                    f"callable parameter {call.func.id}() invoked"
                )
            elif call.func.id.endswith(_CALLBACK_ATTR_SUFFIXES):
                wake_reason = f"callback {call.func.id}() invoked"
        if wake_reason is None and callee is not None and WAKES in callee.facts:
            wake_reason = f"{last}() transitively wakes external waiters"
        if wake_reason is not None:
            findings.append(
                self.finding(
                    "RPL003", sf, call,
                    f"{wake_reason} while holding {held_desc}",
                )
            )

    # ------------------------------------------------------------------
    def _lock_cycles(
        self, edges: dict[tuple[str, str], tuple[SourceFile, ast.AST]]
    ) -> list[Finding]:
        graph: dict[str, list[str]] = {}
        for a, b in edges:
            graph.setdefault(a, []).append(b)
        for succ in graph.values():
            succ.sort()
        findings: list[Finding] = []
        reported: set[frozenset[str]] = set()
        for start in sorted(graph):
            path: list[str] = []

            def dfs(node: str) -> list[str] | None:
                if node in path:
                    return path[path.index(node):]
                path.append(node)
                for nxt in graph.get(node, []):
                    cycle = dfs(nxt)
                    if cycle is not None:
                        return cycle
                path.pop()
                return None

            cycle = dfs(start)
            if cycle is None or frozenset(cycle) in reported:
                continue
            reported.add(frozenset(cycle))
            first_edge = (cycle[0], cycle[1 % len(cycle)])
            sf, node = edges.get(first_edge) or next(iter(edges.values()))
            order = " -> ".join(cycle + [cycle[0]])
            findings.append(
                self.finding(
                    "RPL001", sf, node,
                    f"lock-order cycle: {order}",
                )
            )
        return findings
