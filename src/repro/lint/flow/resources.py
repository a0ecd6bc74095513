"""Acquire-to-release paths: one walker, two verdicts.

A reservation — pool bytes, a tier-ledger slot, a queue admission, a
manually acquired lock — is *outstanding* from the call that takes it
to the call that gives it back.  :class:`ReservationWalker` walks one
function body in statement order, tracks what is outstanding, and asks
one question at every ``raise`` and every call in between: *can this
fire while something outstanding is unprotected?*  Protection is
structural: an outstanding reservation is protected inside a ``try``
whose handlers or ``finally`` release it, and nowhere else.

What differs between the rules built on the walk is only **what counts
as raise-capable** (plus each rule's vocabulary of acquiring and
releasing methods):

* **RPL020** (:mod:`repro.lint.checkers.allocator`, one file at a
  time) knows the allocator: an explicit ``raise``, any further pool
  acquire (``DeviceMemoryError``), and — in a window the function
  itself closes with a fall-through ``release()`` — any call at all.
* **RPL060/061** (this module, whole program) know the call graph: an
  explicit ``raise`` and any call whose resolved callee can
  **transitively** raise, through any depth of callees, so a
  validation error three calls down still counts.  RPL060 is a
  pool/tier reservation or queue admission (``.request()`` /
  ``.reserve()`` / ``.admit()``) that leaks; RPL061 a manual
  ``lock.acquire()`` left held forever (the fix is almost always
  ``with lock:``).  Only functions that visibly *own* a lifecycle are
  judged: they release in-function or acquire more than once (the
  partial-acquire shape, where a second acquisition's failure leaks
  the first).

Shared by construction: a ``return`` hands a resource to the caller; a
``try``'s handlers run when its body raised partway, so they are judged
against the state *before* the body (an acquire made inside it may never
have happened); cross-function ownership (acquire in ``_start``, release
in ``_complete``) is legal — nothing is reported at the end of a
function, only at a raise-capable point inside the window.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.core import dotted_name
from repro.lint.flow.callgraph import (
    RAISES,
    FlowFinding,
    FunctionInfo,
    ProgramIndex,
    calls_in,
    stmt_exprs,
)

__all__ = ["AllocatorVerdict", "ReservationWalker", "run_resource_paths"]

_ACQUIRE_METHODS = {"request", "reserve", "admit"}
_RELEASE_METHODS = frozenset({"release", "rollback", "free", "remove", "cancel"})
_NESTED_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass
class _Outstanding:
    """One live reservation during the walk."""

    kind: str                # "lock" | "resource"
    recv: str                # dotted receiver, e.g. "self.device_pool"
    call: ast.Call           # the acquiring call
    protected: bool          # a handler/finally release guards the window
    flagged: bool = False
    #: a call ran while this was unprotected (for verdicts that judge
    #: the window only once they see who closes it)
    exposed: bool = False


def _related(a: str, b: str) -> bool:
    """Do two receiver texts plausibly denote the same object?  The
    exact dotted path, or the same final attribute — so a helper alias
    (``pool = self.device_pool``) does not defeat the walk."""
    return a == b or a.rsplit(".", 1)[-1] == b.rsplit(".", 1)[-1]


def _method_call(call: ast.Call) -> tuple[str | None, str]:
    """``(dotted receiver, method name)`` of ``recv.method(...)``."""
    if isinstance(call.func, ast.Attribute):
        return dotted_name(call.func.value), call.func.attr
    return None, ""


class ReservationWalker:
    """Linear, exception-edge-aware walk of one function body.

    Subclasses are verdicts; they say what acquires, what releases,
    what is raise-capable, and how a leak is reported.
    """

    #: method names that give a reservation back
    releases: frozenset[str] = frozenset()

    def __init__(self) -> None:
        self.out: list[_Outstanding] = []
        #: receivers released by the handlers of the enclosing ``try``s
        self._cleanup: list[str] = []

    # -- the verdict ----------------------------------------------------
    def acquired(self, call: ast.Call, recv: str, method: str) -> str | None:
        """Kind of reservation ``recv.method(...)`` takes, or None."""
        raise NotImplementedError

    def raiser(self, node: ast.Raise | ast.Call) -> str | None:
        """What to call *node* in a message if it is raise-capable,
        else None."""
        raise NotImplementedError

    def report(
        self, held: _Outstanding, trigger: ast.Raise | ast.Call, what: str
    ) -> None:
        raise NotImplementedError

    def released(self, held: _Outstanding, call: ast.Call) -> None:
        """*held* was given back by *call* on the walked path."""

    # -- the walk -------------------------------------------------------
    def walk(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, _NESTED_DEFS):
                continue
            if isinstance(stmt, ast.Try):
                self._walk_try(stmt)
                continue
            if isinstance(stmt, ast.Raise):
                self._judge(stmt)
                continue
            if isinstance(stmt, ast.Return):
                # a return hands the resource out: the caller owns it now
                self.out = [o for o in self.out if o.kind == "lock"]
            for expr in stmt_exprs(stmt):
                for call in calls_in(expr):
                    self._on_call(call)
            for attr in ("body", "orelse"):
                self.walk(getattr(stmt, attr, None) or [])

    def _released_by(self, stmts: list[ast.stmt]) -> list[str]:
        out: list[str] = []
        for stmt in stmts:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    recv, method = _method_call(node)
                    if recv is not None and method in self.releases:
                        out.append(recv)
        return out

    def _walk_try(self, stmt: ast.Try) -> None:
        cleanup = self._released_by(
            [s for h in stmt.handlers for s in h.body] + stmt.finalbody
        )
        guarded = [
            o for o in self.out
            if not o.protected and any(_related(o.recv, r) for r in cleanup)
        ]
        for o in guarded:
            o.protected = True
        enclosing, before = self._cleanup, list(self.out)
        self._cleanup = enclosing + cleanup
        self.walk(stmt.body)
        self._cleanup = enclosing
        # the handlers run when the body raised partway: an acquire made
        # inside the body may never have happened, so they are judged
        # against the state before it
        after, self.out = self.out, before
        for handler in stmt.handlers:
            self.walk(handler.body)
        self.out = after
        self.walk(stmt.orelse)
        self.walk(stmt.finalbody)
        for o in guarded:
            o.protected = False

    def _on_call(self, call: ast.Call) -> None:
        recv, method = _method_call(call)
        if recv is not None and method in self.releases:
            for o in self.out:
                if _related(o.recv, recv):
                    self.out.remove(o)
                    self.released(o, call)
                    break
            return
        # the acquiring call itself may raise (an over-budget request):
        # that is exactly the partial-acquire leak
        self._judge(call)
        if recv is not None:
            kind = self.acquired(call, recv, method)
            if kind is not None:
                guarded = any(_related(recv, r) for r in self._cleanup)
                self.out.append(_Outstanding(kind, recv, call, guarded))

    def _judge(self, node: ast.Raise | ast.Call) -> None:
        what = self.raiser(node)
        if what is None:
            return
        for o in self.out:
            if not (o.protected or o.flagged):
                o.flagged = True
                self.report(o, node, what)


class AllocatorVerdict(ReservationWalker):
    """RPL020: raise-capable is what the allocator is known to raise."""

    releases = frozenset({"release"})

    def __init__(self) -> None:
        super().__init__()
        #: ``(acquiring call, message, hint or None for the rule's own)``
        self.leaks: list[tuple[ast.Call, str, str | None]] = []

    def acquired(self, call: ast.Call, recv: str, method: str) -> str | None:
        # ``request`` only on pool-like receivers (device_pool, …)
        if method == "reserve" or (
            method == "request" and "pool" in recv.rsplit(".", 1)[-1]
        ):
            return "resource"
        return None

    def raiser(self, node: ast.Raise | ast.Call) -> str | None:
        if isinstance(node, ast.Raise):
            return "raise"
        recv, method = _method_call(node)
        if recv is not None and self.acquired(node, recv, method):
            return f"{method}() on {recv} can raise"
        # any other call may raise as well, but that only leaks if this
        # function owns the release: judged when the walk reaches it
        for held in self.out:
            held.exposed = held.exposed or not held.protected
        return None

    def report(
        self, held: _Outstanding, trigger: ast.Raise | ast.Call, what: str
    ) -> None:
        self.leaks.append((
            held.call,
            f"{what} while the reservation on {held.recv} is still "
            "unreleased",
            "reserve both pools through working_set(), or release the "
            "first pool in an except handler before re-raising"
            if isinstance(trigger, ast.Call) else None,
        ))

    def released(self, held: _Outstanding, call: ast.Call) -> None:
        if held.exposed and not held.protected:
            self.leaks.append((
                held.call,
                f"release of {held.recv} is only reached on the "
                "fall-through path; an exception between request and "
                "release leaks the reservation",
                "move the release into a finally block or use the "
                "working_set() context manager",
            ))


class _CallGraphVerdict(ReservationWalker):
    """RPL060/061: raise-capable is what the call graph says raises."""

    releases = _RELEASE_METHODS

    def __init__(self, index: ProgramIndex, info: FunctionInfo):
        super().__init__()
        self.index = index
        self.info = info
        self.sf = index.function_file(info)
        self.findings: list[FlowFinding] = []

    def acquired(self, call: ast.Call, recv: str, method: str) -> str | None:
        if method == "acquire":
            func = call.func
            known = isinstance(func, ast.Attribute) and self.index.lock_id(
                self.sf, self.info.cls, func.value
            )
            return "lock" if known else None
        return "resource" if method in _ACQUIRE_METHODS else None

    def raiser(self, node: ast.Raise | ast.Call) -> str | None:
        if isinstance(node, ast.Raise):
            return "an explicit raise"
        key = self.index.resolve_call(
            self.sf, self.info.cls, node, self.info.local_types
        )
        if key is not None and RAISES in self.index.functions[key].facts:
            return f"{self.index.functions[key].name}()"
        return None

    def report(
        self, held: _Outstanding, trigger: ast.Raise | ast.Call, what: str
    ) -> None:
        taken = f"{held.recv}.{_method_call(held.call)[1]}()"
        if held.kind == "lock":
            rule, msg = "RPL061", (
                f"{taken} (line {held.call.lineno}) is held across "
                f"{what}, which can raise — the lock would never be "
                "released; use `with` or release in a finally block"
            )
        else:
            rule, msg = "RPL060", (
                f"{taken} (line {held.call.lineno}) can leak: "
                f"{what} may raise before the release/rollback"
            )
        self.findings.append(
            FlowFinding(rule, self.info.module, trigger.lineno, 0, msg)
        )


def run_resource_paths(index: ProgramIndex) -> list[FlowFinding]:
    findings: list[FlowFinding] = []
    for info in index.functions.values():
        methods = [
            node.func.attr
            for node in ast.walk(info.node)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
        ]
        acquires = sum(m in _ACQUIRE_METHODS for m in methods)
        releases = sum(m in _RELEASE_METHODS for m in methods)
        # only judge functions that visibly own a lifecycle: they
        # release in-function, or partially acquire more than once
        if "acquire" not in methods and not (
            acquires and (releases or acquires >= 2)
        ):
            continue
        verdict = _CallGraphVerdict(index, info)
        verdict.walk(list(info.node.body))
        findings.extend(verdict.findings)
    return findings
