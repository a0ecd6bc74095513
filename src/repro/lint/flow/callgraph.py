"""The whole-program index: one call resolver, one lock resolver.

Every program-scope rule of ``repro.lint`` — the lock-order walk
(RPL001–003), the taint fixpoint (RPL05x/08x), the reservation walk
(RPL06x) and guard inference (RPL07x) — reads the program through one
:class:`ProgramIndex`, built once per run by :func:`build_index` in two
passes so nothing depends on the order files were discovered in:

1. **declare** — every class, function (:class:`FunctionInfo`, keyed
   ``module:Class.name`` / ``module:name``), import, and lock
   (``Class.attr`` for ``self.x = threading.Lock()``, ``module:name``
   for module-level locks; identity is per *attribute*, not per
   instance, which is the granularity deadlock analysis wants);
2. **resolve** — with every class known, type the collaborators
   (``self.attr = ClassName(...)``), then record each function's
   resolved callees and direct facts, and close the facts over the
   call graph: which locks a call may take, and whether it may raise,
   wake external waiters, block, or do expensive solver work.

:meth:`ProgramIndex.resolve_call` maps a call site to a key using, in
order:

1. bare names — same-module functions, ``from m import f`` imports,
   and constructors (a class name resolves to its ``__init__``);
2. ``self.m(...)`` — own-class methods;
3. ``self.attr.m(...)`` / ``var.m(...)`` — receivers whose type is
   known because ``self.attr = ClassName(...)`` (anywhere in the
   class) or ``var = ClassName(...)`` (in the function) named an
   analyzed class;
4. ``alias.f(...)`` through ``import m as alias`` module aliases;
5. a method name that is **unique** across every analyzed class.

Resolution is best-effort and under-approximate by design: an
unresolved call contributes no interprocedural facts, which keeps the
checkers quiet rather than noisy.  :meth:`ProgramIndex.lock_id` maps an
expression to a lock identity the same way (own attribute, module
global, typed collaborator, unique attribute name) and canonicalizes
``self.cond = Condition(self.lock)`` to the wrapped lock — the two
names are one mutex.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.lint.core import LintConfig, SourceFile, dotted_name

__all__ = [
    "FlowFinding",
    "FunctionInfo",
    "ProgramIndex",
    "build_index",
    "calls_in",
    "in_scope",
    "is_blocking_call",
    "iter_functions",
    "self_attr",
    "stmt_exprs",
]

_LOCK_FACTORIES = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
}
_BLOCKING_DOTTED = {
    "time.sleep",
    "socket.create_connection",
    "urllib.request.urlopen",
}
_BLOCKING_PREFIXES = ("subprocess.", "requests.", "socket.")

_FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef
_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

#: the boolean facts the call-graph closure propagates to callers
RAISES, WAKES, EXPENSIVE, BLOCKS = "raises", "wakes", "expensive", "blocks"


def in_scope(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def is_blocking_call(dotted: str) -> bool:
    """A call known to block the calling thread (sleep, sockets, …)."""
    return dotted in _BLOCKING_DOTTED or dotted.startswith(_BLOCKING_PREFIXES)


def iter_functions(
    sf: SourceFile,
) -> Iterator[tuple[str | None, _FunctionNode]]:
    """Yield ``(class_name | None, function_node)`` for every def."""
    for node in sf.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, sub


def _own_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Nodes under *root* in evaluation order (children before parents),
    nested defs and lambdas excluded: defining a closure runs none of it."""
    if not isinstance(root, _NESTED_SCOPES):
        for child in ast.iter_child_nodes(root):
            yield from _own_nodes(child)
        yield root


def calls_in(expr: ast.expr) -> list[ast.Call]:
    """Calls inside *expr* in evaluation order — a call's receiver and
    arguments run before it (nested defs and lambdas excluded)."""
    return [n for n in _own_nodes(expr) if isinstance(n, ast.Call)]


def stmt_exprs(stmt: ast.stmt) -> list[ast.expr]:
    """The expressions a statement evaluates itself, as opposed to the
    ones its nested blocks evaluate (``try`` has none of its own)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    return [c for c in ast.iter_child_nodes(stmt) if isinstance(c, ast.expr)]


def self_attr(node: ast.expr) -> str | None:
    """``x`` for the expression ``self.x``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _assigned_calls(
    nodes: Iterable[ast.AST],
) -> Iterator[tuple[ast.Assign, ast.Call, str]]:
    """``(assignment, call, last name component)`` for every
    ``targets = Name(...)`` / ``targets = pkg.Name(...)`` in *nodes*."""
    for node in nodes:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            name = dotted_name(node.value.func)
            if name is not None:
                yield node, node.value, name.rsplit(".", 1)[-1]


@dataclass(frozen=True)
class FlowFinding:
    """What a program-scope pass reports: a finding addressed by module
    (the registered checkers map module -> file and attach the rule)."""

    rule_id: str
    module: str
    line: int
    col: int
    message: str


@dataclass
class FunctionInfo:
    """One analyzed function: identity, parameters, and call-graph facts."""

    key: str                      # "module:Class.name" or "module:name"
    module: str
    cls: str | None
    name: str
    node: _FunctionNode
    #: positional-or-keyword + kw-only parameter names, ``self``/``cls``
    #: stripped, in declaration order (kwarg -> index mapping)
    params: tuple[str, ...] = ()
    #: ``var -> class name`` for ``var = ClassName(...)`` bindings
    local_types: dict[str, str] = field(default_factory=dict)
    #: resolved callee keys (self-recursion excluded)
    calls: set[str] = field(default_factory=set)
    #: locks this function may take and the boolean facts that hold of
    #: it — its own and, once :func:`build_index` has closed them over
    #: the call graph, every transitive callee's
    acquires: set[str] = field(default_factory=set)
    facts: set[str] = field(default_factory=set)


@dataclass
class ProgramIndex:
    """Everything the program-scope passes need to know about the program."""

    files: list[SourceFile]
    config: LintConfig
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    file_of: dict[str, SourceFile] = field(default_factory=dict)
    #: method name -> keys across every analyzed class
    methods: dict[str, list[str]] = field(default_factory=dict)
    #: class name -> defining module
    classes: dict[str, str] = field(default_factory=dict)
    #: per module: ``from m import n as a`` -> a -> m
    imports: dict[str, dict[str, str]] = field(default_factory=dict)
    #: per module: ``import m as a`` -> a -> m
    module_aliases: dict[str, dict[str, str]] = field(default_factory=dict)
    #: lock identities: "Class.attr" | "module:name"
    locks: set[str] = field(default_factory=set)
    #: ``Cls.cond -> Cls.lock`` for ``self.cond = Condition(self.lock)``
    lock_aliases: dict[str, str] = field(default_factory=dict)
    #: (class name, attr) -> class name of the stored instance
    attr_types: dict[tuple[str, str], str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def function_file(self, info: FunctionInfo) -> SourceFile:
        return self.file_of[info.module]

    def method_key(self, cls: str, method: str) -> str | None:
        module = self.classes.get(cls)
        if module is None:
            return None
        key = f"{module}:{cls}.{method}"
        return key if key in self.functions else None

    def resolve_call(
        self,
        sf: SourceFile,
        cls: str | None,
        call: ast.Call,
        local_types: dict[str, str] | None = None,
    ) -> str | None:
        """Best-effort mapping of a call site to an analyzed function."""
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            src = self.imports.get(sf.module, {}).get(name)
            for key in (
                f"{sf.module}:{name}",
                f"{src}:{name}",
                f"{src}:{name}.__init__",
                f"{sf.module}:{name}.__init__",
            ):
                if key in self.functions:
                    return key
            return None
        if not isinstance(func, ast.Attribute):
            return None
        method = func.attr
        recv = dotted_name(func.value)
        if recv is not None:
            if recv == "self" and cls is not None:
                key = f"{sf.module}:{cls}.{method}"
                if key in self.functions:
                    return key
            owner = None
            if recv.startswith("self.") and cls is not None:
                owner = self.attr_types.get((cls, recv[5:]))
            elif local_types is not None:
                owner = local_types.get(recv)
            if owner is not None:
                key = self.method_key(owner, method)
                if key is not None:
                    return key
            target = self.module_aliases.get(sf.module, {}).get(recv)
            if target is not None and f"{target}:{method}" in self.functions:
                return f"{target}:{method}"
        candidates = self.methods.get(method, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def lock_id(
        self, sf: SourceFile, cls: str | None, expr: ast.expr
    ) -> str | None:
        """Identity of the lock *expr* denotes, or None if it is not one."""
        name = dotted_name(expr)
        if name is None:
            return None
        recv, _, attr = name.rpartition(".")
        found = None
        if not recv:
            found = f"{sf.module}:{attr}"
        elif recv == "self" and cls is not None:
            found = f"{cls}.{attr}"
        elif recv.startswith("self.") and cls is not None:
            owner = self.attr_types.get((cls, recv[5:]))
            found = None if owner is None else f"{owner}.{attr}"
        if found not in self.locks:
            # a lock attribute of an untyped collaborator (or of a base
            # class): the attribute name, if only one class uses it
            named = [
                lid for lid in self.locks if lid.split(".")[-1] == attr
            ]
            if len(named) != 1:
                return None
            found = named[0]
        return self.lock_aliases.get(found, found)


def _close_over_calls(index: ProgramIndex) -> None:
    """Propagate ``acquires`` and ``facts`` from callees to callers until
    nothing changes — the one call-graph closure."""
    changed = True
    while changed:
        changed = False
        for info in index.functions.values():
            for key in info.calls:
                callee = index.functions[key]
                if not (
                    callee.acquires <= info.acquires
                    and callee.facts <= info.facts
                ):
                    info.acquires |= callee.acquires
                    info.facts |= callee.facts
                    changed = True


def _declare(index: ProgramIndex, sf: SourceFile) -> None:
    index.file_of[sf.module] = sf
    from_imports = index.imports.setdefault(sf.module, {})
    aliases = index.module_aliases.setdefault(sf.module, {})
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                from_imports[alias.asname or alias.name] = node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
    for node in sf.tree.body:
        if isinstance(node, ast.ClassDef):
            index.classes[node.name] = sf.module
    for node, _, factory in _assigned_calls(sf.tree.body):
        if factory in _LOCK_FACTORIES:
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    index.locks.add(f"{sf.module}:{tgt.id}")
    for cls, fn in iter_functions(sf):
        key = f"{sf.module}:{cls + '.' if cls else ''}{fn.name}"
        index.functions[key] = FunctionInfo(
            key=key,
            module=sf.module,
            cls=cls,
            name=fn.name,
            node=fn,
            params=tuple(
                a.arg for a in fn.args.args + fn.args.kwonlyargs
                if a.arg not in ("self", "cls")
            ),
        )
        if cls is None:
            continue
        index.methods.setdefault(fn.name, []).append(key)
        for node, call, factory in _assigned_calls(ast.walk(fn)):
            if factory not in _LOCK_FACTORIES:
                continue
            wrapped = call.args and self_attr(call.args[0])
            for attr in filter(None, map(self_attr, node.targets)):
                index.locks.add(f"{cls}.{attr}")
                if wrapped and factory == "Condition":
                    index.lock_aliases[f"{cls}.{attr}"] = f"{cls}.{wrapped}"


def _type_collaborators(index: ProgramIndex, sf: SourceFile) -> None:
    for cls, fn in iter_functions(sf):
        if cls is None:
            continue
        for node, _, ctor in _assigned_calls(ast.walk(fn)):
            if ctor in index.classes:
                for attr in filter(None, map(self_attr, node.targets)):
                    index.attr_types[(cls, attr)] = ctor


def _direct_facts(index: ProgramIndex, info: FunctionInfo) -> None:
    sf = index.function_file(info)
    info.local_types = {
        node.targets[0].id: ctor
        for node, _, ctor in _assigned_calls(ast.walk(info.node))
        if ctor in index.classes
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
    }
    for node in (n for stmt in info.node.body for n in _own_nodes(stmt)):
        if isinstance(node, ast.Raise):
            info.facts.add(RAISES)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                lid = index.lock_id(sf, info.cls, item.context_expr)
                if lid is not None:
                    info.acquires.add(lid)
        if not isinstance(node, ast.Call):
            continue
        callee = index.resolve_call(sf, info.cls, node, info.local_types)
        if callee is not None and callee != info.key:
            info.calls.add(callee)
        if isinstance(node.func, ast.Attribute):
            if node.func.attr == "acquire":
                lid = index.lock_id(sf, info.cls, node.func.value)
                if lid is not None:
                    info.acquires.add(lid)
            elif node.func.attr == "set" and not node.args:
                info.facts.add(WAKES)
        name = dotted_name(node.func)
        if name is not None:
            if name.rsplit(".", 1)[-1] in index.config.expensive_calls:
                info.facts.add(EXPENSIVE)
            if is_blocking_call(name):
                info.facts.add(BLOCKS)


def build_index(files: list[SourceFile], config: LintConfig) -> ProgramIndex:
    index = ProgramIndex(files=files, config=config)
    for sf in files:
        _declare(index, sf)
    for sf in files:
        _type_collaborators(index, sf)
    for info in index.functions.values():
        _direct_facts(index, info)
    _close_over_calls(index)
    return index
