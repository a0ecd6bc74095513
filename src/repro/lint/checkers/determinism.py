"""Determinism lints for the reproducible-engine modules.

The dynamic runtime, the fault injector and the verification lattice
promise *bit-for-bit* reproducibility: identical inputs produce
identical schedules, fingerprints and fault outcomes.  That promise is
one careless call away from silently breaking, so inside the modules
listed in :attr:`LintConfig.deterministic_modules` the checker forbids:

* **RPL010** — wall-clock reads (``time.time``, ``perf_counter``,
  ``monotonic``, ``datetime.now``).  The runtime keeps simulated time
  (``now`` of :class:`repro.runtime.events.EventQueue`); anything else
  makes a run depend on the machine's load.
* **RPL011** — unseeded randomness: ``np.random.default_rng()`` with no
  seed, the legacy ``np.random.*`` global-state API, and the stdlib
  ``random`` module.  The discipline to mirror is
  :mod:`repro.runtime.faults`, which seeds a fresh generator from
  ``(seed, sid, attempt)`` for every draw.
* **RPL012** — iteration over sets (literals, ``set()``/``frozenset()``
  values, or locals/attributes assigned from them).  Set order depends
  on ``PYTHONHASHSEED`` for strings; ``sorted(...)`` restores a stable
  order.  Conversions that do not expose order (``sorted``, ``len``,
  ``min``/``max``, membership, ``set``/``frozenset``) are allowed.
"""

from __future__ import annotations

import ast

from repro.lint.core import (
    Checker,
    Finding,
    LintConfig,
    Rule,
    SourceFile,
    dotted_name,
    register,
)

__all__ = ["DeterminismChecker"]

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
}
_WALL_CLOCK_BARE = {
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "time_ns",
}
_ORDER_SAFE_WRAPPERS = {"sorted", "len", "min", "max", "set", "frozenset"}


def _in_scope(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name in ("set", "frozenset")
    return False


class _ModuleVisitor(ast.NodeVisitor):
    def __init__(self, checker: "DeterminismChecker", sf: SourceFile):
        self.checker = checker
        self.sf = sf
        self.findings: list[Finding] = []
        self.time_aliases: set[str] = set()    # names imported from time
        self.random_modules: set[str] = set()  # stdlib random module aliases
        self.set_names: set[str] = set()       # locals/attrs holding sets

    # -- imports -----------------------------------------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                self.time_aliases.add(alias.asname or alias.name)
        if node.module == "random":
            for alias in node.names:
                # from random import random / randint / Random ...
                self.time_aliases.discard(alias.asname or alias.name)
                self.random_modules.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random":
                self.random_modules.add(alias.asname or "random")
        self.generic_visit(node)

    # -- assignments feed the set-name table -------------------------------
    def _note_target(self, target: ast.expr, value: ast.expr | None) -> None:
        if value is None or not _is_set_expr(value):
            return
        name = dotted_name(target)
        if name is not None:
            self.set_names.add(name)

    def visit_Assign(self, node: ast.Assign) -> None:
        for tgt in node.targets:
            self._note_target(tgt, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._note_target(node.target, node.value)
        ann = dotted_name(node.annotation)
        if ann in ("set", "frozenset") or (
            isinstance(node.annotation, ast.Subscript)
            and dotted_name(node.annotation.value) in ("set", "frozenset")
        ):
            name = dotted_name(node.target)
            if name is not None:
                self.set_names.add(name)
        self.generic_visit(node)

    # -- calls: wall clock + RNG ------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func) or ""
        if name in _WALL_CLOCK or (
            name in self.time_aliases and name in _WALL_CLOCK_BARE
        ):
            self.findings.append(
                self.checker.finding(
                    "RPL010", self.sf, node,
                    f"wall-clock read {name}() inside the deterministic "
                    f"engine ({self.sf.module})",
                )
            )
        self._check_rng(node, name)
        if name in _ORDER_SAFE_WRAPPERS:
            # sorted(set_expr) etc. are exactly the sanctioned pattern:
            # do not descend into the argument looking for RPL012
            for arg in node.args:
                if not (_is_set_expr(arg) or dotted_name(arg) in self.set_names):
                    self.visit(arg)
            for kw in node.keywords:
                self.visit(kw.value)
            return
        self._check_order_exposing_call(node, name)
        self.generic_visit(node)

    def _check_rng(self, node: ast.Call, name: str) -> None:
        if name.endswith("default_rng") and not node.args and not node.keywords:
            self.findings.append(
                self.checker.finding(
                    "RPL011", self.sf, node,
                    "default_rng() without a seed is entropy-seeded; "
                    "derive the seed from the run configuration "
                    "(see repro.runtime.faults)",
                )
            )
            return
        parts = name.split(".")
        if (
            len(parts) >= 2
            and parts[-2] == "random"
            and parts[0] in ("np", "numpy")
            and parts[-1] != "default_rng"
        ):
            self.findings.append(
                self.checker.finding(
                    "RPL011", self.sf, node,
                    f"legacy global-state RNG {name}(); use a seeded "
                    "np.random.default_rng generator",
                )
            )
            return
        if len(parts) == 2 and parts[0] in self.random_modules:
            self.findings.append(
                self.checker.finding(
                    "RPL011", self.sf, node,
                    f"stdlib random call {name}() shares process-global "
                    "state; use a seeded np.random.default_rng",
                )
            )

    def _check_order_exposing_call(self, node: ast.Call, name: str) -> None:
        if name in ("list", "tuple", "iter", "enumerate") and node.args:
            arg = node.args[0]
            if _is_set_expr(arg) or dotted_name(arg) in self.set_names:
                self.findings.append(self._order_finding(arg, name))

    # -- iteration over sets ----------------------------------------------
    def _order_finding(self, node: ast.AST, context: str) -> Finding:
        what = dotted_name(node) or "a set expression"
        return self.checker.finding(
            "RPL012", self.sf, node,
            f"iteration order of {what} is hash-dependent "
            f"(via {context}); wrap it in sorted(...)",
        )

    def _check_iter(self, iter_node: ast.expr) -> None:
        if _is_set_expr(iter_node) or dotted_name(iter_node) in self.set_names:
            self.findings.append(self._order_finding(iter_node, "for loop"))

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension_node(self, node: ast.AST) -> None:
        for gen in getattr(node, "generators", []):
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = visit_comprehension_node
    visit_SetComp = visit_comprehension_node
    visit_DictComp = visit_comprehension_node
    visit_GeneratorExp = visit_comprehension_node


@register
class DeterminismChecker(Checker):
    rules = (
        Rule(
            "RPL010",
            "wall-clock-in-deterministic-code",
            "error",
            "A wall-clock read inside the deterministic engine makes "
            "schedules and fingerprints machine-dependent.",
            hint="use the virtual clock (repro.runtime.events) or pass "
            "times in as data",
        ),
        Rule(
            "RPL011",
            "unseeded-rng-in-deterministic-code",
            "error",
            "Unseeded or global-state randomness breaks bit-identical "
            "replay of runtime and verification runs.",
            hint="seed np.random.default_rng from the run configuration "
            "the way repro.runtime.faults does",
        ),
        Rule(
            "RPL012",
            "set-order-iteration",
            "warning",
            "Iterating a set exposes hash order, which varies with "
            "PYTHONHASHSEED for strings.",
            hint="iterate sorted(the_set) instead",
        ),
    )

    def check(
        self, files: list[SourceFile], config: LintConfig
    ) -> list[Finding]:
        findings: list[Finding] = []
        for sf in files:
            if not _in_scope(sf.module, config.deterministic_modules):
                continue
            visitor = _ModuleVisitor(self, sf)
            visitor.visit(sf.tree)
            findings.extend(visitor.findings)
        return findings
