"""Per-function taint summaries: the flow engine's unit of compositionality.

For every analyzed function the evaluator computes a
:class:`FlowSummary`:

* ``returns`` — concrete taint kinds the return value may carry;
* ``param_returns`` — parameter indices whose taint flows to the
  return value (identity/relay functions);
* ``param_sinks`` — parameter index → sinks (with their locations)
  that a value passed in that position can reach, **transitively**.

Summaries compose: a call to a summarized function maps argument
taints through ``param_returns`` and checks them against
``param_sinks``, so a source in module A reaching a sink in module C
through a relay in module B needs no whole-program path enumeration —
just the fixpoint over summaries that :mod:`repro.lint.flow.engine`
drives.

The evaluator is deliberately modest: flow-insensitive within
branches (if/else arms are walked and joined), two passes over each
body to stabilize loop-carried taint, strong updates on plain
assignment, weak updates on containers and ``self.<attr>`` slots
(tracked per function only — cross-method attribute flows are out of
scope).  Unresolved calls propagate the union of receiver and
argument taints, which keeps string formatting and method chains
honest without a type system.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable

from repro.lint.core import LintConfig, dotted_name
from repro.lint.flow.callgraph import FunctionInfo, ProgramIndex, in_scope
from repro.lint.flow.lattice import (
    DET_KINDS,
    DET_RULE_BY_KIND,
    KIND_LABELS,
    NUMERIC_SANITIZERS,
    ORDER_SANITIZERS,
    PARAM,
    WIRE_KINDS,
    WIRE_RULE_BY_KIND,
    Taint,
    param_taint,
    source_kind,
)

__all__ = ["FlowSummary", "Evaluator", "SinkRef"]

#: ``(category, description, module, line)`` of one sink site;
#: category is ``"det"`` or ``"wire"``
SinkRef = tuple[str, str, str, int]

#: emit(rule_id, module, node, message)
EmitFn = Callable[[str, str, ast.AST, str], None]

_WIRE_RESPONSE_FNS = {"json_response", "error_response"}
_METRIC_METHODS = {"incr", "observe", "gauge"}
_DET_KWARGS = {"deterministic", "numeric"}


@dataclass
class FlowSummary:
    """Composable facts about one function (see module docstring)."""

    returns: frozenset[Taint] = frozenset()
    param_returns: frozenset[int] = frozenset()
    param_sinks: dict[int, frozenset[SinkRef]] = field(default_factory=dict)


def _is_set_shaped(expr: ast.expr) -> bool:
    """Syntactically a set (literal, comprehension, constructor, or a
    set-algebra combination of set-shaped operands)."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        name = dotted_name(expr.func)
        if name is not None and name.rsplit(".", 1)[-1] in (
            "set",
            "frozenset",
        ):
            return True
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_shaped(expr.left) or _is_set_shaped(expr.right)
    return False


def _iter_order_tainted(expr: ast.expr) -> bool:
    """Does iterating ``expr`` yield set order?  Covers the bare set
    shapes plus ``enumerate``/``zip``/``iter``/``reversed`` wrappers."""
    if _is_set_shaped(expr):
        return True
    if isinstance(expr, ast.Call):
        name = dotted_name(expr.func)
        last = name.rsplit(".", 1)[-1] if name else ""
        if last in ("enumerate", "zip", "iter", "reversed", "list", "tuple"):
            return any(_iter_order_tainted(a) for a in expr.args)
    return False


class Evaluator:
    """One pass of abstract evaluation over one function body."""

    def __init__(
        self,
        index: ProgramIndex,
        config: LintConfig,
        info: FunctionInfo,
        summaries: dict[str, FlowSummary],
        emit: EmitFn | None = None,
    ):
        self.index = index
        self.config = config
        self.info = info
        self.summaries = summaries
        self.emit = emit
        self.sf = index.function_file(info)
        self.pretty = (
            f"{info.module}.{info.cls + '.' if info.cls else ''}{info.name}"
        )
        self.returns: set[Taint] = set()
        self.param_returns: set[int] = set()
        self.param_sinks: dict[int, set[SinkRef]] = {}
        self._det_scope = in_scope(info.module, config.deterministic_modules)
        self._wire_scope = in_scope(info.module, config.wire_modules)

    # ------------------------------------------------------------------
    def run(self) -> FlowSummary:
        env: dict[str, frozenset[Taint]] = {
            name: frozenset({param_taint(i)})
            for i, name in enumerate(self.info.params)
        }
        # two passes: the second stabilizes loop-carried taint
        self._walk(list(self.info.node.body), env)
        self._walk(list(self.info.node.body), env)
        return FlowSummary(
            returns=frozenset(self.returns),
            param_returns=frozenset(self.param_returns),
            param_sinks={
                i: frozenset(s) for i, s in self.param_sinks.items()
            },
        )

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _walk(
        self, stmts: list[ast.stmt], env: dict[str, frozenset[Taint]]
    ) -> None:
        for stmt in stmts:
            self._stmt(stmt, env)

    def _stmt(self, stmt: ast.stmt, env: dict[str, frozenset[Taint]]) -> None:
        if isinstance(stmt, ast.Assign):
            taints = self._eval(stmt.value, env)
            for tgt in stmt.targets:
                self._assign(tgt, taints, env, weak=False)
            self._ledger_sink(stmt.targets, stmt.value, taints, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                taints = self._eval(stmt.value, env)
                self._assign(stmt.target, taints, env, weak=False)
        elif isinstance(stmt, ast.AugAssign):
            taints = self._eval(stmt.value, env)
            self._assign(stmt.target, taints, env, weak=True)
            self._ledger_sink([stmt.target], stmt.value, taints, stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                for taint in self._eval(stmt.value, env):
                    if taint[0] == PARAM:
                        self.param_returns.add(int(taint[1]))
                    else:
                        self.returns.add(taint)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test, env)
            then_env = dict(env)
            else_env = dict(env)
            self._walk(stmt.body, then_env)
            self._walk(stmt.orelse, else_env)
            for key in set(then_env) | set(else_env):
                env[key] = then_env.get(key, frozenset()) | else_env.get(
                    key, frozenset()
                )
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            taints = self._eval(stmt.iter, env)
            if _iter_order_tainted(stmt.iter):
                taints = taints | {
                    ("set_order", f"set iteration in {self.pretty}")
                }
            self._assign(stmt.target, taints, env, weak=True)
            self._walk(stmt.body, env)
            self._walk(stmt.orelse, env)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, env)
            self._walk(stmt.body, env)
            self._walk(stmt.orelse, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taints = self._eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, taints, env, weak=False)
            self._walk(stmt.body, env)
        elif isinstance(stmt, ast.Try):
            self._walk(stmt.body, env)
            for handler in stmt.handlers:
                if handler.name:
                    env[handler.name] = self._exception_taint(handler)
                self._walk(handler.body, env)
            self._walk(stmt.orelse, env)
            self._walk(stmt.finalbody, env)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, env)
        elif isinstance(stmt, ast.Delete):
            for tgt in stmt.targets:
                if isinstance(tgt, ast.Name):
                    env.pop(tgt.id, None)
        # nested defs/classes: deliberately not descended

    def _exception_taint(self, handler: ast.ExceptHandler) -> frozenset[Taint]:
        """A caught exception's text taint — unless every caught type is
        wire-safe (its message is crafted for the public surface)."""
        types: list[ast.expr] = []
        if isinstance(handler.type, ast.Tuple):
            types = list(handler.type.elts)
        elif handler.type is not None:
            types = [handler.type]
        names = [
            (dotted_name(t) or "?").rsplit(".", 1)[-1] for t in types
        ]
        if names and all(
            n in self.config.wire_safe_exceptions for n in names
        ):
            return frozenset()
        caught = ", ".join(names) or "Exception"
        return frozenset(
            {("exc_text", f"except {caught} in {self.pretty}")}
        )

    def _assign(
        self,
        target: ast.expr,
        taints: frozenset[Taint],
        env: dict[str, frozenset[Taint]],
        *,
        weak: bool,
    ) -> None:
        if isinstance(target, ast.Name):
            if weak:
                env[target.id] = env.get(target.id, frozenset()) | taints
            else:
                env[target.id] = taints
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, taints, env, weak=True)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, taints, env, weak=True)
        elif isinstance(target, ast.Attribute):
            name = dotted_name(target)
            if name is not None and name.startswith("self."):
                env[name] = env.get(name, frozenset()) | taints
        elif isinstance(target, ast.Subscript):
            base = dotted_name(target.value)
            if base is not None:
                env[base] = env.get(base, frozenset()) | taints

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _eval(
        self, expr: ast.expr, env: dict[str, frozenset[Taint]]
    ) -> frozenset[Taint]:
        if isinstance(expr, ast.Name):
            if expr.id == "__file__":
                return frozenset(
                    {("fs_path", f"__file__ in {self.info.module}")}
                )
            return env.get(expr.id, frozenset())
        if isinstance(expr, ast.Constant):
            return frozenset()
        if isinstance(expr, ast.Attribute):
            name = dotted_name(expr)
            if name is not None and name.startswith("self."):
                stored = env.get(name)
                if stored is not None:
                    return stored
            if expr.attr == "__name__":
                return frozenset()
            return self._eval(expr.value, env)
        if isinstance(expr, ast.Subscript):
            base = self._eval(expr.value, env)
            self._eval(expr.slice, env)
            if dotted_name(expr.value) == "os.environ":
                return base | {
                    ("env_config", f"os.environ in {self.pretty}")
                }
            return base
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.BinOp):
            return self._eval(expr.left, env) | self._eval(expr.right, env)
        if isinstance(expr, ast.BoolOp):
            out: frozenset[Taint] = frozenset()
            for v in expr.values:
                out |= self._eval(v, env)
            return out
        if isinstance(expr, ast.UnaryOp):
            return self._eval(expr.operand, env)
        if isinstance(expr, ast.Compare):
            self._eval(expr.left, env)
            for c in expr.comparators:
                self._eval(c, env)
            return frozenset()  # a bool carries no text/order/clock value
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test, env)
            return self._eval(expr.body, env) | self._eval(expr.orelse, env)
        if isinstance(expr, ast.JoinedStr):
            out = frozenset()
            for part in expr.values:
                if isinstance(part, ast.FormattedValue):
                    out |= self._eval(part.value, env)
            return out
        if isinstance(expr, ast.FormattedValue):
            return self._eval(expr.value, env)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            out = frozenset()
            for elt in expr.elts:
                out |= self._eval(elt, env)
            return out
        if isinstance(expr, ast.Dict):
            out = frozenset()
            for k in expr.keys:
                if k is not None:
                    out |= self._eval(k, env)
            for v in expr.values:
                out |= self._eval(v, env)
            return out
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)
        ):
            return self._eval_comp(expr, env)
        if isinstance(expr, ast.DictComp):
            inner = dict(env)
            order = False
            for gen in expr.generators:
                taints = self._eval(gen.iter, inner)
                order = order or _iter_order_tainted(gen.iter)
                self._assign(gen.target, taints, inner, weak=True)
            out = self._eval(expr.key, inner) | self._eval(expr.value, inner)
            if order:
                out |= {("set_order", f"set iteration in {self.pretty}")}
            return out
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value, env)
        if isinstance(expr, ast.Await):
            return self._eval(expr.value, env)
        if isinstance(expr, ast.Lambda):
            return frozenset()
        if isinstance(expr, ast.NamedExpr):
            taints = self._eval(expr.value, env)
            self._assign(expr.target, taints, env, weak=False)
            return taints
        if isinstance(expr, ast.Slice):
            for part in (expr.lower, expr.upper, expr.step):
                if part is not None:
                    self._eval(part, env)
            return frozenset()
        return frozenset()

    def _eval_comp(
        self,
        expr: ast.ListComp | ast.SetComp | ast.GeneratorExp,
        env: dict[str, frozenset[Taint]],
    ) -> frozenset[Taint]:
        inner = dict(env)
        order = False
        for gen in expr.generators:
            taints = self._eval(gen.iter, inner)
            order = order or _iter_order_tainted(gen.iter)
            self._assign(gen.target, taints, inner, weak=True)
            for cond in gen.ifs:
                self._eval(cond, inner)
        out = self._eval(expr.elt, inner)
        if order and not isinstance(expr, ast.SetComp):
            out |= {("set_order", f"set iteration in {self.pretty}")}
        return out

    # ------------------------------------------------------------------
    # calls: sources, sanitizers, summaries, sinks
    # ------------------------------------------------------------------
    def _eval_call(
        self, call: ast.Call, env: dict[str, frozenset[Taint]]
    ) -> frozenset[Taint]:
        dotted = dotted_name(call.func)
        last = dotted.rsplit(".", 1)[-1] if dotted else ""
        arg_taints = [self._eval(a, env) for a in call.args]
        kw_taints = {
            kw.arg: self._eval(kw.value, env)
            for kw in call.keywords
        }
        everything: frozenset[Taint] = frozenset()
        for t in arg_taints:
            everything |= t
        for t in kw_taints.values():
            everything |= t

        # -- sources ----------------------------------------------------
        kind = source_kind(dotted, isinstance(call.func, ast.Name))
        if kind is not None:
            return frozenset({(kind, f"{dotted}() in {self.pretty}")})

        # -- sink sites in *this* function ------------------------------
        self._local_call_sinks(call, last, arg_taints, kw_taints)

        # -- sanitizers -------------------------------------------------
        if last in ORDER_SANITIZERS or last == "sorted":
            return frozenset(
                t for t in everything if t[0] != "set_order"
            )
        if last in ("set", "frozenset"):
            # the *set object* has no order until iterated; the
            # iteration shapes re-introduce set_order
            return frozenset(
                t for t in everything if t[0] != "set_order"
            )
        if last in NUMERIC_SANITIZERS:
            return frozenset(
                t for t in everything if t[0] not in WIRE_KINDS
            )
        if last in self.config.wire_sanitizers:
            return frozenset(
                t for t in everything if t[0] not in WIRE_KINDS
            )

        # -- summarized callees -----------------------------------------
        callee_key = self.index.resolve_call(
            self.sf, self.info.cls, call, self.info.local_types
        )
        if callee_key is not None and callee_key != self.info.key:
            callee = self.index.functions[callee_key]
            summary = self.summaries.get(callee_key)
            if summary is not None:
                self._check_param_sinks(
                    call, callee, summary, arg_taints, kw_taints
                )
                result = set(summary.returns)
                for i in summary.param_returns:
                    result |= self._arg_at(
                        callee, i, arg_taints, kw_taints
                    )
                return frozenset(result)
            return frozenset()

        # -- unresolved: conservative union of receiver + args ----------
        out = everything
        if isinstance(call.func, ast.Attribute):
            out = out | self._eval(call.func.value, env)
        if last in ("list", "tuple", "join") and any(
            _is_set_shaped(a) for a in call.args
        ):
            out = out | {
                ("set_order", f"set iteration in {self.pretty}")
            }
        return out

    def _arg_at(
        self,
        callee: FunctionInfo,
        index: int,
        arg_taints: list[frozenset[Taint]],
        kw_taints: dict[str | None, frozenset[Taint]],
    ) -> frozenset[Taint]:
        if index < len(arg_taints):
            return arg_taints[index]
        if 0 <= index < len(callee.params):
            return kw_taints.get(callee.params[index], frozenset())
        return frozenset()

    # ------------------------------------------------------------------
    # sinks
    # ------------------------------------------------------------------
    def _local_call_sinks(
        self,
        call: ast.Call,
        last: str,
        arg_taints: list[frozenset[Taint]],
        kw_taints: dict[str | None, frozenset[Taint]],
    ) -> None:
        all_taints: frozenset[Taint] = frozenset()
        for t in arg_taints:
            all_taints |= t
        for t in kw_taints.values():
            all_taints |= t

        if last.endswith(("_key", "_fingerprint")) and (
            call.args or call.keywords
        ):
            self._sink(
                "det", f"cache/fingerprint key {last}()", all_taints, call
            )
        if self._det_scope:
            if isinstance(call.func, ast.Attribute) and last == "push":
                self._sink("det", "event-queue ordering", all_taints, call)
            if last == "heappush" and len(arg_taints) >= 2:
                item = frozenset()
                for t in arg_taints[1:]:
                    item |= t
                self._sink("det", "heap ordering", item, call)
            for name in _DET_KWARGS & set(kw_taints):
                self._sink(
                    "det",
                    f"deterministic bench counter ({name}=)",
                    kw_taints[name],
                    call,
                )
        if self._wire_scope:
            if last in _WIRE_RESPONSE_FNS:
                self._sink(
                    "wire", f"/v1 response envelope {last}()",
                    all_taints, call,
                )
                self._sink(
                    "det", f"/v1 response envelope {last}()",
                    all_taints, call,
                )
            if (
                isinstance(call.func, ast.Attribute)
                and last in _METRIC_METHODS
                and arg_taints
            ):
                self._sink("wire", "exported metric name",
                           arg_taints[0], call)

    def _ledger_sink(
        self,
        targets: list[ast.expr],
        value: ast.expr,
        taints: frozenset[Taint],
        stmt: ast.stmt,
    ) -> None:
        if not self._det_scope:
            return
        for tgt in targets:
            if not isinstance(tgt, ast.Subscript):
                continue
            base = dotted_name(tgt.value) or ""
            if base.rsplit(".", 1)[-1].endswith("ledger"):
                self._sink("det", "tier ledger arithmetic", taints, stmt)

    def _sink(
        self,
        category: str,
        desc: str,
        taints: frozenset[Taint],
        node: ast.AST,
    ) -> None:
        kinds = DET_KINDS if category == "det" else WIRE_KINDS
        rules = DET_RULE_BY_KIND if category == "det" else WIRE_RULE_BY_KIND
        line = getattr(node, "lineno", 1)
        for kind, origin in taints:
            if kind == PARAM:
                self.param_sinks.setdefault(int(origin), set()).add(
                    (category, desc, self.info.module, line)
                )
            elif kind in kinds and self.emit is not None:
                self.emit(
                    rules[kind],
                    self.info.module,
                    node,
                    f"{KIND_LABELS[kind]} from {origin} flows into {desc}",
                )

    def _check_param_sinks(
        self,
        call: ast.Call,
        callee: FunctionInfo,
        summary: FlowSummary,
        arg_taints: list[frozenset[Taint]],
        kw_taints: dict[str | None, frozenset[Taint]],
    ) -> None:
        for i, sinks in summary.param_sinks.items():
            taints = self._arg_at(callee, i, arg_taints, kw_taints)
            if not taints:
                continue
            for category, desc, sink_mod, sink_line in sinks:
                kinds = DET_KINDS if category == "det" else WIRE_KINDS
                rules = (
                    DET_RULE_BY_KIND
                    if category == "det"
                    else WIRE_RULE_BY_KIND
                )
                for kind, origin in taints:
                    if kind == PARAM:
                        self.param_sinks.setdefault(
                            int(origin), set()
                        ).add((category, desc, sink_mod, sink_line))
                    elif kind in kinds and self.emit is not None:
                        self.emit(
                            rules[kind],
                            self.info.module,
                            call,
                            f"{KIND_LABELS[kind]} from {origin} is passed "
                            f"to {callee.name}() and reaches {desc} "
                            f"({sink_mod}:{sink_line})",
                        )
