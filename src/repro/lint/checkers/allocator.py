"""Allocator-ownership lint: every pool acquire must have a safe owner.

The simulated GPU pools (:class:`repro.gpu.allocator.HighWaterMarkPool`
and ``PerCallPool``) count outstanding reservations in ``in_use``; the
dynamic runtime's admission control and the post-run allocator
invariant (:func:`repro.verify.invariants.check_allocator_state`) both
read it.  A reservation that never reaches ``release()`` — on *any*
control-flow path, including the exception edges — poisons both.

**RPL020** is the allocator's verdict over the shared acquire-to-release
walk (:class:`repro.lint.flow.resources.AllocatorVerdict`): a
``*_pool.request(...)`` / ``*.reserve(...)`` is outstanding until its
``release()``, protected inside a ``try`` whose ``finally`` (or
re-raising ``except``) releases the pool, and flagged when something
raise-capable runs while it is unprotected:

* a second ``request``/``reserve`` (it can raise
  :class:`DeviceMemoryError` and leak the first);
* an explicit ``raise``;
* any call at all, when the function goes on to ``release()`` on the
  fall-through path (the exception edge skips it) — move the release
  to a ``finally``.

The sanctioned patterns stay silent: the ``working_set(...)`` context
manager (release is structural), a release in ``finally``, and
immediate hand-off — cross-function ownership (acquire in ``_start``,
release in ``_complete``) is legal, the walk only polices the
in-function window.
"""

from __future__ import annotations

import ast

from repro.lint.core import (
    Checker,
    Finding,
    LintConfig,
    Rule,
    SourceFile,
    register,
)
from repro.lint.flow.callgraph import in_scope
from repro.lint.flow.resources import AllocatorVerdict

__all__ = ["AllocatorChecker"]


@register
class AllocatorChecker(Checker):
    rules = (
        Rule(
            "RPL020",
            "allocator-leak",
            "error",
            "A pool reservation can escape without reaching release() "
            "on every control-flow path (exception edges included).",
            hint="own the reservation with working_set() or release in "
            "a finally block",
        ),
    )

    def check(
        self, files: list[SourceFile], config: LintConfig
    ) -> list[Finding]:
        findings: list[Finding] = []
        for sf in files:
            # the allocator implementation itself has nothing to release
            if in_scope(sf.module, config.allocator_impl_modules):
                continue
            for node in ast.walk(sf.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    verdict = AllocatorVerdict()
                    verdict.walk(node.body)
                    findings.extend(
                        self.finding("RPL020", sf, call, message, hint=hint)
                        for call, message, hint in verdict.leaks
                    )
        return findings
