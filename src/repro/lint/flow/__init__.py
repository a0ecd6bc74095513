"""``repro.lint.flow`` — the whole-program analysis engine.

The file-scope checkers of :mod:`repro.lint.checkers` see one function
at a time; this package sees the *program*: one index of functions,
calls, locks and call-graph facts (:mod:`~repro.lint.flow.callgraph` —
the lock-order rules RPL001–003 read it too), per-function taint
summaries (:mod:`~repro.lint.flow.summaries`) closed to a fixpoint
(:mod:`~repro.lint.flow.engine`), the one acquire-to-release walker
(:mod:`~repro.lint.flow.resources`), and four rule families built on
top (:mod:`~repro.lint.flow.checkers`):

* **RPL05x — determinism taint**: a wall-clock read, unseeded RNG
  draw, ``id()``/``hash()`` value, or set-iteration order that flows —
  through any chain of calls, across module boundaries — into a
  deterministic sink (event-queue priorities, cache/fingerprint keys,
  deterministic bench counters, tier-ledger arithmetic, ``/v1`` wire
  responses).
* **RPL06x — exception-safety resource paths**: a pool reservation,
  manual lock acquire, tier-ledger insertion, or edge admission that
  leaks when a *transitively* raise-capable callee fires inside the
  unprotected window (the same walk as RPL020, judged by the call
  graph instead of by what the allocator is known to raise).
* **RPL07x — guard inference**: each shared attribute's guarding lock
  is inferred from the majority of its accesses program-wide; writes
  (and reads) that skip the inferred guard are flagged.
* **RPL08x — wire hygiene taint**: exception text, filesystem paths,
  and environment/config values flowing into ``/v1`` error envelopes
  or metric names.

Design notes live in ``docs/architecture.md`` ("Static analysis").
The sanctioned escape hatches are the same as everywhere else in
``repro.lint``: justified inline suppressions, injectable
clocks (an injected ``clock()`` is never a taint source — that is the
pattern the rules push you toward), and the
:func:`repro.api.protocol.public_message` sanitizer for the wire.
"""

from __future__ import annotations

from repro.lint.flow.checkers import (  # noqa: F401  (import = register)
    DeterminismFlowChecker,
    GuardInferenceChecker,
    ResourceFlowChecker,
    WireHygieneChecker,
)

__all__ = [
    "DeterminismFlowChecker",
    "GuardInferenceChecker",
    "ResourceFlowChecker",
    "WireHygieneChecker",
]
