"""The four registered flow checkers (RPL05x/06x/07x/08x).

Each is a thin view over one shared :func:`repro.lint.flow.engine
.analyze` run: the analysis computes every family's findings in one
fixpoint, and each checker selects its own rule ids and stamps them
with severities and fix hints.
"""

from __future__ import annotations

from repro.lint.core import (
    Checker,
    Finding,
    LintConfig,
    Rule,
    SourceFile,
    register,
)
from repro.lint.flow.engine import analyze

__all__ = [
    "DeterminismFlowChecker",
    "ResourceFlowChecker",
    "GuardInferenceChecker",
    "WireHygieneChecker",
]


class _FlowChecker(Checker):
    """Shared plumbing: filter the analysis by this checker's rules."""

    def check(
        self, files: list[SourceFile], config: LintConfig
    ) -> list[Finding]:
        analysis = analyze(files, config)
        own = {r.rule_id: r for r in self.rules}
        by_module = {f.module: f for f in files}
        findings: list[Finding] = []
        for flow in analysis.findings:
            rule = own.get(flow.rule_id)
            if rule is None:
                continue
            sf = by_module.get(flow.module)
            if sf is None:
                continue
            findings.append(
                Finding(
                    rule_id=rule.rule_id,
                    severity=rule.severity,
                    path=str(sf.path),
                    line=flow.line,
                    col=flow.col,
                    message=flow.message,
                    hint=rule.hint,
                )
            )
        return findings


@register
class DeterminismFlowChecker(_FlowChecker):
    """RPL050–053: nondeterminism reaching deterministic sinks."""

    rules = (
        Rule(
            "RPL050",
            "wall-clock-into-deterministic-sink",
            "error",
            "A wall-clock reading flows (possibly through several "
            "calls) into deterministic state: a bench counter, cache "
            "key, queue ordering, ledger, or /v1 response.",
            hint="inject a clock (the repro.api.ManualClock pattern) or derive "
            "the value from simulated/virtual time",
        ),
        Rule(
            "RPL051",
            "rng-into-deterministic-sink",
            "error",
            "An unseeded random value flows into deterministic state; "
            "replayed runs will diverge.",
            hint="draw from an explicitly seeded generator owned by "
            "the caller",
        ),
        Rule(
            "RPL052",
            "hash-randomization-into-deterministic-sink",
            "error",
            "An id()/hash() value flows into deterministic state; "
            "both vary per process (address layout, PYTHONHASHSEED).",
            hint="key on stable identities (names, indices, content "
            "digests) instead of id()/hash()",
        ),
        Rule(
            "RPL053",
            "set-order-into-deterministic-sink",
            "warning",
            "A value whose order came from iterating a set flows into "
            "deterministic state; set order varies across runs.",
            hint="sort the set (or iterate a list/dict) before the "
            "order can matter",
        ),
    )


@register
class ResourceFlowChecker(_FlowChecker):
    """RPL060/061: reservations held across raise-capable calls."""

    rules = (
        Rule(
            "RPL060",
            "reservation-leaks-on-raise",
            "error",
            "A pool/tier reservation or queue admission is held across "
            "a call that can transitively raise, with no release or "
            "rollback on the failure path.",
            hint="wrap the window in try/except (or finally) and "
            "release/rollback the reservation before re-raising",
        ),
        Rule(
            "RPL061",
            "lock-held-across-raise",
            "error",
            "A manually acquired lock is held across a call that can "
            "transitively raise; an exception leaves it locked "
            "forever.",
            hint="use `with lock:` or release in a finally block",
        ),
    )


@register
class GuardInferenceChecker(_FlowChecker):
    """RPL070–072: accesses that skip an attribute's inferred guard."""

    rules = (
        Rule(
            "RPL070",
            "unguarded-write",
            "error",
            "A shared attribute is written without the lock that "
            "guards the majority of its accesses program-wide.",
            hint="take the inferred lock around this write (or "
            "document why this path cannot race)",
        ),
        Rule(
            "RPL071",
            "unguarded-read",
            "warning",
            "A shared attribute is read without the lock that guards "
            "the majority of its accesses; the read can observe a "
            "torn or stale value.",
            hint="read under the inferred lock, or snapshot the value "
            "through a locked accessor",
        ),
        Rule(
            "RPL072",
            "inconsistent-guard",
            "warning",
            "An access holds a different lock than the one guarding "
            "the majority of this attribute's accesses; two locks do "
            "not exclude each other.",
            hint="pick one lock per attribute and use it on every "
            "access",
        ),
    )


@register
class WireHygieneChecker(_FlowChecker):
    """RPL080–082: internals leaking onto the public /v1 surface."""

    rules = (
        Rule(
            "RPL080",
            "exception-text-on-the-wire",
            "error",
            "Raw exception text flows into a /v1 response envelope or "
            "metric name; internal details (types, paths, state) leak "
            "to clients.",
            hint="route the exception through public_message() (or "
            "raise an ApiError with a crafted message)",
        ),
        Rule(
            "RPL081",
            "path-on-the-wire",
            "error",
            "A filesystem path flows into a /v1 response or metric "
            "name, leaking host layout to clients.",
            hint="map paths to opaque ids or drop them from the "
            "public surface",
        ),
        Rule(
            "RPL082",
            "config-on-the-wire",
            "warning",
            "An environment/config value flows into a /v1 response or "
            "metric name.",
            hint="expose a named, reviewed subset of configuration "
            "instead of raw values",
        ),
    )
