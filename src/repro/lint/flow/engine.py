"""Fixpoint driver and memoized entry point for the flow analysis.

:func:`analyze` runs the whole pipeline once per (file set, config)
pair and caches the result, because four registered checkers each ask
for the same analysis over the same tree:

1. build the :class:`~repro.lint.flow.callgraph.ProgramIndex` (call
   graph, locks, and the facts closed over the call graph);
2. iterate :class:`~repro.lint.flow.summaries.Evaluator` over every
   function until no :class:`FlowSummary` changes (taint summaries are
   finite and grow monotonically along call chains, so this
   terminates; a generous iteration cap guards pathological graphs);
3. run one final evaluator pass with emission on (determinism + wire
   taint findings), then the guard-inference and resource-path passes.

The result is a flat list of :class:`FlowFinding` records; the
checker classes in :mod:`repro.lint.flow.checkers` filter it by rule
family and attach severities/hints.  The lock-order walk
(:mod:`repro.lint.checkers.concurrency`) reads the same
:attr:`Analysis.index`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.core import LintConfig, SourceFile
from repro.lint.flow.callgraph import FlowFinding, ProgramIndex, build_index
from repro.lint.flow.guards import run_guard_inference
from repro.lint.flow.resources import run_resource_paths
from repro.lint.flow.summaries import Evaluator, FlowSummary

__all__ = ["Analysis", "analyze"]

_MAX_FIXPOINT_PASSES = 20


@dataclass
class Analysis:
    """The shared result every flow checker filters."""

    index: ProgramIndex
    findings: list[FlowFinding]


#: (file-set fingerprint, config repr) -> Analysis; tiny FIFO
_CACHE: dict[tuple, Analysis] = {}
_CACHE_MAX = 4


def _cache_key(files: list[SourceFile], config: LintConfig) -> tuple:
    return (
        tuple((f.module, str(f.path), hash(f.text)) for f in files),
        repr(config),
    )


def analyze(files: list[SourceFile], config: LintConfig) -> Analysis:
    key = _cache_key(files, config)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit

    index = build_index(files, config)
    summaries: dict[str, FlowSummary] = {}
    for _ in range(_MAX_FIXPOINT_PASSES):
        changed = False
        for fn_key, info in index.functions.items():
            new = Evaluator(index, config, info, summaries).run()
            if summaries.get(fn_key) != new:
                changed = True
            summaries[fn_key] = new
        if not changed:
            break

    events: set[tuple[str, str, int, int, str]] = set()

    def emit(rule_id: str, module: str, node: ast.AST, message: str) -> None:
        events.add(
            (
                rule_id,
                module,
                int(getattr(node, "lineno", 1)),
                int(getattr(node, "col_offset", 0)),
                message,
            )
        )

    for info in index.functions.values():
        Evaluator(index, config, info, summaries, emit=emit).run()

    findings = [FlowFinding(*event) for event in sorted(events)]
    findings.extend(run_guard_inference(index, config))
    findings.extend(run_resource_paths(index))

    analysis = Analysis(index=index, findings=findings)
    if len(_CACHE) >= _CACHE_MAX:
        _CACHE.pop(next(iter(_CACHE)))
    _CACHE[key] = analysis
    return analysis
