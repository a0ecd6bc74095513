"""Baseline comparison: the decision procedure of the perf gate.

Deterministic counters are compared for exact equality (values are
bit-stable by construction).  Any difference — changed value, added or
removed counter — is a hard failure: either a real regression or an
intentional change that must be accompanied by a refreshed, committed
baseline.

The machine-local ``numeric`` section (fingerprints, residuals) is
compared only on request: it is bit-stable on one machine but may
differ across BLAS builds, so the cross-machine CI gate skips it while
the same-machine stability test enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.results import BenchResult

__all__ = ["ComparisonReport", "ScenarioVerdict", "compare_results"]


@dataclass
class ScenarioVerdict:
    scenario: str
    counter_diffs: list[str] = field(default_factory=list)
    missing_baseline: bool = False
    missing_result: bool = False

    @property
    def ok(self) -> bool:
        return not (self.counter_diffs or self.missing_result)


@dataclass
class ComparisonReport:
    verdicts: list[ScenarioVerdict]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def format(self) -> str:
        lines = []
        for v in self.verdicts:
            if v.missing_baseline:
                lines.append(
                    f"NEW   {v.scenario}: no baseline (commit one to gate it)"
                )
                continue
            if v.missing_result:
                lines.append(
                    f"GONE  {v.scenario}: baseline exists but the scenario "
                    "did not run (removed? refresh the baselines)"
                )
                continue
            status = "ok" if v.ok else "FAIL"
            lines.append(f"{status:<5} {v.scenario}")
            for d in v.counter_diffs:
                lines.append(f"      counter regression: {d}")
        lines.append(
            "comparison: "
            + ("all gates passed" if self.ok else "REGRESSIONS DETECTED")
        )
        return "\n".join(lines)


def _diff_exact(kind: str, base: dict, new: dict) -> list[str]:
    out = []
    for key in sorted(base.keys() | new.keys()):
        if key not in new:
            out.append(f"{kind}[{key}]: removed (baseline {base[key]!r})")
        elif key not in base:
            out.append(f"{kind}[{key}]: new counter {new[key]!r} not in baseline")
        elif base[key] != new[key] or type(base[key]) is not type(new[key]):
            out.append(f"{kind}[{key}]: baseline {base[key]!r} -> {new[key]!r}")
    return out


def compare_results(
    new: dict[str, BenchResult],
    baseline: dict[str, BenchResult],
    *,
    check_numeric: bool = False,
) -> ComparisonReport:
    """Compare a fresh run against committed baselines."""
    verdicts: list[ScenarioVerdict] = []
    for name in sorted(new.keys() | baseline.keys()):
        if name not in baseline:
            verdicts.append(ScenarioVerdict(name, missing_baseline=True))
            continue
        if name not in new:
            verdicts.append(ScenarioVerdict(name, missing_result=True))
            continue
        b, n = baseline[name], new[name]
        v = ScenarioVerdict(name)
        v.counter_diffs = _diff_exact(
            "deterministic", b.deterministic, n.deterministic
        )
        if check_numeric:
            v.counter_diffs += _diff_exact("numeric", b.numeric, n.numeric)
        verdicts.append(v)
    return ComparisonReport(verdicts)
