"""Run scenarios N times and enforce counter determinism.

Deterministic and numeric counters are checked for bit-identity
*across the repeats of this very run*: a scenario whose counters wobble
is a bug in the scenario (or the engine), and the runner fails loudly
instead of committing an unstable baseline.  Nothing here reads the
wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.profiling import profile_call
from repro.bench.results import BenchResult
from repro.bench.scenarios import Scenario, get_scenarios
from repro.bench.workloads import SuiteCache, shared_suite

__all__ = ["BenchDeterminismError", "RunOptions", "run_scenario", "run_scenarios"]


class BenchDeterminismError(AssertionError):
    """A counter changed between repeats of the same scenario."""


@dataclass(frozen=True)
class RunOptions:
    repeats: int = 3
    profile: bool = False
    profile_top: int = 15


def _diff_counters(kind: str, ref: dict, new: dict, repeat: int) -> list[str]:
    diffs = []
    for key in sorted(ref.keys() | new.keys()):
        a, b = ref.get(key), new.get(key)
        if a != b or type(a) is not type(b):
            diffs.append(
                f"{kind}[{key}]: repeat 1 -> {a!r}, repeat {repeat} -> {b!r}"
            )
    return diffs


def run_scenario(
    scn: Scenario,
    suite: SuiteCache | None = None,
    options: RunOptions = RunOptions(),
) -> BenchResult:
    """Execute one scenario ``options.repeats`` times."""
    if options.repeats < 1:
        raise ValueError("need at least one repeat")
    suite = suite if suite is not None else shared_suite()
    scn.prepare(suite)

    ref = None
    for repeat in range(1, options.repeats + 1):
        meas = scn.run(suite)
        if ref is None:
            ref = meas
        else:
            diffs = _diff_counters(
                "deterministic", ref.deterministic, meas.deterministic, repeat
            ) + _diff_counters("numeric", ref.numeric, meas.numeric, repeat)
            if diffs:
                raise BenchDeterminismError(
                    f"scenario {scn.name!r} is not deterministic across "
                    f"repeats:\n  " + "\n  ".join(diffs)
                )

    profile = None
    if options.profile:
        profile = profile_call(lambda: scn.run(suite), top=options.profile_top)

    assert ref is not None
    return BenchResult(
        scenario=scn.name,
        description=scn.description,
        repeats=options.repeats,
        deterministic=ref.deterministic,
        numeric=ref.numeric,
        profile=profile,
        tags=scn.tags,
    )


def run_scenarios(
    names: list[str] | None = None,
    suite: SuiteCache | None = None,
    options: RunOptions = RunOptions(),
) -> list[BenchResult]:
    """Run the named scenarios (all of them by default), in name order."""
    suite = suite if suite is not None else shared_suite()
    return [run_scenario(s, suite, options) for s in get_scenarios(names)]
