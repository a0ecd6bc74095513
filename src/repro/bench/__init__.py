"""Deterministic benchmarking and performance-regression gating.

``python -m repro bench`` runs a registry of scenarios (numeric- and
paper-scale factorization, backend triples, policy replays, the solver
service, solve + refinement), records bit-stable deterministic counters
from the simulation (virtual-clock seconds, flops, bytes, allocator
high-water marks, cache hits) plus BLAS-dependent numeric values, and
writes schema-versioned ``BENCH_<scenario>.json`` files.  ``--check
--baseline DIR`` turns the same run into a regression gate: exact
equality on deterministic counters.  ``--profile`` attaches cProfile
and embeds the top hot spots per scenario.  The wall clock belongs to
the benchmark under ``bench/``.
"""

from repro.bench.compare import ComparisonReport, ScenarioVerdict, compare_results
from repro.bench.profiling import profile_call
from repro.bench.results import (
    SCHEMA_VERSION,
    BenchResult,
    load_results_dir,
    result_filename,
)
from repro.bench.runner import (
    BenchDeterminismError,
    RunOptions,
    run_scenario,
    run_scenarios,
)
from repro.bench.scenarios import (
    Measurement,
    Scenario,
    all_scenarios,
    get_scenarios,
    scenario_names,
)
from repro.bench.workloads import SuiteCache, shared_suite

__all__ = [
    "SCHEMA_VERSION",
    "BenchDeterminismError",
    "BenchResult",
    "ComparisonReport",
    "Measurement",
    "RunOptions",
    "Scenario",
    "ScenarioVerdict",
    "SuiteCache",
    "all_scenarios",
    "compare_results",
    "get_scenarios",
    "load_results_dir",
    "profile_call",
    "result_filename",
    "run_scenario",
    "run_scenarios",
    "scenario_names",
    "shared_suite",
]
