"""Differential verification: config lattice, invariants, fuzzing.

See ``docs/architecture.md`` ("Verification") for the promise matrix:
the configuration pairs bounded by a Higham-style normwise backward
error, and where the one-factor-per-node structure of the execution
backends is tested instead.
"""

from repro.multifrontal.refine import normwise_backward_error
from repro.verify.harness import (
    SuiteResult,
    format_suite,
    generator_suite,
    verify_suite,
)
from repro.verify.invariants import (
    InvariantReport,
    check_allocator_state,
    check_amalgamated_structure,
    check_cache_key_purity,
    check_degraded_still_solves,
    check_factor_residual,
    check_fleet_failover,
    check_schedule_precedence,
    check_symbolic_structure,
    check_tier_coherence,
    check_update_conservation,
    run_invariants,
)
from repro.verify.lattice import (
    ConfigPair,
    PairReport,
    VerifyConfig,
    default_pairs,
    factor_fingerprint,
    verify_matrix,
    verify_pair,
)
from repro.verify.shrink import ShrinkResult, principal_submatrix, shrink_matrix
from repro.verify.fuzz import (
    FUZZ_GENERATORS,
    FuzzCase,
    FuzzFailure,
    FuzzReport,
    generate_case,
    load_case,
    load_corpus,
    replay_corpus,
    run_fuzz,
    save_case,
)

__all__ = [
    "SuiteResult",
    "format_suite",
    "generator_suite",
    "verify_suite",
    "InvariantReport",
    "check_allocator_state",
    "check_amalgamated_structure",
    "check_cache_key_purity",
    "check_degraded_still_solves",
    "check_factor_residual",
    "check_fleet_failover",
    "check_schedule_precedence",
    "check_symbolic_structure",
    "check_tier_coherence",
    "check_update_conservation",
    "run_invariants",
    "ConfigPair",
    "PairReport",
    "VerifyConfig",
    "default_pairs",
    "factor_fingerprint",
    "normwise_backward_error",
    "verify_matrix",
    "verify_pair",
    "ShrinkResult",
    "principal_submatrix",
    "shrink_matrix",
    "FUZZ_GENERATORS",
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "generate_case",
    "load_case",
    "load_corpus",
    "replay_corpus",
    "run_fuzz",
    "save_case",
]
