"""Solver-as-a-service: factorization reuse, concurrency, observability.

The serving layer on top of :class:`~repro.multifrontal.solver.
SparseCholeskySolver` — the production face of the paper's motivating
observation that a factorization can be amortized over many solves:

* :mod:`repro.service.keys` — canonical pattern/values hashes of a matrix;
* :mod:`repro.service.cache` — the one factor cache: symbolic and
  numeric entries in one LRU under an estimated-bytes budget, over a
  chain of storage tiers of which RAM is the first (alone, evictions
  are dropped and oversize entries rejected);
* :mod:`repro.service.tiers` — what the chain is made of: RAM → local
  disk → shared object tier, each a byte-budgeted LRU with modeled
  transfer cost;
* :mod:`repro.service.batching` — multi-RHS aggregation of requests that
  share a cached factor into one block refinement;
* :mod:`repro.service.service` — the concurrent :class:`SolverService`
  front-end (request queue, worker pool, deadlines, answers certified by
  their backward error, one host-fallback path);
* :mod:`repro.service.metrics` — latency histograms, counters and
  Chrome-trace spans for every request.
"""

from repro.multifrontal.refine import UncertifiedSolutionError
from repro.service.batching import BatchPlan
from repro.service.cache import (
    CacheLookup,
    FactorizationCache,
    TierConfig,
    numeric_nbytes,
    symbolic_nbytes,
)
from repro.service.keys import (
    MatrixKey,
    canonicalize,
    matrix_key,
    pattern_key,
    values_key,
)
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.service import SolveOutcome, SolveRequest, SolverService
from repro.service.tiers import StorageTier, TierSpec

__all__ = [
    "StorageTier",
    "TierConfig",
    "TierSpec",
    "BatchPlan",
    "CacheLookup",
    "FactorizationCache",
    "numeric_nbytes",
    "symbolic_nbytes",
    "MatrixKey",
    "canonicalize",
    "matrix_key",
    "pattern_key",
    "values_key",
    "LatencyHistogram",
    "ServiceMetrics",
    "SolveOutcome",
    "SolveRequest",
    "SolverService",
    "UncertifiedSolutionError",
]
