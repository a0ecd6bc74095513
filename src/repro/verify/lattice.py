"""The configuration lattice and the differential oracle over it.

Which backend prices a factorization and in which valid postorder the
serial walk runs change *performance but not the answer* by
construction: every backend computes every front on the solver's node
under one resolved policy (``tests/test_solver_extensions.py``'s
``TestEveryBackendEveryNodeOneFactor`` pins that structure).  The knobs
left on this lattice change the floating point stream on purpose — GPU
policies compute in float32, panel width reorders the blocked update,
orderings permute the whole problem, amalgamation coarsens the
partition — and there the promise is Higham-style normwise accuracy
after iterative refinement, not identity.

This module makes that promise executable:

* :class:`VerifyConfig` — one point of the lattice (policy x precision
  x ordering x panel width x amalgamation), buildable into a
  :class:`~repro.multifrontal.solver.SparseCholeskySolver`;
* :func:`factor_fingerprint` — a content hash of the factor (permutation
  plus every supernode panel, bit-for-bit);
* :class:`ConfigPair` — two configurations bound by the normwise promise;
* :func:`verify_pair` / :func:`verify_matrix` — run the same matrix
  through both sides of each pair and check the promise, reporting
  rich diagnostics on violation.

The normwise oracle follows Higham (Accuracy and Stability of Numerical
Algorithms, ch. 7): each side's *normwise backward error*

    eta(x) = ||b - A x||_inf / (||A||_inf ||x||_inf + ||b||_inf)

must be small after refinement, and the two solutions must agree to

    ||x1 - x2||_inf / ||x2||_inf  <=  safety * cond_1(A) * (eta1 + eta2)

with ``cond_1`` from Hager's 1-norm condition estimator (which costs a
handful of triangular solves against the already-computed factor).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.gpu.device import SimulatedNode
from repro.gpu.perfmodel import tesla_t10_model
from repro.matrices.csc import CSCMatrix
from repro.multifrontal.refine import inf_norm
from repro.multifrontal.solver import SparseCholeskySolver
from repro.policies.base import make_policy
from repro.symbolic.supernodes import AMALGAMATION_PRESETS, amalgamation_preset

__all__ = [
    "VerifyConfig",
    "ConfigRun",
    "ConfigPair",
    "PairReport",
    "factor_fingerprint",
    "condest_1",
    "default_pairs",
    "run_config",
    "verify_pair",
    "verify_matrix",
]

#: machine epsilon of the float64 arithmetic the promises are stated in
_U64 = float(np.finfo(np.float64).eps)
#: machine epsilon of the device float32 arithmetic
_U32 = float(np.finfo(np.float32).eps)
#: the fp32+refinement promise holds only while ``cond(A) * u32`` is
#: comfortably below 1 (Higham ch. 12: the refinement iteration contracts
#: at rate ~ cond(A) * u_factor); beyond this the pair is vacuous
FP32_COND_LIMIT = 0.25 / _U32


@dataclass(frozen=True)
class VerifyConfig:
    """One point of the configuration lattice."""

    policy: str = "P1"
    precision: str = "sp"              # GPU compute precision: "sp" | "dp"
    ordering: str = "amd"
    panel_width: int | None = None     # P4 blocked panel width override
    amalgamation: str = "default"      # "default" | "off" | "aggressive"

    def __post_init__(self):
        if self.precision not in ("sp", "dp"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.amalgamation not in AMALGAMATION_PRESETS:
            raise ValueError(
                f"unknown amalgamation preset {self.amalgamation!r}"
            )

    @property
    def label(self) -> str:
        parts = [self.policy, self.precision, self.ordering]
        if self.panel_width is not None:
            parts.append(f"w{self.panel_width}")
        if self.amalgamation != "default":
            parts.append(f"amalg-{self.amalgamation}")
        return "/".join(parts)

    # ------------------------------------------------------------------
    def make_node(self) -> SimulatedNode:
        """A fresh simulated node honouring this config's GPU precision."""
        model = tesla_t10_model()
        if self.precision != model.precision:
            model = dataclasses.replace(model, precision=self.precision)
        return SimulatedNode(model=model, n_cpus=1, n_gpus=1)

    def make_policy(self):
        if self.policy.upper().startswith("P4") and self.panel_width is not None:
            return make_policy(self.policy, panel_width=self.panel_width)
        return make_policy(self.policy)

    def build_solver(self, a: CSCMatrix) -> SparseCholeskySolver:
        amalgamation = (
            None if self.amalgamation == "default"
            else amalgamation_preset(self.amalgamation)
        )
        return SparseCholeskySolver(
            a,
            ordering=self.ordering,
            policy=self.make_policy(),
            node=self.make_node(),
            amalgamation=amalgamation,
        )


def factor_fingerprint(factor) -> str:
    """BLAKE2b over the permutation, supernode partition and every panel
    byte — two factors fingerprint equal iff they are bitwise identical."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(factor.sf.perm, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(factor.sf.super_ptr, dtype=np.int64).tobytes())
    for panel in factor.panels:
        h.update(np.ascontiguousarray(panel, dtype=np.float64).tobytes())
        h.update(b"|")
    return h.hexdigest()


def condest_1(a: CSCMatrix, factor) -> float:
    """Hager/Higham 1-norm condition estimate ``||A||_1 ||A^-1||_1``.

    ``A`` is SPD so ``A^-1`` is too; each estimator step is one solve
    against the already-computed factor.  The estimate is a lower bound
    that is rarely off by more than a small factor — exactly what a
    forward-error *tolerance* needs.
    """
    from repro.multifrontal.solve import solve_factored

    n = a.n_rows
    if n == 0:
        return 1.0
    x = np.full(n, 1.0 / n)
    est = 0.0
    for _ in range(5):
        y = solve_factored(factor, x)          # y = A^-1 x
        est_new = float(np.abs(y).sum())
        xi = np.sign(y)
        xi[xi == 0] = 1.0
        z = solve_factored(factor, xi)         # z = A^-T xi = A^-1 xi
        j = int(np.argmax(np.abs(z)))
        if float(np.abs(z).max()) <= float(z @ x) or est_new <= est:
            est = max(est, est_new)
            break
        est = est_new
        x = np.zeros(n)
        x[j] = 1.0
    return inf_norm(a) * max(est, 1.0)


# ----------------------------------------------------------------------
# running one configuration
# ----------------------------------------------------------------------
@dataclass
class ConfigRun:
    """Everything one (matrix, config) execution produced."""

    config: VerifyConfig
    solver: SparseCholeskySolver
    fingerprint: str
    x: np.ndarray
    backward_error: float
    refinement_iterations: int

    @property
    def factor(self):
        return self.solver.factor


def run_config(
    a: CSCMatrix,
    config: VerifyConfig,
    b: np.ndarray | None = None,
    *,
    tol: float = 1e-12,
    max_iter: int = 8,
) -> ConfigRun:
    """Factor ``a`` under ``config`` and solve one refined system."""
    if b is None:
        b = np.ones(a.n_rows)
    solver = config.build_solver(a)
    solver.analyze().factorize()
    res = solver.solve_refined(b, tol=tol, max_iter=max_iter)
    return ConfigRun(
        config=config,
        solver=solver,
        fingerprint=factor_fingerprint(solver.factor),
        x=res.x,
        backward_error=res.final_residual,
        refinement_iterations=res.iterations,
    )


# ----------------------------------------------------------------------
# pairs and their promises
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConfigPair:
    """Two lattice points bound by the normwise promise."""

    name: str
    left: VerifyConfig
    right: VerifyConfig
    backward_tol: float | None = None  # per-side eta ceiling
    forward_safety: float = 100.0      # slack on the cond bound


@dataclass
class PairReport:
    """Outcome of one differential check."""

    pair: ConfigPair
    ok: bool
    violations: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAIL"
        msg = f"[{status}] {self.pair.name}"
        for v in self.violations:
            msg += f"\n    {v}"
        return msg


def default_pairs(*, gpu_policy: str = "P4") -> list[ConfigPair]:
    """The promised pairs every PR must keep honouring.

    fp32 GPU compute, panel width, GPU precision, fill-reducing ordering
    and supernode amalgamation all change the float stream, but
    refinement must restore double-precision backward error and the two
    solutions must agree to a condition-scaled bound.

    Execution paths have no pair: every backend and every valid
    postorder hand the one numerics pass the same resolved policies
    (pinned structurally in ``tests/test_solver_extensions.py``), and
    stacked small-front execution is pinned slice by slice in
    ``tests/test_bench_properties.py``.
    """
    p1 = VerifyConfig(policy="P1")
    gpu = VerifyConfig(policy=gpu_policy)
    return [
        ConfigPair(f"fp64 (P1) vs fp32+refine ({gpu_policy})", p1, gpu),
        ConfigPair("fp64 (P1) vs fp32+refine (P2)", p1, VerifyConfig(policy="P2")),
        ConfigPair(
            "P4 panel width 64 vs 256",
            dataclasses.replace(gpu, panel_width=64),
            dataclasses.replace(gpu, panel_width=256),
        ),
        ConfigPair(
            "P4 sp vs dp", gpu, dataclasses.replace(gpu, precision="dp"),
        ),
        ConfigPair(
            "ordering amd vs nd", p1, dataclasses.replace(p1, ordering="nd"),
        ),
        ConfigPair(
            "amalgamation default vs aggressive", p1,
            dataclasses.replace(p1, amalgamation="aggressive"),
        ),
        ConfigPair(
            "amalgamation default vs off", p1,
            dataclasses.replace(p1, amalgamation="off"),
        ),
    ]


def _default_backward_tol(n: int) -> float:
    """Generous Higham-style ceiling ``c n u`` with c = 1e4 (floored so
    tiny problems are not held to sub-refinement-tolerance accuracy)."""
    return max(1e-9, 1e4 * n * _U64)


def verify_pair(
    a: CSCMatrix,
    pair: ConfigPair,
    b: np.ndarray | None = None,
) -> PairReport:
    """Run both sides of ``pair`` on ``a`` and check the promise."""
    if b is None:
        rng = np.random.default_rng(20260805)
        b = rng.standard_normal(a.n_rows)
    left = run_config(a, pair.left, b)
    right = run_config(a, pair.right, b)
    violations: list[str] = []
    details: dict = {
        "left": pair.left.label,
        "right": pair.right.label,
        "left_eta": left.backward_error,
        "right_eta": right.backward_error,
    }

    tol = (
        pair.backward_tol
        if pair.backward_tol is not None
        else _default_backward_tol(a.n_rows)
    )
    details["backward_tol"] = tol
    cond = condest_1(left.solver.a, left.factor)
    details["cond_estimate"] = cond
    uses_fp32 = any(
        c.precision == "sp" and c.policy.upper() != "P1"
        for c in (pair.left, pair.right)
    )
    if uses_fp32 and cond > FP32_COND_LIMIT:
        # outside the promise's precondition: refinement against an
        # fp32 factor contracts at ~ cond(A) * u32, which is >= 1 here
        details["skipped"] = (
            f"cond(A) ~ {cond:.2e} beyond the fp32-refinement "
            f"guarantee ({FP32_COND_LIMIT:.2e})"
        )
        return PairReport(pair=pair, ok=True, details=details)
    for side, run in (("left", left), ("right", right)):
        if run.backward_error > tol:
            violations.append(
                f"{side} ({run.config.label}) backward error "
                f"{run.backward_error:.3e} exceeds {tol:.3e}"
            )
    # forward agreement, scaled by the (estimated) conditioning
    bound = pair.forward_safety * cond * (
        max(left.backward_error, _U64) + max(right.backward_error, _U64)
    )
    x_scale = float(np.abs(right.x).max(initial=0.0)) or 1.0
    diff = float(np.abs(left.x - right.x).max(initial=0.0)) / x_scale
    details["forward_diff"] = diff
    details["forward_bound"] = bound
    if diff > bound:
        violations.append(
            f"solutions disagree: rel diff {diff:.3e} exceeds "
            f"cond-scaled bound {bound:.3e} (cond ~ {cond:.3e})"
        )

    return PairReport(pair=pair, ok=not violations, violations=violations,
                      details=details)


def verify_matrix(
    a: CSCMatrix,
    pairs: list[ConfigPair] | None = None,
    b: np.ndarray | None = None,
) -> list[PairReport]:
    """Run every pair on one matrix; returns one report per pair."""
    if pairs is None:
        pairs = default_pairs()
    return [verify_pair(a, pair, b) for pair in pairs]
