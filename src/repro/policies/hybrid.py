"""Hybrid policies: per-call selection among P1..P4 (paper Section VI).

A hybrid is a *selector*: ``select(m, k)`` is the base policy its
``choose`` names for a factor-update of those dimensions; the inherited
:meth:`Policy.resolve` adds the one host fallback.  Every consumer
resolves before pricing or executing, so instrumentation records the
base policy actually used for every call.

* :class:`BaselineHybrid` (P_BH) — thresholds on the total operation
  count, using the transition points read off Figures 10/11: P1 below
  2e6 ops, P2 to 1.5e7, P3 to 9e10, P4 above.
* :class:`IdealHybrid` (P_IH) — the retrospective oracle: argmin of the
  (average) per-policy times; here priced by the same performance model
  that generates the observations, i.e. the true optimum.
* :class:`ModelHybrid` (P_MH) — the paper's contribution: a trained
  cost-sensitive multinomial-logistic classifier over matrix features
  (:mod:`repro.autotune`), evaluated as ``argmax x(A) . theta`` — an
  O(d r) decision per call (paper Eq. 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpu.perfmodel import PerfModel
from repro.policies.base import (
    Policy, PolicyP1, PolicyP4r, Worker, estimate_policy_time, make_policy,
)
from repro.symbolic.symbolic import factor_update_flops

__all__ = ["HybridPolicy", "BaselineHybrid", "IdealHybrid", "ModelHybrid", "flops_placement"]


class HybridPolicy(Policy):
    """Base for per-call selectors; subclasses implement ``choose``."""

    needs_gpu = False

    def __init__(self, policies: dict[str, Policy] | None = None):
        self.policies = policies or {
            name: make_policy(name) for name in ("P1", "P2", "P3", "P4")
        }
        # a custom table supplies its own host fallback
        self.fallback = self.policies.get("P1", self.fallback)
        self.resident = any(p.resident for p in self.policies.values())
        self.selection_counts: dict[str, int] = {}

    def choose(self, m: int, k: int) -> str:
        raise NotImplementedError

    def select(self, m: int, k: int) -> Policy:
        return self.policies[self.choose(m, k)]

    def resolve(self, m: int, k: int, worker: Worker) -> Policy:
        """:meth:`Policy.resolve`, counting the name it resolved to."""
        pol = super().resolve(m, k, worker)
        self.selection_counts[pol.name] = self.selection_counts.get(pol.name, 0) + 1
        return pol

    # hybrids are never planned/applied directly
    def plan(self, m, k, worker, model, graph, deps=()):
        return self.resolve(m, k, worker).plan(m, k, worker, model, graph, deps)

    def apply(self, front, k, worker):
        m = front.shape[-1] - k
        return self.resolve(m, k, worker).apply(front, k, worker)


class BaselineHybrid(HybridPolicy):
    """P_BH — select purely on total F-U flops (Section V-B1)."""

    name = "PBH"

    #: the paper's transition points in total operations
    DEFAULT_THRESHOLDS = (2e6, 1.5e7, 9e10)

    def __init__(
        self,
        thresholds: tuple[float, float, float] = DEFAULT_THRESHOLDS,
        policies: dict[str, Policy] | None = None,
    ):
        super().__init__(policies)
        if not (thresholds[0] <= thresholds[1] <= thresholds[2]):
            raise ValueError("thresholds must be non-decreasing")
        self.thresholds = thresholds

    def choose(self, m: int, k: int) -> str:
        total = sum(factor_update_flops(m, k))
        t1, t2, t3 = self.thresholds
        if total < t1:
            return "P1"
        if total < t2:
            return "P2"
        if total < t3:
            return "P3"
        return "P4"


def flops_placement(threshold: float = 2e6) -> BaselineHybrid:
    """The device-resident placement (Section VI-C): ``P4r`` where an
    (m, k) call's total flops reach ``threshold``, host ``P1`` below it
    (the paper's observation that copy-optimized P4 wins "for even
    moderately sized frontal matrices").  ``0.0`` places every front on
    the device, ``math.inf`` none."""
    return BaselineHybrid((threshold,) * 3, {"P1": PolicyP1(), "P4": PolicyP4r()})


class IdealHybrid(HybridPolicy):
    """P_IH — the oracle: pick the argmin of the per-policy simulated
    times (memoized per (m, k))."""

    name = "PIH"

    def __init__(self, model: PerfModel, policies: dict[str, Policy] | None = None):
        super().__init__(policies)
        self.model = model
        self._cache: dict[tuple[int, int], str] = {}

    def choose(self, m: int, k: int) -> str:
        key = (m, k)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        best_name, best_t = "P1", float("inf")
        for name, pol in self.policies.items():
            t = estimate_policy_time(pol, m, k, self.model)
            if t < best_t:
                best_name, best_t = name, t
        self._cache[key] = best_name
        return best_name

    def policy_times(self, m: int, k: int) -> dict[str, float]:
        return {
            name: estimate_policy_time(pol, m, k, self.model)
            for name, pol in self.policies.items()
        }


class ModelHybrid(HybridPolicy):
    """P_MH — decide with a trained multinomial-logistic policy
    classifier; the prediction is the linear rule of paper Eq. 5."""

    name = "PMH"

    def __init__(self, classifier, policies: dict[str, Policy] | None = None):
        """``classifier`` is a trained
        :class:`repro.autotune.classifier.PolicyClassifier` whose class
        names are a subset of the policy table keys."""
        super().__init__(policies)
        self.classifier = classifier
        unknown = set(classifier.class_names) - set(self.policies)
        if unknown:
            raise ValueError(f"classifier predicts unknown policies: {unknown}")

    def choose(self, m: int, k: int) -> str:
        return str(self.classifier.predict_one(m, k))
