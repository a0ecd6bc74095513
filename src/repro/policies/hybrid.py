"""Hybrid policies: per-call selection among P1..P4 (paper Section VI).

A hybrid is a *selector*: ``select(m, k)`` is the base policy its
``choose`` names for a factor-update of those dimensions; the inherited
:meth:`Policy.resolve` adds the one host fallback.  Every consumer
resolves before pricing or executing, so instrumentation records the
base policy actually used for every call.

A hybrid is also a value: ``choose`` is a function of (m, k) and of the
hybrid's parameters alone, and resolving keeps no state.  Every pricer
resolves each distinct (m, k) of a pass once, and a pass is kept per
pattern under :meth:`HybridPolicy.key` (its type, its parameters and
its table's keys) as a base policy's is: P_MH decides once per distinct
front shape (Eq. 5), and a warm refactorization decides nothing.

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

from repro.gpu.perfmodel import PerfModel
from repro.policies.base import (
    Policy, PolicyP1, PolicyP4r, estimate_policy_time, make_policy,
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

    def choose(self, m: int, k: int) -> str:
        raise NotImplementedError

    def _params(self):
        """What ``choose`` reads besides (m, k), as a value compared with
        ``==``; ``None`` (a selector that does not say) is not a value."""
        return None

    def key(self) -> "tuple | None":
        """:meth:`Policy.key`: the type, the table's names,
        :meth:`_params` and the key of the fallback and of every base in
        the table, or ``None`` where any of them is."""
        keys = (self._params(), self.fallback.key(), *(p.key() for p in self.policies.values()))
        if any(k is None for k in keys):
            return None
        return type(self), tuple(self.policies), *keys

    def select(self, m: int, k: int) -> Policy:
        return self.policies[self.choose(m, k)]

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

    def _params(self):
        return self.thresholds

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
    times (the first such policy of the table)."""

    name = "PIH"

    def __init__(self, model: PerfModel, policies: dict[str, Policy] | None = None):
        super().__init__(policies)
        self.model = model

    def _params(self):
        return self.model

    def choose(self, m: int, k: int) -> str:
        times = self.policy_times(m, k)
        return min(times, key=times.__getitem__)

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

    def _params(self):
        return self.classifier.to_dict()

    def choose(self, m: int, k: int) -> str:
        return str(self.classifier.predict_one(m, k))
