"""The four factor-update placement policies (Table VI) and the hybrids.

========  ========================================================
policy    placement
========  ========================================================
``P1``    potrf, trsm, syrk all on the host CPU (serial baseline)
``P2``    potrf, trsm on CPU; syrk on GPU (overlapped copies)
``P3``    potrf on CPU; trsm and syrk on GPU (overlapped copies)
``P4``    potrf, trsm, syrk all on GPU (Figure-9 blocked panels)
========  ========================================================

``Policy.resolve(m, k, worker)`` is what every consumer asks — the
pricing pass, the task pricer, the event loop, the numerics of every
backend: the base policy selected for an (m, k) call (the policy
itself, or a hybrid's choice), or host ``P1`` when ``worker`` owns no
GPU or the selected working set (``device_words``) does not fit its
device pool — the only host fallback in the code base.
:func:`make_policy` is the one name table (``P1``..``P4``, ``P4c``,
``basic``, ``baseline``, ``ideal``, ``model``).

Hybrids select one of the four per F-U call:

* :class:`BaselineHybrid` — the paper's P_BH, thresholds on total flops
  (2e6 / 1.5e7 / 9e10),
* :class:`IdealHybrid` — the oracle P_IH, argmin of the measured times,
* :class:`ModelHybrid` — the paper's contribution P_MH, a trained
  cost-sensitive multinomial-logistic classifier (see
  :mod:`repro.autotune`),
* :func:`flops_placement` — the Section VI-C copy optimization: P4 with
  its update kept on the device (:class:`PolicyP4r`) from a flops
  threshold up, ``P1`` below.
"""

from repro.policies.base import (
    ALL_BASE_POLICIES,
    FUPlan,
    PolicyP1,
    PolicyP2,
    PolicyP3,
    PolicyP4,
    PolicyP4r,
    Policy,
    Worker,
    estimate_policy_time,
    make_policy,
)
from repro.policies.hybrid import (
    BaselineHybrid,
    HybridPolicy,
    IdealHybrid,
    ModelHybrid,
    flops_placement,
)

__all__ = [
    "Policy",
    "PolicyP1",
    "PolicyP2",
    "PolicyP3",
    "PolicyP4",
    "PolicyP4r",
    "ALL_BASE_POLICIES",
    "FUPlan",
    "Worker",
    "make_policy",
    "estimate_policy_time",
    "HybridPolicy",
    "BaselineHybrid",
    "IdealHybrid",
    "ModelHybrid",
    "flops_placement",
]
