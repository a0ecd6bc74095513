"""Memoized experiment artifacts shared by benches and the harness.

:class:`SuiteCache` lazily builds and caches everything the experiment
and benchmark layers keep re-deriving: the Table-II analog matrices and
their symbolic factorizations, the paper-scale geometric workloads, the
trained policy classifier, replays, schedules and numeric factors.

It used to live in ``benchmarks/conftest.py``; it moved into the
library so the :mod:`repro.bench` scenario registry (driven from
``python -m repro bench``, no pytest involved) reuses the exact same
calibrated artifacts instead of recomputing them.  ``benchmarks/
conftest.py`` now just wraps :func:`shared_suite` in a session fixture,
so within one process pytest benches and CLI scenarios hit one cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SuiteCache", "shared_suite"]


@dataclass
class SuiteCache:
    """Lazily built, memoized experiment artifacts."""

    model: object = None
    _matrices: dict = field(default_factory=dict)
    _symbolic: dict = field(default_factory=dict)
    _workloads: dict = field(default_factory=dict)
    _replays: dict = field(default_factory=dict)
    _schedules: dict = field(default_factory=dict)
    _factors: dict = field(default_factory=dict)
    _classifier: object = None

    def __post_init__(self):
        if self.model is None:
            from repro.gpu import tesla_t10_model

            self.model = tesla_t10_model()

    # ---- numeric-scale artifacts --------------------------------------
    def matrix(self, name: str):
        if name not in self._matrices:
            from repro.matrices import TEST_MATRICES

            spec = next(s for s in TEST_MATRICES if s.name == name)
            self._matrices[name] = spec.build()
        return self._matrices[name]

    def symbolic(self, name: str, amalgamation: str = "default"):
        """Symbolic factorization of ``name`` under an amalgamation preset
        (``default | off | aggressive``), memoized per preset."""
        key = name if amalgamation == "default" else (name, amalgamation)
        if key not in self._symbolic:
            from repro.symbolic import amalgamation_preset, symbolic_factorize

            params = (
                None if amalgamation == "default"
                else amalgamation_preset(amalgamation)
            )
            self._symbolic[key] = symbolic_factorize(
                self.matrix(name), ordering="nd", amalgamation=params
            )
        return self._symbolic[key]

    # ---- paper-scale workloads ----------------------------------------
    def workload(self, name: str):
        if name not in self._workloads:
            from repro.workload import paper_workload

            self._workloads[name] = paper_workload(name)
        return self._workloads[name]

    # ---- policies -------------------------------------------------------
    def classifier(self):
        if self._classifier is None:
            from repro.autotune import train_default_classifier

            self._classifier = train_default_classifier(self.model)
        return self._classifier

    def policy(self, policy_name: str):
        from repro.policies import make_policy

        classifier = self.classifier() if policy_name == "model" else None
        return make_policy(policy_name, model=self.model, classifier=classifier)

    # ---- timing paths -----------------------------------------------------
    def replay(self, matrix_name: str, policy_name: str):
        """Numeric-scale serial pricing pass (records + makespan, no
        numerics)."""
        key = (matrix_name, policy_name)
        if key not in self._replays:
            from repro.gpu import SimulatedNode
            from repro.multifrontal.numeric import price_serial

            node = SimulatedNode(model=self.model, n_cpus=1, n_gpus=1)
            self._replays[key] = price_serial(
                self.symbolic(matrix_name), self.policy(policy_name), node
            )
        return self._replays[key]

    def schedule(self, workload_name: str, policy_name: str,
                 n_cpus: int = 1, n_gpus: int = 1,
                 gang_threshold: float | None = None):
        """Paper-scale schedule via the list scheduler.

        Serial runs disable gang scheduling (one worker can't gang);
        multi-worker runs gang the huge root fronts, mirroring WSMP's
        switch to parallel dense kernels at the top of the tree.
        """
        if gang_threshold is None:
            gang_threshold = np.inf if n_cpus == 1 else 5e9
        key = (workload_name, policy_name, n_cpus, n_gpus, gang_threshold)
        if key not in self._schedules:
            from repro.parallel import Static, make_worker_pool

            pool = make_worker_pool(n_cpus, n_gpus, model=self.model)
            self._schedules[key] = Static(gang_threshold).run(
                self.workload(workload_name), self.policy(policy_name), pool
            )
        return self._schedules[key]

    def factor(self, matrix_name: str, policy_name: str):
        """Real numeric factorization (used sparingly: validation bench)."""
        key = (matrix_name, policy_name)
        if key not in self._factors:
            from repro.gpu import SimulatedNode
            from repro.multifrontal import factorize_numeric

            node = SimulatedNode(model=self.model, n_cpus=1, n_gpus=1)
            self._factors[key] = factorize_numeric(
                self.matrix(matrix_name),
                self.symbolic(matrix_name),
                self.policy(policy_name),
                node=node,
            )
        return self._factors[key]

    def all_records(self, policy_name: str):
        """Concatenated F-U records of the numeric-scale suite (replay)."""
        from repro.matrices import TEST_MATRICES

        records = []
        for spec in TEST_MATRICES:
            records.extend(self.replay(spec.name, policy_name).records)
        return records

    def paper_records(self, policy_name: str, workloads=("audikw_1", "kyushu")):
        """Per-call records of paper-scale workloads (isolated per-call
        times from the serial pricing pass)."""
        from repro.gpu import SimulatedNode
        from repro.multifrontal.numeric import price_serial

        records = []
        for w in workloads:
            records.extend(
                price_serial(
                    self.workload(w), self.policy(policy_name),
                    SimulatedNode(model=self.model, n_cpus=1, n_gpus=1),
                ).records
            )
        return records


_SHARED: SuiteCache | None = None


def shared_suite() -> SuiteCache:
    """The process-wide :class:`SuiteCache` (created on first use)."""
    global _SHARED
    if _SHARED is None:
        _SHARED = SuiteCache()
    return _SHARED
