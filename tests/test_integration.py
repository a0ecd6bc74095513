"""End-to-end integration: the full pipeline on a suite matrix, hybrid
ordering of policies, and cross-module consistency."""

import numpy as np
import pytest

from repro import (
    SparseCholeskySolver,
    elasticity_3d,
    grid_laplacian_3d,
)
from repro.analysis import GridBinner, time_fraction_grid
from repro.autotune import train_default_classifier
from repro.gpu import SimulatedNode, tesla_t10_model
from repro.parallel import Static, make_worker_pool
from repro.policies import BaselineHybrid, IdealHybrid, ModelHybrid, make_policy
from repro.symbolic import symbolic_factorize


@pytest.fixture(scope="module")
def problem():
    return grid_laplacian_3d(9, 9, 9)


@pytest.fixture(scope="module")
def sf(problem):
    return symbolic_factorize(problem, ordering="nd")


@pytest.fixture(scope="module")
def model():
    return tesla_t10_model()


@pytest.fixture(scope="module")
def policy_times(problem, sf, model):
    """Simulated end-to-end seconds under each policy (shared)."""
    from repro.multifrontal import factorize_numeric

    out = {}
    for name in ("P1", "P2", "P3", "P4"):
        node = SimulatedNode(model=model, n_cpus=1, n_gpus=1)
        nf = factorize_numeric(problem, sf, make_policy(name), node=node)
        out[name] = nf.makespan
    for label, pol in (
        ("baseline", BaselineHybrid()),
        ("ideal", IdealHybrid(model)),
        ("model", ModelHybrid(train_default_classifier(model))),
    ):
        node = SimulatedNode(model=model, n_cpus=1, n_gpus=1)
        nf = factorize_numeric(problem, sf, pol, node=node)
        out[label] = nf.makespan
    return out


class TestPolicyOrdering:
    """The paper's qualitative results must hold end to end."""

    def test_hybrids_beat_static_policies(self, policy_times):
        best_static = min(policy_times[p] for p in ("P1", "P2", "P3", "P4"))
        assert policy_times["ideal"] <= best_static * 1.001

    def test_ideal_is_fastest_hybrid(self, policy_times):
        assert policy_times["ideal"] <= policy_times["model"] * 1.001
        assert policy_times["ideal"] <= policy_times["baseline"] * 1.001

    def test_model_within_paper_band_of_ideal(self, policy_times):
        # paper: model hybrid within ~2% of ideal; we allow a little slack
        assert policy_times["model"] <= policy_times["ideal"] * 1.10

    def test_model_at_least_matches_baseline(self, policy_times):
        assert policy_times["model"] <= policy_times["baseline"] * 1.02

    def test_pure_gpu_policies_lose_on_small_problems(self, policy_times):
        # this scaled problem has mostly small fronts: P3/P4 everywhere is
        # slower than the hybrid (Fig. 11's low-end behaviour)
        assert policy_times["ideal"] < policy_times["P3"]
        assert policy_times["ideal"] < policy_times["P4"]


class TestNumericalAgreementAcrossPolicies:
    def test_all_policies_agree_on_solution(self, problem):
        b = np.ones(problem.n_rows)
        xs = {}
        for name in ("P1", "P2", "P3", "P4", "baseline"):
            s = SparseCholeskySolver(problem, ordering="nd", policy=name)
            xs[name] = s.solve(b, tol=1e-12)
        ref = xs["P1"]
        for name, x in xs.items():
            assert np.abs(x - ref).max() < 1e-8, name


class TestElasticityPipeline:
    def test_vector_problem_end_to_end(self):
        a = elasticity_3d(5, 5, 5)
        s = SparseCholeskySolver(a, ordering="nd", policy="baseline")
        s.analyze().factorize()
        rng = np.random.default_rng(3)
        x_true = rng.normal(size=a.n_rows)
        x = s.solve(a.matvec(x_true))
        assert np.abs(x - x_true).max() < 1e-8
        # elasticity problems have wider supernodes than scalar ones
        widths = np.diff(s.symbolic.super_ptr)
        assert widths.max() >= 3


class TestInstrumentationConsistency:
    def test_records_feed_the_analysis_layer(self, problem, sf):
        from repro.multifrontal import factorize_numeric

        nf = factorize_numeric(problem, sf, BaselineHybrid())
        grid = time_fraction_grid(nf.records, GridBinner(bin_size=50, extent=800))
        assert grid.sum() == pytest.approx(1.0)

    def test_component_times_sum_close_to_busy(self, problem, sf):
        from repro.multifrontal import factorize_numeric

        node = SimulatedNode(n_cpus=1, n_gpus=1)
        nf = factorize_numeric(problem, sf, make_policy("P1"), node=node)
        # serial P1: every task is one front's, assembly included, and the
        # one CPU is never idle (equal but for the order of the additions)
        busy = sum(sum(r.components.values()) for r in nf.records)
        assert nf.makespan == pytest.approx(busy, rel=1e-12)


class TestParallelIntegration:
    def test_parallel_speedups_ordered(self, problem, sf):
        static = Static()
        serial = static.run(sf, make_policy("P1"), make_worker_pool(1, 0)).makespan
        t4 = static.run(sf, make_policy("P1"), make_worker_pool(4, 0)).makespan
        hybrid1 = static.run(sf, BaselineHybrid(), make_worker_pool(1, 1)).makespan
        hybrid2 = static.run(sf, BaselineHybrid(), make_worker_pool(2, 2)).makespan
        assert t4 < serial
        assert hybrid2 <= hybrid1
