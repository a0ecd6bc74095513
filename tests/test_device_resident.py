"""Device-resident factorization (the §VI-C copy-optimization mechanism)."""

import numpy as np
import pytest

from repro.dense.kernels import NotPositiveDefiniteError
from repro.gpu import SimulatedNode
from repro.matrices import elasticity_3d, grid_laplacian_2d, grid_laplacian_3d
from repro.matrices.csc import CSCMatrix
from repro.multifrontal import (
    factorize_numeric,
    factorize_resident,
    flops_placement,
    iterative_refinement,
    solve_factored,
)
from repro.multifrontal.device_resident import price_resident
from repro.policies import make_policy
from repro.symbolic import symbolic_factorize
from repro.workload import paper_workload
from tests.conftest import pricing_digest, starved_node


@pytest.fixture(scope="module")
def problem():
    a = grid_laplacian_3d(8, 8, 8)
    return a, symbolic_factorize(a, ordering="nd")


AGGRESSIVE = flops_placement(1e4)   # small problem: offload almost everything


def tiny_device_node():
    """A node whose GPU holds 8 KiB: resident updates must spill."""
    return starved_node(8 * 1024)


class TestNumerics:
    def test_solution_correct_with_refinement(self, problem):
        a, sf = problem
        nf, stats = factorize_resident(a, sf, place_on_device=AGGRESSIVE)
        assert stats.n_device_supernodes > 0
        rng = np.random.default_rng(0)
        x_true = rng.normal(size=a.n_rows)
        res = iterative_refinement(a, nf, a.matvec(x_true))
        assert np.abs(res.x - x_true).max() < 1e-9
        assert res.iterations <= 3

    def test_fp32_error_compounds_across_resident_generations(self, problem):
        a, sf = problem
        nf, _ = factorize_resident(a, sf, place_on_device=AGGRESSIVE)
        resid = nf.residual_norm(a)
        assert 1e-12 < resid < 1e-3   # fp32-limited, not garbage

    def test_all_host_placement_is_exact(self, problem):
        a, sf = problem
        nf, stats = factorize_resident(
            a, sf, place_on_device=lambda m, k: False
        )
        assert stats.n_device_supernodes == 0
        assert nf.residual_norm(a) < 1e-12

    def test_matches_p1_solution(self, problem):
        a, sf = problem
        nf_res, _ = factorize_resident(a, sf, place_on_device=AGGRESSIVE)
        nf_p1 = factorize_numeric(a, sf, make_policy("P1"))
        b = np.ones(a.n_rows)
        x1 = solve_factored(nf_p1, b)
        x2 = solve_factored(nf_res, b)
        assert np.abs(x1 - x2).max() < 1e-3


class TestResidency:
    def test_resident_reuse_happens(self, problem):
        a, sf = problem
        nf, stats = factorize_resident(a, sf, place_on_device=AGGRESSIVE)
        # chains of device supernodes pass updates without PCIe traffic
        assert stats.resident_reuse_bytes > 0
        assert stats.peak_resident_bytes > 0

    def test_resident_transfers_less_than_plain_p4(self, problem):
        a, sf = problem
        nf_res, stats = factorize_resident(a, sf, place_on_device=AGGRESSIVE)
        # plain P4 round-trips the full front both ways every call
        word = 4
        p4_traffic = sum(
            (r.m + r.k) ** 2 * word * 2 for r in nf_res.records
        )
        assert stats.h2d_bytes + stats.d2h_bytes < p4_traffic

    def test_faster_than_plain_p4_everywhere(self, problem):
        a, sf = problem
        nf_res, _ = factorize_resident(a, sf, place_on_device=AGGRESSIVE)
        nf_p4 = factorize_numeric(
            a, sf, make_policy("P4"), node=SimulatedNode()
        )
        assert nf_res.makespan < nf_p4.makespan

    def test_spilling_under_tiny_device_memory(self, problem):
        a, sf = problem
        nf, stats = factorize_resident(
            a, sf, node=tiny_device_node(), place_on_device=AGGRESSIVE
        )
        assert stats.n_spills > 0
        assert stats.peak_resident_bytes <= 8 * 1024 * 4  # bounded-ish
        # numerics survive spilling
        res = iterative_refinement(a, nf, np.ones(a.n_rows))
        assert res.final_residual < 1e-10

    def test_requires_gpu(self, problem):
        a, sf = problem
        with pytest.raises(ValueError):
            factorize_resident(
                a, sf, node=SimulatedNode(n_cpus=1, n_gpus=0)
            )

    def test_records_tag_policies(self, problem):
        a, sf = problem
        nf, stats = factorize_resident(a, sf, place_on_device=AGGRESSIVE)
        tags = {r.policy for r in nf.records}
        assert tags <= {"P4r", "P1"}
        assert "P4r" in tags

    def test_default_placement_threshold(self):
        choose = flops_placement(2e6)
        assert not choose(10, 10)
        assert choose(5000, 1000)


class TestPricingGoldens:
    """The clock of the device-resident driver, pinned.  Recorded at
    commit ``f6cdc78`` — where one private walk priced, assembled and
    factored — with this very digest, before the walk became a pricing
    function in front of the shared numerics pass."""

    MATRICES = {
        "g3d": lambda: (grid_laplacian_3d(8, 8, 8), "nd"),
        "el3d": lambda: (elasticity_3d(6, 6, 5), "amd"),
    }
    #: placement -> (flops threshold, node factory)
    PLACEMENTS = {
        "1e4": (1e4, SimulatedNode),
        "1e5": (1e5, SimulatedNode),
        "2e6": (2e6, SimulatedNode),
        "spill": (1e4, tiny_device_node),
    }
    GOLDENS = {
        "g3d/1e4": "b0bf2f3ca6246ba8",
        "g3d/1e5": "3a9682e026cd4239",
        "g3d/2e6": "b621fc4190c1b244",
        "g3d/spill": "fe74dae585b5863a",
        "el3d/1e4": "5eefe7e34c545d93",
        "el3d/1e5": "6474437076536894",
        "el3d/2e6": "c88b3767e64a441d",
        "el3d/spill": "b21fb1155f6fae4d",
    }

    @pytest.mark.parametrize("key", sorted(GOLDENS))
    def test_factorize_resident_clock(self, key):
        name, placement = key.split("/")
        a, ordering = self.MATRICES[name]()
        threshold, make_node = self.PLACEMENTS[placement]
        nf, stats = factorize_resident(
            a, symbolic_factorize(a, ordering=ordering),
            node=make_node(), place_on_device=flops_placement(threshold),
        )
        assert (stats.n_spills > 0) == (placement == "spill")
        assert pricing_digest(nf, stats) == self.GOLDENS[key]

    def test_replay_at_paper_scale(self):
        result, stats = price_resident(paper_workload("lmco"), SimulatedNode())
        assert result.makespan == 105.97516584893178
        assert pricing_digest(result, stats) == "bc93de6db014d503"


class TestSharedNumerics:
    """The floating-point work is the shared numerics pass under the
    placement, so a uniform placement *is* the serial driver."""

    @pytest.mark.parametrize(
        "on_device, policy", [(True, "P4"), (False, "P1")], ids=["device", "host"]
    )
    def test_uniform_placement_is_the_serial_driver(self, problem, on_device, policy):
        a, sf = problem
        nf, stats = factorize_resident(
            a, sf, place_on_device=lambda m, k: on_device
        )
        assert (stats.n_host_supernodes == 0) == on_device
        serial = factorize_numeric(a, sf, make_policy(policy))
        for got, want in zip(nf.panels, serial.panels, strict=True):
            assert np.array_equal(got, want)
        # the host update stack, like every other factor's; the device
        # residency peak is the statistic's
        assert nf.peak_update_bytes == serial.peak_update_bytes

    @pytest.mark.parametrize("on_device", [True, False], ids=["device", "host"])
    def test_breakdown_names_the_supernode(self, on_device):
        a = grid_laplacian_2d(8, 7)
        sf = symbolic_factorize(a, ordering="nd")
        cols = np.repeat(np.arange(a.n_cols), np.diff(a.indptr))
        data = a.data.copy()
        data[(a.indices == 20) & (cols == 20)] = -5.0
        bad = CSCMatrix(a.shape, a.indptr, a.indices, data)
        with pytest.raises(
            NotPositiveDefiniteError,
            match=r"Cholesky broke down in supernode 17 \(permuted columns 35\.\.55, ",
        ):
            factorize_resident(bad, sf, place_on_device=lambda m, k: on_device)
