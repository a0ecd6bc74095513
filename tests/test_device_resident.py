"""Device-resident factorization (the §VI-C copy-optimization mechanism):
the serial driver under a resident placement (``flops_placement``)."""

import math

import numpy as np
import pytest

from repro.dense.kernels import NotPositiveDefiniteError
from repro.gpu import SimulatedNode
from repro.matrices import elasticity_3d, grid_laplacian_2d, grid_laplacian_3d
from repro.matrices.csc import CSCMatrix
from repro.multifrontal import (
    SparseCholeskySolver,
    factorize_numeric,
    iterative_refinement,
    solve_factored,
)
from repro.multifrontal.numeric import price_serial
from repro.policies import flops_placement, make_policy
from repro.symbolic import symbolic_factorize
from repro.workload import paper_workload
from tests.conftest import pricing_digest, starved_node


@pytest.fixture(scope="module")
def problem():
    a = grid_laplacian_3d(8, 8, 8)
    return a, symbolic_factorize(a, ordering="nd")


AGGRESSIVE = 1e4   # small problem: offload almost everything


def resident_factor(a, sf, threshold=AGGRESSIVE, node=None):
    """The serial driver under the resident placement at ``threshold``."""
    return factorize_numeric(a, sf, flops_placement(threshold), node=node)


def tiny_device_node():
    """A node whose GPU holds 8 KiB: resident updates must spill."""
    return starved_node(8 * 1024)


class TestNumerics:
    def test_solution_correct_with_refinement(self, problem):
        a, sf = problem
        nf = resident_factor(a, sf)
        stats = nf.residency
        assert stats.n_device_supernodes > 0
        rng = np.random.default_rng(0)
        x_true = rng.normal(size=a.n_rows)
        res = iterative_refinement(a, nf, a.matvec(x_true))
        assert np.abs(res.x - x_true).max() < 1e-9
        assert res.iterations <= 3

    def test_fp32_error_compounds_across_resident_generations(self, problem):
        a, sf = problem
        nf = resident_factor(a, sf)
        resid = nf.residual_norm(a)
        assert 1e-12 < resid < 1e-3   # fp32-limited, not garbage

    def test_all_host_placement_is_exact(self, problem):
        a, sf = problem
        nf = resident_factor(a, sf, math.inf)
        assert nf.residency.n_device_supernodes == 0
        assert nf.residual_norm(a) < 1e-12

    def test_matches_p1_solution(self, problem):
        a, sf = problem
        nf_res = resident_factor(a, sf)
        nf_p1 = factorize_numeric(a, sf, make_policy("P1"))
        b = np.ones(a.n_rows)
        x1 = solve_factored(nf_p1, b)
        x2 = solve_factored(nf_res, b)
        assert np.abs(x1 - x2).max() < 1e-3


class TestResidency:
    def test_resident_reuse_happens(self, problem):
        a, sf = problem
        nf = resident_factor(a, sf)
        stats = nf.residency
        # chains of device supernodes pass updates without PCIe traffic
        assert stats.resident_reuse_bytes > 0
        assert stats.peak_resident_bytes > 0

    def test_resident_transfers_less_than_plain_p4(self, problem):
        a, sf = problem
        nf_res = resident_factor(a, sf)
        stats = nf_res.residency
        # plain P4 round-trips the full front both ways every call
        word = 4
        p4_traffic = sum(
            (r.m + r.k) ** 2 * word * 2 for r in nf_res.records
        )
        assert stats.h2d_bytes + stats.d2h_bytes < p4_traffic

    def test_faster_than_plain_p4_everywhere(self, problem):
        a, sf = problem
        nf_res = resident_factor(a, sf)
        nf_p4 = factorize_numeric(
            a, sf, make_policy("P4"), node=SimulatedNode()
        )
        assert nf_res.makespan < nf_p4.makespan

    def test_spilling_under_tiny_device_memory(self, problem):
        a, sf = problem
        nf = resident_factor(a, sf, node=tiny_device_node())
        stats = nf.residency
        assert stats.n_spills > 0
        assert stats.peak_resident_bytes <= 8 * 1024 * 4  # bounded-ish
        # numerics survive spilling
        res = iterative_refinement(a, nf, np.ones(a.n_rows))
        assert res.final_residual < 1e-10

    def test_requires_gpu(self, problem):
        """Without a GPU every front resolves to the host fallback, the
        one every selector has (the resident walk raised ``ValueError``
        before it was the serial pass)."""
        a, sf = problem
        nf = resident_factor(a, sf, node=SimulatedNode(n_cpus=1, n_gpus=0))
        assert {r.policy for r in nf.records} == {"P1"}
        assert nf.residency.n_device_supernodes == 0
        assert nf.residency.n_host_supernodes == sf.n_supernodes
        assert nf.residual_norm(a) < 1e-12

    def test_records_tag_policies(self, problem):
        a, sf = problem
        nf = resident_factor(a, sf)
        tags = {r.policy for r in nf.records}
        assert tags <= {"P4r", "P1"}
        assert "P4r" in tags

    def test_solver_prices_the_uploads_of_its_matrix(self, problem):
        """The solver's serial backend hands the pass its assembly plan,
        as ``factorize_numeric`` does: a front uploads A's entries, not
        one per row."""
        a, sf = problem
        solver = SparseCholeskySolver.from_symbolic(a, sf, policy=flops_placement(AGGRESSIVE))
        nf = solver.factorize().factor
        want = resident_factor(a, sf)
        assert pricing_digest(nf, nf.residency) == pricing_digest(want, want.residency)
        rows = price_serial(sf, flops_placement(AGGRESSIVE), SimulatedNode())
        assert rows.residency.h2d_bytes != nf.residency.h2d_bytes

    def test_default_placement_threshold(self):
        choose = flops_placement(2e6)
        assert choose.select(10, 10).name == "P1"
        assert choose.select(5000, 1000).name == "P4r"


class TestPricingGoldens:
    """The clock of the device-resident driver, pinned.  Recorded at
    commit ``f6cdc78`` — where one private walk priced, assembled and
    factored — with this very digest, before the walk became a pricing
    function in front of the shared numerics pass, and again before that
    function became the serial pass under a resident placement."""

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
    def test_resident_placement_clock(self, key):
        name, placement = key.split("/")
        a, ordering = self.MATRICES[name]()
        threshold, make_node = self.PLACEMENTS[placement]
        nf = resident_factor(
            a, symbolic_factorize(a, ordering=ordering), threshold, make_node()
        )
        assert (nf.residency.n_spills > 0) == (placement == "spill")
        assert pricing_digest(nf, nf.residency) == self.GOLDENS[key]

    def test_replay_at_paper_scale(self):
        result = price_serial(
            paper_workload("lmco"), flops_placement(), SimulatedNode()
        )
        assert result.makespan == 105.97516584893178
        assert pricing_digest(result, result.residency) == "bc93de6db014d503"


class TestSharedNumerics:
    """The floating-point work is the shared numerics pass under the
    placement, so a uniform placement *is* the serial driver."""

    @pytest.mark.parametrize(
        "on_device, policy", [(True, "P4"), (False, "P1")], ids=["device", "host"]
    )
    def test_uniform_placement_is_the_serial_driver(self, problem, on_device, policy):
        a, sf = problem
        nf = resident_factor(a, sf, 0.0 if on_device else math.inf)
        assert (nf.residency.n_host_supernodes == 0) == on_device
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
            resident_factor(bad, sf, 0.0 if on_device else math.inf)
