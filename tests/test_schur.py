"""Partial factorization / Schur complement."""

import numpy as np
import pytest

from repro.matrices import grid_laplacian_2d, grid_laplacian_3d, random_spd
from repro.multifrontal import partial_factorize
from repro.policies import BaselineHybrid, make_policy
from repro.symbolic import symbolic_factorize


def dense_schur(a, perm, ne):
    p = a.permute_symmetric(perm).to_dense()
    a11, a12 = p[:ne, :ne], p[:ne, ne:]
    a21, a22 = p[ne:, :ne], p[ne:, ne:]
    return a22 - a21 @ np.linalg.solve(a11, a12)


class TestSchurCorrectness:
    @pytest.mark.parametrize("frac", [0.25, 0.5, 0.75])
    def test_matches_dense_reference(self, frac):
        a = grid_laplacian_2d(7, 7)
        sf = symbolic_factorize(a, ordering="nd")
        pf = partial_factorize(a, sf, make_policy("P1"), int(frac * sf.n))
        ref = dense_schur(a, sf.perm, pf.n_eliminated)
        assert np.abs(pf.schur - ref).max() < 1e-10

    def test_random_spd(self):
        a = random_spd(80, seed=7)
        sf = symbolic_factorize(a, ordering="amd")
        pf = partial_factorize(a, sf, make_policy("P1"), 40)
        ref = dense_schur(a, sf.perm, pf.n_eliminated)
        assert np.abs(pf.schur - ref).max() < 1e-9

    def test_schur_is_spd(self):
        # Schur complements of SPD matrices are SPD
        a = grid_laplacian_3d(5, 5, 5)
        sf = symbolic_factorize(a, ordering="nd")
        pf = partial_factorize(a, sf, make_policy("P1"), sf.n // 2)
        w = np.linalg.eigvalsh((pf.schur + pf.schur.T) / 2)
        assert w.min() > 0

    def test_gpu_policy_fp32_schur(self):
        a = grid_laplacian_2d(8, 8)
        sf = symbolic_factorize(a, ordering="nd")
        pf = partial_factorize(a, sf, make_policy("P3"), sf.n // 2)
        ref = dense_schur(a, sf.perm, pf.n_eliminated)
        err = np.abs(pf.schur - ref).max()
        assert err < 1e-2            # fp32 ballpark
        assert err > 0               # and really touched by fp32

    def test_hybrid_policy(self):
        a = grid_laplacian_3d(5, 5, 5)
        sf = symbolic_factorize(a, ordering="nd")
        pf = partial_factorize(a, sf, BaselineHybrid(), sf.n // 3)
        ref = dense_schur(a, sf.perm, pf.n_eliminated)
        assert np.abs(pf.schur - ref).max() < 1e-2


class TestBoundaries:
    def test_zero_elimination(self):
        a = grid_laplacian_2d(5, 5)
        sf = symbolic_factorize(a, ordering="nd")
        pf = partial_factorize(a, sf, make_policy("P1"), 0)
        assert pf.n_eliminated == 0
        assert np.allclose(
            pf.schur, a.permute_symmetric(sf.perm).to_dense()
        )
        assert not pf.records

    def test_full_elimination_gives_empty_schur(self):
        a = grid_laplacian_2d(5, 5)
        sf = symbolic_factorize(a, ordering="nd")
        pf = partial_factorize(a, sf, make_policy("P1"), sf.n)
        assert pf.n_eliminated == sf.n
        assert pf.schur_order == 0
        assert len(pf.records) == sf.n_supernodes

    def test_boundary_snaps_to_supernode_edge(self):
        a = grid_laplacian_2d(6, 6)
        sf = symbolic_factorize(a, ordering="nd")
        pf = partial_factorize(a, sf, make_policy("P1"), sf.n // 2)
        assert pf.n_eliminated in set(sf.super_ptr.tolist())
        assert pf.n_eliminated <= sf.n // 2

    def test_out_of_range_rejected(self):
        a = grid_laplacian_2d(4, 4)
        sf = symbolic_factorize(a, ordering="nd")
        with pytest.raises(ValueError):
            partial_factorize(a, sf, make_policy("P1"), sf.n + 1)

    def test_timing_recorded(self):
        a = grid_laplacian_2d(6, 6)
        sf = symbolic_factorize(a, ordering="nd")
        pf = partial_factorize(a, sf, make_policy("P1"), sf.n // 2)
        assert pf.makespan > 0
        assert all(r.end >= r.start for r in pf.records)


class TestSolveWithSchur:
    def test_matches_direct_solve(self):
        from repro.multifrontal import factorize_numeric, solve_factored
        from repro.multifrontal.schur import solve_with_schur

        a = grid_laplacian_3d(5, 5, 5)
        sf = symbolic_factorize(a, ordering="nd")
        nf = factorize_numeric(a, sf, make_policy("P1"))
        rng = np.random.default_rng(3)
        b = rng.normal(size=a.n_rows)
        block = rng.normal(size=(a.n_rows, 4))
        # at half, no leaf group lies wholly inside the eliminated block
        # (its leaves are swept as groups of one); at 0.8 all four do, and
        # some of their products land past the last eliminated supernode
        for frac, stacked in ((0.5, False), (0.8, True)):
            pf = partial_factorize(a, sf, make_policy("P1"), int(frac * sf.n))
            assert any(len(st) > 1 for st in pf.stacks.values()) == stacked
            x_dd = solve_with_schur(pf, sf, b)
            x_full = solve_factored(nf, b)
            assert np.abs(x_dd - x_full).max() < 1e-9
            # a block of right-hand sides, as solve_factored takes one
            x_dd = solve_with_schur(pf, sf, block)
            assert x_dd.shape == block.shape
            assert np.abs(x_dd - solve_factored(nf, block)).max() < 1e-9
            # and again off the sweep table the first call left on ``pf``
            assert np.array_equal(solve_with_schur(pf, sf, block), x_dd)

    def test_full_elimination_is_the_full_solve_bit_for_bit(self):
        # every supernode in the prefix: the same sweeps over the same
        # panels, and an empty interface system
        from repro.multifrontal import factorize_numeric, solve_factored
        from repro.multifrontal.schur import solve_with_schur

        a = grid_laplacian_3d(5, 5, 5)
        sf = symbolic_factorize(a, ordering="nd")
        pf = partial_factorize(a, sf, make_policy("P1"), sf.n)
        nf = factorize_numeric(a, sf, make_policy("P1"))
        rng = np.random.default_rng(4)
        for b in (rng.normal(size=a.n_rows), rng.normal(size=(a.n_rows, 4))):
            assert np.array_equal(solve_with_schur(pf, sf, b), solve_factored(nf, b))

    def test_zero_elimination_degenerates_to_dense_solve(self):
        from repro.multifrontal.schur import solve_with_schur

        a = grid_laplacian_2d(4, 4)
        sf = symbolic_factorize(a, ordering="nd")
        pf = partial_factorize(a, sf, make_policy("P1"), 0)
        b = np.ones(a.n_rows)
        x = solve_with_schur(pf, sf, b)
        assert np.abs(a.matvec(x) - b).max() < 1e-10

    def test_full_elimination_unsupported_shape_guard(self):
        from repro.multifrontal.schur import solve_with_schur

        a = grid_laplacian_2d(4, 4)
        sf = symbolic_factorize(a, ordering="nd")
        pf = partial_factorize(a, sf, make_policy("P1"), sf.n // 2)
        with pytest.raises(ValueError):
            solve_with_schur(pf, sf, np.ones(3))


class TestLowerTriangleContract:
    """Update blocks are live in their lower triangle only; the Schur
    block ``partial_factorize`` returns is mirrored from that triangle.
    The small cases above only reach children below ``RUN_CUT``."""

    @pytest.mark.parametrize("frac", [0.5, 0.8])
    def test_schur_block_with_a_run_path_child_inside(self, frac):
        from repro.matrices import elasticity_3d
        from repro.multifrontal.frontal import get_assembly_plan
        from repro.multifrontal.schur import solve_with_schur

        a = elasticity_3d(8, 7, 7)
        sf = symbolic_factorize(a, ordering="amd")
        pf = partial_factorize(a, sf, make_policy("P1"), int(frac * sf.n))
        # a child extend-added run by run into an eliminated parent, whose
        # own update (garbage above the diagonal) reaches the kept block
        boundary = int(np.searchsorted(sf.super_ptr, pf.n_eliminated))
        plan = get_assembly_plan(a, sf)
        assert any(
            plan.runs[s] is not None and sf.sparent[s] < boundary
            for s in range(boundary)
        )
        assert pf.schur_order > 0
        assert np.array_equal(pf.schur, pf.schur.T)
        ref = dense_schur(a, sf.perm, pf.n_eliminated)
        assert np.allclose(pf.schur, ref, rtol=1e-10, atol=1e-10)
        b = np.random.default_rng(11).normal(size=a.n_rows)
        x = solve_with_schur(pf, sf, b)
        assert np.abs(a.matvec(x) - b).max() <= 1e-10 * np.abs(b).max()


class TestSharedPricingSlot:
    """``partial_factorize`` prices through the serial pass, so its pass
    takes the symbolic factor's one kept-pass slot (keyed by the order
    walked): the next warm refactorize prices once more, and computes
    the same factor."""

    @pytest.mark.parametrize("policy", ["P1", "P4"])
    def test_partial_between_warm_refactorizes(self, policy):
        from repro.multifrontal import SparseCholeskySolver
        from repro.verify.lattice import factor_fingerprint

        a = grid_laplacian_3d(6, 6, 6)
        solver = SparseCholeskySolver(a, ordering="nd", policy=policy).factorize()
        sf = solver.symbolic
        before = solver.refactorize(a.data).factor
        kept = sf._priced_pass
        pf = partial_factorize(a, sf, make_policy(policy), sf.n // 2)
        assert sf._priced_pass is not kept
        assert len(pf.records) < sf.n_supernodes
        after = solver.refactorize(a.data).factor
        assert sf._priced_pass.key == kept.key
        assert factor_fingerprint(after) == factor_fingerprint(before)
        assert (after.records, after.makespan) == (before.records, before.makespan)
