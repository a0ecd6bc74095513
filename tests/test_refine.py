"""Targeted tests for :mod:`repro.multifrontal.refine`.

Covers the paths the end-to-end suites only graze: the non-convergence
(budget exhausted / stagnation) branch, the zero-RHS edge case, the
central mixed-precision claim — an fp32-produced factor refined against
the fp64 matrix reaches double-precision solve accuracy on the whole
generator suite — the certificate that says when it does not, and the
block form the service answers through.
"""

import numpy as np
import pytest

from repro.matrices import (
    elasticity_3d,
    grid_laplacian_2d,
    grid_laplacian_3d,
    random_spd,
)
from repro.multifrontal import SparseCholeskySolver, solve_factored
from repro.multifrontal.refine import (
    backward_error_bound,
    inf_norm,
    iterative_refinement,
    normwise_backward_error,
)


def _factored(a, **kwargs):
    solver = SparseCholeskySolver(a, ordering="amd", **kwargs)
    solver.analyze().factorize()
    return solver


def _probe(shift):
    """cond(A) ~ 7e9 at shift 1e-9 and ~ 7e7 at 1e-7: fp32 refinement
    contracts at ~ cond(A) * u32, which is >= 1 and ~ 1e-1 there."""
    return random_spd(60, avg_degree=4, seed=3, shift=shift)


class TestNonConvergence:
    def test_unreachable_tolerance_reports_not_converged(self):
        # an fp32 factor of a cond ~ 7e9 matrix: no step count reaches
        # the fp64 bound
        a = _probe(1e-9)
        solver = _factored(a, policy="P4")
        b = np.ones(a.n_rows)
        res = iterative_refinement(
            solver.a, solver.factor, b, tol=0.0, max_iter=3
        )
        assert not res.converged
        # stagnation may stop the loop before the budget, never after it
        assert 1 <= res.iterations <= 3
        assert len(res.residual_norms) == res.iterations + 1
        # the non-converged x is still the last iterate, not garbage
        assert res.final_residual <= res.initial_residual < 1e-6
        assert res.final_residual > backward_error_bound(a.n_rows, 0.0)

    def test_zero_budget_returns_direct_solve(self, lap2d_small):
        solver = _factored(lap2d_small)
        b = np.ones(lap2d_small.n_rows)
        res = iterative_refinement(
            solver.a, solver.factor, b, tol=0.0, max_iter=0
        )
        assert res.iterations == 0
        assert res.residual_norms == [res.initial_residual]
        np.testing.assert_array_equal(res.x, solve_factored(solver.factor, b))
        # tol=0 still certifies at n * u64: an fp64 solve is within it
        assert res.converged
        assert res.initial_residual <= backward_error_bound(lap2d_small.n_rows, 0.0)

    def test_stagnation_guard_stops_early(self, lap2d_small):
        # a double-precision factor converges in one step; with tol=0 the
        # guard (norms[-1] > 0.5 * norms[-2]) must fire well before the
        # large budget is exhausted
        solver = _factored(lap2d_small)
        b = np.arange(1.0, lap2d_small.n_rows + 1.0)
        res = iterative_refinement(
            solver.a, solver.factor, b, tol=0.0, max_iter=50
        )
        assert res.iterations < 50


class TestZeroRhs:
    def test_zero_rhs_converges_immediately(self, lap2d_small):
        solver = _factored(lap2d_small)
        b = np.zeros(lap2d_small.n_rows)
        res = iterative_refinement(solver.a, solver.factor, b)
        assert res.converged
        assert res.iterations == 0
        assert res.initial_residual == 0.0
        assert res.final_residual == 0.0
        np.testing.assert_array_equal(res.x, np.zeros_like(b))


class TestMixedPrecisionRefinement:
    """fp32 factor + fp64 refinement = fp64 accuracy (paper Sec. III-B)."""

    CASES = [
        ("lap2d", lambda: grid_laplacian_2d(12, 12)),
        ("lap3d", lambda: grid_laplacian_3d(5, 5, 5)),
        ("elasticity", lambda: elasticity_3d(3, 3, 3)),
        ("random", lambda: random_spd(90, seed=17)),
    ]

    @pytest.mark.parametrize(
        "name,make", CASES, ids=[c[0] for c in CASES]
    )
    def test_fp32_factor_refines_to_fp64(self, name, make):
        a = make()
        solver = _factored(a, policy="P4")     # device kernels run in fp32
        b = np.random.default_rng(5).standard_normal(a.n_rows)
        direct = iterative_refinement(
            solver.a, solver.factor, b, tol=0.0, max_iter=0
        )
        res = iterative_refinement(
            solver.a, solver.factor, b, tol=1e-12, max_iter=8
        )
        assert res.converged, f"{name}: stalled at {res.final_residual:.3e}"
        assert res.final_residual <= 1e-12
        # refinement must have actually improved on the raw fp32 solve
        assert res.final_residual < direct.initial_residual

    def test_fp32_initial_residual_is_single_precision(self):
        a = grid_laplacian_2d(12, 12)
        solver = _factored(a, policy="P4")
        b = np.ones(a.n_rows)
        res = iterative_refinement(solver.a, solver.factor, b)
        # the first (unrefined) residual reflects fp32 kernels: far worse
        # than fp64 roundoff, far better than nonsense
        assert 1e-14 < res.initial_residual < 1e-3


class TestCertificate:
    """``converged`` means ``eta <= max(tol, n * u64)`` and, on a factor
    that ran fp32 kernels, a conditioning witness ``nu * u32 < 1/2``."""

    @pytest.mark.parametrize("shift", [1e-9])
    def test_fp32_factor_of_an_ill_conditioned_matrix_is_over_the_bound(
        self, shift
    ):
        a = _probe(shift)
        b = np.ones(a.n_rows)
        res = _factored(a, policy="P4").solve_refined(b)
        bound = backward_error_bound(a.n_rows, 1e-12)
        assert not res.converged
        assert res.final_residual > bound
        # the reported number is the backward error of the x returned
        assert res.final_residual == normwise_backward_error(a, res.x, b)
        # the fp64 host factor of the same matrix is certified unrefined
        host = _factored(a, policy="P1").solve_refined(b)
        assert host.converged and host.iterations == 0

    @pytest.mark.parametrize("shift", [1e-7, 1e-13])
    def test_fp32_answer_of_an_ill_conditioned_matrix_is_not_converged(self, shift):
        # cond(A) * u32 ~ 4 at shift 1e-7 and ~ 4e6 at 1e-13: whether
        # refinement ends within the bound (1e-7) or just over it (1e-13)
        # rests on the fp32 factor's rounding; the answer is refused
        # either way, and reports the backward error of the x it returns
        a = _probe(shift)
        b = np.ones(a.n_rows)
        res = _factored(a, policy="P4").solve_refined(b)
        assert not res.converged
        assert res.final_residual == normwise_backward_error(a, res.x, b)
        host = _factored(a, policy="P1").solve_refined(b)
        assert host.converged and host.iterations == 0

    def test_fp32_answer_past_the_conditioning_witness_is_not_converged(self):
        # n 2 000, shift 1e-11 (cond(A) ~ 8e11, the probe the service and
        # the API tests also answer degraded): the fp32 factor's x is wrong
        # in every digit (forward error ~ 4e5) yet its backward error is
        # within the bound; only the witness refuses it
        a = random_spd(2000, avg_degree=4, seed=3, shift=1e-11)
        b = np.ones(a.n_rows)
        res = _factored(a, policy="P4").solve_refined(b)
        assert res.final_residual <= backward_error_bound(a.n_rows, 1e-12)
        assert not res.converged
        nu = inf_norm(a) * np.abs(res.x).max() / np.abs(b).max()
        assert nu * np.finfo(np.float32).eps / 2 >= 0.5
        # the witness is read only on a factor coarser than fp64: the
        # host factor's answer is certified; so is a zero column (nu = 0)
        # of an fp32 block
        host = _factored(a, policy="P1").solve_refined(b)
        assert host.converged
        block = _factored(a, policy="P4").solve_refined(
            np.column_stack([b, np.zeros(a.n_rows)])
        )
        assert block.converged.tolist() == [False, True]

    def test_bound_is_floored_at_n_unit_roundoffs(self):
        assert backward_error_bound(100, 1e-12) == 1e-12
        assert backward_error_bound(100, 0.0) == 100 * np.finfo(np.float64).eps

    def test_backward_error_of_a_block_is_its_worst_column(self, lap2d_small):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((lap2d_small.n_rows, 3))
        x = solve_factored(_factored(lap2d_small).factor, b)
        x[:, 1] *= 1.0 + 1e-6
        etas = [normwise_backward_error(lap2d_small, x[:, j], b[:, j]) for j in range(3)]
        assert normwise_backward_error(lap2d_small, x, b) == max(etas)
        assert etas[1] > 1e-8 > etas[0]


class TestBlockRefinement:
    def test_block_columns_match_their_one_column_refinements(self):
        # an fp32 factor, so every nonzero column takes corrections; the
        # zero column is within its bound at step 0 and leaves the sweep
        a = grid_laplacian_2d(12, 12)
        solver = _factored(a, policy="P4")
        rng = np.random.default_rng(9)
        b = np.column_stack([rng.standard_normal(a.n_rows), np.zeros(a.n_rows)])
        res = iterative_refinement(solver.a, solver.factor, b)
        assert res.x.shape == b.shape
        assert res.iterations.tolist()[1] == 0 and res.iterations[0] >= 1
        assert res.converged.all()
        assert len(res.residual_norms) == res.iterations.max() + 1
        for j in range(2):
            one = iterative_refinement(solver.a, solver.factor, b[:, j])
            assert one.iterations == res.iterations[j]
            # the float32 factor is applied in float32, where a block's
            # products round otherwise than one column's: both answers
            # are held to the certificate, not to each other's bits
            assert one.converged
            for x in (res.x[:, j], one.x):
                assert normwise_backward_error(a, x, b[:, j]) <= backward_error_bound(
                    a.n_rows, 1e-12
                )
            assert res.final_residual[j] <= backward_error_bound(a.n_rows, 1e-12)

    def test_a_one_column_block_is_the_1d_refinement_bit_for_bit(self):
        a = grid_laplacian_2d(12, 12)
        solver = _factored(a, policy="P4")
        b = np.random.default_rng(4).standard_normal(a.n_rows)
        block = iterative_refinement(solver.a, solver.factor, b[:, None])
        one = iterative_refinement(solver.a, solver.factor, b)
        np.testing.assert_array_equal(block.x[:, 0], one.x)
        assert block.iterations.tolist() == [one.iterations]
        assert [float(e[0]) for e in block.residual_norms] == one.residual_norms

    def test_a_converged_column_stops_sweeping(self, monkeypatch):
        import repro.multifrontal.refine as refine_mod

        a = grid_laplacian_2d(12, 12)
        solver = _factored(a, policy="P4")
        widths = []

        def counted(factor, rhs):
            widths.append(1 if rhs.ndim == 1 else rhs.shape[1])
            return solve_factored(factor, rhs)

        monkeypatch.setattr(refine_mod, "solve_factored", counted)
        b = np.column_stack([np.ones(a.n_rows), np.zeros(a.n_rows)])
        res = iterative_refinement(solver.a, solver.factor, b)
        assert widths == [2] + [1] * int(res.iterations[0])
