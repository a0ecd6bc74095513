"""The solve plan: stacked leaf sweeps reproduce the plain loop over all
supernodes (``test_property_based.solve_per_supernode``) bit for bit, on
every kind of factor and every path that solves."""

import copy
import inspect
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dense.kernels import SUBSTITUTION_BLOCK
from repro.gpu import SimulatedNode
from repro.matrices import grid_laplacian_2d, load_test_matrix
from repro.matrices.csc import csc_from_dense
from repro.multifrontal import (
    SparseCholeskySolver,
    batched,
    factorize_numeric,
    solve_factored,
)
from repro.multifrontal.solve import get_solve_plan, trsv_lower, trsv_lower_t
from repro.policies import make_policy
from repro.symbolic import amalgamation_preset, symbolic_factorize
from tests.test_property_based import (
    assert_factor_sweeps_match_reference,
    solve_per_supernode,
    spd_matrix,
)


def test_no_stacked_leaf_is_wider_than_a_substitution_block():
    # the stacked substitutions replay the single-block case of
    # trsv_lower / trsv_lower_t
    assert batched.STACK_CUTOFF <= SUBSTITUTION_BLOCK
    for trsv in (trsv_lower, trsv_lower_t):
        assert inspect.signature(trsv).parameters["block"].default == SUBSTITUTION_BLOCK


class TestEveryKindOfFactor:
    @settings(max_examples=15, deadline=None)
    @given(spd_matrix(max_n=60))
    def test_device_factor_with_leaves_run_stacked(self, a):
        # fp32-rounded panels; every group runs stacked in the
        # factorization (one Figure-9 panel covers a leaf's pivot block)
        # and is swept stacked in the solve
        solver = SparseCholeskySolver(
            a, ordering="nd", policy="P4", backend="dynamic",
            node=SimulatedNode(n_cpus=2, n_gpus=2),
        ).factorize()
        assert solver.factor.batch_tasks == len(batched.batch_groups(solver.symbolic))
        assert_factor_sweeps_match_reference(solver.factor)

    @settings(max_examples=15, deadline=None)
    @given(spd_matrix(max_n=60), st.sampled_from(["off", "aggressive"]))
    def test_amalgamated_symbolic_factor(self, a, preset):
        sf = symbolic_factorize(
            a, ordering="nd", amalgamation=amalgamation_preset(preset)
        )
        assert_factor_sweeps_match_reference(
            factorize_numeric(a, sf, make_policy("P1"))
        )

    def test_natural_ordering_degenerates_to_the_plain_walk(self):
        a = grid_laplacian_2d(12, 11)
        sf = symbolic_factorize(a, ordering="natural")
        plan = get_solve_plan(sf)
        assert (plan.groups, plan.n_stacked) == ([], 0)
        assert plan.n_steps == sf.n_supernodes
        assert_factor_sweeps_match_reference(
            factorize_numeric(a, sf, make_policy("P1"))
        )

    @pytest.mark.parametrize("solved_before", (False, True))
    def test_deep_copied_factor(self, lap3d_small, solved_before):
        sf = symbolic_factorize(lap3d_small, ordering="nd")
        nf = factorize_numeric(lap3d_small, sf, make_policy("P1"))
        assert get_solve_plan(sf).n_stacked > 0
        if solved_before:
            solve_factored(nf, np.ones(nf.n))
        assert_factor_sweeps_match_reference(copy.deepcopy(nf))


def leaves_around_an_interior_supernode(seed: int):
    """Ten columns, natural order: one-column leaves {0}, {3}, {4}, {6}
    and two-column leaves {1, 2}, {7, 8} (two stack groups), supernode
    {5} with children {3}, {4}, and the root {9}.  Row 9 collects an
    update from {0}, {1, 2}, then {5}, then {6}, {7, 8}."""
    pattern = np.zeros((10, 10), dtype=bool)
    for i, j in ((9, 0), (2, 1), (9, 1), (9, 2), (5, 3), (5, 4), (9, 5),
                 (9, 6), (8, 7), (9, 7), (9, 8)):
        pattern[i, j] = pattern[j, i] = True
    dense = np.where(pattern, np.random.default_rng(seed).normal(size=(10, 10)), 0.0)
    dense = np.tril(dense) + np.tril(dense, -1).T
    dense[np.diag_indices(10)] = np.abs(dense).sum(axis=1) + 1.0
    return csc_from_dense(dense)


class TestScatterOrder:
    def test_the_constructed_tree(self):
        a = leaves_around_an_interior_supernode(0)
        sf = symbolic_factorize(
            a, ordering="natural", amalgamation=amalgamation_preset("off")
        )
        assert sf.super_ptr.tolist() == [0, 1, 3, 4, 5, 6, 7, 9, 10]
        plan = get_solve_plan(sf)
        assert [g.sids for g in plan.groups] == [(0, 2, 3, 5), (1, 6)]
        assert [step[0] for step in plan.interior] == [4, 7]
        before, after, tail = plan.runs
        # row 9 takes leaf products on both sides of supernode {5}, from
        # both groups each time
        assert before[0].tolist() == [9, 9, 5, 5]
        assert after[0].tolist() == [9, 9]
        assert tail is None
        assert (plan.n_stacked, plan.n_steps) == (6, 4)

    @given(st.integers(0, 10_000))
    def test_ancestor_row_updated_by_two_groups_and_an_interior(self, seed):
        a = leaves_around_an_interior_supernode(seed)
        sf = symbolic_factorize(
            a, ordering="natural", amalgamation=amalgamation_preset("off")
        )
        assert_factor_sweeps_match_reference(
            factorize_numeric(a, sf, make_policy("P1"))
        )


def test_two_threads_take_the_first_solve_at_once(lap3d_small):
    """Both build the plan (kept on the shared symbolic factor) and the
    sweep table (kept on the factor); whichever lands, both answers carry
    the reference bits."""
    a = lap3d_small
    b = np.random.default_rng(5).normal(size=a.n_rows)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            sf = symbolic_factorize(a, ordering="nd")
            nf = factorize_numeric(a, sf, make_policy("P1"))
            start = threading.Barrier(2)
            answers = [None, None]

            def solve(i, nf=nf, start=start, answers=answers):
                start.wait(timeout=30)
                answers[i] = solve_factored(nf, b)

            threads = [threading.Thread(target=solve, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            want = solve_per_supernode(nf, b)
            assert all(np.array_equal(x, want) for x in answers)
    finally:
        sys.setswitchinterval(interval)


def test_lmco_s_sweep_counts():
    """The counts-gate CI runs by name: what the plan stacks on the
    benchmark matrix, and how many Python-level steps a sweep is left
    with (1 983 before the plan)."""
    a = load_test_matrix("lmco_s")
    sf = symbolic_factorize(a, ordering="nd")
    plan = get_solve_plan(sf)
    assert sf.n_supernodes == 1983
    assert plan.n_stacked == 1620 == sum(len(g) for g in plan.groups)
    assert plan.n_steps <= 700
    nf = factorize_numeric(a, sf, make_policy("P1"))
    b = np.random.default_rng(7).normal(size=a.n_rows)
    assert np.array_equal(solve_factored(nf, b), solve_per_supernode(nf, b))
