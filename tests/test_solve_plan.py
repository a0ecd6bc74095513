"""The solve plan: stacked leaf sweeps and per-factor block inverses
reproduce the plain loop over all supernodes
(``test_property_based.solve_per_supernode``) bit for bit, on every kind
of factor and every path that solves; and the inverses answer as
accurately as the substitutions they replaced
(``tests/reference_solve.py``)."""

import copy
import inspect
import sys
import threading
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.multifrontal.solve as solve_module
from repro.dense.kernels import SUBSTITUTION_BLOCK
from repro.gpu import SimulatedNode
from repro.matrices import grid_laplacian_2d, grid_laplacian_3d, load_test_matrix, random_spd
from repro.matrices.csc import CSCMatrix, csc_from_dense
from repro.multifrontal import (
    SparseCholeskySolver,
    batched,
    factorize_numeric,
    solve_factored,
)
from repro.multifrontal.solve import get_solve_plan
from repro.policies import make_policy
from repro.symbolic import amalgamation_preset, symbolic_factorize
from repro.multifrontal.refine import normwise_backward_error
from tests.reference_solve import solve_by_substitution, trsv_lower, trsv_lower_t
from tests.test_property_based import (
    assert_factor_sweeps_match_reference,
    solve_per_supernode,
    spd_matrix,
)


def test_no_stacked_leaf_is_wider_than_a_substitution_block():
    # a stacked leaf's pivot block is one diagonal block, applied through
    # one inverse, as the plain loop (and the substitution reference)
    # takes it
    assert batched.STACK_CUTOFF <= SUBSTITUTION_BLOCK
    for trsv in (trsv_lower, trsv_lower_t):
        assert inspect.signature(trsv).parameters["block"].default == SUBSTITUTION_BLOCK


def n_blocks(plan) -> int:
    """Diagonal blocks a sweep steps through: one per block of each group
    (a group's members take each block in one stacked product)."""
    return sum(-(-g.own.shape[1] // SUBSTITUTION_BLOCK) for g in plan.groups)


def product_sources(plan) -> np.ndarray:
    """The supernode each row of the product buffer comes from."""
    source = np.empty(plan.n_products, dtype=np.int64)
    for g in plan.groups:
        if g.below is not None:
            source[g.span] = np.repeat(g.sids, g.below.shape[1])
    return source


def device_factor(a):
    # fp32-rounded panels, every leaf group stacked
    return SparseCholeskySolver(
        a, ordering="nd", policy="P4", backend="dynamic",
        node=SimulatedNode(n_cpus=2, n_gpus=2),
    ).factorize().factor


def scaled(a: CSCMatrix, decades: float, seed: int) -> CSCMatrix:
    """``D A D`` with ``D`` log-uniform over ``10^±decades``."""
    d = 10.0 ** np.random.default_rng(seed).uniform(-decades, decades, size=a.n_rows)
    cols = np.repeat(np.arange(a.n_cols), np.diff(a.indptr))
    return CSCMatrix(a.shape, a.indptr, a.indices, a.data * d[a.indices] * d[cols])


def componentwise_backward_error(a: CSCMatrix, x, b) -> float:
    """``max_i |b - A x|_i / (|A| |x| + |b|)_i`` (Oettli–Prager)."""
    abs_a = CSCMatrix(a.shape, a.indptr, a.indices, np.abs(a.data), check=False)
    return float((np.abs(b - a.matvec(x)) / (abs_a.matvec(np.abs(x)) + np.abs(b))).max())


class TestAccuracy:
    """The inverses change the rounding of ``x``, not its quality."""

    @settings(max_examples=15, deadline=None)
    @given(spd_matrix(max_n=60), st.sampled_from(["host", "device"]))
    # float32 sweeps of 4x4 factors whose eta reads 11-20x substitution's
    # (3.2e-8, 2.0e-8, 1.8e-8), all within n * u32 = 2.4e-7
    @example(random_spd(4, avg_degree=2.0, seed=38), "device")
    @example(random_spd(4, avg_degree=5.0, seed=52), "device")
    @example(random_spd(4, avg_degree=5.0, seed=101), "device")
    def test_backward_error_within_the_substitutions(self, a, kind):
        if kind == "host":
            nf = factorize_numeric(a, symbolic_factorize(a, ordering="nd"), make_policy("P1"))
        else:
            nf = device_factor(a)
        n = a.n_rows
        rng = np.random.default_rng(n)
        # the floor is the roundoff of the panels the sweeps apply: a
        # float32 panel is swept in float32
        unit_roundoff = max(np.finfo(p.dtype).eps for p in nf.panels) / 2
        for b in (rng.normal(size=n), rng.normal(size=(n, 4))):
            x, ref = solve_factored(nf, b), solve_by_substitution(nf, b)
            for xj, rj, bj in zip(*(v.reshape(n, -1).T for v in (x, ref, b))):
                eta = normwise_backward_error(a, xj, bj)
                assert eta <= max(8 * normwise_backward_error(a, rj, bj), n * unit_roundoff)

    def test_diagonally_scaled_matrix(self):
        """``D A D`` over twelve decades: substitution is invariant under
        the scaling, and so is the unit-diagonal form of the inverse
        (3.8e-16 here); a plain ``inv(L_jj)`` is not (1.9e-9)."""
        a = scaled(grid_laplacian_3d(12, 12, 12), 6, seed=3)
        nf = factorize_numeric(a, symbolic_factorize(a, ordering="nd"), make_policy("P1"))
        b = np.random.default_rng(1).normal(size=a.n_rows)
        widths = [g.own.shape[1] for g in get_solve_plan(nf.sf).groups]
        assert max(widths) > SUBSTITUTION_BLOCK  # full and tail blocks both
        for x in (solve_factored(nf, b), solve_by_substitution(nf, b)):
            assert componentwise_backward_error(a, x, b) <= 1e-14


class TestEveryKindOfFactor:
    @settings(max_examples=15, deadline=None)
    @given(spd_matrix(max_n=60))
    def test_device_factor_with_leaves_run_stacked(self, a):
        # every group runs stacked in the factorization (one Figure-9
        # panel covers a leaf's pivot block) and is swept stacked
        nf = device_factor(a)
        assert nf.batch_tasks == len(batched.batch_groups(nf.sf))
        assert_factor_sweeps_match_reference(nf)

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
        assert [g.sids for g in plan.groups] == [(s,) for s in range(sf.n_supernodes)]
        assert plan.n_steps == sf.n_supernodes + sum(g.run is not None for g in plan.groups)
        assert_factor_sweeps_match_reference(
            factorize_numeric(a, sf, make_policy("P1"))
        )

    @pytest.mark.parametrize("solved_before", (False, True))
    def test_deep_copied_factor(self, lap3d_small, solved_before):
        sf = symbolic_factorize(lap3d_small, ordering="nd")
        nf = factorize_numeric(lap3d_small, sf, make_policy("P1"))
        assert any(len(g.sids) > 1 for g in get_solve_plan(sf).groups)
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
        assert [g.sids for g in plan.groups] == [(0, 2, 3, 5), (1, 6), (4,), (7,)]
        runs = [g.run for g in plan.groups]
        assert runs[:2] == [None, None] and plan.trailing is None
        # each run is the products bound for its group's own rows: row 5
        # takes the leaves {3}, {4}; row 9 takes leaf products on both
        # sides of supernode {5}, from both groups, in supernode order
        source = product_sources(plan)
        assert plan.run_rows[runs[2]].tolist() == [5, 5]
        assert source[plan.run_at[runs[2]]].tolist() == [2, 3]
        assert plan.run_rows[runs[3]].tolist() == [9] * 5
        assert source[plan.run_at[runs[3]]].tolist() == [0, 1, 4, 5, 6]
        assert plan.n_steps == 6

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


def line_hits(fn, module=solve_module) -> Counter:
    """How many times each ``(function, line)`` of ``module`` (by default
    :mod:`repro.multifrontal.solve`) ran during ``fn()``."""
    hits: Counter = Counter()
    path = module.__file__

    def count(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_name, frame.f_lineno] += 1
        return count

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code.co_filename == path else None)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return hits


@pytest.fixture(scope="module")
def lmco_s_factor():
    a = load_test_matrix("lmco_s")
    return factorize_numeric(a, symbolic_factorize(a, ordering="nd"), make_policy("P1"))


def test_lmco_s_sweep_counts(lmco_s_factor):
    """The counts-gate CI runs by name: what the plan stacks on the
    benchmark matrix, how many Python-level steps a sweep is left with
    (1 983 before the plan; 607 with the stacked leaves and the other
    supernodes in two layouts: 363 interior steps and 244 runs), and how
    many diagonal blocks it applies as inverses (each sweep took 9 837
    per-column substitution steps over the same blocks).  Every front is
    a group: 381 of them, 18 of them stacked leaves, and a run before
    each of the 336 groups whose own rows collect products."""
    nf = lmco_s_factor
    sf, plan = nf.sf, get_solve_plan(nf.sf)
    assert sf.n_supernodes == 1983
    assert len(plan.groups) == 381
    stacked = [g for g in plan.groups if len(g.sids) > 1]
    assert (len(stacked), sum(len(g.sids) for g in stacked)) == (18, 1620)
    assert plan.n_steps == 381 + 336
    assert n_blocks(plan) == 504 + 18
    assert len(plan.regions) == 26
    assert plan.new_inverses().nbytes == 2_075_160
    b = np.random.default_rng(7).normal(size=sf.n)
    solve_factored(nf, b)  # binds the table
    # no per-column loop is left: no line of the module runs more often
    # than once per group and block (903 against 9 837)
    hits = line_hits(lambda: solve_factored(nf, b))
    assert max(hits.values()) <= len(plan.groups) + n_blocks(plan)
    assert np.array_equal(solve_factored(nf, b), solve_per_supernode(nf, b))


def test_lmco_s_inverses_are_a_tenth_of_the_panels(lmco_s_factor):
    """The per-factor buffer of diagonal-block inverses: 2.1 MB against
    29.3 MB of panels, and every inverse the sweeps apply is a view of
    it."""
    nf = lmco_s_factor
    solve_factored(nf, np.ones(nf.n))
    table = nf.sweep
    assert table.inverses.nbytes <= 0.1 * sum(p.nbytes for p in nf.panels)
    for l1, _, w in table.steps:
        for region in (w,) if l1 is None else [wj for *_, wj in w]:
            assert region.base is table.inverses


@pytest.mark.parametrize("case,policy,total,in_bind", [
    ("lmco_s/nd", "P1", 2124, 18),
    ("grid_laplacian_2d/amd", "P1", 1032, 3),
    # the device panel solves leave their float32 inverses, which the
    # sweeps apply to the float32 panels; the root (m = 0) keeps the 16
    # blocks its first panels' trsm inverted, and bind inverts only its
    # last panel's 2 (2 140 / 18 before, when the root threw those 16
    # away; 4 246 / 2 124 before that, when the panels were widened and
    # bind inverted every block again)
    ("lmco_s/nd", "P4", 2124, 2),
])
def test_invert_once_counts(case, policy, total, in_bind):
    """The counts-gate CI runs by name: over one warm refactorize + solve,
    the matrices handed to ``np.linalg.inv`` (a stack counts each of its
    blocks).  The host panel solves leave their diagonal-block inverses
    in the factor's buffer, and so do the device panel solves of P4 in
    float32, so ``SolvePlan.bind`` inverts only what no panel solve
    produced — the blocks of a host root with nothing below its pivots,
    the last panel's blocks of such a device root, and device fronts
    whose panel width is not a multiple of the block.  Before, bind
    inverted every block again: 4 230 on ``lmco_s``/nd P1, 2 061 on the
    grid and 4 246 on P4.  The
    inverses come out as a bind from the panels computes them, so ``x``
    is the same, bit for bit."""
    name, ordering = case.split("/")
    a = load_test_matrix(name) if name == "lmco_s" else grid_laplacian_2d(48, 46)
    kwargs = dict(policy=policy)
    if policy == "P4":
        kwargs.update(backend="dynamic", node=SimulatedNode(n_cpus=2, n_gpus=2))
    solver = SparseCholeskySolver(a, ordering=ordering, **kwargs).factorize()
    b = np.random.default_rng(7).normal(size=a.n_rows)
    solver.solve(b)

    counts = Counter()
    inv, bind = np.linalg.inv, solve_module.SolvePlan.bind
    where = ["walk"]

    def counting_inv(m):
        counts[where[0]] += int(np.prod(m.shape[:-2]))
        return inv(m)

    def counting_bind(*args, **kwargs):
        where[0] = "bind"
        try:
            return bind(*args, **kwargs)
        finally:
            where[0] = "walk"

    with mock.patch.object(np.linalg, "inv", counting_inv), \
            mock.patch.object(solve_module.SolvePlan, "bind", counting_bind):
        solver.refactorize(a.data)
        x = solver.solve(b)
    assert sum(counts.values()) == total
    assert counts["bind"] == in_bind
    solver.factor.sweep = None  # bind again, every block from the panels
    assert np.array_equal(solver.solve(b), x)


@pytest.mark.parametrize("policy", ["P1", "P4"])
def test_one_slots_build_per_factorize(policy):
    """``SolvePlan.slots`` (the per-supernode views of the buffer of
    inverses) is built once per factorization: the numerics pass hands
    the walk's views to ``bind`` (it built them twice before, 0.41 ms a
    call on this grid), and a solve of the bound factor builds none."""
    a = grid_laplacian_2d(48, 46)
    solver = SparseCholeskySolver(a, ordering="amd", policy=policy).factorize()
    b = np.random.default_rng(7).normal(size=a.n_rows)
    x = solver.solve(b)
    calls = Counter()
    slots = solve_module.SolvePlan.slots

    def counting_slots(*args, **kwargs):
        calls["slots"] += 1
        return slots(*args, **kwargs)

    with mock.patch.object(solve_module.SolvePlan, "slots", counting_slots):
        solver.refactorize(a.data)
        assert calls["slots"] == 1
        assert np.array_equal(solver.solve(b), x)
        assert calls["slots"] == 1
