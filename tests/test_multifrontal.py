"""Multifrontal numeric phase: assembly, factorization, solve, refinement."""

import dataclasses
import math
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from repro.matrices import (
    elasticity_3d,
    grid_laplacian_2d,
    grid_laplacian_3d,
    load_test_matrix,
    random_spd,
)
from repro.matrices.csc import CSCMatrix, csc_from_dense
from repro.multifrontal import (
    SparseCholeskySolver,
    factorize_numeric,
    iterative_refinement,
    solve_factored,
)
from repro.multifrontal.frontal import AssemblyPlan, assembly_bytes
from repro.gpu import SimulatedNode
from repro.policies import make_policy
from repro.symbolic import (
    AMALGAMATION_PRESETS,
    amalgamation_preset,
    symbolic_factorize,
)
from tests.reference_assembly import assemble_front, extend_add, reference_plan
from tests.reference_solve import trsv_lower, trsv_lower_t


class TestExtendAdd:
    def test_scatter_add(self):
        front = np.zeros((4, 4))
        parent_rows = np.array([2, 5, 7, 9])
        child_rows = np.array([5, 9])
        u = np.array([[1.0, 2.0], [2.0, 3.0]])
        extend_add(front, parent_rows, child_rows, u)
        assert front[1, 1] == 1.0
        assert front[1, 3] == 2.0
        assert front[3, 3] == 3.0

    def test_rejects_uncontained_rows(self):
        with pytest.raises(ValueError):
            extend_add(
                np.zeros((2, 2)),
                np.array([1, 3]),
                np.array([2]),
                np.array([[1.0]]),
            )

    def test_empty_child_noop(self):
        front = np.zeros((2, 2))
        extend_add(front, np.array([0, 1]), np.array([], dtype=np.int64), np.zeros((0, 0)))
        assert (front == 0).all()

    def test_assembly_bytes_positive(self):
        assert assembly_bytes(10, [4, 6]) > assembly_bytes(10, [])


class TestAssembleFront:
    def test_leaf_front_matches_matrix(self):
        a = grid_laplacian_2d(4, 4)
        sf = symbolic_factorize(a, ordering="natural")
        ap = a.permute_symmetric(sf.perm).lower_triangle()
        # leaf supernodes have no children
        kids = sf.schildren()
        leaf = next(s for s in range(sf.n_supernodes) if not kids[s])
        front = assemble_front(ap, sf, leaf, [])
        # symmetric and contains the A entries of its columns
        assert np.allclose(front, front.T)
        f = int(sf.super_ptr[leaf])
        dense = a.permute_symmetric(sf.perm).to_dense()
        rows = sf.rows[leaf]
        k = sf.width(leaf)
        assert np.allclose(front[:, :k], dense[np.ix_(rows, np.arange(f, f + k))])


def solve_and_check(a, policy_name, ordering="amd", node=None, atol=1e-6):
    sf = symbolic_factorize(a, ordering=ordering)
    pol = make_policy(policy_name)
    nf = factorize_numeric(a, sf, pol, node=node)
    rng = np.random.default_rng(1)
    x_true = rng.normal(size=a.n_rows)
    b = a.matvec(x_true)
    x = solve_factored(nf, b)
    return nf, np.abs(x - x_true).max() / np.abs(x_true).max()


class TestFactorizeNumeric:
    @pytest.mark.parametrize("ordering", ["natural", "amd", "rcm", "nd"])
    def test_p1_exact_under_all_orderings(self, ordering, lap2d_small):
        nf, err = solve_and_check(lap2d_small, "P1", ordering)
        assert err < 1e-10
        assert nf.residual_norm(lap2d_small) < 1e-12

    @pytest.mark.parametrize("policy", ["P2", "P3", "P4"])
    def test_gpu_policies_fp32_accuracy(self, policy, lap2d_small):
        nf, err = solve_and_check(lap2d_small, policy)
        assert err < 1e-3          # single precision ballpark
        assert nf.residual_norm(lap2d_small) < 1e-4

    def test_random_spd(self, rand_spd_small):
        nf, err = solve_and_check(rand_spd_small, "P1")
        assert err < 1e-9

    def test_3d_problem(self, lap3d_small):
        nf, err = solve_and_check(lap3d_small, "P1", "nd")
        assert err < 1e-9

    def test_records_cover_all_supernodes(self, lap2d_small):
        sf = symbolic_factorize(lap2d_small, ordering="amd")
        nf = factorize_numeric(lap2d_small, sf, make_policy("P1"))
        assert len(nf.records) == sf.n_supernodes
        assert {r.sid for r in nf.records} == set(range(sf.n_supernodes))
        assert all(r.end >= r.start >= 0 for r in nf.records)

    def test_makespan_increases_with_records(self, lap2d_small):
        sf = symbolic_factorize(lap2d_small, ordering="amd")
        nf = factorize_numeric(lap2d_small, sf, make_policy("P1"))
        assert nf.makespan >= max(r.end for r in nf.records)
        assert nf.makespan > 0

    def test_peak_update_memory_tracked(self, lap3d_small):
        sf = symbolic_factorize(lap3d_small, ordering="nd")
        nf = factorize_numeric(lap3d_small, sf, make_policy("P1"))
        assert nf.peak_update_bytes > 0

    def test_l_matrix_lower_triangular(self, lap2d_small):
        sf = symbolic_factorize(lap2d_small, ordering="amd")
        nf = factorize_numeric(lap2d_small, sf, make_policy("P1"))
        l = nf.l_matrix()
        dense = l.to_dense()
        assert np.allclose(np.triu(dense, 1), 0.0)
        perm_a = lap2d_small.permute_symmetric(sf.perm).to_dense()
        assert np.allclose(dense @ dense.T, perm_a, atol=1e-10)


class TestTriangleStorage:
    """The drivers under the solver take the storage ``symbolic_factorize``
    takes — both triangles or either one — and read an entry from
    whichever side of the diagonal it is stored on.  A fill-reducing
    permutation leaves about half of a one-triangle store above the
    diagonal of ``P A P^T``; read as "the lower triangle of the permuted
    matrix" those entries were dropped and the factor came out wrong,
    without an error (``max |b - A x|`` 2.74 on the first case)."""

    @staticmethod
    def stores(a):
        """``a`` in every storage of its symmetric pattern."""
        lower = a.lower_triangle()
        cols = np.repeat(np.arange(a.n_cols), np.diff(a.indptr))
        # each off-diagonal pair on one side only, which one by the sum of
        # its coordinates, and every fifth pair on both
        low = a.indices > cols
        s = a.indices + cols
        keep = (a.indices == cols) | (s % 5 == 0) | (low == (s % 2 == 0))
        mixed = CSCMatrix.from_coo(
            a.indices[keep], cols[keep], a.data[keep], a.shape
        )
        assert lower.nnz < mixed.nnz < a.nnz
        assert not mixed.is_structurally_symmetric()
        return {"lower": lower, "upper": lower.transpose(), "mixed": mixed}

    @pytest.mark.parametrize("storage", ["lower", "upper", "mixed"])
    @pytest.mark.parametrize("ordering", ["nd", "amd", "natural"])
    def test_every_driver_reads_both_sides(self, storage, ordering):
        from repro.multifrontal import partial_factorize
        from repro.multifrontal.schur import solve_with_schur
        from repro.policies import flops_placement

        a = grid_laplacian_2d(9, 8)
        cols = np.repeat(np.arange(a.n_cols), np.diff(a.indptr))
        a = CSCMatrix(  # distinct values, so a misplaced entry shows
            a.shape, a.indptr, a.indices,
            a.data * (1.0 + 0.01 * np.minimum(a.indices, cols)),
        )
        stored = self.stores(a)[storage]
        sf = symbolic_factorize(stored, ordering=ordering)
        want = factorize_numeric(a, sf, make_policy("P1"))
        b = np.random.default_rng(5).normal(size=a.n_rows)

        numeric = factorize_numeric(stored, sf, make_policy("P1"))
        resident = factorize_numeric(stored, sf, flops_placement(math.inf))
        for nf in (numeric, resident):
            for got, ref in zip(nf.panels, want.panels, strict=True):
                assert np.array_equal(got, ref)
            assert np.abs(a.matvec(solve_factored(nf, b)) - b).max() < 1e-12

        half = partial_factorize(stored, sf, make_policy("P1"), sf.n // 2)
        full = partial_factorize(a, sf, make_policy("P1"), sf.n // 2)
        assert np.array_equal(half.schur, full.schur)
        assert np.abs(a.matvec(solve_with_schur(half, sf, b)) - b).max() < 1e-12

        # the solver symmetrises the store first
        x = SparseCholeskySolver(stored, ordering=ordering).solve(b)
        assert np.abs(a.matvec(x) - b).max() < 1e-12

    @pytest.mark.parametrize("storage", ["lower", "upper", "mixed"])
    def test_solver_answers_every_store_with_the_full_stores_x(
        self, spd_stores, storage
    ):
        # a pair stored on both sides was mirrored onto itself and came
        # out doubled: max|x - x_full| 1.67 on the mixed store, no error
        full, stored = spd_stores["full"], spd_stores[storage]
        b = np.random.default_rng(5).normal(size=full.n_rows)
        want = SparseCholeskySolver(full).solve(b)
        assert np.array_equal(SparseCholeskySolver(stored).solve(b), want)
        swapped = SparseCholeskySolver(full).analyze().update_values(stored)
        assert np.array_equal(swapped.a.data, full.data)
        assert np.array_equal(swapped.solve(b), want)

    def test_coordinate_stored_twice_is_refused(self):
        from repro.multifrontal.frontal import AssemblyPlan

        a = grid_laplacian_2d(4, 4)
        sf = symbolic_factorize(a, ordering="nd")
        # column 0 again behind itself: same coordinates, twice
        head = int(a.indptr[1])
        twice = CSCMatrix(
            a.shape,
            np.concatenate([[0], a.indptr[1:] + head]),
            np.concatenate([a.indices[:head], a.indices]),
            np.concatenate([a.data[:head], a.data]),
            check=False,
        )
        with pytest.raises(ValueError, match="more than once"):
            AssemblyPlan(twice, sf)


class TestLowerTriangleContract:
    """Fronts are live in their lower triangle only: nothing the numerics
    pass computes may read above the diagonal of an assembled front.  So
    NaN written over the strict upper triangle of every slice of every
    stack :func:`repro.multifrontal.frontal.assemble_group` returns
    leaves every panel bit and ``x`` as they are, and raises no
    floating-point warning (the device path casts whole fronts)."""

    @staticmethod
    def factor_and_solve(policy: str):
        a = grid_laplacian_3d(13, 13, 12)
        kwargs = dict(policy=policy)
        if policy == "P4":
            kwargs.update(backend="dynamic", node=SimulatedNode(n_cpus=2, n_gpus=2))
        solver = SparseCholeskySolver(a, ordering="amd", **kwargs).factorize()
        x = solver.solve(np.random.default_rng(3).normal(size=a.n_rows))
        return solver.factor.panels, x, solver.symbolic

    @pytest.mark.parametrize("policy", ["P1", "P4"])
    def test_poisoned_upper_triangle_is_never_read(self, policy, monkeypatch):
        from repro.dense.blocked import default_panel_width
        from repro.multifrontal import frontal, numeric

        want_panels, want_x, _ = self.factor_and_solve(policy)
        poisoned = []

        def assemble(plan, a_data, g, *args, **kwargs):
            stack = frontal.assemble_group(plan, a_data, g, *args, **kwargs)
            stack[(slice(None), *np.triu_indices(g.size, 1))] = np.nan
            poisoned.extend(g.sids)
            return stack

        monkeypatch.setattr(numeric, "assemble_group", assemble)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            panels, x, sf = self.factor_and_solve(policy)
        assert max(sf.rows[s].size for s in poisoned) > 1
        if policy == "P4":
            # fronts the Figure-9 loop factors in more than one panel: the
            # blocks above their update, which the loop no longer mirrors,
            # are poisoned too (3 such fronts on this matrix)
            widths = [sf.width(s) for s in poisoned]
            assert sum(k > default_panel_width(k) for k in widths) >= 3
        for got, want in zip(panels, want_panels, strict=True):
            assert np.array_equal(got, want)
        assert np.array_equal(x, want_x)


class TestDeviceFrontRoundTrip:
    """``PolicyP4.apply`` factors a device copy of the front and writes
    nothing back: the walk widens the panel straight out of the device
    front into the factor, and the update leaves the walk in the device
    dtype, to be widened inside the parent's extend-add (or the Schur
    complement's fold), where ``c + u`` keeps its bits."""

    @staticmethod
    def spy_walk(monkeypatch, matrix, ordering, **kwargs):
        """Factor ``matrix`` under ``kwargs``, recording every front a
        device ``apply`` wrote into and the dtype of every update the
        assembly folded in."""
        from repro.multifrontal import numeric
        from repro.policies.base import PolicyP4

        written, dtypes = [], Counter()
        apply, assemble = PolicyP4.apply, numeric.assemble_group

        def spy_apply(self, front, k, worker, **kwargs):
            before = front.tobytes()
            out = apply(self, front, k, worker, **kwargs)
            if front.tobytes() != before:
                written.append(front.shape[0])
            return out

        def spy_assemble(plan, a_data, g, child_updates, *args):
            dtypes.update(u.dtype.name for _, u in child_updates)
            return assemble(plan, a_data, g, child_updates, *args)

        monkeypatch.setattr(PolicyP4, "apply", spy_apply)
        monkeypatch.setattr(numeric, "assemble_group", spy_assemble)
        solver = SparseCholeskySolver(matrix, ordering=ordering, **kwargs).factorize()
        return solver, written, dtypes

    def test_p4_leaves_every_host_front_as_assembled(self, monkeypatch):
        solver, written, _ = self.spy_walk(
            monkeypatch, grid_laplacian_3d(13, 13, 12), "amd", policy="P4"
        )
        assert solver.factor.batched_fronts < solver.symbolic.n_supernodes
        assert written == []
        # the panels stay in the device dtype, the stacked ones too
        assert {p.dtype for p in solver.factor.panels} == {np.dtype(np.float32)}
        assert {p.dtype for p in solver.factor.stacks.values()} == {np.dtype(np.float32)}

    def test_byproducts_read_the_float32_panels_widened(self):
        # log det and L are what they were when the walk widened every
        # panel to float64: a twin holding the widened panels reads the
        # same bits
        solver = SparseCholeskySolver(
            grid_laplacian_3d(9, 8, 7), ordering="nd", policy="P4"
        ).factorize()
        factor = solver.factor
        twin = dataclasses.replace(
            factor, panels=[p.astype(np.float64) for p in factor.panels], sweep=None
        )
        assert factor.log_determinant() == twin.log_determinant()
        l, l64 = factor.l_matrix(), twin.l_matrix()
        assert l.data.dtype == np.float64
        for got, want in ((l.data, l64.data), (l.indices, l64.indices),
                          (l.indptr, l64.indptr)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("precision,dtype", [("sp", "float32"), ("dp", "float64")])
    def test_device_updates_leave_the_walk_in_the_device_dtype(
        self, monkeypatch, precision, dtype
    ):
        from repro.gpu import tesla_t10_model

        node = SimulatedNode(model=tesla_t10_model().with_precision(precision))
        _, _, dtypes = self.spy_walk(
            monkeypatch, grid_laplacian_2d(30, 28), "amd", policy="P4", node=node
        )
        assert set(dtypes) == {dtype} and dtypes[dtype] > 100

    def test_schur_fold_widens_device_updates_inside_the_add(self, monkeypatch):
        from repro.multifrontal import schur

        a = grid_laplacian_2d(20, 18)
        sf = symbolic_factorize(a, ordering="nd")
        cut = int(sf.super_ptr[sf.n_supernodes // 2])
        walk, seen = schur._numeric_walk, []

        def spy(*args):
            out = walk(*args)
            seen.extend(u.dtype for u in out[2].values())
            return out

        def widened(*args):
            panels, stacks, leftover, *rest = walk(*args)
            leftover = {s: u.astype(np.float64) for s, u in leftover.items()}
            return (panels, stacks, leftover, *rest)

        monkeypatch.setattr(schur, "_numeric_walk", spy)
        got = schur.partial_factorize(a, sf, make_policy("P4"), cut).schur
        monkeypatch.setattr(schur, "_numeric_walk", widened)
        want = schur.partial_factorize(a, sf, make_policy("P4"), cut).schur
        assert seen and set(seen) == {np.dtype(np.float32)}
        assert got.size and np.array_equal(got, want)


class TestPlanAgainstPerSupernodeBuild:
    """``AssemblyPlan`` places every entry and every child row with one
    position search over all fronts; ``reference_plan`` searches front by
    front.  Every index array and every group's gather/scatter agree, and
    the build refuses what the per-supernode one refuses, with its
    messages."""

    @staticmethod
    def assert_same_plan(plan, ref):
        def same(got, want, where):
            assert type(got) is type(want), where
            if isinstance(got, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), where
            elif isinstance(got, (tuple, list)):
                assert len(got) == len(want), where
                for x, y in zip(got, want):
                    same(x, y, where)
            else:
                assert got == want, where

        for name in ("src", "dst", "place", "runs", "fold"):
            for s, (got, want) in enumerate(
                zip(getattr(plan, name), getattr(ref, name), strict=True)
            ):
                same(got, want, (name, s))
        assert plan.n_kids == ref.n_kids
        for g, h in zip(plan.groups, ref.groups, strict=True):
            assert (g.size, g.k, g.sids) == (h.size, h.k, h.sids)
            same((g.src, g.dst), (h.src, h.dst), ("group", g.sids[0]))

    # the four matrices whose structure TestPinnedStructure pins
    PINNED = {
        "lmco_s/nd": lambda: load_test_matrix("lmco_s"),
        "grid_laplacian_2d/amd": lambda: grid_laplacian_2d(48, 46),
        "grid_laplacian_3d/amd": lambda: grid_laplacian_3d(13, 13, 12),
        "elasticity_3d/amd": lambda: elasticity_3d(8, 7, 7),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_structures(self, case):
        a = self.PINNED[case]()
        sf = symbolic_factorize(a, ordering=case.split("/")[1])
        self.assert_same_plan(AssemblyPlan(a, sf), reference_plan(a, sf))

    @pytest.mark.parametrize("storage", ["lower", "mixed"])
    def test_one_triangle_and_mixed_stores(self, storage):
        stored = TestTriangleStorage.stores(grid_laplacian_2d(9, 8))[storage]
        sf = symbolic_factorize(stored, ordering="nd")
        self.assert_same_plan(AssemblyPlan(stored, sf), reference_plan(stored, sf))

    @pytest.mark.parametrize("preset", AMALGAMATION_PRESETS)
    def test_amalgamation_presets(self, preset):
        a = elasticity_3d(5, 5, 4)
        sf = symbolic_factorize(
            a, ordering="nd", amalgamation=amalgamation_preset(preset)
        )
        self.assert_same_plan(AssemblyPlan(a, sf), reference_plan(a, sf))

    def test_entry_outside_the_pattern_is_refused(self):
        from tests.test_bench import _with_entry_outside_pattern

        a = grid_laplacian_2d(6, 6)
        sf = symbolic_factorize(a, ordering="nd")
        tampered = _with_entry_outside_pattern(a, sf)
        messages = []
        for build in (AssemblyPlan, reference_plan):
            with pytest.raises(ValueError) as err:
                build(tampered, sf)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].endswith(": matrix entries outside symbolic pattern")

    def test_child_rows_missing_from_the_parent_are_refused(self):
        import dataclasses

        a = grid_laplacian_2d(6, 6)
        sf = symbolic_factorize(a, ordering="nd")
        # one row more in a child's update than its parent's front holds
        # (a larger front of its own never strands an entry of A)
        s = next(s for s in range(sf.n_supernodes) if sf.sparent[s] >= 0)
        parent_rows = set(sf.rows[int(sf.sparent[s])].tolist())
        extra = next(
            r for r in range(int(sf.super_ptr[s + 1]), sf.n)
            if r not in parent_rows and r not in set(sf.rows[s].tolist())
        )
        rows = list(sf.rows)
        rows[s] = np.sort(np.append(rows[s], extra))
        tampered = dataclasses.replace(sf, rows=rows)
        for build in (AssemblyPlan, reference_plan):
            with pytest.raises(
                ValueError,
                match="extend-add: child rows not contained in parent front",
            ):
                build(a, tampered)


def _symmetric(u: np.ndarray) -> np.ndarray:
    """The full symmetric float64 matrix whose lower triangle is ``u``'s."""
    low = np.tril(u.astype(np.float64))
    return low + np.tril(low, -1).T


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.int64)


class TestAssemblyOracle:
    """The planned assembly — A and the small children past the first as
    one scatter segment each stretch, a small first child placed whole, a
    large child run by run with its narrow runs as open grids — held
    against ``tests/reference_assembly.py`` on every front and stack a
    real walk assembles: on the lower triangle, bit for bit (zero signs
    included) against the item-by-item fold
    (:func:`~tests.reference_assembly.assemble_front_in_order`), and equal
    to the per-column symmetric assembly
    (:func:`~tests.reference_assembly.assemble_front`)."""

    CASES = {
        "lmco_s/nd": lambda: load_test_matrix("lmco_s"),
        # the three generators of the api-mixed workload
        "grid_laplacian_2d/amd": lambda: grid_laplacian_2d(48, 46),
        "grid_laplacian_3d/amd": lambda: grid_laplacian_3d(13, 13, 12),
        "elasticity_3d/amd": lambda: elasticity_3d(8, 7, 7),
    }

    @staticmethod
    def checked(monkeypatch, a, sf, walk) -> Counter:
        """Run ``walk()`` with every front and stack it assembles checked;
        returns how many fronts, stacks and child updates (by dtype) were."""
        from repro.multifrontal import numeric
        from tests.reference_assembly import assemble_front_in_order

        a_lower = a.permute_symmetric(sf.perm).lower_triangle()
        seen = Counter()
        group = numeric.assemble_group

        def check(s, front, child_updates):
            lower = np.tril_indices(front.shape[0])
            want = assemble_front_in_order(a_lower, sf, s, child_updates)
            assert np.array_equal(_bits(front[lower]), _bits(want[lower])), s
            full = assemble_front(a_lower, sf, s, [
                (sf.rows[c][sf.width(c):], _symmetric(cu)) for c, cu in child_updates
            ])
            assert np.array_equal(front[lower], full[lower]), s

        def group_spy(plan, a_data, g, child_updates, *args, **kwargs):
            stack = group(plan, a_data, g, child_updates, *args, **kwargs)
            for s, front in zip(g.sids, stack):
                check(s, front, child_updates)
            seen["fronts" if len(g) == 1 else "stacks"] += 1
            seen.update(u.dtype.name for _, u in child_updates)
            return stack

        monkeypatch.setattr(numeric, "assemble_group", group_spy)
        walk()
        monkeypatch.undo()
        return seen

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_front_of_a_p1_walk(self, monkeypatch, case):
        from repro.multifrontal.batched import batch_groups

        a = self.CASES[case]()
        sf = symbolic_factorize(a, ordering=case.split("/")[1])
        seen = self.checked(
            monkeypatch, a, sf, lambda: factorize_numeric(a, sf, make_policy("P1"))
        )
        assert seen["fronts"] + sum(map(len, batch_groups(sf))) == sf.n_supernodes
        assert seen["float64"] == sf.n_supernodes - sum(sf.sparent < 0)

    def test_float32_children(self, monkeypatch):
        # a P4 walk hands its parents float32 updates
        a = grid_laplacian_3d(13, 13, 12)
        sf = symbolic_factorize(a, ordering="amd")
        seen = self.checked(
            monkeypatch, a, sf, lambda: factorize_numeric(a, sf, make_policy("P4"))
        )
        assert seen["float32"] > 100 and seen["stacks"] > 0

    def test_schur_prefix_walk(self, monkeypatch):
        from repro.multifrontal.schur import partial_factorize

        a = grid_laplacian_2d(48, 46)
        sf = symbolic_factorize(a, ordering="amd")
        cut = int(sf.super_ptr[sf.n_supernodes - 12])
        seen = self.checked(
            monkeypatch, a, sf,
            lambda: partial_factorize(a, sf, make_policy("P1"), cut),
        )
        assert 0 < seen["fronts"] < sf.n_supernodes

    def test_child_updates_the_fold_does_not_expect_are_refused(self):
        from repro.multifrontal.frontal import assemble_front_planned, get_assembly_plan

        a = grid_laplacian_2d(20, 18)
        sf = symbolic_factorize(a, ordering="amd")
        plan = get_assembly_plan(a, sf)
        kids = sf.schildren()
        s = next(s for s in range(sf.n_supernodes) if len(kids[s]) >= 2)
        updates = [(c, np.zeros((sf.update_size(c),) * 2)) for c in kids[s][1:]]
        with pytest.raises(ValueError, match=f"folds {len(kids[s])} child updates, got"):
            assemble_front_planned(plan, a.data, sf.rows[s].size, s, updates)

    @pytest.mark.parametrize("placed", ["whole", "run by run"])
    def test_a_first_childs_negative_zero_stays(self, placed):
        # the first child is assigned onto the zero-filled front: where
        # nothing else lands its -0.0 stays -0.0, which adding it onto the
        # zeros would turn into +0.0
        from repro.multifrontal.frontal import assemble_front_planned, get_assembly_plan
        from tests.reference_assembly import assemble_front_in_order

        a = load_test_matrix("lmco_s")
        sf = symbolic_factorize(a, ordering="nd")
        plan = get_assembly_plan(a, sf)
        kids = sf.schildren()
        s = next(
            s for s in range(sf.n_supernodes) if len(kids[s]) >= 2
            and (plan.runs[kids[s][0]] is None) == (placed == "whole")
        )
        updates = [(c, np.full((sf.update_size(c),) * 2, -0.0)) for c in kids[s]]
        size = sf.rows[s].size
        front = assemble_front_planned(
            plan, a.data, size, s, updates, np.full(size * size, np.nan)
        )
        want = assemble_front_in_order(
            a.permute_symmetric(sf.perm).lower_triangle(), sf, s, updates
        )
        lower = np.tril_indices(size)
        assert np.array_equal(_bits(front[lower]), _bits(want[lower]))
        assert np.signbit(front[lower]).any()


class TestApplyOwnsItsOutputs:
    """``Policy.apply`` hands back a panel and an update it owns: the walk
    keeps both as they are, with no copy-out.  For every base policy, on
    a lone front and on a ``(B, size, size)`` stack, with and without rows
    below the pivots: neither shares memory with the front (nor, under
    P4, with the device workspace), both are C-contiguous, and every
    element of both is set — with ``np.empty`` NaN-filled, the strictly
    upper part of the update is still finite, the blocked ``syrk`` of
    m >= 256 included."""

    @pytest.mark.parametrize("policy", ["P1", "P2", "P3", "P4"])
    @pytest.mark.parametrize("k,m,batch", [
        (40, 0, ()), (40, 50, ()), (40, 300, ()), (20, 0, (3,)), (20, 12, (3,)),
    ])
    def test_outputs_are_owned(self, monkeypatch, policy, k, m, batch):
        from repro.policies.base import Worker

        rng = np.random.default_rng(k + m)
        size = k + m
        x = rng.normal(size=(*batch, size, size))
        front = np.tril(x @ x.mT + size * np.eye(size))
        worker = Worker.canonical(SimulatedNode())
        empty = np.empty
        monkeypatch.setattr(
            np, "empty",
            lambda shape, dtype=float, *args, **kw: np.full(shape, np.nan, dtype),
        )
        kwargs = {}
        if policy == "P4":
            kwargs["workspace"] = np.empty(front.size, worker.gpu.cublas.dtype)
        before = front.copy()
        panel, u = make_policy(policy).apply(front, k, worker, **kwargs)
        monkeypatch.setattr(np, "empty", empty)
        assert np.array_equal(front, before)
        assert panel.shape == (*batch, size, k) and u.shape == (*batch, m, m)
        for out in (panel, u):
            assert out.flags.c_contiguous
            for buffer in (front, *kwargs.values()):
                assert not np.shares_memory(out, buffer)
        assert np.isfinite(panel).all()
        assert np.isfinite(np.triu(u, 1)).all() and np.isfinite(u).all()


class TestTriangularSolves:
    def test_trsv_forward(self, rng):
        l = np.tril(rng.normal(size=(50, 50))) + 50 * np.eye(50)
        b = rng.normal(size=50)
        assert np.allclose(l @ trsv_lower(l, b), b)

    def test_trsv_backward(self, rng):
        l = np.tril(rng.normal(size=(50, 50))) + 50 * np.eye(50)
        b = rng.normal(size=50)
        assert np.allclose(l.T @ trsv_lower_t(l, b), b)

    def test_trsv_blocked_vs_small_block(self, rng):
        l = np.tril(rng.normal(size=(40, 40))) + 40 * np.eye(40)
        b = rng.normal(size=40)
        assert np.allclose(trsv_lower(l, b, block=4), trsv_lower(l, b, block=64))

    def test_solve_rejects_bad_shape(self, lap2d_small):
        sf = symbolic_factorize(lap2d_small, ordering="amd")
        nf = factorize_numeric(lap2d_small, sf, make_policy("P1"))
        with pytest.raises(ValueError):
            solve_factored(nf, np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_solve_rejects_non_finite_rhs(self, lap2d_small, bad):
        sf = symbolic_factorize(lap2d_small, ordering="amd")
        nf = factorize_numeric(lap2d_small, sf, make_policy("P1"))
        b = np.ones((nf.n, 2))
        b[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            solve_factored(nf, b)

    @pytest.mark.parametrize("call", ["solve", "solve_unrefined", "solve_refined"])
    def test_complex_rhs_is_refused_not_half_solved(self, call):
        # cast to float64, a complex b used to come back as the solution
        # for its real part, with a ComplexWarning as the only sign
        solver = SparseCholeskySolver(grid_laplacian_2d(5, 5))
        solve = {
            "solve": solver.solve,
            "solve_unrefined": lambda b: solver.solve(b, refine=False),
            "solve_refined": solver.solve_refined,
        }[call]
        b = np.ones(25) + 1j * np.ones(25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be real"):
                solve(b)

    def test_integer_and_bool_rhs_are_solved_as_floats(self, lap2d_small):
        nf = factorize_numeric(
            lap2d_small, symbolic_factorize(lap2d_small, ordering="amd"), make_policy("P1")
        )
        want = solve_factored(nf, np.ones(nf.n))
        for b in (np.ones(nf.n, dtype=np.int32), np.ones(nf.n, dtype=bool)):
            assert np.array_equal(solve_factored(nf, b), want)


class TestRefinement:
    def test_recovers_double_precision_after_fp32_factor(self, lap2d_small):
        sf = symbolic_factorize(lap2d_small, ordering="amd")
        nf = factorize_numeric(lap2d_small, sf, make_policy("P3"))
        rng = np.random.default_rng(2)
        x_true = rng.normal(size=lap2d_small.n_rows)
        b = lap2d_small.matvec(x_true)
        res = iterative_refinement(lap2d_small, nf, b, tol=1e-12)
        assert res.final_residual < 1e-11
        assert res.final_residual < res.initial_residual
        # the paper: "one or two steps of iterative refinement"
        assert res.iterations <= 3

    def test_exact_factor_needs_no_iterations(self, lap2d_small):
        sf = symbolic_factorize(lap2d_small, ordering="amd")
        nf = factorize_numeric(lap2d_small, sf, make_policy("P1"))
        b = np.ones(lap2d_small.n_rows)
        res = iterative_refinement(lap2d_small, nf, b, tol=1e-12)
        assert res.iterations == 0
        assert res.converged

    def test_max_iter_respected(self, lap2d_small):
        sf = symbolic_factorize(lap2d_small, ordering="amd")
        nf = factorize_numeric(lap2d_small, sf, make_policy("P3"))
        res = iterative_refinement(
            lap2d_small, nf, np.ones(lap2d_small.n_rows), tol=0.0, max_iter=2
        )
        assert res.iterations <= 2


class TestSolverAPI:
    def test_full_pipeline(self, lap3d_small):
        s = SparseCholeskySolver(lap3d_small, ordering="nd", policy="baseline")
        s.analyze().factorize()
        b = np.ones(lap3d_small.n_rows)
        x = s.solve(b)
        assert np.abs(lap3d_small.matvec(x) - b).max() < 1e-9
        st = s.stats
        assert st.simulated_seconds > 0
        assert st.total_flops > 0
        assert st.n == lap3d_small.n_rows
        assert sum(st.policy_counts.values()) == st.n_supernodes

    def test_lazy_analyze_and_factorize(self, lap2d_small):
        s = SparseCholeskySolver(lap2d_small, policy="P1")
        x = s.solve(np.ones(lap2d_small.n_rows))  # triggers both phases
        assert s.symbolic is not None and s.factor is not None

    def test_lower_triangle_input_accepted(self, lap2d_small):
        low = lap2d_small.lower_triangle()
        s = SparseCholeskySolver(low, policy="P1")
        x = s.solve(np.ones(lap2d_small.n_rows))
        assert np.abs(lap2d_small.matvec(x) - 1).max() < 1e-9

    def test_policy_instance_accepted(self, lap2d_small):
        from repro.policies import BaselineHybrid

        s = SparseCholeskySolver(lap2d_small, policy=BaselineHybrid())
        s.factorize()
        assert s.stats.n_supernodes > 0

    def test_stats_before_factorize_raises(self, lap2d_small):
        s = SparseCholeskySolver(lap2d_small)
        with pytest.raises(RuntimeError):
            _ = s.stats

    def test_unknown_policy_rejected(self, lap2d_small):
        with pytest.raises(ValueError):
            SparseCholeskySolver(lap2d_small, policy="fastest")

    def test_rejects_nonsquare(self, rng):
        a = csc_from_dense(rng.normal(size=(3, 4)))
        with pytest.raises(ValueError):
            SparseCholeskySolver(a)

    def test_refinement_off(self, lap2d_small):
        s = SparseCholeskySolver(lap2d_small, policy="P3")
        b = np.ones(lap2d_small.n_rows)
        raw = s.solve(b, refine=False)
        refined = s.solve(b, refine=True)
        resid_raw = np.abs(lap2d_small.matvec(raw) - b).max()
        resid_ref = np.abs(lap2d_small.matvec(refined) - b).max()
        assert resid_ref < resid_raw

    def test_effective_gflops(self, lap2d_small):
        s = SparseCholeskySolver(lap2d_small, policy="P1").factorize()
        assert s.stats.effective_gflops > 0


def test_lmco_s_device_round_trip_counts(monkeypatch):
    """The counts-gate CI runs by name: one warm refactorize of lmco_s/nd
    under P4 on the event-driven runtime (2 CPUs + 2 GPUs).  No device
    front is written back into the host workspace (363 whole-front
    write-backs before, one per front computed alone, now each a group
    of one; the 18 stacked leaf groups, each one ``apply`` on a ``(B,
    size, size)`` stack, write none back either), and the updates live on
    the stack in float32:
    ``peak_update_bytes`` 13 424 328 -> 6 712 164, exactly half (every
    front of it runs on the device)."""
    from repro.policies.base import PolicyP4

    a = load_test_matrix("lmco_s")
    solver = SparseCholeskySolver(
        a, ordering="nd", policy="P4", backend="dynamic",
        node=SimulatedNode(n_cpus=2, n_gpus=2),
    ).factorize()
    calls = Counter()
    apply = PolicyP4.apply

    def counting_apply(self, front, k, worker, **kwargs):
        before = front.tobytes()
        out = apply(self, front, k, worker, **kwargs)
        row = "" if len(front) == 1 else "stacked "
        calls[row + "apply"] += 1
        calls[row + "written back"] += front.tobytes() != before
        return out

    monkeypatch.setattr(PolicyP4, "apply", counting_apply)
    solver.refactorize(a.data)
    assert calls == Counter({
        "apply": 363, "written back": 0,
        "stacked apply": 18, "stacked written back": 0,
    })
    assert solver.factor.peak_update_bytes == 6_712_164


def test_lmco_s_fp32_factor_counts(monkeypatch):
    """The counts-gate CI runs by name: one warm refactorize + solve of
    lmco_s/nd under P4 on the event-driven runtime (2 CPUs + 2 GPUs).
    Every device-resolved panel, the stacked ones too, stays float32, and
    the walk casts none of the float32 panels ``PolicyP4.apply`` returns
    (363 + 18 float32 -> float64 casts before, one per front or stack,
    29.3 MB of float64 panels; then 363 + 18 float32 -> float32 copies,
    before ``apply`` made its own device-to-host copies); the factor
    holds exactly half the panel bytes of its float64 twin.  Refinement of the float32 factor applied
    in float32 still takes one step, to a backward error within 1e-12."""
    from repro.policies.base import PolicyP4
    from repro.service.cache import numeric_nbytes, symbolic_nbytes

    a = load_test_matrix("lmco_s")
    solver = SparseCholeskySolver(
        a, ordering="nd", policy="P4", backend="dynamic",
        node=SimulatedNode(n_cpus=2, n_gpus=2),
    ).factorize()
    casts = Counter()

    class Watched(np.ndarray):
        """A returned panel that counts the casts made of it."""

        def astype(self, dtype, *args, **kwargs):
            casts[f"{self.dtype.name} -> {np.dtype(dtype).name}"] += 1
            return np.asarray(self).astype(dtype, *args, **kwargs)

    apply = PolicyP4.apply

    def watched_apply(self, front, k, worker, **kwargs):
        panel, u = apply(self, front, k, worker, **kwargs)
        return panel.view(Watched), u

    monkeypatch.setattr(PolicyP4, "apply", watched_apply)
    solver.refactorize(a.data)
    monkeypatch.undo()
    assert casts == Counter()
    factor = solver.factor
    on_device = {s for s, p in enumerate(solver.parallel.bases) if p.name == "P4"}
    assert len(on_device) == factor.sf.n_supernodes == 1983
    assert {factor.panels[s].dtype for s in on_device} == {np.dtype(np.float32)}
    assert {p.dtype for p in factor.stacks.values()} == {np.dtype(np.float32)}
    panel_bytes = numeric_nbytes(factor) - symbolic_nbytes(factor.sf)
    assert 2 * panel_bytes == sum(p.astype(np.float64).nbytes for p in factor.panels)

    b = np.random.default_rng(7).normal(size=a.n_rows)
    res = solver.solve_refined(b)
    assert res.iterations == 1 and res.converged
    assert res.final_residual <= 1e-12


@pytest.mark.parametrize("case,policy,fronts,stacks,stacked", [
    ("lmco_s/nd", "P1", 363, 18, 1620),
    # the event-driven runtime on 2 CPUs + 2 GPUs: fp32 kernels
    ("lmco_s/nd", "P4", 363, 18, 1620),
    ("grid_laplacian_2d/amd", "P1", 254, 8, 775),
])
def test_one_fu_path_counts(monkeypatch, case, policy, fronts, stacks, stacked):
    """The counts-gate CI runs by name: over one warm refactorize, every
    factor-update runs through ``Policy.apply`` on a ``(B, size, size)``
    stack — a group of one (B = 1) or a stacked leaf group — and every
    Cholesky through ``dense.kernels.potrf``: 381 calls on lmco_s/nd, 18
    of them with B > 1.  Before, a front computed alone was a 2-D call
    (363 of them, beside the same 18 stacks), and before that the
    stacked groups ran a copy of the kernels of their own: ``apply`` ran
    once per unstacked front only (363 + 0 on lmco_s/nd)."""
    from repro.dense import kernels
    from repro.policies import base

    name, ordering = case.split("/")
    a = load_test_matrix(name) if name == "lmco_s" else grid_laplacian_2d(48, 46)
    kwargs = dict(policy=policy)
    if policy == "P4":
        kwargs.update(backend="dynamic", node=SimulatedNode(n_cpus=2, n_gpus=2))
    solver = SparseCholeskySolver(a, ordering=ordering, **kwargs).factorize()

    calls = Counter()
    for cls in (base.PolicyP1, base.PolicyP2, base.PolicyP3, base.PolicyP4):
        def counting_apply(self, front, k, worker, *args, _apply=cls.apply, **kw):
            calls["apply"] += 1
            calls["B > 1"] += front.ndim == 3 and len(front) > 1
            calls["not a stack"] += front.ndim != 3
            return _apply(self, front, k, worker, *args, **kw)

        monkeypatch.setattr(cls, "apply", counting_apply)
    cholesky = np.linalg.cholesky

    def counting_cholesky(x):
        caller = sys._getframe(1).f_code
        calls["cholesky" if caller is kernels.potrf.__code__ else "stray cholesky"] += 1
        return cholesky(x)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    solver.refactorize(a.data)
    assert (calls["apply"], calls["B > 1"]) == (fronts + stacks, stacks)
    assert calls["not a stack"] == 0
    assert calls["cholesky"] > 0 and calls["stray cholesky"] == 0
    factor = solver.factor
    assert (factor.batch_tasks, factor.batched_fronts) == (stacks, stacked)
    assert factor.sf.n_supernodes == fronts + stacked


def test_lmco_s_front_ownership_counts(monkeypatch):
    """The counts-gate CI runs by name: one warm refactorize of lmco_s/nd
    under P1 (serial).  ``Policy.apply`` hands the walk a panel and an
    update it owns, so ``_numeric_walk`` makes no ``copy`` and no
    ``astype`` call (381 ``astype`` of panels and stacks and 380 ``copy``
    of updates before).  The assembly folds each front's children in
    fewer calls: 507 extend-adds (the first child of each front, and each
    child of ``RUN_CUT`` rows or more) and 429 scatter segments (A and
    the small children between two of those, one ``np.add.at`` each),
    936 in all, where there were 1 982 extend-adds, one per child, and
    363 scatters of A.  Every front is assembled as a member of a group,
    one ``assemble_group`` call per group: 381, the 18 stacked leaf groups
    by one scatter each (before, those 18 were the only calls of
    ``assemble_group``, a second entry point beside the per-front one)."""
    from repro.multifrontal import frontal, numeric

    a = load_test_matrix("lmco_s")
    solver = SparseCholeskySolver(a, ordering="nd", policy="P1").factorize()
    calls = Counter()
    for name in ("_extend_add", "_scatter", "assemble_group"):
        module = numeric if name == "assemble_group" else frontal

        def counting(*args, _f=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "c_call" and code.co_filename == numeric.__file__ \
                and code.co_name == "_numeric_walk":
            if getattr(arg, "__name__", "") in ("copy", "astype"):
                calls[arg.__name__] += 1

    sys.setprofile(profile)
    try:
        solver.refactorize(a.data)
    finally:
        sys.setprofile(None)
    assert calls == Counter({"_extend_add": 507, "_scatter": 429, "assemble_group": 381})

