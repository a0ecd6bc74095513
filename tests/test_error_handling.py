"""Failure modes: non-SPD inputs, broken structures, informative errors."""

import numpy as np
import pytest

from repro.dense.kernels import NotPositiveDefiniteError
from repro.matrices import grid_laplacian_2d, random_spd
from repro.matrices.csc import CSCMatrix, csc_from_dense
from repro.multifrontal import SparseCholeskySolver, factorize_numeric
from repro.multifrontal.frontal import get_assembly_plan
from repro.policies import make_policy
from repro.symbolic import symbolic_factorize


def indefinite_matrix(n=30, seed=0):
    """Symmetric, full-pattern-like, but indefinite (one negative pivot)."""
    a = random_spd(n, seed=seed)
    a = a.copy()
    # flip one diagonal entry deep into the matrix
    target = n // 2
    for p in range(a.indptr[target], a.indptr[target + 1]):
        if a.indices[p] == target:
            a.data[p] = -abs(a.data[p])
    return a


class TestNonSPD:
    def test_error_carries_location_context(self):
        a = indefinite_matrix()
        sf = symbolic_factorize(a, ordering="amd")
        with pytest.raises(NotPositiveDefiniteError, match="supernode"):
            factorize_numeric(a, sf, make_policy("P1"))

    def test_error_mentions_original_column(self):
        a = indefinite_matrix()
        sf = symbolic_factorize(a, ordering="amd")
        with pytest.raises(NotPositiveDefiniteError, match="original column"):
            factorize_numeric(a, sf, make_policy("P1"))

    def test_solver_propagates(self):
        a = indefinite_matrix()
        s = SparseCholeskySolver(a, ordering="amd", policy="P1")
        with pytest.raises(NotPositiveDefiniteError):
            s.factorize()

    def test_negative_semidefinite_rejected(self):
        d = -np.eye(4)
        with pytest.raises(NotPositiveDefiniteError):
            SparseCholeskySolver(csc_from_dense(d), policy="P1").factorize()


def _plant(a, sf, supernode: int, value: float):
    """``a`` with ``value`` on the diagonal of the first column of
    ``supernode`` (a permuted column; planted at its original index)."""
    col = int(sf.perm[sf.super_ptr[supernode]])
    bad = a.copy()
    for p in range(bad.indptr[col], bad.indptr[col + 1]):
        if bad.indices[p] == col:
            bad.data[p] = value
    return bad


class TestBreakdownParity:
    """A pivot that breaks down raises one exception with one message,
    whichever backend ran and whether the front was stacked or not, and
    leaves the solver usable."""

    BACKENDS = ("serial", "static", "dynamic", "cluster")
    MESSAGE = (
        r"^matrix is not positive definite: Cholesky broke down in "
        r"supernode {s} \(permuted columns {f}\.\.{l}, original column "
        r"~{c}\): "
    )

    @pytest.fixture(scope="class")
    def problem(self):
        a = grid_laplacian_2d(12, 11)
        sf = symbolic_factorize(a, ordering="amd")
        plan_groups = get_assembly_plan(a, sf).groups
        stacked_leaf = plan_groups[0].sids[len(plan_groups[0]) // 2]
        interior = next(
            s for s in range(sf.n_supernodes) if sf.schildren()[s]
            and sf.sparent[s] >= 0
        )
        return a, sf, {"leaf": stacked_leaf, "interior": interior}

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("value", (-1.0, float("nan")), ids=("negative", "nan"))
    @pytest.mark.parametrize("where", ("leaf", "interior"))
    def test_same_error_on_every_backend(self, problem, where, value, backend):
        a, sf, targets = problem
        s = targets[where]
        f, l = int(sf.super_ptr[s]), int(sf.super_ptr[s + 1]) - 1
        want = self.MESSAGE.format(s=s, f=f, l=l, c=int(sf.perm[f]))
        solver = SparseCholeskySolver.from_symbolic(
            a, sf, policy="P1", backend=backend
        ).factorize()
        good = solver.factor
        with pytest.raises(NotPositiveDefiniteError, match=want) as info:
            solver.refactorize(_plant(a, sf, s, value).data)
        assert type(info.value) is NotPositiveDefiniteError
        # the failed attempt left no half-built factor behind, and the
        # next valid refactorize gives the factor of before
        assert solver.factor is None
        solver.refactorize(a.data)
        for got, was in zip(solver.factor.panels, good.panels, strict=True):
            assert np.array_equal(got, was)
        x = solver.solve(np.ones(a.n_rows))
        assert np.allclose(a.matvec(x), 1.0)

    def test_first_failing_member_of_a_stack_is_named(self, problem):
        a, sf, _ = problem
        g = get_assembly_plan(a, sf).groups[0]
        bad = _plant(_plant(a, sf, g.sids[-1], -1.0), sf, g.sids[1], -1.0)
        with pytest.raises(NotPositiveDefiniteError, match=f"supernode {g.sids[1]} "):
            factorize_numeric(bad, sf, make_policy("P1"))

    def test_device_path_raises_the_same(self, problem):
        a, sf, targets = problem
        s = targets["leaf"]
        with pytest.raises(NotPositiveDefiniteError, match=f"in supernode {s} "):
            factorize_numeric(_plant(a, sf, s, -1.0), sf, make_policy("P4"))


class TestStructuralErrors:
    def test_extend_add_guard(self):
        # a corrupted symbolic structure must be caught, not silently
        # corrupt the factorization
        a = grid_laplacian_2d(5, 5)
        sf = symbolic_factorize(a, ordering="amd")
        # break one supernode's row list (drop a needed row)
        victim = next(
            s for s in range(sf.n_supernodes) if sf.update_size(s) > 1
        )
        sf.rows[victim] = sf.rows[victim][:-1]
        with pytest.raises((ValueError, AssertionError)):
            factorize_numeric(a, sf, make_policy("P1"))

    def test_validate_catches_broken_rows(self):
        a = grid_laplacian_2d(5, 5)
        sf = symbolic_factorize(a, ordering="amd")
        victim = next(
            s for s in range(sf.n_supernodes) if sf.update_size(s) > 0
        )
        sf.rows[victim] = sf.rows[victim][::-1].copy()  # unsorted
        with pytest.raises(AssertionError):
            sf.validate()

    def test_entries_outside_pattern_detected(self):
        # factor a matrix with an entry the symbolic pattern cannot hold:
        # couple the first and last grid points directly (column 0's
        # fundamental front only reaches its grid neighbors)
        from repro.symbolic import AmalgamationParams

        a = grid_laplacian_2d(8, 8)
        sf = symbolic_factorize(
            a, ordering="natural",
            amalgamation=AmalgamationParams(max_width=0),
        )
        d = a.to_dense()
        n = a.n_rows
        d[0, n - 1] = d[n - 1, 0] = -0.5
        d[0, 0] += 1.0
        d[n - 1, n - 1] += 1.0
        denser = csc_from_dense(d)
        with pytest.raises(ValueError):
            factorize_numeric(denser, sf, make_policy("P1"))


class TestZeroAndTiny:
    def test_1x1_matrix(self):
        a = csc_from_dense(np.array([[4.0]]))
        s = SparseCholeskySolver(a, policy="P1")
        x = s.solve(np.array([8.0]))
        assert x[0] == pytest.approx(2.0)
        assert s.log_determinant() == pytest.approx(np.log(4.0))

    def test_diagonal_matrix(self):
        a = csc_from_dense(np.diag([1.0, 4.0, 9.0]))
        s = SparseCholeskySolver(a, policy="P1")
        x = s.solve(np.ones(3))
        assert np.allclose(x, [1.0, 0.25, 1.0 / 9.0])

    def test_gpu_policy_on_diagonal_matrix(self):
        a = csc_from_dense(np.diag([1.0, 4.0, 9.0]))
        s = SparseCholeskySolver(a, policy="P3")
        x = s.solve(np.ones(3))
        assert np.allclose(x, [1.0, 0.25, 1.0 / 9.0], atol=1e-6)
