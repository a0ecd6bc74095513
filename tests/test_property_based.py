"""Property-based tests (hypothesis) on the core data structures and the
end-to-end solve invariant."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.autotune import FeatureMap, FeatureScaler, softmax
from repro.dense import potrf, syrk, trsm_right_lower
from repro.dense.blocked import HostKernels, blocked_cholesky_panels
from repro.dense.kernels import SUBSTITUTION_BLOCK
from repro.gpu.clock import TaskGraph, schedule_graph
from repro.matrices import random_spd
from repro.matrices.csc import CSCMatrix, csc_from_dense
from repro.multifrontal import factorize_numeric, solve_factored
from repro.ordering import compute_ordering
from repro.policies import make_policy
from repro.symbolic import elimination_tree, symbolic_factorize
from repro.symbolic.etree import NO_PARENT


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
@st.composite
def coo_triplets(draw, max_n=12, max_nnz=40):
    n = draw(st.integers(1, max_n))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(
        st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz)
    )
    vals = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=nnz, max_size=nnz,
        )
    )
    return n, np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(vals)


@st.composite
def spd_matrix(draw, max_n=40):
    n = draw(st.integers(4, max_n))
    seed = draw(st.integers(0, 10_000))
    degree = draw(st.floats(2.0, 8.0))
    return random_spd(n, avg_degree=degree, seed=seed)


# ---------------------------------------------------------------------------
# CSC properties
# ---------------------------------------------------------------------------
class TestCSCProperties:
    @given(coo_triplets())
    def test_coo_round_trip_equals_dense_accumulation(self, triplets):
        n, rows, cols, vals = triplets
        a = CSCMatrix.from_coo(rows, cols, vals, (n, n))
        dense = np.zeros((n, n))
        np.add.at(dense, (rows, cols), vals)
        assert np.allclose(a.to_dense(), dense)

    @given(coo_triplets())
    def test_transpose_involution(self, triplets):
        n, rows, cols, vals = triplets
        a = CSCMatrix.from_coo(rows, cols, vals, (n, n))
        assert np.allclose(a.transpose().transpose().to_dense(), a.to_dense())

    @given(coo_triplets(), st.integers(0, 2**32 - 1))
    def test_matvec_linear(self, triplets, seed):
        n, rows, cols, vals = triplets
        a = CSCMatrix.from_coo(rows, cols, vals, (n, n))
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=n), rng.normal(size=n)
        assert np.allclose(
            a.matvec(2 * x + y), 2 * a.matvec(x) + a.matvec(y), atol=1e-8
        )

    @given(spd_matrix())
    def test_symmetric_permutation_preserves_spectrum(self, a):
        perm = np.random.default_rng(0).permutation(a.n_rows)
        w0 = np.linalg.eigvalsh(a.to_dense())
        w1 = np.linalg.eigvalsh(a.permute_symmetric(perm).to_dense())
        assert np.allclose(np.sort(w0), np.sort(w1), atol=1e-8)


# ---------------------------------------------------------------------------
# ordering / symbolic properties
# ---------------------------------------------------------------------------
class TestStructureProperties:
    @given(spd_matrix(), st.sampled_from(["amd", "rcm", "nd", "natural"]))
    def test_orderings_are_permutations(self, a, method):
        perm = compute_ordering(a, method)
        assert np.array_equal(np.sort(perm), np.arange(a.n_rows))

    @given(spd_matrix())
    def test_etree_parents_strictly_greater(self, a):
        tree = elimination_tree(a)
        j = np.arange(a.n_rows)
        has = tree.parent != NO_PARENT
        assert (tree.parent[has] > j[has]).all()

    @given(spd_matrix())
    def test_symbolic_invariants(self, a):
        sf = symbolic_factorize(a, ordering="amd")
        sf.validate()
        assert sf.nnz_factor >= a.lower_triangle().nnz  # no entry lost

    @given(spd_matrix())
    def test_factor_solve_round_trip(self, a):
        sf = symbolic_factorize(a, ordering="amd")
        nf = factorize_numeric(a, sf, make_policy("P1"))
        rng = np.random.default_rng(0)
        x_true = rng.normal(size=a.n_rows)
        b = a.matvec(x_true)
        x = solve_factored(nf, b)
        assert np.abs(x - x_true).max() <= 1e-6 * max(1.0, np.abs(x_true).max())


# ---------------------------------------------------------------------------
# the solve sweeps
# ---------------------------------------------------------------------------
def block_inverse(l_jj):
    """``inv(D^-1 L_jj) D^-1`` with ``D = diag(L_jj)``, from this one block."""
    d = np.diagonal(l_jj).copy()
    return np.linalg.inv(np.tril(l_jj) / d[:, None]) / d


def solve_per_supernode(factor, b):
    """The sweeps as one loop over supernodes that slices the panels as it
    goes and applies every ``SUBSTITUTION_BLOCK`` diagonal block of every
    pivot block, however narrow, through the inverse computed from that
    block alone, each panel in its own dtype (the slice of ``y`` rounded
    to it, the product widened as it is subtracted or written):
    ``solve_factored``'s stacked groups, per-factor buffer and one-block
    shortcut must reproduce it bit for bit."""
    sf, nb = factor.sf, SUBSTITUTION_BLOCK
    y = np.asarray(b, dtype=np.float64)[sf.perm].copy()
    for s in range(sf.n_supernodes):
        f, k, rows, panel = int(sf.super_ptr[s]), sf.width(s), sf.rows[s], factor.panels[s]
        lo = panel.dtype
        for j0 in range(0, k, nb):
            j1 = min(j0 + nb, k)
            if j0:
                y[f + j0:f + j1] -= panel[j0:j1, :j0] @ y[f:f + j0].astype(lo)
            y[f + j0:f + j1] = block_inverse(panel[j0:j1, j0:j1]) @ y[f + j0:f + j1].astype(lo)
        if rows.size > k:
            y[rows[k:]] -= panel[k:, :] @ y[f:f + k].astype(lo)
    for s in range(sf.n_supernodes - 1, -1, -1):
        f, k, rows, panel = int(sf.super_ptr[s]), sf.width(s), sf.rows[s], factor.panels[s]
        lo = panel.dtype
        if rows.size > k:
            y[f:f + k] -= panel[k:, :].T @ y[rows[k:]].astype(lo)
        for j0 in reversed(range(0, k, nb)):
            j1 = min(j0 + nb, k)
            if j1 < k:
                y[f + j0:f + j1] -= panel[j1:k, j0:j1].T @ y[f + j1:f + k].astype(lo)
            y[f + j0:f + j1] = block_inverse(panel[j0:j1, j0:j1]).T @ y[f + j0:f + j1].astype(lo)
    x = np.empty_like(y)
    x[sf.perm] = y
    return x


def assert_factor_sweeps_match_reference(nf):
    rng = np.random.default_rng(nf.n)
    b, block = rng.normal(size=nf.n), rng.normal(size=(nf.n, 4))
    for _ in range(2):  # the solve that builds the table, and one reusing it
        assert np.array_equal(solve_factored(nf, b), solve_per_supernode(nf, b))
        assert np.array_equal(
            solve_factored(nf, block), solve_per_supernode(nf, block)
        )
    # a one-column block is the right-hand side it holds
    assert np.array_equal(solve_factored(nf, b[:, None])[:, 0], solve_factored(nf, b))


def assert_sweeps_match_reference(a, ordering):
    sf = symbolic_factorize(a, ordering=ordering)
    assert_factor_sweeps_match_reference(factorize_numeric(a, sf, make_policy("P1")))
    return sf


class TestSolveSweeps:
    @given(spd_matrix(), st.sampled_from(["amd", "nd", "natural"]))
    def test_sweep_table_matches_per_supernode_loop(self, a, ordering):
        assert_sweeps_match_reference(a, ordering)

    def test_all_one_column_supernodes(self):
        n = 9
        a = csc_from_dense(np.diag(np.arange(2.0, 2.0 + n)))
        sf = assert_sweeps_match_reference(a, "natural")
        assert sf.n_supernodes == n

    def test_single_dense_supernode(self):
        g = np.random.default_rng(1).normal(size=(40, 40))
        a = csc_from_dense(g @ g.T + 40 * np.eye(40))
        sf = assert_sweeps_match_reference(a, "natural")
        assert sf.n_supernodes == 1


# ---------------------------------------------------------------------------
# dense kernels
# ---------------------------------------------------------------------------
class TestDenseProperties:
    @given(st.integers(2, 25), st.integers(0, 2**31 - 1))
    def test_potrf_trsm_syrk_consistency(self, n, seed):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(n, n + 3))
        a = b @ b.T + n * np.eye(n)
        k = max(1, n // 2)
        l1 = potrf(a[:k, :k])
        x = trsm_right_lower(a[k:, :k], l1)
        u = a[k:, k:].copy()
        syrk(u, x)
        # the Schur complement of an SPD matrix is SPD
        if u.size:
            assert np.linalg.eigvalsh((u + u.T) / 2).min() > -1e-8

    @given(st.integers(6, 30), st.integers(1, 10), st.integers(0, 2**31 - 1))
    def test_blocked_equals_monolithic(self, s, w, seed):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(s, s + 2))
        f = b @ b.T + s * np.eye(s)
        k = max(1, s // 2)
        ref = np.linalg.cholesky(f)
        work = f.copy()
        blocked_cholesky_panels(work, k, w, HostKernels())
        assert np.allclose(work[k:, :k], ref[k:, :k], atol=1e-8)


# ---------------------------------------------------------------------------
# scheduling properties
# ---------------------------------------------------------------------------
class TestSchedulingProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["cpu", "gpu", "dma"]),
                st.floats(0.0, 5.0, allow_nan=False),
                st.integers(0, 3),  # how many of the previous tasks to depend on
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_schedule_respects_all_constraints(self, spec):
        g = TaskGraph()
        for i, (engine, dur, ndeps) in enumerate(spec):
            deps = tuple(g.tasks[max(0, i - ndeps):i])
            g.add(f"t{i}", engine, dur, deps)
        res = schedule_graph(g)
        for t in g.tasks:
            for d in t.deps:
                assert t.start >= d.end - 1e-12
        # per-engine serialization
        by_engine: dict = {}
        for t in g.tasks:
            by_engine.setdefault(t.engine, []).append(t)
        for tasks in by_engine.values():
            tasks.sort(key=lambda t: t.start)
            for a, b in zip(tasks, tasks[1:]):
                assert b.start >= a.end - 1e-12
        assert res.makespan == pytest.approx(
            max(t.end for t in g.tasks), abs=1e-12
        )


# ---------------------------------------------------------------------------
# autotune properties
# ---------------------------------------------------------------------------
class TestAutotuneProperties:
    @given(
        st.lists(st.integers(0, 10**4), min_size=1, max_size=30),
        st.lists(st.integers(1, 10**4), min_size=1, max_size=30),
    )
    def test_features_finite(self, ms, ks):
        n = min(len(ms), len(ks))
        x = FeatureMap()(ms[:n], ks[:n])
        assert np.isfinite(x).all()

    @given(st.integers(1, 20), st.integers(1, 6), st.integers(0, 2**31 - 1))
    def test_softmax_is_distribution(self, n, r, seed):
        rng = np.random.default_rng(seed)
        p = softmax(rng.normal(size=(n, r)) * 100)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert (p >= 0).all() and (p <= 1).all()

    @given(st.integers(2, 50), st.integers(2, 6), st.integers(0, 2**31 - 1))
    def test_scaler_inverse_consistency(self, n, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)) * rng.uniform(0.5, 100, size=d)
        sc = FeatureScaler().fit(x)
        z = sc.transform(x)
        assert np.allclose(z * sc.std + sc.mean, x, atol=1e-8)
