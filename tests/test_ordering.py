"""Ordering package: permutation validity, fill quality, structure."""

import hashlib
import importlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.matrices import (
    grid_laplacian_2d,
    grid_laplacian_3d,
    load_test_matrix,
    random_spd,
)
from repro.matrices.csc import CSCMatrix, csc_from_dense
from repro.ordering import (
    ORDERING_METHODS,
    compute_ordering,
    invert_permutation,
    minimum_degree,
    natural_ordering,
    nested_dissection,
    reverse_cuthill_mckee,
)
from tests.reference_ordering import recursive_nested_dissection
from tests.test_symbolic_structure import pattern_matrix, patterns


def digest(perm):
    return hashlib.sha256(perm.astype(np.int64).tobytes()).hexdigest()


def fill_in(a, perm):
    """nnz of the dense Cholesky factor after permuting."""
    d = a.permute_symmetric(perm).to_dense()
    l = np.linalg.cholesky(d)
    return int((np.abs(l) > 1e-12).sum())


@pytest.mark.parametrize("method", ORDERING_METHODS)
def test_orderings_are_permutations(method, lap2d_small):
    perm = compute_ordering(lap2d_small, method)
    assert perm.shape == (lap2d_small.n_rows,)
    assert np.array_equal(np.sort(perm), np.arange(lap2d_small.n_rows))


def test_unknown_method_raises(lap2d_small):
    with pytest.raises(ValueError):
        compute_ordering(lap2d_small, "metis")


def test_invert_permutation():
    perm = np.array([2, 0, 1])
    inv = invert_permutation(perm)
    assert np.array_equal(perm[inv], np.arange(3))
    assert np.array_equal(inv[perm], np.arange(3))


def test_natural_is_identity(lap2d_small):
    assert np.array_equal(
        natural_ordering(lap2d_small), np.arange(lap2d_small.n_rows)
    )


class TestMinimumDegree:
    def test_reduces_fill_vs_natural(self):
        a = grid_laplacian_2d(9, 9)
        f_nat = fill_in(a, natural_ordering(a))
        f_amd = fill_in(a, minimum_degree(a))
        assert f_amd < f_nat

    def test_star_graph_center_last(self):
        # minimum degree must eliminate leaves before the hub
        n = 8
        rows = [0] * (n - 1) + list(range(1, n)) + list(range(n))
        cols = list(range(1, n)) + [0] * (n - 1) + list(range(n))
        vals = [-1.0] * (2 * (n - 1)) + [float(n)] * n
        a = CSCMatrix.from_coo(rows, cols, vals, (n, n))
        perm = minimum_degree(a)
        # the hub may only be eliminated once its degree has collapsed
        # (ties with the final leaves are legitimate), and the resulting
        # ordering must be fill-free
        assert int(np.where(perm == 0)[0][0]) >= n - 2
        assert fill_in(a, perm) == 2 * n - 1

    def test_path_graph_zero_fill(self):
        # a tridiagonal matrix admits a no-fill ordering; MD should find one
        n = 12
        d = np.diag(np.full(n, 4.0)) + np.diag(np.full(n - 1, -1.0), 1) + np.diag(
            np.full(n - 1, -1.0), -1
        )
        a = csc_from_dense(d)
        assert fill_in(a, minimum_degree(a)) == 2 * n - 1

    def test_disconnected_graph(self):
        d = np.block(
            [
                [np.array([[2.0, -1.0], [-1.0, 2.0]]), np.zeros((2, 2))],
                [np.zeros((2, 2)), np.array([[3.0, -1.0], [-1.0, 3.0]])],
            ]
        )
        perm = minimum_degree(csc_from_dense(d))
        assert np.array_equal(np.sort(perm), np.arange(4))

    def test_dense_matrix(self, rng):
        d = rng.normal(size=(6, 6))
        d = d @ d.T + 6 * np.eye(6)
        perm = minimum_degree(csc_from_dense(d))
        assert np.array_equal(np.sort(perm), np.arange(6))

    def test_empty_matrix(self):
        a = CSCMatrix.from_coo([], [], [], (0, 0))
        assert minimum_degree(a).size == 0


class TestRCM:
    def test_reduces_bandwidth(self):
        a = random_spd(80, seed=2)
        perm = reverse_cuthill_mckee(a)
        p = a.permute_symmetric(perm)

        def bandwidth(mat):
            col = np.repeat(
                np.arange(mat.n_cols, dtype=np.int64), np.diff(mat.indptr)
            )
            return int(np.abs(mat.indices - col).max())

        # RCM ought to beat a random shuffle of the same matrix
        rng = np.random.default_rng(0)
        shuffled = a.permute_symmetric(rng.permutation(a.n_rows))
        assert bandwidth(p) <= bandwidth(shuffled)

    def test_path_graph_gives_bandwidth_one(self):
        n = 10
        d = np.diag(np.full(n, 4.0)) + np.diag(np.full(n - 1, -1.0), 1) + np.diag(
            np.full(n - 1, -1.0), -1
        )
        # shuffle, then RCM should recover a bandwidth-1 ordering
        a = csc_from_dense(d)
        shuffle = np.random.default_rng(3).permutation(n)
        perm = reverse_cuthill_mckee(a.permute_symmetric(shuffle))
        p = a.permute_symmetric(shuffle).permute_symmetric(perm).to_dense()
        assert np.allclose(p, np.tril(np.triu(p, -1), 1))

    def test_disconnected(self):
        d = np.eye(5)
        d[0, 1] = d[1, 0] = -0.5
        perm = reverse_cuthill_mckee(csc_from_dense(d))
        assert np.array_equal(np.sort(perm), np.arange(5))

    # SHA-256 of the permutation, recorded at the commit before the BFS
    # went multi-source with a claim-array dedupe
    PINNED = {
        "lmco_s":
            "d883ec257e96a927164842f098bf08fb22ad617bf432088e3b1153a5679be383",
        "two grids and isolated vertices":
            "0d4881f114dd6b638777405ca1f937b0b8b1becf084563229bc26b1b53484807",
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_ordering_is_pinned(self, case):
        if case == "lmco_s":
            a = load_test_matrix("lmco_s")
        else:
            a = TestNestedDissection._two_grids_and_isolated_vertices()
        assert digest(reverse_cuthill_mckee(a)) == self.PINNED[case]


class TestNestedDissection:
    def test_reduces_fill_on_grid(self):
        a = grid_laplacian_2d(12, 12)
        f_nat = fill_in(a, natural_ordering(a))
        f_nd = fill_in(a, nested_dissection(a))
        assert f_nd < f_nat

    def test_leaf_size_controls_recursion(self):
        a = grid_laplacian_3d(5, 5, 5)
        p1 = nested_dissection(a, leaf_size=8)
        p2 = nested_dissection(a, leaf_size=200)  # pure minimum degree
        for p in (p1, p2):
            assert np.array_equal(np.sort(p), np.arange(125))

    def test_separator_goes_last(self):
        # on a long thin grid the middle column is the natural separator;
        # ND must number *some* small separator last
        a = grid_laplacian_2d(15, 3)
        perm = nested_dissection(a, leaf_size=4)
        # the last eliminated vertices form a separator: removing them
        # disconnects the rest
        sep = set(perm[-3:].tolist())
        indptr, indices = a.adjacency()
        # BFS from perm[0] avoiding sep shouldn't reach everything
        n = a.n_rows
        seen = {int(perm[0])}
        stack = [int(perm[0])]
        while stack:
            v = stack.pop()
            for u in indices[indptr[v]:indptr[v + 1]]:
                u = int(u)
                if u not in seen and u not in sep:
                    seen.add(u)
                    stack.append(u)
        assert len(seen) < n - len(sep)

    def test_disconnected(self):
        d = np.eye(6)
        d[0, 1] = d[1, 0] = -0.4
        d[3, 4] = d[4, 3] = -0.4
        perm = nested_dissection(csc_from_dense(d), leaf_size=2)
        assert np.array_equal(np.sort(perm), np.arange(6))

    # SHA-256 of the permutation, recorded at the commit before the
    # connectivity probe, the reused level structure and the graph-level
    # minimum-degree leaf went in: the ordering must not drift
    PINNED = {
        "disconnected":
            "1842f2c1b136e2fa83e7055a0637cdcfb5c0759573e53cf4477c5d7541e782b5",
        "leaf_size == n":
            "6bd08125c9b88d42b6aa7249e388b62ff07b6c8bc4dcdb7dd2156c78f154161f",
        "leaf_size == n - 1":
            "33ae2c9365b1627962d6d107cdc6a8fe2eeed3d86b58b545c98ad507c5dd922c",
        "leaf_size == 1":
            "a6568cc44f74df3828abe77795980f25b52920a3d4e6ddbb229b645c7505f454",
    }

    @staticmethod
    def _two_grids_and_isolated_vertices():
        """A 12 x 11 grid, a 5 x 5 x 4 grid and two isolated vertices in one
        matrix, symmetrically shuffled so components interleave."""
        blocks = [grid_laplacian_2d(12, 11), grid_laplacian_3d(5, 5, 4)]
        rows, cols, offset = [], [], 0
        for b in blocks:
            rows.append(b.indices + offset)
            cols.append(np.repeat(np.arange(b.n_cols), np.diff(b.indptr)) + offset)
            offset += b.n_rows
        isolated = np.arange(offset, offset + 2)
        rows, cols = np.concatenate(rows + [isolated]), np.concatenate(cols + [isolated])
        a = CSCMatrix.from_coo(rows, cols, np.ones(rows.size), (offset + 2, offset + 2))
        return a.permute_symmetric(np.random.default_rng(5).permutation(a.n_rows))

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_ordering_is_pinned(self, case):
        if case == "disconnected":
            perm = nested_dissection(self._two_grids_and_isolated_vertices())
        else:
            a = grid_laplacian_2d(8, 8)
            leaf_size = {"leaf_size == n": 64, "leaf_size == n - 1": 63,
                         "leaf_size == 1": 1}[case]
            perm = nested_dissection(a, leaf_size=leaf_size)
        assert digest(perm) == self.PINNED[case]

    @pytest.mark.parametrize("leaf_size", [1, 2, 8, 64])
    def test_matches_the_recursive_oracle(self, leaf_size):
        for a in (self._two_grids_and_isolated_vertices(),
                  grid_laplacian_3d(9, 8, 7), random_spd(300, avg_degree=2, seed=4)):
            assert np.array_equal(nested_dissection(a, leaf_size=leaf_size),
                                  recursive_nested_dissection(a, leaf_size))

    @given(patterns(max_n=60), st.sampled_from([1, 2, 8, 64, None]))
    # isolated vertices only: every vertex its own component
    @example((7, []), 1)
    # two components larger than the leaf size and an isolated vertex
    @example((7, [(0, 3), (3, 5), (1, 2), (2, 6), (1, 6)]), 2)
    def test_drawn_patterns_match_the_recursive_oracle(self, pattern, leaf_size):
        n, edges = pattern
        a = pattern_matrix(n, edges)
        k = n if leaf_size is None else leaf_size
        assert np.array_equal(nested_dissection(a, leaf_size=k),
                              recursive_nested_dissection(a, k))


def test_lmco_s_nd_bfs_counts(monkeypatch):
    """The counts-gate CI runs by name: the benchmark matrix keeps its
    permutation, and nested dissection runs one BFS sweep per round of a
    dissection level (521 single-source BFS calls before)."""
    # the modules themselves: ``repro.ordering.nested_dissection`` as an
    # attribute is the function the package re-exports
    rcm = importlib.import_module("repro.ordering.rcm")
    nd = importlib.import_module("repro.ordering.nested_dissection")
    rcm_bfs, calls = rcm.bfs_levels, []

    def counted(*args, **kwargs):
        calls.append(1)
        return rcm_bfs(*args, **kwargs)

    monkeypatch.setattr(rcm, "bfs_levels", counted)
    monkeypatch.setattr(nd, "bfs_levels", counted)
    perm = nested_dissection(load_test_matrix("lmco_s"))
    assert digest(perm) == (
        "aa6baeafb7553c574bb661dcd0e360e0d50e244eb27a4ef764148484317606de"
    )
    assert len(calls) == 67 <= 521 // 5
