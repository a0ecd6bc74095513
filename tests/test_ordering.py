"""Ordering package: permutation validity, fill quality, structure."""

import hashlib
import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.matrices import (
    elasticity_3d,
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
from repro.ordering.amd import minimum_degree_graph
from repro.ordering.rcm import DEAD
from repro.verify import load_corpus
from repro.verify.harness import DEFAULT_CORPUS
from tests.reference_ordering import (
    recursive_nested_dissection,
    reference_minimum_degree,
)
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


@st.composite
def merge_graphs(draw, max_blocks=6):
    """``(n, edges)``: disjoint blocks -- isolated vertices, cliques,
    stars, complete bipartite graphs and sparse random pieces -- under a
    drawn relabelling.  The empty graph, one vertex and disconnected
    graphs come up, and so do indistinguishable variables, which is
    what drives the supervariable merges and the mass eliminations."""
    n, edges = 0, []
    kinds = ("isolated", "clique", "star", "bipartite", "random")
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=max_blocks)):
        if kind == "isolated":
            size = draw(st.integers(1, 3))
        elif kind == "clique":
            size = draw(st.integers(2, 8))
            edges += [(n + i, n + j) for i in range(size) for j in range(i)]
        elif kind == "star":
            size = draw(st.integers(2, 10))
            edges += [(n, n + i) for i in range(1, size)]
        elif kind == "bipartite":
            left, right = draw(st.integers(1, 5)), draw(st.integers(1, 5))
            size = left + right
            edges += [(n + i, n + left + j) for i in range(left) for j in range(right)]
        else:
            size = draw(st.integers(2, 12))
            vertex = st.integers(0, size - 1)
            pairs = draw(st.lists(st.tuples(vertex, vertex).filter(
                lambda e: e[0] != e[1]), max_size=3 * size))
            edges += [(n + i, n + j) for i, j in pairs]
        n += size
    label = draw(st.permutations(range(n)))
    return n, [(label[i], label[j]) for i, j in edges]


class TestMinimumDegreeKernel:
    """``minimum_degree_graph`` keeps each live element's weight and
    subtracts, where the reference re-summed members at every pivot; the
    degrees, the supervariables and so the orders must stay the same."""

    @staticmethod
    def assert_matches_reference(indptr, indices):
        assert np.array_equal(minimum_degree_graph(indptr, indices),
                              reference_minimum_degree(indptr, indices))

    @given(merge_graphs())
    @example((0, []))
    @example((1, []))
    @example((5, []))
    def test_drawn_graphs_match_the_reference(self, graph):
        self.assert_matches_reference(*pattern_matrix(*graph).adjacency())

    @pytest.mark.parametrize("build", [
        lambda: grid_laplacian_2d(48, 46),
        lambda: grid_laplacian_3d(13, 13, 12),
        lambda: elasticity_3d(8, 7, 7),
    ], ids=["g2d", "g3d", "el"])
    def test_service_matrices_match_the_reference(self, build):
        # the first shape of each kind of pattern the API benchmark
        # orders with amd
        self.assert_matches_reference(*build().adjacency())

    def test_corpus_matches_the_reference(self):
        cases = load_corpus(DEFAULT_CORPUS)
        assert cases
        for _, a, _ in cases:
            self.assert_matches_reference(*a.adjacency())

    def test_every_lmco_s_leaf_matches_the_reference(self, monkeypatch):
        # the one-part-at-a-time oracle orders every leaf on its own;
        # nested dissection orders each distinct leaf graph once
        ref = importlib.import_module("tests.reference_ordering")
        leaves = []

        def spy(indptr, indices):
            leaves.append((indptr.tobytes(), indices.tobytes()))
            self.assert_matches_reference(indptr, indices)
            return reference_minimum_degree(indptr, indices)

        monkeypatch.setattr(ref, "reference_minimum_degree", spy)
        a = load_test_matrix("lmco_s")
        assert np.array_equal(recursive_nested_dissection(a), nested_dissection(a))
        assert len(leaves) == 382 and len(set(leaves)) == 126


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
    # two leaves with one local indptr and different edges: the leaf
    # memo must key on both arrays
    @example((8, [(0, 1), (1, 2), (2, 3), (4, 6), (6, 5), (5, 7)]), 4)
    def test_drawn_patterns_match_the_recursive_oracle(self, pattern, leaf_size):
        n, edges = pattern
        a = pattern_matrix(n, edges)
        k = n if leaf_size is None else leaf_size
        assert np.array_equal(nested_dissection(a, leaf_size=k),
                              recursive_nested_dissection(a, k))

    @pytest.mark.parametrize("leaf_size", [1, 8, 64])
    def test_levels_share_no_edge(self, leaf_size):
        for a in (self._two_grids_and_isolated_vertices(),
                  grid_laplacian_3d(9, 8, 7)):
            assert_levels_share_no_edge(a, leaf_size)

    @given(patterns(max_n=60), st.sampled_from([1, 2, 8, 64, None]))
    @example((7, [(0, 3), (3, 5), (1, 2), (2, 6), (1, 6)]), 2)
    def test_drawn_patterns_levels_share_no_edge(self, pattern, leaf_size):
        n, edges = pattern
        assert_levels_share_no_edge(pattern_matrix(n, edges),
                                    n if leaf_size is None else leaf_size)


def dissection_levels(a, leaf_size):
    """``nested_dissection(a)`` and the vertex arrays of every part of
    every dissection level, asserting that the sweeps' level array holds
    ``DEAD`` on every vertex before and after each level: a separator,
    a leaf and every vertex a sweep reached is dead once its level is
    done."""
    nd = importlib.import_module("repro.ordering.nested_dissection")
    dissect, levels = nd._dissect_level, []

    def spy(indptr, indices, parts, tasks, mark, *rest):
        assert np.all(mark == DEAD)
        levels.append([nodes for _, nodes, _ in parts])
        out = dissect(indptr, indices, parts, tasks, mark, *rest)
        assert np.all(mark == DEAD)
        return out

    with mock.patch.object(nd, "_dissect_level", spy):
        perm = nested_dissection(a, leaf_size=leaf_size)
    return perm, levels


def assert_levels_share_no_edge(a, leaf_size):
    """The invariant that lets every sweep run on ``a``'s own adjacency:
    at every dissection level, no edge joins two of its live parts."""
    perm, levels = dissection_levels(a, leaf_size)
    indptr, indices = a.adjacency()
    n = a.n_rows
    tail = np.repeat(np.arange(n), np.diff(indptr))
    for parts in levels:
        owner = np.full(n, -1)
        for i, nodes in enumerate(parts):
            owner[nodes] = i
        live = (owner[tail] >= 0) & (owner[indices] >= 0)
        assert np.array_equal(owner[tail][live], owner[indices][live])
    assert np.array_equal(perm, recursive_nested_dissection(a, leaf_size))


def test_leaf_memo_lives_for_one_call(monkeypatch):
    """Congruent leaves share one minimum-degree run inside a call, and
    a second call on the same matrix orders its leaves again: a cold
    ordering stays cold."""
    nd = importlib.import_module("repro.ordering.nested_dissection")
    leaves = []

    def spy(indptr, indices):
        leaves.append((indptr.tobytes(), indices.tobytes()))
        return minimum_degree_graph(indptr, indices)

    monkeypatch.setattr(nd, "minimum_degree_graph", spy)
    a = grid_laplacian_3d(16, 16, 16)
    first = nested_dissection(a, leaf_size=8)
    per_call = len(leaves)
    assert len(set(leaves)) == per_call
    assert np.array_equal(nested_dissection(a, leaf_size=8), first)
    assert len(leaves) == 2 * per_call
    assert np.array_equal(first, recursive_nested_dissection(a, 8))


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


def test_lmco_s_nd_local_graph_counts(monkeypatch):
    """The counts-gate CI runs by name: nested dissection of lmco_s
    sweeps the matrix's own adjacency and copies adjacency entries only
    to build the local graphs minimum degree orders, one gather per
    level with leaves: 160 425 entries read, 63 234 kept, each vertex's
    list at most once (the 279 174 entries of the whole adjacency; the
    per-level induced unions copied 2 093 892 before)."""
    nd = importlib.import_module("repro.ordering.nested_dissection")
    leaf_graphs, read, kept, seen = nd._leaf_graphs, [], [], []

    def counted(indptr, indices, nodes, *rest):
        read.append(int(np.diff(indptr)[nodes].sum()))
        seen.append(nodes)
        g_indptr, g_indices = leaf_graphs(indptr, indices, nodes, *rest)
        kept.append(g_indices.size)
        return g_indptr, g_indices

    monkeypatch.setattr(nd, "_leaf_graphs", counted)
    a = load_test_matrix("lmco_s")
    perm = nested_dissection(a)
    assert digest(perm) == (
        "aa6baeafb7553c574bb661dcd0e360e0d50e244eb27a4ef764148484317606de"
    )
    assert len(read) == 16
    assert (sum(read), sum(kept)) == (160_425, 63_234)
    leaves = np.concatenate(seen)
    assert np.unique(leaves).size == leaves.size
    assert sum(read) <= a.nnz - a.n_rows == 279_174
