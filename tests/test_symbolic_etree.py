"""Elimination tree construction and traversal."""

import numpy as np
import pytest

from repro.matrices.csc import csc_from_dense
from repro.matrices import grid_laplacian_2d, grid_laplacian_3d, random_spd
from repro.symbolic import elimination_tree, postorder, symbolic_factorize
from repro.symbolic.etree import NO_PARENT
from repro.workload.geometric import geometric_nd_workload
from tests.reference_symbolic import reference_postorder


def arrow_matrix(n=6):
    """Arrow pointing down-right: dense last row/col + diagonal."""
    d = np.eye(n) * 4.0
    d[-1, :] = d[:, -1] = -1.0
    d[-1, -1] = float(n)
    return csc_from_dense(d)


def reference_parent(a):
    """Brute-force etree: factor densely, parent(j) = min{i>j: L[i,j]!=0}."""
    l = np.linalg.cholesky(a.to_dense())
    n = l.shape[0]
    parent = np.full(n, NO_PARENT, dtype=np.int64)
    for j in range(n):
        below = np.flatnonzero(np.abs(l[j + 1:, j]) > 1e-12)
        if below.size:
            parent[j] = j + 1 + below[0]
    return parent


class TestParents:
    def test_arrow_all_point_to_last(self):
        tree = elimination_tree(arrow_matrix(6))
        assert np.array_equal(tree.parent[:-1], np.full(5, 5))
        assert tree.parent[-1] == NO_PARENT

    def test_matches_bruteforce_on_laplacian(self):
        a = grid_laplacian_2d(5, 4)
        tree = elimination_tree(a)
        assert np.array_equal(tree.parent, reference_parent(a))

    def test_matches_bruteforce_on_random(self):
        a = random_spd(40, seed=11)
        tree = elimination_tree(a)
        assert np.array_equal(tree.parent, reference_parent(a))

    def test_lower_storage_accepted(self):
        a = grid_laplacian_2d(4, 4)
        t_full = elimination_tree(a)
        t_low = elimination_tree(a.lower_triangle())
        assert np.array_equal(t_full.parent, t_low.parent)

    def test_diagonal_matrix_is_forest_of_roots(self):
        a = csc_from_dense(np.eye(5))
        tree = elimination_tree(a)
        assert (tree.parent == NO_PARENT).all()
        assert len(tree.roots()) == 5

    def test_parents_exceed_children(self):
        a = random_spd(60, seed=4)
        tree = elimination_tree(a)
        j = np.arange(60)
        has_parent = tree.parent != NO_PARENT
        assert (tree.parent[has_parent] > j[has_parent]).all()

    def test_requires_square(self, rng):
        a = csc_from_dense(rng.normal(size=(3, 4)))
        with pytest.raises(ValueError):
            elimination_tree(a)


class TestPostorder:
    def test_children_before_parents(self):
        a = random_spd(50, seed=7)
        tree = elimination_tree(a)
        position = np.empty(50, dtype=int)
        position[tree.post] = np.arange(50)
        for j in range(50):
            p = tree.parent[j]
            if p != NO_PARENT:
                assert position[j] < position[p]

    def test_postorder_is_permutation(self):
        a = grid_laplacian_2d(6, 6)
        tree = elimination_tree(a)
        assert np.array_equal(np.sort(tree.post), np.arange(36))

    def test_invalid_parent_array_raises(self):
        # a cycle is not a forest
        with pytest.raises(ValueError):
            postorder(np.array([1, 0]))

    def test_children_lists(self):
        tree = elimination_tree(arrow_matrix(5))
        assert tree.children(4) == [0, 1, 2, 3]
        assert tree.children(0) == []


def random_forest(n, n_roots, seed):
    """Parent pointers of a forest on ``n`` shuffled labels: each vertex
    after the first ``n_roots`` hangs off a random earlier one."""
    rng = np.random.default_rng(seed)
    label = rng.permutation(n)
    parent = np.full(n, NO_PARENT, dtype=np.int64)
    for i in range(n_roots, n):
        parent[label[i]] = label[rng.integers(0, i)]
    return parent


class TestPostorderAgainstReference:
    """``postorder`` walks Python lists; the reference reads one numpy
    scalar at a time.  Every output array must be equal."""

    FORESTS = {
        "one root": lambda: random_forest(500, 1, seed=1),
        "many roots": lambda: random_forest(500, 60, seed=2),
        "all roots": lambda: np.full(40, NO_PARENT, dtype=np.int64),
        "empty": lambda: np.empty(0, dtype=np.int64),
        "chain up": lambda: np.append(np.arange(1, 100_000), NO_PARENT),
        "chain down": lambda: np.append(NO_PARENT, np.arange(0, 99_999)),
        "star, hub last": lambda: np.append(np.full(999, 999), NO_PARENT),
        "star, hub first": lambda: np.append(NO_PARENT, np.zeros(999, dtype=np.int64)),
        "ten stars": lambda: np.where(np.arange(1000) % 100 == 0, NO_PARENT,
                                      np.arange(1000) // 100 * 100),
    }

    @pytest.mark.parametrize("forest", sorted(FORESTS))
    def test_forest_matches_the_reference(self, forest):
        parent = self.FORESTS[forest]()
        for got, want in zip(postorder(parent), reference_postorder(parent)):
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("parent", [[1, 0], [0], [2, NO_PARENT, 3, 2]])
    def test_a_cycle_raises_like_the_reference(self, parent):
        parent = np.array(parent, dtype=np.int64)
        for fn in (postorder, reference_postorder):
            with pytest.raises(ValueError, match="forest"):
                fn(parent)


class TestSupernodalTreeHelpers:
    """``spost``, ``schildren`` and ``mk_pairs`` read ``sparent`` and
    ``super_ptr`` as lists or whole arrays; the per-scalar definitions
    they replaced are written out here."""

    FACTORS = {
        "grid_laplacian_3d/nd": lambda: symbolic_factorize(grid_laplacian_3d(9, 8, 7)),
        "random_spd/amd": lambda: symbolic_factorize(
            random_spd(300, avg_degree=2, seed=4), ordering="amd"),
        "geometric": lambda: geometric_nd_workload(12, 12, 12),
    }

    @pytest.mark.parametrize("case", sorted(FACTORS))
    def test_helpers_match_the_scalar_definitions(self, case):
        sf = self.FACTORS[case]()
        n_super = sf.n_supernodes
        kids = [[] for _ in range(n_super)]
        mk = np.empty((n_super, 2), dtype=np.int64)
        for s in range(n_super):
            if sf.sparent[s] != NO_PARENT:
                kids[sf.sparent[s]].append(s)
            k = int(sf.super_ptr[s + 1] - sf.super_ptr[s])
            mk[s] = sf.rows[s].size - k, k
        assert sf.schildren() == kids
        got = sf.mk_pairs()
        assert got.dtype == np.int64 and np.array_equal(got, mk)
        if case != "geometric":
            # the synthetic factor states its own spost
            assert np.array_equal(sf.spost, reference_postorder(sf.sparent)[0])


class TestDerived:
    def test_depths(self):
        tree = elimination_tree(arrow_matrix(4))
        d = tree.depths()
        assert d[3] == 0
        assert (d[:3] == 1).all()

    def test_subtree_sizes(self):
        tree = elimination_tree(arrow_matrix(4))
        sizes = tree.subtree_sizes()
        assert sizes[3] == 4
        assert (sizes[:3] == 1).all()
