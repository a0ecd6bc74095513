"""Column patterns, supernodes, amalgamation, and the full SymbolicFactor."""

import hashlib
import importlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.matrices import (
    anisotropic_laplacian_3d,
    elasticity_3d,
    grid_laplacian_2d,
    grid_laplacian_3d,
    load_test_matrix,
    random_spd,
    shell_elasticity,
)
from repro.matrices.csc import CSCMatrix, csc_from_dense
from repro.ordering import ORDERING_METHODS, invert_permutation
from repro.symbolic import (
    AMALGAMATION_PRESETS,
    AmalgamationParams,
    amalgamate,
    amalgamation_preset,
    elimination_tree,
    symbolic_factorize,
)
from repro.symbolic.symbolic import factor_update_flops, lower_pattern
from tests.reference_symbolic import (
    column_counts,
    column_patterns,
    fundamental_supernodes,
    reference_amalgamate,
    reference_lower_pattern,
)


def true_pattern(a, perm=None):
    d = a.to_dense() if perm is None else a.permute_symmetric(perm).to_dense()
    l = np.linalg.cholesky(d)
    return np.abs(l) > 1e-12


class TestColumnPatterns:
    @pytest.mark.parametrize(
        "matrix", ["lap2d", "rand"], ids=["laplacian", "random"]
    )
    def test_exact_fill_pattern(self, matrix, lap2d_small, rand_spd_small):
        a = lap2d_small if matrix == "lap2d" else rand_spd_small
        tree = elimination_tree(a)
        patterns = column_patterns(a, tree.parent)
        ref = true_pattern(a)
        n = a.n_rows
        for j in range(n):
            expected = np.flatnonzero(ref[:, j])
            expected = expected[expected > j]
            # SPD Cholesky has no exact cancellation, so symbolic == true
            assert np.array_equal(patterns[j], expected), f"column {j}"

    def test_counts_match_patterns(self, lap2d_small):
        tree = elimination_tree(lap2d_small)
        pats = column_patterns(lap2d_small, tree.parent)
        cnts = column_counts(lap2d_small, tree.parent)
        assert np.array_equal(cnts, [p.size + 1 for p in pats])

    def test_diagonal_matrix(self):
        a = csc_from_dense(np.eye(4) * 2)
        tree = elimination_tree(a)
        pats = column_patterns(a, tree.parent)
        assert all(p.size == 0 for p in pats)


class TestFundamentalSupernodes:
    def test_dense_block_is_one_supernode(self):
        d = np.full((5, 5), -1.0) + 7 * np.eye(5)
        a = csc_from_dense(d)
        tree = elimination_tree(a)
        cnts = column_counts(a, tree.parent)
        ptr = fundamental_supernodes(tree.parent, cnts)
        assert np.array_equal(ptr, [0, 5])

    def test_diagonal_matrix_all_singletons(self):
        a = csc_from_dense(np.eye(4))
        tree = elimination_tree(a)
        cnts = column_counts(a, tree.parent)
        ptr = fundamental_supernodes(tree.parent, cnts)
        assert np.array_equal(ptr, [0, 1, 2, 3, 4])

    def test_partition_is_contiguous_and_complete(self, lap2d_small):
        tree = elimination_tree(lap2d_small)
        cnts = column_counts(lap2d_small, tree.parent)
        ptr = fundamental_supernodes(tree.parent, cnts)
        assert ptr[0] == 0 and ptr[-1] == lap2d_small.n_rows
        assert (np.diff(ptr) > 0).all()

    def test_empty(self):
        ptr = fundamental_supernodes(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert np.array_equal(ptr, [0])


class TestAmalgamation:
    def test_disabled_returns_input(self, lap2d_small):
        tree = elimination_tree(lap2d_small)
        cnts = column_counts(lap2d_small, tree.parent)
        ptr = fundamental_supernodes(tree.parent, cnts)
        out = amalgamate(ptr, tree.parent, cnts, AmalgamationParams(max_width=0))
        assert np.array_equal(out, ptr)

    def test_reduces_supernode_count(self):
        a = grid_laplacian_2d(9, 9)
        tree = elimination_tree(a)
        cnts = column_counts(a, tree.parent)
        ptr = fundamental_supernodes(tree.parent, cnts)
        out = amalgamate(ptr, tree.parent, cnts)
        assert out.size <= ptr.size
        assert out[0] == 0 and out[-1] == ptr[-1]
        assert (np.diff(out) > 0).all()

    def test_boundaries_subset_of_fundamental(self):
        # amalgamation only merges: every remaining boundary was a
        # fundamental boundary
        a = random_spd(90, seed=5)
        tree = elimination_tree(a)
        cnts = column_counts(a, tree.parent)
        ptr = fundamental_supernodes(tree.parent, cnts)
        out = amalgamate(ptr, tree.parent, cnts)
        assert set(out.tolist()) <= set(ptr.tolist())


class TestSymbolicFactor:
    @pytest.mark.parametrize("ordering", ["natural", "amd", "nd"])
    def test_pattern_superset_and_validates(self, ordering, lap2d_small):
        sf = symbolic_factorize(lap2d_small, ordering=ordering)
        sf.validate()
        ref = true_pattern(lap2d_small, sf.perm)
        ours = np.zeros_like(ref)
        for s in range(sf.n_supernodes):
            f, l = int(sf.super_ptr[s]), int(sf.super_ptr[s + 1])
            for j in range(f, l):
                rr = sf.rows[s][sf.rows[s] >= j]
                ours[rr, j] = True
        assert not (ref & ~ours).any()

    def test_no_amalgamation_gives_exact_nnz(self, lap2d_small):
        sf = symbolic_factorize(
            lap2d_small, ordering="amd",
            amalgamation=AmalgamationParams(max_width=0),
        )
        assert sf.nnz_factor == int(true_pattern(lap2d_small, sf.perm).sum())

    def test_amalgamation_adds_bounded_zeros(self, lap2d_small):
        exact = symbolic_factorize(
            lap2d_small, ordering="amd",
            amalgamation=AmalgamationParams(max_width=0),
        )
        relaxed = symbolic_factorize(lap2d_small, ordering="amd")
        assert relaxed.n_supernodes <= exact.n_supernodes
        assert relaxed.nnz_factor >= exact.nnz_factor
        # zeros stay within a small multiple of the exact factor
        assert relaxed.nnz_factor <= 2.0 * exact.nnz_factor

    def test_mk_pairs_consistent(self, sf_lap3d):
        mk = sf_lap3d.mk_pairs()
        assert mk.shape == (sf_lap3d.n_supernodes, 2)
        for s in range(sf_lap3d.n_supernodes):
            assert mk[s, 1] == sf_lap3d.width(s)
            assert mk[s, 0] == sf_lap3d.update_size(s)
        assert (mk[:, 1] >= 1).all()
        assert (mk[:, 0] >= 0).all()

    def test_total_flops_positive_and_additive(self, sf_lap3d):
        total = sf_lap3d.total_flops()
        manual = sum(
            sum(factor_update_flops(int(m), int(k)))
            for m, k in sf_lap3d.mk_pairs()
        )
        assert total == pytest.approx(manual)
        assert total > 0

    def test_nnz_by_column_sums_to_nnz_factor(self, sf_lap3d):
        assert sf_lap3d.factor_nnz_by_column().sum() == sf_lap3d.nnz_factor

    def test_roots_have_no_update(self, sf_lap3d):
        for s in range(sf_lap3d.n_supernodes):
            if sf_lap3d.sparent[s] == -1:
                assert sf_lap3d.update_size(s) == 0

    def test_spost_is_valid_schedule(self, sf_lap3d):
        seen = set()
        for s in sf_lap3d.spost:
            for c in sf_lap3d.schildren()[int(s)]:
                assert c in seen
            seen.add(int(s))

    def test_custom_permutation(self, lap2d_small):
        perm = np.arange(lap2d_small.n_rows)[::-1].copy()
        sf = symbolic_factorize(lap2d_small, perm=perm)
        sf.validate()
        assert sf.ordering == "custom"

    def test_rejects_nonsquare(self, rng):
        a = csc_from_dense(rng.normal(size=(3, 4)))
        with pytest.raises(ValueError):
            symbolic_factorize(a)

    def test_flop_counts_formulas(self):
        np_, nt, ns = factor_update_flops(10, 4)
        assert np_ == pytest.approx(4**3 / 3)
        assert nt == pytest.approx(10 * 16)
        assert ns == pytest.approx(100 * 4)

    @pytest.mark.parametrize(
        "perm",
        [[0, 1, 1, 3], [0, -1, 2, 3], [0, 1, 2, 4], [0, 1, 2], [[0, 1], [2, 3]]],
        ids=["duplicate", "negative", "too-large", "wrong-length", "wrong-rank"],
    )
    def test_rejects_perm_that_is_no_permutation(self, perm):
        a = csc_from_dense(np.eye(4) * 2)
        with pytest.raises(ValueError, match="perm is not a permutation of 0..n-1"):
            symbolic_factorize(a, perm=np.array(perm))


def structure_digest(sf) -> str:
    h = hashlib.sha256()
    for part in (sf.perm, sf.super_ptr, np.concatenate(sf.rows)):
        h.update(np.ascontiguousarray(part, dtype=np.int64).tobytes())
    return h.hexdigest()


class TestPinnedStructure:
    """The benchmark's matrices keep their ordering and supernodal
    structure: SHA-256 over ``(perm, super_ptr, concatenated rows)``,
    recorded at the commit before symbolic analysis went from one union
    per column to one per supernode.  A drift here is what the ``bench``
    job would report as an anonymous counter diff."""

    PINNED = {
        "lmco_s/nd":
            "bd821d0c692ed111fc2ddfad0fd11b04ee442245a160dba94daf5d26fccbefe1",
        "grid_laplacian_2d/amd":
            "af022fd5066e68ce08aead1a4a816c9a56b1fcdac54fbf1fab731d460c836721",
        "grid_laplacian_3d/amd":
            "8b0c94addd107d2b8eb70d4c7b93b87cc9934a232a1090dfd572641838847c7c",
        "elasticity_3d/amd":
            "eee1a19121e41d64ea89d34ab5815cafcbd360d396ca0ffffab7f2dadd1bb0d1",
    }
    BUILD = {
        "lmco_s/nd": lambda: load_test_matrix("lmco_s"),
        "grid_laplacian_2d/amd": lambda: grid_laplacian_2d(48, 46),
        "grid_laplacian_3d/amd": lambda: grid_laplacian_3d(13, 13, 12),
        "elasticity_3d/amd": lambda: elasticity_3d(8, 7, 7),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_structure_is_pinned(self, case):
        sf = symbolic_factorize(self.BUILD[case](), ordering=case.split("/")[1])
        assert structure_digest(sf) == self.PINNED[case]


def test_lmco_s_cold_analysis_counts(monkeypatch):
    """The counts-gate CI runs by name: lmco_s/nd keeps its pinned
    structure (its permutation among it), its nested dissection runs
    minimum degree once per distinct leaf graph (126 calls, where each
    of the 382 leaves had one), its analysis de-duplicates every pattern
    with a plain sort (3 249 ``np.unique`` calls before: two over the
    whole lower pattern, one per fundamental supernode), and its
    assembly plan places every entry and every child row with
    whole-plan searches (3 966 calls before: one per supernode for its
    entries, one per child for its update rows, one for the column
    bounds)."""
    from repro.multifrontal.frontal import AssemblyPlan

    nd = importlib.import_module("repro.ordering.nested_dissection")
    calls = {"unique": 0, "searchsorted": 0, "minimum_degree_graph": 0}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    a = load_test_matrix("lmco_s")
    monkeypatch.setattr(np, "unique", counting(np, "unique"))
    monkeypatch.setattr(nd, "minimum_degree_graph",
                        counting(nd, "minimum_degree_graph"))
    sf = symbolic_factorize(a, ordering="nd")
    assert structure_digest(sf) == TestPinnedStructure.PINNED["lmco_s/nd"]
    assert calls["minimum_degree_graph"] == 126
    monkeypatch.setattr(np, "searchsorted", counting(np, "searchsorted"))
    AssemblyPlan(a, sf)
    assert calls["unique"] == 0
    # the column bounds, the entries, the child rows
    assert calls["searchsorted"] <= 3


@pytest.mark.parametrize("store", ("full", "lower"))
def test_lmco_s_cold_op_tests_symmetry_once(store):
    """The counts-gate CI runs by name: one cold solver op on lmco_s/nd,
    matrix to refined ``x``, tests the pattern's symmetry once (twice
    before: the solver's constructor and nested dissection's adjacency
    each tested it); the matrix the constructor keeps carries the
    verdict down."""
    from unittest import mock

    from repro import SparseCholeskySolver
    from repro.matrices.csc import CSCMatrix

    a = load_test_matrix("lmco_s")
    if store == "lower":
        a = a.lower_triangle()
    with mock.patch.object(
        CSCMatrix, "is_structurally_symmetric", autospec=True,
        side_effect=CSCMatrix.is_structurally_symmetric,
    ) as tested:
        solver = SparseCholeskySolver(a, ordering="nd", policy="P1")
        x = solver.solve(np.ones(a.n_rows))
    assert tested.call_count == 1
    assert solver.a.full_symmetric() is solver.a
    assert structure_digest(solver.symbolic) == TestPinnedStructure.PINNED["lmco_s/nd"]
    assert np.isfinite(x).all()


def assert_matches_column_oracle(a, sf):
    """``sf`` against the column-at-a-time definition it no longer runs:
    the etree of the permuted matrix, ``column_patterns`` and the
    counts-based ``fundamental_supernodes``."""
    full = a.full_symmetric()
    n = full.n_rows
    permuted = full.permute_symmetric(sf.perm)
    tree = elimination_tree(permuted)
    assert np.array_equal(tree.post, np.arange(n))
    for field in ("parent", "post", "first_child", "next_sibling"):
        assert np.array_equal(getattr(sf.etree, field), getattr(tree, field)), field

    patterns = column_patterns(permuted, tree.parent)
    for s in range(sf.n_supernodes):
        f, l = int(sf.super_ptr[s]), int(sf.super_ptr[s + 1])
        below = sf.rows[s][l - f:]
        union = np.unique(np.concatenate(patterns[f:l]))
        assert np.array_equal(below, union[union >= l]), f"supernode {s}"
        assert np.array_equal(below, patterns[l - 1]), f"supernode {s}"

    # with amalgamation off the partition is the fundamental one
    exact = symbolic_factorize(a, perm=sf.perm, amalgamation=AmalgamationParams.off())
    assert np.array_equal(exact.perm, sf.perm)
    counts = np.array([p.size + 1 for p in patterns], dtype=np.int64)
    fundamental = fundamental_supernodes(tree.parent, counts)
    assert np.array_equal(exact.super_ptr, fundamental)
    assert np.array_equal(
        sf.super_ptr, amalgamate(fundamental, tree.parent, counts, sf.amalgamation)
    )
    sf.validate()


def pattern_matrix(n, edges, *, lower_only=False):
    """Matrix with a full diagonal and the given off-diagonal pattern,
    stored in full or as its lower triangle."""
    i = np.array([max(e) for e in edges], dtype=np.int64)
    j = np.array([min(e) for e in edges], dtype=np.int64)
    d = np.arange(n, dtype=np.int64)
    rows = np.concatenate([d, i] if lower_only else [d, i, j])
    cols = np.concatenate([d, j] if lower_only else [d, j, i])
    return CSCMatrix.from_coo(rows, cols, np.ones(rows.size), (n, n))


@st.composite
def patterns(draw, max_n=20):
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(
        st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=3 * n
    ))
    return n, edges


class TestSupernodalAgainstColumnOracle:
    FAMILIES = {
        "grid_laplacian_2d": lambda: grid_laplacian_2d(9, 7),
        "grid_laplacian_3d": lambda: grid_laplacian_3d(5, 4, 4),
        "elasticity_3d": lambda: elasticity_3d(3, 3, 2),
        "anisotropic_laplacian_3d": lambda: anisotropic_laplacian_3d(4, 4, 3),
        "shell_elasticity": lambda: shell_elasticity(5, 4),
        "random_spd": lambda: random_spd(70, seed=9),
    }

    @pytest.mark.parametrize("preset", AMALGAMATION_PRESETS)
    @pytest.mark.parametrize("ordering", ORDERING_METHODS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_generator_families(self, family, ordering, preset):
        a = self.FAMILIES[family]()
        sf = symbolic_factorize(
            a, ordering=ordering, amalgamation=amalgamation_preset(preset)
        )
        assert_matches_column_oracle(a, sf)

    @given(
        patterns(),
        st.sampled_from(ORDERING_METHODS),
        st.sampled_from(AMALGAMATION_PRESETS),
        st.booleans(),
    )
    # a diagonal matrix: a forest of roots, every column its own supernode
    @example((5, []), "nd", "default", False)
    # two components and an isolated vertex
    @example((7, [(0, 3), (3, 5), (1, 2), (2, 6), (1, 6)]), "nd", "aggressive", False)
    # lower-triangle storage under an ordering that moves entries across
    # the diagonal
    @example((6, [(0, 5), (1, 5), (2, 4), (0, 2)]), "amd", "off", True)
    def test_drawn_patterns(self, pattern, ordering, preset, lower_only):
        n, edges = pattern
        a = pattern_matrix(n, edges, lower_only=lower_only)
        sf = symbolic_factorize(
            a, ordering=ordering, amalgamation=amalgamation_preset(preset)
        )
        assert_matches_column_oracle(a, sf)
        if lower_only:
            full = symbolic_factorize(
                pattern_matrix(n, edges), ordering=ordering,
                amalgamation=amalgamation_preset(preset),
            )
            assert structure_digest(sf) == structure_digest(full)

    @given(patterns(), st.integers(0, 2**32 - 1))
    def test_drawn_patterns_under_a_supplied_permutation(self, pattern, seed):
        n, edges = pattern
        a = pattern_matrix(n, edges)
        perm = np.random.default_rng(seed).permutation(n)
        assert_matches_column_oracle(a, symbolic_factorize(a, perm=perm))


def stored_pattern(n, edges, sides):
    """Matrix with a full diagonal whose off-diagonal pair ``edges[e]`` is
    stored below the diagonal, above it or on both sides as ``sides[e]``
    is 0, 1 or 2 (a mixed store; all 2 is a full store)."""
    rows, cols = list(range(n)), list(range(n))
    for (i, j), side in zip(edges, sides):
        lo, hi = min(i, j), max(i, j)
        if side != 1:
            rows.append(hi), cols.append(lo)
        if side != 0:
            rows.append(lo), cols.append(hi)
    return CSCMatrix.from_coo(rows, cols, np.ones(len(rows)), (n, n))


@st.composite
def stored_patterns(draw, max_n=20):
    n, edges = draw(patterns(max_n=max_n))
    sides = draw(st.lists(st.integers(0, 2), min_size=len(edges),
                          max_size=len(edges)))
    return n, edges, sides


class TestArrayPassesAgainstScalarOracles:
    """The analysis' array passes against the scalar code they replaced,
    kept in ``tests/reference_symbolic.py``: relaxed amalgamation over
    Python lists against the sweep that read numpy scalars, and the
    lower pattern of a store known to be symmetric (its ``r > c``
    entries) against the ``(max, min)`` fold every store can take."""

    PARAMS = {
        "default": AmalgamationParams(),
        "aggressive": AmalgamationParams.aggressive(),
        # every budget binding on small trees too
        "capped": AmalgamationParams(max_zeros=6, max_width=6, small_child=2,
                                     passes=2),
    }

    @staticmethod
    def assert_amalgamation_matches(a, ordering, params):
        # the fundamental partition and its column counts, from the
        # symbolic factor the column oracle holds exact
        sf = symbolic_factorize(a, ordering=ordering,
                                amalgamation=AmalgamationParams.off())
        widths = np.diff(sf.super_ptr)
        sizes = np.array([r.size for r in sf.rows], dtype=np.int64)
        counts = np.repeat(sizes + sf.super_ptr[:-1], widths) - np.arange(sf.n)
        parent = sf.etree.parent
        got = amalgamate(sf.super_ptr, parent, counts, params)
        want = reference_amalgamate(sf.super_ptr, parent, counts, params)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("params", sorted(PARAMS))
    def test_lmco_s_amalgamation_matches(self, params):
        self.assert_amalgamation_matches(load_test_matrix("lmco_s"), "nd",
                                         self.PARAMS[params])

    @given(patterns(max_n=40), st.sampled_from(ORDERING_METHODS),
           st.sampled_from(sorted(PARAMS)))
    @example((5, []), "nd", "default")
    @example((7, [(0, 3), (3, 5), (1, 2), (2, 6), (1, 6)]), "nd", "aggressive")
    def test_drawn_amalgamation_matches(self, pattern, ordering, params):
        n, edges = pattern
        self.assert_amalgamation_matches(pattern_matrix(n, edges), ordering,
                                         self.PARAMS[params])

    @staticmethod
    def assert_lower_pattern_matches(a, perm):
        """The lower pattern ``symbolic_factorize`` takes of ``a`` under
        ``perm``, with the verdict ``a`` holds, equals the fold."""
        n = a.n_rows
        position = invert_permutation(perm)
        r = position[a.indices]
        c = position[np.repeat(np.arange(n, dtype=np.int64), np.diff(a.indptr))]
        symmetric = a.is_structurally_symmetric()
        assert a.symmetry_verdict() is symmetric
        rows, cols = lower_pattern(r, c, n, symmetric)
        want_rows, want_cols = reference_lower_pattern(r, c, n)
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
        return symmetric

    def test_lmco_s_lower_pattern_matches(self):
        a = load_test_matrix("lmco_s")
        perm = np.random.default_rng(3).permutation(a.n_rows)
        assert self.assert_lower_pattern_matches(a, perm)
        assert not self.assert_lower_pattern_matches(a.lower_triangle(), perm)

    @given(stored_patterns(), st.integers(0, 2**32 - 1))
    # a full, a lower-only and a mixed store of one pattern
    @example((5, [(0, 3), (1, 4), (2, 3)], [2, 2, 2]), 0)
    @example((5, [(0, 3), (1, 4), (2, 3)], [0, 0, 0]), 0)
    @example((5, [(0, 3), (1, 4), (2, 3)], [0, 1, 2]), 0)
    def test_drawn_stores_lower_pattern_matches(self, pattern, seed):
        n, edges, sides = pattern
        a = stored_pattern(n, edges, sides)
        perm = np.random.default_rng(seed).permutation(n)
        symmetric = self.assert_lower_pattern_matches(a, perm)
        stored = a.to_dense() != 0
        assert symmetric == np.array_equal(stored, stored.T)
        # a full store takes the shortcut
        assert symmetric or not all(side == 2 for side in sides)

    def test_symbolic_factorize_reads_the_held_verdict(self):
        """A store that holds no verdict takes the fold, and the
        analysis never tests symmetry for the lower pattern."""
        from unittest import mock

        a = grid_laplacian_2d(9, 7)
        perm = np.random.default_rng(1).permutation(a.n_rows)
        with mock.patch.object(
            CSCMatrix, "is_structurally_symmetric", autospec=True,
            side_effect=CSCMatrix.is_structurally_symmetric,
        ) as tested:
            cold = symbolic_factorize(a, perm=perm)
        assert tested.call_count == 0 and a.symmetry_verdict() is None
        assert a.is_structurally_symmetric()
        assert structure_digest(symbolic_factorize(a, perm=perm)) == (
            structure_digest(cold)
        )
