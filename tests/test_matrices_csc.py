"""Unit tests for the CSC container."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.matrices import COOMatrix, CSCMatrix, csc_from_dense


def dense_ref():
    return np.array(
        [
            [4.0, 0.0, -1.0, 0.0],
            [0.0, 3.0, 0.0, -2.0],
            [-1.0, 0.0, 5.0, 0.0],
            [0.0, -2.0, 0.0, 6.0],
        ]
    )


class TestConstruction:
    def test_from_coo_round_trip(self):
        d = dense_ref()
        rows, cols = np.nonzero(d)
        a = CSCMatrix.from_coo(rows, cols, d[rows, cols], d.shape)
        assert a.nnz == 8
        assert np.allclose(a.to_dense(), d)

    def test_from_coo_sums_duplicates(self):
        a = CSCMatrix.from_coo([0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0], (2, 2))
        assert a.nnz == 2
        assert a.to_dense()[0, 0] == 3.0

    def test_from_coo_empty(self):
        a = CSCMatrix.from_coo([], [], [], (3, 3))
        assert a.nnz == 0
        assert np.allclose(a.to_dense(), np.zeros((3, 3)))

    def test_coo_matrix_wrapper(self):
        c = COOMatrix(2, 2, [0, 1, 0], [0, 1, 0], [1.0, 2.0, 1.0])
        assert c.nnz == 3
        a = c.to_csc()
        assert a.to_dense()[0, 0] == 2.0

    def test_coo_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            COOMatrix(2, 2, [0, 2], [0, 0], [1.0, 1.0])

    def test_identity(self):
        eye = CSCMatrix.identity(4, scale=2.0)
        assert np.allclose(eye.to_dense(), 2.0 * np.eye(4))

    def test_csc_from_dense_with_tolerance(self):
        d = dense_ref()
        d[0, 1] = 1e-15
        a = csc_from_dense(d, tol=1e-12)
        assert a.nnz == 8

    def test_validation_rejects_bad_indptr(self):
        with pytest.raises(ValueError):
            CSCMatrix((2, 2), [0, 2], [0, 1], [1.0, 1.0])

    def test_validation_rejects_unsorted_rows(self):
        with pytest.raises(ValueError):
            CSCMatrix((3, 1), [0, 2], [2, 0], [1.0, 1.0])


class TestLinearAlgebra:
    def test_matvec_matches_dense(self, rng):
        d = dense_ref()
        a = csc_from_dense(d)
        x = rng.normal(size=4)
        assert np.allclose(a.matvec(x), d @ x)

    def test_rmatvec_matches_dense(self, rng):
        d = dense_ref()
        a = csc_from_dense(d)
        x = rng.normal(size=4)
        assert np.allclose(a.rmatvec(x), d.T @ x)

    def test_matvec_rectangular(self, rng):
        d = rng.normal(size=(5, 3))
        a = csc_from_dense(d)
        x = rng.normal(size=3)
        assert np.allclose(a.matvec(x), d @ x)
        y = rng.normal(size=5)
        assert np.allclose(a.rmatvec(y), d.T @ y)

    def test_matvec_dimension_check(self):
        a = csc_from_dense(dense_ref())
        with pytest.raises(ValueError):
            a.matvec(np.ones(5))

    def test_symmetric_matvec_from_lower(self, rng):
        d = dense_ref()
        a = csc_from_dense(d)
        lower = a.lower_triangle()
        x = rng.normal(size=4)
        assert np.allclose(lower.symmetric_matvec(x), d @ x)

    def test_diagonal(self):
        a = csc_from_dense(dense_ref())
        assert np.allclose(a.diagonal(), [4.0, 3.0, 5.0, 6.0])


class TestTransforms:
    def test_transpose(self, rng):
        d = rng.normal(size=(4, 6))
        d[np.abs(d) < 0.7] = 0.0
        a = csc_from_dense(d)
        assert np.allclose(a.transpose().to_dense(), d.T)

    def test_lower_triangle_strict(self):
        a = csc_from_dense(dense_ref())
        strict = a.lower_triangle(strict=True)
        assert np.allclose(strict.to_dense(), np.tril(dense_ref(), -1))

    def test_symmetrize_round_trip(self):
        a = csc_from_dense(dense_ref())
        low = a.lower_triangle()
        assert np.allclose(low.symmetrize_from_lower().to_dense(), dense_ref())

    def test_permute_symmetric(self):
        d = dense_ref()
        a = csc_from_dense(d)
        perm = np.array([2, 0, 3, 1])
        p = a.permute_symmetric(perm)
        assert np.allclose(p.to_dense(), d[np.ix_(perm, perm)])

    def test_permute_requires_square(self, rng):
        a = csc_from_dense(rng.normal(size=(3, 4)))
        with pytest.raises(ValueError):
            a.permute_symmetric(np.arange(3))

    def test_structural_symmetry(self):
        assert csc_from_dense(dense_ref()).is_structurally_symmetric()
        asym = csc_from_dense(np.triu(dense_ref()))
        assert not asym.is_structurally_symmetric()

    def test_adjacency_excludes_diagonal(self):
        a = csc_from_dense(dense_ref())
        indptr, indices = a.adjacency()
        assert indptr[-1] == 4  # 2 symmetric off-diagonal pairs
        for j in range(4):
            assert j not in indices[indptr[j]:indptr[j + 1]]

    def test_adjacency_from_lower_storage(self):
        a = csc_from_dense(dense_ref()).lower_triangle()
        indptr, indices = a.adjacency()
        assert indptr[-1] == 4

    def test_column_views_are_views(self):
        a = csc_from_dense(dense_ref())
        idx, vals = a.column(0)
        vals[0] = 99.0
        assert a.to_dense()[0, 0] == 99.0

    def test_copy_is_independent(self):
        a = csc_from_dense(dense_ref())
        b = a.copy()
        b.data[0] = -1
        assert a.data[0] != -1

    def test_astype(self):
        a = csc_from_dense(dense_ref()).astype(np.float32)
        assert a.data.dtype == np.float32

    def test_allclose(self):
        a = csc_from_dense(dense_ref())
        b = a.copy()
        assert a.allclose(b)
        b.data[0] += 1.0
        assert not a.allclose(b)


def transpose_is_symmetric(m: CSCMatrix) -> bool:
    """The definition ``is_structurally_symmetric`` is held to: the
    store equals its own explicit transpose, index for index."""
    t = m.transpose()
    return bool(
        np.array_equal(m.indptr, t.indptr) and np.array_equal(m.indices, t.indices)
    )


def _raw_store(shape, columns):
    """A ``check=False`` store holding each column's rows as given:
    unsorted and repeated rows stay as they are."""
    indptr = np.zeros(shape[1] + 1, dtype=np.int64)
    np.cumsum([len(c) for c in columns], out=indptr[1:])
    indices = np.array([r for c in columns for r in c], dtype=np.int64)
    return CSCMatrix(shape, indptr, indices, np.ones(indices.size), check=False)


@st.composite
def stores(draw):
    """Full, lower-only, upper-only and mixed symmetric stores, stores of
    an arbitrary pattern (non-square among them) and raw stores with
    unsorted or repeated rows; 0x0 and 1x1 included."""
    kind = draw(st.sampled_from(
        ["full", "lower", "upper", "mixed", "pattern", "raw"]
    ))
    n = draw(st.integers(0, 7))
    n_cols = draw(st.integers(0, 7)) if kind in ("pattern", "raw") else n
    if kind == "raw":
        rows = st.lists(st.integers(0, n - 1), max_size=5) if n else st.just([])
        columns = draw(st.lists(rows, min_size=n_cols, max_size=n_cols))
        return _raw_store((n, n_cols), columns)
    if kind == "pattern":
        cells = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n_cols - 1, 0)))
        pairs = draw(st.lists(cells, max_size=20)) if n and n_cols else []
    else:
        cell = st.integers(0, max(n - 1, 0))
        pairs = draw(st.lists(st.tuples(cell, cell), max_size=20)) if n else []
        lo = [(max(i, j), min(i, j)) for i, j in pairs]
        side = draw(st.lists(st.sampled_from(["lower", "upper", "both"]),
                             min_size=len(lo), max_size=len(lo)))
        if kind != "mixed":
            side = [kind if kind != "full" else "both"] * len(lo)
        pairs = [(i, j) for (i, j), s in zip(lo, side) if s != "upper"]
        pairs += [(j, i) for (i, j), s in zip(lo, side) if s != "lower"]
    rows = np.array([i for i, _ in pairs], dtype=np.int64)
    cols = np.array([j for _, j in pairs], dtype=np.int64)
    return CSCMatrix.from_coo(rows, cols, np.ones(rows.size), (n, n_cols))


class TestStructuralSymmetry:
    """``is_structurally_symmetric`` sorts the mirrored keys once; its
    answer is the transpose comparison's on every kind of store."""

    @given(stores())
    # empty, 1x1 with and without its diagonal, non-square
    @example(_raw_store((0, 0), []))
    @example(_raw_store((1, 1), [[]]))
    @example(_raw_store((1, 1), [[0]]))
    @example(_raw_store((2, 3), [[0], [1], []]))
    @example(_raw_store((3, 2), [[0, 1], [0]]))
    # a symmetric pattern whose rows are unsorted or repeated
    @example(_raw_store((2, 2), [[1, 0], [0, 1]]))
    @example(_raw_store((2, 2), [[0, 0], [1]]))
    @example(_raw_store((2, 2), [[0, 1], [0, 0, 1]]))
    def test_agrees_with_the_transpose(self, m):
        assert m.is_structurally_symmetric() is transpose_is_symmetric(m)

    def test_each_kind_of_store(self):
        full = csc_from_dense(dense_ref())
        assert full.is_structurally_symmetric()
        for one_side in (full.lower_triangle(), csc_from_dense(np.triu(dense_ref()))):
            assert not one_side.is_structurally_symmetric()
            assert one_side.symmetrize_from_lower().is_structurally_symmetric()

    def test_full_symmetric_tests_each_matrix_once(self):
        from unittest import mock

        full = csc_from_dense(dense_ref())
        lower = full.lower_triangle()
        with mock.patch.object(
            CSCMatrix, "is_structurally_symmetric", autospec=True,
            side_effect=CSCMatrix.is_structurally_symmetric,
        ) as tested:
            assert full.full_symmetric() is full
            completed = lower.full_symmetric()
            # a verdict held, or a completion's, is not tested again
            assert full.full_symmetric() is full
            assert lower.full_symmetric() is not lower
            assert completed.full_symmetric() is completed
            assert tested.call_count == 2
        assert np.array_equal(completed.to_dense(), full.to_dense())
        # another index array may be another pattern: tested again
        full.indices = full.indices.copy()
        with mock.patch.object(
            CSCMatrix, "is_structurally_symmetric", autospec=True,
            side_effect=CSCMatrix.is_structurally_symmetric,
        ) as tested:
            assert full.full_symmetric() is full
        assert tested.call_count == 1
