"""Canonical cache keys for sparse matrices: pattern tier and values tier.

The serving layer reuses factorizations across requests, so it needs a
stable identity for "same sparsity pattern" (symbolic analysis can be
reused) and "same pattern and same numbers" (the whole numeric factor
can be reused).  Both are content hashes of the *canonical* form of the
matrix — the full symmetric CSC structure the solver itself factors —
so the keys are insensitive to how the caller assembled the matrix:

* triplets in any order, with duplicates split across entries, hash
  equal once :meth:`CSCMatrix.from_coo` has sorted and summed them;
* a lower-triangle store and the equivalent full symmetric store hash
  equal, because both canonicalize to the same full pattern.

Hashes are BLAKE2b over the raw ``indptr``/``indices`` (and, for the
values tier, ``data``) buffers — bitwise on the float64 values, so
``-0.0`` vs ``0.0`` or differently-rounded entries are distinct keys
(a conservative choice: a spurious miss costs a refactorization, a
spurious hit would corrupt results).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.matrices.csc import CSCMatrix

__all__ = ["MatrixKey", "canonicalize", "pattern_key", "values_key", "matrix_key"]


def canonicalize(a: CSCMatrix) -> CSCMatrix:
    """The full symmetric form the solver factors (identity if already so)."""
    return a.full_symmetric()


def _digest(tag: str, *parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(tag.encode())
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(str(p).encode())
        h.update(b"|")
    return h.hexdigest()


def pattern_key(a: CSCMatrix, *, canonical: CSCMatrix | None = None) -> str:
    """Hash of the canonical sparsity pattern (values ignored)."""
    full = canonical if canonical is not None else canonicalize(a)
    return _digest(
        "pattern",
        full.n_rows,
        full.n_cols,
        np.asarray(full.indptr, dtype=np.int64),
        np.asarray(full.indices, dtype=np.int64),
    )


def values_key(a: CSCMatrix, *, canonical: CSCMatrix | None = None) -> str:
    """Hash of the canonical pattern *and* the float64 values."""
    full = canonical if canonical is not None else canonicalize(a)
    return _digest(
        "values",
        full.n_rows,
        full.n_cols,
        np.asarray(full.indptr, dtype=np.int64),
        np.asarray(full.indices, dtype=np.int64),
        np.asarray(full.data, dtype=np.float64),
    )


@dataclass(frozen=True)
class MatrixKey:
    """The two-tier identity of one matrix."""

    pattern: str
    values: str


def matrix_key(a: CSCMatrix) -> tuple[MatrixKey, CSCMatrix]:
    """Compute both keys, canonicalizing once; returns (key, canonical)."""
    full = canonicalize(a)
    return (
        MatrixKey(
            pattern=pattern_key(a, canonical=full),
            values=values_key(a, canonical=full),
        ),
        full,
    )
