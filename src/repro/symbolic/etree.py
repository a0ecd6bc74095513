"""Elimination tree construction and traversal.

The elimination tree of an SPD matrix A (Liu 1986) has
``parent(j) = min{ i > j : L[i, j] != 0 }``; it encodes every column
dependency of the Cholesky factor and is the task graph the multifrontal
method walks.  We build it with Liu's union-find algorithm with path
compression, O(nnz * alpha(n)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matrices.csc import CSCMatrix

__all__ = [
    "EliminationTree",
    "elimination_tree",
    "liu_parents",
    "postorder",
    "postordered",
]

#: Sentinel parent of a tree root.
NO_PARENT = -1


@dataclass(frozen=True)
class EliminationTree:
    """Elimination tree plus derived traversal data.

    Attributes
    ----------
    parent : int64 array
        ``parent[j]`` is the etree parent of column ``j``; ``-1`` for roots.
    post : int64 array
        A postorder of the tree: ``post[t]`` is the t-th column eliminated.
        Children always precede parents.
    first_child / next_sibling : int64 arrays
        Child lists in linked form (both ``-1``-terminated), ordered so
        that traversing siblings yields increasing column numbers.
    """

    parent: np.ndarray
    post: np.ndarray
    first_child: np.ndarray
    next_sibling: np.ndarray

    @property
    def n(self) -> int:
        return int(self.parent.size)

    def roots(self) -> np.ndarray:
        return np.flatnonzero(self.parent == NO_PARENT)

    def children(self, j: int) -> list[int]:
        out = []
        c = int(self.first_child[j])
        while c != NO_PARENT:
            out.append(c)
            c = int(self.next_sibling[c])
        return out

    def depths(self) -> np.ndarray:
        """Depth of every node (roots have depth 0); vectorizable because
        parents always have larger indices than children."""
        depth = np.zeros(self.n, dtype=np.int64)
        for j in range(self.n - 1, -1, -1):
            p = self.parent[j]
            if p != NO_PARENT:
                depth[j] = depth[p] + 1
        return depth

    def subtree_sizes(self) -> np.ndarray:
        size = np.ones(self.n, dtype=np.int64)
        for j in range(self.n):
            p = self.parent[j]
            if p != NO_PARENT:
                size[p] += size[j]
        return size


def liu_parents(n: int, indptr: list[int], upper: list[int]) -> np.ndarray:
    """Liu's algorithm: process columns left to right; for each nonzero
    A[i, j] with i < j, climb the compressed ancestor chain from i and
    graft the top onto j.

    ``upper[indptr[j]:indptr[j + 1]]`` lists the rows ``i < j`` of column
    ``j`` (strictly-upper entries only, any order) as plain Python lists:
    the loop touches every entry once, and list indexing is several
    times cheaper than numpy scalar indexing.
    """
    parent = [NO_PARENT] * n
    ancestor = [NO_PARENT] * n
    for j in range(n):
        for r in upper[indptr[j]:indptr[j + 1]]:
            # climb from r to the current root of its tree, compressing
            while True:
                nxt = ancestor[r]
                if nxt == j:
                    break
                ancestor[r] = j
                if nxt == NO_PARENT:
                    parent[r] = j
                    break
                r = nxt
    return np.array(parent, dtype=np.int64)


def postorder(parent: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Postorder a forest given parent pointers.

    Returns ``(post, first_child, next_sibling)``.  Sibling lists are built
    in decreasing column order so the DFS visits children in increasing
    order, giving the canonical postorder used by supernode detection.
    The walk runs on Python lists, converted to arrays once at the end.
    """
    n = parent.size
    par = parent.tolist()
    first_child = [NO_PARENT] * n
    next_sibling = [NO_PARENT] * n
    for j in range(n - 1, -1, -1):
        p = par[j]
        if p != NO_PARENT:
            next_sibling[j] = first_child[p]
            first_child[p] = j
    # iterative DFS: ``head[v]`` is the next child of v to descend into,
    # and a node is emitted once it has none left
    head = first_child.copy()
    post: list[int] = []
    for root in range(n):
        if par[root] != NO_PARENT:
            continue
        stack = [root]
        while stack:
            node = stack[-1]
            c = head[node]
            if c == NO_PARENT:
                post.append(stack.pop())
            else:
                head[node] = next_sibling[c]
                stack.append(c)
    if len(post) != n:
        raise ValueError("parent array does not describe a forest")
    return (np.array(post, dtype=np.int64), np.array(first_child, dtype=np.int64),
            np.array(next_sibling, dtype=np.int64))


def postordered(parent: np.ndarray) -> tuple[EliminationTree, np.ndarray]:
    """Relabel a forest by its own postorder.

    Returns ``(tree, post)``: node ``post[t]`` of the input is node ``t``
    of ``tree``.  A postorder relabelling of an elimination tree *is* the
    elimination tree of the matrix relabelled the same way, and it keeps
    siblings in their order, so ``tree`` equals what ``elimination_tree``
    would build from the permuted matrix (with ``tree.post`` the
    identity) without a second pass over the entries.
    """
    post, first_child, next_sibling = postorder(parent)
    n = parent.size
    new_label = np.empty(n, dtype=np.int64)
    new_label[post] = np.arange(n, dtype=np.int64)

    def relabel(links: np.ndarray) -> np.ndarray:
        moved = links[post]
        return np.where(moved == NO_PARENT, NO_PARENT, new_label[moved])

    tree = EliminationTree(
        relabel(parent),
        np.arange(n, dtype=np.int64),
        relabel(first_child),
        relabel(next_sibling),
    )
    return tree, post


def elimination_tree(a: CSCMatrix) -> EliminationTree:
    """Build the elimination tree of the symmetric pattern of ``a``.

    ``a`` may store the full symmetric matrix or only its lower triangle;
    Liu's algorithm only reads entries above the diagonal, so we feed it
    the upper-triangle view (transpose of the lower storage).
    """
    if a.n_rows != a.n_cols:
        raise ValueError("elimination tree requires a square matrix")
    full = a.full_symmetric()
    col_of_entry = np.repeat(
        np.arange(full.n_cols, dtype=np.int64), np.diff(full.indptr)
    )
    above = full.indices < col_of_entry
    indptr = np.zeros(full.n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(col_of_entry[above], minlength=full.n_cols),
              out=indptr[1:])
    parent = liu_parents(
        full.n_cols, indptr.tolist(), full.indices[above].tolist()
    )
    post, first_child, next_sibling = postorder(parent)
    return EliminationTree(parent, post, first_child, next_sibling)
