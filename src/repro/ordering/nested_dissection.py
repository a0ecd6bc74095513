"""Recursive nested dissection via BFS level-set separators.

Nested dissection orders a graph by finding a small vertex separator,
recursing on the two halves, and numbering the separator last.  For the
3-D grid problems in the test suite this produces the elimination trees
the paper's analysis depends on: a few very large supernodes near the
root (the separators, side ~ n^(2/3) vertices for 3-D) carrying most of
the flops, and a long tail of small leaf supernodes.

The separator heuristic is the classical level-structure method (George &
Liu): run a BFS from a pseudo-peripheral vertex, pick the level whose
removal best balances the halves weighted by separator size, and take
that whole level as the separator.  Small subgraphs fall back to the
minimum-degree ordering, mirroring production ND codes (METIS switches to
MMD at the bottom of the recursion).
"""

from __future__ import annotations

import numpy as np

from repro.matrices.csc import CSCMatrix
from repro.ordering.amd import minimum_degree_graph
from repro.ordering.rcm import bfs_levels, pseudo_peripheral_node

__all__ = ["nested_dissection"]


def _gather_neighbors(indptr: np.ndarray, indices: np.ndarray,
                      nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized gather of the concatenated adjacency lists of ``nodes``.

    Returns ``(src, nbrs)`` where ``src[i]`` is the position of the source
    node within ``nodes`` for neighbor ``nbrs[i]``; entries stay grouped by
    source node in order.
    """
    counts = indptr[nodes + 1] - indptr[nodes]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # positions: for each node, a run indptr[v] .. indptr[v+1]-1
    run_starts = np.zeros(nodes.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=run_starts[1:])
    offsets = np.repeat(indptr[nodes] - run_starts, counts)
    pos = np.arange(total, dtype=np.int64) + offsets
    src = np.repeat(np.arange(nodes.size, dtype=np.int64), counts)
    return src, indices[pos]


def _subgraph(indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray):
    """Induced subgraph on ``nodes`` with relabeled vertices 0..len-1."""
    n_sub = nodes.size
    local = -np.ones(indptr.size - 1, dtype=np.int64)
    local[nodes] = np.arange(n_sub, dtype=np.int64)
    src, nbrs = _gather_neighbors(indptr, indices, nodes)
    local_nbrs = local[nbrs]
    keep = local_nbrs >= 0
    src = src[keep]
    local_nbrs = local_nbrs[keep]
    sub_indptr = np.zeros(n_sub + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n_sub), out=sub_indptr[1:])
    return sub_indptr, local_nbrs


def _find_separator(
    level: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a *connected* graph into (part_a, part_b, separator), given
    the level structure rooted at a pseudo-peripheral vertex."""
    n = level.size
    if depth < 2:
        # graph too shallow to split: everything becomes separator
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.arange(n, dtype=np.int64),
        )
    counts = np.bincount(level, minlength=depth + 1)
    below = np.cumsum(counts)
    # candidate separator levels: require a reasonably balanced split
    # (each side at least a quarter of the remainder), then take the
    # smallest level.  Without the balance constraint the heuristic peels
    # tiny lopsided levels, which destroys the large root separators that
    # give 3-D problems their big frontal matrices.
    best_l, best_score = -1, np.inf
    for l in range(1, depth):
        a = below[l - 1]
        b = n - below[l]
        sep = counts[l]
        if a == 0 or b == 0:
            continue
        if min(a, b) < (n - sep) / 4:
            continue
        if sep < best_score:
            best_score, best_l = sep, l
    if best_l < 0:
        # no balanced level exists (thin/path-like graph): fall back to a
        # small-separator score with an imbalance penalty
        for l in range(1, depth):
            a = below[l - 1]
            b = n - below[l]
            sep = counts[l]
            if a == 0 or b == 0:
                continue
            imbalance = max(a, b) / max(1, min(a, b))
            score = sep * (1.0 + 0.1 * imbalance)
            if score < best_score:
                best_score, best_l = score, l
    if best_l < 0:
        best_l = 1
    part_a = np.flatnonzero(level < best_l)
    part_b = np.flatnonzero(level > best_l)
    separator = np.flatnonzero(level == best_l)
    return part_a, part_b, separator


def _components(indptr, indices) -> list[np.ndarray]:
    """Connected components via vectorized BFS sweeps."""
    n = indptr.size - 1
    label = np.full(n, -1, dtype=np.int64)
    comps = []
    for seed in range(n):
        if label[seed] >= 0:
            continue
        cid = len(comps)
        label[seed] = cid
        frontier = np.array([seed], dtype=np.int64)
        while frontier.size:
            _, nbrs = _gather_neighbors(indptr, indices, frontier)
            frontier = np.unique(nbrs[label[nbrs] < 0])
            label[frontier] = cid
        comps.append(np.flatnonzero(label == cid))
    return comps


def _nd_recurse(indptr, indices, nodes: np.ndarray, out: list[np.ndarray],
                leaf_size: int) -> None:
    """Append the ND ordering of the induced subgraph on ``nodes`` to
    ``out`` (in elimination order: halves first, separator last)."""
    if nodes.size == 0:
        return
    sub_indptr, sub_indices = _subgraph(indptr, indices, nodes)
    if nodes.size <= leaf_size:
        # base case: minimum degree on the leaf subgraph
        out.append(nodes[minimum_degree_graph(sub_indptr, sub_indices)])
        return
    # the BFS that starts the pseudo-peripheral search also says whether
    # the subgraph is connected
    level, depth = bfs_levels(sub_indptr, sub_indices, 0)
    if level.min() < 0:
        for comp in _components(sub_indptr, sub_indices):
            _nd_recurse(indptr, indices, nodes[comp], out, leaf_size)
        return
    _, level, depth = pseudo_peripheral_node(
        sub_indptr, sub_indices, 0, level, depth
    )
    part_a, part_b, sep = _find_separator(level, depth)
    if sep.size == nodes.size or part_a.size == 0 or part_b.size == 0:
        # separator heuristic failed to split; fall back to minimum degree
        out.append(nodes[minimum_degree_graph(sub_indptr, sub_indices)])
        return
    _nd_recurse(indptr, indices, nodes[part_a], out, leaf_size)
    _nd_recurse(indptr, indices, nodes[part_b], out, leaf_size)
    out.append(nodes[sep])


def nested_dissection(a: CSCMatrix, *, leaf_size: int = 64) -> np.ndarray:
    """Nested dissection permutation (new-to-old) of ``a``'s symmetric
    pattern.  Subgraphs of at most ``leaf_size`` vertices are ordered with
    minimum degree."""
    indptr, indices = a.adjacency()
    n = indptr.size - 1
    # seeded with an empty slice so an empty graph still concatenates
    out: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    _nd_recurse(indptr, indices, np.arange(n, dtype=np.int64), out, leaf_size)
    perm = np.concatenate(out)
    if perm.size != n or np.unique(perm).size != n:
        raise AssertionError("nested dissection produced an invalid permutation")
    return perm
