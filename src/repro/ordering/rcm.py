"""Reverse Cuthill-McKee ordering.

RCM reduces matrix bandwidth by a breadth-first traversal from a
pseudo-peripheral vertex, visiting neighbors in increasing-degree order,
and reversing the resulting sequence.  It is included as the contrast
ordering: RCM produces long, thin frontal matrices (large m, small k),
while nested dissection produces the large square root fronts that the
GPU policies feed on.
"""

from __future__ import annotations

import numpy as np

from repro.matrices.csc import CSCMatrix

__all__ = ["reverse_cuthill_mckee", "pseudo_peripheral_node", "bfs_levels"]


def bfs_levels(indptr: np.ndarray, indices: np.ndarray,
               start: int) -> tuple[np.ndarray, int]:
    """Level structure of the BFS tree rooted at ``start``.

    Returns ``(level, depth)`` where ``level[v] = -1`` for vertices
    ``start`` does not reach.
    """
    n = indptr.size - 1
    level = np.full(n, -1, dtype=np.int64)
    level[start] = 0
    frontier = np.array([start], dtype=np.int64)
    depth = 0
    while frontier.size:
        # vectorized frontier expansion: gather all neighbors of the
        # frontier at once, keep the unvisited ones
        counts = indptr[frontier + 1] - indptr[frontier]
        total = int(counts.sum())
        if total == 0:
            break
        run_starts = np.zeros(frontier.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=run_starts[1:])
        offsets = np.repeat(indptr[frontier] - run_starts, counts)
        nbrs = indices[np.arange(total, dtype=np.int64) + offsets]
        nxt = np.unique(nbrs[level[nbrs] < 0])
        if nxt.size == 0:
            break
        level[nxt] = depth + 1
        frontier = nxt
        depth += 1
    return level, depth


def pseudo_peripheral_node(
    indptr: np.ndarray, indices: np.ndarray, start: int,
    level: np.ndarray, depth: int,
) -> tuple[int, np.ndarray, int]:
    """George-Liu pseudo-peripheral vertex: repeatedly re-root the BFS at a
    minimum-degree vertex of the deepest level until the eccentricity
    estimate stops growing.

    ``(level, depth)`` is ``bfs_levels`` from ``start``, which every
    caller has already run to learn what ``start`` reaches.  Returns the
    chosen root with its own level structure and depth.
    """
    degrees = np.diff(indptr)
    node = start
    while True:
        last = np.flatnonzero(level == depth)
        if last.size == 0:
            return node, level, depth
        candidate = last[np.argmin(degrees[last])]
        new_level, new_depth = bfs_levels(indptr, indices, int(candidate))
        if new_depth <= depth:
            return node, level, depth
        node, level, depth = int(candidate), new_level, new_depth


def reverse_cuthill_mckee(a: CSCMatrix) -> np.ndarray:
    """Compute the RCM permutation (new-to-old) of the symmetric pattern
    of ``a``.  Handles disconnected graphs by processing each connected
    component from its own pseudo-peripheral root."""
    indptr, indices = a.adjacency()
    n = indptr.size - 1
    degrees = np.diff(indptr)
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    for seed in range(n):
        if visited[seed]:
            continue
        level, depth = bfs_levels(indptr, indices, seed)
        root, _, _ = pseudo_peripheral_node(indptr, indices, seed, level, depth)
        # Cuthill-McKee BFS from root with degree-sorted neighbor visits
        queue = [root]
        visited[root] = True
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            order[pos] = v
            pos += 1
            nbrs = indices[indptr[v]:indptr[v + 1]]
            nbrs = nbrs[~visited[nbrs]]
            if nbrs.size:
                nbrs = nbrs[np.argsort(degrees[nbrs], kind="stable")]
                visited[nbrs] = True
                queue.extend(int(u) for u in nbrs)
    if pos != n:
        raise AssertionError("RCM failed to visit every vertex")
    return order[::-1].copy()
