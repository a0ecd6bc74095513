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

__all__ = ["reverse_cuthill_mckee", "pseudo_peripheral_levels", "bfs_levels"]


def bfs_levels(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray,
               level: np.ndarray | None = None) -> np.ndarray:
    """Multi-source BFS level structure.

    Each vertex of ``sources`` gets level 0 and each vertex they reach its
    distance from the nearest one; ``level[v] = -1`` where none reaches.
    Given one source per part of a graph whose parts share no edge, one
    sweep is the BFS of every part from its own source.  A ``level``
    passed in is extended in place: the vertices it already labels are
    neither entered nor relabelled.
    """
    n = indptr.size - 1
    if level is None:
        level = np.full(n, -1, dtype=np.int64)
    claim = np.empty(n, dtype=np.int64)
    frontier = np.asarray(sources, dtype=np.int64)
    level[frontier] = 0
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
        nbrs = nbrs[level[nbrs] < 0]
        # deduplicate without a sort: of a vertex's repeated slots, the
        # write that lands in ``claim`` keeps exactly one
        slot = np.arange(nbrs.size, dtype=np.int64)
        claim[nbrs] = slot
        frontier = nbrs[claim[nbrs] == slot]
        depth += 1
        level[frontier] = depth
    return level


def pseudo_peripheral_levels(
    indptr: np.ndarray, indices: np.ndarray, starts: np.ndarray,
    searched: np.ndarray, level: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """George-Liu pseudo-peripheral search in every part of a graph at
    once: repeatedly re-root a part's BFS at a minimum-degree vertex of
    its deepest level (the lowest-numbered one on a tie) until its
    eccentricity estimate stops growing.

    Part ``i`` is the vertex range ``starts[i]`` up to the next start (the
    last runs to the end), and no edge leaves a part.  ``level`` is a
    ``bfs_levels`` sweep from one vertex of each ``searched`` part, which
    every caller has already run to learn what that vertex reaches.  Each
    round re-roots every part still growing in one sweep.  Returns the
    level structure from each searched part's final root (its one vertex
    at level 0) and the depth of each part, -1 where not searched.
    """
    degrees = np.diff(indptr)
    part = np.repeat(np.arange(starts.size), np.diff(starts, append=degrees.size))
    depth = np.where(searched, np.maximum.reduceat(level, starts), -1)
    growing = searched.copy()
    while growing.any():
        last = np.flatnonzero((level == depth[part]) & growing[part])
        # ``last`` ascends and parts are vertex ranges, so each part's
        # deepest level is one run of it
        new_run = np.diff(part[last], prepend=-1) != 0
        fewest = np.minimum.reduceat(degrees[last], np.flatnonzero(new_run))
        tied = last[degrees[last] == fewest[np.cumsum(new_run) - 1]]
        pick = tied[np.diff(part[tied], prepend=-1) != 0]
        new_level = bfs_levels(indptr, indices, pick)
        new_depth = np.maximum.reduceat(new_level, starts)
        growing &= new_depth > depth
        level = np.where(growing[part], new_level, level)
        depth = np.where(growing, new_depth, depth)
    return level, depth


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
        # one part, the whole graph: what ``seed`` does not reach stays -1
        level, _ = pseudo_peripheral_levels(
            indptr, indices, np.zeros(1, dtype=np.int64), np.ones(1, dtype=bool),
            bfs_levels(indptr, indices, np.array([seed])),
        )
        root = int(np.flatnonzero(level == 0)[0])
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
