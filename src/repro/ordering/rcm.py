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

__all__ = [
    "reverse_cuthill_mckee", "pseudo_peripheral_levels", "bfs_levels",
    "gather_neighbours",
]


#: What a level array holds on a vertex outside the parts being swept:
#: not -1, so no sweep enters it, and not a level, so no degree counts it.
DEAD = -2


def gather_neighbours(indptr: np.ndarray, indices: np.ndarray,
                      vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency lists of ``vertices`` concatenated in order, and the
    position in that concatenation where each vertex's list ends."""
    counts = indptr[vertices + 1] - indptr[vertices]
    ends = np.cumsum(counts)
    offsets = np.repeat(indptr[vertices] - (ends - counts), counts)
    total = int(ends[-1]) if ends.size else 0
    return indices[np.arange(total, dtype=np.int64) + offsets], ends


def bfs_levels(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray,
               level: np.ndarray | None = None) -> np.ndarray:
    """Multi-source BFS level structure.

    Each vertex of ``sources`` gets level 0 and each vertex they reach its
    distance from the nearest one; ``level[v] = -1`` where none reaches.
    Given one source per part of a graph whose parts share no edge, one
    sweep is the BFS of every part from its own source.  A ``level``
    passed in is extended in place, and a sweep enters only the vertices
    where it holds -1: the ones it already labels keep their level, and
    one holding ``DEAD`` is as good as removed from the graph.  So a
    sweep over part of a graph needs no subgraph, only a ``level`` that
    holds ``DEAD`` everywhere else.
    """
    n = indptr.size - 1
    if level is None:
        level = np.full(n, -1, dtype=np.int64)
    degree = np.diff(indptr)
    claim = np.empty(n, dtype=np.int64)
    frontier = np.asarray(sources, dtype=np.int64)
    level[frontier] = 0
    depth = 0
    while frontier.size:
        # vectorized frontier expansion: gather all neighbors of the
        # frontier at once (``gather_neighbours`` inlined, with the
        # degrees taken once per sweep), keep the unvisited ones
        counts = degree[frontier]
        ends = np.cumsum(counts)
        total = int(ends[-1])
        if total == 0:
            break
        at = np.repeat(indptr[frontier] - ends + counts, counts)
        at += np.arange(total, dtype=np.int64)
        nbrs = indices[at]
        nbrs = nbrs[level[nbrs] == -1]
        # deduplicate without a sort: of a vertex's repeated slots, the
        # write that lands in ``claim`` keeps exactly one
        slot = np.arange(nbrs.size, dtype=np.int64)
        claim[nbrs] = slot
        frontier = nbrs[claim[nbrs] == slot]
        depth += 1
        level[frontier] = depth
    return level


def _live_degrees(indptr: np.ndarray, indices: np.ndarray,
                  vertices: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """Each vertex's count of neighbours where ``mark`` is not ``DEAD``."""
    nbrs, ends = gather_neighbours(indptr, indices, vertices)
    live = np.zeros(nbrs.size + 1, dtype=np.int64)
    np.cumsum(mark[nbrs] != DEAD, out=live[1:])
    return np.diff(live[ends], prepend=0)


def pseudo_peripheral_levels(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray,
    starts: np.ndarray, searched: np.ndarray, level: np.ndarray,
    mark: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """George-Liu pseudo-peripheral search in every part of a graph at
    once: repeatedly re-root a part's BFS at a minimum-degree vertex of
    its deepest level (the lowest-numbered one on a tie) until its
    eccentricity estimate stops growing.

    Part ``i`` is the vertices ``nodes[starts[i]:]`` up to the next start
    (the last runs to the end), each part's ascending, and no edge joins
    two parts.  ``mark`` is a level array over the whole graph, the
    sweeps' scratch: it holds ``DEAD`` on every vertex outside the parts
    and anything else on theirs, so an edge to a vertex outside is
    neither followed nor counted in a degree.  ``level``, laid out like
    ``nodes``, is a ``bfs_levels`` sweep from one vertex of each
    ``searched`` part, which every caller has already run to learn what
    that vertex reaches.  Each round re-roots every part still growing in
    one sweep and gathers it back as ``mark[nodes]``.  Returns the level
    structure from each searched part's final root (its one vertex at
    level 0), laid out like ``nodes``, and the depth of each part, -1
    where not searched.
    """
    part = np.repeat(np.arange(starts.size), np.diff(starts, append=nodes.size))
    depth = np.where(searched, np.maximum.reduceat(level, starts), -1)
    growing = searched.copy()
    while growing.any():
        last = np.flatnonzero((level == depth[part]) & growing[part])
        # ``last`` ascends and parts are runs of ``nodes``, so each part's
        # deepest level is one run of it; a degree is taken in the part
        degrees = _live_degrees(indptr, indices, nodes[last], mark)
        new_run = np.diff(part[last], prepend=-1) != 0
        fewest = np.minimum.reduceat(degrees, np.flatnonzero(new_run))
        tied = last[degrees == fewest[np.cumsum(new_run) - 1]]
        pick = tied[np.diff(part[tied], prepend=-1) != 0]
        mark[nodes] = -1
        bfs_levels(indptr, indices, nodes[pick], mark)
        new_level = mark[nodes]
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
            indptr, indices, np.arange(n, dtype=np.int64),
            np.zeros(1, dtype=np.int64), np.ones(1, dtype=bool),
            bfs_levels(indptr, indices, np.array([seed])),
            np.full(n, -1, dtype=np.int64),
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
