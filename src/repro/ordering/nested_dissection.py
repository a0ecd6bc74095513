"""Nested dissection via BFS level-set separators, one dissection level
at a time.

Nested dissection orders a graph by finding a small vertex separator,
ordering the two halves, and numbering the separator last.  For the
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

The parts of one dissection level are vertex-disjoint, and no edge joins
two of them: two halves are separated by a whole BFS level, components
and a split part's rest are unions of connected components, and what
descends from a part no edge leaves has no edge leaving it either.  So
the level needs no subgraph.  Its sweeps run on the matrix's own
adjacency over one level array that holds -1 on the level's vertices
and ``DEAD`` on every other one (a separator, a finished leaf): a BFS
enters only -1, so it never crosses into another part or through a
removed vertex.  Each BFS round (the connectivity probe, a
pseudo-peripheral round) is one multi-source sweep with a source per
part, gathered back into the parts' contiguous layout as
``level[nodes]``.  A split part hands the component its probe reached
to the next level and its rest with it, where the next probe reaches
the rest's first component; only a level where no part searches for a
root labels every component of its split parts in rounds of its own.
Each part still decides alone — its depth, its separator, its children
— and records them in a task tree; flattening that tree depth-first
gives the order the one-subgraph-at-a-time recursion produced: halves
before their separator, components in ascending order of their
smallest vertex.

Only the leaves (and the parts the separator fails to split) get a
local graph of their own, built in one gather per level, since minimum
degree needs one.  Minimum degree runs once per distinct leaf graph of
a call: leaves are keyed by a 16-byte BLAKE2b digest of their local
``(indptr, indices)``,
and congruent leaves — common on structured meshes — reuse the order.
The memo lives for one ``nested_dissection`` call only.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.matrices.csc import CSCMatrix
from repro.ordering.amd import minimum_degree_graph
from repro.ordering.rcm import (
    DEAD, bfs_levels, gather_neighbours, pseudo_peripheral_levels,
)

__all__ = ["nested_dissection"]


def _leaf_graphs(indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray,
                 local_id: np.ndarray, mark: np.ndarray, local: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The induced graphs of some of a level's parts as one graph:
    ``nodes`` are their vertices, part after part, and ``local_id[i]``
    the position of ``nodes[i]`` in its own part, the number each
    neighbour list gives it.

    Every vertex of the level holds something other than ``DEAD`` in
    ``mark``, and no edge joins two parts of it, so a neighbour is kept
    when it is alive.  ``local`` is scratch over the whole graph.  Each
    row keeps its neighbours in adjacency order.
    """
    local[nodes] = local_id
    nbrs, ends = gather_neighbours(indptr, indices, nodes)
    keep = mark[nbrs] != DEAD
    kept = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    return kept[np.append(0, ends)], local[nbrs[keep]]


def _component_rounds(indptr: np.ndarray, indices: np.ndarray,
                      nodes: np.ndarray, starts: np.ndarray, split: np.ndarray,
                      level: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """The round that labelled each vertex of a ``split`` part.

    ``level`` is the connectivity probe (round 0), laid out like
    ``nodes``; ``mark`` holds it on ``nodes`` and is extended in place.
    Each further round is one sweep seeded at the smallest unlabelled
    vertex of every split part with one left, so a part's components in
    round order ascend by their smallest vertex.
    """
    rounds = np.where(level >= 0, 0, -1)
    todo = np.flatnonzero(level < 0)
    todo = todo[split[np.searchsorted(starts, todo, side="right") - 1]]
    r = 0
    while todo.size:
        r += 1
        # the first unlabelled vertex at or after each split part's start;
        # a part with none left points at the next part's, or past the end
        first = np.searchsorted(todo, starts[split])
        first = first[(np.diff(first, prepend=-1) > 0) & (first < todo.size)]
        bfs_levels(indptr, indices, nodes[todo[first]], mark)
        reached = mark[nodes[todo]] >= 0
        rounds[todo[reached]] = r
        todo = todo[~reached]
    return rounds


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
    # plain ints: the scans below index them one level at a time
    counts = np.bincount(level, minlength=depth + 1)
    below = np.cumsum(counts).tolist()
    counts = counts.tolist()
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


def _dissect_level(indptr: np.ndarray, indices: np.ndarray,
                   parts: list[tuple[int, np.ndarray, bool]], tasks: list[list],
                   mark: np.ndarray, local: np.ndarray, leaf_size: int,
                   leaf_orders: dict[bytes, np.ndarray]
                   ) -> list[tuple[int, np.ndarray, bool]]:
    """Dissect every part of one level, recording each part's children
    and separator under its task; return the next level's parts.

    ``parts`` is ``[(task, nodes, rest)]`` with each ``nodes`` ascending
    and non-empty, the parts vertex-disjoint and no edge between two of
    them.  ``rest`` marks what is left of a split part once its first
    components are queued: its components are split off before the leaf
    rule applies to any of them.  ``mark`` holds ``DEAD`` on every
    vertex of the graph and is left so; ``local`` is scratch.
    ``leaf_orders`` maps the digest of a minimum-degree leaf's local
    ``(indptr, indices)`` to its order, so congruent leaves are ordered
    once.
    """
    sizes = np.array([nodes.size for _, nodes, _ in parts], dtype=np.int64)
    starts = np.zeros(sizes.size, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    nodes = np.concatenate([nodes for _, nodes, _ in parts])
    task_ids = [t for t, _, _ in parts]
    rest = np.array([r for _, _, r in parts], dtype=bool)
    mark[nodes] = -1

    leaf = (sizes <= leaf_size) & ~rest
    level = np.full(nodes.size, -1, dtype=np.int64)
    if not leaf.all():
        # the connectivity probe: one sweep from every part's first vertex
        bfs_levels(indptr, indices, nodes[starts[~leaf]], mark)
        level = mark[nodes]
    split = ~leaf & (np.minimum.reduceat(level, starts) < 0)
    # a connected rest is its split part's last component
    leaf |= ~split & (sizes <= leaf_size)
    searching = ~leaf & ~split
    if split.any() and not searching.any():
        # no part searches for a root, so no other round would run:
        # label every component now
        rounds = _component_rounds(indptr, indices, nodes, starts, split,
                                   level, mark)
    else:
        # the probe found each split part's first component; the rest
        # waits for the next level's probe instead of a round of its own
        rounds = np.where(level >= 0, 0, -1)
    # the probe doubles as the first BFS of the pseudo-peripheral search
    level, depth = pseudo_peripheral_levels(
        indptr, indices, nodes, starts, searching, level, mark
    )

    next_parts: list[tuple[int, np.ndarray, bool]] = []

    def child(t: int, child_nodes: np.ndarray, is_rest: bool = False) -> None:
        tasks[t].append(len(tasks))
        next_parts.append((len(tasks), child_nodes, is_rest))
        tasks.append([])

    # a leaf, or a part the separator heuristic failed to split
    ordered: list[int] = []
    bounds = np.append(starts, nodes.size).tolist()
    for i, t in enumerate(task_ids):
        s, e = bounds[i], bounds[i + 1]
        part_nodes = nodes[s:e]
        if split[i]:
            r = rounds[s:e]
            done = r >= 0
            by_round = np.argsort(r[done], kind="stable")
            cuts = np.cumsum(np.bincount(r[done]))[:-1]
            for comp in np.split(part_nodes[done][by_round], cuts):
                child(t, comp)
            if not done.all():
                child(t, part_nodes[~done], True)
            continue
        if searching[i]:
            part_a, part_b, sep = _find_separator(level[s:e], int(depth[i]))
            if sep.size < e - s and part_a.size and part_b.size:
                child(t, part_nodes[part_a])
                child(t, part_nodes[part_b])
                tasks[t].append(part_nodes[sep])
                continue
        ordered.append(i)

    if ordered:
        # minimum degree on each such part's own graph, once per distinct
        # graph; a part's task takes nothing but its order, so it can
        # wait for the one gather that builds them all
        at = np.zeros(len(ordered) + 1, dtype=np.int64)
        np.cumsum(sizes[ordered], out=at[1:])
        own = np.repeat(np.arange(len(ordered)), sizes[ordered])
        pos = np.arange(at[-1], dtype=np.int64) - at[own]
        g_indptr, g_indices = _leaf_graphs(
            indptr, indices, nodes[starts[ordered][own] + pos], pos, mark, local
        )
        at = at.tolist()
        for j, i in enumerate(ordered):
            lo, hi = g_indptr[at[j]], g_indptr[at[j + 1]]
            leaf_indptr = g_indptr[at[j]:at[j + 1] + 1] - lo
            leaf_indices = g_indices[lo:hi]
            h = hashlib.blake2b(leaf_indptr.tobytes(), digest_size=16)
            h.update(leaf_indices.tobytes())
            key = h.digest()
            order = leaf_orders.get(key)
            if order is None:
                order = leaf_orders[key] = minimum_degree_graph(
                    leaf_indptr, leaf_indices
                )
            tasks[task_ids[i]].append(nodes[bounds[i]:bounds[i + 1]][order])
    mark[nodes] = DEAD
    return next_parts


def nested_dissection(a: CSCMatrix, *, leaf_size: int = 64) -> np.ndarray:
    """Nested dissection permutation (new-to-old) of ``a``'s symmetric
    pattern.  Subgraphs of at most ``leaf_size`` vertices are ordered with
    minimum degree."""
    indptr, indices = a.adjacency()
    n = indptr.size - 1
    # tasks[t]: what part t contributes to the order, in elimination
    # order -- the task ids of its child parts, then vertex arrays
    tasks: list[list] = [[]]
    parts = [(0, np.arange(n, dtype=np.int64), False)] if n else []
    mark = np.full(n, DEAD, dtype=np.int64)
    local = np.empty(n, dtype=np.int64)
    # lives for this call only, so every call orders its own leaves
    leaf_orders: dict[bytes, np.ndarray] = {}
    while parts:
        parts = _dissect_level(indptr, indices, parts, tasks, mark, local,
                               leaf_size, leaf_orders)
    # seeded with an empty slice so an empty graph still concatenates
    out: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    stack: list = [0]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            out.append(item)
        else:
            stack.extend(reversed(tasks[item]))
    perm = np.concatenate(out)
    if perm.size != n or not np.all(np.bincount(perm, minlength=n) == 1):
        raise AssertionError("nested dissection produced an invalid permutation")
    return perm
