"""One-subgraph-at-a-time nested dissection: the oracle.

:func:`repro.ordering.nested_dissection` dissects a whole level of parts
at once — one block-diagonal induced subgraph per level, one multi-source
BFS sweep per round — and flattens a task tree at the end.  This is the
recursion it replaced, kept as the definition that permutation is held
against in ``tests/test_ordering.py``: build the induced subgraph of one
part, probe its connectivity with a BFS from its first vertex, recurse
on each component (in ascending order of its smallest vertex) if it is
split, otherwise search for a pseudo-peripheral root, cut the separator
and recurse on the two halves before numbering the separator.

The BFS here is the single-source one with a sorted (``np.unique``)
frontier, and the leaves are ordered one by one with
:func:`reference_minimum_degree`, the minimum-degree kernel that keeps
no element weights and keys supervariables on sorted tuples; so the
oracle shares only ``_find_separator`` with the code under test.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.matrices.csc import CSCMatrix
from repro.ordering.nested_dissection import _find_separator


def _gather_neighbors(indptr, indices, nodes):
    """``(src, nbrs)``: the concatenated adjacency lists of ``nodes``,
    ``src[i]`` the position in ``nodes`` of the vertex ``nbrs[i]`` hangs
    off, grouped by source in order."""
    counts = indptr[nodes + 1] - indptr[nodes]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    run_starts = np.zeros(nodes.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=run_starts[1:])
    offsets = np.repeat(indptr[nodes] - run_starts, counts)
    pos = np.arange(total, dtype=np.int64) + offsets
    src = np.repeat(np.arange(nodes.size, dtype=np.int64), counts)
    return src, indices[pos]


def _subgraph(indptr, indices, nodes):
    """Induced subgraph on ``nodes`` with relabeled vertices 0..len-1."""
    n_sub = nodes.size
    local = -np.ones(indptr.size - 1, dtype=np.int64)
    local[nodes] = np.arange(n_sub, dtype=np.int64)
    src, nbrs = _gather_neighbors(indptr, indices, nodes)
    local_nbrs = local[nbrs]
    keep = local_nbrs >= 0
    sub_indptr = np.zeros(n_sub + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[keep], minlength=n_sub), out=sub_indptr[1:])
    return sub_indptr, local_nbrs[keep]


def _bfs_levels(indptr, indices, start):
    """``(level, depth)`` of the BFS from ``start``; -1 where unreached."""
    level = np.full(indptr.size - 1, -1, dtype=np.int64)
    level[start] = 0
    frontier = np.array([start], dtype=np.int64)
    depth = 0
    while frontier.size:
        _, nbrs = _gather_neighbors(indptr, indices, frontier)
        nxt = np.unique(nbrs[level[nbrs] < 0])
        if nxt.size == 0:
            break
        depth += 1
        level[nxt] = depth
        frontier = nxt
    return level, depth


def _pseudo_peripheral_levels(indptr, indices, level, depth):
    """Re-root at a minimum-degree vertex of the deepest level until the
    depth stops growing; the final ``(level, depth)``."""
    degrees = np.diff(indptr)
    while True:
        last = np.flatnonzero(level == depth)
        candidate = last[np.argmin(degrees[last])]
        new_level, new_depth = _bfs_levels(indptr, indices, int(candidate))
        if new_depth <= depth:
            return level, depth
        level, depth = new_level, new_depth


def _components(indptr, indices):
    """Connected components, each ascending, in order of smallest vertex."""
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


def _nd_recurse(indptr, indices, nodes, out, leaf_size):
    """Append the ND ordering of the induced subgraph on ``nodes`` to
    ``out`` (in elimination order: halves first, separator last)."""
    if nodes.size == 0:
        return
    sub_indptr, sub_indices = _subgraph(indptr, indices, nodes)
    if nodes.size <= leaf_size:
        out.append(nodes[reference_minimum_degree(sub_indptr, sub_indices)])
        return
    level, depth = _bfs_levels(sub_indptr, sub_indices, 0)
    if level.min() < 0:
        for comp in _components(sub_indptr, sub_indices):
            _nd_recurse(indptr, indices, nodes[comp], out, leaf_size)
        return
    level, depth = _pseudo_peripheral_levels(sub_indptr, sub_indices, level, depth)
    part_a, part_b, sep = _find_separator(level, depth)
    if sep.size == nodes.size or part_a.size == 0 or part_b.size == 0:
        out.append(nodes[reference_minimum_degree(sub_indptr, sub_indices)])
        return
    _nd_recurse(indptr, indices, nodes[part_a], out, leaf_size)
    _nd_recurse(indptr, indices, nodes[part_b], out, leaf_size)
    out.append(nodes[sep])


def recursive_nested_dissection(a: CSCMatrix, leaf_size: int = 64) -> np.ndarray:
    """The permutation ``nested_dissection(a, leaf_size=leaf_size)`` must
    reproduce bit for bit."""
    indptr, indices = a.adjacency()
    out = [np.empty(0, dtype=np.int64)]
    _nd_recurse(indptr, indices, np.arange(indptr.size - 1, dtype=np.int64),
                out, leaf_size)
    return np.concatenate(out)


def reference_minimum_degree(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Minimum-degree permutation of an undirected graph given as
    adjacency lists ``(indptr, indices)`` without self-loops: the
    kernel as it re-summed every adjacent element's members at each
    pivot, which :func:`repro.ordering.amd.minimum_degree_graph` must
    reproduce bit for bit."""
    n = indptr.size - 1
    if n == 0:
        return np.empty(0, dtype=np.int64)

    # plain lists and ints throughout: the loops below index one scalar
    # at a time, which numpy arrays make several times dearer
    ptr, nbrs = indptr.tolist(), indices.tolist()
    adj_v: list[set[int]] = [set(nbrs[ptr[v]:ptr[v + 1]]) for v in range(n)]
    adj_e: list[set[int]] = [set() for _ in range(n)]
    elem_members: dict[int, set[int]] = {}
    weight = [1] * n                          # originals merged into each supervar
    merged: list[list[int]] = [[v] for v in range(n)]
    alive = [True] * n
    degree = [len(s) for s in adj_v]

    heap: list[tuple[int, int]] = [(degree[v], v) for v in range(n)]
    heapq.heapify(heap)

    order: list[int] = []
    n_eliminated = 0

    while n_eliminated < n:
        # pop the minimum-degree live supervariable (lazy deletion)
        while True:
            d, p = heapq.heappop(heap)
            if alive[p] and d == degree[p]:
                break

        # ---- form L_p: variable neighbors plus members of adjacent elements
        lp: set[int] = {v for v in adj_v[p] if alive[v]}
        for e in adj_e[p]:
            lp.update(v for v in elem_members[e] if alive[v])
        lp.discard(p)

        # ---- eliminate p (and everything merged into it)
        order.extend(merged[p])
        n_eliminated += weight[p]
        alive[p] = False
        absorbed = adj_e[p]
        for e in absorbed:
            del elem_members[e]
        adj_v[p] = set()
        adj_e[p] = set()
        elem_members[p] = set(lp)

        if not lp:
            continue

        # ---- per-element external weights w(L_e \ L_p), one pass (AMD bound)
        extern_w: dict[int, int] = {}
        for v in lp:
            for e in adj_e[v]:
                if e not in extern_w and e != p and e in elem_members:
                    extern_w[e] = sum(
                        weight[u] for u in elem_members[e] if alive[u] and u not in lp
                    )

        w_lp = sum(weight[v] for v in lp)

        # ---- update each variable in L_p
        for v in lp:
            av = adj_v[v]
            av.discard(p)
            av.difference_update(lp)          # covered by the new element
            av = {u for u in av if alive[u]}
            adj_v[v] = av
            ev = {e for e in adj_e[v] if e in elem_members and e != p}
            ev.add(p)                          # the new element is named p
            adj_e[v] = ev
            d = sum(weight[u] for u in av)
            d += w_lp - weight[v]
            d += sum(extern_w.get(e, 0) for e in ev if e != p)
            degree[v] = max(1, d) if (av or len(ev) > 1 or w_lp > weight[v]) else 0
            heapq.heappush(heap, (degree[v], v))

        # ---- supervariable detection: merge indistinguishable members of L_p
        signature: dict[tuple, int] = {}
        for v in sorted(lp):
            if not alive[v]:
                continue
            sig = (
                tuple(sorted(adj_v[v])),
                tuple(sorted(adj_e[v])),
            )
            keeper = signature.get(sig)
            if keeper is None:
                signature[sig] = v
            else:
                # merge v into keeper
                weight[keeper] += weight[v]
                merged[keeper].extend(merged[v])
                merged[v] = []
                alive[v] = False
                # every element still listing v is one of v's own
                for e in adj_e[v]:
                    elem_members[e].discard(v)
                adj_v[v] = set()
                adj_e[v] = set()
                for u in list(adj_v[keeper]):
                    adj_v[u].discard(v)
                # external degree of the keeper shrinks by the merged weight
                degree[keeper] = max(0, degree[keeper] - weight[v])
                heapq.heappush(heap, (degree[keeper], keeper))

    perm = np.asarray(order, dtype=np.int64)
    if perm.size != n or not np.all(np.bincount(perm, minlength=n) == 1):
        raise AssertionError("minimum degree produced an invalid permutation")
    return perm
