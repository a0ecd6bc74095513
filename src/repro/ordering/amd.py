"""Quotient-graph minimum degree ordering (AMD-style).

This is a from-scratch implementation of minimum degree with the standard
quality/speed machinery of approximate-minimum-degree codes:

* **quotient graph** — eliminated vertices become *elements*; a variable's
  adjacency is ``A_v`` (uneliminated neighbors) plus ``E_v`` (elements it
  touches), so the graph never grows beyond the original storage.
* **element absorption** — when pivot ``p`` is eliminated, all elements
  adjacent to it are merged into the new element ``L_p``, and entries of
  ``A_v`` covered by ``L_p`` are pruned.
* **approximate external degrees** — degrees are updated with the AMD
  bound ``d(v) = w(A_v) + w(L_p \\ v) + sum_e w(L_e \\ L_p)`` rather than
  an exact (quadratic) set union.
* **element weights** — every live element keeps ``w(L_e)``, the total
  weight of its members.  ``w(L_e \\ L_p)`` is ``w(L_e)`` less the weight
  of each member of ``L_p`` on ``e``'s list, subtracted once per (member,
  element) pair while walking the members' element lists (the update of
  Amestoy, Davis & Duff, SIAM J. Matrix Anal. Appl. 17(4), 1996), so no
  adjacent element's members are summed again at each pivot.  A
  supervariable merge moves weight between variables that touch the
  same elements, so it leaves every ``w(L_e)`` as it is.
* **mass elimination / supervariables** — variables in ``L_p`` with
  identical quotient adjacency are merged; they are eliminated together
  and therefore emerge as consecutive columns, seeding the fundamental
  supernodes the multifrontal method factors as blocks.  Indistinguishable
  variables are found by hashing each one's ``(frozenset(A_v),
  frozenset(E_v))``.

The asymptotics are those of classical AMD; the constant factor is
Python's, so this ordering is intended for the ~1e4-vertex problems in the
test suite (nested dissection handles the larger grids).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.matrices.csc import CSCMatrix

__all__ = ["minimum_degree", "minimum_degree_graph"]


def minimum_degree(a: CSCMatrix) -> np.ndarray:
    """Return a minimum-degree permutation (new-to-old) for the symmetric
    pattern of ``a``."""
    return minimum_degree_graph(*a.adjacency())


def minimum_degree_graph(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Minimum-degree permutation of an undirected graph given as
    adjacency lists ``(indptr, indices)`` without self-loops.

    Every edge is listed from both ends, as ``CSCMatrix.adjacency`` and
    nested dissection's leaf slices give it; so a live variable's
    neighbours and an element's members are live variables only, and no
    update has to filter out eliminated or merged ones.
    """
    n = indptr.size - 1
    if n == 0:
        return np.empty(0, dtype=np.int64)

    # plain lists and ints throughout: the loops below index one scalar
    # at a time, which numpy arrays make several times dearer
    ptr, nbrs = indptr.tolist(), indices.tolist()
    adj_v: list[set[int]] = [set(nbrs[a:b]) for a, b in zip(ptr, ptr[1:])]
    adj_e: list[set[int]] = [set() for _ in range(n)]
    # every live element's members and their total weight w(L_e)
    elem_members: dict[int, set[int]] = {}
    elem_w: dict[int, int] = {}
    weight = [1] * n                          # originals merged into each supervar
    wt = weight.__getitem__
    merged: list[list[int]] = [[v] for v in range(n)]
    alive = [True] * n
    degree = [len(s) for s in adj_v]

    heap: list[tuple[int, int]] = list(zip(degree, range(n)))
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
        lp = adj_v[p]
        absorbed = adj_e[p]
        for e in absorbed:
            lp |= elem_members.pop(e)
            del elem_w[e]
        lp.discard(p)

        # ---- eliminate p (and everything merged into it); the new
        # element is named p
        order.extend(merged[p])
        n_eliminated += weight[p]
        alive[p] = False
        adj_v[p] = set()
        adj_e[p] = set()
        if not lp:
            continue
        w_lp = sum(map(wt, lp))
        elem_members[p] = lp
        elem_w[p] = w_lp

        # ---- external weights w(L_e \ L_p) of the elements the members
        # of L_p still touch: w(L_e) less each member's weight, once per
        # element on that member's list (AMD's update)
        extern_w: dict[int, int] = {}
        for v in lp:
            ev = adj_e[v]
            ev -= absorbed
            wv = weight[v]
            for e in ev:
                extern_w[e] = extern_w.get(e, elem_w[e]) - wv

        # ---- update each variable in L_p
        ext = extern_w.__getitem__
        for v in lp:
            # neighbours in L_p are covered by the new element; p is dead
            av = adj_v[v] - lp
            av.discard(p)
            adj_v[v] = av
            ev = adj_e[v]
            d = sum(map(wt, av)) + w_lp - weight[v] + sum(map(ext, ev))
            ev.add(p)
            degree[v] = max(1, d) if (av or len(ev) > 1 or w_lp > weight[v]) else 0
            heapq.heappush(heap, (degree[v], v))

        # ---- supervariable detection: merge indistinguishable members of L_p
        signature: dict[tuple[frozenset[int], frozenset[int]], int] = {}
        for v in sorted(lp):
            sig = (frozenset(adj_v[v]), frozenset(adj_e[v]))
            keeper = signature.get(sig)
            if keeper is None:
                signature[sig] = v
            else:
                # merge v into keeper: both touch the same elements, so
                # no element's weight w(L_e) changes
                weight[keeper] += weight[v]
                merged[keeper].extend(merged[v])
                merged[v] = []
                alive[v] = False
                # every element still listing v is one of v's own
                for e in adj_e[v]:
                    elem_members[e].discard(v)
                adj_v[v] = set()
                adj_e[v] = set()
                for u in adj_v[keeper]:
                    adj_v[u].discard(v)
                # external degree of the keeper shrinks by the merged weight
                degree[keeper] = max(0, degree[keeper] - weight[v])
                heapq.heappush(heap, (degree[keeper], keeper))

    if len(order) != n or len(set(order)) != n:
        raise AssertionError("minimum degree produced an invalid permutation")
    return np.array(order, dtype=np.int64)
