"""Fill-reducing orderings, implemented from scratch.

The paper's substrate (WSMP) computes a fill-reducing ordering before the
symbolic phase; the quality of the ordering controls the supernode-size
distribution that the hybrid policies exploit.  We provide:

* :func:`minimum_degree` — quotient-graph minimum degree with element
  absorption and mass elimination of indistinguishable nodes (AMD-style
  approximate external degrees).
* :func:`reverse_cuthill_mckee` — bandwidth-reducing BFS ordering (used as
  a contrast baseline; it produces long thin supernodes).
* :func:`nested_dissection` — BFS-separator dissection, the
  ordering that produces the large root fronts central to the paper's
  analysis of 3-D problems.
* :func:`natural_ordering` — identity.

All orderings return ``perm`` with the "new-to-old" convention:
``perm[i]`` is the original index eliminated at step ``i``.
"""

from repro.ordering.amd import minimum_degree
from repro.ordering.interface import (
    ORDERING_METHODS,
    compute_ordering,
    invert_permutation,
    natural_ordering,
)
from repro.ordering.nested_dissection import nested_dissection
from repro.ordering.rcm import reverse_cuthill_mckee

__all__ = [
    "minimum_degree",
    "reverse_cuthill_mckee",
    "nested_dissection",
    "natural_ordering",
    "compute_ordering",
    "invert_permutation",
    "ORDERING_METHODS",
]
