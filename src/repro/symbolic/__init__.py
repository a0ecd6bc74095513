"""Symbolic analysis for supernodal multifrontal Cholesky.

Given a permuted SPD matrix, this subpackage computes everything the
numeric phase needs before touching a floating-point number:

* the (column) elimination tree and its postorder (:mod:`etree`),
* the fundamental supernode partition and relaxed amalgamation
  (:mod:`supernodes`),
* the assembled :class:`SymbolicFactor` — one factor pattern per
  supernode, the supernodal tree, and flop/byte counts per factor-update
  call (:mod:`symbolic`).

The column-at-a-time definition the tests check all of this against
lives with them, in ``tests/reference_symbolic.py``.
"""

from repro.symbolic.etree import EliminationTree, elimination_tree, postorder
from repro.symbolic.supernodes import (
    AMALGAMATION_PRESETS,
    AmalgamationParams,
    amalgamate,
    amalgamation_preset,
)
from repro.symbolic.symbolic import SymbolicFactor, symbolic_factorize

__all__ = [
    "EliminationTree",
    "elimination_tree",
    "postorder",
    "amalgamate",
    "AmalgamationParams",
    "AMALGAMATION_PRESETS",
    "amalgamation_preset",
    "SymbolicFactor",
    "symbolic_factorize",
]
