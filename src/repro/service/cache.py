"""The factor cache: one LRU under a byte budget, RAM first, storage below.

The paper motivates direct methods with "the potential for reusing the
factorization when solving multiple systems with the same coefficient
matrix"; this cache is that reuse made explicit.  It holds two *kinds*
of entry (``CacheLookup.tier`` names the kind that answered — not a
storage tier):

* **symbolic** — keyed by the sparsity-pattern hash (plus ordering
  and amalgamation settings).  A hit skips the expensive ordering +
  symbolic analysis and re-runs only the numeric factorization — the
  Newton-iteration / time-stepping fast path.
* **numeric** — keyed by the values hash (plus policy).  A hit
  skips *all* factorization work and goes straight to the triangular
  solves.

There is one cache class, :class:`FactorizationCache`, and it is a
chain of :class:`~repro.service.tiers.StorageTier` levels.  Tier 0 is
RAM — a tier named ``ram`` with free transfers, sized by ``max_bytes``
— and both kinds share its one LRU list and one byte budget, so a
burst of large numeric factors evicts cold symbolic entries too (and
vice versa).  How many tiers sit below RAM is the only thing that
varies:

* **none** (the default) — an entry evicted from RAM is dropped and an
  entry larger than the whole budget is rejected rather than
  inserted-then-evicted: the plain RAM-only LRU;
* **disk and/or object store** (:meth:`TierConfig.build`) — an evicted
  entry spills to the first tier below that accepts it (cascading that
  tier's own evictions further down), an oversize entry goes straight
  to the first tier that takes it, and reads fall through RAM, account
  the modeled transfer and pull the entry back up into RAM when it
  fits RAM at all.  Nothing expires.

Sizes are estimated from the stored arrays (factor panels, supernode
row lists).  A byte ledger backs the conservation invariant the
property tests pin: every byte ever inserted is either resident in
some tier, dropped, or exported to a shared tier (imports count
symmetrically), and no tier ever holds more than its budget.  All
operations are thread-safe; the lock order is cache, then tier.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.service.tiers import (
    StorageTier,
    TierEntry,
    TierSpec,
    default_disk_spec,
    default_object_spec,
)

__all__ = [
    "CacheLookup",
    "FactorizationCache",
    "TierConfig",
    "symbolic_nbytes",
    "numeric_nbytes",
]


def symbolic_nbytes(sf: Any) -> int:
    """Estimated resident bytes of a :class:`SymbolicFactor`."""
    total = (
        sf.perm.nbytes + sf.super_ptr.nbytes + sf.sparent.nbytes + sf.spost.nbytes
    )
    total += sum(r.nbytes for r in sf.rows)
    for name in ("parent", "post"):
        arr = getattr(sf.etree, name, None)
        if arr is not None and hasattr(arr, "nbytes"):
            total += arr.nbytes
    return int(total)


def numeric_nbytes(factor: Any) -> int:
    """Estimated resident bytes of a :class:`NumericFactor` (panels + symbolic;
    not yet the block inverses a solve keeps in ``factor.sweep``)."""
    return int(sum(p.nbytes for p in factor.panels)) + symbolic_nbytes(factor.sf)


@dataclass
class CacheLookup:
    """Outcome of one lookup: which kind of entry answered it."""

    tier: str                      # "numeric" | "symbolic" | "miss"
    symbolic: object | None = None
    numeric: object | None = None


# what a tier's movement table counts (each with a ``_bytes`` twin):
# RAM is where entries are promoted to and spilled from, the tiers
# below it where they are spilled to and promoted from; both drop
_RAM_MOVES = ("promoted_in", "spilled_out", "dropped")
_LOWER_MOVES = ("spilled_in", "promoted_out", "dropped")


class FactorizationCache:
    """LRU cache of symbolic and numeric factorizations over a chain of
    storage tiers, RAM first.

    ``lookup`` / ``put_symbolic`` / ``put_numeric`` / ``stats`` describe
    the cache as a whole; ``stored_bytes`` / ``max_bytes`` describe the
    RAM tier (the quantity admission control cares about).  With no
    ``lower_tiers`` this is a plain LRU under a byte budget.  With
    them:

    * a RAM eviction spills to the first tier below that accepts it
      instead of dropping;
    * lookups fall through RAM to each lower tier in order, account
      the modeled read, and promote the hit when it fits RAM at all;
    * a byte ledger (``bytes_inserted`` / ``bytes_dropped`` /
      ``bytes_exported`` / ``bytes_imported``) makes conservation an
      assertable invariant.
    """

    SYMBOLIC = "symbolic"
    NUMERIC = "numeric"

    def __init__(
        self,
        *,
        max_bytes: int = 256 << 20,
        lower_tiers: list[StorageTier] | None = None,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = int(max_bytes)
        self._lock = threading.RLock()
        self._ram = StorageTier(
            TierSpec("ram", self.max_bytes, bandwidth=math.inf, latency=0.0)
        )
        self._tiers = [self._ram, *(lower_tiers or ())]
        if len(set(self.tiers)) != len(self._tiers):
            raise ValueError(f"duplicate tier names: {self.tiers}")
        self.stats: dict[str, int] = {
            "lookups": 0,
            "numeric_hits": 0,
            "symbolic_hits": 0,
            "misses": 0,
            "insertions": 0,
            "evictions": 0,
            "rejected_oversize": 0,
        }
        self.ledger: dict[str, int] = {
            "bytes_inserted": 0,
            "bytes_dropped": 0,
            "bytes_exported": 0,
            "bytes_imported": 0,
        }
        self.transfer_seconds = 0.0
        # this cache's movements per tier; occupancy and hit counters
        # live on the tier itself (a shared tier's are fleet-wide)
        self._moves: dict[str, dict[str, int]] = {
            t.name: {
                f"{move}{unit}": 0
                for move in (_RAM_MOVES if t is self._ram else _LOWER_MOVES)
                for unit in ("", "_bytes")
            }
            for t in self._tiers
        }

    # -- tier plumbing -----------------------------------------------------
    @property
    def stored_bytes(self) -> int:
        """Bytes resident in RAM (what ``max_bytes`` bounds)."""
        return self._ram.resident_bytes

    @property
    def tiers(self) -> list[str]:
        return [t.name for t in self._tiers]

    def tier(self, name: str) -> StorageTier:
        for t in self._tiers:
            if t.name == name:
                return t
        raise KeyError(f"no tier named {name!r} (have {self.tiers})")

    def resident_bytes_by_tier(self) -> dict[str, int]:
        with self._lock:
            return {t.name: int(t.resident_bytes) for t in self._tiers}

    def tier_stats(self) -> dict[str, dict[str, object]]:
        """Per-tier counters for reports / metric exposition."""
        with self._lock:
            return {
                t.name: {**t.snapshot(), **self._moves[t.name]}
                for t in self._tiers
            }

    def total_resident_bytes(self) -> int:
        with self._lock:
            return sum(t.resident_bytes for t in self._tiers)

    def total_entries(self) -> int:
        with self._lock:
            return sum(len(t) for t in self._tiers)

    # -- lookups -----------------------------------------------------------
    def lookup(self, symbolic_key: str, numeric_key: str) -> CacheLookup:
        """Full numeric hit beats symbolic hit beats miss."""
        with self._lock:
            self.stats["lookups"] += 1
            num = self._get((self.NUMERIC, numeric_key))
            if num is not None:
                self.stats["numeric_hits"] += 1
                # refresh the symbolic entry too: it backs the numeric one
                sym = self._get((self.SYMBOLIC, symbolic_key))
                return CacheLookup(self.NUMERIC, symbolic=sym, numeric=num)
            sym = self._get((self.SYMBOLIC, symbolic_key))
            if sym is not None:
                self.stats["symbolic_hits"] += 1
                return CacheLookup(self.SYMBOLIC, symbolic=sym)
            self.stats["misses"] += 1
            return CacheLookup("miss")

    def get_symbolic(self, key: str) -> object | None:
        with self._lock:
            return self._get((self.SYMBOLIC, key))

    def get_numeric(self, key: str) -> object | None:
        with self._lock:
            return self._get((self.NUMERIC, key))

    def peek_numeric_entry(self, key: str) -> TierEntry | None:
        """The numeric entry for ``key`` in any tier — no recency
        touch, no stats, no promotion.  The fleet's peer-probe hook."""
        full_key = (self.NUMERIC, key)
        with self._lock:
            for t in self._tiers:
                entry = t.peek(full_key)
                if entry is not None:
                    return entry
            return None

    def has_numeric(self, key: str) -> bool:
        return self.peek_numeric_entry(key) is not None

    def peek_numeric(self, key: str) -> object | None:
        """The numeric payload for ``key`` without touching recency or
        stats (every tier is searched)."""
        entry = self.peek_numeric_entry(key)
        return entry.payload if entry is not None else None

    def _get(self, full_key: tuple[str, str]) -> object | None:
        """The one read path: walk the tiers top-down; count the hit or
        miss, account the read below RAM, promote or touch."""
        for t in self._tiers:
            entry = t.peek(full_key)
            if entry is None:
                t.stats["misses"] += 1
                continue
            t.stats["hits"] += 1
            if t is not self._ram:
                self.transfer_seconds += t.account_read(entry.nbytes)
                if entry.nbytes <= self.max_bytes:
                    self._promote(full_key, entry, t)
                    return entry.payload
            t.touch(full_key)
            return entry.payload
        return None

    def _promote(
        self, full_key: tuple[str, str], entry: TierEntry,
        source: StorageTier,
    ) -> None:
        """Move ``entry`` up from ``source`` into RAM."""
        source.remove(full_key)
        self._count(source, "promoted_out", entry.nbytes)
        if source.shared:
            self.ledger["bytes_imported"] += entry.nbytes
        self._count(self._ram, "promoted_in", entry.nbytes)
        self._admit(full_key, entry)

    # -- insertion / spilling ----------------------------------------------
    def put_symbolic(
        self, key: str, sf: object, *, nbytes: int | None = None
    ) -> bool:
        return self._put(
            (self.SYMBOLIC, key), sf,
            nbytes if nbytes is not None else symbolic_nbytes(sf),
        )

    def put_numeric(
        self, key: str, factor: object, *, nbytes: int | None = None
    ) -> bool:
        return self._put(
            (self.NUMERIC, key), factor,
            nbytes if nbytes is not None else numeric_nbytes(factor),
        )

    @staticmethod
    def _produce_seconds(payload: object) -> float:
        """Modeled cost of recomputing ``payload`` (0 when unknown).

        Numeric factors carry their simulated factorization makespan;
        that is exactly the refactorize side of the fleet's
        peer-fetch-vs-refactorize cost comparison.
        """
        try:
            return float(getattr(payload, "makespan", 0.0))
        except (TypeError, ValueError):
            return 0.0

    def _put(
        self, full_key: tuple[str, str], payload: object, nbytes: int
    ) -> bool:
        with self._lock:
            # a fresh external insert supersedes the copy in any tier:
            # the replaced bytes leave the cache whether or not the new
            # entry finds a home
            for t in self._tiers:
                stale = t.remove(full_key)
                if stale is not None:
                    self._drop(t, stale.nbytes)
            entry = TierEntry(
                payload, int(nbytes), self._produce_seconds(payload)
            )
            # the cache takes custody of the bytes either way: they end
            # up resident in some tier, exported, or counted dropped
            self.ledger["bytes_inserted"] += entry.nbytes
            if self._admit(full_key, entry):
                return True
            # too big for RAM: route straight down the spill path
            # rather than rejecting outright — "capacity rejection at
            # each tier" means each tier gets its own say (with no
            # tier below, that say is a rejection)
            placed = self._spill(full_key, entry, below=0)
            if placed:
                self.stats["insertions"] += 1
            return placed

    def _admit(self, full_key: tuple[str, str], entry: TierEntry) -> bool:
        """The one way into RAM, for external puts and promotions
        alike: ``StorageTier.put``, then spill what it displaced."""
        ram = self._ram
        accepted, displaced = ram.put(full_key, entry)
        if not accepted:
            self.stats["rejected_oversize"] += 1
            return False
        self.stats["insertions"] += 1
        self.stats["evictions"] += len(displaced)
        for cold_key, cold in displaced:
            placed = self._spill(cold_key, cold, below=0)
            self._count(
                ram, "spilled_out" if placed else "dropped", cold.nbytes
            )
        return True

    def _spill(
        self, full_key: tuple[str, str], entry: TierEntry, *,
        below: int, in_books: bool = True,
    ) -> bool:
        """Place an evicted entry on the first tier below index
        ``below`` that accepts it; cascade that tier's own evictions
        further down; drop (counted) when no tier takes it.

        ``in_books`` is False for entries displaced out of a *shared*
        tier: their bytes were exported by whichever cache spilled
        them, so this cache's ledger must not count their fate.
        """
        for i in range(below + 1, len(self._tiers)):
            t = self._tiers[i]
            accepted, displaced = t.put(full_key, entry)
            if not accepted:
                continue  # oversize for this tier; try the next one down
            self.transfer_seconds += t.spec.transfer_time(entry.nbytes)
            self._count(t, "spilled_in", entry.nbytes)
            if t.shared and in_books:
                self.ledger["bytes_exported"] += entry.nbytes
            for cold_key, cold in displaced:
                self._spill(cold_key, cold, below=i, in_books=not t.shared)
            return True
        # nowhere to go: the bytes leave the cache
        if in_books:
            self.ledger["bytes_dropped"] += entry.nbytes
        return False

    def _count(self, tier: StorageTier, move: str, nbytes: int) -> None:
        moves = self._moves[tier.name]
        moves[move] += 1
        moves[f"{move}_bytes"] += nbytes

    def _drop(self, tier: StorageTier, nbytes: int) -> None:
        """An entry superseded in place on ``tier``."""
        self._count(tier, "dropped", nbytes)
        # bytes displaced in a *shared* tier were already exported out
        # of this cache's books when they were spilled
        if not tier.shared:
            self.ledger["bytes_dropped"] += nbytes

    # -- ledger ------------------------------------------------------------
    def check_conservation(self) -> list[str]:
        """Byte-accounting conservation (the property tests' oracle).

        ``inserted + imported == resident(private tiers) + dropped +
        exported``; a shared tier keeps its own books (its bytes were
        exported when they left this cache).  Returns violations
        (empty = invariant holds).
        """
        with self._lock:
            resident = sum(
                t.resident_bytes for t in self._tiers if not t.shared
            )
            lhs = (
                self.ledger["bytes_inserted"] + self.ledger["bytes_imported"]
            )
            rhs = (
                resident
                + self.ledger["bytes_dropped"]
                + self.ledger["bytes_exported"]
            )
            violations = []
            if lhs != rhs:
                violations.append(
                    f"byte ledger unbalanced: inserted+imported={lhs} != "
                    f"resident+dropped+exported={rhs} ({self.ledger})"
                )
            for t in self._tiers:
                if t.resident_bytes > t.spec.capacity_bytes:
                    violations.append(
                        f"tier {t.name} over budget: {t.resident_bytes} > "
                        f"{t.spec.capacity_bytes}"
                    )
            return violations

    # -- introspection -----------------------------------------------------
    @property
    def pattern_hit_rate(self) -> float:
        """Fraction of lookups that at least hit a symbolic entry (a
        numeric hit implies its pattern was known too)."""
        n = self.stats["lookups"]
        if n == 0:
            return 0.0
        return (self.stats["numeric_hits"] + self.stats["symbolic_hits"]) / n

    @property
    def numeric_hit_rate(self) -> float:
        n = self.stats["lookups"]
        return self.stats["numeric_hits"] / n if n else 0.0

    def keys(self) -> list[tuple[str, str]]:
        """(kind, key) pairs resident in RAM, in LRU order, coldest first."""
        return self._ram.keys()

    def clear(self) -> None:
        """Empty RAM and private lower tiers (a shared tier belongs to
        the fleet, not to one shard, and is left alone)."""
        with self._lock:
            for t in self._tiers:
                if t.shared:
                    continue
                for entry in t.clear():
                    self.ledger["bytes_dropped"] += entry.nbytes

    def __len__(self) -> int:
        """Entries resident in RAM."""
        return len(self._ram)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tiers = ", ".join(
            f"{t.name}={t.resident_bytes}/{t.spec.capacity_bytes}"
            for t in self._tiers
        )
        return f"FactorizationCache({tiers})"


# ----------------------------------------------------------------------
# configuration bundle
# ----------------------------------------------------------------------
@dataclass
class TierConfig:
    """Everything needed to build one :class:`FactorizationCache` over
    a storage hierarchy.

    ``disk`` / ``object_store`` may be None to omit that tier; the
    fleet replaces ``object_store`` with one *shared*
    :class:`StorageTier` chained under every shard.
    """

    ram_bytes: int = 256 << 20
    disk: TierSpec | None = field(default_factory=default_disk_spec)
    object_store: TierSpec | None = field(default_factory=default_object_spec)

    def build(
        self, *, shared: StorageTier | None = None
    ) -> FactorizationCache:
        lower: list[StorageTier] = []
        if self.disk is not None:
            lower.append(StorageTier(self.disk))
        if shared is not None:
            lower.append(shared)
        elif self.object_store is not None:
            lower.append(StorageTier(self.object_store))
        return FactorizationCache(max_bytes=self.ram_bytes, lower_tiers=lower)

    def build_shared_tier(self) -> StorageTier:
        """The fleet-wide object tier every shard chains onto."""
        spec = (
            self.object_store
            if self.object_store is not None
            else default_object_spec()
        )
        return StorageTier(spec, shared=True)
