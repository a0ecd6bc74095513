"""Storage tiers of the factor cache: RAM → local disk → shared object store.

The paper's reuse argument — "the potential for reusing the
factorization when solving multiple systems with the same coefficient
matrix" — is only as good as the cache that holds the factors.  At
fleet scale the hot set does not fit one RAM budget, and every LRU
eviction from RAM silently becomes a future full refactorization.
This module holds what turns that cliff into a slope: the
:class:`StorageTier` every level of
:class:`~repro.service.cache.FactorizationCache` is made of, and the
policies that move entries between levels.  Evicted factors **spill
down** (RAM → local disk → shared object tier) instead of being
dropped, and reads **pull up** through the tiers, every movement
priced by the same ``latency + bytes / bandwidth`` virtual-cost model
the cluster interconnect uses (:mod:`repro.cluster.topology`).

RAM is the first tier: a :class:`StorageTier` named ``ram`` whose
transfers are free.  Everything below it is *simulated* storage:
payloads stay in process memory, but capacity, bandwidth and latency
are modeled per tier, so the serving layer experiences — and the
benchmarks can pin — the byte movement and transfer time a real
hierarchy would cost.

Three pluggable policy families, each a named registry (mirroring the
``placement_policy`` / ``transfer_policy`` pattern the ROADMAP names):

* **placement** — what happens to an entry evicted from a tier:
  ``spill`` (always move it one tier down), ``drop`` (the legacy
  drop-on-evict behaviour; the bench baseline), ``spill-threshold``
  (spill only when the modeled write cost is repaid by the modeled
  cost of recomputing the factor — the P1–P4-style cost-model
  discipline applied to storage);
* **transfer** — what happens on a lower-tier hit: ``pull-on-read``
  (promote to RAM), ``read-through`` (serve in place, refresh
  recency), ``cheapest-transfer`` (promote only when RAM has free
  headroom, so the promotion never triggers an eviction cascade);
* **ttl** — ``no-ttl`` or ``fixed-ttl`` expiry off an injectable
  clock (entries older than ``ttl_seconds`` are lazily expired at
  lookup, never served).

The shared object tier is how a fleet shares factors: every shard's
cache chains onto one :class:`StorageTier` (``shared=True``), so a
factor spilled by shard A is readable — and promotable — by shard B
(see :class:`repro.cluster.fleet.ShardedSolverService`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, TypeVar

if TYPE_CHECKING:
    from repro.service.cache import FactorizationCache

__all__ = [
    "TierSpec",
    "TierEntry",
    "StorageTier",
    "ManualClock",
    "PlacementPolicy",
    "TransferPolicy",
    "TtlPolicy",
    "PLACEMENT_POLICIES",
    "TRANSFER_POLICIES",
    "TTL_POLICIES",
    "make_placement_policy",
    "make_transfer_policy",
    "make_ttl_policy",
    "default_disk_spec",
    "default_object_spec",
]


# ----------------------------------------------------------------------
# tier model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TierSpec:
    """Shape of one storage tier: capacity plus a transfer-cost model.

    ``transfer_time`` prices one read *or* write of ``nbytes`` —
    the same ``latency + bytes / bandwidth`` form as
    :class:`~repro.cluster.topology.InterconnectParams`, riding the
    virtual clock rather than the wall clock.
    """

    name: str
    capacity_bytes: int
    bandwidth: float               # bytes/s
    latency: float                 # seconds per access

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"tier {self.name!r}: capacity must be positive")
        if self.bandwidth <= 0:
            raise ValueError(f"tier {self.name!r}: bandwidth must be positive")
        if self.latency < 0:
            raise ValueError(f"tier {self.name!r}: latency must be >= 0")

    def transfer_time(self, nbytes: int) -> float:
        return self.latency + nbytes / self.bandwidth


def default_disk_spec(capacity_bytes: int = 1 << 30) -> TierSpec:
    """Local-disk tier defaults (~2011-era SSD: 500 MB/s, 5 ms seek)."""
    return TierSpec("disk", capacity_bytes, bandwidth=5e8, latency=5e-3)


def default_object_spec(capacity_bytes: int = 8 << 30) -> TierSpec:
    """Shared object-store defaults (network hop: 250 MB/s, 50 ms)."""
    return TierSpec("object", capacity_bytes, bandwidth=2.5e8, latency=5e-2)


@dataclass
class TierEntry:
    """One resident entry of a tier."""

    payload: object
    nbytes: int
    inserted_at: float             # injectable-clock timestamp
    produce_seconds: float = 0.0   # modeled cost of recomputing the payload


class StorageTier:
    """One tier, RAM or simulated storage: LRU entries under a byte budget.

    The tier has its own reentrant lock so a *shared* tier can be
    chained under several :class:`~repro.service.cache.
    FactorizationCache` instances (one per fleet shard) — the cache
    always acquires its own lock first, then the tier's, a fixed order
    with no cycles.
    """

    def __init__(self, spec: TierSpec, *, shared: bool = False) -> None:
        self.spec = spec
        self.shared = shared
        self._lock = threading.RLock()
        self._entries: OrderedDict[tuple[str, str], TierEntry] = OrderedDict()
        self.resident_bytes = 0
        self.read_seconds = 0.0
        self.write_seconds = 0.0
        self.stats: dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "insertions": 0,
            "evictions": 0,
            "expired": 0,
            "rejected_oversize": 0,
            "read_bytes": 0,
            "write_bytes": 0,
        }

    @property
    def name(self) -> str:
        return self.spec.name

    def peek(self, full_key: tuple[str, str]) -> TierEntry | None:
        """Entry for ``full_key`` without touching recency or stats."""
        with self._lock:
            return self._entries.get(full_key)

    def touch(self, full_key: tuple[str, str]) -> None:
        with self._lock:
            if full_key in self._entries:
                self._entries.move_to_end(full_key)

    def put(
        self, full_key: tuple[str, str], entry: TierEntry
    ) -> tuple[bool, list[tuple[tuple[str, str], TierEntry]]]:
        """Insert ``entry``; returns ``(accepted, lru_evicted)``.

        An entry larger than the whole tier is rejected (``accepted``
        False).  Otherwise cold entries are LRU-evicted until the new
        one fits; the caller decides their fate (spill further down or
        drop) — the tier itself never destroys bytes silently.
        """
        with self._lock:
            if entry.nbytes > self.spec.capacity_bytes:
                self.stats["rejected_oversize"] += 1
                return False, []
            old = self._entries.pop(full_key, None)
            if old is not None:
                self.resident_bytes -= old.nbytes
            evicted: list[tuple[tuple[str, str], TierEntry]] = []
            while (
                self.resident_bytes + entry.nbytes > self.spec.capacity_bytes
            ):
                key, cold = self._entries.popitem(last=False)
                self.resident_bytes -= cold.nbytes
                self.stats["evictions"] += 1
                evicted.append((key, cold))
            self._entries[full_key] = entry
            self.resident_bytes += entry.nbytes
            self.stats["insertions"] += 1
            self.write_seconds += self.spec.transfer_time(entry.nbytes)
            self.stats["write_bytes"] += entry.nbytes
            return True, evicted

    def remove(self, full_key: tuple[str, str]) -> TierEntry | None:
        with self._lock:
            entry = self._entries.pop(full_key, None)
            if entry is not None:
                self.resident_bytes -= entry.nbytes
            return entry

    def account_read(self, nbytes: int) -> float:
        """Record one modeled read; returns the transfer seconds."""
        seconds = self.spec.transfer_time(nbytes)
        with self._lock:
            self.read_seconds += seconds
            self.stats["read_bytes"] += nbytes
        return seconds

    def keys(self) -> list[tuple[str, str]]:
        """Resident keys in LRU order, coldest first."""
        with self._lock:
            return list(self._entries.keys())

    def snapshot(self) -> dict[str, object]:
        """Occupancy and counters in one dict — what the cache's
        ``tier_stats()``, the service's gauges and the fleet's
        shared-tier report are all built from."""
        with self._lock:
            return {
                "resident_bytes": int(self.resident_bytes),
                "capacity_bytes": int(self.spec.capacity_bytes),
                "entries": len(self._entries),
                "shared": self.shared,
                "read_seconds": self.read_seconds,
                "write_seconds": self.write_seconds,
                **self.stats,
            }

    def clear(self) -> list[TierEntry]:
        with self._lock:
            dropped = list(self._entries.values())
            self._entries.clear()
            self.resident_bytes = 0
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StorageTier({self.name!r}, entries={len(self)}, "
            f"bytes={self.resident_bytes}/{self.spec.capacity_bytes})"
        )


# ----------------------------------------------------------------------
# policy registries
# ----------------------------------------------------------------------
class PlacementPolicy:
    """Decides whether an evicted entry may land on a candidate tier."""

    name = "placement"

    def should_spill(
        self, full_key: tuple[str, str], entry: TierEntry,
        tier: StorageTier,
    ) -> bool:
        raise NotImplementedError


class TransferPolicy:
    """Decides whether a lower-tier hit is promoted back to RAM."""

    name = "transfer"

    def should_promote(
        self,
        full_key: tuple[str, str],
        entry: TierEntry,
        tier: StorageTier,
        cache: "FactorizationCache",
    ) -> bool:
        raise NotImplementedError


class TtlPolicy:
    """Decides whether an entry has aged out."""

    name = "ttl"

    def expired(self, inserted_at: float, now: float) -> bool:
        raise NotImplementedError


PLACEMENT_POLICIES: dict[str, Callable[..., PlacementPolicy]] = {}
TRANSFER_POLICIES: dict[str, Callable[..., TransferPolicy]] = {}
TTL_POLICIES: dict[str, Callable[..., TtlPolicy]] = {}

_P = TypeVar("_P")


def _register(
    registry: dict[str, Callable[..., _P]], name: str
) -> Callable[[type[_P]], type[_P]]:
    def deco(factory: type[_P]) -> type[_P]:
        if name in registry:
            raise ValueError(f"duplicate policy {name!r}")
        registry[name] = factory
        factory.name = name  # type: ignore[attr-defined]
        return factory

    return deco


def _resolve(
    registry: dict[str, Callable[..., _P]],
    spec: "str | _P",
    base: "type[_P]",
    kind: str,
    **kwargs: object,
) -> _P:
    if isinstance(spec, base):
        return spec
    factory = registry.get(str(spec))
    if factory is None:
        raise KeyError(
            f"unknown {kind} policy {spec!r}; "
            f"known: {', '.join(sorted(registry))}"
        )
    return factory(**kwargs)


def make_placement_policy(
    spec: str | PlacementPolicy, **kwargs: object
) -> PlacementPolicy:
    return _resolve(PLACEMENT_POLICIES, spec, PlacementPolicy, "placement",
                    **kwargs)


def make_transfer_policy(
    spec: str | TransferPolicy, **kwargs: object
) -> TransferPolicy:
    return _resolve(TRANSFER_POLICIES, spec, TransferPolicy, "transfer",
                    **kwargs)


def make_ttl_policy(spec: str | TtlPolicy, **kwargs: object) -> TtlPolicy:
    return _resolve(TTL_POLICIES, spec, TtlPolicy, "ttl", **kwargs)


@_register(PLACEMENT_POLICIES, "spill")
class SpillPlacement(PlacementPolicy):
    """Always spill an evicted entry to the next tier that fits it."""

    def should_spill(
        self, full_key: tuple[str, str], entry: TierEntry,
        tier: StorageTier,
    ) -> bool:
        return True


@_register(PLACEMENT_POLICIES, "drop")
class DropPlacement(PlacementPolicy):
    """Legacy drop-on-evict: nothing ever spills (the bench baseline)."""

    def should_spill(
        self, full_key: tuple[str, str], entry: TierEntry,
        tier: StorageTier,
    ) -> bool:
        return False


@_register(PLACEMENT_POLICIES, "spill-threshold")
class ThresholdPlacement(PlacementPolicy):
    """Spill only when the write cost is repaid by the recompute cost.

    The storage analog of the paper's P1–P4 selection: the modeled
    write time to the candidate tier must not exceed
    ``spill_factor x`` the modeled cost of reproducing the entry
    (``produce_seconds``, the factorization's simulated makespan).  An
    entry whose recompute cost is unknown (0 — e.g. a symbolic factor)
    is always spilled: dropping it can only lose.
    """

    def __init__(self, *, spill_factor: float = 1.0) -> None:
        if spill_factor <= 0:
            raise ValueError("spill_factor must be positive")
        self.spill_factor = float(spill_factor)

    def should_spill(
        self, full_key: tuple[str, str], entry: TierEntry,
        tier: StorageTier,
    ) -> bool:
        if entry.produce_seconds <= 0.0:
            return True
        write_time = tier.spec.transfer_time(entry.nbytes)
        return write_time <= self.spill_factor * entry.produce_seconds


@_register(TRANSFER_POLICIES, "pull-on-read")
class PullOnRead(TransferPolicy):
    """Every lower-tier hit is promoted to RAM (if it fits at all)."""

    def should_promote(
        self, full_key: tuple[str, str], entry: TierEntry,
        tier: StorageTier, cache: "FactorizationCache",
    ) -> bool:
        return entry.nbytes <= cache.max_bytes


@_register(TRANSFER_POLICIES, "read-through")
class ReadThrough(TransferPolicy):
    """Serve lower-tier hits in place; only recency is refreshed."""

    def should_promote(
        self, full_key: tuple[str, str], entry: TierEntry,
        tier: StorageTier, cache: "FactorizationCache",
    ) -> bool:
        return False


@_register(TRANSFER_POLICIES, "cheapest-transfer")
class CheapestTransfer(TransferPolicy):
    """Promote only into free RAM headroom.

    A promotion that forces RAM evictions pays the read *plus* a
    cascade of spill writes; the cheapest overall movement is to
    promote only when the entry fits the currently free budget, and
    serve in place otherwise.
    """

    def should_promote(
        self, full_key: tuple[str, str], entry: TierEntry,
        tier: StorageTier, cache: "FactorizationCache",
    ) -> bool:
        return entry.nbytes <= cache.max_bytes - cache.stored_bytes


@_register(TTL_POLICIES, "no-ttl")
class NoTtl(TtlPolicy):
    def expired(self, inserted_at: float, now: float) -> bool:
        return False


@_register(TTL_POLICIES, "fixed-ttl")
class FixedTtl(TtlPolicy):
    """Entries older than ``ttl_seconds`` (injectable clock) are dead."""

    def __init__(self, *, ttl_seconds: float = 3600.0) -> None:
        if ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        self.ttl_seconds = float(ttl_seconds)

    def expired(self, inserted_at: float, now: float) -> bool:
        return now - inserted_at >= self.ttl_seconds




# ----------------------------------------------------------------------
# clock
# ----------------------------------------------------------------------
class ManualClock:
    """A clock that only moves when told to — the injectable time
    source of the TTL policies, the API edge's token buckets and the
    deterministic load generator."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new reading."""
        if seconds < 0:
            raise ValueError("time only moves forward")
        with self._lock:
            self._now += float(seconds)
            return self._now

    def now(self) -> float:
        with self._lock:
            return self._now

    __call__ = now
