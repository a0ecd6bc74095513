"""Tiered factor cache: spill/promote movement, per-tier capacity
rejection, fleet shared-tier sharing and the peer-fetch-vs-refactorize
decision boundary.

Everything runs on synthetic payloads with explicit byte sizes, so
every movement is deterministic and assertable down to the byte.
"""

from __future__ import annotations

import dataclasses
import inspect
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import InterconnectParams, ShardedSolverService
from repro.service import (
    FactorizationCache,
    SolverService,
    StorageTier,
    TierConfig,
    TierSpec,
)
from repro.service.tiers import (
    TierEntry,
    default_disk_spec,
    default_object_spec,
)


class FakeFactor:
    """Payload with a simulated production cost, like a NumericFactor."""

    def __init__(self, tag: str, makespan: float = 0.0):
        self.tag = tag
        self.makespan = makespan


def make_cache(
    *,
    ram=1000,
    disk=4000,
    obj=8000,
    disk_spec=None,
    object_spec=None,
):
    lower = []
    if disk is not None:
        lower.append(
            StorageTier(disk_spec or TierSpec("disk", disk, 5e8, 5e-3))
        )
    if obj is not None:
        lower.append(
            StorageTier(object_spec or TierSpec("object", obj, 2.5e8, 5e-2))
        )
    return FactorizationCache(max_bytes=ram, lower_tiers=lower)


# ----------------------------------------------------------------------
# tier model
# ----------------------------------------------------------------------
class TestTierSpec:
    def test_transfer_time_is_latency_plus_bandwidth(self):
        spec = TierSpec("t", 100, bandwidth=1e6, latency=0.5)
        assert spec.transfer_time(1_000_000) == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            TierSpec("t", 0, 1e6, 0.0)
        with pytest.raises(ValueError, match="bandwidth"):
            TierSpec("t", 10, 0.0, 0.0)
        with pytest.raises(ValueError, match="latency"):
            TierSpec("t", 10, 1e6, -1.0)

    def test_default_specs_are_ordered_slower_downward(self):
        disk, obj = default_disk_spec(), default_object_spec()
        assert disk.bandwidth > obj.bandwidth
        assert disk.latency < obj.latency


class TestStorageTier:
    def test_put_evicts_lru_to_fit_and_returns_victims(self):
        t = StorageTier(TierSpec("d", 1000, 1e6, 0.0))
        for i in range(3):
            ok, evicted = t.put(
                ("numeric", f"k{i}"), TierEntry(f"p{i}", 400)
            )
            assert ok
        # third insert displaced k0 (coldest)
        assert [k for k, _ in evicted] == [("numeric", "k0")]
        assert t.resident_bytes == 800
        assert t.stats["evictions"] == 1

    def test_oversize_entry_rejected_not_inserted(self):
        t = StorageTier(TierSpec("d", 100, 1e6, 0.0))
        ok, evicted = t.put(("numeric", "big"), TierEntry("p", 101))
        assert not ok and evicted == []
        assert len(t) == 0
        assert t.stats["rejected_oversize"] == 1

    def test_read_write_accounting(self):
        t = StorageTier(TierSpec("d", 1000, 1e6, 0.5))
        t.put(("numeric", "k"), TierEntry("p", 100))
        assert t.write_seconds == pytest.approx(0.5 + 100 / 1e6)
        seconds = t.account_read(100)
        assert seconds == pytest.approx(0.5 + 100 / 1e6)
        assert t.read_seconds == pytest.approx(seconds)
        assert t.stats["read_bytes"] == 100
        assert t.stats["write_bytes"] == 100

    def test_remove_and_clear(self):
        t = StorageTier(TierSpec("d", 1000, 1e6, 0.0))
        t.put(("numeric", "k"), TierEntry("p", 100))
        entry = t.remove(("numeric", "k"))
        assert entry.payload == "p" and t.resident_bytes == 0
        assert t.remove(("numeric", "k")) is None
        t.put(("numeric", "k2"), TierEntry("q", 50))
        dropped = t.clear()
        assert [e.payload for e in dropped] == ["q"]
        assert t.resident_bytes == 0


# ----------------------------------------------------------------------
# tiered cache movement
# ----------------------------------------------------------------------
class TestSpillAndPromote:
    def test_ram_eviction_spills_to_disk(self):
        cache = make_cache(ram=1000)
        for i in range(3):
            assert cache.put_numeric(f"k{i}", FakeFactor(f"f{i}"), nbytes=400)
        assert cache.stored_bytes == 800
        assert cache.tier("disk").resident_bytes == 400
        stats = cache.tier_stats()
        assert stats["ram"]["spilled_out"] == 1
        assert stats["disk"]["spilled_in_bytes"] == 400
        assert cache.check_conservation() == []

    def test_promotion_moves_entry_back_to_ram(self):
        cache = make_cache(ram=1000)
        for i in range(3):
            cache.put_numeric(f"k{i}", FakeFactor(f"f{i}"), nbytes=400)
        # k0 now on disk; reading it promotes (pull-on-read) and the
        # displaced k1 spills back down — a move, never a copy
        look = cache.lookup("nosym", "k0")
        assert look.tier == "numeric" and look.numeric.tag == "f0"
        assert cache.get_numeric("k0").tag == "f0"
        keys_by_tier = {
            "ram": cache.keys(),
            "disk": cache.tier("disk").keys(),
        }
        assert ("numeric", "k0") in keys_by_tier["ram"]
        assert ("numeric", "k0") not in keys_by_tier["disk"]
        assert ("numeric", "k1") in keys_by_tier["disk"]
        assert cache.tier_stats()["disk"]["promoted_out"] == 1
        assert cache.check_conservation() == []

    def test_disk_eviction_cascades_to_object_tier(self):
        cache = make_cache(ram=400, disk=400, obj=4000)
        for i in range(3):
            cache.put_numeric(f"k{i}", FakeFactor(f"f{i}"), nbytes=400)
        # k2 in RAM, k1 on disk, k0 pushed all the way to the object tier
        assert cache.resident_bytes_by_tier() == {
            "ram": 400, "disk": 400, "object": 400,
        }
        assert cache.get_numeric("k0") is not None
        assert cache.check_conservation() == []

    def test_capacity_rejection_at_each_tier(self):
        # entry too big for RAM and disk but not the object tier lands
        # on the object tier; one too big for every tier is dropped
        cache = make_cache(ram=100, disk=200, obj=400)
        assert cache.put_numeric("mid", FakeFactor("m"), nbytes=300)
        assert cache.resident_bytes_by_tier() == {
            "ram": 0, "disk": 0, "object": 300,
        }
        assert cache.tier("disk").stats["rejected_oversize"] == 1
        assert not cache.put_numeric("huge", FakeFactor("h"), nbytes=500)
        assert cache.get_numeric("huge") is None
        assert cache.check_conservation() == []

    def test_lower_tier_read_accrues_transfer_time(self):
        disk_spec = TierSpec("disk", 4000, bandwidth=1e6, latency=0.5)
        cache = make_cache(ram=1000, disk=4000, obj=None, disk_spec=disk_spec)
        for i in range(3):
            cache.put_numeric(f"k{i}", FakeFactor(f"f{i}"), nbytes=400)
        spill_cost = disk_spec.transfer_time(400)
        assert cache.transfer_seconds == pytest.approx(spill_cost)
        # read k0 + the displaced k1 spilling back down: two more writes
        cache.get_numeric("k0")
        assert cache.transfer_seconds == pytest.approx(3 * spill_cost)

    def test_overwrite_counts_replaced_bytes_as_dropped(self):
        cache = make_cache(ram=1000)
        cache.put_numeric("k", FakeFactor("v1"), nbytes=300)
        cache.put_numeric("k", FakeFactor("v2"), nbytes=500)
        assert cache.ledger["bytes_inserted"] == 800
        assert cache.ledger["bytes_dropped"] == 300
        assert cache.check_conservation() == []

    def test_fresh_insert_purges_stale_lower_copy(self):
        cache = make_cache(ram=1000)
        for i in range(3):
            cache.put_numeric(f"k{i}", FakeFactor(f"f{i}"), nbytes=400)
        assert ("numeric", "k0") in cache.tier("disk").keys()
        cache.put_numeric("k0", FakeFactor("fresh"), nbytes=400)
        assert ("numeric", "k0") not in cache.tier("disk").keys()
        assert cache.get_numeric("k0").tag == "fresh"
        assert cache.check_conservation() == []

    def test_clear_empties_private_tiers_and_balances_ledger(self):
        cache = make_cache(ram=1000)
        for i in range(4):
            cache.put_numeric(f"k{i}", FakeFactor(f"f{i}"), nbytes=400)
        cache.clear()
        assert cache.total_resident_bytes() == 0
        assert cache.check_conservation() == []

    def test_duplicate_tier_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FactorizationCache(
                max_bytes=100,
                lower_tiers=[
                    StorageTier(TierSpec("disk", 10, 1e6, 0.0)),
                    StorageTier(TierSpec("disk", 10, 1e6, 0.0)),
                ],
            )


# ----------------------------------------------------------------------
# service integration
# ----------------------------------------------------------------------
class TestServiceTiering:
    def test_solve_spill_then_numeric_hit_from_disk(self, lap2d_small):
        b = np.ones(lap2d_small.n_rows)
        cfg = TierConfig(
            ram_bytes=50_000,
            disk=TierSpec("disk", 10_000_000, 5e8, 5e-3),
            object_store=None,
        )
        with SolverService(
            n_workers=1, policy="P1", cache=cfg.build()
        ) as svc:
            first = svc.solve(lap2d_small, b)
            assert first.tier == "miss"
            _, num_key = svc.keys_for(lap2d_small)
            entry = svc.cache.peek_numeric_entry(num_key)
            assert entry is not None
            # force the factor out of RAM with synthetic filler
            for i in range(4):
                svc.cache.put_numeric(
                    f"filler{i}", FakeFactor(f"f{i}"), nbytes=20_000
                )
            assert ("numeric", num_key) not in svc.cache.keys()
            assert svc.cache.tier("disk").peek(("numeric", num_key))
            second = svc.solve(lap2d_small, b)
            assert second.tier == "numeric"  # served through the tiers
            np.testing.assert_array_equal(first.x, second.x)
            assert svc.metrics.counter("numeric_factorizations") == 1
            assert svc.cache.check_conservation() == []

    def test_health_and_report_surface_tiers(self, lap2d_small):
        cfg = TierConfig(ram_bytes=1 << 20)
        with SolverService(n_workers=1, cache=cfg.build()) as svc:
            svc.solve(lap2d_small, np.ones(lap2d_small.n_rows))
            h = svc.health()
            assert set(h["cache_tiers"]) == {"ram", "disk", "object"}
            assert h["cache_resident_bytes"] >= h["cache_tiers"]["ram"][
                "resident_bytes"
            ]
            rep = svc.report()
            assert rep["cache"]["ledger"]["bytes_inserted"] > 0
            assert "tiers" in rep["cache"]
            # per-tier gauges flow into the metrics exposition
            text = svc.metrics.render_text()
            assert "tier.ram.resident_bytes" in text
            assert "tier.disk.capacity_bytes" in text
            assert "tier.transfer_seconds" in text

    def test_timed_out_request_populates_no_tier(self, lap2d_small):
        cfg = TierConfig(ram_bytes=1 << 20)
        with SolverService(
            n_workers=1, policy="P1", cache=cfg.build()
        ) as svc:
            req = svc.submit(
                lap2d_small, np.ones(lap2d_small.n_rows), timeout=-1.0
            )
            with pytest.raises(TimeoutError):
                req.result(timeout=60)
            assert svc.cache.total_entries() == 0
            assert svc.cache.check_conservation() == []

    def test_degraded_request_populates_no_numeric_tier(self, lap2d_small):
        from repro.verify.invariants import ExplodingPolicy

        cfg = TierConfig(ram_bytes=1 << 20)
        with SolverService(
            n_workers=1, policy=ExplodingPolicy(), cache=cfg.build()
        ) as svc:
            out = svc.solve(lap2d_small, np.ones(lap2d_small.n_rows))
            assert out.degraded
            _, num_key = svc.keys_for(lap2d_small)
            assert not svc.cache.has_numeric(num_key)
            numeric_keys = [
                k for k in svc.cache.keys() if k[0] == "numeric"
            ] + [
                k for name in ("disk", "object")
                for k in svc.cache.tier(name).keys() if k[0] == "numeric"
            ]
            assert numeric_keys == []


# ----------------------------------------------------------------------
# fleet: shared tier + peer fetch
# ----------------------------------------------------------------------
def tiny_tiering(ram=60_000):
    return TierConfig(
        ram_bytes=ram,
        disk=None,  # shards spill straight to the shared object tier
        object_store=TierSpec("object", 16 << 20, 2.5e8, 5e-2),
    )


class TestFleetSharedTier:
    def test_shards_chain_one_shared_object_tier(self):
        fleet = ShardedSolverService(n_nodes=3, tiering=tiny_tiering())
        with fleet:
            tiers = [s.cache.tier("object") for s in fleet.shards]
            assert all(t is fleet.shared_tier for t in tiers)
            assert fleet.shared_tier.shared

    def test_evicted_on_shard_a_served_from_shared_tier_by_shard_b(
        self, lap2d_small
    ):
        b = np.ones(lap2d_small.n_rows)
        fleet = ShardedSolverService(
            n_nodes=2, tiering=tiny_tiering(), peer_fetch="off"
        )
        with fleet:
            a_shard, b_shard = fleet.shards
            first = a_shard.solve(lap2d_small, b)
            assert first.tier == "miss"
            _, num_key = a_shard.keys_for(lap2d_small)
            # push the factor out of A's RAM into the shared tier
            for i in range(4):
                a_shard.cache.put_numeric(
                    f"filler{i}", FakeFactor(f"f{i}"), nbytes=30_000
                )
            assert ("numeric", num_key) in fleet.shared_tier.keys()
            assert a_shard.cache.ledger["bytes_exported"] > 0
            # shard B never computed this factor, yet hits numeric
            second = b_shard.solve(lap2d_small, b)
            assert second.tier == "numeric"
            np.testing.assert_array_equal(first.x, second.x)
            assert b_shard.metrics.counter("numeric_factorizations") == 0
            assert b_shard.cache.ledger["bytes_imported"] > 0
            assert a_shard.cache.check_conservation() == []
            assert b_shard.cache.check_conservation() == []

    def test_fleet_health_and_report_show_shared_tier(self, lap2d_small):
        fleet = ShardedSolverService(n_nodes=2, tiering=tiny_tiering())
        with fleet:
            fleet.solve(lap2d_small, np.ones(lap2d_small.n_rows))
            h = fleet.health()
            assert h["shared_tier"]["name"] == "object"
            assert h["shared_tier"]["capacity_bytes"] == 16 << 20
            rep = fleet.report()
            assert rep["shared_tier"]["resident_bytes"] >= 0

    def test_untiered_fleet_has_no_shared_tier(self, lap2d_small):
        fleet = ShardedSolverService(n_nodes=2)
        with fleet:
            assert fleet.shared_tier is None
            assert "shared_tier" not in fleet.health()

    def test_invalid_peer_fetch_mode_rejected(self):
        with pytest.raises(ValueError, match="peer_fetch"):
            ShardedSolverService(n_nodes=2, peer_fetch="sometimes")


class TestPeerFetchDecision:
    """The fetch-over-interconnect vs refactorize-locally boundary."""

    def _fleet(self, peer_fetch, *, latency=1e-3, bandwidth=1e6):
        return ShardedSolverService(
            n_nodes=2,
            tiering=tiny_tiering(),
            peer_fetch=peer_fetch,
            interconnect=InterconnectParams(
                latency=latency, bandwidth=bandwidth
            ),
        )

    def _plant(self, fleet, a, makespan):
        """Put a fake factor for ``a`` in exactly one shard's RAM and
        return (holder, other, num_key)."""
        target = fleet.primary_for(a)
        other = 1 - target
        _, num_key = fleet.shards[other].keys_for(a)
        fleet.shards[other].cache.put_numeric(
            num_key, FakeFactor("planted", makespan=makespan), nbytes=1000
        )
        return other, target, num_key

    def test_fetch_wins_when_transfer_beats_refactorize(self, lap2d_small):
        # fetch cost: 1e-3 + 1000/1e6 = 2e-3 s < makespan 0.1 s
        fleet = self._fleet("cost-model")
        with fleet:
            holder, target, num_key = self._plant(fleet, lap2d_small, 0.1)
            fleet._maybe_peer_fetch(target, lap2d_small)
            assert fleet.shards[target].cache.has_numeric(num_key)
            counters = fleet.metrics.report()["counters"]
            assert counters["peer_fetches"] == 1
            assert counters["peer_fetch_bytes"] == 1000
            assert "peer_fetch_declined" not in counters

    def test_refactorize_wins_when_transfer_is_dearer(self, lap2d_small):
        # fetch cost 2e-3 s >= makespan 1e-4 s: decline
        fleet = self._fleet("cost-model")
        with fleet:
            holder, target, num_key = self._plant(fleet, lap2d_small, 1e-4)
            fleet._maybe_peer_fetch(target, lap2d_small)
            assert not fleet.shards[target].cache.has_numeric(num_key)
            counters = fleet.metrics.report()["counters"]
            assert counters["peer_fetch_declined"] == 1
            assert "peer_fetches" not in counters

    def test_always_mode_ignores_the_cost_model(self, lap2d_small):
        fleet = self._fleet("always")
        with fleet:
            holder, target, num_key = self._plant(fleet, lap2d_small, 1e-9)
            fleet._maybe_peer_fetch(target, lap2d_small)
            assert fleet.shards[target].cache.has_numeric(num_key)

    def test_off_mode_never_probes(self, lap2d_small):
        fleet = self._fleet("off")
        with fleet:
            holder, target, num_key = self._plant(fleet, lap2d_small, 10.0)
            fleet._maybe_peer_fetch(target, lap2d_small)
            assert not fleet.shards[target].cache.has_numeric(num_key)
            assert fleet.metrics.report()["counters"] == {}

    def test_local_hit_skips_the_probe(self, lap2d_small):
        fleet = self._fleet("always")
        with fleet:
            holder, target, num_key = self._plant(fleet, lap2d_small, 10.0)
            fleet.shards[target].cache.put_numeric(
                num_key, FakeFactor("local"), nbytes=500
            )
            fleet._maybe_peer_fetch(target, lap2d_small)
            assert fleet.metrics.report()["counters"] == {}
            # the local copy was not clobbered by a peer import
            assert (
                fleet.shards[target].cache.peek_numeric(num_key).tag
                == "local"
            )

    def test_end_to_end_fetch_through_solve(self, lap2d_small):
        # a real factor resident only on the non-primary shard is pulled
        # over the interconnect by the primary inside fleet.solve()
        b = np.ones(lap2d_small.n_rows)
        fleet = ShardedSolverService(n_nodes=2, tiering=tiny_tiering())
        with fleet:
            target = fleet.primary_for(lap2d_small)
            other = 1 - target
            first = fleet.shards[other].solve(lap2d_small, b)
            _, num_key = fleet.shards[other].keys_for(lap2d_small)
            assert fleet.shards[other].cache.has_numeric(num_key)
            out = fleet.solve(lap2d_small, b)
            counters = fleet.metrics.report()["counters"]
            assert counters.get("peer_fetches", 0) == 1
            assert out.tier == "numeric"  # no refactorization on target
            np.testing.assert_array_equal(first.x, out.x)
            assert (
                fleet.shards[target].metrics.counter(
                    "numeric_factorizations"
                ) == 0
            )


# ----------------------------------------------------------------------
# one cache class: RAM is tier 0
# ----------------------------------------------------------------------
STAT_KEYS = (
    "lookups", "numeric_hits", "symbolic_hits", "misses",
    "insertions", "evictions", "rejected_oversize",
)
CACHE_OPS = (
    "put_symbolic", "put_numeric", "lookup", "get_symbolic",
    "get_numeric", "peek_numeric", "clear",
)


class _LruModel:
    """A chain of LRUs under byte budgets, RAM first — alone it is the
    plain LRU the flat cache's ``_put`` / ``_touch`` had before RAM
    became a storage tier.  An evictee goes to the first tier below that
    takes it (cascading), a lower-tier hit moves up when it fits RAM at
    all, an entry too big for RAM goes straight down, and what finds no
    tier is dropped."""

    def __init__(self, *budgets):
        self.budgets = budgets
        self.tiers = [OrderedDict() for _ in budgets]
        self.stats = dict.fromkeys(STAT_KEYS, 0)

    def stored(self, i):
        return sum(nbytes for _, nbytes in self.tiers[i].values())

    def _place(self, key, item, top):
        """Put ``item`` on the first tier from ``top`` down that can
        hold it; True when one did."""
        for i in range(top, len(self.tiers)):
            if item[1] > self.budgets[i]:
                continue
            evicted = []
            while self.stored(i) + item[1] > self.budgets[i]:
                evicted.append(self.tiers[i].popitem(last=False))
            self.tiers[i][key] = item
            if i == 0:  # the cache counts what moves into and out of RAM
                self.stats["insertions"] += 1
                self.stats["evictions"] += len(evicted)
            for cold_key, cold in evicted:
                self._place(cold_key, cold, i + 1)
            return True
        return False

    def get(self, key, *, touch=True):
        for i, tier in enumerate(self.tiers):
            if key not in tier:
                continue
            if touch and i > 0 and tier[key][1] <= self.budgets[0]:
                self._place(key, tier.pop(key), 0)
                return self.tiers[0][key][0]
            if touch:
                tier.move_to_end(key)
            return tier[key][0]
        return None

    def put(self, key, payload, nbytes):
        for tier in self.tiers:  # the old copy is gone whatever follows
            tier.pop(key, None)
        if nbytes <= self.budgets[0]:
            return self._place(key, (payload, nbytes), 0)
        self.stats["rejected_oversize"] += 1
        placed = self._place(key, (payload, nbytes), 1)
        self.stats["insertions"] += placed
        return placed

    def lookup(self, sym_key, num_key):
        num = self.get(("numeric", num_key))
        sym = self.get(("symbolic", sym_key))
        kind = "numeric" if num is not None else (
            "symbolic" if sym is not None else "miss")
        self.stats["lookups"] += 1
        self.stats["misses" if kind == "miss" else f"{kind}_hits"] += 1
        return kind, sym, num

    def apply(self, op, key, other, payload, nbytes):
        if op in ("put_symbolic", "put_numeric"):
            return self.put((op[4:], key), payload, nbytes)
        if op == "lookup":
            return self.lookup(key, other)
        if op == "clear":
            for tier in self.tiers:
                tier.clear()
            return None
        kind = "numeric" if op.endswith("numeric") else "symbolic"
        return self.get((kind, key), touch=not op.startswith("peek"))


def _apply(cache, op, key, other, payload, nbytes):
    if op in ("put_symbolic", "put_numeric"):
        return getattr(cache, op)(key, payload, nbytes=nbytes)
    if op == "lookup":
        look = cache.lookup(key, other)
        return look.tier, look.symbolic, look.numeric
    if op == "clear":
        return cache.clear()
    return getattr(cache, op)(key)


def _check_trace(budgets, ops):
    """Every operation of ``ops`` against the model: return value,
    stats, each tier's keys in LRU order and resident bytes."""
    model = _LruModel(*budgets)
    cache = FactorizationCache(
        max_bytes=budgets[0],
        lower_tiers=[
            StorageTier(TierSpec(f"t{i}", cap, 5e8, 5e-3))
            for i, cap in enumerate(budgets[1:], 1)
        ],
    )
    for step, (op, key, other, raw) in enumerate(ops):
        # sizes 1 … largest budget + 1: the last fits no tier
        args = (op, key, other, f"payload{step}", 1 + raw % (max(budgets) + 1))
        assert _apply(cache, *args) == model.apply(*args)
        assert cache.stats == model.stats
        for i, name in enumerate(cache.tiers):
            assert cache.tier(name).keys() == list(model.tiers[i])
            assert cache.tier(name).resident_bytes == model.stored(i)
        assert cache.keys() == list(model.tiers[0])
        assert cache.stored_bytes == model.stored(0)
        assert len(cache) == len(model.tiers[0])
        assert cache.check_conservation() == []


def _trace(min_size):
    return st.lists(
        st.tuples(
            st.sampled_from(CACHE_OPS),
            st.sampled_from("abc"),
            st.sampled_from("abc"),
            st.integers(0, 10_000),
        ),
        min_size=min_size, max_size=60,
    )


class TestRamOnlyIsThePlainLru:
    """With no tier below RAM the cache is the LRU model, operation for
    operation."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 60), _trace(1))
    def test_every_operation_agrees_with_the_model(self, budget, ops):
        _check_trace((budget,), ops)


class TestTieredIsTheLruChain:
    """Over one or two lower tiers — smaller or larger than RAM — it is
    the chain of LRUs, operation for operation.  Budgets are a few
    bytes and traces long, so entries of every fits / just-too-big
    size get evicted, cascaded and read back."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=3), _trace(30))
    def test_every_operation_agrees_with_the_model(self, budgets, ops):
        _check_trace(tuple(budgets), ops)


class TestOneCacheClass:
    """What the constructors decide, once, so no caller has to probe."""

    def test_the_settable_values_are_these_five(self):
        assert list(
            inspect.signature(FactorizationCache.__init__).parameters
        ) == ["self", "max_bytes", "lower_tiers"]
        assert [f.name for f in dataclasses.fields(TierConfig)] == [
            "ram_bytes", "disk", "object_store",
        ]
        assert isinstance(TierConfig(ram_bytes=100).build(), FactorizationCache)

    def test_one_manual_clock(self):
        import repro.api
        import repro.api.middleware
        import repro.service

        # the clock lives beside its users: nothing under the service reads one
        assert repro.api.ManualClock is repro.api.middleware.ManualClock
        assert not hasattr(repro.service, "ManualClock")
        clk = repro.api.ManualClock(5.0)
        assert clk.advance(2.5) == 7.5  # the new reading, as the API's did

    def test_ram_only_service_reports_its_one_tier(self, lap2d_small):
        with SolverService(n_workers=1) as svc:
            svc.solve(lap2d_small, np.ones(lap2d_small.n_rows))
            tiers = svc.report()["cache"]["tiers"]
            health = svc.health()
            assert set(tiers) == set(health["cache_tiers"]) == {"ram"}
            assert svc.cache.stored_bytes > 0
            assert tiers["ram"]["resident_bytes"] == svc.cache.stored_bytes
            assert (
                health["cache_tiers"]["ram"]["resident_bytes"]
                == health["cache_resident_bytes"]
                == svc.cache.stored_bytes
            )
            assert svc.cache.check_conservation() == []

    def test_untiered_fleet_refactorizes_instead_of_probing_peers(
        self, lap2d_small
    ):
        # peer fetch requires tiering: the same set-up as
        # test_end_to_end_fetch_through_solve, minus the TierConfig
        b = np.ones(lap2d_small.n_rows)
        with ShardedSolverService(2) as fleet:
            target = fleet.primary_for(lap2d_small)
            other = 1 - target
            first = fleet.shards[other].solve(lap2d_small, b)
            _, num_key = fleet.shards[other].keys_for(lap2d_small)
            assert fleet.shards[other].cache.has_numeric(num_key)
            out = fleet.solve(lap2d_small, b)
            assert fleet.metrics.counter("peer_fetches") == 0
            assert out.tier == "miss"
            np.testing.assert_array_equal(first.x, out.x)
            assert (
                fleet.shards[target].metrics.counter("numeric_factorizations")
                == 1
            )


# ----------------------------------------------------------------------
# verify invariant
# ----------------------------------------------------------------------
class TestTierCoherenceInvariant:
    def test_invariant_holds_on_suite_fixture(self, lap2d_small):
        from repro.verify import check_tier_coherence

        assert check_tier_coherence(lap2d_small) == []
