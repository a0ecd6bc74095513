"""Schedule goldens: what the three schedulers produce, digested.

``GOLDENS`` (``tests/schedule_goldens.json``) was computed at parent
commit ``37be3af23204f6d39dd1173b0f21a8455fcbaaef`` — before the cluster
event loop was folded into :mod:`repro.runtime.engine` and before the
static list scheduler was priced by the shared ``TaskPricer`` — by
running ``python tests/test_schedule_goldens.py`` there.  Each entry is
the leading 16 hex digits of a SHA-256 over, bit for bit (floats as
``float.hex``): the makespan, every ``ScheduledTask``, the busy list;
for the event-driven runs also every span; for a migrating run the
``RuntimeStats`` and the degraded set; for a fleet run the owner map,
every ``Message``, the NIC busy list and the comm totals (the parent's
cluster result carried no ``RuntimeStats``, so none is digested for
it).  Every schedule is computed through an executor's ``run``.

The axes: pinned (``Cluster(spec, owner).run``, default and custom
owner) vs migrating (``Dynamic(...).run``) vs static
(``Static(gang_threshold).run``); GPU-less, mixed and all-GPU worker
sets; P1 / P4 / P_BH; fast and slow network; admission budget; injected
faults; gang scheduling on and off.

``REPRICED`` lists the only digests that differ from the parent: static
schedules on GPU-less or mixed pools under a device-capable policy,
which the parent priced at device speed on workers that own no GPU.
``REWORDED`` lists the digests that moved when the runtime began to
charge a device front's update at the device word: every dynamic P4 run
on a pool with a GPU.  Without a budget only the two memory counters of
its ``RuntimeStats`` moved (``UNMOVED_SCHEDULES`` pins the rest, computed
before the change); under a budget the admission, and so the schedule,
moved too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterSpec, InterconnectParams
from repro.gpu.perfmodel import tesla_t10_model
from repro.matrices import grid_laplacian_3d
from repro.parallel import (
    Cluster,
    Dynamic,
    Static,
    make_worker_pool,
    parallel_schedule,
)
from repro.policies import BaselineHybrid, make_policy
from repro.runtime import FaultInjector
from repro.symbolic import symbolic_factorize
from repro.workload import geometric_nd_workload

GOLDENS_PATH = Path(__file__).with_name("schedule_goldens.json")

WORKLOADS = {
    "grid3d": lambda: symbolic_factorize(grid_laplacian_3d(8, 8, 8), ordering="nd"),
    "geo24": lambda: geometric_nd_workload(24, 24, 24, leaf_cells=16),
}
POLICIES = {
    "P1": lambda: make_policy("P1"),
    "P4": lambda: make_policy("P4"),
    "PBH": BaselineHybrid,
}
POOLS = ((1, 1), (2, 0), (4, 0), (2, 2), (4, 2), (4, 4))
NETWORKS = {"net": InterconnectParams(), "slow": InterconnectParams(bandwidth=5e7)}
#: admission budgets below each workload's unconstrained peak: tasks are
#: deferred and, on ``grid3d``, force-admitted out of gridlock
BUDGETS = {"grid3d": 40_000, "geo24": 10_000_000}
DYNAMIC_MODES = {
    "plain": lambda wname: {},
    "budget": lambda wname: {"memory_budget": BUDGETS[wname]},
    "faults": lambda wname: {"faults": FaultInjector(0.3, 0.2, seed=3)},
}
GANG = {"gang": 5e7, "nogang": np.inf}

GOLDENS: dict[str, str] = json.loads(GOLDENS_PATH.read_text())

#: the 14 digests that moved in the PR that made the static scheduler price
#: each task on the worker it is placed on (key -> digest after).  On a
#: GPU-less pool fixed P4 is now, task for task, the P1 schedule ...
REPRICED: dict[str, str] = {
    f"static/{wname}/P4/{pool}/{gname}": GOLDENS[f"static/{wname}/P1/{pool}/{gname}"]
    for wname in WORKLOADS for pool in ("c2g0", "c4g0") for gname in GANG
}
#: ... and on 4 CPUs + 2 GPUs the tasks placed on workers 2-3 run as host
#: P1 (P_BH offloads nothing on ``grid3d``, so only ``geo24`` moves)
REPRICED.update({
    "static/geo24/P4/c4g2/gang": "f41be162d2faec4f",
    "static/geo24/P4/c4g2/nogang": "0e80b92269689b30",
    "static/geo24/PBH/c4g2/gang": "701d65547e30972f",
    "static/geo24/PBH/c4g2/nogang": "81a29f6bb9c2e479",
    "static/grid3d/P4/c4g2/gang": "8842b0cecb4a4828",
    "static/grid3d/P4/c4g2/nogang": "8842b0cecb4a4828",
})

#: the 24 digests that moved with the change that charged each started front's
#: update at the word of the policy it resolved to (key -> digest after):
#: a P4 update is kept in the device's float32, half the host word
REWORDED: dict[str, str] = {
    "dynamic/geo24/P4/c1g1/budget": "4fc6e1cf3f3158c9",
    "dynamic/geo24/P4/c1g1/faults": "256dd862f8ce1ce6",
    "dynamic/geo24/P4/c1g1/plain": "4fc6e1cf3f3158c9",
    "dynamic/geo24/P4/c2g2/budget": "4e7849dfbb8fe7d9",
    "dynamic/geo24/P4/c2g2/faults": "b8d7311b416b1f77",
    "dynamic/geo24/P4/c2g2/plain": "4e7849dfbb8fe7d9",
    "dynamic/geo24/P4/c4g2/budget": "ceda22fbb96fee5c",
    "dynamic/geo24/P4/c4g2/faults": "9e29ce0986586916",
    "dynamic/geo24/P4/c4g2/plain": "b0f63cec6ddab743",
    "dynamic/geo24/P4/c4g4/budget": "88a7230bced0920f",
    "dynamic/geo24/P4/c4g4/faults": "1a5311ed662727a0",
    "dynamic/geo24/P4/c4g4/plain": "88a7230bced0920f",
    "dynamic/grid3d/P4/c1g1/budget": "419838ba352f3dc4",
    "dynamic/grid3d/P4/c1g1/faults": "b5d69c2e5ff65307",
    "dynamic/grid3d/P4/c1g1/plain": "da7b705e47b124e4",
    "dynamic/grid3d/P4/c2g2/budget": "4eaf20f8d269610e",
    "dynamic/grid3d/P4/c2g2/faults": "e454269657ff9250",
    "dynamic/grid3d/P4/c2g2/plain": "72c3a5a2e6366e19",
    "dynamic/grid3d/P4/c4g2/budget": "b7d9e12a48092d1e",
    "dynamic/grid3d/P4/c4g2/faults": "f1f0179a99c531a9",
    "dynamic/grid3d/P4/c4g2/plain": "e1bfcd157a5ccb73",
    "dynamic/grid3d/P4/c4g4/budget": "6d55dcaf6aaac717",
    "dynamic/grid3d/P4/c4g4/faults": "d7237ef47f7bc8a3",
    "dynamic/grid3d/P4/c4g4/plain": "4c7f33f547fc5787",
}
#: the unbudgeted ``REWORDED`` runs, digested without ``peak_stack_bytes``
#: and ``peak_admitted_bytes`` (:func:`digest_dynamic_schedule`), as
#: computed before that change: their schedules did not move
UNMOVED_SCHEDULES: dict[str, str] = {
    "dynamic/geo24/P4/c1g1/faults": "f26a2749b23d15d7",
    "dynamic/geo24/P4/c1g1/plain": "79ff9664c4a9bb3b",
    "dynamic/geo24/P4/c2g2/faults": "c97c6ee3a58bfadb",
    "dynamic/geo24/P4/c2g2/plain": "a4603d98c28dec9b",
    "dynamic/geo24/P4/c4g2/faults": "35de99bc42c21963",
    "dynamic/geo24/P4/c4g2/plain": "4e234b614ae697e9",
    "dynamic/geo24/P4/c4g4/faults": "725f8caf1d63ce78",
    "dynamic/geo24/P4/c4g4/plain": "164beade76a4a9b5",
    "dynamic/grid3d/P4/c1g1/faults": "6df957386c75e3a3",
    "dynamic/grid3d/P4/c1g1/plain": "4d2c501f1afe891c",
    "dynamic/grid3d/P4/c2g2/faults": "7b1e3ddab604f6e2",
    "dynamic/grid3d/P4/c2g2/plain": "2fd686ec98f55e5d",
    "dynamic/grid3d/P4/c4g2/faults": "e455f9a653d3c2b1",
    "dynamic/grid3d/P4/c4g2/plain": "5e50cbb869e5b733",
    "dynamic/grid3d/P4/c4g4/faults": "2256dcf0c3c3a4b6",
    "dynamic/grid3d/P4/c4g4/plain": "7132c60642292f05",
}


def _hex(x) -> str:
    return float(x).hex()


def _common(res) -> list:
    return [
        _hex(res.makespan),
        [(t.sid, t.worker, _hex(t.start), _hex(t.end), t.policy, t.gang)
         for t in res.schedule],
        [_hex(b) for b in res.worker_busy],
    ]


def _spans(res) -> list:
    return [(s.name, s.engine, _hex(s.start), _hex(s.end), s.category)
            for s in res.spans]


def _seal(parts: list) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def digest_static(res) -> str:
    return _seal(_common(res))


def digest_dynamic(res) -> str:
    return _seal(_common(res) + [
        _spans(res),
        dataclasses.astuple(res.stats),
        sorted(res.degraded_sids),
    ])


def digest_dynamic_schedule(res) -> str:
    """:func:`digest_dynamic` without the update-stack memory counters."""
    stats = dataclasses.asdict(res.stats)
    del stats["peak_stack_bytes"], stats["peak_admitted_bytes"]
    return _seal(_common(res) + [
        _spans(res), sorted(stats.items()), sorted(res.degraded_sids),
    ])


def digest_cluster(res) -> str:
    return _seal(_common(res) + [
        _spans(res),
        res.owner.tolist(),
        [(m.seq, m.src, m.dst, m.sid, m.nbytes,
          _hex(m.send_start), _hex(m.send_end), _hex(m.arrival))
         for m in res.messages],
        [_hex(b) for b in res.nic_busy],
        _hex(res.comm_bytes), res.comm_messages, _hex(res.comm_seconds),
    ])


def _striped_owner(sf, n_ranks: int) -> np.ndarray:
    """A deliberately bad custom map: supernode ``s`` on rank ``s % n``
    (nearly every tree edge crosses the network)."""
    return np.arange(sf.n_supernodes, dtype=np.int64) % n_ranks


def compute_all() -> dict[str, str]:
    model = tesla_t10_model()
    out: dict[str, str] = {}
    for wname, build in WORKLOADS.items():
        sf = build()
        for pname, make in POLICIES.items():
            for ranks in (1, 2, 3, 4):
                for gpus in (0, 1):
                    for nname, net in NETWORKS.items():
                        spec = ClusterSpec(
                            ranks, gpus, model=model, interconnect=net
                        )
                        out[f"cluster/{wname}/{pname}/r{ranks}g{gpus}/{nname}"] = (
                            digest_cluster(Cluster(spec).run(sf, make()))
                        )
            for gpus in (0, 1):
                spec = ClusterSpec(3, gpus, model=model)
                out[f"cluster/{wname}/{pname}/r3g{gpus}/striped-owner"] = (
                    digest_cluster(
                        Cluster(spec, _striped_owner(sf, 3)).run(sf, make())
                    )
                )
            for cpus, gpus in POOLS:
                for mname, kwargs in DYNAMIC_MODES.items():
                    out[f"dynamic/{wname}/{pname}/c{cpus}g{gpus}/{mname}"] = (
                        digest_dynamic(Dynamic(**kwargs(wname)).run(
                            sf, make(), make_worker_pool(cpus, gpus, model=model)
                        ))
                    )
                for gname, threshold in GANG.items():
                    out[f"static/{wname}/{pname}/c{cpus}g{gpus}/{gname}"] = (
                        digest_static(Static(threshold).run(
                            sf, make(), make_worker_pool(cpus, gpus, model=model)
                        ))
                    )
    return out


@pytest.fixture(scope="module")
def computed() -> dict[str, str]:
    return compute_all()


def test_every_axis_is_covered(computed):
    assert sorted(computed) == sorted(GOLDENS)
    for axis in ("cluster/", "dynamic/", "static/", "g0/", "g1/", "/slow",
                 "/budget", "/faults", "/striped-owner", "/gang", "/nogang"):
        assert any(axis in key for key in GOLDENS), axis


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_schedule_digest(computed, key):
    assert computed[key] == REPRICED.get(key, REWORDED.get(key, GOLDENS[key]))


def test_repriced_are_static_device_policies_on_gpu_poor_pools():
    """The digests this module lets differ from the parent are exactly
    the mispriced ones: the static scheduler, a device-capable policy, a
    pool with at least one worker that owns no GPU."""
    assert len(REPRICED) == 14
    for key, after in REPRICED.items():
        kind, _, policy, pool, _ = key.split("/")
        cpus, gpus = int(pool[1]), int(pool[3])
        assert kind == "static" and policy != "P1" and gpus < cpus, key
        assert after != GOLDENS[key], key



def test_reworded_are_dynamic_device_runs():
    """The digests the device-word charge moved are exactly the dynamic
    P4 runs on a pool with a GPU, and every unbudgeted one of them has a
    schedule pinned from before."""
    assert len(REWORDED) == 24 and not set(REWORDED) & set(REPRICED)
    for key, after in REWORDED.items():
        kind, _, policy, pool, mode = key.split("/")
        assert kind == "dynamic" and policy == "P4" and int(pool[3]) > 0, key
        assert after != GOLDENS[key], key
        assert (mode == "budget") == (key not in UNMOVED_SCHEDULES), key
    assert len(UNMOVED_SCHEDULES) == 16


@pytest.mark.parametrize("key", sorted(UNMOVED_SCHEDULES))
def test_unbudgeted_schedules_did_not_move(key):
    _, wname, pname, pool, mode = key.split("/")
    res = Dynamic(**DYNAMIC_MODES[mode](wname)).run(
        WORKLOADS[wname](), POLICIES[pname](),
        make_worker_pool(int(pool[1]), int(pool[3]), model=tesla_t10_model()),
    )
    assert digest_dynamic_schedule(res) == UNMOVED_SCHEDULES[key]


@pytest.mark.parametrize(
    "striped", [False, True], ids=["default-owner", "striped-owner"]
)
def test_pool_free_cluster_run_is_the_priced_fleet(striped):
    """A fleet run needs no pool when it has a spec: ``Cluster(spec,
    owner).run(sf, policy)`` is, digest for digest, the runtime the
    scheduled pricing pass keeps for the same executor over a pool."""
    sf = WORKLOADS["grid3d"]()
    spec = ClusterSpec(3, 1, model=tesla_t10_model())
    executor = Cluster(spec, _striped_owner(sf, 3) if striped else None)
    priced = parallel_schedule(
        sf, make_policy("P4"), make_worker_pool(2, 2), executor
    )
    alone = executor.run(sf, make_policy("P4"))
    assert digest_cluster(alone) == digest_cluster(priced.runtime)


if __name__ == "__main__":
    print(json.dumps(compute_all(), indent=0, sort_keys=True))
