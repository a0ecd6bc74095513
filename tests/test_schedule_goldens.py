"""Schedule goldens: what the three schedulers produce, digested.

``GOLDENS`` (``tests/schedule_goldens.json``) was computed at parent
commit ``37be3af23204f6d39dd1173b0f21a8455fcbaaef`` — before the cluster
event loop was folded into :mod:`repro.runtime.engine` and before
``list_schedule`` was priced by the shared ``TaskPricer`` — by running
``python tests/test_schedule_goldens.py`` there.  Each entry is the
leading 16 hex digits of a SHA-256 over, bit for bit (floats as
``float.hex``): the makespan, every ``ScheduledTask``, the busy list;
for the event-driven runs also every span; for ``dynamic_schedule`` the
``RuntimeStats`` and the degraded set; for ``cluster_replay`` the owner
map, every ``Message``, the NIC busy list and the comm totals (the
parent's cluster result carried no ``RuntimeStats``, so none is
digested for it).

The axes: pinned (``cluster_replay``, default and custom ``owner=``) vs
migrating (``dynamic_schedule``) vs static (``list_schedule``); GPU-less,
mixed and all-GPU worker sets; P1 / P4 / P_BH; fast and slow network;
admission budget; injected faults; gang scheduling on and off.

``REPRICED`` lists the only digests that differ from the parent: static
schedules on GPU-less or mixed pools under a device-capable policy,
which the parent priced at device speed on workers that own no GPU.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterSpec, InterconnectParams, cluster_replay
from repro.gpu.perfmodel import tesla_t10_model
from repro.matrices import grid_laplacian_3d
from repro.parallel import list_schedule, make_worker_pool
from repro.policies import BaselineHybrid, make_policy
from repro.runtime import FaultInjector, dynamic_schedule
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

#: the 14 digests that moved in the PR that made ``list_schedule`` price
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
                        spec = ClusterSpec(ranks, gpus, model=model, interconnect=net)
                        out[f"cluster/{wname}/{pname}/r{ranks}g{gpus}/{nname}"] = (
                            digest_cluster(cluster_replay(sf, make(), spec))
                        )
            for gpus in (0, 1):
                spec = ClusterSpec(3, gpus, model=model)
                out[f"cluster/{wname}/{pname}/r3g{gpus}/striped-owner"] = (
                    digest_cluster(cluster_replay(
                        sf, make(), spec, owner=_striped_owner(sf, 3)
                    ))
                )
            for cpus, gpus in POOLS:
                for mname, kwargs in DYNAMIC_MODES.items():
                    out[f"dynamic/{wname}/{pname}/c{cpus}g{gpus}/{mname}"] = (
                        digest_dynamic(dynamic_schedule(
                            sf, make(), make_worker_pool(cpus, gpus, model=model),
                            **kwargs(wname),
                        ))
                    )
                for gname, threshold in GANG.items():
                    out[f"static/{wname}/{pname}/c{cpus}g{gpus}/{gname}"] = (
                        digest_static(list_schedule(
                            sf, make(), make_worker_pool(cpus, gpus, model=model),
                            gang_threshold=threshold,
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
    assert computed[key] == REPRICED.get(key, GOLDENS[key])


def test_repriced_are_static_device_policies_on_gpu_poor_pools():
    """The digests this module lets differ from the parent are exactly
    the mispriced ones: ``list_schedule``, a device-capable policy, a
    pool with at least one worker that owns no GPU."""
    assert len(REPRICED) == 14
    for key, after in REPRICED.items():
        kind, _, policy, pool, _ = key.split("/")
        cpus, gpus = int(pool[1]), int(pool[3])
        assert kind == "static" and policy != "P1" and gpus < cpus, key
        assert after != GOLDENS[key], key


if __name__ == "__main__":
    print(json.dumps(compute_all(), indent=0, sort_keys=True))
