"""The serial pricing pass against its per-front ``TaskGraph`` oracles.

:func:`repro.multifrontal.numeric.price_serial` plans each host shape
once per pass and advances its fronts in closed form, and prices a
resident placement (``flops_placement``) inline;
``tests/reference_pricing.py`` keeps the walk that scheduled one
``TaskGraph`` per front and the separate device-resident walk.
Everything a pass leaves must be the same bits: every record, the
makespan and assembly seconds (``pricing_digest``), the bases and kernel
seconds, every engine timeline, the node's clock, every GPU pool, the
pass kept on the symbolic factor and every ``ResidencyStats`` field.
"""

from __future__ import annotations

from dataclasses import astuple
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.gpu.device import SimulatedNode
from repro.matrices import elasticity_3d, grid_laplacian_2d, grid_laplacian_3d
from repro.matrices.testsuite import load_test_matrix
from repro.multifrontal import numeric
from repro.multifrontal.frontal import get_assembly_plan
from repro.multifrontal.numeric import price_serial
from repro.multifrontal.schur import partial_factorize
from repro.multifrontal.solver import SparseCholeskySolver
from repro.parallel import Cluster, Dynamic, Static, WorkerPool, parallel_schedule
from repro.policies import PolicyP4r, estimate_policy_time, flops_placement
from repro.policies.base import make_policy
from repro.symbolic import symbolic_factorize
from repro.symbolic.symbolic import factor_update_flops
from repro.workload import paper_workload
from tests.conftest import pricing_digest, starved_node
from tests.reference_pricing import reference_price_resident, reference_price_serial

MATRICES = {
    "grid2d": lambda: (grid_laplacian_2d(14, 13), "amd"),
    "elasticity": lambda: (elasticity_3d(4, 3, 3), "nd"),
    "lap3d_small": lambda: (grid_laplacian_3d(7, 7, 7), "nd"),
    "lmco_s": lambda: (load_test_matrix("lmco_s"), "nd"),
}
POLICIES = ("P1", "P4", "baseline", "model")
#: the default 4 GiB part, and one of 2 KiB that sends the larger fronts
#: of a device policy back to the host: host chains and device graphs
#: depending on each other
NODES = {
    "4GiB": lambda: SimulatedNode(n_cpus=1, n_gpus=1),
    "2KiB": lambda: starved_node(2048),
}


@pytest.fixture(scope="module")
def classifier():
    from repro.autotune import train_default_classifier
    from repro.gpu import tesla_t10_model

    return train_default_classifier(tesla_t10_model())


@pytest.fixture(scope="module")
def analysed():
    """One symbolic factor per matrix, built on first use."""
    cache = {}

    def get(name):
        if name not in cache:
            a, ordering = MATRICES[name]()
            cache[name] = (a, symbolic_factorize(a, ordering=ordering))
        return cache[name]

    return get


def _policy(a, sf, name, classifier):
    return SparseCholeskySolver.from_symbolic(
        a, sf, policy=name, classifier=classifier
    ).policy


def _node_state(node):
    """Every engine timeline (in the node's order), the clock, and every
    GPU pool's capacity, ``in_use`` and statistics."""
    return (
        [astuple(t) for t in node.engines.values()], node.now,
        [
            (getattr(p, "capacity", None), p.in_use, astuple(p.stats))
            for g in node.gpus for p in (g.device_pool, g.pinned_pool)
        ],
    )


def _outcome(priced):
    return (
        pricing_digest(priced), [b.name for b in priced.bases],
        priced.kernel_seconds, priced.order,
    )


def _assert_same_pass(sf, new_policy, make_node, spost=None, passes=1):
    """``passes`` successive passes on one node each side — from the
    second on, over engines a pass already advanced.  Returns the pass
    kept on ``sf`` by the first, if it kept one."""
    ref_node, node = make_node(), make_node()
    vars(sf).pop("_priced_pass", None)
    for i in range(passes):
        want = reference_price_serial(sf, new_policy(), ref_node, spost)
        got = price_serial(sf, new_policy(), node, spost)
        assert _outcome(got) == _outcome(want)
        assert _node_state(node) == _node_state(ref_node)
        if i == 0:
            slot = getattr(sf, "_priced_pass", None)
            if slot is not None:
                # a pure pass is kept with the oracle's end state, and a
                # hit on a fresh node reads as the oracle's pass
                assert slot.outcome is got
                engines, _, pools = _node_state(ref_node)
                assert list(slot.engines) == engines and list(slot.pools) == pools
                again = make_node()
                hit = price_serial(sf, new_policy(), again, spost)
                assert hit is got and _node_state(again) == _node_state(ref_node)
    # a pass over advanced engines is not what gets kept
    assert getattr(sf, "_priced_pass", None) is slot
    return slot


@pytest.mark.parametrize("node", sorted(NODES))
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("matrix", sorted(MATRICES))
def test_price_serial_matches_the_per_front_walk(
    matrix, policy, node, analysed, classifier
):
    a, sf = analysed(matrix)
    slot = _assert_same_pass(
        sf, lambda: _policy(a, sf, policy, classifier), NODES[node]
    )
    # every policy here is a value, the selectors too: on a fresh node
    # its pass is kept
    assert slot is not None


@pytest.mark.parametrize("policy", ("P1", "P4", "baseline"))
def test_node_with_advanced_engines(policy, analysed, classifier):
    a, sf = analysed("lap3d_small")
    for make_node in NODES.values():
        _assert_same_pass(
            sf, lambda: _policy(a, sf, policy, classifier), make_node, passes=3
        )


@pytest.mark.parametrize("policy", ("P1", "P4"))
def test_schur_prefix_order(policy, analysed, classifier):
    a, sf = analysed("lap3d_small")
    make = lambda: _policy(a, sf, policy, classifier)  # noqa: E731
    for n_eliminate in (sf.n // 3, sf.n // 2, sf.n - 1):
        boundary = int(np.searchsorted(sf.super_ptr, n_eliminate, side="right")) - 1
        prefix = sf.spost[sf.spost < boundary]
        _assert_same_pass(sf, make, NODES["4GiB"], spost=prefix)
        # and through partial_factorize, which prices that prefix
        ref_node, node = SimulatedNode(), SimulatedNode()
        want = reference_price_serial(sf, make(), ref_node, prefix)
        vars(sf).pop("_priced_pass", None)
        pf = partial_factorize(a, sf, make(), n_eliminate, node=node)
        assert pf.records == list(want.records) and pf.makespan == want.makespan
        assert pricing_digest(want) == pricing_digest(
            SimpleNamespace(records=pf.records, makespan=pf.makespan,
                            assembly_seconds=want.assembly_seconds)
        )
        assert _node_state(node) == _node_state(ref_node)


def test_lmco_s_cold_pricing_counts():
    """A cold P1 pass on ``lmco_s``/nd plans each of its host shapes once
    and schedules no graph: 0 ``schedule_graph`` calls (one per front
    before) and one ``TaskGraph`` per distinct (m, k), 186 for
    1 983 fronts."""
    a = load_test_matrix("lmco_s")
    sf = symbolic_factorize(a, ordering="nd")
    with mock.patch.object(
        numeric, "schedule_graph", wraps=numeric.schedule_graph
    ) as sched, mock.patch.object(
        numeric, "TaskGraph", wraps=numeric.TaskGraph
    ) as graphs:
        priced = price_serial(sf, make_policy("P1"), SimulatedNode())
    shapes = {tuple(mk) for mk in sf.mk_pairs().tolist()}
    assert sf.n_supernodes == len(priced.records) == 1983
    assert sched.call_count == 0
    assert graphs.call_count == len(shapes) == 186


@pytest.mark.parametrize("policy", ("baseline", "model"))
def test_lmco_s_resolution_counts(policy, classifier):
    """A selector decides once per distinct (m, k): a cold ``lmco_s``/nd
    pass calls ``choose`` 186 times for 1 983 fronts, and a warm
    refactorize decides and prices nothing."""
    a = load_test_matrix("lmco_s")
    solver = SparseCholeskySolver(
        a, ordering="nd", policy=policy, classifier=classifier
    ).analyze()
    cls = type(solver.policy)
    choose = cls.choose
    calls: list[tuple[int, int]] = []

    def counted(self, m, k):
        calls.append((m, k))
        return choose(self, m, k)

    with mock.patch.object(cls, "choose", counted), mock.patch.object(
        numeric.PricedPass, "of", wraps=numeric.PricedPass.of
    ) as passes:
        solver.factorize()
        assert passes.call_count == 1
        shapes = {tuple(mk) for mk in solver.symbolic.mk_pairs().tolist()}
        assert solver.symbolic.n_supernodes == 1983
        assert sorted(calls) == sorted(shapes) and len(calls) == 186
        solver.refactorize(a.data * 2.0)
    assert len(calls) == 186 and passes.call_count == 1


#: the resident placements of ``tests/test_device_resident.py``'s
#: goldens: flops threshold and node (``spill``: a GPU of 8 KiB)
RESIDENT = {
    "1e4": (1e4, SimulatedNode),
    "1e5": (1e5, SimulatedNode),
    "2e6": (2e6, SimulatedNode),
    "spill": (1e4, lambda: starved_node(8 * 1024)),
}
RESIDENT_MATRICES = {
    "g3d": lambda: (grid_laplacian_3d(8, 8, 8), "nd"),
    "el3d": lambda: (elasticity_3d(6, 6, 5), "amd"),
}


def _above(threshold):
    """The old walk's placement callable: device from ``threshold`` up."""
    return lambda m, k: sum(factor_update_flops(m, k)) >= threshold


def _assert_same_resident_pass(sf, policy, place_on_device, make_node, plan):
    ref_node, node = make_node(), make_node()
    want, stats = reference_price_resident(sf, ref_node, place_on_device, plan)
    got = price_serial(sf, policy, node, plan=plan)
    # the old walk ran its device fronts under plain ``PolicyP4``
    assert [b.name for b in got.bases] == [
        "P4r" if b.name == "P4" else b.name for b in want.bases
    ]
    assert (got.kernel_seconds, got.order) == (want.kernel_seconds, want.order)
    assert astuple(got.residency) == astuple(stats)
    assert pricing_digest(got, got.residency) == pricing_digest(want, stats)
    assert _node_state(node) == _node_state(ref_node)
    # a resident pass reads ``plan``: it is never kept
    assert getattr(sf, "_priced_pass", None) is None
    return got


@pytest.fixture(scope="module")
def resident_analysed():
    cache = {}

    def get(name):
        if name not in cache:
            a, ordering = RESIDENT_MATRICES[name]()
            sf = symbolic_factorize(a, ordering=ordering)
            cache[name] = (sf, get_assembly_plan(a, sf))
        return cache[name]

    return get


@pytest.mark.parametrize("placement", sorted(RESIDENT))
@pytest.mark.parametrize("matrix", sorted(RESIDENT_MATRICES))
def test_resident_placement_matches_the_resident_walk(
    matrix, placement, resident_analysed
):
    sf, plan = resident_analysed(matrix)
    threshold, make_node = RESIDENT[placement]
    got = _assert_same_resident_pass(
        sf, flops_placement(threshold), _above(threshold), make_node, plan
    )
    assert (got.residency.n_spills > 0) == (placement == "spill")


def test_resident_placement_at_paper_scale():
    """No matrix, so no plan: a front uploads one entry of A per row."""
    got = _assert_same_resident_pass(
        paper_workload("lmco"), flops_placement(), _above(2e6),
        SimulatedNode, None,
    )
    assert got.makespan == 105.97516584893178


def test_resident_schur_prefix_downloads_its_crossing_updates():
    """A resident pass over a prefix order (``partial_factorize``) ends
    with one download per update still on the device, where the host
    Schur complement folds it: ``d2h_bytes`` is every panel's download
    plus exactly those updates' bytes, and the D2H engine ran one task
    for each."""
    a = grid_laplacian_3d(8, 8, 8)
    sf = symbolic_factorize(a, ordering="nd")
    node = SimulatedNode()
    pf = partial_factorize(a, sf, flops_placement(0.0), sf.n // 2, node=node)
    word = node.model.gpu_word
    prefix = [r.sid for r in pf.records]
    assert {r.policy for r in pf.records} == {"P4r"}
    crossing = [s for s in prefix if sf.sparent[s] not in prefix]
    panels = sum((r.k * r.k + r.m * r.k) * word for r in pf.records)
    updates = sum(sf.update_size(s) ** 2 * word for s in crossing)
    stats = pf.residency
    assert (stats.n_spills, stats.n_device_supernodes) == (0, len(prefix))
    assert stats.d2h_bytes == panels + updates and updates == 23_936
    d2h = node.engines[node.gpus[0].d2h_engine]
    assert d2h.n_tasks == len(prefix) + len(crossing)
    # the factored block and its Schur complement are P4's
    p4 = partial_factorize(a, sf, make_policy("P4"), sf.n // 2)
    assert np.array_equal(pf.schur, p4.schur)


def test_a_pass_that_read_the_plan_is_not_handed_out(resident_analysed):
    """``PolicyP4r`` on its own is a plain-scalar policy on a fresh node,
    the kind of pass that is kept per pattern; but its uploads depend on
    ``plan``, so a pass priced with the plan must not answer one priced
    without it (or the other way round)."""
    sf, plan = resident_analysed("g3d")
    vars(sf).pop("_priced_pass", None)
    everywhere = lambda m, k: True  # noqa: E731
    with_plan = _assert_same_resident_pass(
        sf, PolicyP4r(), everywhere, SimulatedNode, plan
    )
    without = _assert_same_resident_pass(
        sf, PolicyP4r(), everywhere, SimulatedNode, None
    )
    assert with_plan.residency.h2d_bytes != without.residency.h2d_bytes


@pytest.mark.parametrize(
    "executor", [Static(), Dynamic(), Cluster()], ids=["static", "dynamic", "cluster"]
)
@pytest.mark.parametrize(
    "policy", [PolicyP4r, lambda: flops_placement(0.0)], ids=["P4r", "placement"]
)
def test_only_the_serial_pass_prices_residency(executor, policy, resident_analysed):
    """Every other pricer prices a base through its ``plan``, and a
    resident base has none: it raises rather than price as plain P4."""
    sf, _ = resident_analysed("g3d")
    node = SimulatedNode(n_cpus=2, n_gpus=2)
    with pytest.raises(TypeError, match="P4r"):
        parallel_schedule(sf, policy(), WorkerPool.over(node), executor)
    with pytest.raises(TypeError, match="P4r"):
        estimate_policy_time(PolicyP4r(), 40, 20, node.model)
