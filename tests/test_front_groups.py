"""Every front is a group: the numerics pass computes each front as a
slice of a ``(B, size, size)`` stack, most of them groups of one, and the
sweeps step group by group.  Grouping changes only dispatch: which leaves
share a stack moves no panel bit, no ``x`` bit, no record and no virtual
second.  These tests pin what that rests on (a one-slice stack computes
the bits of the 2-D call), the regrouping property, and a group whose
members a fault degraded to different policies."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import SimulatedNode
from repro.matrices import grid_laplacian_2d, load_test_matrix
from repro.multifrontal import SparseCholeskySolver, solve_factored
from repro.multifrontal.batched import BatchGroup, batch_groups
from repro.multifrontal.frontal import assemble_front_planned, get_assembly_plan
from repro.multifrontal.numeric import postorder_numeric_factor
from repro.parallel import make_worker_pool, parallel_schedule
from repro.parallel.scheduler import Dynamic
from repro.policies import make_policy
from repro.policies.base import PolicyP4, Worker
from repro.runtime import FaultInjector
from repro.symbolic import symbolic_factorize
from repro.verify.lattice import factor_fingerprint
from tests.test_property_based import assert_factor_sweeps_match_reference, spd_matrix


def spd_front(size: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed).normal(size=(size, size))
    return g @ g.T + size * np.eye(size)


class TestGroupsOfOne:
    """The preconditions of a group of one, pinned so that a numpy or
    BLAS upgrade that breaks them fails here, loudly, and not as a moved
    golden: ``apply`` on a ``(1, size, size)`` stack and the sweep
    products on one slice carry the bits of the 2-D calls."""

    #: (m, k): no rows below the pivots, a small front, a blocked rank-k
    #: update (m >= 256), a pivot block of several diagonal blocks, and
    #: one wider than the P4 panel (several Figure-9 panels)
    SHAPES = [(0, 5), (0, 100), (7, 3), (300, 20), (40, 70), (10, 300), (260, 40)]

    @pytest.mark.parametrize("policy", ["P1", "P2", "P3", "P4"])
    @pytest.mark.parametrize("m,k", SHAPES)
    def test_one_slice_apply_is_the_2d_apply(self, policy, m, k):
        worker = Worker.canonical(SimulatedNode())
        base = make_policy(policy)
        front = spd_front(m + k, 1000 * m + k)
        panel, u = base.apply(front.copy(), k, worker)
        panels, us = base.apply(front.copy()[None], k, worker)
        assert panels.shape == (1, m + k, k) and us.shape == (1, m, m)
        assert panels.dtype == panel.dtype and us.dtype == u.dtype
        assert np.array_equal(panels[0], panel)
        assert np.array_equal(np.tril(us[0]), np.tril(u))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("nrhs", [1, 3])
    @pytest.mark.parametrize("m,k", [(5, 3), (50, 32), (400, 30), (1000, 200)])
    def test_one_slice_sweep_products_are_the_2d_ones(self, m, k, nrhs, dtype):
        rng = np.random.default_rng(m + k + nrhs)
        l2 = rng.normal(size=(m, k)).astype(dtype)
        w = rng.normal(size=(k, k)).astype(dtype)
        yk = rng.normal(size=(k, nrhs)).astype(dtype)
        yb = rng.normal(size=(m, nrhs)).astype(dtype)

        def plain(x):   # what the 2-D sweep multiplies: a vector for one rhs
            return x[:, 0] if nrhs == 1 else x

        def as_cols(x):
            return x[:, None] if nrhs == 1 else x

        # the forward panel product, written into the float64 buffer
        products = np.empty((m, nrhs))
        np.matmul(l2[None], yk[None], out=products.reshape(1, m, nrhs))
        assert np.array_equal(products, as_cols(l2 @ plain(yk)).astype(np.float64))
        # the backward (transposed) panel product and the diagonal products
        assert np.array_equal((l2[None].mT @ yb[None])[0], as_cols(l2.T @ plain(yb)))
        assert np.array_equal((w[None] @ yk[None])[0], as_cols(w @ plain(yk)))
        assert np.array_equal((w[None].mT @ yk[None])[0], as_cols(w.T @ plain(yk)))


def regroupings(sf, how: str, seed: int) -> list[BatchGroup]:
    """The stacked leaf groups of ``sf`` regrouped: the leaves of one
    front shape as one group each (``singletons``), all in one group
    (``chunk``), or split into random subsets (``random``); ``none``
    stacks nothing."""
    by_shape: dict[tuple[int, int], list[int]] = {}
    for g in batch_groups(sf):
        by_shape.setdefault((g.size, g.k), []).extend(g.sids)
    rng = np.random.default_rng(seed)
    groups = []
    for (size, k), sids in sorted(by_shape.items()):
        sids = sorted(sids)
        if how == "singletons":
            parts = [[s] for s in sids]
        elif how == "chunk":
            parts = [sids]
        elif how == "random":
            label = rng.integers(0, 1 + len(sids) // 2, size=len(sids))
            parts = [[s for s, x in zip(sids, label) if x == j] for j in np.unique(label)]
        else:
            parts = []
        groups += [BatchGroup(size, k, tuple(p)) for p in parts]
    return groups


def factor(a, sf, policy: str):
    kwargs = dict(policy=policy)
    if policy == "P4":
        kwargs.update(backend="dynamic", node=SimulatedNode(n_cpus=2, n_gpus=2))
    return SparseCholeskySolver.from_symbolic(a, sf, **kwargs).factorize().factor


def assert_grouping_changes_only_dispatch(a, ordering: str, policy: str, how: str, seed: int):
    sf = symbolic_factorize(a, ordering=ordering)
    want = factor(a, sf, policy)
    regrouped = dataclasses.replace(sf)       # no plan or pass kept on it
    regrouped._batch_groups = regroupings(sf, how, seed)
    got = factor(a, regrouped, policy)
    assert got.batch_tasks == sum(len(g) > 1 for g in regrouped._batch_groups)
    for p, q in zip(got.panels, want.panels, strict=True):
        assert p.dtype == q.dtype and np.array_equal(p, q)
    assert factor_fingerprint(got) == factor_fingerprint(want)
    assert got.records == want.records
    assert got.makespan == want.makespan
    assert got.peak_update_bytes == want.peak_update_bytes
    rng = np.random.default_rng(seed)
    for b in (rng.normal(size=a.n_rows), rng.normal(size=(a.n_rows, 3))):
        assert np.array_equal(solve_factored(got, b), solve_factored(want, b))


HOW = st.sampled_from(["none", "singletons", "chunk", "random"])


class TestGroupingChangesOnlyDispatch:
    """Replacing the symbolic factor's leaf groups by any regrouping of
    same-shape leaves leaves the panels, ``x``, the fingerprint, the
    records and the virtual makespan as they are."""

    @settings(max_examples=15, deadline=None)
    @given(spd_matrix(max_n=60), st.sampled_from(["P1", "P4"]), HOW, st.integers(0, 1000))
    def test_random_matrices(self, a, policy, how, seed):
        assert_grouping_changes_only_dispatch(a, "nd", policy, how, seed)

    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from(["P1", "P4"]), HOW, st.integers(0, 1000))
    def test_grid(self, policy, how, seed):
        assert_grouping_changes_only_dispatch(grid_laplacian_2d(30, 28), "amd", policy, how, seed)


@pytest.mark.parametrize("rate,batch_tasks,batched_fronts,degraded", [
    # 16 of the 18 leaf groups mix P4 and its P1 fallback; each was
    # computed front by front before (2 stacked calls, 14 fronts)
    (0.15, 31, 1617, 61),
    # all 18 mixed (0 stacked calls before)
    (0.5, 34, 1618, 539),
])
def test_lmco_s_mixed_policy_groups_run_stacked(rate, batch_tasks, batched_fronts, degraded):
    """lmco_s/nd, P4 on the event-driven runtime (2 CPUs + 2 GPUs) with
    kernel faults: a leaf group whose members run under different base
    policies is one stacked ``apply`` per policy, its panels widened into
    one float64 stack, and every slice carries the bits of its member's
    own ``apply``."""
    a = load_test_matrix("lmco_s")
    sf = symbolic_factorize(a, ordering="nd")
    pool = make_worker_pool(2, 2)
    faults = FaultInjector(kernel_failure_rate=rate, seed=5)
    priced = parallel_schedule(sf, make_policy("P4"), pool, Dynamic(faults=faults))
    nf = postorder_numeric_factor(a, sf, priced, pool.node)
    assert sum(b.name == "P1" for b in priced.bases) == degraded
    assert (nf.batch_tasks, nf.batched_fronts) == (batch_tasks, batched_fronts)

    worker = Worker.canonical(pool.node)
    plan = get_assembly_plan(a, sf)
    mixed = 0
    for g in plan.groups:
        names = {priced.bases[s].name for s in g.sids}
        mixed += len(names) > 1
        want = np.float64 if len(names) > 1 else np.float32
        assert nf.stacks[g.sids[0]].dtype == want
        for s in g.sids:
            front = assemble_front_planned(plan, a.data, g.size, s, [])
            panel, _ = priced.bases[s].apply(front, g.k, worker)
            assert panel.dtype == (np.float32 if isinstance(priced.bases[s], PolicyP4)
                                   else np.float64)
            assert nf.panels[s].dtype == want
            assert np.array_equal(nf.panels[s], panel)
    assert mixed == (16 if rate == 0.15 else 18)
    # the solve applies a mixed group in float64, bit for bit the plain loop
    assert_factor_sweeps_match_reference(nf)
