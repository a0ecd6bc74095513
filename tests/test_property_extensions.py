"""Property-based tests for the scheduling, workload, cluster and stack
subsystems (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import (
    ClusterSpec,
    map_subtrees_to_ranks,
    update_message_bytes,
)
from repro.gpu import tesla_t10_model
from repro.gpu.clock import TaskGraph, schedule_graph
from repro.parallel import Cluster
from repro.policies import Worker, estimate_policy_time, make_policy
from repro.symbolic.etree import NO_PARENT
from repro.symbolic.stack import (
    estimate_peak_update_bytes,
    stack_minimizing_postorder,
    update_bytes,
)
from repro.workload import geometric_nd_workload

MODEL = tesla_t10_model()


@st.composite
def grid_dims(draw, lo=1, hi=14):
    return (
        draw(st.integers(lo, hi)),
        draw(st.integers(lo, hi)),
        draw(st.integers(lo, hi)),
    )


class TestWorkloadProperties:
    @given(grid_dims(), st.integers(1, 3), st.sampled_from([4, 16, 64]))
    def test_structure_consistency(self, dims, dof, leaf):
        sf = geometric_nd_workload(*dims, dof=dof, leaf_cells=leaf)
        # column count conservation
        assert sf.n == dims[0] * dims[1] * dims[2] * dof
        # supernodes partition the columns
        assert sf.super_ptr[0] == 0 and sf.super_ptr[-1] == sf.n
        assert (np.diff(sf.super_ptr) > 0).all()
        # tree: children have smaller column ranges than parents
        for s in range(sf.n_supernodes):
            p = sf.sparent[s]
            if p != NO_PARENT:
                assert sf.super_ptr[p] >= sf.super_ptr[s + 1]
        # roots carry no update rows
        for s in range(sf.n_supernodes):
            if sf.sparent[s] == NO_PARENT:
                assert sf.update_size(s) == 0

    @given(grid_dims(2, 10))
    def test_etree_postorder_roundtrip(self, dims):
        sf = geometric_nd_workload(*dims, leaf_cells=8)
        # the fabricated column etree must be a forest whose postorder
        # visits every column once
        assert np.array_equal(np.sort(sf.etree.post), np.arange(sf.n))


class TestStackProperties:
    @given(grid_dims(2, 10))
    def test_liu_order_never_worse(self, dims):
        sf = geometric_nd_workload(*dims, leaf_cells=8)
        default = estimate_peak_update_bytes(sf)
        optimized = estimate_peak_update_bytes(
            sf, stack_minimizing_postorder(sf)
        )
        assert optimized <= default

    @given(grid_dims(2, 10))
    def test_peak_at_least_largest_update(self, dims):
        sf = geometric_nd_workload(*dims, leaf_cells=8)
        biggest = max(update_bytes(sf, s) for s in range(sf.n_supernodes))
        assert estimate_peak_update_bytes(sf) >= biggest


class TestClusterProperties:
    @given(grid_dims(3, 9), st.integers(1, 6))
    def test_mapping_total_and_range(self, dims, n_ranks):
        sf = geometric_nd_workload(*dims, leaf_cells=8)
        owner = map_subtrees_to_ranks(sf, n_ranks)
        assert owner.shape == (sf.n_supernodes,)
        assert owner.min() >= 0 and owner.max() < n_ranks

    @given(st.integers(1, 4))
    def test_more_ranks_never_slower(self, doubling):
        sf = geometric_nd_workload(10, 10, 10, leaf_cells=8)
        pol = make_policy("P1")
        t1 = Cluster(ClusterSpec(1, 0, model=MODEL)).run(sf, pol).makespan
        tn = Cluster(ClusterSpec(2**doubling, 0, model=MODEL)).run(
            sf, pol
        ).makespan
        # communication can eat gains but never below ~the serial bound
        assert tn <= t1 * 1.05

    @given(grid_dims(3, 8))
    def test_comm_conservation(self, dims):
        sf = geometric_nd_workload(*dims, leaf_cells=8)
        res = Cluster(ClusterSpec(3, 0, model=MODEL)).run(
            sf, make_policy("P1")
        )
        # bytes and messages agree with the owner map
        owner = res.owner
        shipped = [
            sf.update_size(s)
            for s in range(sf.n_supernodes)
            if sf.sparent[s] != NO_PARENT
            and owner[sf.sparent[s]] != owner[s]
            and sf.update_size(s) > 0
        ]
        assert res.comm_messages == len(shipped)
        assert res.comm_bytes == sum(update_message_bytes(m) for m in shipped)


class TestPolicyEstimateProperties:
    @given(st.integers(0, 3000), st.integers(1, 2000))
    def test_estimates_positive_and_finite(self, m, k):
        for name in ("P1", "P2", "P3", "P4"):
            t = estimate_policy_time(make_policy(name), m, k, MODEL)
            assert np.isfinite(t) and t > 0

    @given(st.integers(1, 1500), st.integers(1, 800))
    def test_p1_monotone_in_each_dimension(self, m, k):
        p1 = make_policy("P1")
        t = estimate_policy_time(p1, m, k, MODEL)
        assert estimate_policy_time(p1, m + 100, k, MODEL) >= t
        assert estimate_policy_time(p1, m, k + 100, MODEL) >= t

    @given(st.integers(16, 1024))
    def test_root_call_p4_beats_p3_for_large_k(self, k):
        # at m = 0 policies P2/P3 degenerate to host potrf, so for large
        # k the on-device blocked potrf (P4) must win
        if k < 600:
            return
        t3 = estimate_policy_time(make_policy("P3"), 0, k, MODEL)
        t4 = estimate_policy_time(make_policy("P4"), 0, k, MODEL)
        assert t4 < t3


class TestScheduleGraphProperties:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b"]), st.floats(0, 2)),
            min_size=1, max_size=15,
        )
    )
    def test_makespan_bounds(self, spec):
        g = TaskGraph()
        prev = None
        for i, (eng, dur) in enumerate(spec):
            deps = (prev,) if (prev is not None and i % 3 == 0) else ()
            prev = g.add(f"t{i}", eng, dur, deps)
        res = schedule_graph(g)
        total = sum(d for _, d in spec)
        longest = max((d for _, d in spec), default=0.0)
        assert longest - 1e-12 <= res.makespan <= total + 1e-12
