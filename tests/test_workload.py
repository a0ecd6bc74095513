"""Geometric ND workload generator: structure, calibration, scheduling."""

import numpy as np
import pytest

from repro.parallel import Static, make_worker_pool
from repro.policies import make_policy
from repro.symbolic.etree import NO_PARENT
from repro.workload import PAPER_WORKLOADS, geometric_nd_workload, paper_workload


class TestGenerator:
    def test_column_count_matches_grid(self):
        sf = geometric_nd_workload(6, 5, 4, dof=2)
        assert sf.n == 6 * 5 * 4 * 2

    def test_single_cell(self):
        sf = geometric_nd_workload(1, 1, 1)
        assert sf.n == 1
        assert sf.n_supernodes == 1
        assert sf.sparent[0] == NO_PARENT

    def test_leaf_only_when_small(self):
        sf = geometric_nd_workload(4, 4, 4, leaf_cells=64)
        assert sf.n_supernodes == 1

    def test_tree_is_binaryish_forest_with_one_root(self):
        sf = geometric_nd_workload(8, 8, 8, leaf_cells=8)
        roots = [s for s in range(sf.n_supernodes) if sf.sparent[s] == NO_PARENT]
        assert len(roots) == 1
        kids = sf.schildren()
        for s in range(sf.n_supernodes):
            assert len(kids[s]) <= 2

    def test_root_is_separator_of_whole_box(self):
        sf = geometric_nd_workload(10, 10, 10, leaf_cells=8)
        root = int(np.flatnonzero(sf.sparent == NO_PARENT)[0])
        # root separator: a 10x10 plane; no update rows (m = 0)
        assert sf.width(root) == 100
        assert sf.update_size(root) == 0

    def test_dof_scales_widths(self):
        s1 = geometric_nd_workload(8, 8, 8, dof=1, leaf_cells=8)
        s3 = geometric_nd_workload(8, 8, 8, dof=3, leaf_cells=8)
        assert s3.n == 3 * s1.n
        assert s3.n_supernodes == s1.n_supernodes
        mk1, mk3 = s1.mk_pairs(), s3.mk_pairs()
        assert np.array_equal(mk3, mk1 * 3)

    def test_parents_have_larger_columns(self):
        sf = geometric_nd_workload(9, 7, 5, leaf_cells=8)
        for s in range(sf.n_supernodes):
            p = sf.sparent[s]
            if p != NO_PARENT:
                assert sf.super_ptr[p] >= sf.super_ptr[s + 1]

    def test_etree_consistent_with_supernodes(self):
        sf = geometric_nd_workload(6, 6, 6, leaf_cells=8)
        # within a supernode: chain; at the end: parent supernode's first col
        for s in range(sf.n_supernodes):
            f, l = int(sf.super_ptr[s]), int(sf.super_ptr[s + 1])
            for j in range(f, l - 1):
                assert sf.etree.parent[j] == j + 1
            p = sf.sparent[s]
            expect = NO_PARENT if p == NO_PARENT else sf.super_ptr[p]
            assert sf.etree.parent[l - 1] == expect

    def test_2d_grids_supported(self):
        sf = geometric_nd_workload(32, 32, 1, leaf_cells=8)
        assert sf.n_supernodes > 1
        # 2-D root separator is a line of <= 32 cells
        root = int(np.flatnonzero(sf.sparent == NO_PARENT)[0])
        assert sf.width(root) <= 32

    def test_flops_grow_superlinearly_in_3d(self):
        f1 = geometric_nd_workload(16, 16, 16).total_flops()
        f2 = geometric_nd_workload(32, 32, 32).total_flops()
        # 3-D ND flops scale ~ n^2 = 64x for 8x the unknowns
        assert f2 > 20 * f1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            geometric_nd_workload(0, 2, 2)
        with pytest.raises(ValueError):
            geometric_nd_workload(2, 2, 2, dof=0)

    def test_marked_synthetic(self):
        sf = geometric_nd_workload(4, 4, 4)
        assert sf.ordering == "synthetic-geometric"


class TestPaperCalibration:
    @pytest.mark.parametrize("spec", PAPER_WORKLOADS, ids=lambda s: s.name)
    def test_n_within_3pct_of_table2(self, spec):
        assert spec.n == pytest.approx(spec.paper_n, rel=0.03)

    @pytest.mark.parametrize("spec", PAPER_WORKLOADS, ids=lambda s: s.name)
    def test_root_front_within_12pct_of_table5(self, spec):
        assert spec.root_k == pytest.approx(spec.paper_root_k, rel=0.12)

    def test_built_root_matches_spec(self):
        spec = PAPER_WORKLOADS[0]
        sf = spec.build()
        mk = sf.mk_pairs()
        root_rows = mk[mk[:, 0] == 0]
        assert int(root_rows[:, 1].max()) == spec.root_k

    def test_lookup_by_either_name(self):
        a = paper_workload("audikw_1")
        assert a.n > 9e5
        with pytest.raises(KeyError):
            paper_workload("unknown")

    def test_small_call_dominance(self):
        # the paper's 97%-of-calls-small observation must hold for the
        # synthetic trees too
        sf = paper_workload("kyushu")
        mk = sf.mk_pairs()
        small = ((mk[:, 1] <= 500) & (mk[:, 0] <= 1000)).mean()
        assert small > 0.9


class TestScheduling:
    def test_schedulable_end_to_end(self):
        sf = geometric_nd_workload(12, 12, 12, leaf_cells=8)
        pool = make_worker_pool(2, 1)
        res = Static().run(sf, make_policy("P1"), pool)
        assert res.makespan > 0
        assert len(res.schedule) == sf.n_supernodes

    def test_gpu_hybrid_beats_host_at_scale(self, model):
        sf = paper_workload("lmco")
        single = Static(gang_threshold=np.inf)
        serial = single.run(
            sf, make_policy("P1"), make_worker_pool(1, 0, model=model)
        ).makespan
        gpu = single.run(
            sf, make_policy("P3"), make_worker_pool(1, 1, model=model)
        ).makespan
        assert serial / gpu > 3.0
