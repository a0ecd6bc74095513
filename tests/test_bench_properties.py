"""Property-based invariants behind the bench gate (hypothesis).

The committed ``BENCH_*.json`` baselines hard-fail on any
deterministic-counter change, so the harness leans on two empirical
facts about the engine, pinned here over *random* SPD matrices rather
than the handful of fixed scenarios:

* **cross-backend invariance** — flop totals, call counts and the
  factor itself (bitwise, via the BLAKE2b fingerprint) are identical
  whether the tree is walked serially, by the static partitioner or by
  the dynamic scheduler.  Simulated makespans are *not* bitwise
  invariant across backends (float reassociation under different
  scheduling orders), so they are only required to agree loosely.
* **cluster node-count invariance** — the fan-both cluster backend
  produces the same factor bytes at any fleet size (1, 2 or 4 nodes)
  as the serial walk; only the timing schedule changes.
* **run-to-run stability** — repeating the same configuration must
  reproduce every counter bit for bit, including the makespan and the
  allocator high-water marks.  This is the property the repeat-checker
  in :mod:`repro.bench.runner` enforces on every bench run.
"""

from __future__ import annotations

import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import SimulatedNode
from repro.gpu.allocator import DeviceMemoryError
from repro.gpu.clock import TaskGraph, engine_counters, schedule_graph
from repro.matrices import elasticity_3d, grid_laplacian_2d, random_spd
from repro.matrices.csc import csc_from_dense
from repro.multifrontal import (
    SparseCholeskySolver,
    batched,
    factorize_numeric,
    frontal,
    numeric,
)
from repro.multifrontal.frontal import (
    assemble_front_planned,
    assemble_group,
    assembly_bytes,
    get_assembly_plan,
)
from repro.multifrontal.numeric import FURecord, device_kernels, price_serial
from repro.policies import make_policy
from repro.gpu.perfmodel import tesla_t10_model
from repro.policies.base import PolicyP1, PolicyP4, Worker
from repro.symbolic import amalgamation_preset, symbolic_factorize
from repro.symbolic.stack import stack_minimizing_postorder
from repro.symbolic.symbolic import factor_update_flops
from repro.verify.lattice import factor_fingerprint
from repro.workload import paper_workload
from tests.conftest import pricing_digest
from tests.policy_execution import execute
from tests.recording_cublas import RecordingCublas, charge_recorded

BACKENDS = ("serial", "static", "dynamic")


@st.composite
def spd_problem(draw, max_n=32):
    n = draw(st.integers(8, max_n))
    seed = draw(st.integers(0, 10_000))
    degree = draw(st.floats(2.0, 6.0))
    return random_spd(n, avg_degree=degree, seed=seed)


def _run_backend(a, sym, backend, policy="P1"):
    solver = SparseCholeskySolver.from_symbolic(
        a, sym, policy=policy, backend=backend
    )
    solver.factorize()
    return solver


def _fleet_factor(a, sym, policy, spec):
    """A fleet's pricing pass, then the one numerics pass on one node of
    the fleet's shape."""
    from repro.multifrontal.numeric import postorder_numeric_factor
    from repro.parallel import Cluster, WorkerPool, parallel_schedule

    node = spec.build_nodes()[0]
    priced = parallel_schedule(sym, policy, WorkerPool.over(node), Cluster(spec))
    return postorder_numeric_factor(a, sym, priced, node)


class TestCrossBackendInvariance:
    @settings(max_examples=20, deadline=None)
    @given(spd_problem())
    def test_flops_calls_and_factor_bitwise_invariant(self, a):
        sym = symbolic_factorize(a, ordering="nd")
        flops, calls, prints = [], [], []
        for backend in BACKENDS:
            solver = _run_backend(a, sym, backend)
            flops.append(float(solver.stats.total_flops))
            calls.append(len(solver.factor.records))
            prints.append(factor_fingerprint(solver.factor))
        # bitwise: the flop model is pattern-only, the panels must not
        # depend on who walked the tree
        assert flops[0] == flops[1] == flops[2]
        assert calls[0] == calls[1] == calls[2]
        assert prints[0] == prints[1] == prints[2]

    @settings(max_examples=10, deadline=None)
    @given(spd_problem())
    def test_p1_makespans_agree_to_rounding_across_backends(self, a):
        # under host-only P1 every backend runs the same work on the same
        # engine; only summation order differs, so makespans agree to
        # float rounding.  (Offloading policies genuinely change the
        # schedule across backends, so no such property holds for them.)
        sym = symbolic_factorize(a, ordering="nd")
        spans = [
            float(_run_backend(a, sym, b, "P1").stats.simulated_seconds)
            for b in BACKENDS
        ]
        ref = max(spans)
        assert ref > 0
        assert all(abs(s - ref) <= 1e-6 * ref for s in spans)


class TestClusterNodeCountInvariance:
    @settings(max_examples=10, deadline=None)
    @given(spd_problem(), st.sampled_from((1, 2, 4)))
    def test_cluster_fingerprint_node_count_invariant(self, a, n_nodes):
        # sharding the tree across a fleet changes the timing schedule
        # but never the panel bytes: any node count fingerprints equal
        # to the serial walk
        from repro.cluster import ClusterSpec

        sym = symbolic_factorize(a, ordering="nd")
        serial = _run_backend(a, sym, "serial")
        clustered = _fleet_factor(
            a, sym, make_policy("P1"),
            ClusterSpec(n_ranks=n_nodes, gpus_per_rank=1),
        )
        assert factor_fingerprint(clustered) == factor_fingerprint(
            serial.factor
        )


class TestRunToRunStability:
    @settings(max_examples=10, deadline=None)
    @given(spd_problem(), st.sampled_from(BACKENDS))
    def test_every_counter_bit_stable(self, a, backend):
        sym = symbolic_factorize(a, ordering="nd")

        def snapshot():
            solver = _run_backend(a, sym, backend)
            node = solver.factor.node
            counters = {
                "simulated_seconds": float(solver.stats.simulated_seconds),
                "total_flops": float(solver.stats.total_flops),
                "fu_calls": len(solver.factor.records),
                "fingerprint": factor_fingerprint(solver.factor),
            }
            for g in node.gpus:
                counters[f"gpu{g.gpu_id}.high_water"] = int(
                    g.device_pool.stats.high_water
                )
            return counters

        assert snapshot() == snapshot()

    @settings(max_examples=10, deadline=None)
    @given(spd_problem())
    def test_serial_driver_matches_serial_backend_bitwise(self, a):
        # factorize_numeric on a fresh node IS the serial backend; the
        # factorize scenarios rely on this equivalence
        sym = symbolic_factorize(a, ordering="nd")
        solver = _run_backend(a, sym, "serial")
        from repro.policies import make_policy

        nf = factorize_numeric(
            a, sym, make_policy("P1"),
            node=SimulatedNode(n_cpus=1, n_gpus=1),
        )
        assert factor_fingerprint(nf) == factor_fingerprint(solver.factor)
        assert float(nf.makespan) == float(solver.stats.simulated_seconds)


class TestAmalgamationProperties:
    """Relaxed amalgamation is a *normwise* transformation: any preset
    must still factor the matrix to double-precision residual, and the
    coarser partitions must refine into the fundamental one."""

    @settings(max_examples=8, deadline=None)
    @given(spd_problem(), st.sampled_from(("off", "default", "aggressive")))
    def test_normwise_correct_under_every_preset(self, a, preset):
        from repro.verify import check_factor_residual
        from repro.verify.lattice import VerifyConfig

        config = VerifyConfig(policy="P1", amalgamation=preset)
        assert check_factor_residual(a, config) == []

    @settings(max_examples=8, deadline=None)
    @given(spd_problem())
    def test_presets_only_merge_fundamental_supernodes(self, a):
        sym = {
            preset: symbolic_factorize(
                a, ordering="nd", amalgamation=amalgamation_preset(preset)
            )
            for preset in ("off", "default", "aggressive")
        }
        fundamental = {int(p) for p in sym["off"].super_ptr}
        for preset in ("default", "aggressive"):
            assert sym[preset].n_supernodes <= sym["off"].n_supernodes
            assert {int(p) for p in sym[preset].super_ptr} <= fundamental

    @settings(max_examples=8, deadline=None)
    @given(spd_problem())
    def test_amalgamated_factor_is_backend_invariant(self, a):
        # the coarser tree changes the floats vs the default tree, but
        # across backends *on that tree* the factor stays bitwise equal
        sym = symbolic_factorize(
            a, ordering="nd", amalgamation=amalgamation_preset("aggressive")
        )
        prints = {
            factor_fingerprint(_run_backend(a, sym, b).factor)
            for b in BACKENDS
        }
        assert len(prints) == 1


@contextlib.contextmanager
def stack_cutoff(rows: int):
    """Run with the stacking cutoff constant set to ``rows`` (0: no leaf
    is ever stacked -- the per-front path of every front)."""
    with mock.patch.object(batched, "STACK_CUTOFF", rows):
        yield


def reference_factorize(a, sym, policy, node, spost=None):
    """The serial driver as it was before the numerics were separated
    from the virtual clock, kept here as the oracle: one front at a
    time, assembly task scheduled, then ``policy_execution.execute`` (plan,
    schedule, apply) on the assembled front, and every device kernel it
    ran charged to the GPU in the order it ran.  A front's record starts
    at its assembly task and counts it."""
    recorder = RecordingCublas.on(node) if node.gpus else None
    worker = Worker(node.cpus[0].engine, node.gpus[0] if node.gpus else None)
    plan = get_assembly_plan(a, sym)
    kids = sym.schildren()
    updates, final_task, records, panels = {}, {}, [], {}
    live = peak = 0
    assembly_seconds = 0.0
    for s in (sym.spost if spost is None else spost).tolist():
        k = sym.width(s)
        size = sym.rows[s].size
        child_updates = [(c, updates.pop(c)) for c in kids[s] if c in updates]
        live -= sum(u.nbytes for _, u in child_updates)
        front = assemble_front_planned(plan, a.data, size, s, child_updates)
        t_asm = node.model.host_memory_time(
            assembly_bytes(size, [u.shape[0] for _, u in child_updates])
        )
        g = TaskGraph()
        asm = g.add(
            f"assemble:{s}", worker.cpu_engine, t_asm,
            tuple(final_task[c] for c in kids[s]), "assemble",
        )
        schedule_graph(g, engines=node.engines)
        assembly_seconds += t_asm
        base = policy.resolve(size - k, k, worker) if hasattr(policy, "resolve") else policy
        try:
            ex = execute(base, front, k, worker, node, deps=(asm,))
        except DeviceMemoryError:
            base = PolicyP1()
            ex = execute(base, front, k, worker, node, deps=(asm,))
        final_task[s] = ex.plan.final
        panels[s] = np.vstack((ex.l1, ex.l2)).astype(np.float64)
        if size > k:
            updates[s] = ex.u.copy()
            live += updates[s].nbytes
            peak = max(peak, live)
        records.append(FURecord(
            sid=s, m=size - k, k=k, policy=base.name, start=asm.start,
            end=ex.end,
            components={"assemble": t_asm, **ex.plan.duration_by_category()},
            flops=factor_update_flops(size - k, k),
        ))
    if recorder is not None:
        charge_recorded(recorder)
    return dict(
        panels=[panels[s] for s in range(sym.n_supernodes)], records=records,
        makespan=node.now, assembly_seconds=assembly_seconds,
        peak_update_bytes=peak,
    )


def same_shape_leaves(n_leaves: int, size: int, k: int = 1):
    """``n_leaves`` decoupled k-column leaf blocks, each tied to one
    shared dense root block of ``size - k`` columns: under the natural
    ordering with amalgamation off, ``n_leaves`` same-shape leaf fronts
    of ``size`` rows."""
    m = size - k
    n = n_leaves * k + m
    dense = np.zeros((n, n))
    root = slice(n_leaves * k, n)
    dense[root, root] = 1.0
    for i in range(n_leaves):
        cols = slice(i * k, (i + 1) * k)
        dense[cols, cols] = 1.0
        dense[root, cols] = dense[cols, root] = 0.5 + 0.001 * i
    dense[np.diag_indices(n)] = 4.0 * n
    return csc_from_dense(dense)


class TestBatchedExecutionProperties:
    """Stacked small-front execution is a *bitwise* transformation: at
    any cutoff the factors and the deterministic counters match the
    unstacked run exactly."""

    @settings(max_examples=12, deadline=None)
    @given(spd_problem(), st.integers(0, 64), st.sampled_from(BACKENDS))
    def test_bit_identical_factor_at_any_cutoff(self, a, cutoff, backend):
        with stack_cutoff(0):
            base = _run_backend(a, symbolic_factorize(a, ordering="nd"), backend)
        assert base.factor.batch_tasks == 0
        with stack_cutoff(cutoff):
            stacked = _run_backend(
                a, symbolic_factorize(a, ordering="nd"), backend
            )
        assert factor_fingerprint(stacked.factor) == factor_fingerprint(
            base.factor
        )
        # the virtual clock never sees the stacking
        assert stacked.factor.makespan == base.factor.makespan
        assert stacked.factor.records == base.factor.records
        assert float(stacked.stats.total_flops) == float(
            base.stats.total_flops
        )

    @settings(max_examples=10, deadline=None)
    @given(spd_problem(), st.integers(1, 64))
    def test_dispatch_accounting_conserved(self, a, cutoff):
        sym = symbolic_factorize(a, ordering="nd")
        with stack_cutoff(cutoff):
            nf = _run_backend(a, sym, "serial").factor
        n_super = sym.n_supernodes
        assert nf.task_dispatches == n_super - nf.batched_fronts + nf.batch_tasks
        if nf.batch_tasks:
            # every stacked call covers at least two fronts
            assert nf.batched_fronts >= 2 * nf.batch_tasks
            assert nf.task_dispatches < n_super
        else:
            assert nf.batched_fronts == 0
            assert nf.task_dispatches == n_super
        # run-to-run: the counters are bit-stable
        again = _run_backend(a, sym, "serial").factor
        assert (again.batch_tasks, again.batched_fronts) == (
            nf.batch_tasks, nf.batched_fronts
        )

    @staticmethod
    def _check_slices(a, sym, policy=None, precision="sp"):
        """Every slice of every group's stack, assembled in one go and
        factored by one ``apply`` of ``policy`` (default ``PolicyP1``),
        equals ``apply`` on that member's individually assembled front,
        in value and dtype (a device policy computes in float32 under
        ``sp``, float64 under ``dp``); returns the groups."""
        node = SimulatedNode(model=tesla_t10_model().with_precision(precision))
        worker = Worker.canonical(node)
        policy = PolicyP1() if policy is None else policy
        plan = get_assembly_plan(a, sym)
        for g in plan.groups:
            assert 2 <= len(g) <= batched.STACK_CHUNK
            stack = assemble_group(plan, a.data, g, [])
            assembled = stack.copy()
            g_panels, g_updates = policy.apply(stack, g.k, worker)
            for i, s in enumerate(g.sids):
                assert not sym.schildren()[s]
                assert (sym.rows[s].size, sym.width(s)) == (g.size, g.k)
                front = assemble_front_planned(plan, a.data, g.size, s, [])
                assert np.array_equal(assembled[i], front)
                panel, u = policy.apply(front, g.k, worker)
                assert g_panels[i].dtype == panel.dtype
                assert np.array_equal(g_panels[i], panel)
                assert g_updates[i].dtype == u.dtype
                assert np.array_equal(g_updates[i], u)
        return plan.groups

    @settings(max_examples=15, deadline=None)
    @given(spd_problem(max_n=48), st.sampled_from(("amd", "nd", "natural")),
           st.integers(2, 64))
    def test_every_stacked_slice_equals_the_per_front_p1(self, a, ordering, cutoff):
        with stack_cutoff(cutoff):
            self._check_slices(a, symbolic_factorize(a, ordering=ordering))

    def test_diagonal_matrix_is_all_stacked_leaves(self):
        # every supernode a leaf with k = 1, m = 0
        a = csc_from_dense(np.diag(np.arange(1.0, 41.0)))
        sym = symbolic_factorize(
            a, ordering="natural", amalgamation=amalgamation_preset("off")
        )
        groups = self._check_slices(a, sym)
        assert [(g.size, g.k, len(g)) for g in groups] == [(1, 1, 40)]
        nf = factorize_numeric(a, sym, PolicyP1())
        assert (nf.batch_tasks, nf.batched_fronts) == (1, 40)
        assert np.array_equal(
            np.concatenate([p.ravel() for p in nf.panels]),
            np.sqrt(np.arange(1.0, 41.0)),
        )

    def test_chunk_boundary_splits_a_shape_into_near_equal_groups(self):
        # 129 same-shape k = 1 leaves: one more than a stacked call takes
        a = same_shape_leaves(batched.STACK_CHUNK + 1, size=4)
        sym = symbolic_factorize(
            a, ordering="natural", amalgamation=amalgamation_preset("off")
        )
        groups = self._check_slices(a, sym)
        assert [(g.size, g.k, len(g)) for g in groups] == [(4, 1, 65), (4, 1, 64)]
        assert groups[0].sids + groups[1].sids == tuple(range(129))
        with stack_cutoff(0):
            base = factorize_numeric(
                a, dataclasses.replace(sym), PolicyP1()
            )
        nf = factorize_numeric(a, sym, PolicyP1())
        assert (nf.batch_tasks, nf.batched_fronts) == (2, 129)
        assert factor_fingerprint(nf) == factor_fingerprint(base)

    @settings(max_examples=15, deadline=None)
    @given(spd_problem(max_n=48), st.sampled_from(("amd", "nd", "natural")),
           st.sampled_from(("P2", "P3")), st.sampled_from(("sp", "dp")))
    def test_every_stacked_slice_equals_the_per_front_p2_p3(
        self, a, ordering, policy, precision
    ):
        self._check_slices(
            a, symbolic_factorize(a, ordering=ordering), make_policy(policy),
            precision,
        )

    @settings(max_examples=15, deadline=None)
    @given(spd_problem(max_n=48), st.sampled_from(("amd", "nd", "natural")),
           st.sampled_from(("sp", "dp")), st.sampled_from((None, 1)))
    def test_every_device_slice_equals_the_per_front_p4(
        self, a, ordering, precision, width
    ):
        # the update stays in the device dtype, slice and front; a panel
        # width of 1 runs the Figure-9 loop over several panels
        self._check_slices(
            a, symbolic_factorize(a, ordering=ordering),
            PolicyP4(panel_width=width), precision,
        )

    @staticmethod
    def _leaves(dense_edit=None):
        """Six same-shape two-column leaves (one group), optionally with
        one entry of the matrix changed first."""
        dense = same_shape_leaves(6, size=5, k=2).to_dense()
        if dense_edit is not None:
            dense_edit(dense)
        a = csc_from_dense(dense)
        sym = symbolic_factorize(
            a, ordering="natural", amalgamation=amalgamation_preset("off")
        )
        assert len(get_assembly_plan(a, sym).groups) == 1
        return a, sym

    @staticmethod
    def _device_run(a, sym, policy, *, stacking=True):
        """``factorize_numeric`` under ``policy`` on a fresh symbolic
        factor, recording the device kernels it computes; per front when
        ``stacking`` is off."""
        with stack_cutoff(batched.STACK_CUTOFF if stacking else 0):
            node = SimulatedNode()
            ctx = RecordingCublas.on(node)
            nf = factorize_numeric(a, dataclasses.replace(sym), policy, node=node)
        return nf, ctx

    @staticmethod
    def _fold(sym, policy, order=None):
        """The kernels the numerics pass prices: every front resolved to
        ``policy`` (the default device fits them all)."""
        return device_kernels(
            sym, [policy] * sym.n_supernodes, sym.spost if order is None else order
        )

    @classmethod
    def _stacked_fold(cls, a, sym, policy):
        """The kernels a stacked run of :meth:`_leaves` computes: the fold
        with its one group's kernels once, at the turn of the member the
        walk reaches first (one stacked call each, with the dims of one
        slice)."""
        (group,) = get_assembly_plan(a, sym).groups
        first = next(s for s in sym.spost.tolist() if s in group.sids)
        return cls._fold(sym, policy, [
            s for s in sym.spost.tolist() if s == first or s not in group.sids
        ])

    def test_device_leaves_run_stacked(self):
        a, sym = self._leaves()
        for precision in ("sp", "dp"):
            self._check_slices(a, sym, PolicyP4(), precision)
        policy = make_policy("P4")
        nf, ctx = self._device_run(a, sym, policy)
        assert (nf.batch_tasks, nf.batched_fronts) == (1, 6)
        assert nf.task_dispatches == sym.n_supernodes - 5
        ref, ref_ctx = self._device_run(a, sym, policy, stacking=False)
        assert ref.batch_tasks == 0
        assert factor_fingerprint(nf) == factor_fingerprint(ref)
        # the fold names every kernel the per-front run computes; the
        # stacked run computes its group's in one stacked call each
        fold = self._fold(sym, policy)
        assert ref_ctx.calls == fold
        assert ctx.calls == self._stacked_fold(a, sym, policy)
        assert ctx.busy_seconds == ref_ctx.busy_seconds == ctx.price(fold)

    def test_narrow_panel_stacks_too(self):
        a, sym = self._leaves()
        policy = PolicyP4(panel_width=1)      # w = 1 < k = 2: two panels
        self._check_slices(a, sym, policy)
        nf, ctx = self._device_run(a, sym, policy)
        assert (nf.batch_tasks, nf.batched_fronts) == (1, 6)
        ref, ref_ctx = self._device_run(a, sym, policy, stacking=False)
        assert factor_fingerprint(nf) == factor_fingerprint(ref)
        fold = self._fold(sym, policy)
        assert ref_ctx.calls == fold
        assert ctx.calls == self._stacked_fold(a, sym, policy)
        assert ctx.busy_seconds == ref_ctx.busy_seconds == ctx.price(fold)

    def test_fp32_breakdown_promotes_one_slice(self):
        # leaf 0's pivot block "breaks down" in float32 only; the per-front
        # path promotes it to float64 (CublasContext.potrf), and the
        # stacked path promotes that one slice the same way
        mark = 1000.0
        a, sym = self._leaves(lambda d: d.__setitem__((0, 0), mark))
        real, broke = np.linalg.cholesky, []

        def flaky(x):
            if x.dtype == np.float32 and (x[..., 0, 0] == mark).any():
                broke.append(x.shape)
                raise np.linalg.LinAlgError("spurious float32 breakdown")
            return real(x)

        policy = make_policy("P4")
        with mock.patch.object(np.linalg, "cholesky", flaky):
            nf, ctx = self._device_run(a, sym, policy)
            ref, ref_ctx = self._device_run(a, sym, policy, stacking=False)
        # the stack and its slice 0 (finding the failing member), then
        # leaf 0 in the per-front run, a group of one and its one slice;
        # the group stays stacked
        assert broke == [(6, 2, 2), (2, 2), (1, 2, 2), (2, 2)]
        assert (nf.batch_tasks, nf.batched_fronts) == (1, 6)
        assert factor_fingerprint(nf) == factor_fingerprint(ref)
        fold = self._fold(sym, policy)
        assert ref_ctx.calls == fold
        assert ctx.calls == self._stacked_fold(a, sym, policy)
        assert ctx.busy_seconds == ref_ctx.busy_seconds == ctx.price(fold)

    def test_non_spd_leaf_names_its_supernode(self):
        from repro.dense.kernels import NotPositiveDefiniteError

        a, sym = self._leaves(lambda d: d.__setitem__((2, 2), -1.0))
        messages = []
        for stacking in (True, False):
            with pytest.raises(NotPositiveDefiniteError) as err:
                self._device_run(a, sym, make_policy("P4"), stacking=stacking)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(
            "matrix is not positive definite: Cholesky broke down in "
            "supernode 1 (permuted columns 2..3,"
        )

    @pytest.mark.parametrize("nodes", (1, 2, 4))
    def test_cluster_backend_stacks_and_matches_serial(self, nodes):
        from repro.cluster import ClusterSpec

        a = grid_laplacian_2d(14, 13)
        sym = symbolic_factorize(a, ordering="amd")
        serial = _run_backend(a, sym, "serial").factor
        nf = _fleet_factor(
            a, sym, make_policy("P1"),
            ClusterSpec(n_ranks=nodes, gpus_per_rank=1),
        )
        assert nf.batch_tasks > 0
        assert (nf.batch_tasks, nf.batched_fronts) == (
            serial.batch_tasks, serial.batched_fronts
        )
        assert factor_fingerprint(nf) == factor_fingerprint(serial)


class TestVirtualClockInvisibility:
    """The pricing pass charges every front exactly as the per-front
    driver did: stacked numerics leave no trace on the virtual clock."""

    MATRICES = {
        "grid2d": lambda: (grid_laplacian_2d(14, 13), "amd"),
        "elasticity": lambda: (elasticity_3d(4, 3, 3), "nd"),
    }

    @pytest.fixture(scope="class")
    def classifier(self):
        from repro.autotune import train_default_classifier
        from repro.gpu import tesla_t10_model

        return train_default_classifier(tesla_t10_model())

    @pytest.mark.parametrize("device", (None, 2048), ids=("4GiB", "2KiB"))
    @pytest.mark.parametrize("schedule", ("post", "liu"))
    @pytest.mark.parametrize("policy", ("P1", "P4", "baseline", "model"))
    @pytest.mark.parametrize("matrix", sorted(MATRICES))
    def test_serial_driver_matches_the_per_front_reference(
        self, matrix, policy, schedule, device, classifier
    ):
        from tests.conftest import starved_node

        a, ordering = self.MATRICES[matrix]()
        sym = symbolic_factorize(a, ordering=ordering)
        pol = SparseCholeskySolver.from_symbolic(
            a, sym, policy=policy, classifier=classifier
        ).policy
        spost = stack_minimizing_postorder(sym) if schedule == "liu" else None
        node = starved_node(device)
        nf = factorize_numeric(a, sym, pol, node=node, spost=spost)
        if policy != "P4":
            assert nf.batch_tasks > 0
        elif device:  # memory pressure is real: some fronts left the device
            assert {r.policy for r in nf.records} == {"P1", "P4"}
        ref_node = starved_node(device)
        ref = reference_factorize(a, sym, pol, ref_node, spost)

        assert nf.makespan == ref["makespan"]
        assert nf.records == ref["records"]
        assert nf.assembly_seconds == ref["assembly_seconds"]
        assert nf.peak_update_bytes == ref["peak_update_bytes"]
        assert engine_counters(node.engines) == engine_counters(
            ref_node.engines
        )
        for g, g_ref in zip(node.gpus, ref_node.gpus):
            assert g.device_pool.stats == g_ref.device_pool.stats
            assert g.pinned_pool.stats == g_ref.pinned_pool.stats
            assert g.cublas.busy_seconds == g_ref.cublas.busy_seconds
        for got, want in zip(nf.panels, ref["panels"]):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("device", (None, 2048), ids=("4GiB", "2KiB"))
    @pytest.mark.parametrize("backend", ("serial", "dynamic"))
    @pytest.mark.parametrize("policy", ("P2", "P3", "P4", "baseline", "model"))
    def test_the_fold_prices_exactly_the_kernels_run(
        self, policy, backend, device, classifier
    ):
        # the device kernels keep no time: the numerics pass adds the
        # seconds of device_kernels over the fronts it computes, and that
        # list names exactly what a per-front run computes on the device
        from tests.conftest import starved_node

        a = grid_laplacian_2d(14, 13)
        sym = symbolic_factorize(a, ordering="amd")
        runs = []
        for stacking in (True, False):
            with stack_cutoff(batched.STACK_CUTOFF if stacking else 0):
                node = starved_node(device, n_cpus=2)
                ctx = RecordingCublas.on(node)
                solver = SparseCholeskySolver.from_symbolic(
                    a, dataclasses.replace(sym), policy=policy,
                    classifier=classifier, node=node, backend=backend,
                ).factorize()
            worker = Worker.canonical(node)
            fold = device_kernels(sym, [
                solver.policy.resolve(sym.update_size(s), sym.width(s), worker)
                for s in range(sym.n_supernodes)
            ], sym.spost)
            runs.append((solver.factor, ctx, fold))
        (stacked, ctx, fold), (per_front, ref_ctx, ref_fold) = runs
        assert fold == ref_fold and ref_ctx.calls == fold
        assert per_front.batch_tasks == 0
        assert ctx.busy_seconds == ref_ctx.busy_seconds == ctx.price(fold)
        assert factor_fingerprint(stacked) == factor_fingerprint(per_front)
        if policy in ("P2", "P3", "P4"):
            assert fold
        if policy == "P4" and not device:
            # stacked device leaves: computed in one call, priced apiece
            assert stacked.batch_tasks > 0 and len(ctx.calls) < len(fold)
        elif policy == "P4":  # memory pressure: some fronts left the device
            everything = [make_policy("P4")] * sym.n_supernodes
            assert len(fold) < len(device_kernels(sym, everything, sym.spost))

    #: the serial pricing pass, pinned: :func:`pricing_digest` of every
    #: record, the makespan and the assembly seconds, recorded at commit
    #: ``21735c1`` from the timing-only replay of the day, whose records
    #: already covered each front's assembly task
    SERIAL_GOLDENS = {
        "elasticity/P1": "562e6622be1f7c0b",
        "elasticity/P4": "f7a0a43138495f90",
        "elasticity/baseline": "562e6622be1f7c0b",
        "elasticity/model": "562e6622be1f7c0b",
        "grid2d/P1": "92a74f9634904d69",
        "grid2d/P4": "9c4ae4987863dd60",
        "grid2d/baseline": "92a74f9634904d69",
        "grid2d/model": "92a74f9634904d69",
    }

    @pytest.mark.parametrize("key", sorted(SERIAL_GOLDENS))
    def test_serial_pricing_golden(self, key, classifier):
        matrix, policy = key.split("/")
        a, ordering = self.MATRICES[matrix]()
        sym = symbolic_factorize(a, ordering=ordering)
        solver = SparseCholeskySolver.from_symbolic(
            a, sym, policy=policy, classifier=classifier
        )
        priced = price_serial(sym, solver.policy, SimulatedNode(n_cpus=1, n_gpus=1))
        assert pricing_digest(priced) == self.SERIAL_GOLDENS[key]
        # the factor carries the pass's records as they are
        assert pricing_digest(solver.factorize().factor) == self.SERIAL_GOLDENS[key]

    @pytest.mark.parametrize("policy", ("P4", "baseline"))
    def test_kernel_seconds_priced_once_per_shape(self, policy):
        # a front's kernels are a function of (base policy, m, k): pricing
        # each triple once gives the bits of pricing every front's kernels
        sf = paper_workload("lmco")
        node = SimulatedNode(n_cpus=1, n_gpus=1)
        priced = price_serial(sf, make_policy(policy), node)
        gpu_model = node.gpus[0].cublas.model
        calls = device_kernels(sf, priced.bases, priced.order)
        assert calls
        assert priced.kernel_seconds == tuple(
            gpu_model.kernel_time("gpu", c.kernel, m=c.m, n=c.n, k=c.k)
            for c in calls
        )
        shapes = {
            (priced.bases[s], sf.update_size(s), sf.width(s))
            for s in priced.order if priced.bases[s].needs_gpu
        }
        with mock.patch.object(
            gpu_model, "kernel_time", wraps=gpu_model.kernel_time
        ) as kernel_time:
            again = numeric._kernel_seconds(
                sf, priced.bases, Worker.canonical(node), priced.order
            )
        assert again == priced.kernel_seconds
        assert kernel_time.call_count == sum(
            len(base.kernel_calls(m, k)) for base, m, k in shapes
        ) < len(calls)


# ----------------------------------------------------------------------
# tiered factor cache: byte conservation, bit identity, tier budgets
# ----------------------------------------------------------------------
class _Blob:
    """Synthetic payload with an explicit recompute cost."""

    def __init__(self, data: bytes, makespan: float):
        self.data = data
        self.makespan = makespan


@st.composite
def tier_workload(draw):
    """A random tier stack plus a random put/get trace over few keys."""
    from repro.service import FactorizationCache, StorageTier, TierSpec

    ram = draw(st.integers(100, 900))
    n_lower = draw(st.integers(0, 2))
    lower = [
        StorageTier(
            TierSpec(
                f"t{i}",
                draw(st.integers(200, 2000)),
                bandwidth=draw(st.floats(1e5, 1e9)),
                latency=draw(st.floats(0.0, 0.1)),
            ),
        )
        for i in range(n_lower)
    ]
    cache = FactorizationCache(max_bytes=ram, lower_tiers=lower)
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("put", "get")),
                st.integers(0, 7),                  # key id
                st.integers(1, 1100),               # nbytes when putting
                st.floats(0.0, 1.0),                # makespan when putting
            ),
            min_size=1,
            max_size=40,
        )
    )
    return cache, ops


class TestTierAccounting:
    @settings(max_examples=40, deadline=None)
    @given(tier_workload())
    def test_bytes_conserved_and_budgets_respected(self, workload):
        # (a) inserted + imported == resident + dropped + exported and
        # (c) no tier over budget — checked after *every* operation, so
        # any transient violation of either property fails too
        cache, ops = workload
        for action, key_id, nbytes, makespan in ops:
            if action == "put":
                cache.put_numeric(
                    f"k{key_id}",
                    _Blob(b"x" * min(nbytes, 64), makespan),
                    nbytes=nbytes,
                )
            else:
                cache.get_numeric(f"k{key_id}")
            assert cache.check_conservation() == []
        cache.clear()
        assert cache.check_conservation() == []
        assert cache.total_resident_bytes() == 0

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=1, max_size=256), st.integers(2, 5))
    def test_payload_bit_identical_after_spill_and_promotion(
        self, blob, n_fillers
    ):
        # (b) a factor readable before a spill comes back bit-identical
        # after the round trip through a lower tier
        from repro.service import FactorizationCache, StorageTier, TierSpec

        arr = np.frombuffer(blob, dtype=np.uint8).copy()
        cache = FactorizationCache(
            max_bytes=400,
            lower_tiers=[StorageTier(TierSpec("disk", 10_000, 1e6, 0.0))],
        )
        assert cache.put_numeric("target", arr, nbytes=200)
        before = cache.peek_numeric("target").tobytes()
        for i in range(n_fillers):  # force the target out of RAM
            cache.put_numeric(f"filler{i}", _Blob(b"f", 0.0), nbytes=200)
        assert ("numeric", "target") in cache.tier("disk").keys()
        got = cache.get_numeric("target")
        assert got is not None
        assert got.tobytes() == before == blob
        assert cache.check_conservation() == []


class TestLowerTriangleAssembly:
    """Which side of ``RUN_CUT`` a child falls on cannot be seen in the
    factor, and the walk's one front workspace never escapes it."""

    @settings(max_examples=15, deadline=None)
    @given(spd_problem(max_n=48), st.sampled_from(("amd", "nd", "natural")),
           st.sampled_from(("P1", "P4")))
    def test_every_child_on_the_run_path_gives_the_same_panels(
        self, a, ordering, policy
    ):
        base = factorize_numeric(
            a, symbolic_factorize(a, ordering=ordering), make_policy(policy)
        )
        with mock.patch.object(frontal, "RUN_CUT", 1):
            sym = symbolic_factorize(a, ordering=ordering)
            plan = get_assembly_plan(a, sym)
            by_runs = factorize_numeric(a, sym, make_policy(policy))
        has_update = [
            sym.sparent[s] >= 0 and sym.rows[s].size > sym.width(s)
            for s in range(sym.n_supernodes)
        ]
        assert [r is not None for r in plan.runs] == has_update
        # no child is placed or scattered whole: A's segment holds no child
        assert not any(p is not None for p in plan.place)
        assert all(type(st) is int or st[1] == st[2] for f in plan.fold for st in f)
        assert all(
            np.array_equal(p, q) for p, q in zip(base.panels, by_runs.panels)
        )

    @pytest.mark.parametrize("policy", ("P1", "P4"))
    def test_the_front_workspace_never_leaks(self, policy):
        # ``apply`` returns views of the front it computed in: the
        # workspace (P1) or the device copy of it (P4)
        a = grid_laplacian_2d(9, 8)
        sym = symbolic_factorize(a, ordering="nd")
        node = SimulatedNode()
        worker = Worker(node.cpus[0].engine, node.gpus[0])
        workspaces = []
        assemble = numeric.assemble_group

        def spy(plan, a_data, g, child_updates, workspace):
            workspaces.append(workspace)
            return assemble(plan, a_data, g, child_updates, workspace)

        devices = []
        p4_apply = PolicyP4.apply

        def device_spy(self, front, k, worker, **kwargs):
            devices.append(kwargs["workspace"])
            return p4_apply(self, front, k, worker, **kwargs)

        with mock.patch.object(numeric, "assemble_group", spy), \
                mock.patch.object(PolicyP4, "apply", device_spy):
            # stop below the root: its children's updates are handed back
            panels, stacks, leftover, *_ = numeric._numeric_walk(
                a, sym, [make_policy(policy)] * sym.n_supernodes, worker,
                sym.spost[:-1], (),
            )
        assert workspaces and all(w is workspaces[0] for w in workspaces)
        # P4's device fronts and stacks share one device workspace too
        assert bool(devices) == (policy == "P4")
        assert all(w is devices[0] for w in devices)
        assert leftover and panels[int(sym.spost[-1])] is None
        handed_out = [p for p in panels if p is not None] + list(leftover.values())
        handed_out += stacks.values()
        for buffer in workspaces[:1] + devices[:1]:
            assert not any(np.shares_memory(x, buffer) for x in handed_out)
