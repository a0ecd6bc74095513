"""The four workloads, driven through the public surface of ``repro`` only.

Imported by ``child.py`` after it has checked the BLAS thread pins (this
module imports numpy).  Every workload exposes the same three calls:
``setup()`` (everything up to the first timed op), ``step(traced)`` (one
op — one round of requests for ``api-mixed``) and ``layer_metrics()``
(the per-layer table of a traced run).

Matrix structure is fixed per workload; the seed drives matrix values,
right-hand sides and the request schedule.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

import numpy as np

from repro.api import ApiApp, InProcessClient, encode_matrix
from repro.api.protocol import parse_solve_payload
from repro.gpu import SimulatedNode
from repro.matrices import (
    CSCMatrix,
    elasticity_3d,
    grid_laplacian_2d,
    grid_laplacian_3d,
    load_test_matrix,
)
from repro.multifrontal import (
    SparseCholeskySolver,
    factorize_numeric,
    iterative_refinement,
    solve_factored,
)
from repro.ordering import compute_ordering
from repro.service import SolverService, matrix_key
from repro.symbolic import symbolic_factorize

import layers
from stats import median, percentile

#: every answer must satisfy
#: ``|b - A x|_inf / (|A|_inf |x|_inf + |b|_inf) <= TOLERANCE``
TOLERANCE = 1e-10

perf = time.perf_counter


class Pattern:
    """One sparsity structure plus the bench's own CSC mat-vec on it."""

    def __init__(self, a: CSCMatrix):
        if not a.is_structurally_symmetric():
            raise ValueError("workload generators must store the full matrix")
        self.a = a
        self.cols = np.repeat(np.arange(a.n_cols), np.diff(a.indptr))

    def scaled(self, rng) -> CSCMatrix:
        """``D A D`` with ``D`` drawn in [0.5, 2]: new values, same pattern,
        still SPD."""
        d = rng.uniform(0.5, 2.0, size=self.a.n_rows)
        data = self.a.data * d[self.a.indices] * d[self.cols]
        return CSCMatrix(
            self.a.shape, self.a.indptr, self.a.indices, data, check=False
        )

    def backward_error(self, a_i: CSCMatrix, x, b: np.ndarray) -> float:
        """Normwise backward error of ``x`` for ``a_i x = b``, computed
        here and not by ``repro.multifrontal.refine``; ``inf`` for an
        answer of the wrong shape or with non-finite entries."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != b.shape or not np.all(np.isfinite(x)):
            return float("inf")
        n = a_i.n_rows
        ax = np.bincount(a_i.indices, weights=a_i.data * x[self.cols], minlength=n)
        norm_a = np.bincount(
            a_i.indices, weights=np.abs(a_i.data), minlength=n
        ).max()
        return float(
            np.abs(b - ax).max() / (norm_a * np.abs(x).max() + np.abs(b).max())
        )


class OpLog:
    """The timed ops by class, each as its ``(start, end)`` on the
    ``perf_counter`` clock; an op that raised, was refused or fails the
    answer check is counted as failed and contributes no latency."""

    def __init__(self) -> None:
        self.ops: dict[str, list[tuple[float, float]]] = {}
        self.attempted = 0
        self.failed = 0
        self.worst_error = 0.0

    def add(self, cls: str, t0: float, t1: float, error: float | None) -> bool:
        """Record one op; ``error`` is its backward error, or ``None``
        when it produced no answer to check."""
        self.attempted += 1
        if error is None or not error <= TOLERANCE:
            self.failed += 1
            return False
        self.worst_error = max(self.worst_error, error)
        self.ops.setdefault(cls, []).append((t0, t1))
        return True

    def wall(self, prefix: str) -> list[float]:
        """Wall seconds of every op whose class starts with ``prefix``."""
        return [
            t1 - t0 for cls, ops in self.ops.items() if cls.startswith(prefix)
            for t0, t1 in ops
        ]


def _span_s(tracer, name: str) -> float:
    """Median wall seconds of the spans called ``name``."""
    return median(s["end"] - s["start"] for s in tracer.named(name))


def _report_failure(what: str) -> None:
    print(f"bench: {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ----------------------------------------------------------------------
# the three direct workloads
# ----------------------------------------------------------------------
#: ``idle`` names the per-layer metrics (or whole layers, by prefix) that
#: do no work on the workload and read 0
_NO_SERVING = ("ordering.amd_s", "service.", "api.")
_NO_ANALYSIS = ("ordering.nd_s", "symbolic.factorize_s")
DIRECT = {
    "cold-direct": dict(
        cold=True, policy="P1", backend="serial", n_cpus=1, n_gpus=1,
        warmup=1, idle=_NO_SERVING + ("runtime.",),
    ),
    "refactor-p1-serial": dict(
        cold=False, policy="P1", backend="serial", n_cpus=1, n_gpus=1,
        warmup=3, idle=_NO_SERVING + _NO_ANALYSIS + ("runtime.",),
    ),
    "refactor-p4-dynamic": dict(
        cold=False, policy="P4", backend="dynamic", n_cpus=2, n_gpus=2,
        warmup=3, idle=_NO_SERVING + _NO_ANALYSIS,
    ),
}


class DirectWorkload:
    """``lmco_s`` through :class:`SparseCholeskySolver`.

    ``cold-direct``: one op is a fresh solver taken from matrix to
    refined ``x``.  ``refactor-*``: one op is ``refactorize(D A D)`` plus
    a refined solve on one warmed solver.
    """

    primary = "op"
    #: floor on the sample count of a run shorter than ``run_seconds``;
    #: in a traced run plain and taken-apart ops alternate
    min_steps = 4

    def __init__(self, name: str, seed: int, quick: bool, tracer, ref):
        self.name = name
        self.cfg = DIRECT[name]
        self.idle = self.cfg["idle"]
        # the virtual-clock gate's record is of lmco_s under P1, serial
        self.has_baseline = self.cfg["policy"] == "P1" and not quick
        if not self.has_baseline:
            self.idle += ("bench.sim_matches_baseline",)
        self.rng = np.random.default_rng(seed)
        self.quick = quick
        self.tracer = tracer
        self.ref = ref
        self.log = OpLog()
        self.sims: set[float] = set()
        self.first_op_s = 0.0
        self.factor_first_s = 0.0
        self.plain_s: list[float] = []
        self.traced_s: list[float] = []
        self.refine_iters: list[int] = []
        self.op_layers: dict[str, float] = {}
        self.matches_baseline = True
        self.solver = None

    # -- set-up ---------------------------------------------------------
    def _node(self) -> SimulatedNode:
        return SimulatedNode(n_cpus=self.cfg["n_cpus"], n_gpus=self.cfg["n_gpus"])

    def _new_solver(self, a: CSCMatrix, symbolic=None) -> SparseCholeskySolver:
        kwargs = dict(
            policy=self.cfg["policy"], backend=self.cfg["backend"],
            node=self._node(),
        )
        if symbolic is not None:
            return SparseCholeskySolver.from_symbolic(a, symbolic, **kwargs)
        return SparseCholeskySolver(a, ordering="nd", **kwargs)

    def setup(self) -> None:
        t0 = perf()
        a = elasticity_3d(4, 4, 4) if self.quick else load_test_matrix("lmco_s")
        self.build_s = perf() - t0
        self.pattern = Pattern(a)
        # a reference reading after each phase of the set-up
        self.ref.tick(force=True)
        if not self.cfg["cold"]:
            self.solver = self._new_solver(a).analyze()
            self.ref.tick(force=True)
            t0 = perf()
            self.solver.factorize()
            self.factor_first_s = perf() - t0
            self.ref.tick(force=True)
        for i in range(self.cfg["warmup"]):
            seconds = self._plain_op(record=False)
            if i == 0:
                self.first_op_s = seconds

    def close(self) -> None:
        pass

    # -- ops ------------------------------------------------------------
    def step(self, traced: bool) -> None:
        if traced:
            self._traced_op()
        else:
            self._plain_op()

    def _inputs(self) -> tuple[CSCMatrix, np.ndarray]:
        self.ref.tick()
        a_i = self.pattern.scaled(self.rng)
        return a_i, self.rng.normal(size=a_i.n_rows)

    def _plain_op(self, record: bool = True) -> float:
        a_i, b = self._inputs()
        x = None
        t0 = perf()
        try:
            if self.cfg["cold"]:
                self.solver = self._new_solver(a_i)
            else:
                self.solver.refactorize(a_i.data)
            x = self.solver.solve(b)
        except Exception:
            _report_failure(f"{self.name} op")
        t1 = perf()
        if record:
            error = None if x is None else self.pattern.backward_error(a_i, x, b)
            if self.log.add("op", t0, t1, error):
                self.plain_s.append(t1 - t0)
                self.sims.add(self.solver.stats.simulated_seconds)
        return t1 - t0

    def _traced_op(self) -> None:
        """The same op taken apart into the calls it makes into each
        layer, one span per call."""
        tr, cfg = self.tracer, self.cfg
        a_i, b = self._inputs()
        tr.next_op()
        res = None
        try:
            with tr.span("op") as root:
                if cfg["cold"]:
                    with tr.span("ordering.nd"):
                        perm = compute_ordering(a_i, "nd")
                    with tr.span("symbolic.factorize"):
                        sf = symbolic_factorize(a_i, perm=perm)
                    self.solver = solver = self._new_solver(a_i, sf)
                    with tr.span("multifrontal.factor_first"):
                        factor = factorize_numeric(
                            a_i, sf, solver.policy, node=solver.node
                        )
                elif cfg["backend"] == "serial":
                    solver = self.solver
                    solver.node.reset()
                    with tr.span("multifrontal.factor_warm"):
                        factor = factorize_numeric(
                            a_i, solver.symbolic, solver.policy, node=solver.node
                        )
                else:
                    # the dynamic backend is reached through the solver
                    with tr.span("runtime.factorize"):
                        factor = self.solver.refactorize(a_i.data).factor
                with tr.span("multifrontal.solve_refined"):
                    res = iterative_refinement(a_i, factor, b, tol=1e-12, max_iter=5)
        except Exception:
            _report_failure(f"{self.name} traced op")
        error = None if res is None else self.pattern.backward_error(a_i, res.x, b)
        if self.log.add("op", root["start"], root["end"], error):
            self.traced_s.append(root["end"] - root["start"])
            self.sims.add(factor.makespan)
            self.refine_iters.append(res.iterations)

    # -- per-layer table ------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        cfg, a = self.cfg, self.pattern.a
        sf = self.solver.symbolic
        b = self.rng.normal(size=a.n_rows)

        def span_s(name: str) -> float:
            return _span_s(self.tracer, name)

        # one factorization on a fresh node: counters of a single run
        probe = self._new_solver(a, sf).factorize()
        m: dict[str, float] = {
            "matrices.build_s": self.build_s,
            "matrices.nnz": a.nnz,
            "multifrontal.solve_refined_s": span_s("multifrontal.solve_refined"),
            "multifrontal.solve_s": layers.timed(
                lambda: solve_factored(probe.factor, b)
            ),
            "multifrontal.refine_iters": median(self.refine_iters),
            "multifrontal.backward_error_max": self.log.worst_error,
        }
        m.update(layers.structure_counts(a, sf))
        m.update(layers.factor_counters(probe))
        m.update(layers.dense_replay(sf, self.rng, passes=1 if self.quick else 3))

        # numeric phase on the host path: warm, and first (= warm plus
        # the one-time assembly-plan build)
        if cfg["cold"]:
            m["ordering.nd_s"] = span_s("ordering.nd")
            m["symbolic.factorize_s"] = span_s("symbolic.factorize")
            first = span_s("multifrontal.factor_first")
        else:
            first = self.factor_first_s
        if cfg["backend"] == "serial" and not cfg["cold"]:
            warm = span_s("multifrontal.factor_warm")
        else:
            serial = SparseCholeskySolver.from_symbolic(
                a, sf, policy=cfg["policy"], node=self._node()
            )
            warm = layers.timed(
                lambda: factorize_numeric(a, sf, serial.policy, node=serial.node),
                before=serial.node.reset,
            )
        m["multifrontal.factor_first_s"] = first
        m["multifrontal.factor_warm_s"] = warm
        m["multifrontal.python_overhead_share"] = (
            1.0 - m["dense.kernel_floor_s"] / warm
        )
        m["multifrontal.factor_gflops"] = probe.stats.total_flops / warm / 1e9
        if cfg["backend"] == "dynamic":
            m["runtime.factor_warm_s"] = span_s("runtime.factorize")
            m["runtime.vs_serial_ratio"] = m["runtime.factor_warm_s"] / warm
            # the first factorization went through the runtime too
            warm = m["runtime.factor_warm_s"]
        m["multifrontal.plan_build_s"] = first - warm

        # do the layer spans add up to the op, and what does tracing cost
        plain, traced = median(self.plain_s), median(self.traced_s)
        self.op_layers = {
            name: seconds for name in (
                "ordering.nd", "symbolic.factorize", "multifrontal.factor_first",
                "multifrontal.factor_warm", "runtime.factorize",
                "multifrontal.solve_refined",
            ) if (seconds := span_s(name))
        }
        layer_sum = sum(self.op_layers.values())
        self.op_layers["(dense.kernel_floor, inside the numeric phase)"] = (
            m["dense.kernel_floor_s"]
        )
        m["bench.decomposition_gap_share"] = abs(layer_sum - plain) / plain
        m["bench.trace_overhead_share"] = (traced - plain) / plain
        m["bench.first_op_extra_s"] = self.first_op_s - plain
        m["bench.ops_traced"] = len(self.traced_s)
        if self.has_baseline:
            self.matches_baseline = layers.sim_matches_baseline(
                m["multifrontal.sim_factor_s"], sf.n_supernodes, m["dense.flops"]
            )
            m["bench.sim_matches_baseline"] = int(self.matches_baseline)
        return m

    def consistent(self) -> bool:
        """The simulated factor time depends on structure only: it reads
        the same on every op, and as the virtual-clock gate recorded it."""
        return len(self.sims) <= 1 and self.matches_baseline

    def detail(self) -> dict:
        out: dict = {"sim_factor_s": sorted(self.sims)}
        if self.op_layers:
            out["op_layers_s"] = self.op_layers
        return out


# ----------------------------------------------------------------------
# api-mixed
# ----------------------------------------------------------------------
API_KEY = "bench-key"
#: byte budget of the service's factor cache, chosen once: the newest
#: factor of each of the three live patterns (about 1 MiB each) stays
#: resident while the factors that refactor requests supersede are
#: evicted within a round or two
API_CACHE_BYTES = 10 << 20
#: one round = 1 cold + 7 refactor + 22 hit requests (the 12:84:264 mix)
ROUND_REFACTORS, ROUND_HITS = 7, 22
QUICK_REFACTORS, QUICK_HITS = 2, 4

_KINDS = ("g2d", "g3d", "el")
_SHAPES = {
    "g2d": [(48, 46), (47, 47), (46, 48), (45, 49), (49, 45), (44, 50)],
    "g3d": [(13, 13, 12), (13, 12, 13), (12, 13, 13),
            (14, 12, 12), (12, 14, 12), (12, 12, 14)],
    "el": [(8, 7, 7), (7, 8, 7), (7, 7, 8), (8, 8, 6), (8, 6, 8), (6, 8, 8)],
}
_QUICK_SHAPES = {
    "g2d": [(8, 7), (7, 8)], "g3d": [(4, 4, 3), (4, 3, 4)],
    "el": [(3, 3, 2), (3, 2, 3)],
}
_BUILDERS = {
    "g2d": grid_laplacian_2d, "g3d": grid_laplacian_3d, "el": elasticity_3d,
}
_TIER_OF = {"cold": "miss", "refactor": "symbolic", "hit": "numeric"}


class ApiWorkload:
    """Closed loop, one client, ``POST /v1/solve`` with ``refine=true``.

    Round ``r`` introduces pattern ``r`` (a ``cold`` request) and then
    sends a seeded shuffle of ``refactor`` (known pattern, new values)
    and ``hit`` (known matrix, new rhs) requests over the three newest
    patterns, always one 2-D grid, one 3-D grid and one elasticity
    block, so every round costs the same.
    """

    primary = "hit"
    min_steps = 2  # traced run: one plain round, one traced round
    #: the cold path of each round's new pattern is taken apart outside
    #: the request, without a kernel replay; no virtual-clock baseline
    #: exists for these matrices
    idle = ("ordering.nd_s", "dense.", "runtime.",
            "multifrontal.python_overhead_share", "bench.sim_matches_baseline")

    def __init__(self, name: str, seed: int, quick: bool, tracer, ref):
        self.name = name
        self.rng = np.random.default_rng(seed)
        self.quick = quick
        self.tracer = tracer
        self.ref = ref
        self.log = OpLog()
        self.shapes = _QUICK_SHAPES if quick else _SHAPES
        self.n_ref, self.n_hit = (
            (QUICK_REFACTORS, QUICK_HITS) if quick
            else (ROUND_REFACTORS, ROUND_HITS)
        )
        self.patterns: dict[int, Pattern] = {}
        self.current: dict[int, tuple[CSCMatrix, dict]] = {}
        self.round = 0
        self.first_op_s = 0.0
        self.build_s = 0.0
        self.nnz = 0
        self.body_bytes: list[int] = []
        self.statuses = {"200": 0, "other": 0}
        self.tier_missed = {"cold": 0, "refactor": 0, "hit": 0}
        self.plain_hits: list[float] = []
        self.traced_hits: list[float] = []
        self.replay_s: dict[str, list[float]] = {}
        self.side_timings: list[dict[str, float]] = []
        self.side_counts: dict[str, float] = {}
        self.replay = None

    def _service(self) -> SolverService:
        return SolverService(
            n_workers=1, policy="P1", ordering="amd",
            max_cache_bytes=API_CACHE_BYTES,
        )

    def setup(self) -> None:
        self.service = self._service()
        # one client never fills the edge queue or the token bucket;
        # the cache is kept full on purpose, so the memory-pressure shed
        # (default 0.95 of the budget) is moved out of reach
        self.app = ApiApp(
            self.service, api_keys={API_KEY: "bench"}, rate=1e9, burst=10**9,
            n_dispatchers=1, memory_threshold=1.0,
        )
        self.client = InProcessClient(self.app)
        if self.tracer is not None:
            self.replay = self._service()
        # warm-up: three patterns known, each refactored and hit once
        for r in range(3):
            self._request("cold", r, record=False)
        for r in range(3):
            self._request("refactor", r, record=False)
            self._request("hit", r, record=False)
        self.round = 3

    def close(self) -> None:
        self.app.close()
        self.service.shutdown()
        if self.replay is not None:
            self.replay.shutdown()

    # -- schedule -------------------------------------------------------
    def _pattern(self, r: int) -> Pattern:
        if r not in self.patterns:
            kind = _KINDS[r % 3]
            shapes = self.shapes[kind]
            t0 = perf()
            a = _BUILDERS[kind](*shapes[(r // 3) % len(shapes)])
            self.build_s += perf() - t0
            self.nnz += a.nnz
            self.patterns[r] = Pattern(a)
            self.patterns.pop(r - 3, None)
            self.current.pop(r - 3, None)
        return self.patterns[r]

    def _spread(self, live: list[int], n: int) -> list[int]:
        extra = self.rng.choice(live, size=n % len(live), replace=False)
        return live * (n // len(live)) + [int(p) for p in extra]

    def step(self, traced: bool) -> None:
        r = self.round
        self.round += 1
        live = [r, r - 1, r - 2]
        plan = [("refactor", p) for p in self._spread(live, self.n_ref)]
        plan += [("hit", p) for p in self._spread(live, self.n_hit)]
        self.rng.shuffle(plan)
        self._request("cold", r, traced=traced)
        for cls, p in plan:
            self._request(cls, int(p), traced=traced)
        if traced:
            timings, counts = layers.side_replay(
                self.tracer, self.current[r][0], self.rng
            )
            self.side_timings.append(timings)
            # counts are reported for one fixed structure: the first
            # pattern replayed is the same in every run
            self.side_counts = self.side_counts or counts

    # -- one request ----------------------------------------------------
    def _request(self, cls: str, r: int, *, record: bool = True,
                 traced: bool = False) -> None:
        self.ref.tick()
        pattern = self._pattern(r)
        if cls != "hit":
            a_i = pattern.scaled(self.rng)
            self.current[r] = (a_i, encode_matrix(a_i))
        a_i, doc = self.current[r]
        b = self.rng.normal(size=a_i.n_rows)
        body = json.dumps(
            {"matrix": doc, "rhs": b.tolist(), "refine": True}
        ).encode()
        tr = self.tracer
        if traced:
            tr.next_op()
            with tr.span("api.request") as span:
                resp = self._post(body)
            t0, t1 = span["start"], span["end"]
        else:
            t0 = perf()
            resp = self._post(body)
            t1 = perf()
        self.first_op_s = self.first_op_s or t1 - t0
        error = tier = None
        if resp is not None:
            self.statuses["200" if resp.status == 200 else "other"] += 1
            if resp.status == 200:
                out = resp.json()
                tier = out["tier"]
                if not out["degraded"]:
                    error = pattern.backward_error(a_i, out["x"], b)
        if self.replay is not None:
            self._replay_request(cls, a_i, b, body, traced)
        if not record:
            return
        if self.log.add(f"{cls}.{_KINDS[r % 3]}", t0, t1, error):
            self.body_bytes.append(len(body))
            if tier != _TIER_OF[cls]:
                self.tier_missed[cls] += 1
            if cls == "hit":
                (self.traced_hits if traced else self.plain_hits).append(t1 - t0)

    def _post(self, body: bytes):
        try:
            return self.client.post(
                "/v1/solve", body=body, api_key=API_KEY,
                headers={"content-type": "application/json"},
            )
        except Exception:
            _report_failure("api-mixed request")
            return None

    def _replay_request(self, cls, a_i, b, body, traced: bool) -> None:
        """Traced run only: the same request straight into a second
        ``SolverService`` (so its cache sees the same schedule), plus
        the wire decode and the key hashing on their own."""
        tr = self.tracer
        if not traced:
            self.replay.solve(a_i, b, refine=True)
            return
        with tr.span("service.solve") as span:
            self.replay.solve(a_i, b, refine=True)
        self.replay_s.setdefault(cls, []).append(span["end"] - span["start"])
        with tr.span("api.decode"):
            payload = parse_solve_payload(json.loads(body))
        with tr.span("service.key"):
            matrix_key(payload.a)

    # -- per-layer table ------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        tr, seconds = self.tracer, self.log.wall
        cache = self.service.cache

        def span_s(name: str) -> float:
            return _span_s(tr, name)

        def replay_s(cls: str) -> float:
            return median(self.replay_s.get(cls, []))

        hit, svc_hit, decode = median(seconds("hit")), replay_s("hit"), span_s("api.decode")
        m: dict[str, float] = {
            "matrices.build_s": self.build_s,
            "matrices.nnz": self.nnz,
            "api.decode_s": decode,
            "api.body_bytes": median(self.body_bytes),
            "api.request_hit_p50_s": hit,
            "api.request_hit_p95_s": percentile(seconds("hit"), 95),
            "api.request_refactor_p50_s": median(seconds("refactor")),
            "api.request_cold_p50_s": median(seconds("cold")),
            "api.overhead_hit_s": hit - svc_hit,
            "api.overhead_share_hit": (hit - svc_hit) / hit,
            "api.status.200": self.statuses["200"],
            "api.status.other": self.statuses["other"],
            "api.edge.shed_total": self.service.metrics.counter("edge.shed_total"),
            "service.key_s": span_s("service.key"),
            "service.request_hit_s": svc_hit,
            "service.request_refactor_s": replay_s("refactor"),
            "service.request_cold_s": replay_s("cold"),
            "service.cache.stored_bytes": cache.stored_bytes,
            "service.numeric_hit_rate": cache.numeric_hit_rate,
            "service.intended_hit_missed": self.tier_missed["hit"],
        }
        for name in ("numeric_hits", "symbolic_hits", "misses", "evictions"):
            m[f"service.cache.{name}"] = cache.stats[name]
        # the cold path of the patterns this run introduced, layer by layer
        for key in self.side_timings[0]:
            m[key] = median(t[key] for t in self.side_timings)
        m.update(self.side_counts)
        m["multifrontal.factor_gflops"] = (
            m["symbolic.total_flops"] / m["multifrontal.factor_warm_s"] / 1e9
        )
        m["multifrontal.backward_error_max"] = self.log.worst_error
        plain, traced = median(self.plain_hits), median(self.traced_hits)
        m["bench.decomposition_gap_share"] = abs(hit - decode - svc_hit) / hit
        m["bench.trace_overhead_share"] = (traced - plain) / plain
        m["bench.first_op_extra_s"] = self.first_op_s - median(seconds("cold"))
        m["bench.ops_traced"] = len(tr.named("api.request"))
        return m

    def consistent(self) -> bool:
        return True

    def detail(self) -> dict:
        return {
            "cache_max_bytes": API_CACHE_BYTES,
            "tier_missed": self.tier_missed,
            "evictions": self.service.cache.stats["evictions"],
            "admission": "one client: the edge queue never backs up, so "
                         "admission is measured as pass-through cost only",
        }


def make_workload(name: str, seed: int, quick: bool, tracer, ref):
    cls = ApiWorkload if name == "api-mixed" else DirectWorkload
    return cls(name, seed, quick, tracer, ref)
