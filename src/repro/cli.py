"""Command-line front end.

Usage (also via ``python -m repro``)::

    python -m repro spec                       # Table I hardware record
    python -m repro generate lap3d 12 12 12 --out a.mtx
    python -m repro analyze a.mtx --ordering nd
    python -m repro solve a.mtx --policy model
    python -m repro policies --m 2000 --k 800  # per-policy call costs
    python -m repro train --samples 400 --out clf.json
    python -m repro serve-bench --requests 60  # solver-service benchmark
    python -m repro runtime-bench --cpus 4     # static vs dynamic runtime
    python -m repro cluster-bench --nodes 1,2,4  # fan-both cluster scaling
    python -m repro verify --pairs default     # differential verification
    python -m repro verify --fuzz --budget-seconds 120
    python -m repro lint                       # domain static analysis
    python -m repro lint --list-rules
    python -m repro api-serve --port 8080      # HTTP front door (repro.api)
    python -m repro api-bench --clients 1000   # deterministic API load drive

Every subcommand prints plain text and returns a process exit code, so
the tool scripts cleanly.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _load_matrix(path: str):
    from repro.matrices import read_matrix_market

    return read_matrix_market(path)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_spec(args) -> int:
    from repro.analysis import format_table
    from repro.gpu import TESLA_T10, XEON_5160_CORE

    print(format_table(
        ["field", "value"], TESLA_T10.table_rows(),
        title="Simulated GPU (paper Table I)",
    ))
    print(
        f"\nhost core: {XEON_5160_CORE.name}, "
        f"{XEON_5160_CORE.peak_dp_gflops:g} GF/s dp peak"
    )
    return 0


def cmd_generate(args) -> int:
    from repro.matrices import (
        elasticity_3d,
        grid_laplacian_2d,
        grid_laplacian_3d,
        random_spd,
        write_matrix_market,
    )

    dims = args.dims
    if args.kind == "lap2d":
        if len(dims) != 2:
            raise SystemExit("lap2d needs 2 dimensions")
        a = grid_laplacian_2d(*dims)
    elif args.kind == "lap3d":
        if len(dims) != 3:
            raise SystemExit("lap3d needs 3 dimensions")
        a = grid_laplacian_3d(*dims)
    elif args.kind == "elasticity":
        if len(dims) != 3:
            raise SystemExit("elasticity needs 3 dimensions")
        a = elasticity_3d(*dims)
    elif args.kind == "random":
        if len(dims) != 1:
            raise SystemExit("random needs 1 dimension (n)")
        a = random_spd(dims[0], seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown kind {args.kind}")
    write_matrix_market(args.out, a, symmetric=True)
    print(f"wrote {args.out}: n={a.n_rows}, nnz={a.nnz}")
    return 0


def cmd_analyze(args) -> int:
    from repro.analysis import format_table
    from repro.symbolic import symbolic_factorize

    a = _load_matrix(args.matrix)
    sf = symbolic_factorize(a, ordering=args.ordering)
    mk = sf.mk_pairs()
    rows = [
        ["n", a.n_rows],
        ["nnz(A)", a.nnz],
        ["ordering", args.ordering],
        ["nnz(L)", sf.nnz_factor],
        ["fill ratio", f"{sf.nnz_factor / max(1, a.lower_triangle().nnz):.2f}"],
        ["supernodes", sf.n_supernodes],
        ["largest front k", int(mk[:, 1].max())],
        ["largest update m", int(mk[:, 0].max())],
        ["factor flops", f"{sf.total_flops():.4g}"],
    ]
    print(format_table(["quantity", "value"], rows, title=f"analysis of {args.matrix}"))
    return 0


def cmd_profile(args) -> int:
    from repro.analysis import format_profile, profile_tree

    amalgamation = getattr(args, "amalgamation", "default")
    if args.workload:
        from repro.workload import paper_workload

        sf = paper_workload(args.matrix)
        title = f"paper-scale workload {args.matrix}"
    else:
        from repro.symbolic import amalgamation_preset, symbolic_factorize

        sf = symbolic_factorize(
            _load_matrix(args.matrix), ordering=args.ordering,
            amalgamation=amalgamation_preset(amalgamation),
        )
        title = args.matrix
    print(f"tree profile of {title}:")
    print(format_profile(profile_tree(sf, amalgamation=amalgamation)))
    return 0


def cmd_solve(args) -> int:
    from repro.multifrontal import SparseCholeskySolver
    from repro.symbolic import amalgamation_preset

    a = _load_matrix(args.matrix)
    solver = SparseCholeskySolver(
        a, ordering=args.ordering, policy=args.policy,
        amalgamation=amalgamation_preset(args.amalgamation),
    )
    solver.analyze().factorize()
    if args.rhs == "ones":
        b = np.ones(a.n_rows)
    else:
        b = np.loadtxt(args.rhs)
    res = solver.solve_refined(b, tol=args.tol)
    stats = solver.stats
    print(f"n={stats.n} nnz(L)={stats.nnz_factor} supernodes={stats.n_supernodes}")
    print(
        f"simulated time: {stats.simulated_seconds:.4f}s "
        f"({stats.effective_gflops:.2f} GF/s effective)"
    )
    print(f"policy usage: {stats.policy_counts}")
    print(
        f"solve: {res.iterations} refinement step(s), "
        f"final residual {res.final_residual:.3e}"
    )
    if args.out:
        np.savetxt(args.out, res.x)
        print(f"solution written to {args.out}")
    return 0 if res.converged else 2


def cmd_policies(args) -> int:
    from repro.analysis import format_table
    from repro.gpu import tesla_t10_model
    from repro.policies import estimate_policy_time, make_policy

    model = tesla_t10_model()
    rows = []
    best_name, best_t = None, float("inf")
    for name in ("P1", "P2", "P3", "P4", "P4c", "basic"):
        t = estimate_policy_time(make_policy(name), args.m, args.k, model)
        rows.append([name, t * 1e3, (args.m * args.k**2 + args.m**2 * args.k + args.k**3 / 3) / t / 1e9])
        if t < best_t and name in ("P1", "P2", "P3", "P4"):
            best_name, best_t = name, t
    print(format_table(
        ["policy", "time (ms)", "GF/s"],
        rows,
        title=f"factor-update of m={args.m}, k={args.k}",
        float_fmt="{:.3f}",
    ))
    print(f"best base policy: {best_name}")
    return 0


def cmd_train(args) -> int:
    from repro.autotune import (
        collect_timing_dataset,
        sample_mk_cloud,
        train_cost_sensitive,
    )
    from repro.gpu import tesla_t10_model

    model = tesla_t10_model()
    m, k = sample_mk_cloud(args.samples, seed=args.seed)
    ds = collect_timing_dataset(
        m, k, model, noise=args.noise, repetitions=2, seed=args.seed
    )
    clf = train_cost_sensitive(ds)
    regret = clf.expected_time(ds.m, ds.k, ds.times) / ds.oracle_time() - 1
    print(
        f"trained on {ds.n} observations; training regret vs oracle: "
        f"{100 * regret:.2f}%"
    )
    if args.out:
        clf.save(args.out)
        print(f"classifier saved to {args.out}")
    return 0


def _serve_bench_stream(n_patterns: int, n_requests: int):
    """Synthetic repeated-pattern request stream for ``serve-bench``.

    ``n_patterns`` distinct sparsity patterns cycle round-robin; each
    pattern alternates between a small set of value variants (the same
    SPD matrix scaled by a constant), so a long stream exercises all
    three cache outcomes: misses (first sighting), symbolic hits (known
    pattern, new values) and numeric hits (exact repeats).
    """
    from repro.matrices import grid_laplacian_2d
    from repro.matrices.csc import CSCMatrix

    patterns = [grid_laplacian_2d(8 + 2 * p, 9 + p) for p in range(n_patterns)]
    variants: list[dict[int, CSCMatrix]] = [{} for _ in patterns]
    stream = []
    for i in range(n_requests):
        p = i % n_patterns
        v = (i // n_patterns) % 3          # 3 value variants per pattern
        if v not in variants[p]:
            base = patterns[p]
            variants[p][v] = CSCMatrix(
                base.shape, base.indptr, base.indices,
                base.data * (1.0 + 0.5 * v), check=False,
            )
        stream.append(variants[p][v])
    return stream


def cmd_serve_bench(args) -> int:
    import time

    from repro.analysis import format_table
    from repro.service import SolverService

    if args.requests < 1 or args.patterns < 1:
        print("serve-bench: need at least one pattern and one request")
        return 2
    stream = _serve_bench_stream(args.patterns, args.requests)
    with SolverService(
        n_workers=args.workers,
        policy=args.policy,
        ordering=args.ordering,
        batch_window=args.batch_window,
        max_cache_bytes=args.cache_mb << 20,
    ) as svc:
        t0 = time.perf_counter()
        requests = [svc.submit(a, np.ones(a.n_rows)) for a in stream]
        outcomes = [r.result(timeout=300.0) for r in requests]
        wall = time.perf_counter() - t0
        if args.trace:
            svc.metrics.write_chrome_trace(args.trace)
        rep = svc.report()

    cache = rep["cache"]
    total = rep["latency"]["total"]
    tiers = {"miss": 0, "symbolic": 0, "numeric": 0, "batched": 0}
    for o in outcomes:
        tiers[o.tier] += 1
    n = len(outcomes)
    # request-level symbolic-tier hit rate: requests served without a
    # fresh symbolic analysis (cache hits + requests batched onto an
    # in-flight factor)
    sym_rate = (n - tiers["miss"]) / n if n else 0.0
    batched = sum(1 for o in outcomes if o.batch_size > 1)
    rows = [
        ["requests", n],
        ["workers", args.workers],
        ["throughput (req/s)", f"{n / wall:.1f}"],
        ["p50 latency (ms)", f"{total['p50'] * 1e3:.2f}"],
        ["p95 latency (ms)", f"{total['p95'] * 1e3:.2f}"],
        ["mean latency (ms)", f"{total['mean'] * 1e3:.2f}"],
        ["cold misses (fresh analyses)", tiers["miss"]],
        ["symbolic-tier hit rate", f"{100 * sym_rate:.1f}%"],
        ["numeric-tier reuse", tiers["numeric"] + tiers["batched"]],
        ["cache symbolic/numeric hits",
         f"{cache['symbolic_hits']}/{cache['numeric_hits']}"],
        ["numeric factorizations", rep["counters"].get("numeric_factorizations", 0)],
        ["requests in shared batches", batched],
        ["cache evictions", cache["evictions"]],
        ["cache bytes", cache["stored_bytes"]],
        ["degraded (CPU fallback)", rep["counters"].get("degraded", 0)],
        ["timeouts", rep["counters"].get("timeouts", 0)],
    ]
    print(format_table(
        ["quantity", "value"], rows,
        title=f"serve-bench: {args.patterns} patterns x {args.requests} requests",
    ))
    if args.trace:
        print(f"chrome trace written to {args.trace}")
    return 0


def _runtime_suite():
    from repro.matrices import elasticity_3d, grid_laplacian_2d, grid_laplacian_3d

    return [
        ("lap2d-32x32", grid_laplacian_2d(32, 32)),
        ("lap3d-8x8x8", grid_laplacian_3d(8, 8, 8)),
        ("elasticity-5x5x5", elasticity_3d(5, 5, 5)),
    ]


def cmd_runtime_bench(args) -> int:
    from repro.analysis import format_table
    from repro.parallel import list_schedule, make_worker_pool
    from repro.policies import make_policy
    from repro.runtime import (
        FaultInjector,
        dynamic_schedule,
        schedule_peak_update_bytes,
    )
    from repro.symbolic import symbolic_factorize

    rows = []
    last_dyn = None
    for name, a in _runtime_suite():
        sf = symbolic_factorize(a, ordering=args.ordering)
        pool = make_worker_pool(args.cpus, args.gpus)
        policy = make_policy(args.policy, model=pool.node.model)
        static = list_schedule(sf, policy, pool, gang_threshold=np.inf)
        static_peak = schedule_peak_update_bytes(sf, static.schedule)
        budget = (
            int(static_peak * args.budget_frac) if args.budget_frac > 0 else None
        )
        faults = None
        if args.fail_rate > 0 or args.stall_rate > 0:
            faults = FaultInjector(
                kernel_failure_rate=args.fail_rate,
                transfer_stall_rate=args.stall_rate,
                seed=args.seed,
            )
        dyn = dynamic_schedule(
            sf, policy, make_worker_pool(args.cpus, args.gpus),
            memory_budget=budget, faults=faults,
        )
        last_dyn = dyn
        s = dyn.stats
        rows.append([
            name,
            f"{static.makespan * 1e3:.3f}",
            f"{dyn.makespan * 1e3:.3f}",
            f"{dyn.makespan / static.makespan:.3f}",
            s.steals,
            s.stolen_tasks,
            s.admission_deferrals,
            ("-" if budget is None else
             f"{s.peak_admitted_bytes}/{budget}"
             + ("!" if s.peak_admitted_bytes > budget else "")),
            s.degraded_tasks,
        ])
    print(format_table(
        ["matrix", "static ms", "dynamic ms", "dyn/static", "steals",
         "stolen", "deferrals", "peak/budget", "degraded"],
        rows,
        title=(
            f"runtime-bench: {args.cpus} CPUs, {args.gpus} GPUs, "
            f"policy {args.policy}"
        ),
    ))
    if args.trace and last_dyn is not None:
        import json

        with open(args.trace, "w") as fh:
            json.dump(last_dyn.chrome_trace(), fh)
        print(f"chrome trace of the last run written to {args.trace}")
    return 0


def cmd_cluster_bench(args) -> int:
    from repro.analysis import format_table
    from repro.cluster import ClusterSpec, InterconnectParams, cluster_replay
    from repro.gpu.perfmodel import tesla_t10_model
    from repro.workload import paper_workload

    try:
        sf = paper_workload(args.workload)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    model = tesla_t10_model()
    policy = make_policy(args.policy, model=model)
    net = InterconnectParams(latency=args.latency, bandwidth=args.bandwidth)

    rows = []
    base = None
    last = None
    for n in args.nodes:
        spec = ClusterSpec(
            n_ranks=n, gpus_per_rank=args.gpus, model=model, interconnect=net,
        )
        res = cluster_replay(sf, policy, spec)
        last = res
        if base is None:
            base = res.makespan
        rows.append([
            n,
            f"{res.makespan:.4f}",
            f"{base / res.makespan:.2f}" if res.makespan > 0 else "-",
            f"{100 * res.utilization():.1f}%",
            res.comm_messages,
            f"{res.comm_bytes / 1e6:.1f}",
            f"{res.comm_seconds:.4f}",
        ])
    print(format_table(
        ["nodes", "makespan s", "speedup", "util", "msgs", "comm MB",
         "comm s"],
        rows,
        title=(
            f"cluster-bench: {args.workload}, policy {args.policy}, "
            f"{args.gpus} GPU/node, "
            f"{net.bandwidth / 1e9:.1f} GB/s + {net.latency * 1e6:.0f} us"
        ),
    ))
    if args.trace and last is not None:
        import json

        with open(args.trace, "w") as fh:
            json.dump(last.chrome_trace(), fh)
        print(f"chrome trace of the last run written to {args.trace}")
    return 0


def cmd_lint(args) -> int:
    """Domain-aware static analysis (see ``repro.lint``)."""
    from pathlib import Path

    from repro.lint import all_rules, render, run_lint

    if args.list_rules:
        from repro.analysis import format_table

        rows = [
            [r.rule_id, r.name, r.severity, r.summary]
            for r in all_rules()
        ]
        print(format_table(
            ["id", "name", "severity", "summary"], rows,
            title="repro-lint rules",
        ))
        return 0

    repo_root = Path(__file__).resolve().parents[2]
    paths = [Path(p) for p in args.paths] if args.paths else [
        repo_root / "src" / "repro"
    ]
    for p in paths:
        if not p.exists():
            print(f"lint: path does not exist: {p}", file=sys.stderr)
            return 2

    result = run_lint(paths, src_roots=[repo_root / "src"])
    print(render(result, args.format, rules=all_rules()))

    rc = 0 if result.ok else 1
    if args.self_check:
        rc = max(rc, _lint_self_check(repo_root))
    return rc


#: modules held to ``mypy --strict`` by the self-check and CI; mirrors
#: the per-module overrides in pyproject.toml
STRICT_TYPED_PATHS = (
    "src/repro/lint",
    "src/repro/api",
    "src/repro/service/cache.py",
    "src/repro/service/tiers.py",
)


def _lint_self_check(repo_root) -> int:
    """Run the generic linters (ruff, mypy) when they are installed.

    The container image does not ship them; CI installs the ``lint``
    extra.  A missing tool is reported and skipped, never a failure —
    the domain lint above is the gate that always runs.
    """
    import shutil
    import subprocess

    rc = 0
    for name, argv in (
        ("ruff", ["ruff", "check", *STRICT_TYPED_PATHS]),
        ("mypy", ["mypy", "--strict", *STRICT_TYPED_PATHS]),
    ):
        if shutil.which(name) is None:
            print(f"self-check: {name} skipped (not installed)")
            continue
        proc = subprocess.run(argv, cwd=repo_root)
        status = "ok" if proc.returncode == 0 else f"failed ({proc.returncode})"
        print(f"self-check: {name} {status}")
        rc = max(rc, proc.returncode)
    return rc


def cmd_bench(args) -> int:
    """Deterministic benchmarks + perf-regression gate (repro.bench)."""
    from pathlib import Path

    from repro.analysis import format_table
    from repro.bench import (
        BenchDeterminismError,
        RunOptions,
        all_scenarios,
        compare_results,
        load_results_dir,
        run_scenarios,
    )

    if args.list:
        rows = [
            [s.name, ",".join(s.tags), s.description] for s in all_scenarios()
        ]
        print(format_table(
            ["scenario", "tags", "description"], rows, title="bench scenarios",
        ))
        return 0

    if args.check and not args.baseline:
        print("bench: --check requires --baseline DIR", file=sys.stderr)
        return 2
    baseline = None
    if args.baseline:
        bdir = Path(args.baseline)
        if not bdir.is_dir():
            print(f"bench: baseline dir does not exist: {bdir}", file=sys.stderr)
            return 2
        baseline = load_results_dir(bdir)
        if not baseline:
            print(f"bench: no BENCH_*.json under {bdir}", file=sys.stderr)
            return 2

    names = args.scenarios or None
    options = RunOptions(
        repeats=args.repeats, profile=args.profile, profile_top=args.profile_top
    )
    try:
        results = run_scenarios(names, options=options)
    except KeyError as exc:
        print(f"bench: {exc.args[0]}", file=sys.stderr)
        return 2
    except BenchDeterminismError as exc:
        print(f"bench: DETERMINISM FAILURE\n{exc}", file=sys.stderr)
        return 1

    rows = []
    for r in results:
        rows.append([
            r.scenario,
            r.repeats,
            f"{r.wall.median_seconds * 1e3:.1f}",
            f"{r.wall.mad_seconds * 1e3:.2f}",
            len(r.deterministic),
        ])
    print(format_table(
        ["scenario", "repeats", "wall median (ms)", "MAD (ms)", "counters"],
        rows, title="bench results",
    ))

    # write BENCH_<scenario>.json; during --check nothing is written
    # unless an out-dir is explicitly requested (the committed baselines
    # must not be clobbered by the gate that reads them)
    out_dir = args.out_dir
    if not out_dir and not args.check:
        out_dir = "."
    if out_dir:
        for r in results:
            path = r.write(out_dir)
            print(f"wrote {path}")

    if args.check:
        if names:
            # subset run: only gate what actually ran, rather than
            # flagging every un-requested baseline as GONE
            baseline = {k: v for k, v in baseline.items() if k in set(names)}
        report = compare_results(
            {r.scenario: r for r in results},
            baseline,
            check_wall=not args.skip_wall,
            check_numeric=args.check_numeric,
            mad_factor=args.mad_factor,
            rel_floor=args.rel_floor,
        )
        print(report.format())
        return 0 if report.ok else 1
    return 0


def cmd_api_serve(args) -> int:
    """Serve the repro.api front door over HTTP (stdlib server)."""
    from repro.api import ApiApp, serve_http
    from repro.cluster.fleet import ShardedSolverService
    from repro.service import SolverService

    keys: dict[str, str] = {}
    for spec in args.api_key or ["dev-key=dev"]:
        key, sep, client = spec.partition("=")
        if not sep or not key or not client:
            print(f"api-serve: bad --api-key {spec!r} (want KEY=CLIENT)",
                  file=sys.stderr)
            return 2
        keys[key] = client

    if args.nodes > 1:
        service = ShardedSolverService(
            args.nodes, n_workers_per_node=args.workers,
            policy=args.policy, ordering=args.ordering,
        )
    else:
        service = SolverService(
            n_workers=args.workers, policy=args.policy,
            ordering=args.ordering,
        )
    app = ApiApp(
        service, api_keys=keys, rate=args.rate, burst=args.burst,
        edge_capacity=args.edge_capacity,
        memory_threshold=args.memory_threshold,
    )
    server = serve_http(app, args.host, args.port)
    kind = f"{args.nodes}-node fleet" if args.nodes > 1 else "single service"
    print(
        f"repro.api: serving {kind} on http://{args.host}:{args.port} "
        f"({len(keys)} API key(s); try /v1/healthz)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\napi-serve: shutting down")
    finally:
        server.shutdown()
        app.close()
        service.shutdown()
    return 0


def cmd_api_bench(args) -> int:
    """Deterministic phased load drive through the API front door."""
    import json
    import time

    from repro.analysis import format_table
    from repro.api.loadgen import run_load

    t0 = time.perf_counter()
    report = run_load(
        n_clients=args.clients,
        n_nodes=args.nodes,
        n_steady=args.steady,
        edge_capacity=args.edge_capacity,
        overload_jobs=args.overload_jobs,
        n_deadline=args.deadline,
    )
    wall = time.perf_counter() - t0
    if args.json:
        print(json.dumps(report.counters(), indent=2, sort_keys=True))
    else:
        rows = []
        for phase, outcomes in report.phases.items():
            for outcome, count in sorted(outcomes.items()):
                rows.append([phase, outcome, count])
        rows.append(["-", "requests", report.requests])
        rows.append(["-", "invalid envelopes", report.invalid_envelopes])
        rows.append(["-", "throughput (req/s)",
                     f"{report.requests / wall:.1f}"])
        print(format_table(
            ["phase", "outcome", "count"], rows,
            title=(
                f"api-bench: {args.clients} clients over "
                f"{args.nodes}-node fleet ({wall:.2f}s)"
            ),
        ))
    ok = (
        report.invalid_envelopes == 0
        and report.total("internal") == 0
        and report.phases.get("steady", {}).get("shed", 0) == 0
        and report.phases.get("overload", {}).get("shed", 0) > 0
    )
    if not ok:
        print("api-bench: FAILED an outcome invariant", file=sys.stderr)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    """Differential verification: config lattice, invariants, fuzzing."""
    from repro.verify import format_suite, run_fuzz, verify_suite

    if args.fuzz:
        report = run_fuzz(
            budget_seconds=args.budget_seconds,
            seed=args.seed,
            max_cases=args.max_cases,
            witness_dir=args.witness_dir or None,
        )
        print(
            f"fuzz: {report.cases_run} case(s) in "
            f"{report.elapsed_seconds:.1f}s, {len(report.failures)} failure(s)"
        )
        for f in report.failures:
            shrunk = (
                f" (shrunk from n={f.shrunk_from} to n={f.witness.n_rows})"
                if f.shrunk_from else ""
            )
            print(f"  {f.case_label}: {f.check}{shrunk}")
            for v in f.violations[:3]:
                print(f"    {v}")
            if f.witness_path:
                print(f"    witness: {f.witness_path}")
        return 0 if report.ok else 1

    result = verify_suite(
        args.pairs,
        scale=args.scale,
        invariants=not args.no_invariants,
        corpus_dir=args.corpus or None,
    )
    print(format_suite(result))
    return 0 if result.ok else 1


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid CPU-GPU multifrontal Cholesky (IPDPS'11 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("spec", help="print the simulated hardware (Table I)")

    g = sub.add_parser("generate", help="generate an SPD test matrix")
    g.add_argument("kind", choices=("lap2d", "lap3d", "elasticity", "random"))
    g.add_argument("dims", type=int, nargs="+")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)

    a = sub.add_parser("analyze", help="symbolic analysis of a MatrixMarket file")
    a.add_argument("matrix")
    a.add_argument("--ordering", default="nd",
                   choices=("natural", "amd", "rcm", "nd"))

    s = sub.add_parser("solve", help="factor and solve A x = b")
    s.add_argument("matrix")
    s.add_argument("--policy", default="baseline")
    s.add_argument("--ordering", default="nd",
                   choices=("natural", "amd", "rcm", "nd"))
    s.add_argument("--amalgamation", default="default",
                   choices=("default", "off", "aggressive"),
                   help="supernode amalgamation preset")
    s.add_argument("--rhs", default="ones",
                   help="'ones' or a path to a text vector")
    s.add_argument("--tol", type=float, default=1e-12)
    s.add_argument("--out", default="")

    pr = sub.add_parser("profile", help="elimination-tree profile")
    pr.add_argument("matrix",
                    help="MatrixMarket path, or a paper workload name "
                         "with --workload")
    pr.add_argument("--ordering", default="nd",
                    choices=("natural", "amd", "rcm", "nd"))
    pr.add_argument("--amalgamation", default="default",
                    choices=("default", "off", "aggressive"),
                    help="supernode amalgamation preset (file inputs only)")
    pr.add_argument("--workload", action="store_true",
                    help="treat MATRIX as a repro.workload name")

    c = sub.add_parser("policies", help="per-policy cost of one F-U call")
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--k", type=int, required=True)

    t = sub.add_parser("train", help="auto-tune a policy classifier")
    t.add_argument("--samples", type=int, default=400)
    t.add_argument("--noise", type=float, default=0.05)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", default="")

    sb = sub.add_parser(
        "serve-bench",
        help="replay a synthetic request stream through the solver service",
    )
    sb.add_argument("--patterns", type=int, default=3,
                    help="distinct sparsity patterns in the stream")
    sb.add_argument("--requests", type=int, default=60)
    sb.add_argument("--workers", type=int, default=2)
    sb.add_argument("--policy", default="P1")
    sb.add_argument("--ordering", default="amd",
                    choices=("natural", "amd", "rcm", "nd"))
    sb.add_argument("--batch-window", type=float, default=0.0,
                    help="seconds a worker waits for same-factor stragglers")
    sb.add_argument("--cache-mb", type=int, default=256,
                    help="factorization-cache budget in MiB")
    sb.add_argument("--trace", default="",
                    help="write per-request Chrome-trace slices to this path")

    rb = sub.add_parser(
        "runtime-bench",
        help="static list scheduler vs the dynamic event-driven runtime",
    )
    rb.add_argument("--cpus", type=int, default=4)
    rb.add_argument("--gpus", type=int, default=0)
    rb.add_argument("--policy", default="P1",
                    help="P1..P4, P4c, baseline, ideal")
    rb.add_argument("--ordering", default="nd",
                    choices=("natural", "amd", "rcm", "nd"))
    rb.add_argument("--budget-frac", type=float, default=0.0,
                    help="memory budget as a fraction of the static "
                         "schedule's peak (0 disables admission control)")
    rb.add_argument("--fail-rate", type=float, default=0.0,
                    help="injected GPU kernel failure probability")
    rb.add_argument("--stall-rate", type=float, default=0.0,
                    help="injected transfer stall probability")
    rb.add_argument("--seed", type=int, default=0)
    rb.add_argument("--trace", default="",
                    help="write the last dynamic run's Chrome trace here")

    cb = sub.add_parser(
        "cluster-bench",
        help="fan-both cluster replay scaling over a node-count sweep",
    )
    cb.add_argument("--workload", default="audikw_1",
                    help="paper workload name (see repro.workload)")
    cb.add_argument("--nodes", default=[1, 2, 4],
                    type=lambda s: [int(t) for t in s.split(",") if t],
                    help="comma-separated node counts to sweep")
    cb.add_argument("--policy", default="P4",
                    help="P1..P4, P4c, baseline, ideal")
    cb.add_argument("--gpus", type=int, default=1, choices=(0, 1),
                    help="GPUs per node (the paper's one-thread-per-GPU "
                         "design point)")
    cb.add_argument("--latency", type=float, default=5e-6,
                    help="interconnect latency in seconds")
    cb.add_argument("--bandwidth", type=float, default=1.5e9,
                    help="interconnect bandwidth in bytes/second")
    cb.add_argument("--trace", default="",
                    help="write the last run's merged Chrome trace here")

    li = sub.add_parser(
        "lint",
        help="domain-aware static analysis (lock order, determinism, "
             "allocator ownership, key purity, metric hygiene)",
    )
    li.add_argument("paths", nargs="*",
                    help="files/directories to lint (default: src/repro)")
    li.add_argument("--format", default="text",
                    choices=("text", "json", "github", "sarif"))
    li.add_argument("--list-rules", action="store_true",
                    help="print the rule table and exit")
    li.add_argument("--self-check", action="store_true",
                    help="also run ruff and mypy --strict over the "
                         "strict-typed modules when installed")

    ap = sub.add_parser(
        "api-serve",
        help="serve the JSON front door (auth, rate limits, job queue) "
             "over HTTP",
    )
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=8080)
    ap.add_argument("--nodes", type=int, default=1,
                    help="shard count; >1 serves a ShardedSolverService")
    ap.add_argument("--workers", type=int, default=2,
                    help="solver workers per node")
    ap.add_argument("--policy", default="P1")
    ap.add_argument("--ordering", default="amd",
                    choices=("natural", "amd", "rcm", "nd"))
    ap.add_argument("--api-key", action="append", default=None,
                    metavar="KEY=CLIENT",
                    help="register an API key (repeatable; default "
                         "dev-key=dev)")
    ap.add_argument("--rate", type=float, default=50.0,
                    help="per-client sustained requests/second")
    ap.add_argument("--burst", type=int, default=20,
                    help="per-client token-bucket burst")
    ap.add_argument("--edge-capacity", type=int, default=64,
                    help="bounded edge-queue capacity before shedding")
    ap.add_argument("--memory-threshold", type=float, default=0.95,
                    help="cache-pressure level that sheds new work")

    ab = sub.add_parser(
        "api-bench",
        help="deterministic phased load through the API front door "
             "(steady / overload / deadline / ratelimit)",
    )
    ab.add_argument("--clients", type=int, default=1000)
    ab.add_argument("--nodes", type=int, default=4)
    ab.add_argument("--steady", type=int, default=None,
                    help="steady-phase requests (default: one per client)")
    ab.add_argument("--edge-capacity", type=int, default=32)
    ab.add_argument("--overload-jobs", type=int, default=None,
                    help="factorize burst size (default: 2x capacity)")
    ab.add_argument("--deadline", type=int, default=8,
                    help="requests sent with an already-expired deadline")
    ab.add_argument("--json", action="store_true",
                    help="print the flat counter dict instead of a table")

    v = sub.add_parser(
        "verify",
        help="differential verification: config lattice, invariants, fuzzing",
    )
    v.add_argument("--pairs", default="default",
                   choices=("default", "all", "bitwise", "normwise"),
                   help="which configuration pairs to check")
    v.add_argument("--scale", default="small", choices=("small", "full"),
                   help="generator-suite size")
    v.add_argument("--no-invariants", action="store_true",
                   help="skip the invariant checkers (pairs only)")
    v.add_argument("--corpus", default="",
                   help="regression-corpus directory "
                        "(default: tests/corpus in the repo)")
    v.add_argument("--fuzz", action="store_true",
                   help="fuzz with adversarial generators instead of the "
                        "fixed suite")
    v.add_argument("--budget-seconds", type=float, default=60.0,
                   help="fuzzing time budget")
    v.add_argument("--max-cases", type=int, default=None,
                   help="cap on generated fuzz cases")
    v.add_argument("--seed", type=int, default=0,
                   help="first fuzz case seed")
    v.add_argument("--witness-dir", default="",
                   help="persist shrunk failure witnesses here")

    be = sub.add_parser(
        "bench",
        help="deterministic benchmarks + perf-regression gate "
             "(BENCH_<scenario>.json)",
    )
    be.add_argument("--list", action="store_true",
                    help="print the scenario registry and exit")
    be.add_argument("--scenarios", default=None,
                    type=lambda s: [t for t in s.split(",") if t],
                    help="comma-separated scenario names (default: all)")
    be.add_argument("--repeats", type=int, default=3,
                    help="timed repeats per scenario (counters must be "
                         "bit-identical across all of them)")
    be.add_argument("--profile", action="store_true",
                    help="attach cProfile and embed top hot spots per "
                         "scenario in the JSON")
    be.add_argument("--profile-top", type=int, default=15,
                    help="hot-spot rows to keep with --profile")
    be.add_argument("--out-dir", default="",
                    help="where to write BENCH_*.json (default: CWD, or "
                         "nowhere under --check)")
    be.add_argument("--check", action="store_true",
                    help="gate mode: compare against --baseline, exit 1 "
                         "on regression")
    be.add_argument("--baseline", default="",
                    help="directory holding committed BENCH_*.json")
    be.add_argument("--skip-wall", action="store_true",
                    help="gate on deterministic counters only (for "
                         "cross-machine CI)")
    be.add_argument("--check-numeric", action="store_true",
                    help="also gate the machine-local numeric section "
                         "(fingerprints, residuals)")
    be.add_argument("--mad-factor", type=float, default=5.0,
                    help="wall tolerance: this many baseline MADs")
    be.add_argument("--rel-floor", type=float, default=0.25,
                    help="wall tolerance floor as a fraction of the "
                         "baseline median")
    return p


_COMMANDS = {
    "spec": cmd_spec,
    "generate": cmd_generate,
    "analyze": cmd_analyze,
    "profile": cmd_profile,
    "solve": cmd_solve,
    "policies": cmd_policies,
    "train": cmd_train,
    "serve-bench": cmd_serve_bench,
    "runtime-bench": cmd_runtime_bench,
    "cluster-bench": cmd_cluster_bench,
    "lint": cmd_lint,
    "verify": cmd_verify,
    "bench": cmd_bench,
    "api-serve": cmd_api_serve,
    "api-bench": cmd_api_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
