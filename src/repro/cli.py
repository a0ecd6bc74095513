"""Command-line front end.

Usage (also via ``python -m repro``)::

    python -m repro spec                       # Table I hardware record
    python -m repro generate lap3d 12 12 12 --out a.mtx
    python -m repro analyze a.mtx --ordering nd
    python -m repro solve a.mtx --policy model
    python -m repro policies --m 2000 --k 800  # per-policy call costs
    python -m repro train --samples 400 --out clf.json
    python -m repro verify                     # differential verification
    python -m repro verify --fuzz --budget-seconds 120
    python -m repro lint                       # domain static analysis
    python -m repro lint --list-rules
    python -m repro bench --check --baseline . # virtual-clock regression gate
    python -m repro api-serve --port 8080      # HTTP front door (repro.api)

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
        f"backward error {res.final_residual:.3e}"
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

    if args.scenarios == []:
        print("bench: --scenarios names no scenario", file=sys.stderr)
        return 2
    if args.repeats < 1:
        print("bench: --repeats must be at least 1", file=sys.stderr)
        return 2
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

    names = args.scenarios
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

    rows = [[r.scenario, r.repeats, len(r.deterministic)] for r in results]
    print(format_table(
        ["scenario", "repeats", "counters"], rows, title="bench results",
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
            check_numeric=args.check_numeric,
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

    v = sub.add_parser(
        "verify",
        help="differential verification: config lattice, invariants, fuzzing",
    )
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
                    help="runs per scenario (counters must be "
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
    be.add_argument("--check-numeric", action="store_true",
                    help="also gate the machine-local numeric section "
                         "(fingerprints, residuals)")
    return p


_COMMANDS = {
    "spec": cmd_spec,
    "generate": cmd_generate,
    "analyze": cmd_analyze,
    "profile": cmd_profile,
    "solve": cmd_solve,
    "policies": cmd_policies,
    "train": cmd_train,
    "lint": cmd_lint,
    "verify": cmd_verify,
    "bench": cmd_bench,
    "api-serve": cmd_api_serve,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
