#!/usr/bin/env python3
"""Wall-clock benchmark of ``repro``: four workloads from matrix to refined x.

    python3 bench/run.py [--workload NAME] [--seed N] [--trace [0|1]]
                         [--seconds S] [--runs K] [--out FILE] [--quick]

Runs the named workload (default: all four), ``--runs`` times each on
seeds N, N+1, ...: untraced for the end-to-end metrics, or with
``--trace`` for the per-layer table.  Every run is printed, all of them
are written to one results file (``--out``; ``compare.py`` reads two of
these), and the last line of standard output is the last run as one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``).

This process never imports numpy: each run is a child process started
with the three BLAS thread pins set to 1.  Metric names, units and
bounds are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS = os.path.join(BENCH_DIR, "results")

PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (no subprocess); the
    driver's checkout is not a repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def run_once(manifest: dict, workload: str, seed: int, seconds: float,
             trace: int, quick: bool) -> dict:
    """One run in one pinned child process: the result object the driver
    reads, plus detail and the environment stamp."""
    t0 = time.time()
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    env = dict(os.environ, **{name: "1" for name in PINS})
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child for {workload} exited {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = manifest["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in declared}
    if names != set(out["metrics"]):
        raise RuntimeError(
            f"{workload}: declared but not measured "
            f"{sorted(names - set(out['metrics']))}, measured but not "
            f"declared {sorted(set(out['metrics']) - names)}"
        )
    return {
        "workload": workload,
        "trace": trace,
        # every answer passed its check, and the simulated factor time
        # read the same on every op (and as the virtual-clock gate has it)
        "correct": out["failed"] == 0 and out["consistent"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared
        },
        "detail": out["detail"],
        "env": dict(out["env"], git_commit=git_commit(), seed=seed,
                    wall_s=time.time() - t0),
    }


def print_run(result: dict) -> None:
    kind = "per-layer (traced)" if result["trace"] else "end-to-end (untraced)"
    print(f"== {result['workload']}  {kind}  seed {result['env']['seed']}")
    detail = result["detail"]
    for cls, c in detail["classes"].items():
        print(f"   class {cls:<12} n={c['n']:<4} wall p50 {c['p50_wall_s']:.4f} s  "
              f"quartiles {c['q1_wall_s']:.4f} .. {c['q3_wall_s']:.4f} s  "
              f"normalised p50 {c['p50_s']:.4f} s")
    print(f"   machine slowdown while measuring: "
          f"{detail['machine_slowdown']:.3f} x the reference speed")
    share = result["failed"] / result["attempted"]
    print(f"   failed_share {share:g}  ({result['failed']} of "
          f"{result['attempted']} ops; worst backward error "
          f"{detail['worst_backward_error']:.2e})")
    for key in ("sim_factor_s", "admission", "tier_missed", "evictions"):
        if key in detail:
            print(f"   {key}: {detail[key]}")
    for name, m in result["metrics"].items():
        print(f"   {name:<40} {m['value']:>16.6g} {m['unit']}")
    layers = detail.get("op_layers_s")
    if layers:
        total = sum(v for name, v in layers.items() if not name.startswith("("))
        print(f"   layer shares of one {result['workload']} op:")
        for name, seconds in layers.items():
            print(f"     {name:<48} {seconds:8.4f} s  {seconds / total:6.1%}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="default: every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    help="traced run: the per-layer table")
    ap.add_argument("--seconds", type=float,
                    help="measuring time of a run (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--runs", type=int, default=1,
                    help="runs per workload, on seeds seed..seed+runs-1")
    ap.add_argument("--out", help="results file (default: under bench/results/)")
    ap.add_argument("--quick", action="store_true",
                    help="tiny matrices, a few ops per workload (self-test)")
    args = ap.parse_args(argv)

    manifest = load_manifest()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench: src/repro not found beside bench/", file=sys.stderr)
        return 2
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"bench: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.quick else float(manifest["run_seconds"])

    t0 = time.time()
    runs: dict[str, list[dict]] = {}
    for name in [args.workload] if args.workload else names:
        for k in range(args.runs):
            result = run_once(manifest, name, args.seed + k, seconds,
                              args.trace, args.quick)
            print_run(result)
            runs.setdefault(name, []).append(result)
    out = args.out or os.path.join(
        RESULTS, f"{args.workload or 'all'}-trace{args.trace}-seed{args.seed}.json"
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump({
            "env": dict(result["env"], seed=args.seed, wall_s=time.time() - t0),
            "bounds": {m["name"]: m for m in manifest["end_to_end"]},
            "runs": runs,
        }, fh, indent=1)
    print(f"wrote {out}")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
