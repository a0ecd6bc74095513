"""One workload in one process: set-up, timed ops, answer checks.

Spawned by ``run.py`` with the BLAS thread pins in its environment; it
refuses to start without them, because a 64-thread BLAS on a 2-core box
turns every number into scheduler noise.  The end-to-end times are wall
times divided by the machine slowdown ``refclock`` saw around them; the
raw wall medians go out beside them.  Per-layer times are raw.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pins": {name: os.environ[name] for name in PINS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    unpinned = [name for name in PINS if os.environ.get(name) != "1"]
    if unpinned:
        print(f"bench child: {', '.join(unpinned)} must be 1", file=sys.stderr)
        return 3
    if "numpy" in sys.modules:
        print("bench child: numpy imported before the pin check", file=sys.stderr)
        return 3
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from refclock import RefClock
    from spans import Tracer
    from workloads import make_workload

    ref = RefClock()
    ref.tick()
    tracer = Tracer() if args.trace else None
    wl = make_workload(args.workload, args.seed, args.quick, tracer, ref)
    try:
        wl.setup()
        ref.tick(force=True)
        t_setup = time.perf_counter()
        # child start to first timed op, less the reference readings
        setup_wall_s = t_setup - T_START - ref.spent_s
        steps = 0
        t_stop = time.perf_counter() + args.seconds
        while steps < wl.min_steps or time.perf_counter() < t_stop:
            # traced run: plain ops and ops taken apart alternate
            wl.step(traced=tracer is not None and steps % 2 == 1)
            steps += 1
        ref.tick(force=True)
        out = report(wl, ref, tracer is not None, setup_wall_s,
                     setup_wall_s / ref.slowdown(T_START, t_setup))
    finally:
        wl.close()
    if tracer is not None:
        os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
        tracer.write(
            os.path.join(BENCH_DIR, "results", f"trace-{args.workload}.json"),
            {"workload": args.workload, "seed": args.seed},
        )
    print(json.dumps(out))
    return 0


def layer_table(wl) -> dict[str, float]:
    """What the workload measured, plus an explicit 0 for every declared
    metric of a layer the workload says does no work on it.  Anything
    else that is declared and absent stays absent: ``run.py`` refuses
    the run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    measured = wl.layer_metrics()
    idle = {name for name in declared if name.startswith(wl.idle)}
    if idle & set(measured):
        raise RuntimeError(
            f"measured on a layer declared idle: {sorted(idle & set(measured))}"
        )
    return {**measured, **dict.fromkeys(idle, 0)}


def report(wl, ref, traced: bool, setup_wall_s: float, setup_s: float) -> dict:
    from stats import median, percentile, quartiles

    log = wl.log
    classes = {}
    normal: dict[str, list[float]] = {}  # op times at reference speed
    for cls in sorted(log.ops):
        wall = log.wall(cls)
        normal[cls] = [(t1 - t0) / ref.slowdown(t0, t1) for t0, t1 in log.ops[cls]]
        q1, q3 = quartiles(wall)
        classes[cls] = {"n": len(wall), "p50_wall_s": median(wall),
                        "q1_wall_s": q1, "q3_wall_s": q3,
                        "p50_s": median(normal[cls]), "samples": log.ops[cls]}
    primary = [t for cls, ts in normal.items() if cls.startswith(wl.primary) for t in ts]
    slowdown = median(ref.seconds) / ref.UNIT_S
    if traced:
        metrics = layer_table(wl)
        metrics["bench.machine_slowdown"] = slowdown
    else:
        metrics = {
            # child start to first timed op
            "setup_s": setup_s,
            # one median per primary class (api-mixed: per matrix kind,
            # whose costs differ), then their mean
            "op_p50_s": statistics.fmean(
                median(ts) for cls, ts in normal.items()
                if cls.startswith(wl.primary)
            ),
            # ops per second of op time, each class at its median cost:
            # the mean would let two slow ops of twelve decide it
            "ops_per_s": sum(len(ts) for ts in normal.values())
            / sum(len(ts) * median(ts) for ts in normal.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "attempted": log.attempted,
        "failed": log.failed,
        "consistent": wl.consistent(),
        "metrics": metrics,
        "detail": {"classes": classes, "primary_class": wl.primary,
                   "primary_p95_s": percentile(primary, 95),
                   "setup_wall_s": setup_wall_s,
                   "machine_slowdown": slowdown,
                   "ref_readings": list(zip(ref.at, ref.seconds)),
                   "worst_backward_error": log.worst_error, **wl.detail()},
        "env": environment(),
    }


if __name__ == "__main__":
    sys.exit(main())
