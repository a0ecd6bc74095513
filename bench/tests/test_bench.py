"""Self-test of the wall-clock benchmark (``python -m pytest bench/tests -q``).

Not part of the tier-1 ``testpaths``.  Everything runs in ``--quick``
mode: tiny generators, four ops (two rounds) per workload.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in PINS:
    os.environ.setdefault(_name, "1")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    MANIFEST = json.load(_fh)
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def run_quick(workload: str, seed: int, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_runs():
    return {
        (w, trace): result_of(run_quick(w, 1, trace))
        for w in WORKLOADS for trace in (0, 1)
    }


def test_manifest_meets_the_contract():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert MANIFEST["paths"] == ["bench"]
    assert 2 <= len(WORKLOADS) <= 8 and len(set(WORKLOADS)) == len(WORKLOADS)
    assert isinstance(MANIFEST["run_seconds"], int)
    assert 1 <= MANIFEST["run_seconds"] <= 60
    for w in MANIFEST["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e, layers = MANIFEST["end_to_end"], MANIFEST["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers] + WORKLOADS
    assert len(set(names)) == len(names)
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        # the issue fixes every bound at 10 %: a metric that cannot
        # repeat within that is dropped, the bound is not widened
        assert m["bound"] == 0.10
    for m in layers:
        assert set(m) == {"name", "unit", "better"}
    for m in e2e + layers:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert {m["name"] for m in e2e} == {
        "setup_s", "op_p50_s", "ops_per_s", "peak_rss_mb"
    }


def test_every_declared_metric_is_reported(quick_runs):
    for (workload, trace), result in quick_runs.items():
        declared = MANIFEST["per_layer" if trace else "end_to_end"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 4
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_layers_that_do_no_work_read_zero(quick_runs):
    p1 = quick_runs[("refactor-p1-serial", 1)]["metrics"]
    assert p1["ordering.nd_s"]["value"] == 0
    assert p1["gpu.device_pool.bytes_requested"]["value"] == 0
    assert p1["policies.calls.P1"]["value"] > 0
    p4 = quick_runs[("refactor-p4-dynamic", 1)]["metrics"]
    assert p4["policies.calls.P4"]["value"] == p4["symbolic.n_supernodes"]["value"]
    assert p4["gpu.device_pool.bytes_requested"]["value"] > 0
    assert p4["runtime.tasks"]["value"] > 0
    api = quick_runs[("api-mixed", 1)]["metrics"]
    assert api["ordering.nd_s"]["value"] == 0 < api["ordering.amd_s"]["value"]
    assert api["api.status.other"]["value"] == api["api.edge.shed_total"]["value"] == 0
    assert api["service.intended_hit_missed"]["value"] == 0


def test_an_absent_layer_metric_is_refused(monkeypatch):
    """A probe that breaks or is renamed must not read 0."""
    import run

    def child_output(metrics):
        out = {"attempted": 1, "failed": 0, "consistent": True,
               "metrics": metrics, "detail": {}, "env": {}}
        return lambda *a, **k: types.SimpleNamespace(
            returncode=0, stdout=json.dumps(out)
        )

    declared = {m["name"]: 0 for m in MANIFEST["per_layer"]}
    monkeypatch.setattr(run.subprocess, "run", child_output(declared))
    assert run.run_once(MANIFEST, "cold-direct", 1, 0.0, 1, True)["correct"]
    del declared["dense.potrf_s"]
    monkeypatch.setattr(run.subprocess, "run", child_output(declared))
    with pytest.raises(RuntimeError, match="not measured .'dense.potrf_s'"):
        run.run_once(MANIFEST, "cold-direct", 1, 0.0, 1, True)


def test_idle_layers_are_named_by_the_workload():
    import child

    class Fake:
        idle = ("api.", "ordering.amd_s")

        def layer_metrics(self):
            return {"ordering.nd_s": 0.5}

    table = child.layer_table(Fake())
    assert table["ordering.nd_s"] == 0.5 and table["ordering.amd_s"] == 0
    assert table["api.decode_s"] == 0 and "dense.potrf_s" not in table
    Fake.idle = ("ordering.",)
    with pytest.raises(RuntimeError, match="declared idle"):
        child.layer_table(Fake())


def _detail(workload: str, seed: int) -> dict:
    result_of(run_quick(workload, seed, 0))
    path = os.path.join(BENCH, "results", f"{workload}-trace0-seed{seed}.json")
    with open(path) as fh:
        return json.load(fh)["runs"][workload][0]["detail"]


def test_sim_factor_time_is_a_function_of_structure_only():
    first, again, other = (_detail("cold-direct", s) for s in (7, 7, 8))
    assert len(first["sim_factor_s"]) == 1
    assert first["sim_factor_s"] == again["sim_factor_s"] == other["sim_factor_s"]
    # same seed, same inputs; another seed, other values and rhs
    assert first["worst_backward_error"] == again["worst_backward_error"]
    assert first["worst_backward_error"] != other["worst_backward_error"]


def test_a_drifting_simulated_time_makes_the_run_incorrect():
    from workloads import DirectWorkload

    wl = DirectWorkload("cold-direct", 0, True, None, None)
    wl.sims = {0.25}
    assert wl.consistent()
    wl.sims = {0.25, 0.26}
    assert not wl.consistent()
    wl.sims, wl.matches_baseline = {0.25}, False
    assert not wl.consistent()


def test_answer_check_can_fail():
    import numpy as np
    from repro.matrices import grid_laplacian_2d
    from workloads import OpLog, Pattern

    rng = np.random.default_rng(0)
    pattern = Pattern(grid_laplacian_2d(6, 5))
    a_i = pattern.scaled(rng)
    x = rng.normal(size=a_i.n_rows)
    b = a_i.matvec(x)
    log = OpLog()
    assert log.add("op", 0.0, 1.0, pattern.backward_error(a_i, x, b))
    bad = x.copy()
    bad[3] += 1e-6
    assert not log.add("op", 1.0, 2.0, pattern.backward_error(a_i, bad, b))
    assert not log.add("op", 2.0, 3.0, pattern.backward_error(a_i, x[:-1], b))
    assert not log.add("op", 3.0, 4.0, None)
    assert (log.attempted, log.failed, log.wall("op")) == (4, 3, [1.0])


def test_child_refuses_to_run_unpinned():
    env = {k: v for k, v in os.environ.items() if k not in PINS}
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), "--workload",
         "cold-direct", "--seed", "1", "--seconds", "0", "--quick"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3 and proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    proc = run_quick("cold-direct", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0 and proc.stdout == ""


def test_compare_verdicts():
    from compare import verdict

    steady = [1.00, 1.01, 0.99, 1.02, 1.00]
    assert verdict(steady, [1.05, 1.06, 1.04, 1.05, 1.07], "lower", 0.10) == "ok"
    assert verdict(steady, [1.15, 1.16, 1.14, 1.15, 1.17], "lower", 0.10) == "worse"
    assert verdict(steady, [0.85, 0.86, 0.84, 0.85, 0.87], "higher", 0.10) == "worse"
    noisy = [0.8, 1.0, 1.3, 0.9, 1.2]
    assert verdict(noisy, [0.9, 1.1, 1.2, 0.85, 1.25], "lower", 0.10) == "unresolved"
    assert verdict(noisy, [0.5, 0.6, 0.7, 0.55, 0.65], "lower", 0.10) == "ok"
    assert verdict(noisy, [1.5, 1.6, 1.9, 1.55, 1.65], "lower", 0.10) == "worse"
