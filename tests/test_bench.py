"""The benchmarking harness: schema, gate logic, runner, CLI, lint scope.

Covers the ISSUE-5 matrix for :mod:`repro.bench`:

* result schema round-trips and byte-stable serialization, and the
  committed baselines being exactly what the writer produces;
* the baseline decision procedure (exact counters);
* the runner's repeat-determinism enforcement and profiling hook;
* CLI exit codes, including an injected counter regression and usage
  errors;
* two independent runs of a real scenario producing bit-identical
  counters (the property the committed baselines rely on);
* the planned assembly path being bitwise-identical to the legacy
  per-column path (the PR's profiler-guided optimization);
* the lint determinism scope covering ``repro.bench``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench import (
    BenchDeterminismError,
    BenchResult,
    Measurement,
    RunOptions,
    Scenario,
    compare_results,
    profile_call,
    result_filename,
    run_scenario,
)
from repro.bench.results import SCHEMA_VERSION, load_results_dir
from repro.bench.workloads import SuiteCache
from repro.cli import main

REPO = Path(__file__).resolve().parents[1]


def make_result(scenario="toy", *, det=None, numeric=None) -> BenchResult:
    return BenchResult(
        scenario=scenario,
        description="synthetic",
        repeats=3,
        deterministic=det if det is not None else {"flops": 100.0, "calls": 7},
        numeric=numeric if numeric is not None else {"residual": 1e-14},
        tags=("synthetic",),
    )


# ----------------------------------------------------------------------
# results schema
# ----------------------------------------------------------------------
class TestResults:
    def test_roundtrip(self):
        r = make_result()
        back = BenchResult.from_dict(json.loads(r.to_json()))
        assert back == r

    def test_json_is_byte_stable_and_sorted(self):
        r = make_result()
        s1, s2 = r.to_json(), r.to_json()
        assert s1 == s2
        assert s1.endswith("\n")
        d = json.loads(s1)
        assert list(d["deterministic"]) == sorted(d["deterministic"])

    def test_write_and_load(self, tmp_path):
        r = make_result()
        path = r.write(tmp_path)
        assert path.name == result_filename("toy") == "BENCH_toy.json"
        assert BenchResult.load(path) == r
        loaded = load_results_dir(tmp_path)
        assert set(loaded) == {"toy"}
        assert loaded["toy"] == r

    def test_schema_version_rejected(self):
        d = json.loads(make_result().to_json())
        d["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            BenchResult.from_dict(d)

    def test_keys_the_reader_does_not_know_are_dropped(self):
        d = json.loads(make_result().to_json())
        d["wall"] = {"samples": [0.1], "median_seconds": 0.1}
        assert BenchResult.from_dict(d) == make_result()


BASELINES = sorted(REPO.glob("BENCH_*.json"))


class TestCommittedBaselines:
    @pytest.mark.parametrize("path", BASELINES, ids=lambda p: p.stem)
    def test_baseline_is_writer_output(self, path):
        assert BenchResult.load(path).to_json() == path.read_text()

    @pytest.mark.parametrize("path", BASELINES, ids=lambda p: p.stem)
    def test_baseline_carries_no_wall_clock(self, path):
        assert "wall" not in json.loads(path.read_text())


# ----------------------------------------------------------------------
# comparison / gate logic
# ----------------------------------------------------------------------
class TestCompare:
    def test_identical_passes(self):
        base, new = make_result(), make_result()
        rep = compare_results({"toy": new}, {"toy": base})
        assert rep.ok
        assert "all gates passed" in rep.format()

    def test_counter_change_fails(self):
        base = make_result(det={"flops": 100.0})
        new = make_result(det={"flops": 101.0})
        rep = compare_results({"toy": new}, {"toy": base})
        assert not rep.ok
        assert "flops" in rep.format()

    def test_added_and_removed_counters_fail(self):
        base = make_result(det={"a": 1})
        new = make_result(det={"b": 1})
        rep = compare_results({"toy": new}, {"toy": base})
        [v] = rep.verdicts
        assert len(v.counter_diffs) == 2

    def test_bool_int_distinction(self):
        # True == 1 in Python; the gate must still catch the type drift
        base = make_result(det={"ok": True})
        new = make_result(det={"ok": 1})
        assert not compare_results({"toy": new}, {"toy": base}).ok

    def test_numeric_gated_only_on_request(self):
        base = make_result(numeric={"residual": 1e-14})
        new = make_result(numeric={"residual": 2e-14})
        assert compare_results({"toy": new}, {"toy": base}).ok
        assert not compare_results({"toy": new}, {"toy": base},
                                   check_numeric=True).ok

    def test_missing_baseline_is_informational(self):
        rep = compare_results({"toy": make_result()}, {})
        assert rep.ok
        assert "NEW" in rep.format()

    def test_missing_result_fails(self):
        rep = compare_results({}, {"toy": make_result()})
        assert not rep.ok
        assert "GONE" in rep.format()


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
def toy_scenario(name="toy", counter_source=None) -> Scenario:
    def run(suite):
        det = counter_source() if counter_source else {"value": 42}
        return Measurement(dict(det), {"res": 0.5})

    return Scenario(
        name=name, description="synthetic toy scenario",
        run=run, prepare=lambda suite: None, tags=("synthetic",),
    )


@pytest.fixture
def toy_suite():
    # never populated: the toy scenarios don't touch the cache
    return SuiteCache()


class TestRunner:
    def test_run_scenario_shapes_result(self, toy_suite):
        r = run_scenario(toy_scenario(), toy_suite, RunOptions(repeats=4))
        assert r.scenario == "toy"
        assert r.repeats == 4
        assert r.deterministic == {"value": 42}
        assert r.numeric == {"res": 0.5}
        assert r.profile is None

    def test_nondeterministic_counter_detected(self, toy_suite):
        state = {"n": 0}

        def drifting():
            state["n"] += 1
            return {"value": state["n"]}

        with pytest.raises(BenchDeterminismError, match="not deterministic"):
            run_scenario(toy_scenario(counter_source=drifting), toy_suite,
                         RunOptions(repeats=2))

    def test_type_drift_detected(self, toy_suite):
        vals = iter([{"ok": True}, {"ok": 1}, {"ok": True}])
        with pytest.raises(BenchDeterminismError):
            run_scenario(toy_scenario(counter_source=lambda: next(vals)),
                         toy_suite, RunOptions(repeats=2))

    def test_profile_attached(self, toy_suite):
        r = run_scenario(toy_scenario(), toy_suite,
                         RunOptions(repeats=1, profile=True, profile_top=5))
        assert r.profile is not None
        assert len(r.profile) <= 5
        assert all({"function", "ncalls", "tottime", "cumtime"} <= set(row)
                   for row in r.profile)

    def test_profile_call_names_hot_function(self):
        def hot():
            return sum(i * i for i in range(50_000))

        rows = profile_call(hot, top=10)
        assert any("hot" in row["function"] for row in rows)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
@pytest.fixture
def with_toy_registry(monkeypatch):
    from repro.bench import scenarios as registry

    monkeypatch.setitem(registry._REGISTRY, "toy", toy_scenario())
    return registry


class TestCli:
    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "factorize-serial-p1" in out
        assert "service-throughput" in out

    def test_unknown_scenario_is_usage_error(self, capsys):
        assert main(["bench", "--scenarios", "no-such-scenario"]) == 2

    def test_zero_repeats_is_usage_error(self, with_toy_registry, tmp_path,
                                         capsys):
        assert main(["bench", "--scenarios", "toy", "--repeats", "0",
                     "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "bench: --repeats must be at least 1\n"
        assert list(tmp_path.iterdir()) == []

    def test_empty_scenario_list_is_usage_error(self, monkeypatch, tmp_path,
                                                capsys):
        # with only the toy registered, a list that names nothing must not
        # fall back to "run everything"
        from repro.bench import scenarios as registry

        monkeypatch.setattr(registry, "_REGISTRY", {"toy": toy_scenario()})
        assert main(["bench", "--scenarios", ",", "--out-dir",
                     str(tmp_path)]) == 2
        assert capsys.readouterr().err == "bench: --scenarios names no scenario\n"
        assert list(tmp_path.iterdir()) == []

    def test_check_requires_baseline(self):
        assert main(["bench", "--check", "--scenarios", "toy"]) == 2

    def test_missing_baseline_dir(self, tmp_path):
        assert main(["bench", "--check",
                     "--baseline", str(tmp_path / "nope")]) == 2

    def test_empty_baseline_dir(self, tmp_path):
        assert main(["bench", "--check", "--baseline", str(tmp_path)]) == 2

    def test_run_writes_results(self, with_toy_registry, tmp_path, capsys):
        rc = main(["bench", "--scenarios", "toy", "--repeats", "2",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        path = tmp_path / "BENCH_toy.json"
        assert path.exists()
        r = BenchResult.load(path)
        assert r.deterministic == {"value": 42}
        assert r.repeats == 2

    def test_check_clean_then_injected_regression(self, with_toy_registry,
                                                  tmp_path, capsys):
        assert main(["bench", "--scenarios", "toy", "--repeats", "2",
                     "--out-dir", str(tmp_path)]) == 0
        # clean self-check passes
        assert main(["bench", "--scenarios", "toy", "--repeats", "2",
                     "--check", "--baseline", str(tmp_path)]) == 0
        # inject a deterministic-counter regression into the baseline
        path = tmp_path / "BENCH_toy.json"
        d = json.loads(path.read_text())
        d["deterministic"]["value"] = 41
        path.write_text(json.dumps(d))
        assert main(["bench", "--scenarios", "toy", "--repeats", "2",
                     "--check", "--baseline", str(tmp_path)]) == 1
        err_out = capsys.readouterr().out
        assert "counter regression" in err_out

    def test_check_subset_ignores_unrun_baselines(self, with_toy_registry,
                                                  tmp_path, capsys):
        make_result("other").write(tmp_path)
        assert main(["bench", "--scenarios", "toy", "--repeats", "2",
                     "--out-dir", str(tmp_path)]) == 0
        assert main(["bench", "--scenarios", "toy", "--repeats", "2",
                     "--check", "--baseline", str(tmp_path)]) == 0

    def test_determinism_failure_exits_one(self, monkeypatch):
        from repro.bench import scenarios as registry

        state = {"n": 0}

        def drifting():
            state["n"] += 1
            return {"value": state["n"]}

        monkeypatch.setitem(
            registry._REGISTRY, "toy", toy_scenario(counter_source=drifting)
        )
        assert main(["bench", "--scenarios", "toy", "--repeats", "2"]) == 1


# ----------------------------------------------------------------------
# two independent runs of a real scenario are bit-identical
# ----------------------------------------------------------------------
def test_real_scenario_bit_stable_across_runs():
    from repro.bench.scenarios import get_scenarios

    [scn] = get_scenarios(["service-throughput"])
    r1 = run_scenario(scn, SuiteCache(), RunOptions(repeats=2))
    r2 = run_scenario(scn, SuiteCache(), RunOptions(repeats=2))
    assert r1.deterministic == r2.deterministic
    assert r1.numeric == r2.numeric


# ----------------------------------------------------------------------
# the planned assembly path (this PR's hot-path optimization)
# ----------------------------------------------------------------------
def test_planned_assembly_bitwise_matches_legacy():
    """The lower triangle of every front the plan gathers from the
    canonical ``a.data`` must be bitwise identical to the per-column
    legacy path over the permuted lower triangle, including the
    extend-add of real (eliminated) child updates — on both sides of
    ``RUN_CUT``, wide runs and stretches of narrow ones, and without
    reading a child above its diagonal."""
    from repro.matrices import elasticity_3d, grid_laplacian_3d
    from repro.multifrontal.frontal import (
        assemble_front_planned,
        get_assembly_plan,
    )
    from repro.symbolic import symbolic_factorize
    from tests.reference_assembly import assemble_front

    def eliminate(front, k):
        # plain dense partial Cholesky off the lower triangle
        l11 = np.linalg.cholesky(front[:k, :k])
        l21 = np.linalg.solve(l11, front[k:, :k].T).T
        return front[k:, k:] - l21 @ l21.T

    # (matrix, ordering, children on the run path, most steps of one
    # child, stretches of narrow runs among the steps): 8 and 11 runs of
    # one child were one step each before the narrow runs were merged
    cases = [
        (grid_laplacian_3d(6, 5, 4), "nd", 0, 0, 0),
        (elasticity_3d(8, 7, 7), "amd", 11, 7, 13),
        (grid_laplacian_3d(13, 13, 12), "amd", 16, 9, 21),
    ]
    for a, ordering, n_run_children, most_steps, stretches in cases:
        sf = symbolic_factorize(a, ordering=ordering)
        a_lower = a.permute_symmetric(sf.perm).lower_triangle()
        plan = get_assembly_plan(a, sf)
        runs = [r for r in plan.runs if r is not None]
        assert len(runs) == n_run_children
        assert max(map(len, runs), default=0) == most_steps
        assert sum(not isinstance(st[3], slice) for r in runs for st in r) == stretches
        kids = sf.schildren()

        legacy: dict[int, np.ndarray] = {}    # full symmetric updates
        planned: dict[int, np.ndarray] = {}   # live in their lower triangle
        for s in sf.spost.tolist():
            rows = sf.rows[s]
            k = sf.width(s)
            child_ids = [c for c in kids[s] if c in legacy]
            front_legacy = assemble_front(
                a_lower, sf, s,
                [(sf.rows[c][sf.width(c):], legacy.pop(c)) for c in child_ids],
            )
            front_planned = assemble_front_planned(
                plan, a.data, rows.size, s,
                [(c, planned.pop(c)) for c in child_ids],
            )
            assert np.array_equal(
                np.tril(front_legacy), np.tril(front_planned)
            ), f"supernode {s}"
            if rows.size > k:
                legacy[s] = eliminate(front_legacy, k)
                planned[s] = eliminate(front_planned, k)
                planned[s][np.triu_indices(rows.size - k, 1)] = np.nan
        assert not legacy and not planned


def test_assembly_plan_cached_on_symbolic():
    from repro.matrices import grid_laplacian_2d
    from repro.multifrontal.frontal import get_assembly_plan
    from repro.symbolic import symbolic_factorize

    a = grid_laplacian_2d(7, 6)
    sf = symbolic_factorize(a, ordering="nd")
    p1 = get_assembly_plan(a, sf)
    assert get_assembly_plan(a, sf) is p1
    # an equal pattern in other arrays (what a new service request brings)
    assert get_assembly_plan(a.copy(), sf) is p1


def _with_entry_outside_pattern(a, sf):
    """``a`` plus one symmetric pair that the symbolic structure of ``sf``
    has no room for: row ``r`` of a first column whose supernode's row set
    lacks it, mapped back to the original numbering."""
    from repro.matrices.csc import CSCMatrix

    n = a.n_rows
    for s in range(sf.n_supernodes):
        rowset = set(sf.rows[s].tolist())
        c = int(sf.super_ptr[s])
        r = next((r for r in range(n - 1, c, -1) if r not in rowset), None)
        if r is not None:
            break
    else:
        pytest.skip("no supernode with room for an out-of-pattern entry")
    i, j = int(sf.perm[r]), int(sf.perm[c])
    cols = np.repeat(np.arange(n), np.diff(a.indptr))
    return CSCMatrix.from_coo(
        np.concatenate([a.indices, [i, j]]),
        np.concatenate([cols, [j, i]]),
        np.concatenate([a.data, [0.25, 0.25]]),
        a.shape,
    )


def test_assembly_plan_rejects_out_of_pattern_entries():
    from repro.matrices import grid_laplacian_2d
    from repro.multifrontal.frontal import AssemblyPlan
    from repro.symbolic import symbolic_factorize

    a = grid_laplacian_2d(6, 6)
    sf = symbolic_factorize(a, ordering="nd")
    AssemblyPlan(a, sf)  # in-pattern: fine

    # the plan must refuse at build time with the error the per-column
    # path raises
    with pytest.raises(ValueError, match="pattern"):
        AssemblyPlan(_with_entry_outside_pattern(a, sf), sf)


def test_assembly_plan_follows_the_canonical_pattern():
    """Same ``sf``, another canonical pattern: the cached plan does not
    match and is rebuilt (and re-cached) for the matrix actually handed
    in; entries the symbolic structure has no room for are still refused,
    through the cache as through the constructor."""
    from repro.matrices import grid_laplacian_2d
    from repro.matrices.csc import CSCMatrix
    from repro.multifrontal import factorize_numeric
    from repro.multifrontal.frontal import get_assembly_plan
    from repro.policies.base import PolicyP1
    from repro.symbolic import symbolic_factorize

    a = grid_laplacian_2d(6, 6)
    sf = symbolic_factorize(a, ordering="nd")
    full_plan = get_assembly_plan(a, sf)

    # a sub-pattern of ``a``: one symmetric off-diagonal pair removed
    cols = np.repeat(np.arange(a.n_cols), np.diff(a.indptr))
    i, j = int(a.indices[1]), int(cols[1])
    assert i != j
    drop = ((a.indices == i) & (cols == j)) | ((a.indices == j) & (cols == i))
    sub = CSCMatrix.from_coo(
        a.indices[~drop], cols[~drop], a.data[~drop], a.shape
    )
    assert not full_plan.matches(sub)
    sub_plan = get_assembly_plan(sub, sf)
    assert sub_plan is not full_plan and sub_plan.matches(sub)
    assert get_assembly_plan(sub, sf) is sub_plan

    # the rebuilt plan gathers the right values: the factor of ``sub``
    # under ``sf`` reproduces ``sub``
    factor = factorize_numeric(sub, sf, PolicyP1())
    assert factor.residual_norm(sub) < 1e-12

    with pytest.raises(ValueError, match="pattern"):
        get_assembly_plan(_with_entry_outside_pattern(a, sf), sf)
    # a refused matrix leaves the cached plan as it was
    assert get_assembly_plan(sub, sf) is sub_plan


@pytest.mark.parametrize("backend", ["serial", "static", "dynamic", "cluster"])
def test_warm_factorization_does_not_rebuild_the_matrix(backend, monkeypatch):
    """Once the plan exists, factorizing again on the same solver -- same
    values or new ones -- reads ``a.data`` in place: no permuted copy, no
    lower triangle, no COO sort."""
    from repro.matrices import grid_laplacian_2d
    from repro.matrices.csc import CSCMatrix
    from repro.multifrontal import SparseCholeskySolver

    a = grid_laplacian_2d(9, 8)
    solver = SparseCholeskySolver(a, ordering="amd", policy="P1", backend=backend)
    solver.factorize()

    calls = []

    def counted(name):
        original = vars(CSCMatrix)[name]
        plain = getattr(original, "__func__", original)  # unwrap classmethod

        def wrapper(*args, **kwargs):
            calls.append(name)
            return plain(*args, **kwargs)

        return classmethod(wrapper) if plain is not original else wrapper

    for name in ("permute_symmetric", "lower_triangle", "from_coo"):
        monkeypatch.setattr(CSCMatrix, name, counted(name))
    a.permute_symmetric(solver.symbolic.perm).lower_triangle()
    assert sorted(set(calls)) == ["from_coo", "lower_triangle", "permute_symmetric"]
    del calls[:]

    solver.factorize()
    solver.refactorize(solver.a.data * 2.0)
    solver.refactorize(solver.a.data * 0.5)
    assert calls == []
    assert solver.factor.residual_norm(solver.a) < 1e-12


# ----------------------------------------------------------------------
# lint scope: repro.bench is inside the determinism fence
# ----------------------------------------------------------------------
class TestLintScope:
    def test_bench_in_deterministic_modules(self):
        from repro.lint import LintConfig

        assert any(
            "repro.bench".startswith(m) or m == "repro.bench"
            for m in LintConfig().deterministic_modules
        )

    def test_bench_package_is_clean_under_determinism_rules(self):
        from repro.lint import run_lint

        res = run_lint([REPO / "src" / "repro" / "bench"],
                       src_roots=[REPO / "src"])
        assert res.parse_errors == []
        assert [f.rule_id for f in res.findings] == []
        # no wall-clock read at all, not even a sanctioned one
        assert [f for f in res.suppressed if f.rule_id == "RPL010"] == []
