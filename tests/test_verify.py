"""The differential verification subsystem (:mod:`repro.verify`)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.dense.kernels as hk
from repro.matrices import grid_laplacian_2d, random_spd
from repro.matrices.csc import CSCMatrix
from repro.symbolic import symbolic_factorize
from repro.verify import (
    check_amalgamated_structure,
    VerifyConfig,
    check_factor_residual,
    check_schedule_precedence,
    check_symbolic_structure,
    check_update_conservation,
    default_pairs,
    factor_fingerprint,
    generate_case,
    load_case,
    normwise_backward_error,
    principal_submatrix,
    run_fuzz,
    run_invariants,
    save_case,
    shrink_matrix,
    verify_matrix,
    verify_pair,
)


# ----------------------------------------------------------------------
# configuration lattice
# ----------------------------------------------------------------------
class TestLattice:
    def test_normwise_pairs_bounded_on_grid(self, lap2d_small):
        for pair in default_pairs():
            report = verify_pair(lap2d_small, pair)
            assert report.ok, f"{pair.name}: {report.violations}"

    def test_fingerprint_distinguishes_values(self, lap2d_small):
        scaled = CSCMatrix(
            lap2d_small.shape, lap2d_small.indptr, lap2d_small.indices,
            lap2d_small.data * 2.0, check=False,
        )
        prints = []
        for a in (lap2d_small, scaled):
            solver = VerifyConfig().build_solver(a)
            solver.analyze().factorize()
            prints.append(factor_fingerprint(solver.factor))
        assert prints[0] != prints[1]

    def test_fingerprint_is_deterministic(self, lap2d_small):
        config = VerifyConfig(policy="P4")
        prints = []
        for _ in range(2):
            solver = config.build_solver(lap2d_small)
            solver.analyze().factorize()
            prints.append(factor_fingerprint(solver.factor))
        assert prints[0] == prints[1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VerifyConfig(precision="quad")
        with pytest.raises(ValueError):
            VerifyConfig(amalgamation="bogus")
        assert VerifyConfig(policy="P4", panel_width=64).label == "P4/sp/amd/w64"

    def test_backward_error_perfect_solution_is_tiny(self, lap2d_small):
        solver = VerifyConfig().build_solver(lap2d_small)
        solver.analyze().factorize()
        b = np.ones(lap2d_small.n_rows)
        res = solver.solve_refined(b)
        assert normwise_backward_error(solver.a, res.x, b) < 1e-14

    def test_backward_error_garbage_solution_is_large(self, lap2d_small):
        b = np.ones(lap2d_small.n_rows)
        # high-frequency garbage: far from any solve, and not in the
        # Laplacian's near-null constant subspace
        x = 1e6 * (-1.0) ** np.arange(lap2d_small.n_rows)
        assert normwise_backward_error(lap2d_small, x, b) > 1e-2

    def test_default_pairs_change_the_float_stream(self):
        # an execution path is not a lattice axis: each pair differs in a
        # knob that changes the arithmetic, and no two pairs are the same
        pairs = default_pairs()
        assert len({p.name for p in pairs}) == len(pairs) == 7
        assert len({(p.left, p.right) for p in pairs}) == len(pairs)
        assert all(p.left != p.right for p in pairs)


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------
class TestInvariants:
    def test_all_invariants_hold_on_suite_fixture(self, lap2d_small):
        for report in run_invariants(lap2d_small):
            assert report.ok, str(report)

    def test_symbolic_structure_clean(self, sf_lap3d):
        assert check_symbolic_structure(sf_lap3d) == []

    def test_update_conservation_detects_premature_assembly(self, sf_lap3d):
        # reversed postorder assembles parents before their children
        bad_order = list(sf_lap3d.spost)[::-1]
        violations = check_update_conservation(sf_lap3d, bad_order)
        assert violations
        assert any("before it was factored" in v for v in violations)

    def test_update_conservation_rejects_non_permutation(self, sf_lap3d):
        violations = check_update_conservation(sf_lap3d, [0] * sf_lap3d.n_supernodes)
        assert violations == ["schedule is not a permutation of the supernodes"]

    def test_schedule_precedence_on_real_schedules(self, lap2d_small):
        from repro.gpu import SimulatedNode
        from repro.multifrontal import SparseCholeskySolver

        for backend in ("static", "dynamic", "cluster"):
            solver = SparseCholeskySolver(
                lap2d_small, ordering="amd", backend=backend,
                node=SimulatedNode(n_cpus=2, n_gpus=1),
            )
            solver.analyze().factorize()
            assert check_schedule_precedence(
                solver.symbolic, solver.parallel.runtime.schedule
            ) == []

    def test_schedule_precedence_detects_violation(self, sf_lap3d):
        class T:
            def __init__(self, sid, start, end):
                self.sid, self.start, self.end = sid, start, end

        # every supernode "runs" at the same instant-reversed times:
        # any parent now starts before its child ends
        n = sf_lap3d.n_supernodes
        tasks = [T(s, float(n - i), float(n - i) + 1.0)
                 for i, s in enumerate(sf_lap3d.spost)]
        assert check_schedule_precedence(sf_lap3d, tasks)

    def test_runtime_result_validate(self, lap2d_small):
        from repro.parallel import Dynamic, make_worker_pool
        from repro.policies import make_policy

        sf = symbolic_factorize(lap2d_small, ordering="amd")
        dyn = Dynamic().run(sf, make_policy("P1"), make_worker_pool(2, 0))
        assert dyn.validate(sf) == []


# ----------------------------------------------------------------------
# shrinker
# ----------------------------------------------------------------------
class TestShrinker:
    def test_principal_submatrix_of_spd_is_spd(self, lap2d_small):
        keep = np.array([0, 3, 17, 42, 80], dtype=np.int64)
        sub = principal_submatrix(lap2d_small, keep)
        assert sub.n_rows == 5
        dense = sub.to_dense()
        np.testing.assert_allclose(dense, dense.T)
        assert np.linalg.eigvalsh(dense).min() > 0

    def test_shrinks_seeded_predicate_to_minimal_witness(self):
        # the failure "reproduces" whenever vertex 0's diagonal survives
        # with its original value: the minimal witness is the 1x1 matrix
        # containing it — well under the required 8x8
        a = grid_laplacian_2d(10, 10)
        marker = float(a.to_dense()[0, 0])

        def predicate(m: CSCMatrix) -> bool:
            d = np.diag(m.to_dense())
            return bool(np.any(d == marker))

        result = shrink_matrix(a, predicate)
        assert result.original_n == 100
        assert result.n <= 8
        assert predicate(result.matrix)

    def test_raises_on_passing_input(self, lap2d_small):
        with pytest.raises(ValueError, match="does not fail"):
            shrink_matrix(lap2d_small, lambda m: False)

    def test_predicate_exception_counts_as_pass(self):
        a = grid_laplacian_2d(6, 6)

        def predicate(m: CSCMatrix) -> bool:
            if m.n_rows < 10:
                raise RuntimeError("candidate breaks elsewhere")
            return True

        result = shrink_matrix(a, predicate)
        # shrinking stalls at the exception frontier instead of crashing
        assert result.n >= 10

    def test_respects_test_budget(self):
        a = grid_laplacian_2d(8, 8)
        calls = []

        def predicate(m):
            calls.append(1)
            return True

        shrink_matrix(a, predicate, max_tests=10)
        assert len(calls) <= 12          # initial check + budgeted tests


# ----------------------------------------------------------------------
# the acceptance criterion: an injected kernel bug is caught and shrunk
# ----------------------------------------------------------------------
@pytest.fixture
def broken_syrk(monkeypatch):
    """Inject a biased ``syrk`` — every trailing update is slightly wrong."""
    orig = hk.syrk

    def bad_syrk(c, x, *, counts=None, out=None):
        c = orig(c, x, counts=counts, out=out)
        c += 1e-3 * max(abs(float(c.max())), 1.0)
        return c

    monkeypatch.setattr(hk, "syrk", bad_syrk)
    return bad_syrk


class TestInjectedBug:
    def test_harness_catches_injected_syrk_bug(self, broken_syrk):
        a = grid_laplacian_2d(8, 8)
        violations = check_factor_residual(a)
        assert violations
        assert "residual" in violations[0]

    def test_injected_bug_shrinks_to_minimal_witness(self, broken_syrk):
        a = grid_laplacian_2d(8, 8)
        result = shrink_matrix(
            a, lambda m: bool(check_factor_residual(m))
        )
        # syrk only runs when a supernode has a nonempty update block, so
        # the smallest failing principal submatrix is tiny but not 1x1
        assert result.n <= 8
        assert check_factor_residual(result.matrix)

    def test_fuzz_driver_catches_and_shrinks_injected_bug(self, broken_syrk, tmp_path):
        report = run_fuzz(
            budget_seconds=30.0, seed=0, max_cases=3,
            pairs=[], witness_dir=tmp_path, max_failures=1,
        )
        assert not report.ok
        failure = report.failures[0]
        assert failure.check in ("structural-invariants", "factor-residual")
        assert failure.witness.n_rows <= failure.shrunk_from
        assert failure.witness_path is not None
        # the persisted witness replays to the same matrix
        replayed, meta = load_case(failure.witness_path)
        assert replayed.allclose(failure.witness)
        assert meta["check"] == failure.check


# ----------------------------------------------------------------------
# an injected amalgamation off-by-one is caught and ddmin-shrunk
# ----------------------------------------------------------------------
@pytest.fixture
def broken_amalgamate(monkeypatch):
    """Off-by-one injection: whenever amalgamation actually merges,
    emit one boundary strictly *inside* a width->=2 fundamental
    supernode.  The partition stays contiguous and numerically
    consistent — only the coarsening invariant (amalgamated boundaries
    must coincide with fundamental boundaries) can catch it."""
    import repro.symbolic.symbolic as sym

    orig = sym.amalgamate

    def bad_amalgamate(super_ptr, parent, counts, params):
        out = orig(super_ptr, parent, counts, params)
        if out.size == super_ptr.size:     # nothing merged: leave it alone
            return out
        widths = np.diff(super_ptr)
        wide = np.nonzero(widths >= 2)[0]
        if wide.size == 0:                 # no splittable fundamental node
            return out
        inside = int(super_ptr[wide[0]]) + 1
        return np.unique(np.concatenate([out, [inside]]))

    monkeypatch.setattr(sym, "amalgamate", bad_amalgamate)
    return bad_amalgamate


class TestInjectedAmalgamationBug:
    def test_clean_amalgamation_passes(self):
        assert not check_amalgamated_structure(grid_laplacian_2d(8, 8))

    def test_invariant_catches_off_by_one(self, broken_amalgamate):
        violations = check_amalgamated_structure(grid_laplacian_2d(8, 8))
        assert violations
        assert any("fundamental" in v or "containment" in v
                   for v in violations)

    def test_off_by_one_shrinks_to_minimal_witness(self, broken_amalgamate):
        a = grid_laplacian_2d(8, 8)
        result = shrink_matrix(
            a, lambda m: bool(check_amalgamated_structure(m))
        )
        assert result.n < a.n_rows
        assert check_amalgamated_structure(result.matrix)

    def test_fuzz_driver_catches_and_shrinks(
        self, broken_amalgamate, tmp_path
    ):
        report = run_fuzz(
            budget_seconds=30.0, seed=0, max_cases=8,
            pairs=[], witness_dir=tmp_path, max_failures=1,
        )
        assert not report.ok
        failure = report.failures[0]
        assert failure.check == "structural-invariants"
        assert failure.witness.n_rows <= failure.shrunk_from
        replayed, meta = load_case(failure.witness_path)
        assert replayed.allclose(failure.witness)


# ----------------------------------------------------------------------
# fuzzing and the corpus
# ----------------------------------------------------------------------
class TestFuzz:
    def test_case_generation_is_deterministic(self):
        c1, c2 = generate_case(42), generate_case(42)
        assert c1.generator == c2.generator
        assert c1.a.allclose(c2.a)

    def test_generators_produce_factorizable_matrices(self):
        seen = set()
        for seed in range(12):
            case = generate_case(seed)
            seen.add(case.generator)
            solver = VerifyConfig().build_solver(case.a)
            solver.analyze().factorize()   # must not raise
        assert len(seen) >= 3              # seeds cover several generators

    def test_clean_fuzz_run(self):
        report = run_fuzz(budget_seconds=20.0, seed=100, max_cases=4)
        assert report.cases_run == 4
        assert report.ok

    def test_corpus_roundtrip_is_bit_exact(self, tmp_path, rand_spd_small):
        path = tmp_path / "case.json"
        save_case(path, rand_spd_small, meta={"origin": "test"})
        loaded, meta = load_case(path)
        assert meta["origin"] == "test"
        np.testing.assert_array_equal(loaded.indptr, rand_spd_small.indptr)
        np.testing.assert_array_equal(loaded.indices, rand_spd_small.indices)
        np.testing.assert_array_equal(loaded.data, rand_spd_small.data)

    def test_corpus_replay_determinism(self, tmp_path):
        # replaying a corpus case factors to the same fingerprint twice
        a = random_spd(40, seed=9)
        path = tmp_path / "determinism.json"
        save_case(path, a)
        prints = []
        for _ in range(2):
            loaded, _ = load_case(path)
            solver = VerifyConfig().build_solver(loaded)
            solver.analyze().factorize()
            prints.append(factor_fingerprint(solver.factor))
        assert prints[0] == prints[1]

    def test_committed_corpus_passes(self):
        from repro.verify import replay_corpus
        from repro.verify.harness import DEFAULT_CORPUS

        assert DEFAULT_CORPUS.is_dir(), "tests/corpus must exist"
        assert list(DEFAULT_CORPUS.glob("*.json")), "corpus must be seeded"
        assert replay_corpus(DEFAULT_CORPUS, default_pairs()) == []


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------
class TestVerifyCli:
    def test_verify_suite_via_cli(self, capsys):
        from repro.cli import main

        rc = main(["verify", "--no-invariants"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "differential verification" in out
        assert "FAIL" not in out

    def test_verify_fuzz_via_cli(self, capsys, tmp_path):
        from repro.cli import main

        rc = main([
            "verify", "--fuzz", "--budget-seconds", "15",
            "--max-cases", "2", "--witness-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fuzz: 2 case(s)" in out

    def test_verify_matrix_collects_all_pair_reports(self, lap2d_small):
        reports = verify_matrix(lap2d_small, default_pairs())
        assert len(reports) == len(default_pairs())
        assert all(r.ok for r in reports)
