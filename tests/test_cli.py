"""Command-line interface."""

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "a.mtx"
    assert main(["generate", "lap3d", "6", "6", "6", "--out", str(path)]) == 0
    return path


def test_spec(capsys):
    assert main(["spec"]) == 0
    out = capsys.readouterr().out
    assert "Tesla T10" in out
    assert "Xeon 5160" in out
    assert "12 GF/s dp peak" in out


def test_generate_kinds(tmp_path, capsys):
    for kind, dims in (
        ("lap2d", ["5", "4"]),
        ("lap3d", ["3", "3", "3"]),
        ("elasticity", ["2", "2", "2"]),
        ("random", ["50"]),
    ):
        out = tmp_path / f"{kind}.mtx"
        assert main(["generate", kind, *dims, "--out", str(out)]) == 0
        assert out.exists()


def test_generate_wrong_dims(tmp_path):
    with pytest.raises(SystemExit):
        main(["generate", "lap3d", "4", "4", "--out", str(tmp_path / "x.mtx")])


def test_analyze(matrix_file, capsys):
    assert main(["analyze", str(matrix_file), "--ordering", "amd"]) == 0
    out = capsys.readouterr().out
    assert "supernodes" in out
    assert "nnz(L)" in out


def test_solve_ones(matrix_file, tmp_path, capsys):
    sol = tmp_path / "x.txt"
    rc = main([
        "solve", str(matrix_file), "--policy", "P1", "--out", str(sol),
    ])
    assert rc == 0
    assert sol.exists()
    out = capsys.readouterr().out
    assert "refinement step" in out
    x = np.loadtxt(sol)
    assert x.shape == (216,)


def test_solve_with_rhs_file(matrix_file, tmp_path):
    rhs = tmp_path / "b.txt"
    np.savetxt(rhs, np.ones(216))
    assert main(["solve", str(matrix_file), "--rhs", str(rhs)]) == 0


def test_solve_hybrid_policy(matrix_file):
    assert main(["solve", str(matrix_file), "--policy", "baseline"]) == 0


def test_policies(capsys):
    assert main(["policies", "--m", "2000", "--k", "800"]) == 0
    out = capsys.readouterr().out
    assert "best base policy" in out
    # at this size a GPU policy must win
    assert "P3" in out.splitlines()[-1] or "P4" in out.splitlines()[-1]


def test_policies_small_call(capsys):
    assert main(["policies", "--m", "10", "--k", "5"]) == 0
    assert "best base policy: P1" in capsys.readouterr().out


def test_train_and_save(tmp_path, capsys):
    out = tmp_path / "clf.json"
    rc = main([
        "train", "--samples", "80", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    assert out.exists()
    from repro.autotune import PolicyClassifier

    clf = PolicyClassifier.load(out)
    assert clf.predict_one(5, 3) in ("P1", "P2", "P3", "P4")


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])

