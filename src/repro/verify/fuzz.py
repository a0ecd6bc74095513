"""Adversarial SPD generators, the fuzz driver, and the regression corpus.

The generators stress the corners the standard generator suite is too
polite to reach:

* ``near_singular`` — graph Laplacians with a vanishing diagonal shift
  (condition numbers around 1e8; fp32 factors of these are where the
  refinement promise earns its keep);
* ``wide_front`` — an arrow matrix (sparse body + dense border) whose
  root front is as wide as the border, exercising the large-(m, k)
  kernel paths and device-memory demand in one supernode;
* ``skinny_chain`` — path-graph Laplacians: maximal-depth elimination
  trees of width-1 supernodes, the worst case for per-call overheads and
  the update-stack ledger;
* ``duplicate_pattern`` — one pattern, rescaled values: the cache-key
  purity axis (same pattern key, distinct values keys);
* ``permutation_heavy`` — a grid problem pre-scrambled by a random
  symmetric permutation, so the fill-reducing ordering has real work to
  undo and two orderings genuinely disagree;
* ``amalgamation_chain`` — a deep path with pendant leaves: maximal
  chains of 1-column supernodes whose fronts differ just enough that
  relaxed amalgamation has to spend its explicit-zero budget folding
  them (the multi-pass merge logic's worst case);
* ``tiny_leaf_forest`` — many bit-identical tiny blocks coupled to one
  shared root: a forest of same-shape leaf fronts, the best and worst
  case for batched small-front grouping.

Failing cases are shrunk (:mod:`repro.verify.shrink`) and persisted as
JSON witnesses; the corpus under ``tests/corpus/`` is replayed by the
test suite and by ``python -m repro verify`` so every past failure stays
fixed.  JSON round-trips Python floats exactly (shortest-repr), so
replay is bit-deterministic.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.matrices.csc import CSCMatrix
from repro.matrices.generators import grid_laplacian_2d, random_spd

__all__ = [
    "FUZZ_GENERATORS",
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "generate_case",
    "save_case",
    "load_case",
    "load_corpus",
    "replay_corpus",
    "run_fuzz",
]


# ----------------------------------------------------------------------
# adversarial generators
# ----------------------------------------------------------------------
def near_singular(rng: np.random.Generator) -> CSCMatrix:
    n = int(rng.integers(20, 90))
    return random_spd(
        n, avg_degree=4.0, seed=int(rng.integers(0, 2**31)), shift=1e-7
    )


def wide_front(rng: np.random.Generator) -> CSCMatrix:
    """Arrow matrix: sparse Laplacian body plus a dense border block."""
    n_body = int(rng.integers(20, 60))
    border = int(rng.integers(4, 12))
    body = random_spd(n_body, avg_degree=3.0, seed=int(rng.integers(0, 2**31)))
    n = n_body + border
    rows = [body.indices]
    cols = [np.repeat(np.arange(n_body, dtype=np.int64), np.diff(body.indptr))]
    vals = [body.data]
    # dense coupling of every body node to every border node
    bi = np.arange(n_body, dtype=np.int64)
    for j in range(border):
        col = n_body + j
        w = rng.uniform(0.01, 0.1, size=n_body)
        rows += [bi, np.full(n_body, col, dtype=np.int64)]
        cols += [np.full(n_body, col, dtype=np.int64), bi]
        vals += [-w, -w]
    # border diagonal: dominate the row sums to stay SPD
    bd = np.arange(n_body, n, dtype=np.int64)
    rows.append(bd)
    cols.append(bd)
    vals.append(np.full(border, 0.1 * n_body + 1.0))
    # strengthen the body diagonal by the coupling it just gained
    rows.append(bi)
    cols.append(bi)
    vals.append(np.full(n_body, 0.1 * border + 0.1))
    return CSCMatrix.from_coo(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
        (n, n),
    )


def skinny_chain(rng: np.random.Generator) -> CSCMatrix:
    n = int(rng.integers(30, 120))
    ids = np.arange(n - 1, dtype=np.int64)
    w = rng.uniform(0.5, 1.5, size=n - 1)
    diag = np.zeros(n)
    np.add.at(diag, ids, w)
    np.add.at(diag, ids + 1, w)
    rows = np.concatenate([ids, ids + 1, np.arange(n, dtype=np.int64)])
    cols = np.concatenate([ids + 1, ids, np.arange(n, dtype=np.int64)])
    vals = np.concatenate([-w, -w, diag + 0.05])
    return CSCMatrix.from_coo(rows, cols, vals, (n, n))


def duplicate_pattern(rng: np.random.Generator) -> CSCMatrix:
    base = grid_laplacian_2d(
        int(rng.integers(4, 9)), int(rng.integers(4, 9))
    )
    scale = float(rng.uniform(0.25, 4.0))
    return CSCMatrix(
        base.shape, base.indptr, base.indices, base.data * scale, check=False
    )


def permutation_heavy(rng: np.random.Generator) -> CSCMatrix:
    a = grid_laplacian_2d(int(rng.integers(5, 10)), int(rng.integers(5, 10)))
    perm = rng.permutation(a.n_rows).astype(np.int64)
    return a.permute_symmetric(perm)


def amalgamation_chain(rng: np.random.Generator) -> CSCMatrix:
    """Deep path with pendant leaves hung off every ``stride``-th vertex.

    The path alone folds into supernodes with no explicit zeros; each
    pendant perturbs the adjacent fronts so the amalgamation sweep has
    to weigh real fill against the merge — and multi-pass folding has
    long 1-column chains to collapse between the pendants.
    """
    depth = int(rng.integers(40, 150))
    stride = int(rng.integers(3, 7))
    path = np.arange(depth - 1, dtype=np.int64)
    anchors = np.arange(0, depth, stride, dtype=np.int64)
    pendants = depth + np.arange(anchors.size, dtype=np.int64)
    n = depth + anchors.size
    # undirected edges once, then mirrored with one shared weight vector
    und_i = np.concatenate([path, anchors])
    und_j = np.concatenate([path + 1, pendants])
    w = rng.uniform(0.5, 1.5, size=und_i.size)
    ei = np.concatenate([und_i, und_j])
    ej = np.concatenate([und_j, und_i])
    wv = np.concatenate([w, w])
    diag = np.zeros(n)
    np.add.at(diag, ei, wv)
    ids = np.arange(n, dtype=np.int64)
    rows = np.concatenate([ei, ids])
    cols = np.concatenate([ej, ids])
    vals = np.concatenate([-wv, diag + 0.05])
    return CSCMatrix.from_coo(rows, cols, vals, (n, n))


def tiny_leaf_forest(rng: np.random.Generator) -> CSCMatrix:
    """Many copies of one tiny path block, each coupled to one root.

    Every block carries the *same* values, so its leaf fronts are
    bit-identical and all land in one batch group; the shared root keeps
    the matrix irreducible and gives the groups a common parent to
    extend-add into.
    """
    b = int(rng.integers(3, 7))
    copies = int(rng.integers(8, 30))
    w = rng.uniform(0.5, 1.5, size=b - 1)   # one weight vector, all copies
    couple = float(rng.uniform(0.1, 0.4))
    n = b * copies + 1
    root = n - 1
    rows_l, cols_l, vals_l = [], [], []
    for c in range(copies):
        base = c * b
        ids = base + np.arange(b - 1, dtype=np.int64)
        rows_l += [ids, ids + 1]
        cols_l += [ids + 1, ids]
        vals_l += [-w, -w]
        # couple the block's last vertex to the shared root
        last = base + b - 1
        rows_l += [np.array([last, root]), np.array([root, last])]
        cols_l += [np.array([root, last]), np.array([last, root])]
        vals_l += [np.array([-couple] * 2), np.array([-couple] * 2)]
    ei = np.concatenate(rows_l)
    w_all = -np.concatenate(vals_l)
    diag = np.zeros(n)
    np.add.at(diag, ei, w_all)
    ids = np.arange(n, dtype=np.int64)
    rows = np.concatenate([ei, ids])
    cols = np.concatenate([np.concatenate(cols_l), ids])
    vals = np.concatenate([np.concatenate(vals_l), diag + 0.05])
    return CSCMatrix.from_coo(rows, cols, vals, (n, n))


FUZZ_GENERATORS = {
    "near_singular": near_singular,
    "wide_front": wide_front,
    "skinny_chain": skinny_chain,
    "duplicate_pattern": duplicate_pattern,
    "permutation_heavy": permutation_heavy,
    "amalgamation_chain": amalgamation_chain,
    "tiny_leaf_forest": tiny_leaf_forest,
}


@dataclass
class FuzzCase:
    """One generated input."""

    generator: str
    seed: int
    a: CSCMatrix

    @property
    def label(self) -> str:
        return f"{self.generator}#{self.seed} (n={self.a.n_rows})"


def generate_case(seed: int) -> FuzzCase:
    """Deterministically derive one case from an integer seed."""
    rng = np.random.default_rng(seed)
    name = list(FUZZ_GENERATORS)[int(rng.integers(0, len(FUZZ_GENERATORS)))]
    return FuzzCase(generator=name, seed=seed, a=FUZZ_GENERATORS[name](rng))


# ----------------------------------------------------------------------
# corpus persistence
# ----------------------------------------------------------------------
def save_case(path, a: CSCMatrix, meta: dict | None = None) -> None:
    """Persist a matrix (bit-exact) plus metadata as a JSON corpus case."""
    payload = dict(meta or {})
    payload.update(
        {
            "n": int(a.n_rows),
            "indptr": [int(x) for x in a.indptr],
            "indices": [int(x) for x in a.indices],
            "data": [float(x) for x in a.data],
        }
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_case(path) -> tuple[CSCMatrix, dict]:
    """Load one corpus case; returns (matrix, metadata)."""
    with open(path) as fh:
        payload = json.load(fh)
    n = int(payload["n"])
    a = CSCMatrix(
        (n, n),
        np.asarray(payload["indptr"], dtype=np.int64),
        np.asarray(payload["indices"], dtype=np.int64),
        np.asarray(payload["data"], dtype=np.float64),
    )
    meta = {
        k: v for k, v in payload.items()
        if k not in ("n", "indptr", "indices", "data")
    }
    return a, meta


def load_corpus(directory) -> list[tuple[str, CSCMatrix, dict]]:
    """All ``*.json`` cases under ``directory``, sorted by filename."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    out = []
    for path in sorted(directory.glob("*.json")):
        a, meta = load_case(path)
        out.append((path.name, a, meta))
    return out


def replay_corpus(directory, pairs=None) -> list["FuzzFailure"]:
    """Re-verify every persisted corpus case; returns the failures."""
    from repro.verify.lattice import verify_matrix

    failures: list[FuzzFailure] = []
    for name, a, meta in load_corpus(directory):
        for report in verify_matrix(a, pairs):
            if not report.ok:
                failures.append(
                    FuzzFailure(
                        case_label=f"corpus:{name}",
                        check=report.pair.name,
                        violations=list(report.violations),
                        witness=a,
                    )
                )
    return failures


# ----------------------------------------------------------------------
# the fuzz driver
# ----------------------------------------------------------------------
@dataclass
class FuzzFailure:
    """One reproduced violation, with its (possibly shrunk) witness."""

    case_label: str
    check: str
    violations: list[str]
    witness: CSCMatrix
    shrunk_from: int | None = None
    witness_path: str | None = None


@dataclass
class FuzzReport:
    """Outcome of one fuzz run."""

    cases_run: int = 0
    elapsed_seconds: float = 0.0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _check_case(a: CSCMatrix, pairs) -> tuple[str, list[str], object] | None:
    """First failing check on ``a``: (check name, violations, predicate).

    The returned predicate re-evaluates *that specific check* on a
    candidate matrix — this is what the shrinker minimizes against.
    """
    from repro.verify.invariants import (
        check_amalgamated_structure,
        check_factor_residual,
        check_symbolic_structure,
        check_update_conservation,
    )
    from repro.verify.lattice import verify_pair
    from repro.symbolic.symbolic import symbolic_factorize

    def structural(m: CSCMatrix) -> list[str]:
        full = m.full_symmetric()
        sf = symbolic_factorize(full, ordering="amd")
        return (
            check_symbolic_structure(sf)
            + check_update_conservation(sf)
            + check_amalgamated_structure(full)
        )

    checks: list[tuple[str, object]] = [
        ("structural-invariants", structural),
        ("factor-residual", check_factor_residual),
    ]
    for pair in pairs:
        checks.append(
            (pair.name, lambda m, p=pair: verify_pair(m, p).violations)
        )
    for name, fn in checks:
        violations = fn(a)
        if violations:
            predicate = lambda m, f=fn: bool(f(m))  # noqa: E731
            return name, violations, predicate
    return None


def run_fuzz(
    *,
    budget_seconds: float = 60.0,
    seed: int = 0,
    pairs=None,
    max_cases: int | None = None,
    shrink_failures: bool = True,
    witness_dir=None,
    max_failures: int = 5,
) -> FuzzReport:
    """Generate-and-verify until the time budget (or case cap) runs out.

    Every failure is shrunk to a minimal witness and, when
    ``witness_dir`` is given, persisted in the corpus JSON format so it
    can be committed as a regression case.
    """
    from repro.verify.lattice import default_pairs
    from repro.verify.shrink import shrink_matrix

    if pairs is None:
        pairs = default_pairs()
    report = FuzzReport()
    # the wall-clock budget is the fuzzer's contract: case *content* is
    # fully seed-determined, only how many cases fit the budget varies
    t0 = time.perf_counter()  # repro-lint: disable=RPL010 -- wall-clock budget is the feature
    case_seed = seed
    while True:
        report.elapsed_seconds = time.perf_counter() - t0  # repro-lint: disable=RPL010 -- budget accounting
        if report.elapsed_seconds >= budget_seconds:
            break
        if max_cases is not None and report.cases_run >= max_cases:
            break
        if len(report.failures) >= max_failures:
            break
        case = generate_case(case_seed)
        case_seed += 1
        report.cases_run += 1
        found = _check_case(case.a, pairs)
        if found is None:
            continue
        check_name, violations, predicate = found
        witness = case.a
        shrunk_from = None
        if shrink_failures:
            try:
                shrunk = shrink_matrix(case.a, predicate)
                witness = shrunk.matrix
                shrunk_from = shrunk.original_n
            except ValueError:
                pass  # flaky failure: keep the original witness
        failure = FuzzFailure(
            case_label=case.label,
            check=check_name,
            violations=violations,
            witness=witness,
            shrunk_from=shrunk_from,
        )
        if witness_dir is not None:
            fname = f"witness_{case.generator}_{case.seed}.json"
            path = os.path.join(str(witness_dir), fname)
            save_case(
                path, witness,
                meta={
                    "generator": case.generator,
                    "seed": case.seed,
                    "check": check_name,
                    "violations": violations[:4],
                    "shrunk_from_n": shrunk_from,
                },
            )
            failure.witness_path = path
        report.failures.append(failure)
    report.elapsed_seconds = time.perf_counter() - t0  # repro-lint: disable=RPL010 -- budget accounting
    return report
