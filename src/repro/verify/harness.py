"""Suite runner: the generator suite through the lattice + invariants.

This is the engine behind ``python -m repro verify``: run every matrix
of the standard generator suite through the default configuration
pairs, run the invariant checkers, replay the persisted regression
corpus, and render one table.  Exit-code semantics live in the CLI; the
harness only gathers results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.matrices.csc import CSCMatrix
from repro.matrices.generators import (
    elasticity_3d,
    grid_laplacian_2d,
    grid_laplacian_3d,
    random_spd,
)
from repro.verify.invariants import InvariantReport, run_invariants
from repro.verify.lattice import PairReport, default_pairs, verify_matrix

__all__ = ["SuiteResult", "generator_suite", "verify_suite", "format_suite"]

#: directory of committed regression witnesses (relative to the repo root)
DEFAULT_CORPUS = Path(__file__).resolve().parents[3] / "tests" / "corpus"


def generator_suite(scale: str = "small") -> list[tuple[str, CSCMatrix]]:
    """The named matrices the verification suite runs on.

    ``small`` keeps the suite interactive (~seconds); ``full`` adds the
    larger stress variants for the scheduled CI job.
    """
    suite = [
        ("lap2d-8x8", grid_laplacian_2d(8, 8)),
        ("lap3d-5x5x5", grid_laplacian_3d(5, 5, 5)),
        ("elasticity-3x3x3", elasticity_3d(3, 3, 3)),
        ("random-spd-80", random_spd(80, seed=11)),
    ]
    if scale == "full":
        suite += [
            ("lap2d-20x20", grid_laplacian_2d(20, 20)),
            ("lap3d-8x8x8", grid_laplacian_3d(8, 8, 8)),
            ("elasticity-4x4x4", elasticity_3d(4, 4, 4)),
            ("random-spd-300", random_spd(300, seed=5)),
        ]
    elif scale != "small":
        raise ValueError(f"unknown suite scale {scale!r} (small | full)")
    return suite


@dataclass
class SuiteResult:
    """Everything one verification run produced."""

    pair_reports: dict[str, list[PairReport]] = field(default_factory=dict)
    invariant_reports: dict[str, list[InvariantReport]] = field(
        default_factory=dict
    )
    corpus_failures: list = field(default_factory=list)
    corpus_cases: int = 0

    @property
    def ok(self) -> bool:
        return (
            all(r.ok for rs in self.pair_reports.values() for r in rs)
            and all(r.ok for rs in self.invariant_reports.values() for r in rs)
            and not self.corpus_failures
        )

    def failures(self) -> list[str]:
        out = []
        for matrix, reports in self.pair_reports.items():
            for r in reports:
                if not r.ok:
                    out.append(f"{matrix}: {r}")
        for matrix, reports in self.invariant_reports.items():
            for r in reports:
                if not r.ok:
                    out.append(f"{matrix}: {r}")
        for f in self.corpus_failures:
            out.append(f"{f.case_label}: {f.check}: {'; '.join(f.violations)}")
        return out


def verify_suite(
    *,
    scale: str = "small",
    invariants: bool = True,
    corpus_dir=None,
    rhs_seed: int = 20260805,
) -> SuiteResult:
    """Run the full verification: lattice pairs + invariants + corpus."""
    from repro.verify.fuzz import load_corpus, replay_corpus

    pair_list = default_pairs()
    result = SuiteResult()
    rng = np.random.default_rng(rhs_seed)
    for name, a in generator_suite(scale):
        b = rng.standard_normal(a.n_rows)
        result.pair_reports[name] = verify_matrix(a, pair_list, b)
        if invariants:
            result.invariant_reports[name] = run_invariants(a)
    corpus = DEFAULT_CORPUS if corpus_dir is None else Path(corpus_dir)
    result.corpus_cases = len(load_corpus(corpus))
    result.corpus_failures = replay_corpus(corpus, pair_list)
    return result


def format_suite(result: SuiteResult) -> str:
    """Plain-text rendering of a :class:`SuiteResult`."""
    from repro.analysis import format_table

    rows = []
    for matrix, reports in result.pair_reports.items():
        for r in reports:
            status = "ok" if r.ok else "FAIL"
            if r.details.get("skipped"):
                status = "skip"
            rows.append([matrix, r.pair.name, status])
    for matrix, reports in result.invariant_reports.items():
        for r in reports:
            rows.append([matrix, r.name, "ok" if r.ok else "FAIL"])
    text = format_table(
        ["matrix", "check", "status"], rows,
        title="differential verification",
    )
    text += (
        f"\ncorpus: {result.corpus_cases} case(s) replayed, "
        f"{len(result.corpus_failures)} failure(s)"
    )
    failures = result.failures()
    if failures:
        text += "\n\nfailures:\n" + "\n".join(f"  {f}" for f in failures)
    return text
