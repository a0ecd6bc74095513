"""Shared infrastructure for the experiment harness.

Each benchmark regenerates one table or figure of the paper (see
DESIGN.md's experiment index): it computes the rows/series with the
library, prints them, writes them to ``benchmarks/results/<name>.txt``,
asserts the qualitative shape the paper reports, and times a
representative kernel of the experiment through pytest-benchmark.

Two scales are used (see repro.workload):

* **numeric scale** — the real ~20x-down matrices of
  ``repro.matrices.testsuite``; timing via the serial pricing pass
  :func:`~repro.multifrontal.numeric.price_serial` (the very pass a
  numeric run prices with), numerics exercised once in the validation
  bench;
* **paper scale** — synthetic geometric ND workloads calibrated to
  Table II's N and Table V's root supernode sizes; timing via the list
  scheduler.

The memoization cache itself lives in :mod:`repro.bench.workloads` so
the ``python -m repro bench`` scenario registry reuses the same
artifacts; this conftest wraps the process-wide instance in session
fixtures.  Within one process, pytest benches and CLI scenarios hit one
cache.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.workloads import SuiteCache, shared_suite

__all__ = ["SuiteCache", "save_result"]

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
os.makedirs(RESULTS_DIR, exist_ok=True)


@pytest.fixture(scope="session")
def suite():
    return shared_suite()


@pytest.fixture(scope="session")
def model(suite):
    return suite.model


def save_result(name: str, text: str) -> str:
    """Persist a rendered table/figure under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text.rstrip() + "\n")
    print(f"\n{text}\n[saved to {path}]")
    return path


@pytest.fixture
def save():
    return save_result
