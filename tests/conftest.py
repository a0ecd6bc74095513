"""Shared fixtures: small problems, the calibrated model, cached symbolic
factorizations (symbolic analysis is the slowest reusable step).

Also registers the single hypothesis profile for the whole suite:
``REPRO_HYPOTHESIS_EXAMPLES`` overrides ``max_examples`` (e.g. crank it
up in a nightly job, or set it to 5 for a quick local run).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

import numpy as np
import pytest

from repro.gpu.perfmodel import tesla_t10_model
from repro.matrices import elasticity_3d, grid_laplacian_2d, grid_laplacian_3d, random_spd
from repro.symbolic import symbolic_factorize

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # pragma: no cover - hypothesis is optional
    pass
else:
    settings.register_profile(
        "repro",
        deadline=None,
        max_examples=int(os.environ.get("REPRO_HYPOTHESIS_EXAMPLES", "25")),
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile("repro")


def starved_node(memory_bytes: int | None, n_cpus: int = 1):
    """A node whose one GPU has ``memory_bytes`` of device memory
    (``None``: the default 4 GiB part; ``0``: no GPU at all)."""
    from dataclasses import replace

    from repro.gpu.device import SimulatedGpu, SimulatedNode
    from repro.gpu.spec import TESLA_T10

    node = SimulatedNode(n_cpus=n_cpus, n_gpus=0 if memory_bytes == 0 else 1)
    if memory_bytes:
        node.gpus[0] = SimulatedGpu(
            node.model, 0, spec=replace(TESLA_T10, memory_bytes=memory_bytes)
        )
    return node


def pricing_digest(result, stats=None) -> str:
    """Leading 16 hex digits of a SHA-256 over everything a pricing pass
    produces, bit for bit (floats as ``float.hex``): every record, the
    makespan, the assembly seconds and, for a device-resident pass, every
    ``ResidencyStats`` field."""
    def fhex(x) -> str:
        return float(x).hex()

    parts = [
        [(r.sid, r.m, r.k, r.policy, fhex(r.start), fhex(r.end),
          sorted((c, fhex(t)) for c, t in r.components.items()),
          [fhex(f) for f in r.flops]) for r in result.records],
        fhex(result.makespan), fhex(result.assembly_seconds),
    ]
    if stats is not None:
        parts.append([fhex(v) for v in dataclasses.astuple(stats)])
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


@pytest.fixture(scope="session")
def model():
    return tesla_t10_model()


@pytest.fixture(scope="session")
def lap2d_small():
    return grid_laplacian_2d(10, 10)


@pytest.fixture(scope="session")
def lap3d_small():
    return grid_laplacian_3d(7, 7, 7)


@pytest.fixture(scope="session")
def elast_small():
    return elasticity_3d(4, 4, 4)


@pytest.fixture(scope="session")
def rand_spd_small():
    return random_spd(120, seed=3)


@pytest.fixture(scope="session")
def spd_stores():
    """One SPD matrix (``grid_laplacian_2d(9, 8) + 10 I``) in every
    store of its symmetric pattern: ``full``, ``lower``, ``upper`` and
    ``mixed`` — each off-diagonal pair on both sides, except that a pair
    with ``(i + j) % 2 == 0`` has lost its upper copy."""
    from repro.matrices.csc import CSCMatrix

    a = grid_laplacian_2d(9, 8)
    cols = np.repeat(np.arange(a.n_cols), np.diff(a.indptr))
    full = CSCMatrix(
        a.shape, a.indptr, a.indices, a.data + 10.0 * (a.indices == cols)
    )
    keep = (a.indices >= cols) | ((a.indices + cols) % 2 == 1)
    mixed = CSCMatrix.from_coo(
        full.indices[keep], cols[keep], full.data[keep], full.shape
    )
    lower = full.lower_triangle()
    assert lower.nnz < mixed.nnz < full.nnz
    return {
        "full": full, "lower": lower, "upper": lower.transpose(),
        "mixed": mixed,
    }


@pytest.fixture(scope="session")
def sf_lap3d(lap3d_small):
    return symbolic_factorize(lap3d_small, ordering="nd")


@pytest.fixture(scope="session")
def sf_elast(elast_small):
    return symbolic_factorize(elast_small, ordering="amd")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
