"""Panel goldens for the numeric phase: SHA-256 over every panel byte of
the benchmark's matrices, recorded at the commit before the numeric
phase went from re-permuting the matrix on every call to gathering
straight from the canonical ``a.data``.

Panels depend on the BLAS as well as on this code: two OpenBLAS threads
round the large fronts of ``lmco_s`` differently from one.  So the
digests are computed in one child process with the BLAS pinned to a
single thread (as ``bench/`` and CI pin it), and a dense canary recorded
with them skips the module on a BLAS build that rounds differently.
The machine-independent oracle for the gather map is
``test_planned_assembly_bitwise_matches_legacy`` in ``test_bench.py``.

``python tests/test_numeric_goldens.py`` prints the digests as JSON.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from repro.gpu.device import SimulatedNode
from repro.matrices import (
    elasticity_3d,
    grid_laplacian_2d,
    grid_laplacian_3d,
    load_test_matrix,
)
from repro.multifrontal import SparseCholeskySolver, batched, factorize_numeric
from repro.policies.base import PolicyP1
from repro.symbolic import symbolic_factorize

BUILD = {
    "lmco_s/nd": lambda: load_test_matrix("lmco_s"),
    "grid_laplacian_2d/amd": lambda: grid_laplacian_2d(48, 46),
    "grid_laplacian_3d/amd": lambda: grid_laplacian_3d(13, 13, 12),
    "elasticity_3d/amd": lambda: elasticity_3d(8, 7, 7),
}

#: every P1 execution mode must give the panels of ``serial`` (recorded
#: before any leaf front ran stacked)
P1_MODES = {
    "serial": dict(backend="serial"),
    "static": dict(backend="static"),
    "dynamic": dict(backend="dynamic"),
    "cluster": dict(backend="cluster"),
    "batched": dict(backend="serial"),
    "batched-static": dict(backend="static"),
}
#: these run with the stacking cutoff lifted: every same-shape leaf
#: group runs stacked, whatever its front size
UNCAPPED = ("batched", "batched-static")

PINNED = {
    "canary":
        "077e70f3c42755caceb47d989eec9592435a4c4831c44439a8c70f4bb08b9d7a",
    "lmco_s/nd P1":
        "9a337a9e17e0adbb5649f4c786c94366b3aae63dd98e68fc759088807c8b33f4",
    "grid_laplacian_2d/amd P1":
        "4d6709dc7b9a0c0cfd18f5454eeb9cce0c2fa161a55d1cb20142a79adfcdc8ed",
    "grid_laplacian_3d/amd P1":
        "3efe4ad08e25389a566f0969e23843cd1bbb42f69d8d95d098a441585f139334",
    "elasticity_3d/amd P1":
        "82071abb20dabc0281f0bb8e347358bf09c5821687b8cd2c7f90798283a9160e",
    # the refactor-p4-dynamic workload: fp32 device kernels, 2 CPUs + 2 GPUs
    "lmco_s/nd P4 dynamic":
        "114e2584b3db526e6eaeecf9ae6ded46593166ec5954588b1d7e365fc3175fe1",
    # refactorize(values) twice on one solver, values = D A D from
    # scaled_values(a, 1), then scaled_values(a, 2)
    "lmco_s/nd refactorize 1":
        "afad4b7a30ab196867e74d2fa2dd6d7b2cd7095885ee5504cad59689bbec10d3",
    "lmco_s/nd refactorize 2":
        "2985d4e3f955c730ece6ac87e814f88e00af133428f6cab064a7ffe9326ea660",
    "grid_laplacian_2d/amd refactorize 1":
        "5f58ef46d7a7a730a3e1b37b5604854f7edd4f018ba70b2cc6b03fbfea55e601",
    "grid_laplacian_2d/amd refactorize 2":
        "97e699f1cac7b865ff1435fd174668adb0f50736bb6660f45cc333d01c38260e",
    # lower-only storage handed straight to factorize_numeric.  natural
    # ordering: the lower store is all the numeric phase reads, so the
    # full store has the same digest
    "grid_laplacian_2d/natural lower-only":
        "859943a8ce0d3d5f797f59e7338efc03510e1d70608a595ef26ff88511198efa",
    "grid_laplacian_2d/natural":
        "859943a8ce0d3d5f797f59e7338efc03510e1d70608a595ef26ff88511198efa",
    # amd: the permutation moves about half of the lower store above the
    # diagonal; every entry is read from the side it is stored on, so
    # this is the digest of the full store, "grid_laplacian_2d/amd P1"
    # above.  (Up to PR 21 those entries were dropped, without an error,
    # and this line pinned the wrong factor that came out, 6138fa1b...,
    # to show the gather map was the same function of ``a``.)
    "grid_laplacian_2d/amd lower-only":
        "4d6709dc7b9a0c0cfd18f5454eeb9cce0c2fa161a55d1cb20142a79adfcdc8ed",
}


def panel_digest(factor) -> str:
    h = hashlib.sha256()
    for panel in factor.panels:
        h.update(np.ascontiguousarray(panel, dtype=np.float64).tobytes())
    return h.hexdigest()


def blas_canary() -> str:
    """One dense factor-update of the shape of the largest ``lmco_s``
    front, on fixed input: the rounding of the BLAS underneath."""
    n, k = 1095, 249
    g = np.random.default_rng(0).normal(size=(n, n))
    front = g @ g.T + n * np.eye(n)
    PolicyP1().apply(front, k, None)
    return hashlib.sha256(front.tobytes()).hexdigest()


def scaled_values(a, seed: int) -> np.ndarray:
    d = np.random.default_rng(seed).uniform(0.5, 2.0, size=a.n_rows)
    cols = np.repeat(np.arange(a.n_cols), np.diff(a.indptr))
    return a.data * d[a.indices] * d[cols]


def compute_digests() -> dict[str, str]:
    out = {"canary": blas_canary()}
    for case, build in BUILD.items():
        a = build()
        sf = symbolic_factorize(a, ordering=case.split("/")[1])

        def solver(symbolic=sf, **kwargs):
            return SparseCholeskySolver.from_symbolic(a, symbolic, **kwargs)

        by_mode = {}
        for mode, kwargs in P1_MODES.items():
            # uncapped on a copy of ``sf``: the stack groups are cached on it
            cutoff, symbolic = (
                (a.n_rows, dataclasses.replace(sf)) if mode in UNCAPPED
                else (batched.STACK_CUTOFF, sf)
            )
            with mock.patch.object(batched, "STACK_CUTOFF", cutoff):
                factor = solver(symbolic, policy="P1", **kwargs).factorize().factor
            assert factor.batch_tasks > 0
            by_mode[mode] = panel_digest(factor)
        out[f"{case} P1"] = by_mode.pop("serial")
        out.update({
            f"{case} P1 {mode}": digest for mode, digest in by_mode.items()
        })
        if case in ("lmco_s/nd", "grid_laplacian_2d/amd"):
            s = solver(policy="P1").factorize()
            for seed in (1, 2):
                out[f"{case} refactorize {seed}"] = panel_digest(
                    s.refactorize(scaled_values(a, seed)).factor
                )
        if case == "lmco_s/nd":
            s = solver(
                policy="P4", backend="dynamic",
                node=SimulatedNode(n_cpus=2, n_gpus=2),
            )
            out[f"{case} P4 dynamic"] = panel_digest(s.factorize().factor)
    a = BUILD["grid_laplacian_2d/amd"]()
    for ordering in ("natural", "amd"):
        sf = symbolic_factorize(a, ordering=ordering)
        out[f"grid_laplacian_2d/{ordering} lower-only"] = panel_digest(
            factorize_numeric(a.lower_triangle(), sf, PolicyP1())
        )
    out["grid_laplacian_2d/natural"] = panel_digest(
        factorize_numeric(a, symbolic_factorize(a, ordering="natural"), PolicyP1())
    )
    return out


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p),
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    done = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    if got["canary"] != PINNED["canary"]:
        pytest.skip("this BLAS rounds differently from the one the goldens record")
    return got


@pytest.mark.parametrize("name", sorted(PINNED))
def test_panels_are_pinned(digests, name):
    assert digests[name] == PINNED[name]


@pytest.mark.parametrize("mode", sorted(set(P1_MODES) - {"serial"}))
@pytest.mark.parametrize("case", sorted(BUILD))
def test_every_p1_mode_gives_the_serial_panels(digests, case, mode):
    assert digests[f"{case} P1 {mode}"] == PINNED[f"{case} P1"]


if __name__ == "__main__":
    print(json.dumps(compute_digests(), indent=1))
