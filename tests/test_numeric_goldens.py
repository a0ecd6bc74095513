"""Panel goldens for the numeric phase: SHA-256 over every panel byte of
the benchmark's matrices, recorded at the commit before the numeric
phase went from re-permuting the matrix on every call to gathering
straight from the canonical ``a.data``, and re-recorded when the panel
solve went from substitution to one product per diagonal-block inverse
and again when the rank-k update of a large front went to row blocks of
its lower triangle (each rounds differently; ``tests/test_panel_solve.py``
holds their accuracy to the kernels they replaced).

Panels depend on the BLAS as well as on this code: two OpenBLAS threads
round the large fronts of ``lmco_s`` differently from one.  So the
digests are computed in one child process with the BLAS pinned to a
single thread (as ``bench/`` and CI pin it), and a dense canary recorded
with them skips the module on a BLAS build that rounds differently.  The
canary runs numpy's own Cholesky, products and inverse, none of this
repository's kernels, so a change to a kernel fails the goldens instead.
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
        "f4daa6549d308b6d08de2d374e3f375e0a7f64553c7e3880f519cd72f4048da3",
    "lmco_s/nd P1":
        "19221e7b42df4c6685134c11b2d2a78862e5eb822dd6cebe2b07d50180737468",
    "grid_laplacian_2d/amd P1":
        "39a9724d1f5bde08751db5864e7f3ece948fc270efda1036591131fdaf753887",
    "grid_laplacian_3d/amd P1":
        "85a5896faa02f1f37a96e1a9c34ea9a99f43ec22f8c39e42b882bda4c0355d6c",
    "elasticity_3d/amd P1":
        "446c80fe1eef2d07ef8e7a6a89e6fff588e4158128600f4a08d1632808b6ae2e",
    # the refactor-p4-dynamic workload: fp32 device kernels, 2 CPUs + 2 GPUs
    "lmco_s/nd P4 dynamic":
        "c70423c1aedc786037d8118d77308a2376ca5d53c1c1a027ea773810f4a7aa1e",
    # refactorize(values) twice on one solver, values = D A D from
    # scaled_values(a, 1), then scaled_values(a, 2)
    "lmco_s/nd refactorize 1":
        "df7b1b4ce0702f7ba5573af60f579b96bd7c838973c70864ef1bced8d534b8f5",
    "lmco_s/nd refactorize 2":
        "5cf2ab7bce3988aa6e22e3ea556a147e246b1d579c7d1277ffddfe4fc907497d",
    "grid_laplacian_2d/amd refactorize 1":
        "cb15d2f83425e00a7ae23d7649704f6fced528f0e3af13b6e64b71f10405393d",
    "grid_laplacian_2d/amd refactorize 2":
        "12aa567e514c15d9958a2c15b120907dc11dab9893f63817a328d8cdb123e269",
    # lower-only storage handed straight to factorize_numeric.  natural
    # ordering: the lower store is all the numeric phase reads, so the
    # full store has the same digest
    "grid_laplacian_2d/natural lower-only":
        "db574a2d6eea65c0b662a1b1f5a30bc904707156a7650acbe3a0e4e6dae48051",
    "grid_laplacian_2d/natural":
        "db574a2d6eea65c0b662a1b1f5a30bc904707156a7650acbe3a0e4e6dae48051",
    # amd: the permutation moves about half of the lower store above the
    # diagonal; every entry is read from the side it is stored on, so
    # this is the digest of the full store, "grid_laplacian_2d/amd P1"
    # above.  (Up to PR 21 those entries were dropped, without an error,
    # and this line pinned the wrong factor that came out, 6138fa1b...,
    # to show the gather map was the same function of ``a``.)
    "grid_laplacian_2d/amd lower-only":
        "39a9724d1f5bde08751db5864e7f3ece948fc270efda1036591131fdaf753887",
}


def panel_digest(factor) -> str:
    h = hashlib.sha256()
    for panel in factor.panels:
        h.update(np.ascontiguousarray(panel, dtype=np.float64).tobytes())
    return h.hexdigest()


def blas_canary() -> str:
    """The rounding of the BLAS and LAPACK underneath, on fixed input of
    the shape of the largest ``lmco_s`` front: the calls the panels are
    made of (a Cholesky, a panel product, a rank-k update over the whole
    square and in 128-row blocks of its lower triangle, and a batched
    inverse of 32-column diagonal blocks), through numpy alone.  It
    calls no kernel of this repository, so a change to one moves the
    panel digests below and leaves this one: they fail, not skip."""
    n, k = 1095, 249
    g = np.random.default_rng(0).normal(size=(n, n))
    front = g @ g.T + n * np.eye(n)
    l = np.linalg.cholesky(front[:k, :k])
    x = front[k:, :k] @ l.T
    u = x @ x.T
    rows = [x[i:i + 128] @ x[:i + 128].T for i in range(0, n - k, 128)]
    w = np.linalg.inv(np.stack([l[j:j + 32, j:j + 32] for j in range(0, k - 31, 32)]))
    h = hashlib.sha256()
    for out in (l, x, u, *rows, w):
        h.update(out.tobytes())
    return h.hexdigest()


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
