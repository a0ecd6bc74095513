"""The panel solve against substitution.

:func:`repro.dense.kernels.trsm_right_lower` (on one front or a stack) is
held against the per-column substitution it replaced
(:mod:`tests.reference_kernels`) on the same input:

* its relative residual ``||X L^T - B|| / (||X|| ||L||)`` stays within 4x
  the reference's on random factors in fp64 and fp32, on factors of a
  diagonally scaled matrix (``D L``, ``D`` over ``10^±6``; there also in
  the frame of the unit-diagonal system) and on the 362 panel solves a
  factorization of ``lmco_s``/nd runs front by front;
* the factor it makes keeps its backward error ``||P A P^T - L L^T|| /
  ||A||`` within 2x the factor computed with the references patched in
  (substitution, and the rank-k update over the whole square,
  :func:`tests.reference_kernels.syrk`), on ``lmco_s`` and on the three
  ``api-mixed`` matrices.

Below a residual of one machine epsilon of the input's dtype the 4x
comparison is not made: there both solves are as accurate as the format
(a one-column solve by division leaves none at all).
"""

from __future__ import annotations

import contextlib
import inspect
from unittest import mock

import numpy as np
import pytest

from repro.dense import kernels
from repro.gpu.device import SimulatedNode
from repro.matrices import (
    elasticity_3d,
    grid_laplacian_2d,
    grid_laplacian_3d,
    load_test_matrix,
)
from repro.multifrontal import SparseCholeskySolver
from repro.symbolic import symbolic_factorize
from tests import reference_kernels
from tests.test_solve_plan import line_hits


def relative_residual(x: np.ndarray, l: np.ndarray, b: np.ndarray) -> float:
    """``||X L^T - B||_F / (||X||_F ||L||_F)``, in float64."""
    x, l, b = (np.asarray(v, dtype=np.float64) for v in (x, np.tril(l), b))
    return float(np.linalg.norm(x @ l.T - b) / (np.linalg.norm(x) * np.linalg.norm(l)))


def unit_diagonal_residual(x: np.ndarray, l: np.ndarray, b: np.ndarray) -> float:
    """:func:`relative_residual` of the same solve written as
    ``X (D^-1 L)^T = B D^-1``, ``D = diag(L)``: the frame in which the
    factor of ``D A D`` and the factor of ``A`` pose one problem, so a
    solve blind to the scaling scores the same on both."""
    d = np.diag(l).astype(np.float64)
    return relative_residual(x, l / d[:, None], b / d)


def assert_within_the_reference(b, l, residual=relative_residual) -> None:
    got = residual(kernels.trsm_right_lower(b, l), l, b)
    ref = residual(reference_kernels.trsm_right_lower(b, l), l, b)
    assert got <= max(4 * ref, np.finfo(b.dtype).eps), (got, ref)


def cholesky_factor(k: int, rng, shift: float) -> np.ndarray:
    g = rng.normal(size=(k, k + 5))
    return np.linalg.cholesky(g @ g.T + shift * np.eye(k))


#: one column, one partial block, exactly one block, a block and a tail,
#: several blocks, and the widest pivot block of lmco_s
SHAPES = [(1, 1), (7, 5), (40, 31), (40, 32), (64, 33), (300, 100), (50, 249)]


class TestResidual:
    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    @pytest.mark.parametrize("shift", (0.0, 1.0))
    @pytest.mark.parametrize("m,k", SHAPES)
    def test_random_factor(self, m, k, shift, dtype):
        rng = np.random.default_rng(1000 * m + k)
        l = cholesky_factor(k, rng, shift * k).astype(dtype)
        b = rng.normal(size=(m, k)).astype(dtype)
        assert_within_the_reference(b, l)

    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    @pytest.mark.parametrize("m,k", SHAPES)
    def test_diagonally_scaled_factor(self, m, k, dtype):
        # the Cholesky factor of D A D is D L; its panel is D2 L2, so the
        # right-hand side of the panel solve is D2 B D
        rng = np.random.default_rng(1000 * m + k)
        d, d2 = (10.0 ** rng.uniform(-6, 6, size=n) for n in (k, m))
        l = (d[:, None] * cholesky_factor(k, rng, k)).astype(dtype)
        b = (d2[:, None] * rng.normal(size=(m, k)) * d).astype(dtype)
        assert_within_the_reference(b, l)
        # the large columns hide the small ones from a normwise residual
        # (an unscaled inv(L_jj) passes it); they do not hide them here
        assert_within_the_reference(b, l, unit_diagonal_residual)

    def test_strided_pivot_block(self):
        # the Figure-9 loop hands the kernel a diagonal block of the front
        rng = np.random.default_rng(3)
        f = np.zeros((120, 120))
        f[10:90, 10:90] = cholesky_factor(80, rng, 80.0)
        l = f[10:90, 10:90]
        b = rng.normal(size=(30, 80))
        assert_within_the_reference(b, l)
        np.testing.assert_array_equal(
            kernels.trsm_right_lower(b, l),
            kernels.trsm_right_lower(b, np.ascontiguousarray(l)),
        )

    def test_lmco_s_front_by_front_panel_solves(self, lmco_s_panel_solves):
        assert len(lmco_s_panel_solves) == 362
        for b, l in lmco_s_panel_solves:
            assert_within_the_reference(b, l)

    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    def test_stacked_replay_is_the_kernel_slice_by_slice(self, dtype):
        rng = np.random.default_rng(5)
        for m, k in SHAPES:
            l = np.stack([cholesky_factor(k, rng, k) for _ in range(3)]).astype(dtype)
            b = rng.normal(size=(3, m, k)).astype(dtype)
            got = kernels.trsm_right_lower(b, l)
            for i in range(3):
                np.testing.assert_array_equal(got[i], kernels.trsm_right_lower(b[i], l[i]))


def executor(policy: str) -> dict:
    """Solver keywords for ``policy``: P1 serial on the host, P4 on the
    event-driven runtime with 2 CPUs + 2 GPUs (the ``refactor-p4-dynamic``
    workload)."""
    if policy == "P1":
        return dict(policy="P1")
    return dict(policy=policy, backend="dynamic", node=SimulatedNode(n_cpus=2, n_gpus=2))


def lmco_s_solver(policy: str) -> SparseCholeskySolver:
    return SparseCholeskySolver(load_test_matrix("lmco_s"), ordering="nd", **executor(policy))


@contextlib.contextmanager
def recorded_panel_solves():
    """Yields the list of every ``(B, L)`` handed to the panel solve
    inside the block: a group's ``(G, m, k)`` and ``(G, k, k)`` stacks,
    ``G = 1`` for a front computed alone (a group of one), and the 2-D
    blocks of a device front's Figure-9 panels."""
    calls, real = [], kernels.trsm_right_lower

    def spy(b, l, **kwargs):
        calls.append((np.array(b), np.array(l)))
        return real(b, l, **kwargs)

    with mock.patch.object(kernels, "trsm_right_lower", spy):
        yield calls


@pytest.fixture(scope="module")
def lmco_s_panel_solves():
    """The front-by-front panel solves of a factorization of lmco_s/nd
    (the one slice of each group of one)."""
    with recorded_panel_solves() as calls:
        lmco_s_solver("P1").factorize()
    return [(b[0], l[0]) for b, l in calls if len(b) == 1]


def factor_backward_error(a, factor) -> float:
    """``||P A P^T - L L^T||_F / ||A||_F``."""
    sp = pytest.importorskip("scipy.sparse")

    def to_scipy(m):
        return sp.csc_matrix((m.data, m.indices, m.indptr), shape=m.shape)

    ap = to_scipy(a.permute_symmetric(factor.sf.perm))
    l = to_scipy(factor.l_matrix())
    return float(sp.linalg.norm(ap - l @ l.T) / sp.linalg.norm(ap))


@contextlib.contextmanager
def reference_kernels_patched():
    """Substitution in every panel solve, front by front and stacked, and
    the whole-square product in every rank-k update."""
    with mock.patch.object(
        kernels, "trsm_right_lower", reference_kernels.trsm_right_lower
    ), mock.patch.object(
        kernels, "syrk", reference_kernels.syrk
    ):
        yield


#: the benchmark's matrices: lmco_s on the host and on the device path
#: (fp32 kernels, 2 CPUs + 2 GPUs), and the three api-mixed generators
FACTORS = {
    "lmco_s/nd P1": (lambda: load_test_matrix("lmco_s"), "nd", "P1"),
    "lmco_s/nd P4 dynamic": (lambda: load_test_matrix("lmco_s"), "nd", "P4"),
    "grid_laplacian_2d/amd P1": (lambda: grid_laplacian_2d(48, 46), "amd", "P1"),
    "grid_laplacian_3d/amd P1": (lambda: grid_laplacian_3d(13, 13, 12), "amd", "P1"),
    "elasticity_3d/amd P1": (lambda: elasticity_3d(8, 7, 7), "amd", "P1"),
}


@pytest.mark.parametrize("case", sorted(FACTORS))
def test_factor_backward_error_within_the_substitution_factor(case):
    build, ordering, policy = FACTORS[case]
    a = build()
    sf = symbolic_factorize(a, ordering=ordering)

    def factor():
        return SparseCholeskySolver.from_symbolic(a, sf, **executor(policy)).factorize().factor

    got = factor_backward_error(a, factor())
    with reference_kernels_patched():
        ref = factor_backward_error(a, factor())
    assert got <= 2 * ref, (got, ref)


#: the stacked leaf groups' panel solves on lmco_s/nd: calls (one per
#: group with rows below its pivots) and diagonal blocks (one per call:
#: every stacked pivot block is one block wide)
STACKED_SOLVES = {"P1": (18, 18), "P4": (18, 18)}


@pytest.mark.parametrize("policy,calls,blocks,column_steps", [
    ("P1", 362, 486, 9261),
    # the event-driven runtime on 2 CPUs + 2 GPUs: fp32 Figure-9 panels
    ("P4", 411, 502, 9773),
])
def test_lmco_s_panel_solve_counts(policy, calls, blocks, column_steps):
    """The counts-gate CI runs by name: over one warm refactorize of
    ``lmco_s``/nd no line of the panel solve runs more often than once
    per 32-column diagonal block (and its loop header once more per
    call), where substitution took one step per column.  The front-by-front
    solves are counted on the calls of one slice (a group of one, or one
    panel of a device front); a stacked leaf group is one call whatever
    its size, and no line of the dense kernels runs once per stacked
    leaf."""
    solver = lmco_s_solver(policy).factorize()
    values = solver.a.data
    with recorded_panel_solves() as solves:
        solver.refactorize(values)

    def row(stacked):
        ls = [l for b, l in solves if (b.ndim == 3 and len(b) > 1) == stacked]
        return len(ls), sum(-(-l.shape[-1] // kernels.SUBSTITUTION_BLOCK) for l in ls)

    assert row(False) == (calls, blocks)
    assert row(True) == STACKED_SOLVES[policy]
    assert len(solves) == calls + STACKED_SOLVES[policy][0]

    hits = line_hits(lambda: solver.refactorize(values), kernels)
    bound = blocks + calls + sum(STACKED_SOLVES[policy])
    assert max(n for (fn, _), n in hits.items() if fn == "trsm_right_lower") <= bound
    assert max(hits.values()) < 1620              # one per stacked leaf
    # the substitution it replaced, on the front-by-front solves: one
    # division per column
    source, first = inspect.getsourcelines(reference_kernels.trsm_right_lower)
    step = first + next(i for i, line in enumerate(source) if "/= ljj[jj, jj]" in line)
    real = kernels.trsm_right_lower

    def substitution(b, l, **kwargs):
        one = b.ndim == 2 or len(b) == 1
        return (reference_kernels.trsm_right_lower if one else real)(b, l, **kwargs)

    with mock.patch.object(kernels, "trsm_right_lower", substitution):
        hits = line_hits(lambda: solver.refactorize(values), reference_kernels)
    assert hits["trsm_right_lower", step] == column_steps
