"""Dense kernels and the Figure-9 blocked panel algorithm."""

import numpy as np
import pytest

from repro.dense import (
    KernelCounts,
    blocked_cholesky_panels,
    potrf,
    potrf_flops,
    syrk,
    syrk_flops,
    trsm_flops,
    trsm_right_lower,
)
from repro.dense.blocked import HostKernels, default_panel_width
from repro.dense.kernels import NotPositiveDefiniteError, gemm_flops


def spd(n, rng, shift=None):
    b = rng.normal(size=(n, n + 5))
    return b @ b.T + (shift if shift is not None else n) * np.eye(n)


class TestKernels:
    def test_potrf_reconstructs(self, rng):
        a = spd(12, rng)
        l = potrf(a)
        assert np.allclose(l @ l.T, a)
        assert np.allclose(np.triu(l, 1), 0.0)

    def test_potrf_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            potrf(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    @pytest.mark.parametrize("at", ((0, 0), (3, 3), (3, 1)))
    def test_potrf_rejects_nonfinite(self, rng, at, bad):
        # an optimized LAPACK does not trip on these by itself
        a = spd(4, rng)
        a[at] = a[at[::-1]] = bad
        with pytest.raises(NotPositiveDefiniteError):
            potrf(a)

    def test_potrf_rejects_nonsquare(self, rng):
        with pytest.raises(ValueError):
            potrf(rng.normal(size=(3, 4)))

    def test_trsm_solves(self, rng):
        l = potrf(spd(9, rng))
        b = rng.normal(size=(14, 9))
        x = trsm_right_lower(b, l)
        assert np.allclose(x @ l.T, b)

    def test_trsm_blocked_matches_unblocked(self, rng):
        # exercise the k > block-size path
        l = potrf(spd(70, rng))
        b = rng.normal(size=(5, 70))
        x = trsm_right_lower(b, l)
        assert np.allclose(x @ l.T, b, atol=1e-8)

    def test_trsm_shape_checks(self, rng):
        l = potrf(spd(4, rng))
        with pytest.raises(ValueError):
            trsm_right_lower(rng.normal(size=(3, 5)), l)
        with pytest.raises(ValueError):
            trsm_right_lower(rng.normal(size=(3, 4)), rng.normal(size=(4, 3)))

    def test_syrk_in_place(self, rng):
        x = rng.normal(size=(6, 3))
        c = np.eye(6)
        out = syrk(c, x)
        assert out is c
        assert np.allclose(c, np.eye(6) - x @ x.T)

    def test_flop_formulas(self):
        assert potrf_flops(6) == pytest.approx(72.0)
        assert trsm_flops(10, 3) == pytest.approx(90.0)
        assert syrk_flops(10, 3) == pytest.approx(300.0)
        assert gemm_flops(2, 3, 4) == pytest.approx(48.0)

    def test_kernel_counts_accumulate(self, rng):
        counts = KernelCounts()
        l = potrf(spd(5, rng), counts=counts)
        trsm_right_lower(rng.normal(size=(7, 5)), l, counts=counts)
        syrk(np.eye(7), rng.normal(size=(7, 5)), counts=counts)
        assert counts.calls == {"potrf": 1, "trsm": 1, "syrk": 1}
        assert counts.total_flops() == pytest.approx(
            potrf_flops(5) + trsm_flops(7, 5) + syrk_flops(7, 5)
        )


class TestStackedKernels:
    """A kernel given a ``(B, n, n)`` stack computes every slice as it
    computes that block alone, and counts as B calls of one slice."""

    B = 5

    def stack(self, rng, k, m, dtype=np.float64):
        fronts = np.stack([spd(k + m, rng) for _ in range(self.B)]).astype(dtype)
        return fronts

    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    @pytest.mark.parametrize("m,k", [(3, 1), (20, 7), (9, 32), (40, 33), (70, 70)])
    def test_every_slice_is_the_2d_kernel(self, rng, m, k, dtype):
        fronts = self.stack(rng, k, m, dtype)
        l1 = potrf(fronts[:, :k, :k])
        x = trsm_right_lower(fronts[:, k:, :k], l1)
        c = fronts[:, k:, k:].copy()
        syrk(c, x)
        for i in range(self.B):
            f = fronts[i]
            assert np.array_equal(l1[i], potrf(f[:k, :k]))
            xi = trsm_right_lower(f[k:, :k], l1[i])
            assert np.array_equal(x[i], xi)
            assert np.array_equal(c[i], syrk(f[k:, k:].copy(), xi))

    def test_stacked_counts_are_per_slice(self, rng):
        k, m = 6, 9
        fronts = self.stack(rng, k, m)
        stacked, flat = KernelCounts(), KernelCounts()
        l1 = potrf(fronts[:, :k, :k], counts=stacked)
        x = trsm_right_lower(fronts[:, k:, :k], l1, counts=stacked)
        syrk(fronts[:, k:, k:].copy(), x, counts=stacked)
        for f in fronts:
            li = potrf(f[:k, :k], counts=flat)
            xi = trsm_right_lower(f[k:, :k], li, counts=flat)
            syrk(f[k:, k:].copy(), xi, counts=flat)
        assert stacked.calls == flat.calls == {"potrf": 5, "trsm": 5, "syrk": 5}
        assert stacked.flops == flat.flops

    @pytest.mark.parametrize("bad", (-1.0, np.nan))
    def test_a_failing_slice_is_named(self, rng, bad):
        fronts = self.stack(rng, 4, 0)
        fronts[1, 2, 2] = fronts[3, 0, 0] = bad
        with pytest.raises(NotPositiveDefiniteError) as stacked:
            potrf(fronts)
        with pytest.raises(NotPositiveDefiniteError) as alone:
            potrf(fronts[1])
        assert stacked.value.failed == (1, 3)
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("s,k,w", [(30, 12, 4), (25, 25, 8), (33, 10, 64)])
    def test_blocked_panels_on_a_stack(self, rng, s, k, w):
        fronts = self.stack(rng, s, 0)
        work = fronts.copy()
        blocked_cholesky_panels(work, k, w, HostKernels())
        for i in range(self.B):
            one = fronts[i].copy()
            blocked_cholesky_panels(one, k, w, HostKernels())
            assert np.array_equal(work[i], one)


class TestBlockedPanels:
    @pytest.mark.parametrize("s,k,w", [(30, 12, 4), (25, 25, 8), (40, 17, 17), (33, 10, 64)])
    def test_matches_reference_cholesky(self, s, k, w, rng):
        f = spd(s, rng)
        ref_l = np.linalg.cholesky(f)
        ref_u = f[k:, k:] - ref_l[k:, :k] @ ref_l[k:, :k].T
        work = f.copy()
        blocked_cholesky_panels(work, k, w, HostKernels())
        assert np.allclose(np.tril(work[:k, :k]), ref_l[:k, :k])
        assert np.allclose(work[k:, :k], ref_l[k:, :k])
        assert np.allclose(work[k:, k:], ref_u)

    def test_upper_triangle_zeroed(self, rng):
        for s, k, w in [(10, 6, 3), (30, 12, 5), (25, 25, 8), (33, 10, 64)]:
            work = spd(s, rng)
            blocked_cholesky_panels(work, k, w, HostKernels())
            upper = work[:k, :k][np.triu_indices(k, 1)]
            # +0.0 in every entry, ragged last panel included
            assert not upper.any() and not np.signbit(upper).any()

    def test_full_factor_when_k_equals_s(self, rng):
        f = spd(20, rng)
        ref = np.linalg.cholesky(f)
        work = f.copy()
        blocked_cholesky_panels(work, 20, 6, HostKernels())
        assert np.allclose(np.tril(work), ref)

    def test_invalid_args(self, rng):
        f = spd(8, rng)
        with pytest.raises(ValueError):
            blocked_cholesky_panels(f, 0, 4, HostKernels())
        with pytest.raises(ValueError):
            blocked_cholesky_panels(f, 4, 0, HostKernels())
        with pytest.raises(ValueError):
            blocked_cholesky_panels(rng.normal(size=(4, 5)), 2, 2, HostKernels())

    def test_kernel_counts_flops_conserved(self, rng):
        # total flops of the panel decomposition ~ the monolithic counts
        s, k = 60, 40
        counts = KernelCounts()
        blocked_cholesky_panels(spd(s, rng), k, 10, HostKernels(counts))
        m = s - k
        expected = potrf_flops(k) + trsm_flops(m, k) + syrk_flops(m, k)
        assert counts.total_flops() == pytest.approx(expected, rel=0.35)

    def test_default_panel_width_monotone(self):
        widths = [default_panel_width(k) for k in (10, 100, 1000, 10000, 10**6)]
        assert widths == sorted(widths)
        assert min(widths) >= 64
        assert max(widths) <= 512
