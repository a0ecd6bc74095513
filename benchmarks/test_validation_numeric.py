"""Validation — the timing harness rests on real numerics.

Every other benchmark uses timing replay; this one runs an actual
numeric factorization of a suite matrix under the model hybrid, checks
the factorization residual, the fp32 accuracy signature of the GPU
policies, and the iterative-refinement recovery the paper relies on
(Section III-B), and verifies that replay and numeric timing agree.
"""

import numpy as np

from repro.analysis import format_table
from repro.multifrontal import iterative_refinement


def test_validation_numeric(suite, save, benchmark):
    name = "lmco_s"
    a = suite.matrix(name)
    nf = suite.factor(name, "baseline")       # numeric, hybrid policy
    rp = suite.replay(name, "baseline")       # timing replay

    rng = np.random.default_rng(5)
    x_true = rng.normal(size=a.n_rows)
    b = a.matvec(x_true)
    res = iterative_refinement(a, nf, b, tol=1e-12)
    err_after = float(np.abs(res.x - x_true).max() / np.abs(x_true).max())

    used_gpu = any(r.policy != "P1" for r in nf.records)
    resid = nf.residual_norm(a)

    rows = [
        ["n / nnz", f"{a.n_rows} / {a.nnz}", ""],
        ["GPU policy calls", sum(r.policy != "P1" for r in nf.records),
         f"of {len(nf.records)}"],
        ["||PAP^T - LL^T|| (probe)", f"{resid:.2e}", "fp32-limited"],
        ["initial backward error", f"{res.initial_residual:.2e}", ""],
        ["refinement iterations", res.iterations, "paper: 1-2 steps"],
        ["final backward error", f"{res.final_residual:.2e}", "< 1e-11"],
        ["forward error after refinement", f"{err_after:.2e}", ""],
        ["numeric makespan (s)", f"{nf.makespan:.4f}", ""],
        ["replay makespan (s)", f"{rp.makespan:.4f}", "must match"],
    ]
    text = format_table(
        ["quantity", "value", "note"],
        rows,
        title=f"Validation — numeric factorization of {name} (model hybrid)",
    )
    save("validation_numeric", text)

    assert used_gpu, "hybrid must actually offload on this problem"
    assert 1e-12 < resid < 1e-4          # real fp32 error, nothing worse
    assert res.final_residual < 1e-11
    assert res.iterations <= 3
    assert err_after < 1e-9
    # replay is the same scheduling code path: makespans agree closely
    assert abs(rp.makespan - nf.makespan) / nf.makespan < 0.02

    benchmark(lambda: iterative_refinement(a, nf, b, tol=1e-12).iterations)
