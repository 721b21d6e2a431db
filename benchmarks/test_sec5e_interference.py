"""§V-E — Qthreads × OpenMP interference on the LAPACK inverse.

Benchmarks the real Cholesky solve (the routine at the center of §V-E),
gates the in-run inverse against the isolated single-threaded solve (the
BLAS thread budget must remove the interference for real), and asserts the
interference model's published anchors.
"""

import statistics
import time

import numpy as np
import pytest

from _bench_utils import print_experiment
from repro.bench.runner import get_experiment
from repro.core.cpals import cp_als
from repro.core.options import CpalsOptions
from repro.linalg.inverse import solve_normal_equations
from repro.observe import tracing
from repro.runtime.env import ChapelEnv, blas_budget

#: The paper's rank; the inverse is an R×R Cholesky solve.
PAPER_RANK = 35


def test_sec5e_real_inverse_kernel(benchmark, yelp_factors):
    """The actual potrf/potrs solve on bench-scale factor matrices."""
    rank = yelp_factors[0].shape[1]
    v = yelp_factors[0].T @ yelp_factors[0] + np.eye(rank)
    m = np.ascontiguousarray(yelp_factors[2])

    out = benchmark(lambda: solve_normal_equations(m, v))
    np.testing.assert_allclose(out @ v, m, atol=1e-8)


def _isolated_solve_s(dims, rank: int, reps: int = 30) -> float:
    """Mean over modes of the median single-threaded solve on each mode's
    ``(I_n, R)`` shape — what one in-run call costs without interference."""
    rng = np.random.default_rng(0)
    per_mode = []
    with blas_budget(ChapelEnv()):
        for d in dims:
            a = rng.random((d, rank))
            v = a.T @ a + np.eye(rank)
            m = rng.random((d, rank))
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                solve_normal_equations(m, v)
                times.append(time.perf_counter() - t0)
            per_mode.append(statistics.median(times))
    return statistics.mean(per_mode)


def test_sec5e_in_run_inverse_matches_isolated(benchmark, yelp_tensor):
    """With the BLAS budget held, an in-run inverse costs at most 3x the
    isolated single-threaded solve.  Without it, OpenBLAS's second thread
    waits for a core behind the 2 pool workers and single calls stall for
    whole scheduler ticks (4-16 ms against a sub-millisecond solve)."""
    opts = CpalsOptions(max_iterations=50, tolerance=0.0, seed=0,
                        env=ChapelEnv(num_tasks=2))
    with tracing() as rec:
        benchmark.pedantic(cp_als, args=(yelp_tensor, PAPER_RANK, opts),
                           rounds=1, iterations=1)
    calls = [s.duration for s in rec.finished_spans() if s.name == "inverse"]
    assert len(calls) == 50 * yelp_tensor.nmodes
    in_run = statistics.mean(calls)
    isolated = _isolated_solve_s(yelp_tensor.dims, PAPER_RANK)
    print(f"\nin-run inverse {in_run * 1e3:.3f} ms/call (max {max(calls) * 1e3:.1f}), "
          f"isolated {isolated * 1e3:.3f} ms, ratio {in_run / isolated:.2f}")
    assert in_run <= 3.0 * isolated


def test_sec5e_simulated_anchors(benchmark):
    result = benchmark.pedantic(get_experiment("sec5e"), rounds=1, iterations=1)
    rows = {row[0]: row for row in result.rows}
    serial = rows[1][1]
    # paper §V-E anchors at 32 OpenMP threads:
    assert rows[32][1] == pytest.approx(serial * 15, rel=0.05)    # 15x slower
    assert rows[32][2] == pytest.approx(serial / 2, rel=0.05)     # 2x faster
    assert rows[32][3] == pytest.approx(serial / 4.6, rel=0.05)   # +2.3x more
    # ... but even fully mitigated, still ~4x slower than C's inverse
    assert 3.0 <= rows[32][3] / rows[32][4] <= 6.0
    # mat_norm penalty in the paper's 7-13x band at 32
    penalty = float(rows[32][5].rstrip("x"))
    assert 7.0 <= penalty <= 13.0
    print_experiment("sec5e")
