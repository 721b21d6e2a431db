"""Ablation: loop schedules (static / dynamic / guided) on irregular work.

Uses a GIL-releasing vectorized body (per-chunk root-mode MTTKRP over
slice blocks), so dynamic scheduling can genuinely rebalance the skewed
slice-size distribution across real threads.  Dynamic and guided chunks
are arbitrary ``(lo, hi)`` ranges, so each chunk gets its own cached
traversal and workspace (concurrent chunks never share scratch), built
by one untimed warm-up run — every schedule times plan-backed kernels
only.
"""

import numpy as np
import pytest

from _bench_utils import BENCH_RANK
from repro._util import as_rng
from repro.csf.build import build_csf_set
from repro.mttkrp.csf_kernels import root_range_vectorized
from repro.mttkrp.scatter import TaskTraversal, Workspace
from repro.runtime.env import ChapelEnv
from repro.runtime.schedule import SCHEDULES, forall_scheduled
from repro.runtime.tasking import make_tasking_layer


@pytest.fixture(scope="module")
def workload(yelp_tensor):
    csf_set = build_csf_set(yelp_tensor, allocation="all")
    tree = csf_set.trees[0]
    rng = as_rng(0)
    factors = [np.asarray(rng.random((d, BENCH_RANK))) for d in yelp_tensor.dims]
    return tree, factors


def _chunk_kernel(tree, factors, out):
    """Root-mode chunk body with one memoized traversal + workspace per chunk."""
    cache: dict[tuple[int, int], tuple[TaskTraversal, Workspace]] = {}

    def body(lo, hi, tid):
        entry = cache.get((lo, hi))
        if entry is None:
            entry = cache[(lo, hi)] = (TaskTraversal(tree, lo, hi), Workspace())
        root_range_vectorized(tree, factors, out, *entry)

    return body


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("ntasks", [1, 4])
def test_schedule_mttkrp(benchmark, workload, schedule, ntasks):
    tree, factors = workload
    layer = make_tasking_layer(ChapelEnv(num_tasks=ntasks))
    out = np.zeros((tree.dims[tree.dim_perm[0]], BENCH_RANK))
    body = _chunk_kernel(tree, factors, out)

    def run():
        out[:] = 0.0
        forall_scheduled(layer, tree.nslices, body, schedule=schedule, chunk=16)
        return out

    run()  # build every chunk's traversal and workspace outside the timing
    benchmark(run)


def test_schedules_agree_numerically(benchmark, workload):
    tree, factors = workload
    dim = tree.dims[tree.dim_perm[0]]

    def sweep():
        results = {}
        for schedule in SCHEDULES:
            layer = make_tasking_layer(ChapelEnv(num_tasks=4))
            out = np.zeros((dim, BENCH_RANK))
            forall_scheduled(
                layer, tree.nslices, _chunk_kernel(tree, factors, out),
                schedule=schedule, chunk=16,
            )
            results[schedule] = out
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    ref = results["static"]
    for schedule, out in results.items():
        np.testing.assert_allclose(out, ref, atol=1e-10, err_msg=schedule)
