"""Amortized MTTKRP engine: cold vs steady-state micro-benchmark.

Runs repeated :func:`repro.mttkrp.mttkrp_csf` sweeps (every mode under
both sync policies) on a synthetic 3rd-order tensor (>= 1e5 nonzeros)
with the defaults: persistent worker pool, cached scatter plans and
segment-sum operators, reusable workspaces.

The engine's claim is that a steady-state sweep allocates nothing
proportional to ``nnz`` (docs/PERFMODEL.md).  This is checked exactly
rather than by timing: after one warm-up sweep, a second sweep runs under
:mod:`tracemalloc` and its peak traced allocation must stay at or below
``nnz * R * 8 / 8`` bytes — one eighth of a single ``(nnz, R)`` float64
temporary.  A per-call setup that rebuilt tree-walk intermediates or
privatization buffers would exceed that many times over.

Outputs of the single-tree (root/internal/leaf) CSF set are cross-checked
against an all-root CSF set; dense-reference coverage lives in the tier-1
equivalence suites.  Cold and best-of-N steady sweep times plus the peak
allocation are written to ``benchmarks/BENCH_mttkrp.json`` for tracking.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.backend import resolve_backend
from repro.csf.build import build_csf_set
from repro.mttkrp.variants import mttkrp_csf
from repro.runtime.env import ChapelEnv
from repro.runtime.tasking import make_tasking_layer
from repro.tensor.generate import random_tensor

DIMS = (400, 300, 200)
NNZ = 120_000
RANK = 16
NTASKS = 2
TRIALS = 7
LOCK_CONFIGS = (False, True)
#: Steady-sweep allocation budget: nnz * R * 8 bytes / 8.
PEAK_ALLOC_BOUND = NNZ * RANK * 8 // 8
RESULT_PATH = Path(__file__).resolve().parent / "BENCH_mttkrp.json"


def _sweep(csf_set, factors, layer):
    """One full pass: every mode under both sync policies."""
    outs = []
    for force_locks in LOCK_CONFIGS:
        for mode in range(len(factors)):
            out, info = mttkrp_csf(
                csf_set, factors, mode, layer=layer, force_locks=force_locks,
            )
            outs.append((force_locks, mode, info.algorithm, out))
    return outs


def _best_sweep_seconds(csf_set, factors, layer, trials=TRIALS):
    """Best single-sweep time over ``trials`` steady-state sweeps."""
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        _sweep(csf_set, factors, layer)
        best = min(best, time.perf_counter() - start)
    return best


def test_amortized_engine_steady_state(benchmark):
    tensor = random_tensor(DIMS, NNZ, seed=7)
    rng = np.random.default_rng(123)
    factors = [np.asarray(rng.random((d, RANK))) for d in tensor.dims]
    csf_set = build_csf_set(tensor, allocation="one")  # root+internal+leaf
    layer = make_tasking_layer(ChapelEnv(num_tasks=NTASKS))
    try:
        # --- cold sweep: builds plans, workspaces and the worker pool ---
        cold_start = time.perf_counter()
        _sweep(csf_set, factors, layer)
        cold_seconds = time.perf_counter() - cold_start

        # --- steady-state allocation: everything cached, nothing per-nnz ---
        tracemalloc.start()
        try:
            outs = _sweep(csf_set, factors, layer)
            _, peak_alloc = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        # --- correctness: every algorithm/lock path agrees with all-root ---
        all_root = _sweep(build_csf_set(tensor, allocation="all"), factors, layer)
        algorithms = set()
        for (fl, mode, algo, got), (_, _, _, expected) in zip(outs, all_root):
            np.testing.assert_allclose(
                got, expected, rtol=1e-10, atol=1e-10, err_msg=f"{(fl, mode, algo)}"
            )
            algorithms.add(algo)
        assert algorithms == {"root", "internal", "leaf"}

        # --- timing: best-of-N steady sweep ---
        steady_seconds = benchmark.pedantic(
            lambda: _best_sweep_seconds(csf_set, factors, layer),
            rounds=1, iterations=1,
        )

        ctx_stats = csf_set.mttkrp_context.stats()
        pool_stats = layer.worker_pool.stats()
        record = {
            "dims": list(DIMS),
            "nnz": tensor.nnz,
            "rank": RANK,
            "num_tasks": NTASKS,
            "backend": resolve_backend(None).name,
            "trials": TRIALS,
            "cold_sweep_seconds": cold_seconds,
            "steady_sweep_seconds": steady_seconds,
            "steady_peak_alloc_bytes": peak_alloc,
            "plan_cache": ctx_stats,
            "worker_pool": pool_stats,
        }
        RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
        print(f"\namortized MTTKRP engine: steady {steady_seconds * 1e3:.1f} ms/sweep, "
              f"cold {cold_seconds * 1e3:.1f} ms, "
              f"steady peak alloc {peak_alloc / 1e6:.2f} MB "
              f"(bound {PEAK_ALLOC_BOUND / 1e6:.2f} MB)")

        assert ctx_stats["plan_hits"] > 0
        assert pool_stats["dispatches"] > 0
        assert peak_alloc <= PEAK_ALLOC_BOUND, record
    finally:
        layer.shutdown()
