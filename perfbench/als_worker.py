"""In-process CP-ALS passes for the als-* workloads, in their own process.

Usage: ``python perfbench/als_worker.py CONFIG_JSON OUT_JSON``.

A pass is what a library user does with a tensor file: ``load_mmap``,
``build_csf_set`` and a ready backend (the set-up), then ``cp_als`` for a
fixed number of iterations at tolerance 0 with the pre-built set.  Passes
repeat until the measuring time is used and at least ``min_passes`` ran.
Every call goes through the module attribute (``repro.core.cpals.cp_als``
and so on), so the traced pass records the same calls as the untraced one.

The traced run measures untraced passes and traced passes in turn, then a
1-task solve on the last set as the plain single-threaded baseline, then
the inverse alone on the shapes the traced passes used.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time

import numpy as np

import checks
import tracer


def main(cfg: dict) -> dict:
    from repro import backend as backend_mod
    from repro.core import cpals
    from repro.core.options import CpalsOptions
    from repro.csf import build
    from repro.runtime.env import ChapelEnv
    from repro.tensor import io

    path, rank = cfg["path"], cfg["rank"]

    def solve(tensor, csf_set, tasks: int, iterations: int):
        stamps = [time.perf_counter()]
        opts = CpalsOptions(max_iterations=iterations, tolerance=0.0,
                            env=ChapelEnv(num_tasks=tasks), backend=cfg["backend"],
                            seed=cfg["seed"])
        result = cpals.cp_als(tensor, rank, opts, csf_set=csf_set,
                              callback=lambda *_: stamps.append(time.perf_counter()))
        return result, list(np.diff(stamps)), stamps[-1] - stamps[0]

    def one_pass():
        t0 = time.perf_counter()
        tensor = io.load_mmap(path)
        csf_set = build.build_csf_set(tensor)
        bk = backend_mod.resolve_backend(cfg["backend"])
        if bk.compiled:
            bk.ensure_ready()
        setup = time.perf_counter() - t0
        result, iters, solve_s = solve(tensor, csf_set, cfg["tasks"], cfg["iterations"])
        rec = {"setup_s": setup, "solve_s": solve_s, "wall_s": setup + solve_s,
               "iters": iters, "fit": float(result.fit), "backend": bk.name,
               "locked": any(i.used_locks for i in result.mttkrp_infos)}
        return rec, tensor, csf_set, result

    def passes(seconds: float, least: int, recorder=None):
        out, units, last = [], [], None
        start = time.perf_counter()
        while len(out) < least or time.perf_counter() - start < seconds:
            first_span = len(recorder.spans) if recorder else 0
            # free the previous pass's set (its plan cache holds cycles)
            # before building, so peak RSS is one pass's, not two
            last = None
            gc.collect()
            rec, *last = one_pass()
            out.append(rec)
            if recorder is not None:
                units.append(tracer.layer_metrics(recorder.spans[first_span:]))
        return out, units, last

    seconds = cfg["seconds"]
    report: dict = {}
    if not cfg["trace"]:
        runs, _, last = passes(seconds, cfg["min_passes"])
    else:
        untraced, _, _ = passes(seconds / 2, 1)
        recorder = tracer.Recorder().install()
        runs, units, last = passes(seconds / 2, 1, recorder)
        recorder.uninstall()
        _, iters_1task, _ = solve(last[0], last[1], 1, cfg["iterations"])
        layer = tracer.median_metrics(units)
        iter_untraced = statistics.median(i for r in untraced for i in r["iters"][1:])
        iter_traced = statistics.median(i for r in runs for i in r["iters"][1:])
        isolated = tracer.isolated_inverse_us(tracer.inverse_shapes(recorder.spans))
        total, covered = tracer.children_busy(recorder.spans, "core.cpals")
        layer.update({
            "runtime.speedup_2v1": statistics.median(iters_1task[1:]) / iter_untraced,
            "linalg.inverse.isolated_us.p50": isolated,
            "linalg.inverse.interference": layer["linalg.inverse.call_us.p50"] / isolated,
            "observe.trace_overhead": (iter_traced - iter_untraced) / iter_untraced,
        })
        report.update(layer=layer, coverage=covered / total, missing=recorder.missing,
                      nesting_violations=tracer.nesting_violations(recorder.spans))
        runs = untraced + runs
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # checks run after the high-water mark is read, on the last model
    tensor, _, result = last
    fit_ok = checks.fit_agrees(tensor.coords, tensor.values, result.kruskal, result.fit)
    report["fit_independent_ok"] = fit_ok
    failed = 0
    for rec in runs:
        rec["ok"] = (fit_ok and abs(rec["fit"] - result.fit) <= checks.FIT_TOL
                     and rec["locked"] == cfg["expect_locks"])
        failed += not rec["ok"]
    report.update(passes=runs, attempted=len(runs), failed=failed)
    return report


if __name__ == "__main__":
    config = json.loads(sys.argv[1])
    with open(sys.argv[2], "w") as fh:
        json.dump(main(config), fh)
