#!/usr/bin/env python3
"""The repository benchmark: four workloads, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-cli --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``cold-cli``    ``python -m repro cpd yelp.tns`` with every CLI default.
* ``als-large``   in-process ``cp_als`` on a NETFLIX-like 1.3M-nnz tensor,
                  numpy backend, 2 tasks, R=16, tolerance 0.
* ``als-locked``  the same on a YELP-like 2.2M-nnz tensor with the
                  compiled backend, where mode 0 takes the mutex pool.
* ``serve-warm``  a warm ``python -m repro serve`` under two closed-loop
                  clients sending a seeded cpd/tucker/complete mix.

``--trace 0`` measures with nothing installed in the program and prints
the end-to-end metrics; ``--trace 1`` runs the workload untraced and
traced in turn and prints the per-layer metrics.  Either way the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and the full record, with the
run stamp, is appended to ``.perfbench_work/records.jsonl``.

Everything the benchmark writes (inputs, compiled-kernel cache, daemon
spool, temp files, records) stays under ``.perfbench_work/`` in the
checkout.  No thread variable (``OPENBLAS_*``, ``OMP_*``, ``MKL_*``) is
set: the BLAS-versus-pool interference is a known defect the benchmark
must show.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import select
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import gen
import stamp
import tracer
from tracer import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: End-to-end metrics, printed by every workload (README.md defines each
#: one per workload).
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "solve_s": "s", "iter_s": "s",
    "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms", "peak_rss_mb": "MiB",
}

#: Per-layer metrics of the traced run; a layer that does not run in a
#: workload reports 0.
PER_LAYER = {
    "import.cli_s": "s", "import.modules": "count",
    "tensor.io.load_s": "s", "tensor.io.mb_per_s": "MB/s", "tensor.coo.dedup_s": "s",
    "csf.build_s": "s", "csf.build_mnnz_per_s": "Mnnz/s",
    "backend.resolve_s": "s", "backend.compile_s": "s", "backend.fallbacks": "count",
    "mttkrp.calls": "count", "mttkrp.busy_s": "s", "mttkrp.share": "ratio",
    "mttkrp.call_ms.p50": "ms", "mttkrp.ops_computed": "count",
    "mttkrp.bytes_computed": "B", "mttkrp.ops_per_byte_computed": "ops/B",
    "mttkrp.gbps_computed": "GB/s", "mttkrp.working_set_mb_computed": "MiB",
    "mttkrp.locked_calls": "count", "mttkrp.plan_hit_ratio": "ratio",
    "runtime.pool.dispatches": "count", "runtime.locks.acquires": "count",
    "runtime.locks.contended_ratio": "ratio", "runtime.retries": "count",
    "runtime.speedup_2v1": "ratio",
    "linalg.inverse.calls": "count", "linalg.inverse.busy_s": "s",
    "linalg.inverse.call_us.p50": "us", "linalg.inverse.isolated_us.p50": "us",
    "linalg.inverse.interference": "ratio", "linalg.ata.busy_s": "s",
    "linalg.norms.busy_s": "s", "linalg.fit.busy_s": "s",
    "core.cpals.iterations": "count", "core.cpals.self_s": "s",
    "tucker.hooi.busy_s": "s", "completion.busy_s": "s",
    "resilience.checkpoint.saves": "count", "resilience.checkpoint.busy_s": "s",
    "resilience.checkpoint.bytes": "B",
    "serve.queue_wait_ms.p50": "ms", "serve.service_ms.p50": "ms",
    "serve.rtt_ms.p50": "ms", "serve.batch_fusion_ratio": "ratio",
    "serve.plan_hit_ratio": "ratio", "serve.csf_cache_hit_ratio": "ratio",
    "serve.tensor_cache_hit_ratio": "ratio", "serve.job_retries": "count",
    "observe.trace_overhead": "ratio", "failed_ratio": "ratio",
}

#: The als-* workloads: tensor, backend, tasks, rank, iterations per pass
#: and whether the mutex pool must engage.
ALS = {
    "als-large": {"tensor": "netflix-large", "backend": "numpy", "tasks": 2, "rank": 16,
                  "iterations": 4, "expect_locks": False},
    "als-locked": {"tensor": "yelp-locked", "backend": "auto", "tasks": 2, "rank": 16,
                   "iterations": 5, "expect_locks": True},
}

#: serve-warm job kinds.  Iteration counts are fixed (tolerance 0) and the
#: weights keep every kind under half of the daemon's busy time.
SERVE_JOBS = {
    "cpd-yelp": ({"kind": "cpd", "rank": 16, "iterations": 10, "tolerance": 0.0,
                  "seed": 1}, "yelp", 3),
    "cpd-nell": ({"kind": "cpd", "rank": 16, "iterations": 10, "tolerance": 0.0,
                  "seed": 2}, "nell-2", 2),
    "tucker-nell": ({"kind": "tucker", "ranks": [4], "iterations": 4, "tolerance": 0.0,
                     "seed": 3}, "nell-2", 1),
    "complete-yelp": ({"kind": "complete", "rank": 8, "epochs": 3, "seed": 4}, "yelp", 2),
}

MIN_CLI_PROCESSES = 5
MIN_SETUPS = 3


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def wait_child(proc: subprocess.Popen, timeout: float = 170.0):
    """Reap ``proc`` and return ``(exit code, peak RSS MiB)``."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise TimeoutError(f"{proc.args!r} did not exit")
        time.sleep(0.002)


def readline(proc: subprocess.Popen, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise TimeoutError(f"{proc.args!r} printed nothing in {timeout}s")
    return proc.stdout.readline()


def python_cmd(trace_out: Path | None, *argv: str) -> list[str]:
    """``python -u -m repro ARGV``, or the traced bootstrap with ARGV."""
    if trace_out is None:
        return [sys.executable, "-u", "-m", "repro", *argv]
    return [sys.executable, "-u", str(HERE / "boot.py"), str(trace_out), "--", *argv]


def boot_unit(spans_path: Path, window=None) -> tuple[dict, list[dict]]:
    """Per-layer metrics of one traced process (spans cut to ``window``)."""
    data = json.loads(spans_path.read_text())
    spans = data["spans"]
    if window is not None:
        spans = [s for s in spans if window[0] <= s["t0"] and s["t1"] <= window[1]]
    unit = tracer.layer_metrics(spans)
    isolated = data["isolated_inverse_us"]
    unit.update({
        "import.cli_s": data["import_s"],
        "import.modules": data["modules"],
        "linalg.inverse.isolated_us.p50": isolated,
        "linalg.inverse.interference":
            unit["linalg.inverse.call_us.p50"] / isolated if isolated else 0.0,
    })
    if data["missing"]:
        unit["missing"] = data["missing"]
    return unit, data["spans"]


def cpd_reference(path: str, rank: int, iterations: int, tolerance: float, seed: int):
    """In-process ``cp_als`` on the tensor parsed by the benchmark itself,
    with its fit checked independently; returns ``(result, fit ok)``."""
    from repro.core.cpals import cp_als
    from repro.core.options import CpalsOptions
    from repro.tensor.coo import SparseTensor

    coords, values, dims = gen.read_tns(path)
    result = cp_als(SparseTensor(coords, values, dims), rank,
                    CpalsOptions(max_iterations=iterations, tolerance=tolerance,
                                 seed=seed, backend="auto"))
    return result, checks.fit_agrees(coords, values, result.kruskal, result.fit)


# ----------------------------------------------------------------------
# cold-cli
# ----------------------------------------------------------------------
_FIT = re.compile(r"^fit = ([0-9.eE+-]+) after (\d+) iterations", re.M)
_ROUTINE = re.compile(r"^  (MTTKRP|Sort|Mat A\^TA|Mat norm|CPD fit|Inverse)\s+([0-9.]+)$", re.M)


def run_cli(cmd: list[str]) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, cwd=ROOT)
    summary_t, lines = None, []
    with proc.stdout:
        for line in proc.stdout:
            if summary_t is None and line.startswith("rank-"):
                summary_t = time.perf_counter()
            lines.append(line)
    code, rss = wait_child(proc)
    wall = time.perf_counter() - t0
    text = "".join(lines)
    fit, routines = _FIT.search(text), dict(_ROUTINE.findall(text))
    if code != 0 or fit is None or summary_t is None or len(routines) != 6:
        return {"ok": False, "wall_s": wall, "output": text[-2000:]}
    solve = sum(float(v) for k, v in routines.items() if k != "Sort")
    return {"ok": True, "wall_s": wall, "solve_s": solve,
            "setup_s": summary_t - t0 - solve, "fit": float(fit.group(1)),
            "iterations": int(fit.group(2)), "peak_rss_mb": rss}


def cold_cli(args, inputs) -> dict:
    from repro.core.options import DEFAULT_ITERATIONS, DEFAULT_RANK

    path = inputs["yelp"]["path"]
    runs, traced, units = [], [], []
    # one untimed process first: the page cache and CPU state after input
    # generation would otherwise make the first timed process an outlier
    run_cli(python_cmd(None, "cpd", path))
    start = time.perf_counter()
    while (len(runs) < (3 if args.trace else MIN_CLI_PROCESSES)
           or time.perf_counter() - start < args.seconds):
        runs.append(run_cli(python_cmd(None, "cpd", path)))
        if args.trace:
            spans_path = WORK / "tmp" / f"cli-spans-{len(traced)}.json"
            traced.append(run_cli(python_cmd(spans_path, "cpd", path)))
            unit, spans = boot_unit(spans_path)
            units.append((unit, spans))

    ref, ref_ok = cpd_reference(path, DEFAULT_RANK, DEFAULT_ITERATIONS, 1e-5, 0)
    for r in runs + traced:
        r["ok"] = (r["ok"] and ref_ok and abs(r["fit"] - ref.fit) <= 1e-6
                   and r["iterations"] == ref.iterations)
    good = [r for r in runs if r["ok"]]
    per_iter = [r["solve_s"] / r["iterations"] for r in good]
    walls = [r["wall_s"] for r in good]
    elapsed = sum(r["wall_s"] for r in runs)
    out = {
        "attempted": len(runs) + len(traced),
        "failed": sum(not r["ok"] for r in runs + traced),
        "samples": {"processes": len(good)},
        "metrics": {
            "setup_s": median(r["setup_s"] for r in good),
            "wall_s": median(walls),
            "solve_s": median(r["solve_s"] for r in good),
            "iter_s": median(per_iter),
            "jobs_per_s": len(good) / elapsed if elapsed else 0.0,
            "job_p50_ms": 1e3 * quantile(walls, 0.5),
            "job_p90_ms": 1e3 * quantile(walls, 0.9),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in good),
        },
        "runs": runs + traced,
    }
    if args.trace:
        tw = median(r["wall_s"] for r in traced if r["ok"])
        out["missing"] = sorted({m for u, _ in units for m in u.pop("missing", [])})
        layer = tracer.median_metrics([u for u, _ in units])
        layer["observe.trace_overhead"] = (tw - out["metrics"]["wall_s"]) / out["metrics"]["wall_s"]
        out["layer"] = layer
        out["nesting_violations"] = sum(tracer.nesting_violations(s) for _, s in units)
    return out


# ----------------------------------------------------------------------
# als-large / als-locked
# ----------------------------------------------------------------------
def als(args, inputs) -> dict:
    cfg = dict(ALS[args.workload])
    cfg.update(path=inputs[cfg["tensor"]]["path"], seconds=args.seconds, trace=args.trace,
               min_passes=MIN_SETUPS, seed=args.seed)
    out_path = WORK / "tmp" / f"{args.workload}-worker.json"
    proc = subprocess.Popen([sys.executable, str(HERE / "als_worker.py"), json.dumps(cfg),
                             str(out_path)], cwd=ROOT)
    code, _ = wait_child(proc)
    if code != 0:
        raise RuntimeError(f"als worker exited with {code}")
    rep = json.loads(out_path.read_text())
    passes = rep["passes"]
    iters = [i for p in passes for i in p["iters"]]
    steady = [i for p in passes for i in p["iters"][1:]]
    solve_total = sum(p["solve_s"] for p in passes)
    out = {
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "samples": {"passes": len(passes), "iterations": len(iters)},
        "backend": rep["passes"][0]["backend"],
        "metrics": {
            "setup_s": median(p["setup_s"] for p in passes),
            "wall_s": median(p["wall_s"] for p in passes),
            "solve_s": median(p["solve_s"] for p in passes),
            "iter_s": median(steady),
            "jobs_per_s": len(iters) / solve_total,
            "job_p50_ms": 1e3 * quantile(iters, 0.5),
            "job_p90_ms": 1e3 * quantile(iters, 0.9),
            "peak_rss_mb": rep["peak_rss_mb"],
        },
        "runs": passes,
        "fit_independent_ok": rep["fit_independent_ok"],
    }
    if args.trace:
        out.update(layer=rep["layer"], coverage=rep["coverage"], missing=rep["missing"],
                   nesting_violations=rep["nesting_violations"])
    return out


# ----------------------------------------------------------------------
# serve-warm
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` process, launched and warmed up."""

    def __init__(self, inputs, tag: str, trace_out: Path | None = None) -> None:
        from repro.serve.client import ServeClient

        self.trace_out = trace_out
        spool = WORK / "spool" / tag
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            python_cmd(trace_out, "serve", "--port", "0", "--spool", str(spool)),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, cwd=ROOT)
        try:
            line = readline(self.proc, 120)
            match = re.search(r"serving on [^:]+:(\d+) \(backend: ([\w-]+)", line)
            if match is None:
                raise RuntimeError(f"unexpected daemon output: {line!r}")
            self.port, self.backend = int(match.group(1)), match.group(2)
            self.warmup = {}
            with ServeClient(port=self.port, timeout=120) as client:
                for name in SERVE_JOBS:
                    ack = client.submit(job_spec(name, inputs))
                    self.warmup[name] = client.wait(ack["id"], timeout=120)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def metrics(self) -> dict:
        from repro.serve.client import ServeClient

        with ServeClient(port=self.port, timeout=60) as client:
            return client.metrics()["metrics"]

    def stop(self) -> float:
        """Shut down; return the daemon's peak RSS in MiB."""
        from repro.serve.client import ServeClient

        try:
            with ServeClient(port=self.port, timeout=60) as client:
                client.shutdown()
            with self.proc.stdout:
                self.proc.stdout.read()
            code, rss = wait_child(self.proc, 120)
        except BaseException:
            self.kill()
            raise
        if code != 0:
            raise RuntimeError(f"daemon exited with {code}")
        return rss

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def job_spec(name: str, inputs) -> dict:
    spec, tensor, _ = SERVE_JOBS[name]
    return {**spec, "tensor": inputs[tensor]["path"]}


def job_rounds(seed: int, client: int):
    """Endless seeded rounds; each round holds every kind ``weight`` times."""
    rng = random.Random(seed * 1000 + client)
    deck = [name for name, (_, _, weight) in SERVE_JOBS.items() for _ in range(weight)]
    while True:
        rng.shuffle(deck)
        yield list(deck)


def serve_phase(daemon: Daemon, inputs, seconds: float, seed: int) -> dict:
    """Two closed-loop clients (the load equals the core count of the
    reference host) for ``seconds``; every job is checked afterwards."""
    from repro.serve.client import ServeClient

    before = daemon.metrics()
    jobs, rounds, errors = [], [], []
    start = time.monotonic()
    deadline = start + seconds

    def client_loop(cid: int) -> None:
        try:
            with ServeClient(port=daemon.port, timeout=120) as client:
                for deck in job_rounds(seed, cid):
                    r0 = time.perf_counter()
                    for name in deck:
                        if time.monotonic() >= deadline:
                            return
                        t0 = time.perf_counter()
                        ack = client.submit(job_spec(name, inputs))
                        t1 = time.perf_counter()
                        res = client.wait(ack["id"], timeout=120)
                        jobs.append({"name": name, "latency_s": time.perf_counter() - t0,
                                     "rtt_s": t1 - t0, "end": time.monotonic(),
                                     "job": res["job"], "result": res.get("result")})
                    rounds.append(time.perf_counter() - r0)
        except Exception as exc:  # noqa: BLE001 - reported as a failed job
            errors.append(repr(exc))

    threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=seconds + 150)
    if any(t.is_alive() for t in threads):
        raise TimeoutError("serve clients did not finish")
    after = daemon.metrics()
    end = max((j["end"] for j in jobs), default=time.monotonic())
    return {"jobs": jobs, "rounds": rounds, "errors": errors, "window": (start, end),
            "before": before, "after": after}


def check_jobs(phase: dict, daemon: Daemon, refs: dict) -> None:
    """Mark each job ok: done, and its fit equal to the in-process
    reference (cpd) or to the warm-up result of the same spec."""
    for j in phase["jobs"]:
        res = j["result"] or {}
        ok = j["job"]["state"] == "done"
        if ok and j["name"] in refs:
            ok = abs(res.get("fit", float("nan")) - refs[j["name"]]) <= 1e-8
        elif ok:
            warm = daemon.warmup[j["name"]]["result"]
            key = "fit" if "fit" in warm else "train_rmse"
            ok = abs(res.get(key, float("nan")) - warm[key]) <= 1e-8
        j["ok"] = ok


def serve_metrics(phase: dict, rss: float, setups: list[float]) -> dict:
    jobs = [j for j in phase["jobs"] if j["ok"]]
    lat = [j["latency_s"] * 1e3 for j in jobs]
    service = [j["job"]["finished_s"] - j["job"]["started_s"] for j in jobs]
    per_iter = [(j["job"]["finished_s"] - j["job"]["started_s"]) / j["result"]["iterations"]
                for j in jobs if j["result"].get("kind") == "cpd"]
    span = phase["window"][1] - phase["window"][0]
    return {
        "setup_s": median(setups),
        "wall_s": median(phase["rounds"]),
        "solve_s": median(service),
        "iter_s": median(per_iter),
        "jobs_per_s": len(jobs) / span if span > 0 else 0.0,
        "job_p50_ms": quantile(lat, 0.5),
        "job_p90_ms": quantile(lat, 0.9),
        "peak_rss_mb": rss,
    }


def serve_layer(phase: dict) -> dict:
    before, after = phase["before"], phase["after"]

    def delta(section, key):
        return after[section].get(key, 0) - before[section].get(key, 0)

    def ratio(hits, misses):
        h, m = delta("engine", hits), delta("engine", misses)
        return h / (h + m) if h + m else 0.0

    jobs = [j["job"] for j in phase["jobs"]]
    batches = delta("scheduler", "batches")
    return {
        "serve.queue_wait_ms.p50": median((j["started_s"] - j["submitted_s"]) * 1e3 for j in jobs),
        "serve.service_ms.p50": median((j["finished_s"] - j["started_s"]) * 1e3 for j in jobs),
        "serve.rtt_ms.p50": median(j["rtt_s"] * 1e3 for j in phase["jobs"]),
        "serve.batch_fusion_ratio": delta("scheduler", "batched_jobs") / batches if batches else 0.0,
        "serve.plan_hit_ratio": ratio("plan_hits", "plan_misses"),
        "serve.csf_cache_hit_ratio": ratio("csf_cache_hits", "csf_cache_misses"),
        "serve.tensor_cache_hit_ratio": ratio("tensor_cache_hits", "tensor_cache_misses"),
        "serve.job_retries": delta("engine", "job_retries"),
        "runtime.pool.dispatches": delta("engine", "pool_dispatches"),
    }


def measured_daemon(inputs, tag: str, seconds: float, seed: int, trace_out=None):
    """Launch and warm one daemon, measure it, shut it down; return
    ``(daemon, phase, peak RSS MiB)``."""
    daemon = Daemon(inputs, tag, trace_out)
    try:
        phase = serve_phase(daemon, inputs, seconds, seed)
    except BaseException:
        daemon.kill()
        raise
    return daemon, phase, daemon.stop()


def serve_warm(args, inputs) -> dict:
    seconds = args.seconds / 2 if args.trace else args.seconds
    setups = []
    for i in range(0 if args.trace else MIN_SETUPS - 1):  # set-up repetitions only
        extra = Daemon(inputs, f"s{args.seed}-{i}")
        setups.append(extra.setup_s)
        extra.stop()
    daemon, phase, rss = measured_daemon(inputs, f"s{args.seed}", seconds, args.seed)
    setups.append(daemon.setup_s)
    traced = None
    if args.trace:
        spans_path = WORK / "tmp" / "serve-spans.json"
        traced_daemon, traced, _ = measured_daemon(inputs, f"s{args.seed}-traced", seconds,
                                                 args.seed, spans_path)

    refs = {}
    for name in ("cpd-yelp", "cpd-nell"):
        spec, tensor, _ = SERVE_JOBS[name]
        ref, ref_ok = cpd_reference(inputs[tensor]["path"], spec["rank"], spec["iterations"],
                                    spec["tolerance"], spec["seed"])
        refs[name] = ref.fit if ref_ok else float("nan")
    check_jobs(phase, daemon, refs)
    phases = [phase]
    if traced is not None:
        check_jobs(traced, traced_daemon, refs)
        phases.append(traced)
    all_jobs = [j for ph in phases for j in ph["jobs"]]
    errors = [e for ph in phases for e in ph["errors"]]
    kinds = {}
    for j in phase["jobs"]:
        kinds[j["name"]] = kinds.get(j["name"], 0.0) + j["job"]["finished_s"] - j["job"]["started_s"]
    out = {
        "attempted": len(all_jobs) + len(errors),
        "failed": sum(not j["ok"] for j in all_jobs) + len(errors),
        "samples": {"jobs": len(phase["jobs"]), "rounds": len(phase["rounds"]),
                    "setups": len(setups)},
        "backend": daemon.backend,
        "busy_share_by_kind": {k: v / sum(kinds.values()) for k, v in kinds.items()},
        "errors": errors,
        "metrics": serve_metrics(phase, rss, setups),
    }
    if traced is not None:
        unit, spans = boot_unit(spans_path, traced["window"])
        unit.update(serve_layer(traced))
        untraced_p50 = out["metrics"]["job_p50_ms"]
        unit["observe.trace_overhead"] = (
            serve_metrics(traced, 0.0, [])["job_p50_ms"] - untraced_p50) / untraced_p50
        out["missing"] = unit.pop("missing", [])
        out["layer"] = unit
        out["nesting_violations"] = tracer.nesting_violations(spans)
    return out


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
WORKLOADS = {
    "cold-cli": (cold_cli, ("yelp",)),
    "als-large": (als, ("netflix-large",)),
    "als-locked": (als, ("yelp-locked",)),
    "serve-warm": (serve_warm, ("yelp", "nell-2")),
}


def prepare_environment() -> None:
    """Point the program's caches and temp files into the checkout."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    os.environ["REPRO_CEXT_CACHE"] = str(WORK / "cext")
    os.environ["TMPDIR"] = str(WORK / "tmp")
    sys.path.insert(0, src)
    tempfile.tempdir = str(WORK / "tmp")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input (self-test only)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    prepare_environment()
    from repro.backend import resolve_backend

    # users compile the kernel cache once per machine: build it untimed
    compiled = resolve_backend("auto")
    if compiled.compiled:
        compiled.ensure_ready()
    run_fn, tensors = WORKLOADS[args.workload]
    inputs = {t: gen.materialize(t, args.seed, WORK / "data", args.scale) for t in tensors}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale,
              "stamp": stamp.stamp(ROOT, compiled.name), "inputs": inputs}
    result = run_fn(args, inputs)
    record["stamp"]["backend"] = result.get("backend", compiled.name)
    record["stamp"]["loadavg_1m_end"] = os.getloadavg()[0]
    record.update({k: v for k, v in result.items() if k != "runs"})
    record["runs"] = result.get("runs", [])

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        layer = dict.fromkeys(PER_LAYER, 0.0)
        layer.update({k: v for k, v in result["layer"].items() if k in PER_LAYER})
        layer["failed_ratio"] = failed / attempted if attempted else 1.0
        shown, units = layer, PER_LAYER
    else:
        shown, units = result["metrics"], END_TO_END
    record["metrics"] = {k: {"value": float(shown[k]), "unit": units[k]} for k in units}
    with open(WORK / "records.jsonl", "a") as fh:
        fh.write(json.dumps(record, default=float) + "\n")

    st = record["stamp"]
    print(f"{args.workload} seed={args.seed} trace={args.trace} backend={st['backend']} "
          f"nproc={st['nproc']} affinity={st['affinity']} blas_threads={st['blas_threads']} "
          f"l3={st['l3_bytes'] >> 20}MiB load={st['loadavg_1m_start']:.2f}->"
          f"{st['loadavg_1m_end']:.2f} sha={st['git_sha'][:12]} src={st['src_digest']}")
    for t in inputs.values():
        print(f"  input {t['name']}: dims={t['dims']} nnz={t['nnz']} bytes={t['file_bytes']}")
    print(f"  samples: {result['samples']}  failed {failed}/{attempted}")
    if args.trace:
        print(f"  mttkrp working set (computed) "
              f"{shown['mttkrp.working_set_mb_computed']:.1f} MiB, L3 {st['l3_bytes'] / 2**20:.0f} MiB")
    for k in units:
        print(f"  {k:34s} {shown[k]:14.6g} {units[k]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
