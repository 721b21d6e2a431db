#!/usr/bin/env python3
"""Tiny-scale smoke run of every workload, untraced and traced.

Usage: ``python3 perfbench/selftest.py`` from the root of a checkout.

Asserts that each run exits 0 with a correct result, that every metric of
``BENCHMARK.json`` is printed with its unit, that the traced span trees
nest, and that on als-large the per-layer busy times cover at least 90%
of the ``cp_als`` time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def check(workload: str, trace: int, spec: dict) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr[-3000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == wanted, f"{workload}: metrics differ: {set(got) ^ set(wanted)}"
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]
        return
    with open(ROOT / ".perfbench_work" / "records.jsonl") as fh:
        record = json.loads(fh.readlines()[-1])
    assert record["workload"] == workload and record["trace"] == 1
    assert record["nesting_violations"] == 0, record["nesting_violations"]
    assert not record.get("missing"), record["missing"]
    if workload == "als-large":
        assert record["coverage"] >= 0.9, f"layers cover {record['coverage']:.1%} of solve_s"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check(workload, trace, spec)
            print(f"ok  {workload} trace={trace}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
