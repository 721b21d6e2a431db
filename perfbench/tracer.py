"""Spans recorded from outside the program, and the per-layer metrics.

:class:`Recorder` replaces module attributes that callers look up at call
time (``repro.core.cpals.mttkrp_csf``, ``repro.cli.load_tns``, ...) with
timing wrappers.  A span is ``(id, parent, name, t0, t1, thread)`` plus a
few attributes read off the arguments or the result; the parent is the
innermost open span on the same thread.  Spans stay in memory until the
process ends.  Times come from ``time.monotonic``, which is one clock for
every process on the host, so a parent can cut a daemon's spans to its
own measured window.

Nothing here imports ``repro`` at module level: the bootstrap imports this
module only after it has timed ``import repro.cli``.
"""

from __future__ import annotations

import itertools
import os
import statistics
import sys
import threading
import time

#: (module, attribute, span name).  Each entry is the name a caller looks
#: up: ``repro.cli`` and ``repro.serve.engine`` bind ``load_tns`` and
#: ``cp_als`` at import, so those bindings are wrapped where they live.
#: The ``repro.tensor.io`` / ``repro.csf.build`` / ``repro.backend`` /
#: ``repro.core.cpals.cp_als`` entries are the ones the als workloads call.
WRAPPED = (
    ("repro.cli", "load_tns", "tensor.io.load"),
    ("repro.serve.engine", "load_tns", "tensor.io.load"),
    ("repro.serve.engine", "load_mmap", "tensor.io.load"),
    ("repro.tensor.io", "load_mmap", "tensor.io.load"),
    ("repro.tensor.coo", "SparseTensor.deduplicate", "tensor.coo.dedup"),
    ("repro.csf.build", "build_csf_set", "csf.build"),
    ("repro.core.cpals", "build_csf_set", "csf.build"),
    ("repro.serve.engine", "build_csf_set", "csf.build"),
    ("repro.backend", "resolve_backend", "backend.resolve"),
    ("repro.core.cpals", "resolve_backend", "backend.resolve"),
    ("repro.serve.engine", "resolve_backend", "backend.resolve"),
    ("repro.backend.registry", "get_backend", "backend.get"),
    ("repro.backend.registry", "Backend.ensure_ready", "backend.compile"),
    ("repro.cli", "cp_als", "core.cpals"),
    ("repro.serve.engine", "cp_als", "core.cpals"),
    ("repro.core.cpals", "cp_als", "core.cpals"),
    ("repro.core.cpals", "mttkrp_csf", "mttkrp"),
    ("repro.core.cpals", "solve_normal_equations", "linalg.inverse"),
    ("repro.core.cpals", "gram", "linalg.ata"),
    ("repro.core.cpals", "hadamard_gram", "linalg.ata"),
    ("repro.core.cpals", "normalize_columns", "linalg.norms"),
    ("repro.core.cpals", "calc_fit", "linalg.fit"),
    ("repro.core.cpals", "save_checkpoint", "resilience.checkpoint"),
    ("repro.tucker.hooi", "save_checkpoint", "resilience.checkpoint"),
    ("repro.completion.driver", "save_checkpoint", "resilience.checkpoint"),
    ("repro.tucker", "tucker_hooi", "tucker.hooi"),
    ("repro.completion.driver", "complete", "completion"),
)


# ----------------------------------------------------------------------
# attributes read off a call
# ----------------------------------------------------------------------
def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _csf_build(args, kwargs, out):
    return {"nnz": int(args[0].nnz)}


def _cp_als(args, kwargs, out):
    es, ct = out.engine_stats, out.counters
    return {
        "iterations": int(out.iterations),
        "dispatches": int(es.get("dispatches", 0)),
        "retries": int(es.get("retries", 0)),
        "lock_acquires": int(ct.lock_acquires),
        "lock_contended": int(ct.lock_contended),
    }


def mttkrp_counts(csf_set, factors, mode) -> dict:
    """Computed work of one CSF MTTKRP call (no cache reuse assumed).

    * ops: one multiply-add per rank column at every non-root tree node,
      ``2·R·Σ_{l≥1} nfibs[l]``;
    * bytes: the tree's index and value arrays once, one factor row per
      node of every input level, and a read plus a write of every output
      row;
    * working set: the tree, all factor matrices and the output.
    """
    tree, _ = csf_set.tree_for_mode(mode)
    rank = int(factors[mode].shape[1])
    nfibs = tree.nfibs
    out_level = tree.level_of_mode(mode)
    row = 8 * rank
    tree_bytes = tree.memory_bytes()
    factor_rows = sum(nfibs) - nfibs[out_level]
    return {
        "ops": 2 * rank * sum(nfibs[1:]),
        "bytes": tree_bytes + row * factor_rows + 2 * row * nfibs[out_level],
        "ws_bytes": tree_bytes + sum(f.nbytes for f in factors) + row * tree.dims[mode],
    }


def _mttkrp(args, kwargs, out):
    _, info = out
    attrs = mttkrp_counts(args[0], args[1], args[2])
    attrs["locked"] = bool(info.used_locks)
    attrs["plan_hit"] = info.plan_hit
    return attrs


def _inverse(args, kwargs, out):
    return {"shape": list(args[0].shape)}


def _checkpoint(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0]) if os.path.exists(args[0]) else 0}


_ATTRS = {
    "tensor.io.load": _file_bytes,
    "csf.build": _csf_build,
    "core.cpals": _cp_als,
    "mttkrp": _mttkrp,
    "linalg.inverse": _inverse,
    "resilience.checkpoint": _checkpoint,
}


class Recorder:
    """In-memory span recorder that installs itself as call wrappers."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        rec, attrs_of = self, _ATTRS.get(name)

        def wrapper(*args, **kwargs):
            stack = rec._stack()
            span = {"id": next(rec._ids), "parent": stack[-1] if stack else 0,
                    "name": name, "thread": threading.get_ident()}
            stack.append(span["id"])
            span["t0"] = time.monotonic()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            else:
                if attrs_of is not None:
                    span["t1"] = time.monotonic()
                    try:
                        span.update(attrs_of(args, kwargs, out))
                    except Exception as exc:  # noqa: BLE001 - a tracing
                        # fault must never fail the traced program
                        span["attr_error"] = repr(exc)
                return out
            finally:
                span.setdefault("t1", time.monotonic())
                stack.pop()
                rec.spans.append(span)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> "Recorder":
        """Wrap every :data:`WRAPPED` target whose module is loaded.

        Modules not yet imported are skipped rather than imported, so
        tracing adds no import cost; a target that no longer exists is
        listed in :attr:`missing`.
        """
        for module_name, attr, span in WRAPPED:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner, _, leaf = attr.rpartition(".")
            target = getattr(module, owner, None) if owner else module
            fn = getattr(target, leaf, None) if target is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(target, leaf, self._wrap(fn, span))
            self._patches.append((target, leaf, fn))
        return self

    def uninstall(self) -> None:
        while self._patches:
            target, leaf, fn = self._patches.pop()
            setattr(target, leaf, fn)


# ----------------------------------------------------------------------
# isolated baseline for the inverse
# ----------------------------------------------------------------------
def isolated_inverse_us(shapes: list[list[int]], calls: int = 120) -> float:
    """Median µs of ``solve_normal_equations`` replaying the in-run call
    shapes while nothing else runs, on random SPD normal matrices."""
    import numpy as np

    from repro.linalg.inverse import solve_normal_equations

    if not shapes:
        return 0.0
    rng = np.random.default_rng(0)
    inputs = {}
    for rows, rank in {tuple(s) for s in shapes}:
        a = rng.random((max(rows, rank), rank))
        inputs[(rows, rank)] = (rng.random((rows, rank)), a.T @ a + np.eye(rank))
    times = []
    for i in range(calls):
        m, v = inputs[tuple(shapes[i % len(shapes)])]
        t0 = time.perf_counter()
        solve_normal_equations(m, v)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


# ----------------------------------------------------------------------
# span analysis
# ----------------------------------------------------------------------
def nesting_violations(spans: list[dict]) -> int:
    """Spans whose parent is missing, on another thread, or does not
    enclose them in time."""
    by_id = {s["id"]: s for s in spans}
    bad = 0
    for s in spans:
        if s["t1"] < s["t0"]:
            bad += 1
        if not s["parent"]:
            continue
        p = by_id.get(s["parent"])
        if p is None or p["thread"] != s["thread"] or s["t0"] < p["t0"] or s["t1"] > p["t1"]:
            bad += 1
    return bad


def _dur(s: dict) -> float:
    return s["t1"] - s["t0"]


def busy(spans: list[dict], name: str) -> float:
    """Total time of spans called ``name`` that are not inside another
    span of the same name."""
    ids = {s["id"] for s in spans if s["name"] == name}
    by_id = {s["id"]: s for s in spans}

    def nested(s):
        p = by_id.get(s["parent"])
        while p is not None:
            if p["id"] in ids:
                return True
            p = by_id.get(p["parent"])
        return False

    return sum(_dur(s) for s in spans if s["name"] == name and not nested(s))


def children_busy(spans: list[dict], name: str) -> tuple[float, float]:
    """``(total, covered)`` for spans ``name``: their duration and the part
    of it their direct children cover."""
    parents = {s["id"] for s in spans if s["name"] == name}
    total = sum(_dur(s) for s in spans if s["name"] == name)
    covered = sum(_dur(s) for s in spans if s["parent"] in parents)
    return total, covered


def median(values) -> float:
    """Median, or 0 when there are no samples."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one unit of work from its spans.

    Metrics of layers that did not run come out as 0.
    """
    named = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def total(name, key):
        return sum(s.get(key, 0) for s in named.get(name, []))

    def rate(num, den):
        return num / den if den else 0.0

    load_s = busy(spans, "tensor.io.load")
    build_s = busy(spans, "csf.build")
    solve_s, covered = children_busy(spans, "core.cpals")
    mtt = named.get("mttkrp", [])
    mtt_s = busy(spans, "mttkrp")
    mtt_bytes = total("mttkrp", "bytes")
    hits = sum(1 for s in mtt if s.get("plan_hit") is True)
    misses = sum(1 for s in mtt if s.get("plan_hit") is False)
    inv = named.get("linalg.inverse", [])
    acquires = total("core.cpals", "lock_acquires")
    return {
        "tensor.io.load_s": load_s,
        "tensor.io.mb_per_s": rate(total("tensor.io.load", "bytes") / 1e6, load_s),
        "tensor.coo.dedup_s": busy(spans, "tensor.coo.dedup"),
        "csf.build_s": build_s,
        "csf.build_mnnz_per_s": rate(total("csf.build", "nnz") / 1e6, build_s),
        "backend.resolve_s": busy(spans, "backend.resolve"),
        "backend.compile_s": busy(spans, "backend.compile"),
        "backend.fallbacks": sum(1 for s in named.get("backend.get", []) if "error" in s),
        "mttkrp.calls": len(mtt),
        "mttkrp.busy_s": mtt_s,
        "mttkrp.share": rate(mtt_s, solve_s),
        "mttkrp.call_ms.p50": median([_dur(s) * 1e3 for s in mtt]),
        "mttkrp.ops_computed": median([s.get("ops", 0) for s in mtt]),
        "mttkrp.bytes_computed": median([s.get("bytes", 0) for s in mtt]),
        "mttkrp.ops_per_byte_computed": rate(total("mttkrp", "ops"), mtt_bytes),
        "mttkrp.gbps_computed": rate(mtt_bytes / 1e9, mtt_s),
        "mttkrp.working_set_mb_computed": max((s.get("ws_bytes", 0) for s in mtt), default=0) / 2**20,
        "mttkrp.locked_calls": sum(1 for s in mtt if s.get("locked")),
        "mttkrp.plan_hit_ratio": rate(hits, hits + misses),
        "runtime.pool.dispatches": total("core.cpals", "dispatches"),
        "runtime.locks.acquires": acquires,
        "runtime.locks.contended_ratio": rate(total("core.cpals", "lock_contended"), acquires),
        "runtime.retries": total("core.cpals", "retries"),
        "linalg.inverse.calls": len(inv),
        "linalg.inverse.busy_s": busy(spans, "linalg.inverse"),
        "linalg.inverse.call_us.p50": median([_dur(s) * 1e6 for s in inv]),
        "linalg.ata.busy_s": busy(spans, "linalg.ata"),
        "linalg.norms.busy_s": busy(spans, "linalg.norms"),
        "linalg.fit.busy_s": busy(spans, "linalg.fit"),
        "core.cpals.iterations": total("core.cpals", "iterations"),
        "core.cpals.self_s": solve_s - covered,
        "tucker.hooi.busy_s": busy(spans, "tucker.hooi"),
        "completion.busy_s": busy(spans, "completion"),
        "resilience.checkpoint.saves": len(named.get("resilience.checkpoint", [])),
        "resilience.checkpoint.busy_s": busy(spans, "resilience.checkpoint"),
        "resilience.checkpoint.bytes": total("resilience.checkpoint", "bytes"),
    }


def inverse_shapes(spans: list[dict]) -> list[list[int]]:
    return [s["shape"] for s in spans if s["name"] == "linalg.inverse" and "shape" in s]


def median_metrics(units: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over several units of work."""
    keys = {k for u in units for k in u}
    return {k: statistics.median([u.get(k, 0.0) for u in units]) for k in sorted(keys)}
