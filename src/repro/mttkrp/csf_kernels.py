"""Vectorized CSF MTTKRP kernels (SPLATT's root / internal / leaf algorithms).

These are the compiled-speed implementations standing in for SPLATT's C
(DESIGN.md §2): every per-node loop is replaced by NumPy segment primitives
(cached CSR segment sums going up the tree, cached expansion gathers going
down), so the interpreted overhead per nonzero is gone — exactly the role
the C baseline plays in the paper's comparison.

Like SPLATT, every kernel runs against structure precomputed once per tree:
each task walks its root slices ``[lo, hi)`` through a cached
:class:`~repro.mttkrp.scatter.TaskTraversal` and writes its intermediates
into a reused :class:`~repro.mttkrp.scatter.Workspace`, so the steady state
allocates nothing proportional to ``nnz``.  The kernels serve as the
per-task bodies of the parallel drivers at the bottom of this module, which
take a :class:`~repro.mttkrp.scatter.ScatterPlan` and one workspace per
task:

* root mode — tasks own disjoint output rows; no synchronization.
* internal/leaf modes — output rows are shared; the driver either
  *privatizes* (per-task buffer + reduction) or takes rows through the
  *mutex pool*, per :func:`repro.mttkrp.locks_policy.needs_locks`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._util import VALUE_DTYPE
from repro.csf.tree import CsfTensor
from repro.mttkrp.scatter import ScatterPlan, TaskTraversal, Workspace
from repro.sanitize import detector as _san
from repro.runtime.locks import MutexPool
from repro.runtime.reductions import array_reduce_buffers
from repro.runtime.tasking import TaskingLayer

__all__ = [
    "root_range_vectorized",
    "internal_range_vectorized",
    "leaf_range_sorted",
    "run_root_parallel",
    "run_scatter_privatized",
    "run_scatter_mutex",
]


def _upward_product(
    csf: CsfTensor,
    factors: Sequence[np.ndarray],
    trav: TaskTraversal,
    ws: Workspace,
    stop_level: int,
) -> np.ndarray:
    """Bottom-up subtree accumulation down to (and excluding) ``stop_level``.

    Returns ``W`` with one row per node of ``stop_level + 1`` already
    multiplied by that level's factor rows, then segment-reduced so the
    caller gets one row per node of ``stop_level`` *without* the
    ``stop_level`` factor applied.

    ``trav`` supplies the per-level ``fids``/``values`` slices and cached
    :class:`~repro.mttkrp.scatter.SegmentSum` operators (compiled CSR
    matmul); ``ws`` supplies the reusable output buffers.
    """
    nmodes = csf.nmodes
    leaf_mode = csf.dim_perm[nmodes - 1]
    w = ws.take(factors[leaf_mode], trav.fids[nmodes - 1], ("up_take", nmodes - 1))
    w *= trav.values[:, None]
    for level in range(nmodes - 2, stop_level, -1):
        w = trav.up_segsum[level].apply(w, ws, ("up", level))
        w *= ws.take(factors[csf.dim_perm[level]], trav.fids[level], ("up_take", level))
    # final reduction onto stop_level nodes (factor NOT applied)
    return trav.up_segsum[stop_level].apply(w, ws, ("up", stop_level))


def _downward_product(
    csf: CsfTensor,
    factors: Sequence[np.ndarray],
    trav: TaskTraversal,
    ws: Workspace,
    stop_level: int,
) -> np.ndarray:
    """Top-down root-to-node row products, expanded to ``stop_level`` nodes.

    The returned matrix has one row per node of ``stop_level`` and excludes
    the ``stop_level`` factor itself.  Each level's expansion is a gather
    through the traversal's cached ``down_expand`` indices into a reused
    workspace buffer.
    """
    d = ws.take(factors[csf.dim_perm[0]], trav.fids[0], ("down_take", 0))
    for level in range(1, stop_level + 1):
        d = ws.take(d, trav.down_expand[level], ("down", level))
        if level < stop_level:
            d *= ws.take(factors[csf.dim_perm[level]], trav.fids[level], ("down_take", level))
    return d


def root_range_vectorized(
    csf: CsfTensor,
    factors: Sequence[np.ndarray],
    out: np.ndarray,
    trav: TaskTraversal,
    ws: Workspace,
    bctx=None,
) -> None:
    """Root-mode MTTKRP over the traversal's slices, accumulated into ``out``.

    Output rows ``trav.fids[0]`` are distinct, so concurrent calls on
    disjoint slice ranges are race-free.  ``bctx`` (a
    :class:`~repro.backend.registry.BackendCall`) routes the subtree
    products through a compiled, GIL-releasing kernel instead of the NumPy
    tree walk; scatter and sanitizer behaviour are unchanged.
    """
    if trav.hi <= trav.lo:
        return
    rows = trav.fids[0]
    if csf.nmodes == 1:
        # Order-1 tree: the root is also the leaf, so the "subtree product"
        # is just the nonzero values broadcast across the rank.  Root fids
        # are distinct, so a direct indexed add is exact; the rank-wide
        # broadcast temporary comes from the plan-owned workspace like the
        # other kernels.
        w = ws.buf(("root_bcast",), (trav.values.shape[0], out.shape[1]), out.dtype)
        w[:] = trav.values[:, None]
    elif bctx is not None:
        w = bctx.root_w(trav.lo, trav.hi, ws)
    else:
        w = _upward_product(csf, factors, trav, ws, stop_level=0)
    out[rows] += w
    san = _san._active
    if san is not None:
        # Root tasks own disjoint slice ranges, hence disjoint rows — the
        # sanitizer verifies that claim rather than assuming it.
        san.on_access(out, rows, write=True, site="root_range_vectorized")


def leaf_range_sorted(
    csf: CsfTensor,
    factors: Sequence[np.ndarray],
    plan: ScatterPlan,
    tid: int,
    ws: Workspace,
) -> np.ndarray:
    """Leaf-mode contributions emitted directly in scatter-sorted order.

    Uses the plan's ``leaf_expand_sorted`` indices (the final downward
    expansion composed with the scatter sort permutation) and pre-permuted
    values, so the caller's :class:`~repro.mttkrp.scatter.RowScatter` can
    reduce with ``presorted=True`` — no per-call ``O(nnz)`` sort gather.
    The returned buffer is reused by the task's next kernel call.
    """
    trav = plan.traversals[tid]
    nmodes = csf.nmodes
    if trav.hi <= trav.lo:
        rank = factors[0].shape[1]
        return np.empty((0, rank), dtype=VALUE_DTYPE)
    d = _downward_product(csf, factors, trav, ws, stop_level=nmodes - 2)
    if nmodes > 2:
        level = nmodes - 2
        d *= ws.take(factors[csf.dim_perm[level]], trav.fids[level], ("down_take", level))
    contribs = ws.take(d, plan.leaf_expand_sorted[tid], ("leaf_sorted",))
    contribs *= plan.leaf_values_sorted[tid][:, None]
    return contribs


def internal_range_vectorized(
    csf: CsfTensor,
    factors: Sequence[np.ndarray],
    level: int,
    trav: TaskTraversal,
    ws: Workspace,
    bctx=None,
) -> np.ndarray:
    """Internal-mode MTTKRP contributions for tree ``level`` (0<level<N-1).

    Combines the downward product (modes above ``level``) with the upward
    product (modes below) at each ``level`` node, one row per node of
    ``trav.fids[level]``, in a reused workspace buffer.  ``bctx`` computes
    the same contributions with a compiled single-pass kernel.
    """
    nmodes = csf.nmodes
    if not 0 < level < nmodes - 1:
        raise ValueError(f"internal level must be in (0, {nmodes - 1}), got {level}")
    if trav.hi <= trav.lo:
        rank = factors[0].shape[1]
        return np.empty((0, rank), dtype=VALUE_DTYPE)
    if bctx is not None:
        nlo, nhi = trav.ranges[level]
        return bctx.internal_contribs(level, trav.lo, trav.hi, nhi - nlo, ws)
    d = _downward_product(csf, factors, trav, ws, stop_level=level)
    u = _upward_product(csf, factors, trav, ws, stop_level=level)
    np.multiply(d, u, out=d)
    return d


# ----------------------------------------------------------------------
# parallel drivers
# ----------------------------------------------------------------------
def run_root_parallel(
    csf: CsfTensor,
    factors: Sequence[np.ndarray],
    out: np.ndarray,
    layer: TaskingLayer,
    plan: ScatterPlan,
    workspaces: Sequence[Workspace],
    *,
    bctx=None,
) -> None:
    """Parallel root-mode MTTKRP: nnz-balanced slice blocks, no locks.

    The partitioning and per-task traversals come from the cached ``plan``.
    With ``bctx``, each task's subtree products run in a compiled
    GIL-releasing kernel.
    """

    def task(tid: int) -> None:
        root_range_vectorized(
            csf, factors, out, plan.traversals[tid], workspaces[tid], bctx
        )

    layer.coforall(layer.env.num_tasks, task)


def _task_contribs(
    csf: CsfTensor,
    factors: Sequence[np.ndarray],
    plan: ScatterPlan,
    tid: int,
    ws: Workspace,
    bctx,
) -> tuple[np.ndarray, bool]:
    """Task ``tid``'s contributions to the rows of ``plan.level``, and
    whether they arrive in scatter-sorted order.

    NumPy leaf contributions come out presorted (:func:`leaf_range_sorted`);
    compiled backends emit tree order and fuse the sort gather into their
    segment-sum reduction instead.
    """
    trav = plan.traversals[tid]
    if plan.level < csf.nmodes - 1:
        return internal_range_vectorized(csf, factors, plan.level, trav, ws, bctx), False
    if bctx is None:
        return leaf_range_sorted(csf, factors, plan, tid, ws), True
    leaf_lo, leaf_hi = trav.ranges[-1]
    return bctx.leaf_contribs(trav.lo, trav.hi, leaf_hi - leaf_lo, ws), False


def run_scatter_privatized(
    csf: CsfTensor,
    factors: Sequence[np.ndarray],
    out: np.ndarray,
    layer: TaskingLayer,
    plan: ScatterPlan,
    workspaces: Sequence[Workspace],
    buffers: Sequence[np.ndarray] | None,
    *,
    bctx=None,
) -> None:
    """Privatized parallel scatter: per-task buffers + reduction.

    Each task computes its internal/leaf contributions and scatters them
    through its cached :class:`~repro.mttkrp.scatter.RowScatter` (segment
    sums) into its own ``out``-shaped buffer; buffers are combined by a
    row-blocked parallel reduction (the reduction is ``O(ntasks · I · R)``
    work and memory — the cost SPLATT's privatization heuristic is
    guarding).

    ``buffers`` — reusable, owned by the plan's cache — are *assigned*
    rather than accumulated: rows a task never touches stay zero across
    calls, so the buffers are never re-zeroed.  A single task accumulates
    straight into ``out`` and needs no buffers (pass ``None``).
    """
    ntasks = layer.env.num_tasks
    backend = bctx.backend if bctx is not None else None
    if ntasks == 1:
        contribs, presorted = _task_contribs(csf, factors, plan, 0, workspaces[0], bctx)
        plan.scatters[0].scatter_accumulate(
            out, contribs, workspaces[0], presorted=presorted, backend=backend
        )
        return

    def task(tid: int) -> None:
        ws = workspaces[tid]
        contribs, presorted = _task_contribs(csf, factors, plan, tid, ws, bctx)
        plan.scatters[tid].scatter_assign(
            buffers[tid], contribs, ws, presorted=presorted, backend=backend
        )

    layer.coforall(ntasks, task)
    array_reduce_buffers(layer, out, buffers)


def run_scatter_mutex(
    csf: CsfTensor,
    factors: Sequence[np.ndarray],
    out: np.ndarray,
    layer: TaskingLayer,
    pool: MutexPool,
    plan: ScatterPlan,
    workspaces: Sequence[Workspace],
    *,
    bctx=None,
) -> None:
    """Mutex-pool parallel scatter: shared output, hashed row locks.

    Each task performs each lock bucket's scatter-add while holding that
    bucket's lock — the vectorized rendition of SPLATT's lock-per-row
    update, preserving real lock traffic and contention: one acquire per
    task-bucket pair, with SPLATT's hashed lock ids.  The ``plan`` (built
    with this pool's size) caches the bucket grouping and per-row
    pre-reduction, so the steady state sorts nothing.
    """
    backend = bctx.backend if bctx is not None else None

    def task(tid: int) -> None:
        ws = workspaces[tid]
        contribs, presorted = _task_contribs(csf, factors, plan, tid, ws, bctx)
        plan.scatters[tid].scatter_mutex(
            out, contribs, pool, ws, presorted=presorted, backend=backend
        )

    layer.coforall(layer.env.num_tasks, task)
