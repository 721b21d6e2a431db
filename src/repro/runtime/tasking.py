"""Tasking layers: ``coforall``/``forall`` over real Python threads.

Chapel maps *tasks* onto threads via a pluggable tasking layer; the paper
uses Qthreads (default) and fifo (POSIX threads).  Here both layers execute
tasks on real :mod:`threading` threads — NumPy kernels release the GIL, so
chunked vectorized work genuinely overlaps — and differ in the properties
the rest of the system cares about:

* how ``sync`` variables behave (:attr:`ChapelEnv.sync_vars_sleep`),
* worker pinning and spin-wait (consumed by
  :mod:`repro.perfmodel.interference`).

``coforall(n, body)`` is Chapel's task-parallel loop: exactly ``n`` tasks,
``body(tid)`` each.  ``forall(n, body)`` is the data-parallel loop: the
iteration space ``0..n-1`` is blocked over the layer's task count and
``body(lo, hi, tid)`` processes one block.  The paper's §IV-B pattern —
an ``omp for`` nested inside ``omp parallel`` — maps to ``coforall`` +
:func:`static_block`, and that is exactly how the MTTKRP kernels use it.

Like Qthreads, a layer does not spawn an OS thread per task: every
multi-task ``coforall`` dispatches onto the layer's persistent
:class:`~repro.runtime.pool.WorkerPool` (created on first use, reused for
the lifetime of the layer), so steady-state parallel loops pay two event
round-trips instead of a thread create/start/join cycle.
"""

from __future__ import annotations

import time
from abc import ABC
from typing import Callable

from repro.observe import spans as _obs
from repro.resilience import fault as _flt
from repro.resilience import retry as _rty
from repro.sanitize import detector as _san
from repro.runtime.accounting import CostCounters
from repro.runtime.env import ChapelEnv
from repro.runtime.pool import WorkerPool

__all__ = [
    "TaskingLayer",
    "QthreadsLayer",
    "FifoLayer",
    "make_tasking_layer",
    "static_block",
]


def static_block(n: int, ntasks: int, tid: int) -> tuple[int, int]:
    """The ``[lo, hi)`` block of ``0..n-1`` owned by task ``tid``.

    Matches OpenMP's static schedule (and what the paper's Chapel code
    computes manually inside ``coforall``, §IV-B): the first ``n % ntasks``
    tasks get one extra element.
    """
    if ntasks < 1:
        raise ValueError("ntasks must be >= 1")
    if not 0 <= tid < ntasks:
        raise ValueError(f"tid {tid} out of range for {ntasks} tasks")
    base, extra = divmod(n, ntasks)
    lo = tid * base + min(tid, extra)
    hi = lo + base + (1 if tid < extra else 0)
    return lo, hi


class TaskingLayer(ABC):
    """Executes Chapel-style parallel constructs on real threads."""

    #: Layer name ("qthreads" / "fifo").
    name: str = ""

    def __init__(self, env: ChapelEnv, counters: CostCounters | None = None):
        if env.tasking_layer != self.name:
            raise ValueError(
                f"env requests tasking layer {env.tasking_layer!r} "
                f"but this is the {self.name!r} layer"
            )
        self.env = env
        self.counters = counters if counters is not None else CostCounters()
        self._pool: WorkerPool | None = None
        #: Resilience accounting for this layer (mirrored into the pool's
        #: stats once the pool exists): retried dispatches,
        #: simulated backoff seconds, and dispatches degraded to serial.
        self.retries = 0
        self.backoff_seconds = 0.0
        self.degraded_dispatches = 0

    # ------------------------------------------------------------------
    @property
    def worker_pool(self) -> WorkerPool:
        """The layer's persistent :class:`WorkerPool` (created on first use).

        Qthreads pins workers to cores when ``env.qt_affinity`` is set (the
        Qthreads default); fifo never pins.
        """
        if self._pool is None:
            self._pool = WorkerPool(
                name=f"{self.name or 'chpl'}-worker",
                pin_workers=self.env.qt_affinity and self.name == "qthreads",
            )
        return self._pool

    def shutdown(self) -> None:
        """Stop and join the layer's pool workers (safe if never started)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            if self._pool is not None:
                self._pool.shutdown(join=False)
        except Exception:
            pass

    # ------------------------------------------------------------------
    def _dispatch(self, ntasks: int, body: Callable[[int], None], span) -> None:
        """Dispatch with fault injection, retry and serial degradation.

        When no :class:`~repro.resilience.fault.FaultPlan` is installed
        this is exactly one worker-pool dispatch.  With a plan active,
        each attempt pokes the ``tasking.coforall`` site and a raised
        :class:`~repro.resilience.fault.InjectedFault` (from the dispatch
        sites or a task body) is handled per the active
        :class:`~repro.resilience.retry.RetryPolicy`: retried with
        accounted backoff, then — if the layer keeps failing — degraded
        to running the tasks serially inline.  Real task errors are never
        retried.
        """
        plan = _flt._active_plan
        if plan is None:
            self.worker_pool.run(ntasks, body)
            return
        policy = _rty.active_policy()
        attempts = 0
        while True:
            try:
                plan.poke("tasking.coforall")
                self.worker_pool.run(ntasks, body)
                return
            except BaseException as exc:
                if (
                    policy is None
                    or not policy.handles(exc)
                    or not getattr(exc, "retry_safe", True)
                ):
                    raise
                if attempts < policy.max_retries:
                    backoff = policy.backoff(attempts)
                    attempts += 1
                    self.retries += 1
                    self.backoff_seconds += backoff
                    if self._pool is not None:
                        self._pool.retries += 1
                        self._pool.backoff_seconds += backoff
                    _obs.count("retry.attempts")
                    if span is not None:
                        span.set_attrs(retries=attempts)
                    policy.pause(backoff)
                    continue
                if not policy.degrade:
                    raise
                # Graceful degradation: the tasking layer is deemed broken;
                # run the loop serially on the calling thread (no pool, no
                # dispatch-site pokes — the body's own faults still apply).
                self.degraded_dispatches += 1
                if self._pool is not None:
                    self._pool.degraded_dispatches += 1
                _obs.count("tasking.degraded")
                if span is not None:
                    span.set_attrs(degraded=True, retries=attempts)
                for tid in range(ntasks):
                    body(tid)
                return

    def coforall(self, ntasks: int, body: Callable[[int], None]) -> None:
        """Run ``body(tid)`` for ``tid in 0..ntasks-1`` concurrently.

        ``ntasks == 1`` runs inline (no thread involved), matching Chapel's
        serialization of singleton coforalls.  Multi-task loops dispatch to
        the persistent worker pool.  Exceptions raised by any task
        propagate to the caller after all tasks finish (first one wins).
        Under an installed fault plan, injected dispatch failures are
        retried/degraded per the active retry policy (see :meth:`_dispatch`).
        """
        if ntasks < 1:
            raise ValueError("ntasks must be >= 1")
        if ntasks == 1:
            body(0)
            return
        self.counters.add(tasks_spawned=ntasks)
        san = _san._active
        handles = None
        if san is not None:
            # Fork one sanitizer timeline per task *before* dispatch: the
            # children inherit the caller's clock (fork edge) and are
            # mutually concurrent.  The wrap binds each body to its
            # timeline on whatever thread ends up running it — including
            # the calling thread itself on the degraded serial path, where
            # the tasks are still logically concurrent.
            _san.pause("tasking.coforall")
            handles = san.fork(ntasks, f"coforall:{self.name}")
            san_inner = body

            def body(tid: int, _inner=san_inner, _h=handles) -> None:
                with san.task(_h[tid]):
                    _inner(tid)

        try:
            rec = _obs._active
            if rec is not None:
                # Trace the dispatch and each task body.  Task spans run on
                # the worker threads (their own timelines); the explicit
                # parent_id keeps the cross-thread dispatch → task edge in
                # the span tree.
                with rec.span(
                    "coforall", {"ntasks": ntasks, "layer": self.name}
                ) as dispatch_span:
                    inner = body

                    def body(tid: int, _inner=inner, _parent=dispatch_span) -> None:
                        with rec.span("task", {"tid": tid}, parent_id=_parent.id):
                            _inner(tid)

                    self._dispatch(ntasks, body, dispatch_span)
            else:
                self._dispatch(ntasks, body, None)
        finally:
            if san is not None:
                # Join edge: everything the children did happened before
                # anything the caller does next (coforall is a barrier).
                san.join(handles)

    def forall(self, n: int, body: Callable[[int, int, int], None]) -> None:
        """Data-parallel loop: block ``0..n-1`` over ``env.num_tasks`` tasks.

        ``body(lo, hi, tid)`` handles one contiguous block.
        """
        ntasks = min(self.env.num_tasks, max(n, 1))

        def task(tid: int) -> None:
            lo, hi = static_block(n, ntasks, tid)
            if lo < hi:
                body(lo, hi, tid)

        self.coforall(ntasks, task)

    def task_yield(self) -> None:
        """``chpl_task_yield()`` — cede the thread; counted."""
        self.counters.add(task_yields=1)
        time.sleep(0)


class QthreadsLayer(TaskingLayer):
    """Chapel's default tasking layer.

    Distinctive properties (all read by the perfmodel / lock pools):
    workers pinned to cores by default (``env.qt_affinity``), long
    spin-wait before suspending (``env.qt_spincount``), and sync variables
    that *sleep* blocked tasks.
    """

    name = "qthreads"


class FifoLayer(TaskingLayer):
    """The fifo (POSIX threads) tasking layer.

    No worker pinning, and sync variables *spin*, which is why Fig 4's
    "FIFO-sync" curve tracks the atomic pool.
    """

    name = "fifo"


def make_tasking_layer(
    env: ChapelEnv, counters: CostCounters | None = None
) -> TaskingLayer:
    """Instantiate the layer selected by ``env.tasking_layer``."""
    if env.tasking_layer == "qthreads":
        return QthreadsLayer(env, counters)
    if env.tasking_layer == "fifo":
        return FifoLayer(env, counters)
    raise ValueError(f"unknown tasking layer {env.tasking_layer!r}")
