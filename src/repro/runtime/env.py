"""Execution-environment configuration (the paper's Table II knobs).

Collects every runtime variable the paper manipulates into one validated
dataclass.  The same object drives both *real* execution (thread counts for
the tasking layer) and *simulated* execution (the performance model reads
the layer, affinity and spincount to decide lock and interference costs).
"""

from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass, replace
from typing import Callable

from repro.observe import spans as _obs

__all__ = ["ChapelEnv", "TASKING_LAYERS", "DEFAULT_SPINCOUNT", "blas_budget"]

TASKING_LAYERS: tuple[str, ...] = ("qthreads", "fifo")

#: Qthreads' default spin-wait iterations before a worker suspends; the
#: paper reduces this to 300 via ``QT_SPINCOUNT`` to tame OpenMP conflicts.
DEFAULT_SPINCOUNT = 300_000


@dataclass(frozen=True)
class ChapelEnv:
    """A Chapel runtime configuration.

    Attributes
    ----------
    num_tasks:
        Tasks created by ``coforall`` loops — the paper's user-level config
        variable, swept 1..32.
    tasking_layer:
        ``"qthreads"`` (Chapel default) or ``"fifo"`` (POSIX threads).
        Determines ``sync``-variable behaviour: Qthreads sleeps a task
        blocked on a sync var, fifo spins.
    qt_affinity:
        Qthreads worker pinning (``QT_AFFINITY``).  ``True`` is the
        Qthreads default; the paper sets ``no`` to let spin-waiting workers
        migrate away from OpenMP threads.
    qt_spincount:
        Spin-wait iterations before a Qthreads worker suspends
        (``QT_SPINCOUNT``).
    omp_num_threads:
        OpenMP threads available to OpenBLAS inside the inverse routine
        (``OMP_NUM_THREADS``); the paper pins this to 1 for Chapel runs.
        Real, not only modeled: every solver holds a :class:`blas_budget`
        that sets each loaded OpenBLAS to at most this many threads (capped
        so pool workers × BLAS threads never exceed the cores).
    """

    num_tasks: int = 1
    tasking_layer: str = "qthreads"
    qt_affinity: bool = True
    qt_spincount: int = DEFAULT_SPINCOUNT
    omp_num_threads: int = 1

    def __post_init__(self) -> None:
        if self.num_tasks < 1:
            raise ValueError(f"num_tasks must be >= 1, got {self.num_tasks}")
        if self.tasking_layer not in TASKING_LAYERS:
            raise ValueError(
                f"unknown tasking layer {self.tasking_layer!r}; choose from {TASKING_LAYERS}"
            )
        if self.qt_spincount < 0:
            raise ValueError("qt_spincount must be >= 0")
        if self.omp_num_threads < 1:
            raise ValueError("omp_num_threads must be >= 1")

    # ------------------------------------------------------------------
    @classmethod
    def from_environ(cls, environ: dict[str, str] | None = None) -> "ChapelEnv":
        """Build from environment variables, using Chapel/Qthreads names.

        Recognized: ``CHPL_RT_NUM_THREADS_PER_LOCALE``, ``CHPL_TASKS``,
        ``QT_AFFINITY`` (``yes``/``no``), ``QT_SPINCOUNT``,
        ``OMP_NUM_THREADS``.  Unset variables keep the defaults.
        """
        env = os.environ if environ is None else environ
        kwargs: dict = {}
        if "CHPL_RT_NUM_THREADS_PER_LOCALE" in env:
            kwargs["num_tasks"] = int(env["CHPL_RT_NUM_THREADS_PER_LOCALE"])
        if "CHPL_TASKS" in env:
            kwargs["tasking_layer"] = env["CHPL_TASKS"].lower()
        if "QT_AFFINITY" in env:
            kwargs["qt_affinity"] = env["QT_AFFINITY"].lower() not in ("no", "0", "false")
        if "QT_SPINCOUNT" in env:
            kwargs["qt_spincount"] = int(env["QT_SPINCOUNT"])
        if "OMP_NUM_THREADS" in env:
            kwargs["omp_num_threads"] = int(env["OMP_NUM_THREADS"])
        return cls(**kwargs)

    def with_tasks(self, num_tasks: int) -> "ChapelEnv":
        """Copy of this env with a different task count (sweep helper)."""
        return replace(self, num_tasks=num_tasks)

    @property
    def sync_vars_sleep(self) -> bool:
        """Whether a task blocked on a ``sync`` var is descheduled (slept).

        True under Qthreads — the root cause of Fig 4's sync-variable
        collapse for short critical sections; fifo spins instead.
        """
        return self.tasking_layer == "qthreads"


# ----------------------------------------------------------------------
# the BLAS thread budget
# ----------------------------------------------------------------------
#: (setter, getter) pairs an OpenBLAS build may export: numpy's ILP64 build
#: carries the ``64_`` suffix, scipy's build the plain scipy prefix.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@dataclass(frozen=True)
class _Openblas:
    path: str
    set_threads: Callable[[int], None]
    get_threads: Callable[[], int]


#: path -> bound library (``None``: mapped but exports no thread setter).
_bound: dict[str, _Openblas | None] = {}


def _bind(path: str) -> _Openblas | None:
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for set_name, get_name in _OPENBLAS_SYMBOLS:
        setter = getattr(lib, set_name, None)
        getter = getattr(lib, get_name, None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return _Openblas(path, setter, getter)
    return None


def _mapped_openblas() -> list[_Openblas]:
    """Every settable OpenBLAS mapped into this process, found through
    ``/proc/self/maps`` (each library is bound once and cached)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.rsplit(None, 1)[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        if "openblas" not in os.path.basename(path).lower():
            continue
        if path not in _bound:
            _bound[path] = _bind(path)
        if _bound[path] is not None:
            found.append(_bound[path])
    return found


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


class _BudgetState:
    """The process-wide hold count and what the outermost holder changed.

    Module-level on purpose: a library's thread count is process state, so
    the one object that may change it is too.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.depth = 0
        self.threads = 0  # count applied by the outermost holder; 0 = miss
        self.saved: list[tuple[_Openblas, int]] = []
        self.misses = 0


_state = _BudgetState()


class blas_budget:
    """Hold the process's BLAS thread budget for a ``with`` block.

    The paper cures Qthreads × OpenMP interference by running OpenBLAS
    single-threaded (Table II, ``OMP_NUM_THREADS=1``).  Entering sets every
    OpenBLAS mapped into the process, through its exported setter, to
    ``min(env.omp_num_threads, max(1, cores // env.num_tasks))`` so the
    tasking layer's pool workers and the BLAS threads never oversubscribe
    the cores.  Holds are reference-counted under one lock: only the outermost
    entry applies the budget, nested and concurrent entries share it, and
    the previous counts come back when the last holder exits (raising or
    not).  A process with no settable OpenBLAS counts a miss and changes
    nothing.

    On entry the gauges ``runtime.cores``, ``runtime.pool_workers`` and
    ``runtime.blas_threads`` (the count in force, 0 on a miss) and the
    counter ``runtime.blas_budget_misses`` go to the active trace.
    """

    def __init__(self, env: ChapelEnv):
        self.cores = _usable_cores()
        self.pool_workers = env.num_tasks
        self.target = min(env.omp_num_threads, max(1, self.cores // self.pool_workers))
        #: Threads in force while held (0 when no OpenBLAS could be set).
        self.threads = 0
        #: OpenBLAS libraries the budget governs.
        self.libraries = 0
        self._held = False

    def __enter__(self) -> "blas_budget":
        with _state.lock:
            if _state.depth == 0:
                libs = _mapped_openblas()
                _state.saved = [(lib, lib.get_threads()) for lib in libs]
                for lib in libs:
                    lib.set_threads(self.target)
                _state.threads = self.target if libs else 0
            _state.depth += 1
            self._held = True
            self.threads = _state.threads
            self.libraries = len(_state.saved)
            if not self.libraries:
                _state.misses += 1
        _obs.gauge("runtime.cores", self.cores)
        _obs.gauge("runtime.pool_workers", self.pool_workers)
        _obs.gauge("runtime.blas_threads", self.threads)
        if not self.libraries:
            _obs.count("runtime.blas_budget_misses")
        return self

    def __exit__(self, *exc) -> bool:
        with _state.lock:
            if not self._held:  # already released
                return False
            self._held = False
            _state.depth -= 1
            if _state.depth == 0:
                for lib, prev in _state.saved:
                    lib.set_threads(prev)
                _state.saved = []
                _state.threads = 0
        return False

    def describe(self) -> str:
        """One-line report (what ``repro cpd`` prints)."""
        if not self.libraries:
            return "BLAS threads: library default (budget miss: no settable OpenBLAS)"
        plural = "y" if self.libraries == 1 else "ies"
        return f"BLAS threads: {self.threads} (budget; {self.libraries} OpenBLAS librar{plural})"

    @staticmethod
    def misses() -> int:
        """Entries, process-wide, that found no settable OpenBLAS."""
        with _state.lock:
            return _state.misses
