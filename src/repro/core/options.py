"""CP-ALS configuration (SPLATT's ``splatt_default_opts`` analogue)."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.csf.permute import CSF_ALLOCATIONS
from repro.mttkrp.variants import ACCESS_VARIANTS
from repro.runtime.env import ChapelEnv
from repro.tensor.sort import SORT_VARIANTS

__all__ = ["CpalsOptions", "DEFAULT_RANK", "DEFAULT_ITERATIONS", "TRANSPORTS"]

#: The paper's experiments use rank 35 and 20 iterations throughout (§V-A).
DEFAULT_RANK = 35
DEFAULT_ITERATIONS = 20

#: Distributed data planes (``--transport`` / :attr:`CpalsOptions.transport`),
#: implemented in :mod:`repro.distributed.transport`.
TRANSPORTS: tuple[str, ...] = ("sim", "proc")


@dataclass
class CpalsOptions:
    """Everything configurable about a CP-ALS run.

    Attributes
    ----------
    max_iterations:
        ALS iteration cap (paper: 20).
    tolerance:
        Stop when the fit improves by less than this between iterations
        (SPLATT's default 1e-5).  Set to 0 to always run
        ``max_iterations`` — what the paper's timing runs do.
    variant:
        MTTKRP row-access variant (:data:`ACCESS_VARIANTS`).
    sort_variant:
        Pre-processing sort implementation (:data:`SORT_VARIANTS`).
    allocation:
        CSF allocation policy (:data:`CSF_ALLOCATIONS`).
    env:
        Runtime configuration (tasks, tasking layer, ...).
    mutex_kind:
        ``"atomic"`` or ``"sync"`` mutex pool for locked MTTKRP modes.
    pool_size:
        Mutex pool size.
    force_locks:
        Override the lock decision for non-root modes (``None`` = use
        :func:`repro.mttkrp.locks_policy.needs_locks`).
    backend:
        Kernel execution backend: ``"numpy"``, ``"numba"``, ``"cext"``,
        ``"auto"`` (first available compiled backend, silent fallback), or
        ``None`` to defer to ``$REPRO_BACKEND`` / the ``numpy`` default.
        See ``docs/BACKENDS.md``.
    seed:
        Seed for the random factor initialization.
    locales:
        Locale count for distributed runs.  ``1`` (the default) runs
        serial :func:`~repro.core.cpals.cp_als`; values > 1 route through
        :func:`~repro.distributed.cpals.distributed_cp_als` on a
        :func:`~repro.distributed.grid.choose_grid` grid.
    transport:
        Data plane for distributed runs: ``"sim"`` (in-process locales,
        metered simulation) or ``"proc"`` (spawned worker processes over
        shared memory — see docs/DISTRIBUTED.md).  Ignored when
        ``locales == 1`` unless set to ``"proc"``, which forces the
        distributed path even for a single locale.
    checkpoint_path:
        When set, snapshot the ALS state to this path (atomic ``.npz``,
        see :mod:`repro.resilience.checkpoint`) every
        ``checkpoint_every`` completed iterations.
    checkpoint_every:
        Snapshot cadence in iterations (default: every iteration).
    resume_from:
        Path of a ``cp_als`` checkpoint to resume from; the run continues
        at the saved iteration and reproduces an uninterrupted run
        bit-for-bit (same tensor, rank, and options required).
    """

    max_iterations: int = DEFAULT_ITERATIONS
    tolerance: float = 1e-5
    variant: str = "vectorized"
    sort_variant: str = "lexsort"
    allocation: str = "two"
    env: ChapelEnv = field(default_factory=ChapelEnv)
    mutex_kind: str = "atomic"
    pool_size: int = 1024
    force_locks: bool | None = None
    backend: str | None = None
    seed: int | None = 0
    checkpoint_path: str | os.PathLike | None = None
    checkpoint_every: int = 1
    resume_from: str | os.PathLike | None = None
    locales: int = 1
    transport: str = "sim"

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        if self.variant not in ACCESS_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {ACCESS_VARIANTS}")
        if self.sort_variant not in SORT_VARIANTS:
            raise ValueError(
                f"unknown sort_variant {self.sort_variant!r}; choose from {SORT_VARIANTS}"
            )
        if self.allocation not in CSF_ALLOCATIONS:
            raise ValueError(
                f"unknown allocation {self.allocation!r}; choose from {CSF_ALLOCATIONS}"
            )
        if self.mutex_kind not in ("atomic", "sync"):
            raise ValueError("mutex_kind must be 'atomic' or 'sync'")
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if self.backend is not None and self.backend != "auto":
            from repro.backend import registered_backends

            if self.backend not in registered_backends():
                raise ValueError(
                    f"unknown backend {self.backend!r}; choose from "
                    f"{', '.join(registered_backends())} or 'auto'"
                )
        if self.locales < 1:
            raise ValueError(f"locales must be >= 1, got {self.locales}")
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r}; choose from {TRANSPORTS}"
            )
        if self.distributed and (
            self.checkpoint_path is not None or self.resume_from is not None
        ):
            raise ValueError(
                "checkpoint_path/resume_from (--checkpoint/--resume) are not "
                "supported with locales > 1 or transport='proc' — distributed "
                "runs have no checkpoint format yet; checkpoint serial runs only"
            )

    @property
    def distributed(self) -> bool:
        """Whether this configuration routes through distributed CP-ALS."""
        return self.locales > 1 or self.transport == "proc"
