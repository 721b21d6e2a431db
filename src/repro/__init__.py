"""repro — reproduction of *Parallel Sparse Tensor Decomposition in Chapel*.

A from-scratch Python implementation of SPLATT-style sparse CP-ALS tensor
decomposition (COO → sort → CSF → parallel MTTKRP → ALS), together with the
Chapel-runtime substrate the paper studies (tasking layers, sync/atomic
mutex pools) and a calibrated performance model + benchmark harness that
regenerates every table and figure of the paper's evaluation.

Quickstart::

    import repro

    x = repro.synthetic_dataset("nell-2")     # scaled Table I stand-in
    result = repro.cp_als(x, rank=16)
    print(result.fit, result.timers.as_row())

The package namespace is lazy (PEP 562): ``import repro`` loads no
subpackage, and each name below is imported from its subpackage on first
access, so ``repro.cp_als`` and ``from repro import cp_als`` work as
before while a command that never touches, say, :mod:`repro.analysis`
never pays for scipy.optimize.

See README.md for the architecture overview and DESIGN.md for the
experiment index.
"""

import importlib
import sys
import types

__version__ = "1.0.0"

#: Public name → the subpackage that defines it.  ``__all__`` is derived
#: from this table; :func:`__getattr__` resolves through it.
_EXPORTS = {
    # core
    "cp_als": "repro.core",
    "CpalsResult": "repro.core",
    "CpalsOptions": "repro.core",
    "KruskalTensor": "repro.core",
    "RoutineTimers": "repro.core",
    # tensor
    "SparseTensor": "repro.tensor",
    "synthetic_dataset": "repro.tensor",
    "random_tensor": "repro.tensor",
    "planted_low_rank": "repro.tensor",
    "load_tns": "repro.tensor",
    "save_tns": "repro.tensor",
    "sort_tensor": "repro.tensor",
    "SORT_VARIANTS": "repro.tensor",
    "DATASET_SIGNATURES": "repro.tensor",
    "tensor_stats": "repro.tensor",
    "split_nonzeros": "repro.tensor",
    "drop_empty_slices": "repro.tensor",
    "scale_values": "repro.tensor",
    "binarize": "repro.tensor",
    "subtensor": "repro.tensor",
    # csf
    "CsfTensor": "repro.csf",
    "CsfSet": "repro.csf",
    "build_csf": "repro.csf",
    "build_csf_set": "repro.csf",
    # mttkrp
    "mttkrp": "repro.mttkrp",
    "mttkrp_csf": "repro.mttkrp",
    "ACCESS_VARIANTS": "repro.mttkrp",
    "dense_mttkrp_reference": "repro.mttkrp",
    # observe
    "tracing": "repro.observe",
    "TraceRecorder": "repro.observe",
    # resilience
    "FaultPlan": "repro.resilience",
    "InjectedFault": "repro.resilience",
    "inject_faults": "repro.resilience",
    "RetryPolicy": "repro.resilience",
    "retrying": "repro.resilience",
    "Checkpoint": "repro.resilience",
    "CheckpointError": "repro.resilience",
    "save_checkpoint": "repro.resilience",
    "load_checkpoint": "repro.resilience",
    # runtime
    "ChapelEnv": "repro.runtime",
    "AtomicLockPool": "repro.runtime",
    "SyncLockPool": "repro.runtime",
    "SyncVar": "repro.runtime",
    "make_tasking_layer": "repro.runtime",
    # completion
    "complete": "repro.completion",
    "CompletionOptions": "repro.completion",
    "CompletionResult": "repro.completion",
    # constrained
    "constrained_cp_als": "repro.constrained",
    "ConstrainedResult": "repro.constrained",
    # distributed
    "distributed_cp_als": "repro.distributed",
    "DistributedResult": "repro.distributed",
    "LocaleGrid": "repro.distributed",
    "choose_grid": "repro.distributed",
    # analysis
    "factor_match_score": "repro.analysis",
    "core_consistency": "repro.analysis",
    # tucker
    "tucker_hooi": "repro.tucker",
    "TuckerResult": "repro.tucker",
    "ttmc": "repro.tucker",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    """Import the subpackage defining ``name`` and cache the binding.

    Any other name is tried as a subpackage, so ``repro.tensor.io`` still
    works after a bare ``import repro``.
    """
    module = _EXPORTS.get(name)
    if module is None:
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """The loaded names plus every lazy export."""
    return sorted(set(globals()) | set(__all__))


class _Namespace(types.ModuleType):
    """The ``repro`` module, keeping exports over same-named subpackages.

    Loading a subpackage binds it on its parent, so importing
    :mod:`repro.mttkrp` would replace the ``repro.mttkrp`` function
    export.  That binding is dropped, and the name keeps resolving to the
    export through :func:`__getattr__`.
    """

    def __setattr__(self, name, value):
        if not (name in _EXPORTS and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Namespace
