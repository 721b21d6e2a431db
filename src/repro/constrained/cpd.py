"""Constrained CP-ALS driver (AO-ADMM outer loop).

Same skeleton as :func:`repro.core.cpals.cp_als` — CSF build, per-mode
MTTKRP + Hadamard-of-Grams — but each mode update runs through
:func:`repro.constrained.admm.admm_mode_solve` with that mode's constraint,
warm-starting the ADMM states across outer iterations.

Factors are *not* column-normalized between updates: normalization would
break hard constraints' geometry (a non-negative factor stays non-negative,
but λ-rescaling interacts badly with ℓ₁ penalties), so like SPLATT's
constrained routines the component magnitudes stay in the factors and the
reported metric is the relative fit computed from them directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro._util import VALUE_DTYPE, as_rng, check_rank
from repro.constrained.admm import admm_mode_solve
from repro.constrained.constraints import Constraint, make_constraint
from repro.core.cpals import init_factors
from repro.csf.build import build_csf_set
from repro.linalg.ata import gram, hadamard_gram
from repro.mttkrp.variants import mttkrp_csf
from repro.runtime.env import ChapelEnv, blas_budget
from repro.runtime.tasking import make_tasking_layer
from repro.tensor.coo import SparseTensor

__all__ = ["ConstrainedResult", "constrained_cp_als"]


@dataclass
class ConstrainedResult:
    """Outcome of a constrained CP run."""

    factors: list[np.ndarray]
    fits: list[float]
    iterations: int
    converged: bool
    seconds: float
    constraints: list[Constraint]
    #: Total ADMM inner iterations per mode (warm starts keep these small).
    admm_iterations: list[int] = field(default_factory=list)

    @property
    def fit(self) -> float:
        return self.fits[-1] if self.fits else 0.0

    def predict(self, coords: np.ndarray) -> np.ndarray:
        """Model values at arbitrary coordinates."""
        coords = np.asarray(coords)
        rank = self.factors[0].shape[1]
        acc = np.ones((coords.shape[0], rank), dtype=VALUE_DTYPE)
        for m, f in enumerate(self.factors):
            acc *= f[coords[:, m]]
        return acc.sum(axis=1)


def _fit(xnorm2: float, factors: Sequence[np.ndarray], last_mttkrp: np.ndarray,
         grams: Sequence[np.ndarray]) -> float:
    """Relative fit with weights folded into the factors (λ ≡ 1)."""
    rank = factors[0].shape[1]
    had = np.ones((rank, rank), dtype=VALUE_DTYPE)
    for g in grams:
        had *= g
    znorm2 = max(float(had.sum()), 0.0)  # 1ᵀ (∗ grams) 1
    inner = float(np.einsum("ir,ir->", last_mttkrp, factors[-1]))
    residual_sq = max(xnorm2 + znorm2 - 2.0 * inner, 0.0)
    xnorm = float(np.sqrt(xnorm2))
    return 1.0 - float(np.sqrt(residual_sq)) / xnorm if xnorm else 1.0


def constrained_cp_als(
    tensor: SparseTensor,
    rank: int,
    constraints: str | Constraint | Sequence[str | Constraint] = "nonneg",
    *,
    max_iterations: int = 50,
    tolerance: float = 1e-5,
    admm_iterations: int = 25,
    admm_tolerance: float = 1e-4,
    env: ChapelEnv | None = None,
    seed: int | None = 0,
) -> ConstrainedResult:
    """Fit a constrained CP model.

    Parameters
    ----------
    constraints:
        One spec applied to every mode, or a per-mode sequence.  Specs are
        registry names (``"nonneg"``, ``"l1"``, ``"ridge"``, ``"none"``) or
        :class:`Constraint` instances.
    admm_iterations / admm_tolerance:
        Inner-loop budget per mode update (warm-started, so ~5 inner
        iterations typically suffice after the first outer sweep).

    Returns
    -------
    :class:`ConstrainedResult`
    """
    rank = check_rank(rank)
    if tensor.nnz == 0:
        raise ValueError("cannot decompose an empty tensor")
    nmodes = tensor.nmodes
    if isinstance(constraints, (str, Constraint)):
        cons = [make_constraint(constraints) for _ in range(nmodes)]
    else:
        if len(constraints) != nmodes:
            raise ValueError(f"need {nmodes} constraints, got {len(constraints)}")
        cons = [make_constraint(c) for c in constraints]

    env = env if env is not None else ChapelEnv()
    layer = make_tasking_layer(env)
    with blas_budget(env):
        csf_set = build_csf_set(tensor)
        rng = as_rng(seed)
        factors = init_factors(tensor.dims, rank, rng)
        # Start feasible so the first Grams make sense for hard constraints.
        for m, con in enumerate(cons):
            factors[m] = con.prox(factors[m], 1.0)
            if not factors[m].any():
                factors[m] = np.abs(np.asarray(rng.random((tensor.dims[m], rank))))

        grams = [gram(f) for f in factors]
        xnorm2 = tensor.norm() ** 2
        out_buffers = {m: np.zeros((tensor.dims[m], rank), dtype=VALUE_DTYPE) for m in range(nmodes)}
        warm_aux: list[np.ndarray | None] = [None] * nmodes
        warm_dual: list[np.ndarray | None] = [None] * nmodes
        admm_iters_per_mode = [0] * nmodes

        fits: list[float] = []
        converged = False
        start = time.perf_counter()
        iterations = 0
        for it in range(max_iterations):
            last_mttkrp: np.ndarray | None = None
            for mode in range(nmodes):
                v = hadamard_gram(factors, mode, grams=grams)
                m_out, _ = mttkrp_csf(
                    csf_set, factors, mode, layer=layer, out=out_buffers[mode]
                )
                new_factor, aux, dual, inner = admm_mode_solve(
                    m_out, v, cons[mode],
                    max_iterations=admm_iterations,
                    tolerance=admm_tolerance,
                    warm_aux=warm_aux[mode],
                    warm_dual=warm_dual[mode],
                )
                warm_aux[mode], warm_dual[mode] = aux, dual
                admm_iters_per_mode[mode] += inner
                factors[mode] = np.asarray(new_factor, dtype=VALUE_DTYPE)
                grams[mode] = gram(factors[mode])
                last_mttkrp = m_out

            if last_mttkrp is None:  # zero-mode tensors cannot reach the sweep
                raise RuntimeError(
                    "constrained CP-ALS sweep updated no modes; cannot compute fit"
                )
            fits.append(_fit(xnorm2, factors, last_mttkrp, grams))
            iterations = it + 1
            if tolerance > 0 and it > 0 and abs(fits[-1] - fits[-2]) < tolerance:
                converged = True
                break

    return ConstrainedResult(
        factors=[f.copy() for f in factors],
        fits=fits,
        iterations=iterations,
        converged=converged,
        seconds=time.perf_counter() - start,
        constraints=cons,
        admm_iterations=admm_iters_per_mode,
    )
