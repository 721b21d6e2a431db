"""Output checks that do not use the program's own fit routine.

:func:`model_fit` evaluates ``fit = 1 − ‖X − Z‖ / ‖X‖`` for a Kruskal
model ``Z`` straight from the nonzeros: ``⟨X, Z⟩`` is a sum over the
nonzeros of ``x · Σ_r λ_r Π_m A_m[i_m, r]`` and ``‖Z‖²`` is the Gram form
``λᵀ (∗_m A_mᵀA_m) λ``.  ``repro.linalg.fit.calc_fit`` instead reuses the
last MTTKRP, so the two agree only if the solver's model is the one its
fit describes.
"""

from __future__ import annotations

import numpy as np

#: Agreement required between the independent fit and the solver's fit.
FIT_TOL = 1e-8


def model_fit(coords, values, weights, factors, chunk: int = 1 << 18) -> float:
    lam = np.asarray(weights, dtype=np.float64)
    inner = 0.0
    for lo in range(0, len(values), chunk):
        c = np.asarray(coords[lo:lo + chunk])
        rows = np.broadcast_to(lam, (c.shape[0], lam.size)).copy()
        for m, factor in enumerate(factors):
            rows *= factor[c[:, m]]
        inner += float(np.asarray(values[lo:lo + chunk]) @ rows.sum(axis=1))
    gram = np.ones((lam.size, lam.size))
    for factor in factors:
        gram *= factor.T @ factor
    xnorm2 = float(np.dot(values, values))
    resid2 = max(xnorm2 + float(lam @ gram @ lam) - 2.0 * inner, 0.0)
    return 1.0 - np.sqrt(resid2) / np.sqrt(xnorm2)


def fit_agrees(coords, values, kruskal, fit: float, tol: float = FIT_TOL) -> bool:
    """True when ``fit`` matches :func:`model_fit` of ``kruskal``."""
    mine = model_fit(coords, values, kruskal.weights, kruskal.factors)
    return bool(np.isfinite(fit) and abs(mine - fit) <= tol)
