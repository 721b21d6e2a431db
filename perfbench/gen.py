"""Seeded power-law tensors at multiples of the Table I bench shapes.

``repro.tensor.generate.synthetic_dataset`` caps ``scale`` at 1, so the
benchmark draws its own tensors.  Each one takes a signature's bench
dims and per-mode skews from ``DATASET_SIGNATURES`` and scales them:

* dims are ``bench_dims × dim_mult``;
* ``1.3 × nnz_mult × bench_nnz`` coordinates are drawn (the same 1.3
  oversample ``synthetic_dataset`` uses), then duplicates are summed, so
  the nnz after dedup is a little below the draw count and is reported.

Index popularity per mode is ``p(i) ∝ (i+1)^-skew`` under a random
relabelling, as in the program's own generator.  Values are lognormal
ratings rounded to three decimals, so the FROSTT text form parses back to
exactly the same doubles.  Files are written once per seed, outside every
timed region.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class TensorSpec:
    signature: str
    dim_mult: int
    nnz_mult: float
    fmt: str  # "tns" (FROSTT text) or "tnsb" (the program's mmap binary)


#: Every tensor a workload reads.  ``netflix-large`` keeps the NETFLIX
#: dims/nnz ratio low enough that its internal mode stays under the lock
#: rule ``2·dim > 0.018·nnz`` at 2 tasks (als-large must stay lock-free;
#: at 20× dims and 20× draws it would lock), and ~1.3M nnz keeps one
#: numpy-path solve near 1.3 GiB resident.
TENSORS: dict[str, TensorSpec] = {
    "yelp": TensorSpec("yelp", 1, 1, "tns"),
    "nell-2": TensorSpec("nell-2", 1, 1, "tns"),
    "netflix-large": TensorSpec("netflix", 5, 10, "tnsb"),
    "yelp-locked": TensorSpec("yelp", 64, 30, "tnsb"),
}


def _power_law(rng: np.random.Generator, n: int, dim: int, skew: float) -> np.ndarray:
    cdf = np.cumsum(np.arange(1, dim + 1, dtype=np.float64) ** (-skew))
    draws = np.searchsorted(cdf, rng.random(n) * cdf[-1], side="right")
    np.minimum(draws, dim - 1, out=draws)
    return rng.permutation(dim)[draws]


def draw(spec: TensorSpec, seed: int, scale: float = 1.0):
    """Return ``(coords, values, dims)`` deduplicated and sorted.

    ``scale`` (≤ 1) shrinks dims and nnz together for the self-test.
    """
    from repro.tensor.generate import DATASET_SIGNATURES

    sig = DATASET_SIGNATURES[spec.signature]
    rng = np.random.default_rng([seed, sum(map(ord, spec.signature)), spec.dim_mult])
    dims = tuple(max(4, round(d * spec.dim_mult * scale)) for d in sig.bench_dims)
    n = max(64, round(1.3 * spec.nnz_mult * sig.bench_nnz * scale))
    cols = [_power_law(rng, n, dims[m], sig.skew[m]) for m in range(3)]
    values = np.maximum(np.rint(rng.lognormal(0.0, 0.5, n) * 1000), 1) / 1000
    lin = (cols[0] * dims[1] + cols[1]) * dims[2] + cols[2]
    uniq, inverse = np.unique(lin, return_inverse=True)
    summed = np.rint(np.bincount(inverse, weights=values) * 1000) / 1000
    coords = np.stack(np.unravel_index(uniq, dims), axis=1).astype(np.int64)
    return coords, summed, dims


def _write_tns(path: Path, coords: np.ndarray, values: np.ndarray) -> None:
    rows = np.column_stack([coords + 1, np.rint(values * 1000).astype(np.int64)])
    lines = [f"{i} {j} {k} {v // 1000}.{v % 1000:03d}" for i, j, k, v in rows.tolist()]
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    tmp.write_text("\n".join(lines) + "\n")
    os.replace(tmp, path)


def materialize(name: str, seed: int, data_dir: Path, scale: float = 1.0) -> dict:
    """Write tensor ``name`` for ``seed`` unless it exists; describe it
    (path, dims, nnz after dedup, file bytes)."""
    spec = TENSORS[name]
    tag = f"{name}-d{spec.dim_mult}-n{spec.nnz_mult:g}-x{scale:g}-s{seed}"
    path = data_dir / f"{tag}.{spec.fmt}"
    meta_path = data_dir / f"{tag}.json"
    if not meta_path.exists():
        data_dir.mkdir(parents=True, exist_ok=True)
        coords, values, dims = draw(spec, seed, scale)
        if spec.fmt == "tns":
            _write_tns(path, coords, values)
        else:
            from repro.tensor.coo import SparseTensor
            from repro.tensor.io import save_mmap

            save_mmap(SparseTensor(coords, values, dims, name=tag), path)
        meta_path.write_text(json.dumps({"dims": list(dims), "nnz": int(values.size)}))
    meta = json.loads(meta_path.read_text())
    return {"name": name, "path": str(path), **meta, "file_bytes": path.stat().st_size}


def read_tns(path: str):
    """Parse a FROSTT text file without the program's reader.

    Returns ``(coords, values, dims)`` with dims inferred from the largest
    index per mode, as ``repro cpd`` infers them.
    """
    table = np.loadtxt(path, dtype=np.float64, ndmin=2)
    coords = table[:, :-1].astype(np.int64) - 1
    return coords, table[:, -1].copy(), tuple(int(d) + 1 for d in coords.max(axis=0))
