"""The run stamp: what machine and software state a record was taken on.

BLAS thread counts are read from outside the program, through ctypes, on
every OpenBLAS the process has mapped: numpy's build exports
``scipy_openblas_get_num_threads64_`` and scipy's exports
``scipy_openblas_get_num_threads``.  The benchmark sets no thread
variable; any that the caller's environment already holds are recorded
so a pinned run can be told apart.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_THREAD_ENV_PREFIXES = ("OPENBLAS_", "OMP_", "MKL_", "GOTO_", "BLIS_", "NUMBA_")


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS mapped into this process."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.rsplit(None, 1)[-1]
            if "openblas" in os.path.basename(path).lower():
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_GETTERS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def _l3_bytes() -> int:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                unit = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
                return int(size.rstrip("KM")) * unit
        except OSError:
            continue
    return 0


def _git_sha(root: Path) -> str:
    try:
        # the ceiling keeps git from reporting an enclosing repository's SHA
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def _source_digest(src: Path) -> str:
    """Digest of the program's sources, which identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(root: Path, backend: str) -> dict:
    """Stamp taken at the start of a run (after numpy and scipy load)."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401 - maps scipy's OpenBLAS

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.startswith(_THREAD_ENV_PREFIXES)},
        "backend": backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "src_digest": _source_digest(root / "src" / "repro"),
        "l3_bytes": _l3_bytes(),
        "loadavg_1m_start": os.getloadavg()[0],
    }
