"""What a cold ``repro`` command imports.

``repro cpd`` is dominated by start-up on small tensors, so the modules
``import repro.cli`` pulls in are part of its cost.  These tests pin the
module *set* in a fresh interpreter (no timing bound, so they cannot
flake): the lazy package namespace must keep the heavy subsystems out.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Loaded by no cold ``repro cpd``: scipy.optimize comes with
#: ``repro.analysis``, and the rest are other subcommands' subsystems.
HEAVY = (
    "scipy.optimize",
    "repro.analysis",
    "repro.distributed",
    "repro.constrained",
    "repro.tucker",
    "repro.serve",
    "repro.bench",
    "repro.lint",
    "repro.analyze",
    "repro.perfmodel",
)


def _fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object."""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
    )
    return json.loads(out.stdout)


def test_cli_import_skips_heavy_modules():
    got = _fresh(
        "import json, sys\n"
        "import repro.cli\n"
        "print(json.dumps({\n"
        f"    'loaded': [m for m in {HEAVY!r} if m in sys.modules],\n"
        "    'load_tns': callable(getattr(repro.cli, 'load_tns', None)),\n"
        "    'cp_als': callable(getattr(repro.cli, 'cp_als', None)),\n"
        "}))\n"
    )
    assert got == {"loaded": [], "load_tns": True, "cp_als": True}


def test_package_import_loads_no_subpackage():
    got = _fresh(
        "import json, sys\n"
        "import repro\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro'))\n"
        "subpackage = repro.tensor.io.load_tns.__module__\n"
        "print(json.dumps([loaded, subpackage]))\n"
    )
    assert got == [["repro"], "repro.tensor.io"]


def test_every_export_resolves_and_is_listed():
    listing = dir(repro)
    for name in repro.__all__:
        assert name in listing, name
        assert getattr(repro, name) is not None, name
    assert not hasattr(repro, "no_such_name")


def test_export_wins_over_its_same_named_subpackage():
    """``repro.mttkrp`` is the function even after the subpackage of that
    name has been imported (which binds it on the parent)."""
    from repro.mttkrp.variants import mttkrp

    assert repro.mttkrp is mttkrp
