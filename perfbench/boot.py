"""Traced launch of ``python -m repro``: the benchmark's bootstrap.

Usage::

    python perfbench/boot.py SPANS.json -- cpd tensor.tns
    python perfbench/boot.py SPANS.json -- serve --port 0 ...

It times ``import repro.cli`` and counts the modules that import adds,
imports whatever the subcommand would import lazily (``repro.serve``),
installs the wrappers of :mod:`tracer`, and then calls ``repro.cli.main``
with the remaining arguments, as ``python -m repro`` does.  At exit it
times the inverse alone on the shapes the run used and writes every span
to ``SPANS.json``.
"""

import atexit
import json
import sys
import time

if __name__ == "__main__":
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        raise SystemExit("usage: boot.py SPANS.json -- <repro arguments>")
    before = set(sys.modules)
    t0 = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - t0
    modules = len(set(sys.modules) - before)
    if argv[0] == "serve":
        import repro.serve.server  # noqa: F401 - the subcommand's own import

    import tracer

    recorder = tracer.Recorder().install()

    def dump() -> None:
        recorder.uninstall()
        shapes = tracer.inverse_shapes(recorder.spans)
        with open(out_path, "w") as fh:
            json.dump({
                "import_s": import_s,
                "modules": modules,
                "missing": recorder.missing,
                "isolated_inverse_us": tracer.isolated_inverse_us(shapes),
                "spans": recorder.spans,
            }, fh)

    atexit.register(dump)
    raise SystemExit(repro.cli.main(argv))
