"""Run one laddernoise CLI command in this process and time its phases.

    python3 child.py --src SRC --timing FILE [--spans FILE] -- CLI-ARGS...

Imports the package from SRC only, then runs ``laddernoise.cli.main`` on
CLI-ARGS exactly as the ``laddernoise`` console script does.  FILE receives
the CLOCK_MONOTONIC instants at which the config had been loaded and
validated and at which ``main`` returned, the peak resident set until then
and the BLAS thread count.  With ``--spans`` every call into the layers is
recorded (see ``layers.py``) and the spans are written there after ``main``
returns.  Exits with the CLI's own exit code.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys

from layers import ROOT, Tracer, clock


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library this process has loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        if not path.startswith("/"):
            continue
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    """High-water resident set of this process's own address space (VmHWM).

    Unlike ``ru_maxrss`` this leaves out the parent's resident set, which
    Linux carries into a child's maxrss when it executes a new program.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    argv = sys.argv[1:]
    if "--" not in argv:
        print("usage: child.py --src SRC --timing FILE [--spans FILE] -- CLI-ARGS", file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("--src", required=True)
    parser.add_argument("--timing", required=True)
    parser.add_argument("--spans")
    opts = parser.parse_args(argv[:split])

    src = os.path.realpath(opts.src)
    sys.path.insert(0, src)
    import laddernoise.cli as cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"laddernoise imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if opts.spans:
        tracer = Tracer()
        tracer.install()

    stamps = {}
    load_config = cli.load_config

    def stamped_load_config(path):
        config = load_config(path)
        stamps["t_loaded"] = clock()
        return config

    cli.load_config = stamped_load_config
    run = tracer.wrap(ROOT, cli.main) if tracer else cli.main
    code = run(argv[split + 1 :])
    stamps["t_done"] = clock()
    stamps["peak_rss_mb"] = peak_rss_mb()

    if tracer:
        tracer.dump(opts.spans)
    stamps["blas_threads"] = blas_threads()
    with open(opts.timing, "w", encoding="utf-8") as fh:
        json.dump(stamps, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
