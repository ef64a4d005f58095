"""One pass of a workload in a fresh process, as a command-line user
gets it: cold imports and cold Weingarten tables.

    python3 perfbench/worker.py WORKLOAD SEED PASSDIR 0|1|setup

The worker imports haarlab, writes the seed's generated inputs under
PASSDIR and prints ``ready``; everything up to that line is set-up, and
in mode ``setup`` the worker stops there.  Otherwise it runs the pass's
haarlab commands through ``haarlab.cli.main`` one after another and
prints one JSON line: per-command exit codes, output and seconds, wall
and CPU seconds of all commands, peak resident memory and, in mode 1
(traced), the per-layer metrics.  The spans of a traced pass are
written to PASSDIR/spans.csv after the clock stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer


def run_commands(commands: list) -> tuple:
    """Run haarlab argv lists in turn; returns ([(exit code, stdout,
    seconds)], wall seconds, CPU seconds)."""
    from haarlab import cli
    results = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for argv in commands:
        t0 = time.perf_counter()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a traceback is a failed command
                print(f"exception: {exc!r}")
                rc = -1
        results.append((rc, out.getvalue(), time.perf_counter() - t0))
    return (results, time.perf_counter() - wall0,
            time.process_time() - cpu0)


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv: list) -> int:
    workload, seed, passdir, mode = argv[0], int(argv[1]), Path(argv[2]), \
        argv[3]
    import haarlab
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(haarlab.__file__).resolve().parents:
        print(f"haarlab imported from {haarlab.__file__}, not {src}",
              file=sys.stderr)
        return 2
    commands = workloads.prepare(workload, seed, passdir)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    tracer = Tracer(int(os.environ["HAARLAB_THREADS"])) if mode == "1" \
        else None
    try:
        results, wall, cpu = run_commands(commands)
    finally:
        if tracer is not None:
            tracer.close()
    report = {"results": results, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "env": environment()}
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(wall)
        report["self_s_by_layer"] = tracer.self_by_layer()
        tracer.write_spans(passdir / "spans.csv")
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
