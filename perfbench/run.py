"""haarlab benchmark: one client, one command in flight (a closed loop).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a haarlab source tree.  Each pass of the workload
runs in a fresh worker process (perfbench/worker.py) that imports
haarlab from ./src, writes the inputs generated from --seed, and runs
the workload's commands through ``haarlab.cli.main``.  Passes repeat
until the next one would end after --seconds; every output is checked
(workloads.py).  The last line of standard output is one JSON object:

* --trace 0: the end-to-end metrics, each the median over passes:
  wall_s and cpu_s of the commands, setup_s (process start to ready:
  interpreter, haarlab import, generated inputs), peak_rss_mb, and
  success_frac, the share of commands whose outputs passed their checks;
* --trace 1: the per-layer metrics of tracer.py.  Passes alternate
  traced and untraced; layer values are medians over traced passes and
  trace.overhead_s is the traced minus the untraced median wall time.

Workloads (the names later changes cite):

* exact_words: exact ``moment`` words, no Monte Carlo code; the pairing
  kernel (order-5 product: 14,400 pairs) and exact.mat_mul on dense
  rational constants.
* mc_traces: ``simulate`` at N = 128, 500 replicas, one worker thread;
  the sampler and ensemble evaluation.
* mc_traces_threads: the same inputs with one worker thread per core;
  traces.csv must match a one-thread run byte for byte.
* spectral_ks: ``figure1`` at N = 512, 20 replicas per panel; eigvalsh,
  the quadrature CDF and KS (40,960 CDF calls).

Per-pass details, the environment, the stage-coverage report and span
files go to .perfbench_out/WORKLOAD/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import LAYER_METRICS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
PASS_TIMEOUT = 150.0
MAX_RUN = 160.0  # stop starting passes after this, so a run ends within 180 s

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "success_frac": "ratio"}


class PassFailed(Exception):
    pass


def run_pass(workload: str, seed: int, passdir: Path, mode: str,
             env: dict) -> dict:
    """One worker process in mode "0" (untraced), "1" (traced) or
    "setup"; returns its report plus setup_s."""
    if passdir.exists():
        shutil.rmtree(passdir)
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           workload, str(seed), str(passdir), mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed(f"pass timed out after {PASS_TIMEOUT} s")
    lines = rest.strip().splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or \
            (mode != "setup" and not lines):
        raise PassFailed(f"worker exited {proc.returncode}")
    report = json.loads(lines[-1]) if mode != "setup" else {}
    report["setup_s"] = setup
    return report


def check_pass(workload: str, seed: int, passdir: Path, report: dict,
               reference: bytes | None) -> list:
    """Failures of each command of the pass (an empty list is a pass)."""
    results = report["results"]
    if workload == "exact_words":
        return workloads.check_exact(seed, results)
    rc, out, _seconds = results[0]
    if rc != 0:
        return [[f"exit {rc}: {out.strip()}"]]
    if workload == "spectral_ks":
        return [workloads.check_spectral(passdir)]
    failures = workloads.check_mc(passdir)
    if reference is not None and \
            (passdir / "traces.csv").read_bytes() != reference:
        failures.append("traces.csv differs from the one-thread run")
    return [failures]


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "haarlab" / "__init__.py").is_file():
        print(f"error: no haarlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    wl, seed, trace = args.workload, args.seed, bool(args.trace)
    outdir = OUT / wl
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               **workloads.thread_env(wl))

    reference = None
    if wl == "mc_traces_threads":
        # the one-thread run whose traces.csv every pass must reproduce
        ref_env = dict(env, **workloads.thread_env("mc_traces"))
        ref_dir = outdir / "reference"
        try:
            run_pass(wl, seed, ref_dir, "0", ref_env)
            reference = (ref_dir / "traces.csv").read_bytes()
        except (PassFailed, OSError) as exc:
            print(f"FAIL {wl} reference run: {exc}", file=sys.stderr)
            reference = b""

    passes = []
    attempted = failed = 0
    start = time.perf_counter()
    setups = []
    while True:
        traced = trace and len(passes) % 2 == 0
        passdir = outdir / f"pass{len(passes)}"
        t0 = time.perf_counter()
        try:
            # one set-up-only probe per pass doubles the set-up samples
            setups.append(run_pass(wl, seed, passdir, "setup", env)["setup_s"])
            report = run_pass(wl, seed, passdir, "1" if traced else "0", env)
            failures = check_pass(wl, seed, passdir, report, reference)
        except (PassFailed, OSError, ValueError, KeyError) as exc:
            # missing or malformed output counts as a failed pass
            report = {"results": [], "error": repr(exc)}
            failures = [[repr(exc)]]
        report["traced"] = traced
        report["failures"] = failures
        passes.append(report)
        attempted += len(failures)
        failed += sum(1 for f in failures if f)
        for f in failures:
            for msg in f:
                print(f"FAIL {wl} pass {len(passes) - 1}: {msg}",
                      file=sys.stderr)
        elapsed = time.perf_counter() - start
        last = time.perf_counter() - t0
        enough = len(passes) >= (2 if trace else 1)
        if enough and (elapsed + last > args.seconds or elapsed > MAX_RUN):
            break

    ok = [p for p in passes if "wall_s" in p]
    if trace:
        on = [p for p in ok if p["traced"]]
        off = [p for p in ok if not p["traced"]]
        # median_low: a count stays the count one pass measured
        metrics = {name: {"value": statistics.median_low(
                              [p["layers"][name] for p in on]), "unit": unit}
                   for name, unit in LAYER_METRICS.items()
                   if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = {
            "value": median([p["wall_s"] for p in on])
            - median([p["wall_s"] for p in off]), "unit": "s"}
        layers = sorted({k for p in on for k in p["self_s_by_layer"]})
        coverage = {
            "untraced_wall_s": median([p["wall_s"] for p in off]),
            "traced_wall_s": median([p["wall_s"] for p in on]),
            "self_s_by_layer": {k: median([p["self_s_by_layer"].get(k, 0.0)
                                           for p in on]) for k in layers}}
    else:
        values = {k: median([p[k] for p in ok])
                  for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = median(setups + [p["setup_s"] for p in ok])
        values["success_frac"] = (attempted - failed) / attempted
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}

    env_record = dict(ok[0]["env"] if ok else {}, nproc=workloads.nproc(),
                      **workloads.thread_env(wl))
    record = {"workload": wl, "seed": seed, "seconds": args.seconds,
              "trace": int(trace), "environment": env_record,
              "setup_probes_s": setups,
              "stage_coverage": coverage if trace else None,
              "passes": [dict({k: v for k, v in p.items() if k != "results"},
                              command_s=[r[2] for r in p["results"]])
                         for p in passes],
              "metrics": metrics}
    (outdir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print("environment: " + json.dumps(env_record, sort_keys=True))
    if trace:
        selfs = ", ".join(f"{k} {v:.3f} s"
                          for k, v in coverage["self_s_by_layer"].items())
        print(f"stage coverage {wl}: self time by layer: {selfs}; "
              f"top-level spans cover "
              f"{metrics['trace.coverage']['value']:.1%} of the traced "
              f"wall {coverage['traced_wall_s']:.3f} s; tracing overhead "
              f"{metrics['trace.overhead_s']['value']:+.3f} s against "
              f"{coverage['untraced_wall_s']:.3f} s untraced")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
