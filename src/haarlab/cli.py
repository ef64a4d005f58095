"""Command-line front end.

Subcommands: wg (exact Weingarten tables), moment (exact trace-word
expectations with optional Monte Carlo cross-check), figure1 (spectral
histograms with reference-law overlays), simulate (trace statistics for
word lists), verify (acceptance suites).

Options can come from a JSON config file (--config); explicit flags win
over config values.  Exit codes: 0 success, 1 usage or parse problem,
2 capacity or domain problem, 3 I/O problem, 4 verification checks
failed.  HAARLAB_THREADS caps simulation workers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import verify as verify_mod
from .densities import arcsine_law, kesten_mckay_law, pdf_table
from .emit import csv_bytes, json_bytes, svg_histogram
from .errors import (CapacityError, DimensionError, HaarlabError,
                     InsufficientSamplesError, NoReductionError,
                     NotSelfAdjointError, WordParseError)
from .exact import to_complex_rows
from .haar_expect import (HaarLetter, TraceProductExpr,
                          expected_trace_product, load_matrix_csv,
                          parse_trace_product)
from .rmt import (Const, EnsembleSpec, HaarU, Product, Sum, Variant,
                  histogram, ks_distance, pooled_eigenvalues,
                  spectral_replicas, trace_observables)
from .weingarten import (dump_table_csv, integer_partitions, wg_leading,
                         wg_table)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_IO = 3
EXIT_CHECKS_FAILED = 4


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise WordParseError("config root must be a JSON object")
    return cfg


def _merged(args: argparse.Namespace, cfg: dict, key: str, default=None,
            required: bool = False):
    """Flag value if given on the command line, else config, else default.
    A required value found in neither place is a usage error."""
    val = getattr(args, key, None)
    if val is None:
        val = cfg.get(key, default)
    if val is None and required:
        raise WordParseError(f"--{key} is required (flag or config key)")
    return val


def _load_constants(pairs, cfg: dict) -> dict:
    consts = {}
    for name, path in (cfg.get("constants") or {}).items():
        consts[name] = load_matrix_csv(path)
    for item in pairs or []:
        if "=" not in item:
            raise WordParseError(
                f"--constant wants NAME=CSVPATH, got {item!r}")
        name, path = item.split("=", 1)
        consts[name] = load_matrix_csv(path)
    return consts


def _word_nodes(expr: TraceProductExpr) -> list:
    """rmt observable tree for each trace factor of a parsed expression."""
    nodes = []
    for word in expr.words:
        factors = []
        for letter in word.letters:
            if isinstance(letter, HaarLetter):
                factors.append(HaarU(letter.eps, letter.eta))
            else:
                factors.append(Const(
                    letter.name,
                    np.array(to_complex_rows(letter.resolved()))))
        nodes.append(factors[0] if len(factors) == 1
                     else Product(tuple(factors)))
    return nodes


def _mc_trace_product(expr: TraceProductExpr, replicas: int,
                      seed: int) -> tuple:
    """Monte Carlo mean and standard error of the trace product."""
    nodes = _word_nodes(expr)
    names = [f"w{i}" for i in range(len(nodes))]
    stats = trace_observables(list(zip(names, nodes)), expr.N, replicas, seed)
    prod = np.ones(stats.replica_count, dtype=complex)
    for name, word in zip(names, expr.words):
        row = stats.row(name)
        prod = prod * (row / expr.N if word.normalized else row)
    mean = complex(np.mean(prod))
    se = float(np.std(prod) / math.sqrt(stats.replica_count))
    return mean, se


# ----------------------------------------------------------------------
# subcommands

def cmd_wg(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    n = int(_merged(args, cfg, "n", required=True))
    N = int(_merged(args, cfg, "N", required=True))
    tbl = wg_table(n, N)
    kind = "pseudo-inverse" if tbl.pseudo else "exact"
    print(f"# Weingarten table n={n} N={N} ({kind})")
    print(f"{'cycle_type':>12}  {'value':>24}  {'leading':>20}  ratio")
    for ctype in integer_partitions(n):
        value = tbl[ctype]
        lead = wg_leading(ctype, n, N)
        ratio = float(value / lead) if lead else float("nan")
        print(f"{'+'.join(map(str, ctype)):>12}  {str(value):>24}  "
              f"{str(lead):>20}  {ratio:.6f}")
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            dump_table_csv(fh, [tbl])
        print(f"wrote {args.dump}")
    return EXIT_OK


def cmd_moment(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    consts = _load_constants(args.constant, cfg)
    n_dim = _merged(args, cfg, "N")
    expr = parse_trace_product(args.word, consts,
                               int(n_dim) if n_dim is not None else None)
    value = expected_trace_product(expr)
    print(f"exact: {value}")
    replicas = int(_merged(args, cfg, "mc", 0) or 0)
    if replicas:
        seed = int(_merged(args, cfg, "seed", 0))
        mean, se = _mc_trace_product(expr, replicas, seed)
        dev = abs(mean - complex(value))
        print(f"monte carlo (R={replicas}, seed={seed}): "
              f"{mean.real:.8f}{mean.imag:+.8f}i +- {se:.8f} "
              f"(|dev| = {dev:.8f})")
    return EXIT_OK


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def cmd_figure1(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    N = int(_merged(args, cfg, "N", 256))
    replicas = int(_merged(args, cfg, "replicas", 10))
    seed = int(_merged(args, cfg, "seed", 0))
    bins = int(_merged(args, cfg, "bins", 60))
    outdir = _merged(args, cfg, "outdir")
    if N < 32:
        raise DimensionError("figure1 wants N >= 32")
    if not outdir:
        raise WordParseError("figure1 needs --outdir")
    if not os.path.isdir(outdir):
        raise FileNotFoundError(f"output directory {outdir!r} does not exist")

    sym = Sum((HaarU(), HaarU(-1, -1)))
    panels = [
        ("arcsine", arcsine_law(), EnsembleSpec(N, sym),
         seed, "spectrum of U + U*"),
        ("sum_law", kesten_mckay_law(),
         EnsembleSpec(N, Sum((sym, Variant(sym, -1, 1)))),
         seed ^ 0x5A5A, "spectrum of U + U* + (U + U*)^t"),
    ]
    summary = {"N": N, "replicas": replicas, "seed": seed, "bins": bins,
               "ks_tolerance_hint": 0.05, "files": []}
    for tag, law, spec, panel_seed, title in panels:
        samples = spectral_replicas(spec, replicas, panel_seed)
        edges, dens = histogram(samples, bins, law.support)
        hist_rows = [(float(edges[i]), float(edges[i + 1]), float(dens[i]))
                     for i in range(len(dens))]
        overlay = pdf_table(law, 200)
        lam = pooled_eigenvalues(samples)
        ks = ks_distance(samples, law.cdf)
        summary[f"ks_{tag}"] = ks
        summary[f"m2_{tag}"] = float(np.mean(lam ** 2))
        summary[f"m4_{tag}"] = float(np.mean(lam ** 4))
        summary[f"seed_{tag}"] = panel_seed
        hist_path = os.path.join(outdir, f"hist_{tag}.csv")
        over_path = os.path.join(outdir, f"overlay_{tag}.csv")
        svg_path = os.path.join(outdir, f"fig_{tag}.svg")
        _write(hist_path, csv_bytes(("bin_left", "bin_right", "density"),
                                    hist_rows))
        _write(over_path, csv_bytes(("x", "pdf"),
                                    [(float(x), float(y))
                                     for x, y in overlay]))
        _write(svg_path, svg_histogram(edges, dens, overlay, title))
        summary["files"] += [hist_path, over_path, svg_path]
        print(f"{tag}: KS = {ks:.5f} -> {svg_path}")
    _write(os.path.join(outdir, "summary.json"), json_bytes(summary))
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    N = int(_merged(args, cfg, "N", required=True))
    replicas = int(_merged(args, cfg, "replicas", 100))
    seed = int(_merged(args, cfg, "seed", 0))
    outdir = _merged(args, cfg, "outdir")
    consts = _load_constants(args.constant, cfg)
    words = _merged(args, cfg, "observables")
    if not words:
        raise WordParseError("simulate needs observables "
                             "(config key \"observables\" or --word)")
    if isinstance(words, str):
        words = [words]

    observables = []
    exact_values = {}
    norm = {}
    for text in words:
        expr = parse_trace_product(text, consts, N)
        if len(expr.words) != 1:
            raise WordParseError(
                f"simulate observables are single trace factors, got {text!r}")
        norm[text] = expr.words[0].normalized
        observables.append((text, _word_nodes(expr)[0]))
        try:
            exact_values[text] = str(expected_trace_product(expr))
        except CapacityError:
            exact_values[text] = "beyond exact-engine capacity"
    stats = trace_observables(observables, N, replicas, seed)

    summary = {"N": N, "replicas": replicas, "seed": seed,
               "threads_env": os.environ.get("HAARLAB_THREADS", "1"),
               "observables": {}}
    cum = stats.cumulants(2)
    for i, text in enumerate(words, start=1):
        mean = complex(np.mean(stats.row(text)))
        if norm[text]:
            mean /= N
        summary["observables"][text] = {
            "exact": exact_values[text],
            "mean_re": mean.real, "mean_im": mean.imag,
            "k2_Tr": abs(cum((i, i))),
            "k2_se": cum.se((i, i)),
        }
    for i in range(1, len(words) + 1):
        for j in range(i + 1, len(words) + 1):
            cov = complex(cum((i, j)))
            summary[f"cov_Tr({words[i-1]},{words[j-1]})"] = \
                [cov.real, cov.imag]

    if outdir:
        if not os.path.isdir(outdir):
            raise FileNotFoundError(
                f"output directory {outdir!r} does not exist")
        trace_path = os.path.join(outdir, "traces.csv")
        _write(trace_path, csv_bytes(("observable", "replica", "re", "im"),
                                     stats.csv_rows()))
        _write(os.path.join(outdir, "summary.json"), json_bytes(summary))
        print(f"wrote {trace_path}")
    else:
        sys.stdout.write(json_bytes(summary).decode())
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    seed = int(args.seed or 0)
    try:
        results = verify_mod.run_suite(args.suite, seed)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return EXIT_USAGE
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok = all_ok and r.passed
        print(f"{status}  {r.name:30} {r.runtime:8.2f}s  tol={r.tolerance}")
        if not r.passed:
            print(f"      expected: {r.expected}")
            print(f"      observed: {r.observed}")
    payload = {"suite": args.suite, "seed": seed,
               "passed": all_ok,
               "checks": [r.as_dict() for r in results]}
    if args.out:
        _write(args.out, json_bytes(payload))
        print(f"report: {args.out}")
    print(f"suite {args.suite}: {'all passed' if all_ok else 'FAILURES'}")
    return EXIT_OK if all_ok else EXIT_CHECKS_FAILED


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haarlab",
        description="Exact Haar-unitary moment engine and random-matrix "
                    "verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_wg = sub.add_parser("wg", help="print an exact Weingarten table")
    p_wg.add_argument("--n", type=int, help="tensor order")
    p_wg.add_argument("--N", type=int, help="matrix dimension")
    p_wg.add_argument("--dump", help="also write the table as CSV")
    p_wg.add_argument("--config", help="JSON config file")
    p_wg.set_defaults(func=cmd_wg)

    p_m = sub.add_parser("moment", help="exact expectation of a trace word")
    p_m.add_argument("word", help='e.g. "Tr(U A U*)tr(U Uc)"')
    p_m.add_argument("--N", type=int, help="matrix dimension")
    p_m.add_argument("--constant", action="append", metavar="NAME=CSV",
                     help="constant matrix from a CSV of exact rationals")
    p_m.add_argument("--mc", type=int, help="Monte Carlo replicas")
    p_m.add_argument("--seed", type=int)
    p_m.add_argument("--config", help="JSON config file")
    p_m.set_defaults(func=cmd_moment)

    p_f = sub.add_parser("figure1",
                         help="spectral histograms vs reference laws")
    p_f.add_argument("--N", type=int)
    p_f.add_argument("--replicas", type=int)
    p_f.add_argument("--seed", type=int)
    p_f.add_argument("--bins", type=int)
    p_f.add_argument("--outdir")
    p_f.add_argument("--config", help="JSON config file")
    p_f.set_defaults(func=cmd_figure1)

    p_s = sub.add_parser("simulate", help="trace statistics for word lists")
    p_s.add_argument("--N", type=int)
    p_s.add_argument("--replicas", type=int)
    p_s.add_argument("--seed", type=int)
    p_s.add_argument("--word", action="append", dest="observables",
                     help="observable word (repeatable)")
    p_s.add_argument("--constant", action="append", metavar="NAME=CSV")
    p_s.add_argument("--outdir")
    p_s.add_argument("--config", help="JSON config file")
    p_s.set_defaults(func=cmd_simulate)

    p_v = sub.add_parser("verify", help="run an acceptance suite")
    p_v.add_argument("suite", nargs="?", default="all",
                     help="exact, mc, or all")
    p_v.add_argument("--seed", type=int, default=0)
    p_v.add_argument("--out", help="write the JSON report here")
    p_v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (WordParseError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapacityError, DimensionError, NoReductionError,
            NotSelfAdjointError, InsufficientSamplesError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except HaarlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
