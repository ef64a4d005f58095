"""Command-line front end.

Subcommands: wg (exact Weingarten tables), moment (exact trace-word
expectations with optional Monte Carlo cross-check), figure1 (spectral
histograms with reference-law overlays), simulate (trace statistics for
word lists), verify (acceptance suites).

Options can come from a JSON config file (--config); explicit flags win
over config values.  Exit codes: 0 success, 1 usage or parse problem,
2 capacity or domain problem, 3 I/O problem, 4 verification checks
failed.  HAARLAB_THREADS sets the replica workers of figure1, simulate
and moment --mc (default: the usable cores); each worker runs BLAS on
one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import verify as verify_mod
from .cumulants import BATCH_COUNT
from .densities import arcsine_law, kesten_mckay_law, pdf_table
from .emit import csv_bytes, json_bytes, svg_histogram
from .errors import CapacityError, DimensionError, HaarlabError, WordParseError
from .haar_expect import (ConstantLetter, HaarLetter, TraceProductExpr,
                          expected_trace_product, load_matrix_csv,
                          parse_trace_product)
from .rmt import (FIGURE1_ARCSINE, FIGURE1_SUM_LAW, STREAMS, Const, HaarU,
                  Variant, check_bins, check_run, histogram, ks_distance,
                  spectral_replicas, threading_summary, trace_observables,
                  word_product)
from .weingarten import dump_table_csv, wg_leading, wg_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_IO = 3
EXIT_CHECKS_FAILED = 4


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            cfg = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise WordParseError(f"cannot read config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise WordParseError("config root must be a JSON object")
    return cfg


def _merged(args: argparse.Namespace, cfg: dict, key: str, default=None,
            required: bool = False):
    """Flag value if given on the command line, else config, else default
    (a config null counts as absent).  A required value found in neither
    place is a usage error."""
    val = getattr(args, key, None)
    if val is None:
        val = cfg.get(key)
    if val is None:
        val = default
    if val is None and required:
        raise WordParseError(f"--{key} is required (flag or config key)")
    return val


def _int_option(args: argparse.Namespace, cfg: dict, key: str, default=None,
                required: bool = False, minimum: int | None = None):
    """_merged, read as an integer (None stays None).  A value that is
    not an integer, or one below minimum, is a usage error naming the
    key."""
    val = _merged(args, cfg, key, default, required)
    if val is None:
        return None
    try:
        num = int(val)
    except (TypeError, ValueError, OverflowError):
        num = None
    if num is None or isinstance(val, bool) or \
            (isinstance(val, float) and num != val):
        raise WordParseError(f"{key} must be an integer, got {val!r}")
    if minimum is not None and num < minimum:
        raise WordParseError(f"{key} must be at least {minimum}, got {num}")
    return num


def _str_option(args: argparse.Namespace, cfg: dict, key: str):
    """_merged as a string (None stays None), else a usage error."""
    val = _merged(args, cfg, key)
    if val is not None and not isinstance(val, str):
        raise WordParseError(f"{key} must be a string, got {val!r}")
    return val


def _load_constants(pairs, cfg: dict) -> dict:
    paths = {} if cfg.get("constants") is None else cfg["constants"]
    if not (isinstance(paths, dict)
            and all(isinstance(path, str) for path in paths.values())):
        raise WordParseError(
            f"constants must be an object of string paths, got {paths!r}")
    consts = {name: load_matrix_csv(path) for name, path in paths.items()}
    for item in pairs or []:
        if "=" not in item:
            raise WordParseError(
                f"--constant wants NAME=CSVPATH, got {item!r}")
        name, path = item.split("=", 1)
        consts[name] = load_matrix_csv(path)
    return consts


def _word_nodes(words) -> list:
    """rmt.word_product tree for each of the trace words.  Each constant
    name becomes one Const, converted once and shared by every
    occurrence in every word, and a transposed letter its
    Variant(const, -1, 1), so that rmt sees At as the transpose of A."""
    consts: dict = {}
    nodes = []
    for word in words:
        factors = []
        for letter in word.letters:
            if isinstance(letter, HaarLetter):
                factors.append(HaarU(letter.eps, letter.eta))
                continue
            name = letter.name
            if name not in consts:
                consts[name] = Const(name, _complex_matrix(letter))
            factors.append(Variant(consts[name], -1, 1) if letter.transpose
                           else consts[name])
        nodes.append(word_product(factors))
    return nodes


def _complex_matrix(letter: ConstantLetter) -> np.ndarray:
    """A constant letter's exact matrix, untransposed, in complex
    doubles, each part correctly rounded; an entry beyond the double
    range raises HaarlabError."""
    m = letter.matrix
    out = np.empty(m.shape, dtype=complex)
    try:
        out.real, out.imag = m.re / m.den, m.im / m.den
    except OverflowError:
        raise HaarlabError(f"constant {letter.name!r} has an entry too "
                           "large for a double") from None
    return out


def _mc_trace_product(expr: TraceProductExpr, replicas: int,
                      seed: int) -> tuple:
    """Monte Carlo mean and standard error of the trace product."""
    nodes = _word_nodes(expr.words)
    names = [f"factor {i + 1}" for i in range(len(nodes))]
    stats = trace_observables(list(zip(names, nodes)), expr.N, replicas,
                              seed, stream="moment")
    prod = np.ones(stats.replica_count, dtype=complex)
    # finite traces may still overflow in their product; cmd_moment then
    # refuses the mean, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
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
    n = _int_option(args, cfg, "n", required=True)
    N = _int_option(args, cfg, "N", required=True)
    kind = "pseudo-inverse" if N < n else "exact"
    print(f"# Weingarten table n={n} N={N} ({kind})")
    print(f"{'cycle_type':>12}  {'value':>24}  {'leading':>20}  ratio")
    for ctype, value in wg_table(n, N).items():
        lead = wg_leading(ctype, N)
        ratio = float(value / lead) if lead else float("nan")
        print(f"{'+'.join(map(str, ctype)):>12}  {str(value):>24}  "
              f"{str(lead):>20}  {ratio:.6f}")
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            dump_table_csv(fh, [(n, N)])
        print(f"wrote {args.dump}")
    return EXIT_OK


def cmd_moment(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    consts = _load_constants(args.constant, cfg)
    expr = parse_trace_product(args.word, consts, _int_option(args, cfg, "N"))
    replicas = _int_option(args, cfg, "mc", 0)
    if replicas:
        # checked before the exact value is computed or printed
        seed = _int_option(args, cfg, "seed", 0)
        check_run(expr.N, replicas, len(expr.words), seed)
    value = expected_trace_product(expr)
    print(f"exact: {value}")
    if replicas:
        mean, se = _mc_trace_product(expr, replicas, seed)
        try:
            dev = abs(mean - complex(value))
        except OverflowError:
            raise HaarlabError("the exact value is too large for a "
                               "double") from None
        if not math.isfinite(dev):
            raise HaarlabError("the Monte Carlo mean of the trace product "
                               "is not finite")
        print(f"monte carlo (R={replicas}, seed={seed}): "
              f"{mean.real:.8f}{mean.imag:+.8f}i +- {se:.8f} "
              f"(|dev| = {dev:.8f})")
    return EXIT_OK


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def cmd_figure1(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    N = _int_option(args, cfg, "N", 256)
    replicas = _int_option(args, cfg, "replicas", 10)
    seed = _int_option(args, cfg, "seed", 0)
    bins = _int_option(args, cfg, "bins", 60)
    outdir = _str_option(args, cfg, "outdir")
    if N < 32:
        raise DimensionError("figure1 wants N >= 32")
    check_run(N, replicas, N, seed, floor=1)
    check_bins(bins)
    if not outdir:
        raise WordParseError("figure1 needs --outdir")
    if not os.path.isdir(outdir):
        raise FileNotFoundError(f"output directory {outdir!r} does not exist")

    print(threading_summary(), file=sys.stderr)
    panels = [
        ("arcsine", arcsine_law(), FIGURE1_ARCSINE, "spectrum of U + U*"),
        ("sum_law", kesten_mckay_law(), FIGURE1_SUM_LAW,
         "spectrum of U + U* + (U + U*)^t"),
    ]
    summary = {"N": N, "replicas": replicas, "seed": seed, "bins": bins,
               "ks_tolerance_hint": 0.05, "files": []}
    for tag, law, node, title in panels:
        stream = f"figure1.{tag}"
        lam = np.sort(spectral_replicas(node, N, replicas, seed, stream),
                      axis=None)
        edges, dens = histogram(lam, bins, law.support)
        hist_rows = [(float(edges[i]), float(edges[i + 1]), float(dens[i]))
                     for i in range(len(dens))]
        overlay = pdf_table(law, 200)
        ks = ks_distance(lam, law.cdf)
        summary[f"ks_{tag}"] = ks
        summary[f"m2_{tag}"] = float(np.mean(lam ** 2))
        summary[f"m4_{tag}"] = float(np.mean(lam ** 4))
        summary[f"stream_{tag}"] = STREAMS[stream]
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
    N = _int_option(args, cfg, "N", required=True)
    replicas = _int_option(args, cfg, "replicas", 100)
    seed = _int_option(args, cfg, "seed", 0)
    outdir = _str_option(args, cfg, "outdir")
    consts = _load_constants(args.constant, cfg)
    words = _merged(args, cfg, "observables")
    if isinstance(words, str):
        words = [words]
    if not words:
        raise WordParseError("simulate needs observables "
                             "(config key \"observables\" or --word)")
    if not (isinstance(words, list) and all(isinstance(w, str) for w in words)):
        raise WordParseError("observables must be a string or a list of "
                             f"strings, got {words!r}")
    for i, text in enumerate(words):
        if text in words[:i]:
            raise WordParseError(f"observable {text!r} is given twice")
    # batch standard errors need two replicas per batch
    check_run(N, replicas, len(words), seed, floor=2 * BATCH_COUNT)
    if outdir and not os.path.isdir(outdir):
        raise FileNotFoundError(f"output directory {outdir!r} does not exist")

    exprs = []
    for text in words:
        exprs.append(parse_trace_product(text, consts, N))
        if len(exprs[-1].words) != 1:
            raise WordParseError(
                f"simulate observables are single trace factors, got {text!r}")
    nodes = _word_nodes(expr.words[0] for expr in exprs)
    print(threading_summary(), file=sys.stderr)
    exact_values = {}
    for text, expr in zip(words, exprs):
        try:
            exact_values[text] = str(expected_trace_product(expr))
        except CapacityError:
            exact_values[text] = "beyond exact-engine capacity"
    stats = trace_observables(list(zip(words, nodes)), N, replicas, seed,
                              stream="simulate")

    summary = {"N": N, "replicas": replicas, "seed": seed,
               "observables": {}}
    # finite traces may still overflow in their moments; json_bytes then
    # refuses the value by its key, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        cum = stats.cumulants(2)
        for i, (text, expr) in enumerate(zip(words, exprs), start=1):
            mean = stats.mean(text)
            if expr.words[0].normalized:
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

    summary_bytes = json_bytes(summary)
    if outdir:
        trace_path = os.path.join(outdir, "traces.csv")
        trace_bytes = csv_bytes(("observable", "replica", "re", "im"),
                                stats.csv_rows())
        _write(trace_path, trace_bytes)
        _write(os.path.join(outdir, "summary.json"), summary_bytes)
        print(f"wrote {trace_path}")
    else:
        sys.stdout.write(summary_bytes.decode())
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    seed = _int_option(args, {}, "seed", 0, minimum=0)
    if args.out:
        # an unwritable report path is refused before any check runs
        with open(args.out, "ab"):
            pass
    results = verify_mod.run_suite(args.suite, seed)
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
    except WordParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HaarlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
