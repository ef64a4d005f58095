"""Recorded outputs, regenerated in-process and compared with the files
under tests/golden.

Exact outputs (the `verify exact` report, the Weingarten tables and
`moment` on the benchmark's exact_words words) are exact rationals or
exact verdicts, so they are compared byte for byte everywhere.

Monte Carlo outputs (`simulate` at N = 16 and 128, `figure1` at
N = 32) depend on the OpenBLAS kernels picked for the CPU, so they are
recorded with an environment fingerprint: the numpy version and each
loaded OpenBLAS library's configuration and core name.  On the
recorded fingerprint they are compared byte for byte; on any other,
every number within MC_RTOL (relative) or MC_ATOL (absolute) and all
other text exactly, with a warning that says so.

`PYTHONPATH=src python tests/test_golden.py` rewrites every file; a
change that alters one says which and why in CHANGES.md.
"""

import contextlib
import ctypes
import functools
import io
import json
import math
import os
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from haarlab import cli, rmt
from haarlab.emit import json_bytes
from haarlab.verify import run_suite
from haarlab.weingarten import dump_table_csv

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def verify_exact_bytes() -> bytes:
    """The `haarlab verify exact --seed 0 --out` report without runtimes."""
    checks = []
    for result in run_suite("exact", 0):
        entry = result.as_dict()
        del entry["runtime"]
        checks.append(entry)
    return json_bytes({"suite": "exact", "seed": 0,
                       "passed": all(c["passed"] for c in checks),
                       "checks": checks})


def wg_tables_bytes() -> bytes:
    """`dump_table_csv` of the tables for n = 1..6 and N = 1..8."""
    out = io.StringIO()
    dump_table_csv(out, [(n, N) for n in range(1, 7) for N in range(1, 9)])
    return out.getvalue().encode()


def moment_exact_words_bytes() -> bytes:
    """One line per exact_words command of perfbench/workloads.py at seed
    0: id, word, N and the `exact:` line `moment` prints, tab-separated.
    The constants go to a temporary directory.  perfbench must be on
    sys.path."""
    import workloads
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        commands = workloads.prepare("exact_words", 0, Path(tmp))
        for (ident, word, N, _c, _e), argv in zip(workloads.exact_inputs(0),
                                                  commands):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(argv) == 0
            exact = next(line for line in out.getvalue().splitlines()
                         if line.startswith("exact: "))
            lines.append(f"{ident}\t{word}\t{N}\t{exact}\n")
    return "".join(lines).encode()


def _run(argv: list, outdir: str) -> dict:
    """{file name: bytes} of what `haarlab argv --outdir outdir` writes,
    with outdir dropped from the paths printed inside the files."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv + ["--outdir", outdir]) == 0
    prefix = (outdir + os.sep).encode()
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = fh.read().replace(prefix, b"")
    return out


def _simulate(config: dict, a_csv: str) -> dict:
    """{file name: bytes} of `simulate` on the config, with the constant
    A read from a_csv."""
    with tempfile.TemporaryDirectory() as tmp:
        a_path = os.path.join(tmp, "A.csv")
        with open(a_path, "w", encoding="utf-8") as fh:
            fh.write(a_csv)
        cfg_path = os.path.join(tmp, "run.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({**config, "constants": {"A": a_path}}, fh)
        out = os.path.join(tmp, "out")
        os.mkdir(out)
        return _run(["simulate", "--config", cfg_path], out)


@functools.lru_cache(maxsize=None)
def simulate_outputs() -> dict:
    """`simulate` on the mc_traces observables of perfbench/workloads.py
    at N = 16, 20 replicas, seed 1, with A the seed-0 balanced +-1
    diagonal.  perfbench must be on sys.path."""
    import workloads
    return _simulate({"N": 16, "replicas": 20, "seed": 1,
                      "observables": list(workloads.MC_OBSERVABLES)},
                     workloads.matrix_csv(workloads.balanced_diagonal(16, 0)))


# A word mirrored under each variant of its first half (itself, its
# transpose, conjugate and adjoint), the rotated tr(A U* Uc At Ut U), a
# word with At that is not mirrored, and a bare Uc
MIRROR_WORDS = ("Tr(U A U A)", "tr(U A U* Uc At Ut)", "Tr(U U Uc Uc)",
                "Tr(U A U A At U* At U*)", "tr(A U* Uc At Ut U)",
                "Tr(U A U* At)", "Tr(Uc)")


@functools.lru_cache(maxsize=None)
def simulate128_outputs() -> dict:
    """`simulate` on MIRROR_WORDS at N = 128, 20 replicas, seed 1, with
    A the dense real matrix of entries (i j + i) mod 7 - 3.  From
    N = 128 on, numpy reuses a complex N x N temporary as the result
    array of an elementwise product, and the result's memory order sets
    the order in which a trace sums it, so these bytes can move where
    the N = 16 ones do not."""
    n = 128
    a_csv = "".join(f"{i},{j},{(i * j + i) % 7 - 3},1,0,1\n"
                    for i in range(1, n + 1) for j in range(1, n + 1))
    return _simulate({"N": n, "replicas": 20, "seed": 1,
                      "observables": list(MIRROR_WORDS)}, a_csv)


@functools.lru_cache(maxsize=None)
def figure1_outputs() -> dict:
    """`figure1 --N 32 --replicas 2 --seed 1`, every file it writes."""
    with tempfile.TemporaryDirectory() as tmp:
        return _run(["figure1", "--N", "32", "--replicas", "2", "--seed",
                     "1"], tmp)


def _openblas_symbol(lib, what: str):
    """lib's openblas_<what> under the plain or the scipy-openblas name."""
    for name in (f"openblas_{what}", f"scipy_openblas_{what}64_",
                 f"scipy_openblas_{what}"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return "unknown"


def environment_fingerprint() -> dict:
    """What Monte Carlo bytes depend on besides the seed: the numpy
    version, and the runtime configuration and core name (the kernels
    DYNAMIC_ARCH picked for this CPU) of each OpenBLAS loaded from
    numpy's own directories (scipy's copy, once some test has imported
    it, serves no numpy call)."""
    home = os.path.dirname(np.__file__)
    libs = [ctypes.CDLL(path) for path in rmt.openblas_libraries()
            if path.startswith(home)]
    return {"numpy": np.__version__,
            "openblas": [{"config": _openblas_symbol(lib, "get_config"),
                          "core": _openblas_symbol(lib, "get_corename")}
                         for lib in libs]}


def fingerprint_bytes() -> bytes:
    return json_bytes(environment_fingerprint())


MC_COMMANDS = {"simulate": simulate_outputs,
               "simulate128": simulate128_outputs,
               "figure1": figure1_outputs}
FINGERPRINT = "mc_fingerprint.json"

RECORDED = {"verify_exact.json": verify_exact_bytes,
            "wg_tables.csv": wg_tables_bytes,
            "moment_exact_words.txt": moment_exact_words_bytes,
            FINGERPRINT: fingerprint_bytes}


def _recorded(name: str) -> bytes:
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        return fh.read()


def _recorded_mc(command: str) -> dict:
    """{file name: bytes} recorded for command, stored as
    golden/<command>_<file name>."""
    prefix = f"{command}_"
    return {name[len(prefix):]: _recorded(name)
            for name in sorted(os.listdir(GOLDEN)) if name.startswith(prefix)}


MC_RTOL = 1e-9
MC_ATOL = 1e-9
_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def numbers_close(got: bytes, want: bytes) -> bool:
    """The same text around the numbers, and each number of got within
    MC_RTOL or MC_ATOL of want's."""
    if _NUMBER.split(got) != _NUMBER.split(want):
        return False
    return all(math.isclose(float(a), float(b), rel_tol=MC_RTOL,
                            abs_tol=MC_ATOL)
               for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)))


def test_verify_exact_report_matches_recording():
    assert verify_exact_bytes() == _recorded("verify_exact.json")


def test_wg_tables_match_recording():
    assert wg_tables_bytes() == _recorded("wg_tables.csv")


def test_moment_on_exact_words_matches_recording(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    assert moment_exact_words_bytes() == _recorded("moment_exact_words.txt")


@pytest.mark.parametrize("command", sorted(MC_COMMANDS))
def test_monte_carlo_outputs_match_recording(command, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    got, want = MC_COMMANDS[command](), _recorded_mc(command)
    assert sorted(got) == sorted(want)
    if fingerprint_bytes() == _recorded(FINGERPRINT):
        assert got == want
        return
    warnings.warn(f"{command}: environment differs from {FINGERPRINT}; "
                  f"numbers compared within relative {MC_RTOL} or "
                  f"absolute {MC_ATOL}, not byte for byte")
    assert [name for name in want
            if not numbers_close(got[name], want[name])] == []


def test_tolerant_comparison():
    """The comparison used off the recorded fingerprint: rounding-level
    moves pass, a changed digit or changed text does not."""
    want = b"observable,replica,re,im\nTr(U),0,0.5,-1.25e-3\n"
    assert numbers_close(want, want)
    assert numbers_close(b"observable,replica,re,im\nTr(U),0,"
                         b"0.5000000000001,-1.2500000000001e-3\n", want)
    assert not numbers_close(b"observable,replica,re,im\nTr(U),0,0.5001,"
                             b"-1.25e-3\n", want)
    assert not numbers_close(b"observable,replica,RE,im\nTr(U),0,0.5,"
                             b"-1.25e-3\n", want)
    assert not numbers_close(want + b"Tr(U),1,0,0\n", want)


if __name__ == "__main__":
    sys.path.insert(0, str(PERFBENCH))
    os.makedirs(GOLDEN, exist_ok=True)
    for name, make in RECORDED.items():
        with open(os.path.join(GOLDEN, name), "wb") as fh:
            fh.write(make())
        print(f"wrote {os.path.join(GOLDEN, name)}")
    for command, make in MC_COMMANDS.items():
        for name, data in make().items():
            path = os.path.join(GOLDEN, f"{command}_{name}")
            with open(path, "wb") as fh:
                fh.write(data)
            print(f"wrote {path}")
