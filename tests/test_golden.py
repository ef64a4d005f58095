"""Recorded exact outputs: the `verify exact` report, the Weingarten
tables and `moment` on the benchmark's exact_words words, regenerated
in-process and compared byte for byte.

All are exact rationals or exact verdicts, so they do not depend on
the platform.  `PYTHONPATH=src python tests/test_golden.py` rewrites
the files; a change that alters them says why in CHANGES.md.
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from haarlab import cli
from haarlab.emit import json_bytes
from haarlab.verify import run_suite
from haarlab.weingarten import dump_table_csv, wg_table

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
    dump_table_csv(out, [wg_table(n, N) for n in range(1, 7)
                         for N in range(1, 9)])
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


RECORDED = {"verify_exact.json": verify_exact_bytes,
            "wg_tables.csv": wg_tables_bytes,
            "moment_exact_words.txt": moment_exact_words_bytes}


def _recorded(name: str) -> bytes:
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        return fh.read()


def test_verify_exact_report_matches_recording():
    assert verify_exact_bytes() == _recorded("verify_exact.json")


def test_wg_tables_match_recording():
    assert wg_tables_bytes() == _recorded("wg_tables.csv")


def test_moment_on_exact_words_matches_recording(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    assert moment_exact_words_bytes() == _recorded("moment_exact_words.txt")


if __name__ == "__main__":
    sys.path.insert(0, str(PERFBENCH))
    os.makedirs(GOLDEN, exist_ok=True)
    for name, make in RECORDED.items():
        with open(os.path.join(GOLDEN, name), "wb") as fh:
            fh.write(make())
        print(f"wrote {os.path.join(GOLDEN, name)}")
