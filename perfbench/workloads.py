"""The benchmark's workloads: inputs generated from a seed, the haarlab
commands that consume them, and the checks on what those commands write.

Every input a seed generates has an exact expected value that does not
depend on the seed, so any seed is checked as strictly as the default:

* ``E Tr(X^k) Tr(Y^k) = min(k, N)`` whenever X and Y are Haar letters of
  opposite conjugation (closed form);
* every other exact word is a recorded base word (``expected.json``,
  computed at the commit that introduced the benchmark) moved by exact
  symmetries of Haar measure: U -> U^t and U -> conj(U) applied to every
  letter at once, cyclic rotation of a trace factor, transposing a whole
  trace factor, reordering factors, and conjugating every constant by
  one signed permutation matrix P (U -> P U P^t is Haar again).

The seed changes which letters, rotations and constant entries a run
sees, never how many pairings or how large the constants are, so the
amount of work per pass is the same for every seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("exact_words", "mc_traces", "mc_traces_threads", "spectral_ks")

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

EPS_FLIP = {"U": "Ut", "Ut": "U", "Uc": "U*", "U*": "Uc"}
ETA_FLIP = {"U": "Uc", "Uc": "U", "Ut": "U*", "U*": "Ut"}
ETA = {"U": 1, "Ut": 1, "Uc": -1, "U*": -1}

# (id, word, N): Tr(X^k) Tr(Y^k) with closed form min(k, N).  The order-5
# product is 5!^2 = 14,400 (p, q) pairs; N = 3 < 4 is the pseudo-inverse
# Weingarten regime.
POWER_WORDS = (("power5_N8", 5, 8), ("power4_N3", 4, 3), ("power4_N8", 4, 8))

# (id, word, N) of mixed-variant order-4 words; N < 4 again covers the
# pseudo-inverse tables.
MIXED_WORDS = (
    ("mixed_N2", "Tr(U Ut Uc U* U Uc Ut U*)", 2),
    ("mixed_N3", "Tr(U Uc U U* Ut Uc U* Ut)", 3),
    ("mixed_pair_N8", "Tr(U U Ut Uc)Tr(U* U* Uc Ut)", 8),
    ("mixed_norm_N8", "tr(U Ut U* Uc)tr(U Uc Ut U*)", 8),
)

# (id, word, N): few Haar pairs, dense exact-rational constants, so the
# cost sits in exact.mat_mul rather than in the pairing sum.
CONSTANT_WORDS = (
    ("const2_N24", "Tr(U A U* Uc B Ut C)", 24),
    ("const2_N16", "Tr(U A Uc B U* C Ut D)", 16),
)

MC_N = 128
MC_REPLICAS = 500
MC_OBSERVABLES = ("tr(U A U* Uc At Ut)", "Tr(U)", "Tr(Uc)", "Tr(U Ut)",
                  "Tr(U U Uc Uc)")
MC_MEAN_SE = 5.0     # sample means within this many standard errors
MC_COV_SE = 4.0      # cov(Tr U, Tr Uc) within this many standard errors of 1

SPECTRAL_N = 512
SPECTRAL_REPLICAS = 20
KS_MAX = 0.05
M2_SUM_LAW, M2_TOL = 4.0, 0.15
M4_SUM_LAW, M4_TOL = 28.0, 1.5


def threads_for(workload: str) -> int:
    """HAARLAB_THREADS for a workload: 1, or one worker per core (at
    least two, so the thread pool path always runs)."""
    if workload == "mc_traces_threads":
        return max(2, nproc())
    return 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def thread_env(workload: str) -> dict:
    """Thread settings pinned for every pass, so the caller's shell
    cannot leak into the measurement.  BLAS gets its default of one
    thread per core, written out."""
    cores = str(nproc())
    return {"HAARLAB_THREADS": str(threads_for(workload)),
            "OPENBLAS_NUM_THREADS": cores, "OMP_NUM_THREADS": cores}


# ----------------------------------------------------------------------
# word transforms

def parse_word(text: str) -> list:
    """'Tr(U A)tr(Uc)' -> [('Tr', ['U', 'A']), ('tr', ['Uc'])]"""
    factors = []
    for chunk in text.split(")"):
        if chunk.strip():
            head, body = chunk.split("(")
            factors.append((head.strip(), body.split()))
    return factors


def format_word(factors) -> str:
    return "".join(f"{head}({' '.join(letters)})" for head, letters in factors)


def _transpose_letter(token: str) -> str:
    if token in EPS_FLIP:
        return EPS_FLIP[token]
    return token[:-1] if token.endswith("t") else token + "t"


def scramble_word(text: str, rng: random.Random) -> str:
    """An exactly equivalent word in expectation: global U -> U^t and
    U -> conj(U) flips, per-factor rotation and transpose, and factor
    order, all drawn from rng."""
    factors = parse_word(text)
    eps, eta = rng.random() < 0.5, rng.random() < 0.5
    out = []
    for head, letters in factors:
        if eps:
            letters = [EPS_FLIP.get(t, t) for t in letters]
        if eta:
            letters = [ETA_FLIP.get(t, t) for t in letters]
        k = rng.randrange(len(letters))
        letters = letters[k:] + letters[:k]
        if rng.random() < 0.5:
            letters = [_transpose_letter(t) for t in reversed(letters)]
        out.append((head, letters))
    rng.shuffle(out)
    return format_word(out)


def base_constant(N: int, k: int) -> list:
    """Dense rational N x N matrix number k, identical for every seed."""
    return [[Fraction(((i * 7 + j * 13 + k * 29) % 11) - 5,
                      1 + (i * 3 + j * 5 + k) % 7) for j in range(N)]
            for i in range(N)]


def conjugate_by_signed_permutation(m: list, perm: list, signs: list) -> list:
    """P^t M P for the signed permutation with P[perm[i], i] = signs[i]."""
    n = len(m)
    return [[signs[i] * signs[j] * m[perm[i]][perm[j]] for j in range(n)]
            for i in range(n)]


def matrix_csv(m: list) -> str:
    """Constant matrix in haarlab's CSV format (1-based, zeros omitted)."""
    buf = io.StringIO()
    buf.write("row,col,re_num,re_den,im_num,im_den\n")
    for i, row in enumerate(m, start=1):
        for j, x in enumerate(row, start=1):
            if x:
                buf.write(f"{i},{j},{x.numerator},{x.denominator},0,1\n")
    return buf.getvalue()


def constant_names(text: str) -> list:
    names = []
    for _head, letters in parse_word(text):
        for t in letters:
            if t not in ETA:
                name = t[:-1] if t.endswith("t") else t
                if name not in names:
                    names.append(name)
    return names


# ----------------------------------------------------------------------
# inputs

def exact_inputs(seed: int) -> list:
    """[(id, word, N, {name: matrix}, expected value string)] for one seed."""
    rng = random.Random(seed)
    items = []
    letters = list(ETA)
    for ident, k, N in POWER_WORDS:
        x = rng.choice(letters)
        y = rng.choice([t for t in letters if ETA[t] == -ETA[x]])
        factors = [("Tr", [x] * k), ("Tr", [y] * k)]
        rng.shuffle(factors)
        items.append((ident, format_word(factors), N, {}, str(min(k, N))))
    for ident, text, N in MIXED_WORDS:
        items.append((ident, scramble_word(text, rng), N, {},
                      EXPECTED["exact_words"][ident]))
    for ident, text, N in CONSTANT_WORDS:
        perm = list(range(N))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(N)]
        consts = {name: conjugate_by_signed_permutation(
                      base_constant(N, k + 1), perm, signs)
                  for k, name in enumerate(constant_names(text))}
        items.append((ident, scramble_word(text, rng), N, consts,
                      EXPECTED["exact_words"][ident]))
    return items


def balanced_diagonal(N: int, seed: int) -> list:
    """+-1 diagonal with N/2 of each sign, in a seed-chosen order."""
    diag = [1] * (N // 2) + [-1] * (N - N // 2)
    random.Random(seed).shuffle(diag)
    return [[Fraction(diag[i]) if i == j else Fraction(0) for j in range(N)]
            for i in range(N)]


def prepare(workload: str, seed: int, passdir: Path) -> list:
    """Write the workload's generated inputs under passdir and return the
    haarlab argv list, one entry per command of a pass."""
    passdir.mkdir(parents=True, exist_ok=True)
    if workload == "exact_words":
        commands = []
        for ident, word, N, consts, _expected in exact_inputs(seed):
            argv = ["moment", word, "--N", str(N)]
            for name, m in consts.items():
                path = passdir / f"{ident}_{name}.csv"
                path.write_text(matrix_csv(m))
                argv += ["--constant", f"{name}={path}"]
            commands.append(argv)
        return commands
    if workload in ("mc_traces", "mc_traces_threads"):
        a_path = passdir / "A.csv"
        a_path.write_text(matrix_csv(balanced_diagonal(MC_N, seed)))
        config = {"N": MC_N, "replicas": MC_REPLICAS, "seed": seed,
                  "observables": list(MC_OBSERVABLES),
                  "constants": {"A": str(a_path)}}
        cfg_path = passdir / "run.json"
        cfg_path.write_text(json.dumps(config))
        return [["simulate", "--config", str(cfg_path),
                 "--outdir", str(passdir)]]
    if workload == "spectral_ks":
        return [["figure1", "--N", str(SPECTRAL_N), "--replicas",
                 str(SPECTRAL_REPLICAS), "--seed", str(seed),
                 "--outdir", str(passdir)]]
    raise KeyError(workload)


# ----------------------------------------------------------------------
# checks: failure descriptions, an empty list when a command passed

def check_exact(seed: int, results: list) -> list:
    """results[i] = (exit code, stdout, seconds) of exact command i;
    returns the failures of each command."""
    failures = []
    for (ident, word, N, _c, expected), (rc, out, _s) in zip(
            exact_inputs(seed), results):
        got = next((line[len("exact: "):] for line in out.splitlines()
                    if line.startswith("exact: ")), None)
        failures.append([] if rc == 0 and got == expected else
                        [f"{ident} {word} @N={N}: exit {rc}, "
                         f"got {got!r}, want {expected!r}"])
    return failures


def read_traces(path: Path) -> dict:
    """observable -> list of complex per-replica traces from traces.csv."""
    rows: dict = {}
    with open(path, newline="") as fh:
        for name, _replica, re, im in list(csv.reader(fh))[1:]:
            rows.setdefault(name, []).append(complex(float(re), float(im)))
    return rows


def _se(values: list) -> float:
    n = len(values)
    mean = sum(values) / n
    var = sum(abs(v - mean) ** 2 for v in values) / (n - 1)
    return math.sqrt(var / n)


def check_mc(passdir: Path) -> list:
    """Gates on one simulate pass: exact values as recorded, each sample
    mean within MC_MEAN_SE standard errors of it, and cov(Tr U, Tr Uc)
    within MC_COV_SE standard errors of 1."""
    failures = []
    summary = json.loads((passdir / "summary.json").read_text())
    traces = read_traces(passdir / "traces.csv")
    for word in MC_OBSERVABLES:
        obs = summary["observables"][word]
        want = EXPECTED["mc_traces"][word]
        if obs["exact"] != want:
            failures.append(f"{word}: exact {obs['exact']!r}, want {want!r}")
            continue
        scale = MC_N if word.startswith("tr") else 1
        se = _se(traces[word]) / scale
        # every recorded value here is real
        dev = abs(complex(obs["mean_re"], obs["mean_im"])
                  - float(Fraction(want)))
        if dev > MC_MEAN_SE * se:
            failures.append(f"{word}: mean off by {dev:.3g} > "
                            f"{MC_MEAN_SE} x SE {se:.3g}")
    x, y = traces["Tr(U)"], traces["Tr(Uc)"]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    se = _se([(a - mx) * (b - my) for a, b in zip(x, y)])
    cov = complex(*summary["cov_Tr(Tr(U),Tr(Uc))"])
    if abs(cov - 1) > MC_COV_SE * se:
        failures.append(f"cov(Tr U, Tr Uc) = {cov:.4g}, more than "
                        f"{MC_COV_SE} x SE {se:.3g} from 1")
    return failures


def check_spectral(passdir: Path) -> list:
    """The spectral-law gates of acceptance check 09 on summary.json."""
    s = json.loads((passdir / "summary.json").read_text())
    failures = [f"{k} = {s[k]:.4g} >= {KS_MAX}"
                for k in ("ks_arcsine", "ks_sum_law") if s[k] >= KS_MAX]
    if abs(s["m2_sum_law"] - M2_SUM_LAW) >= M2_TOL:
        failures.append(f"m2_sum_law = {s['m2_sum_law']:.4g}")
    if abs(s["m4_sum_law"] - M4_SUM_LAW) >= M4_TOL:
        failures.append(f"m4_sum_law = {s['m4_sum_law']:.4g}")
    missing = [f for f in s["files"] if not os.path.isfile(f)]
    if missing:
        failures.append(f"missing outputs {missing}")
    return failures
