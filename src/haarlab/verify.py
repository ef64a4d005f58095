"""The acceptance checks behind `haarlab verify`: twelve numbered
criteria combining exact finite-N identities, oracle equivalences, and
tolerance-scaled Monte Carlo runs.

A check is a plain function of the seed that returns its outcome, the
tuple (claim, expected, observed, tolerance, passed).  CHECKS maps each
check's name to the check wrapped by _recorded, which times it and
returns a CheckResult carrying that outcome, the seed it was given and
the wall time.  The checks that never use their seed still record it.
Suites: "exact" for the deterministic checks, "mc" for everything
stochastic, "all" for both; a new check is one function here plus one
entry in EXACT or MONTE_CARLO.  check_suite refuses a bad run before
any check: the suite name, then the seed, then, for a suite with Monte
Carlo checks, HAARLAB_THREADS.

Words are written in the grammar users type: exact words go through
_exact, which parses and evaluates them, and Monte Carlo words through
_sampled, which samples the trees word_nodes builds for `moment --mc`
and `simulate`.  Check 04 is written in words throughout: its entries
are values of the word Tr(U B)Tr(Uc C), since u_rc = Tr(U E_cr), and
its orthogonal rotation O is one more constant, written Ot X O around
each constant X.  Check 03 traces its pairings with the kernel's public
pairing_trace, and check 09 samples figure 1's trees.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .combinat import cycle_type, enumerate_pairings
from .cumulants import (CumulantFunctional, MomentFunctional,
                        cumulants_to_moments, moments_to_cumulants, multisets)
from .densities import (arcsine_law, free_self_convolution, kesten_mckay_law,
                        moment_by_quadrature)
from .exact import QC, QC_ONE, QC_ZERO, QCMatrix, identity_qc, qc_matrix
from .haar_expect import (VARIANT_NAMES, ConstantLetter, HaarLetter,
                          expected_trace_product, first_order_limit,
                          pairing_trace, parse_trace_product)
from .rmt import (FIGURE1_ARCSINE, FIGURE1_SUM_LAW, Const, HaarU, Variant,
                  TraceStatistics, histogram, ks_distance, spectral_replicas,
                  trace_observables, word_product, worker_count)
from .second_order import (FirstOrderTable, complex_spoke_prediction,
                           real_spoke_prediction)
from .weingarten import gram_entry, integer_partitions, wg_leading, wg_table
from .emit import csv_bytes
from .errors import HaarlabError, WordParseError, require_int


@dataclass
class CheckResult:
    name: str
    claim: str
    expected: str
    observed: str
    tolerance: str
    passed: bool
    seed: int
    runtime: float

    def as_dict(self) -> dict:
        return asdict(self)


def _recorded(check):
    """check as a function of the seed returning its CheckResult, named
    after the check and timed."""
    def run(seed: int = 0) -> CheckResult:
        clock = time.perf_counter
        start = clock()
        claim, expected, observed, tolerance, passed = check(seed)
        return CheckResult(check.__name__, claim, str(expected),
                           str(observed), str(tolerance), bool(passed), seed,
                           round(clock() - start, 3))
    return run


def _exact(word: str, N: int, constants=None) -> QC:
    """E of the trace-product word, exactly, at dimension N."""
    return expected_trace_product(parse_trace_product(word, constants, N))


def word_nodes(words) -> list:
    """rmt.word_product tree for each of the parsed trace words.  Each
    constant name becomes one Const, converted once and shared by every
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


def _sampled(words, N: int, replicas: int, seed: int, stream: str,
             constants=None) -> TraceStatistics:
    """Tr of each single-factor word at dimension N by sampling:
    trace_observables of the word_nodes trees, named by the words."""
    nodes = word_nodes(parse_trace_product(word, constants, N).words[0]
                       for word in words)
    return trace_observables(dict(zip(words, nodes)), N=N, replicas=replicas,
                             seed=seed, stream=stream)


def _perms(n):
    for images in itertools.permutations(range(1, n + 1)):
        yield dict(enumerate(images, start=1))


# ----------------------------------------------------------------------
# 1: exact Weingarten tables

def weingarten_exactness(seed: int) -> tuple:
    failures = []
    for n in (1, 2, 3, 4):
        for N in sorted({n, n + 1, 8}):
            tbl = wg_table(n, N)
            for sigma in _perms(n):
                acc = Fraction(0)
                for tau in _perms(n):
                    acc += (Fraction(gram_entry(sigma, tau, N))
                            * tbl[cycle_type(tau)])
                want = Fraction(int(all(k == v for k, v in sigma.items())))
                if acc != want:
                    failures.append((n, N, cycle_type(sigma)))
    for N in (2, 5, 8):
        if wg_table(1, N)[(1,)] != Fraction(1, N):
            failures.append(("closed form", 1, N))
        t2 = wg_table(2, N)
        if t2[(1, 1)] != Fraction(1, N * N - 1):
            failures.append(("closed form", (1, 1), N))
        if t2[(2,)] != Fraction(-1, N * (N * N - 1)):
            failures.append(("closed form", (2,), N))
    return (
        "Gram identity sum_tau N^cycles(sigma tau^-1) Wg(tau) = [sigma = id] "
        "for n <= 4, and the n <= 2 closed forms",
        "no failures", failures or "no failures", "exact",
        not failures)


# 2: leading-order behaviour of Wg

def weingarten_asymptotics(seed: int) -> tuple:
    worst = 0.0
    failures = []
    for n in (1, 2, 3):
        for ctype in integer_partitions(n):
            scaled = []
            for N in (8, 16, 32, 64):
                wg = wg_table(n, N)[ctype]
                lead = wg_leading(ctype, N)
                diff = abs(wg - lead)
                scale = Fraction(N) ** (2 * n - len(ctype) + 2)
                scaled.append(float(diff * scale))
            if all(s == 0.0 for s in scaled):
                continue
            if min(scaled) == 0.0:
                failures.append((ctype, scaled, "mixed zero and nonzero"))
                continue
            ratio = max(scaled) / min(scaled)
            worst = max(worst, ratio)
            if ratio >= 1.5:
                failures.append((ctype, scaled, ratio))
    return (
        "|Wg - leading term| scaled by N^(2n - cycles + 2) stays bounded "
        "(spread below 50%) across N in {8,16,32,64}, n <= 3",
        "spread ratio < 1.5", f"worst ratio {worst:.4f}; failures {failures}",
        "ratio < 1.5", not failures)


# 3: constrained index sums match the trace-product form

def index_sum_oracle(seed: int) -> tuple:
    rng = random.Random(seed)
    mismatches = 0
    for _trial in range(200):
        n = rng.randint(1, 4)
        N = rng.randint(2, 3)
        plist = list(enumerate_pairings(n, signed=True))
        p = plist[rng.randrange(len(plist))]
        # plain int rows for the brute-force sum, so that it does not
        # share the exact matrix type with the trace-product side
        rows = [[[rng.randint(-3, 3) for _ in range(N)] for _ in range(N)]
                for _ in range(n)]
        total = 0
        pairs = [(a, b) for a, b in p.items() if a < b]
        for choice in itertools.product(range(N), repeat=len(pairs)):
            idx = {}
            for (a, b), v in zip(pairs, choice):
                idx[a] = v
                idx[b] = v
            term = 1
            for k in range(1, n + 1):
                term *= rows[k - 1][idx[k]][idx[-k]]
            total += term
        if QC(total) != pairing_trace(p, [qc_matrix(r) for r in rows], N):
            mismatches += 1
    return (
        "for a signed pairing p, the index sum constrained by i = i o p of "
        "prod A_k[i_k, i_-k] equals the trace product over pi(p) with "
        "transposes from eps(p); 200 random instances, n <= 4",
        "0 mismatches", f"{mismatches} mismatches", "exact",
        mismatches == 0)


# 4: conjugation-variance counterexample + orthogonal invariance

def _random_word(rng: random.Random, N: int, length: int) -> tuple:
    """A random word in the grammar as (trace, letters, constants): its
    trace token, its letter tokens and its constants by name."""
    letters = []
    constants = {}
    variants = list(VARIANT_NAMES.values())
    for i in range(length):
        if rng.random() < 0.6:
            letters.append(variants[rng.randrange(4)])
        else:
            rows = [[QC(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
                     for _ in range(N)] for _ in range(N)]
            letters.append(f"C{i}")
            constants[f"C{i}"] = qc_matrix(rows)
    if not constants:
        letters[rng.randrange(len(letters))] = "C"
        constants["C"] = identity_qc(N)
    trace = "tr" if rng.random() < 0.5 else "Tr"
    return trace, letters, constants


def _counterexample(cos_sq: Fraction, N: int) -> tuple:
    """(E(u_11 ubar_22), E(b_11 b'_22)) at N >= 2, b and b' the entries
    of U and Ubar conjugated by the unitary of the angle theta with
    cos^2(theta) = cos_sq, all values of the word Tr(U B)Tr(Uc C) on
    2 x 2 corners B and C.  An entry is a trace, u_rc = Tr(U E_cr), so
    u_11 ubar_22 is the word at B = E_11, C = E_22.  With x = i cos sin,
    b_11 = Tr(U (R + x X)) and b'_22 = Tr(Uc (S + x Xt)) for
    R = diag(sin^2, cos^2), S = diag(cos^2, sin^2) and
    X = [[0, 1], [-1, 0]]: four values, whose cross terms, x times a
    value, must cancel (x^2 = -cos^2 sin^2 is rational, x is not).  Both
    sides must be real."""
    sin_sq = 1 - cos_sq

    def term(b, c):
        corners = {name: qc_matrix([[m[i][j] if max(i, j) < 2 else 0
                                     for j in range(N)] for i in range(N)])
                   for name, m in (("B", b), ("C", c))}
        return _exact("Tr(U B)Tr(Uc C)", N, corners)

    R, S = ((sin_sq, 0), (0, cos_sq)), ((cos_sq, 0), (0, sin_sq))
    X, Xt = ((0, 1), (-1, 0)), ((0, -1), (1, 0))
    lhs = term(((1, 0), (0, 0)), ((0, 0), (0, 1)))
    cross = term(R, Xt) + term(X, S)
    rhs = term(R, S) - QC(cos_sq * sin_sq) * term(X, Xt)
    if cross or lhs.im or rhs.im:
        raise RuntimeError(f"check 04 leaves cross terms {cross} and "
                           f"imaginary parts {lhs.im} and {rhs.im}")
    return lhs.re, rhs.re


def invariance_counterexample(seed: int) -> tuple:
    failures = []
    for cos_sq in (Fraction(1, 4), Fraction(1, 2)):
        for N in (2, 4, 10):
            lhs, rhs = _counterexample(cos_sq, N)
            want = 4 * cos_sq * (1 - cos_sq) / N
            if lhs != 0 or rhs != want:
                failures.append((cos_sq, N, lhs, rhs, want))

    # exact orthogonal invariance of the Haar family: conjugating the
    # unitary by a fixed real orthogonal O moves O onto the constants,
    # so the word equals the one that writes each constant X as Ot X O
    o = qc_matrix([[Fraction(3, 5), Fraction(-4, 5)],
                   [Fraction(4, 5), Fraction(3, 5)]])
    rng = random.Random(seed)
    for _trial in range(25):
        trace, letters, constants = _random_word(rng, 2, rng.randint(1, 4))
        moved = [f"Ot {x} O" if x in constants else x for x in letters]
        word = f"{trace}({' '.join(letters)})"
        a = _exact(word, 2, constants)
        b = _exact(f"{trace}({' '.join(moved)})", 2, {**constants, "O": o})
        if a != b:
            failures.append(("orthogonal", word, str(a), str(b)))
    return (
        "E(u_11 ubar_22) = 0 while the unitarily conjugated entries give "
        "4 cos^2 sin^2 / N exactly; conjugating U by a real orthogonal O "
        "only moves O onto the constant letters (exact, words <= 4)",
        "no failures", failures or "no failures", "exact",
        not failures)


# 5: first-order limits of mixed-variant powers

def _power_word_value(m, v, n, v2, N) -> complex:
    letters = [VARIANT_NAMES[v]] * m + [VARIANT_NAMES[v2]] * n
    return complex(_exact(f"tr({' '.join(letters)})", N))


def first_order_limits(seed: int) -> tuple:
    failures = []
    for N in range(2, 9):
        got = _exact("tr(U Uc)", N)
        if got != QC(Fraction(1, N)):
            failures.append(("tr(U Ubar)", N, str(got)))
    if _exact("tr(U Ut)", 5) != QC_ZERO:
        failures.append(("tr(U Ut)", 5))
    if _exact("tr(U U*)", 5) != QC_ONE:
        failures.append(("tr(U U*)", 5))

    worst = 0.0
    for m in (1, 2):
        for n in (1, 2):
            for v in VARIANT_NAMES:
                for v2 in VARIANT_NAMES:
                    limit = first_order_limit(m, v, n, v2)
                    dev16 = abs(_power_word_value(m, v, n, v2, 16) - limit)
                    dev32 = abs(_power_word_value(m, v, n, v2, 32) - limit)
                    worst = max(worst, dev16)
                    if dev16 >= 0.07:
                        failures.append((m, v, n, v2, "dev16", dev16))
                    if dev32 > 0.55 * dev16 + 1e-12:
                        failures.append((m, v, n, v2, "not halving",
                                         dev16, dev32))
    return (
        "E tr((U^v)^m (U^v')^n) tends to [m = n][v' = adjoint of v]: exact "
        "1/N, 0, 1 values for the basic pairs, and the full m, n <= 2 "
        "variant table within 0.07 at N = 16, halving by N = 32",
        "deviation < 0.07, halving", f"worst dev16 {worst:.5f}; "
        f"failures {failures}", "0.07 / halving",
        not failures)


# 6: power-trace fluctuations and the spoke rule

def power_trace_fluctuations(seed: int) -> tuple:
    failures = []
    for k, word in ((1, "Tr(U)Tr(Uc)"), (2, "Tr(U U)Tr(Uc Uc)")):
        for N in (1, 2, 3, 4, 5):
            got = _exact(word, N)
            if got != QC(min(k, N)):
                failures.append((k, N, str(got)))
    ones = [[1, 1], [1, 1]]
    zeros = [[0, 0], [0, 0]]
    pred2 = complex_spoke_prediction(FirstOrderTable(2, 2, ones, zeros))
    if pred2.value != 2:
        failures.append(("spoke m=n=2", pred2.value))
    pred1 = real_spoke_prediction(FirstOrderTable(1, 1, [[1]], [[0]]))
    if pred1.value != 1:
        failures.append(("spoke m=n=1", pred1.value))
    return (
        "E|Tr U^k|^2 = min(k, N) exactly for k in {1,2}, N in {1..5}, "
        "agreeing with the spoke predictions at large N",
        "min(k, N) and spoke values 1, 2",
        failures or "all equal", "exact", not failures)


# 7: transpose-pair covariance, exactly and by simulation

def transpose_second_order(seed: int) -> tuple:
    failures = []
    for N in range(1, 7):
        cov = _exact("Tr(U)Tr(Uc)", N)
        if cov != QC_ONE:
            failures.append(("exact cov", N, str(cov)))

    tbl = FirstOrderTable(
        1, 1,
        [[first_order_limit(1, (1, 1), 1, (1, -1))]],
        [[first_order_limit(1, (1, 1), 1, (-1, -1))]])
    pred = real_spoke_prediction(tbl)
    if pred.value != 1 or sum(pred.spoke_terms) != 0:
        failures.append(("reversed term", pred))

    stats = _sampled(("Tr(U)", "Tr(Uc)"), 64, 4000, seed, "check07")
    cum = stats.cumulants(2)
    k2 = cum((1, 2))
    se = cum.se((1, 2))
    mc_ok = abs(k2 - 1) < 4 * se
    if not mc_ok:
        failures.append(("mc", k2, se))
    return (
        "cov(Tr U, Tr Ubar) = 1 exactly at every N, reproduced at N = 64 "
        "by simulation, with the reversed spoke term carrying the whole "
        "prediction (plain spokes give 0)",
        "1 within 4 SE", f"k2 = {k2:.6f} +- {se:.6f}; failures {failures}",
        "4 SE / exact", not failures)


# 8: decay of tr(U A U* (U B U*)^t)

def _balanced_diag_qc(N: int) -> QCMatrix:
    diag = np.diag([1] * (N // 2) + [-1] * (N - N // 2))
    return QCMatrix(diag, 0 * diag, 1)


def conjugate_transpose_decay(seed: int) -> tuple:
    failures = []
    word = "tr(U A U* Uc At Ut)"
    values = {}
    for N in (16, 32, 64):
        values[N] = complex(_exact(word, N, {"A": _balanced_diag_qc(N)}))
    r1 = abs(values[32]) / abs(values[16])
    r2 = abs(values[64]) / abs(values[32])
    if not (0.4 <= r1 <= 0.6 and 0.4 <= r2 <= 0.6):
        failures.append(("ratios", r1, r2))

    n_mc = 128
    stats = _sampled((word,), n_mc, 2000, seed, "check08",
                     {"A": _balanced_diag_qc(n_mc)})
    mean_tr = stats.mean(word) / n_mc
    if abs(mean_tr) >= 0.02:
        failures.append(("mc mean", mean_tr))
    return (
        "E tr(U A U* (U B U*)^t) with balanced +-1 diagonals decays like "
        "1/N (exact ratios in [0.4, 0.6]) and its N = 128 sample mean is "
        "below 0.02 in modulus",
        "ratios ~ 0.5, |mean| < 0.02",
        f"values {dict((k, f'{v.real:.6g}') for k, v in values.items())}, "
        f"ratios ({r1:.3f}, {r2:.3f}), mc {abs(mean_tr):.5f}; "
        f"failures {failures}",
        "[0.4, 0.6] / 0.02", not failures)


# 9: spectra against the reference laws

def spectral_laws(seed: int) -> tuple:
    failures = []
    N = 256
    reps = 10
    arc = arcsine_law()
    km = kesten_mckay_law()

    d1 = ks_distance(spectral_replicas(FIGURE1_ARCSINE, N, reps, seed,
                                       "check09.arcsine"), arc.cdf)
    if d1 >= 0.05:
        failures.append(("arcsine KS", d1))
    lam = np.sort(spectral_replicas(FIGURE1_SUM_LAW, N, reps, seed,
                                    "check09.sum_law"), axis=None)
    d2 = ks_distance(lam, km.cdf)
    if d2 >= 0.05:
        failures.append(("sum-law KS", d2))
    m2 = float(np.mean(lam ** 2))
    m4 = float(np.mean(lam ** 4))
    if abs(m2 - 4) >= 0.15:
        failures.append(("m2", m2))
    if abs(m4 - 28) >= 1.5:
        failures.append(("m4", m4))
    return (
        "pooled spectra at N = 256: U + U* matches the arcsine law and "
        "U + U* + (U + U*)^t matches the free self-convolution law "
        "(KS < 0.05; moments 4 and 28)",
        "KS < 0.05, m2 = 4 +- 0.15, m4 = 28 +- 1.5",
        f"KS ({d1:.4f}, {d2:.4f}), m2 {m2:.4f}, m4 {m4:.4f}; "
        f"failures {failures}",
        "0.05 / 0.15 / 1.5", not failures)


# 10: the free-convolution oracle and the closed-form density

def mu2_oracle(seed: int) -> tuple:
    failures = []
    moments = free_self_convolution(arcsine_law())
    if (moments[1], moments[3]) != (4, 28):
        failures.append(("nc moments", moments[:4]))
    km = kesten_mckay_law()  # raises if the density disagrees with the oracle
    for k, want in ((2, 4.0), (4, 28.0), (6, 232.0)):
        got = moment_by_quadrature(km, k)
        if abs(got - want) > 1e-6:
            failures.append((k, got))
    return (
        "doubling the arcsine free cumulants over non-crossing partitions "
        "gives moments 4, 28, 232, ... and the closed-form density "
        "2 sqrt(12 - x^2) / (pi (16 - x^2)) integrates to the same values",
        "m2 = 4, m4 = 28 (quadrature within 1e-6)",
        failures or "agrees", "1e-6", not failures)


# 11: cumulant algebra, exactly and on simulated traces

def cumulant_algebra(seed: int) -> tuple:
    failures = []
    rng = random.Random(seed)
    for _trial in range(12):
        r_max = rng.randint(1, 5)
        nv = rng.randint(1, 3)
        kfun = CumulantFunctional(
            {combo: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
             for combo in multisets(nv, r_max)})
        mfun = MomentFunctional({combo: cumulants_to_moments(kfun, combo)
                                 for combo in multisets(nv, r_max)})
        idx = tuple(rng.randint(1, nv) for _ in range(r_max))
        if moments_to_cumulants(mfun, idx) != kfun(idx):
            failures.append(("round trip", idx))

    gauss = MomentFunctional({(1,): 0, (1, 1): 1, (1, 1, 1): 0,
                              (1, 1, 1, 1): 3})
    if moments_to_cumulants(gauss, (1, 1, 1)) != 0:
        failures.append("gaussian k3")
    if moments_to_cumulants(gauss, (1, 1, 1, 1)) != 0:
        failures.append("gaussian k4")

    stats = _sampled(("Tr(U)", "Tr(Ut)", "Tr(Uc)", "Tr(U*)"), 64, 4000,
                     seed, "check11")
    cum = stats.cumulants(3)
    worst = max(abs(cum(combo)) for combo in multisets(4, 3)
                if len(combo) == 3)
    if worst >= 0.1:
        failures.append(("k3", worst))
    return (
        "moment/cumulant transforms round-trip exactly, Gaussian moments "
        "give k3 = k4 = 0, and third cumulants of Haar power traces at "
        "N = 64 stay below 0.1",
        "exact / |k3| < 0.1",
        f"worst |k3| {worst:.5f}; failures {failures}",
        "exact / 0.1", not failures)


# 12: byte determinism of repeated runs

def determinism(seed: int) -> tuple:
    def trace_csv() -> bytes:
        stats = _sampled(("Tr(U)", "Tr(U Uc)"), 16, 50, seed,
                         "check12.traces")
        return csv_bytes(("observable", "replica", "re", "im"),
                         stats.csv_rows())

    def hist_csv() -> bytes:
        spectra = spectral_replicas(FIGURE1_ARCSINE, 32, 4, seed,
                                    "check12.spectra")
        edges, dens = histogram(spectra, 20, (-2.0, 2.0))
        rows = [(float(edges[i]), float(edges[i + 1]), float(dens[i]))
                for i in range(len(dens))]
        return csv_bytes(("bin_left", "bin_right", "density"), rows)

    same_traces = trace_csv() == trace_csv()
    same_hist = hist_csv() == hist_csv()
    passed = same_traces and same_hist
    return (
        "re-running a simulation with the same seed reproduces CSV "
        "outputs byte for byte",
        "identical bytes",
        f"traces identical: {same_traces}, histograms identical: {same_hist}",
        "bytes", passed)


EXACT = (weingarten_exactness, weingarten_asymptotics, index_sum_oracle,
         invariance_counterexample, first_order_limits,
         power_trace_fluctuations, mu2_oracle)
MONTE_CARLO = (transpose_second_order, conjugate_transpose_decay,
               spectral_laws, cumulant_algebra, determinism)

CHECKS = {check.__name__: _recorded(check) for check in EXACT + MONTE_CARLO}
SUITES = {"exact": tuple(check.__name__ for check in EXACT),
          "mc": tuple(check.__name__ for check in MONTE_CARLO)}
SUITES["all"] = SUITES["exact"] + SUITES["mc"]


def check_suite(suite: str, seed: int) -> None:
    """Refuse a bad run before any check: WordParseError for a suite name
    not in SUITES, TypeError for a seed that is not an int, and
    WordParseError for a negative one.  A suite with Monte Carlo checks
    then asks rmt.worker_count, which refuses a bad HAARLAB_THREADS."""
    if suite not in SUITES:
        raise WordParseError(
            f"unknown suite {suite!r}; have {sorted(SUITES)}")
    require_int(seed, "seed")
    if seed < 0:
        raise WordParseError(f"seed must be at least 0, got {seed}")
    if suite in ("mc", "all"):
        worker_count()


def run_suite(suite: str, seed: int = 0) -> list:
    check_suite(suite, seed)
    return [CHECKS[name](seed) for name in SUITES[suite]]
