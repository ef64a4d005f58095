"""The acceptance checks behind `haarlab verify`: twelve numbered
criteria combining exact finite-N identities, oracle equivalences, and
tolerance-scaled Monte Carlo runs.

Each check returns a CheckResult carrying the claim it tested, what was
expected and observed, the tolerance, the seed (None for fully exact
checks), and the wall time.  Suites: "exact" for the deterministic
checks, "mc" for everything stochastic, "all" for both.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .combinat import Permutation, enumerate_pairings, pi_epsilon
from .cumulants import (CumulantFunctional, MomentFunctional,
                        cumulants_to_moments, moments_to_cumulants)
from .densities import (arcsine_law, free_self_convolution, kesten_mckay_law,
                        moment_by_quadrature)
from .exact import (QC, QC_ONE, QC_ZERO, mat_mul, mat_trace, mat_transpose,
                    qc_matrix)
from .haar_expect import (ConstantLetter, HaarLetter, TraceProductExpr,
                          TraceWord, U, U_BAR, U_STAR, U_T,
                          expected_trace_product, first_order_limit,
                          invariance_counterexample)
from .rmt import (Conjugated, Const, HaarU, Product, Sum, Variant,
                  EnsembleSpec, ks_distance, pooled_eigenvalues,
                  spectral_replicas, trace_observables)
from .second_order import (FirstOrderTable, complex_spoke_prediction,
                           one_by_one_real_prediction)
from .weingarten import gram_entry, wg_leading, wg_table
from .emit import csv_bytes

VARIANTS = {(1, 1): "U", (-1, 1): "Ut", (1, -1): "Uc", (-1, -1): "U*"}


@dataclass
class CheckResult:
    name: str
    claim: str
    expected: str
    observed: str
    tolerance: str
    passed: bool
    seed: int | None
    runtime: float

    def as_dict(self) -> dict:
        return asdict(self)


def _result(name, claim, expected, observed, tolerance, passed, seed, t0):
    return CheckResult(name, claim, str(expected), str(observed),
                       str(tolerance), bool(passed), seed,
                       round(time.perf_counter() - t0, 3))


def _perms(n):
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation.from_images(images)


# ----------------------------------------------------------------------
# 1: exact Weingarten tables

def check_weingarten_exactness(seed=None) -> CheckResult:
    t0 = time.perf_counter()
    failures = []
    for n in (1, 2, 3, 4):
        for N in sorted({n, n + 1, 8}):
            tbl = wg_table(n, N)
            ident = Permutation.identity(n)
            for sigma in _perms(n):
                acc = Fraction(0)
                for tau in _perms(n):
                    acc += Fraction(gram_entry(sigma, tau, N)) * tbl[tau]
                want = Fraction(1 if sigma == ident else 0)
                if acc != want:
                    failures.append((n, N, sigma.cycle_type()))
    for N in (2, 5, 8):
        if wg_table(1, N)[(1,)] != Fraction(1, N):
            failures.append(("closed form", 1, N))
        t2 = wg_table(2, N)
        if t2[(1, 1)] != Fraction(1, N * N - 1):
            failures.append(("closed form", (1, 1), N))
        if t2[(2,)] != Fraction(-1, N * (N * N - 1)):
            failures.append(("closed form", (2,), N))
    return _result(
        "weingarten_exactness",
        "Gram identity sum_tau N^cycles(sigma tau^-1) Wg(tau) = [sigma = id] "
        "for n <= 4, and the n <= 2 closed forms",
        "no failures", failures or "no failures", "exact",
        not failures, seed, t0)


# 2: leading-order behaviour of Wg

def check_weingarten_asymptotics(seed=None) -> CheckResult:
    t0 = time.perf_counter()
    worst = 0.0
    failures = []
    from .weingarten import integer_partitions
    for n in (1, 2, 3):
        for ctype in integer_partitions(n):
            scaled = []
            for N in (8, 16, 32, 64):
                wg = wg_table(n, N)[ctype]
                lead = wg_leading(ctype, n, N)
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
    return _result(
        "weingarten_asymptotics",
        "|Wg - leading term| scaled by N^(2n - cycles + 2) stays bounded "
        "(spread below 50%) across N in {8,16,32,64}, n <= 3",
        "spread ratio < 1.5", f"worst ratio {worst:.4f}; failures {failures}",
        "ratio < 1.5", not failures, seed, t0)


# 3: constrained index sums match the trace-product form

def check_index_sum_oracle(seed: int = 0) -> CheckResult:
    t0 = time.perf_counter()
    rng = random.Random(seed)
    mismatches = 0
    for _trial in range(200):
        n = rng.randint(1, 4)
        N = rng.randint(2, 3)
        plist = list(enumerate_pairings(n, signed=True))
        p = plist[rng.randrange(len(plist))]
        mats = [qc_matrix([[rng.randint(-3, 3) for _ in range(N)]
                           for _ in range(N)]) for _ in range(n)]
        total = QC_ZERO
        pairs = p.pairs()
        for choice in itertools.product(range(N), repeat=len(pairs)):
            idx = {}
            for (a, b), v in zip(pairs, choice):
                idx[a] = v
                idx[b] = v
            term = QC_ONE
            for k in range(1, n + 1):
                term = term * mats[k - 1][idx[k]][idx[-k]]
            total = total + term
        pi, eps = pi_epsilon(p)
        rhs = QC_ONE
        for cyc in pi.cycles():
            prod = None
            for k in cyc:
                m = mats[k - 1]
                if eps[k - 1] == -1:
                    m = mat_transpose(m)
                prod = m if prod is None else mat_mul(prod, m)
            rhs = rhs * mat_trace(prod)
        if total != rhs:
            mismatches += 1
    return _result(
        "index_sum_oracle",
        "for a signed pairing p, the index sum constrained by i = i o p of "
        "prod A_k[i_k, i_-k] equals the trace product over pi(p) with "
        "transposes from eps(p); 200 random instances, n <= 4",
        "0 mismatches", f"{mismatches} mismatches", "exact",
        mismatches == 0, seed, t0)


# 4: conjugation-variance counterexample + orthogonal invariance

def _random_word(rng: random.Random, N: int, length: int) -> TraceWord:
    letters = []
    variants = [U, U_T, U_BAR, U_STAR]
    for i in range(length):
        if rng.random() < 0.6:
            letters.append(variants[rng.randrange(4)])
        else:
            rows = [[QC(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
                     for _ in range(N)] for _ in range(N)]
            letters.append(ConstantLetter(f"C{i}", qc_matrix(rows)))
    if not any(isinstance(l, ConstantLetter) for l in letters):
        letters[rng.randrange(len(letters))] = ConstantLetter(
            "C", qc_matrix([[1 if a == b else 0 for b in range(N)]
                            for a in range(N)]))
    return TraceWord(tuple(letters), normalized=rng.random() < 0.5)


def check_invariance_counterexample(seed: int = 0) -> CheckResult:
    t0 = time.perf_counter()
    failures = []
    for cos_sq in (Fraction(1, 4), Fraction(1, 2)):
        for N in (2, 4, 10):
            lhs, rhs = invariance_counterexample(cos_sq, N)
            want = 4 * cos_sq * (1 - cos_sq) / N
            if lhs != 0 or rhs != want:
                failures.append((cos_sq, N, lhs, rhs, want))

    # exact orthogonal invariance of the Haar family: conjugating the
    # unitary by a fixed real orthogonal O moves O onto the constants
    o = qc_matrix([[Fraction(3, 5), Fraction(-4, 5)],
                   [Fraction(4, 5), Fraction(3, 5)]])
    ot = mat_transpose(o)
    rng = random.Random(seed)
    for _trial in range(25):
        word = _random_word(rng, 2, rng.randint(1, 4))
        moved = tuple(
            l if isinstance(l, HaarLetter) else ConstantLetter(
                l.name, mat_mul(ot, mat_mul(l.resolved(), o)))
            for l in word.letters)
        a = expected_trace_product(
            TraceProductExpr((word,), 2))
        b = expected_trace_product(
            TraceProductExpr((TraceWord(moved, word.normalized),), 2))
        if a != b:
            failures.append(("orthogonal", word, str(a), str(b)))
    return _result(
        "invariance_counterexample",
        "E(u_11 ubar_22) = 0 while the unitarily conjugated entries give "
        "4 cos^2 sin^2 / N exactly; conjugating U by a real orthogonal O "
        "only moves O onto the constant letters (exact, words <= 4)",
        "no failures", failures or "no failures", "exact",
        not failures, seed, t0)


# 5: first-order limits of mixed-variant powers

def _power_word_value(m, v, n, v2, N) -> complex:
    letters = tuple([HaarLetter(*v)] * m + [HaarLetter(*v2)] * n)
    word = TraceWord(letters, normalized=True)
    val = expected_trace_product(TraceProductExpr((word,), N))
    return complex(val)


def check_first_order_limits(seed=None) -> CheckResult:
    t0 = time.perf_counter()
    failures = []
    for N in range(2, 9):
        got = expected_trace_product(TraceProductExpr(
            (TraceWord((U, U_BAR), normalized=True),), N))
        if got != QC(Fraction(1, N)):
            failures.append(("tr(U Ubar)", N, str(got)))
    if expected_trace_product(TraceProductExpr(
            (TraceWord((U, U_T), normalized=True),), 5)) != QC_ZERO:
        failures.append(("tr(U Ut)", 5))
    if expected_trace_product(TraceProductExpr(
            (TraceWord((U, U_STAR), normalized=True),), 5)) != QC_ONE:
        failures.append(("tr(U U*)", 5))

    worst = 0.0
    for m in (1, 2):
        for n in (1, 2):
            for v in VARIANTS:
                for v2 in VARIANTS:
                    limit = first_order_limit(m, v, n, v2)
                    dev16 = abs(_power_word_value(m, v, n, v2, 16) - limit)
                    dev32 = abs(_power_word_value(m, v, n, v2, 32) - limit)
                    worst = max(worst, dev16)
                    if dev16 >= 0.07:
                        failures.append((m, v, n, v2, "dev16", dev16))
                    if dev32 > 0.55 * dev16 + 1e-12:
                        failures.append((m, v, n, v2, "not halving",
                                         dev16, dev32))
    return _result(
        "first_order_limits",
        "E tr((U^v)^m (U^v')^n) tends to [m = n][v' = adjoint of v]: exact "
        "1/N, 0, 1 values for the basic pairs, and the full m, n <= 2 "
        "variant table within 0.07 at N = 16, halving by N = 32",
        "deviation < 0.07, halving", f"worst dev16 {worst:.5f}; "
        f"failures {failures}", "0.07 / halving",
        not failures, seed, t0)


# 6: power-trace fluctuations and the spoke rule

def check_fluctuation_diagonal(seed=None) -> CheckResult:
    t0 = time.perf_counter()
    failures = []
    for k in (1, 2):
        for N in (1, 2, 3, 4, 5):
            words = (TraceWord(tuple([U] * k)), TraceWord(tuple([U_BAR] * k)))
            got = expected_trace_product(TraceProductExpr(words, N))
            if got != QC(min(k, N)):
                failures.append((k, N, str(got)))
    ones = [[1, 1], [1, 1]]
    zeros = [[0, 0], [0, 0]]
    pred2 = complex_spoke_prediction(FirstOrderTable(2, 2, ones, zeros))
    if pred2.value != 2:
        failures.append(("spoke m=n=2", pred2.value))
    pred1 = one_by_one_real_prediction(FirstOrderTable(1, 1, [[1]], [[0]]))
    if pred1.value != 1:
        failures.append(("spoke m=n=1", pred1.value))
    return _result(
        "power_trace_fluctuations",
        "E|Tr U^k|^2 = min(k, N) exactly for k in {1,2}, N in {1..5}, "
        "agreeing with the spoke predictions at large N",
        "min(k, N) and spoke values 1, 2",
        failures or "all equal", "exact", not failures, seed, t0)


# 7: transpose-pair covariance, exactly and by simulation

def check_transpose_second_order(seed: int = 0) -> CheckResult:
    t0 = time.perf_counter()
    failures = []
    for N in range(1, 7):
        cov = expected_trace_product(TraceProductExpr(
            (TraceWord((U,)), TraceWord((U_BAR,))), N))
        if cov != QC_ONE:
            failures.append(("exact cov", N, str(cov)))

    tbl = FirstOrderTable(
        1, 1,
        [[first_order_limit(1, (1, 1), 1, (1, -1))]],
        [[first_order_limit(1, (1, 1), 1, (-1, -1))]])
    pred = one_by_one_real_prediction(tbl)
    if pred.value != 1 or sum(pred.spoke_terms) != 0:
        failures.append(("reversed term", pred))

    stats = trace_observables(
        {"tr_u": HaarU(), "tr_ubar": HaarU(1, -1)}, N=64,
        replicas=4000, seed=seed)
    cum = stats.cumulants(2)
    k2 = cum((1, 2))
    se = cum.se((1, 2))
    mc_ok = abs(k2 - 1) < 4 * se
    if not mc_ok:
        failures.append(("mc", k2, se))
    return _result(
        "transpose_second_order",
        "cov(Tr U, Tr Ubar) = 1 exactly at every N, reproduced at N = 64 "
        "by simulation, with the reversed spoke term carrying the whole "
        "prediction (plain spokes give 0)",
        "1 within 4 SE", f"k2 = {k2:.6f} +- {se:.6f}; failures {failures}",
        "4 SE / exact", not failures, seed, t0)


# 8: decay of tr(U A U* (U B U*)^t)

def _balanced_diag_qc(N: int):
    return qc_matrix([[ (1 if a < N // 2 else -1) if a == b else 0
                        for b in range(N)] for a in range(N)])


def check_conjugate_transpose_decay(seed: int = 0) -> CheckResult:
    t0 = time.perf_counter()
    failures = []
    values = {}
    for N in (16, 32, 64):
        a = ConstantLetter("A", _balanced_diag_qc(N))
        b_t = ConstantLetter("B", _balanced_diag_qc(N), transpose=True)
        word = TraceWord((U, a, U_STAR, U_BAR, b_t, U_T), normalized=True)
        values[N] = complex(expected_trace_product(
            TraceProductExpr((word,), N)))
    r1 = abs(values[32]) / abs(values[16])
    r2 = abs(values[64]) / abs(values[32])
    if not (0.4 <= r1 <= 0.6 and 0.4 <= r2 <= 0.6):
        failures.append(("ratios", r1, r2))

    n_mc = 128
    a_np = np.diag([1.0] * (n_mc // 2) + [-1.0] * (n_mc // 2))
    node = Product((Conjugated(Const("A", a_np)),
                    Variant(Conjugated(Const("B", a_np)), -1, 1)))
    stats = trace_observables({"w": node}, N=n_mc, replicas=2000, seed=seed)
    mean_tr = stats.mean("w") / n_mc
    if abs(mean_tr) >= 0.02:
        failures.append(("mc mean", mean_tr))
    return _result(
        "conjugate_transpose_decay",
        "E tr(U A U* (U B U*)^t) with balanced +-1 diagonals decays like "
        "1/N (exact ratios in [0.4, 0.6]) and its N = 128 sample mean is "
        "below 0.02 in modulus",
        "ratios ~ 0.5, |mean| < 0.02",
        f"values {dict((k, f'{v.real:.6g}') for k, v in values.items())}, "
        f"ratios ({r1:.3f}, {r2:.3f}), mc {abs(mean_tr):.5f}; "
        f"failures {failures}",
        "[0.4, 0.6] / 0.02", not failures, seed, t0)


# 9: spectra against the reference laws

def check_spectral_laws(seed: int = 0) -> CheckResult:
    t0 = time.perf_counter()
    failures = []
    N = 256
    reps = 10
    sym = Sum((HaarU(), HaarU(-1, -1)))
    both = Sum((sym, Variant(sym, -1, 1)))
    arc = arcsine_law()
    km = kesten_mckay_law()

    s1 = spectral_replicas(EnsembleSpec(N, sym), reps, seed)
    d1 = ks_distance(s1, arc.cdf)
    if d1 >= 0.05:
        failures.append(("arcsine KS", d1))
    s2 = spectral_replicas(EnsembleSpec(N, both), reps, seed ^ 0x5A5A)
    d2 = ks_distance(s2, km.cdf)
    if d2 >= 0.05:
        failures.append(("sum-law KS", d2))
    lam = pooled_eigenvalues(s2)
    m2 = float(np.mean(lam ** 2))
    m4 = float(np.mean(lam ** 4))
    if abs(m2 - 4) >= 0.15:
        failures.append(("m2", m2))
    if abs(m4 - 28) >= 1.5:
        failures.append(("m4", m4))
    return _result(
        "spectral_laws",
        "pooled spectra at N = 256: U + U* matches the arcsine law and "
        "U + U* + (U + U*)^t matches the free self-convolution law "
        "(KS < 0.05; moments 4 and 28)",
        "KS < 0.05, m2 = 4 +- 0.15, m4 = 28 +- 1.5",
        f"KS ({d1:.4f}, {d2:.4f}), m2 {m2:.4f}, m4 {m4:.4f}; "
        f"failures {failures}",
        "0.05 / 0.15 / 1.5", not failures, seed, t0)


# 10: the free-convolution oracle and the closed-form density

def check_mu2_oracle(seed=None) -> CheckResult:
    t0 = time.perf_counter()
    failures = []
    moments = free_self_convolution(arcsine_law(), 8)
    if (moments[1], moments[3]) != (4, 28):
        failures.append(("nc moments", moments[:4]))
    km = kesten_mckay_law()  # raises if the density disagrees with the oracle
    for k, want in ((2, 4.0), (4, 28.0), (6, 232.0)):
        got = moment_by_quadrature(km, k)
        if abs(got - want) > 1e-6:
            failures.append((k, got))
    return _result(
        "mu2_oracle",
        "doubling the arcsine free cumulants over non-crossing partitions "
        "gives moments 4, 28, 232, ... and the closed-form density "
        "2 sqrt(12 - x^2) / (pi (16 - x^2)) integrates to the same values",
        "m2 = 4, m4 = 28 (quadrature within 1e-6)",
        failures or "agrees", "1e-6", not failures, seed, t0)


# 11: cumulant algebra, exactly and on simulated traces

def check_cumulant_algebra(seed: int = 0) -> CheckResult:
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(seed)
    for _trial in range(12):
        r_max = rng.randint(1, 5)
        nv = rng.randint(1, 3)
        kvals = {}
        for order in range(1, r_max + 1):
            for combo in itertools.combinations_with_replacement(
                    range(1, nv + 1), order):
                kvals[combo] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        kfun = CumulantFunctional(kvals)
        mvals = {}
        for order in range(1, r_max + 1):
            for combo in itertools.combinations_with_replacement(
                    range(1, nv + 1), order):
                mvals[combo] = cumulants_to_moments(kfun, combo)
        mfun = MomentFunctional(mvals)
        idx = tuple(rng.randint(1, nv) for _ in range(r_max))
        if moments_to_cumulants(mfun, idx) != kfun(idx):
            failures.append(("round trip", idx))

    gauss = MomentFunctional({(1,): 0, (1, 1): 1, (1, 1, 1): 0,
                              (1, 1, 1, 1): 3})
    if moments_to_cumulants(gauss, (1, 1, 1)) != 0:
        failures.append("gaussian k3")
    if moments_to_cumulants(gauss, (1, 1, 1, 1)) != 0:
        failures.append("gaussian k4")

    stats = trace_observables(
        {"u": HaarU(), "ut": HaarU(-1, 1), "ubar": HaarU(1, -1),
         "ustar": HaarU(-1, -1)},
        N=64, replicas=4000, seed=seed)
    cum = stats.cumulants(3)
    worst = 0.0
    for combo in itertools.combinations_with_replacement((1, 2, 3, 4), 3):
        worst = max(worst, abs(cum(combo)))
    if worst >= 0.1:
        failures.append(("k3", worst))
    return _result(
        "cumulant_algebra",
        "moment/cumulant transforms round-trip exactly, Gaussian moments "
        "give k3 = k4 = 0, and third cumulants of Haar power traces at "
        "N = 64 stay below 0.1",
        "exact / |k3| < 0.1",
        f"worst |k3| {worst:.5f}; failures {failures}",
        "exact / 0.1", not failures, seed, t0)


# 12: byte determinism of repeated runs

def check_determinism(seed: int = 0) -> CheckResult:
    t0 = time.perf_counter()
    obs = {"u": HaarU(), "uubar": Product((HaarU(), HaarU(1, -1)))}

    def trace_csv() -> bytes:
        stats = trace_observables(obs, N=16, replicas=50, seed=seed)
        return csv_bytes(("observable", "replica", "re", "im"),
                         stats.csv_rows())

    def hist_csv() -> bytes:
        from .rmt import histogram
        samples = spectral_replicas(
            EnsembleSpec(32, Sum((HaarU(), HaarU(-1, -1)))), 4, seed)
        edges, dens = histogram(samples, 20, (-2.0, 2.0))
        rows = [(float(edges[i]), float(edges[i + 1]), float(dens[i]))
                for i in range(len(dens))]
        return csv_bytes(("bin_left", "bin_right", "density"), rows)

    same_traces = trace_csv() == trace_csv()
    same_hist = hist_csv() == hist_csv()
    passed = same_traces and same_hist
    return _result(
        "determinism",
        "re-running a simulation with the same seed reproduces CSV "
        "outputs byte for byte",
        "identical bytes",
        f"traces identical: {same_traces}, histograms identical: {same_hist}",
        "bytes", passed, seed, t0)


CHECKS = {
    "weingarten_exactness": check_weingarten_exactness,
    "weingarten_asymptotics": check_weingarten_asymptotics,
    "index_sum_oracle": check_index_sum_oracle,
    "invariance_counterexample": check_invariance_counterexample,
    "first_order_limits": check_first_order_limits,
    "power_trace_fluctuations": check_fluctuation_diagonal,
    "transpose_second_order": check_transpose_second_order,
    "conjugate_transpose_decay": check_conjugate_transpose_decay,
    "spectral_laws": check_spectral_laws,
    "mu2_oracle": check_mu2_oracle,
    "cumulant_algebra": check_cumulant_algebra,
    "determinism": check_determinism,
}

SUITES = {
    "exact": ("weingarten_exactness", "weingarten_asymptotics",
              "index_sum_oracle", "invariance_counterexample",
              "first_order_limits", "power_trace_fluctuations",
              "mu2_oracle"),
    "mc": ("transpose_second_order", "conjugate_transpose_decay",
           "spectral_laws", "cumulant_algebra", "determinism"),
}
SUITES["all"] = SUITES["exact"] + SUITES["mc"]


def run_suite(suite: str, seed: int = 0) -> list:
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; have {sorted(SUITES)}")
    return [CHECKS[name](seed) for name in SUITES[suite]]
