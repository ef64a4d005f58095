"""The exact trace-expectation engine: entry products, closed-form
moments, the grammar, the invariance gap."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from haarlab import haar_expect
from haarlab.combinat import enumerate_alpha_pairings, pi_epsilon
from haarlab.errors import CapacityError, DimensionError, WordParseError
from haarlab.exact import (QC, QC_ONE, QC_ZERO, identity_qc, mat_mul,
                           mat_trace, mat_transpose, qc_matrix)
from haarlab.haar_expect import (ConstantLetter, HaarLetter,
                                 TraceProductExpr, TraceWord,
                                 _rotate_to_haar_form,
                                 entry_product_expectation,
                                 expected_trace_product, first_order_limit,
                                 invariance_counterexample, load_matrix_csv,
                                 parse_trace_product)
from haarlab.rmt import sample_haar_unitary
from haarlab.weingarten import phi, wg_table
from oracles import integer_partitions, power_trace_moment

U = HaarLetter(1, 1)
UT = HaarLetter(-1, 1)
UC = HaarLetter(1, -1)
US = HaarLetter(-1, -1)

A_MAT = qc_matrix([[1, 2], [3, 4]])
B_MAT = qc_matrix([[0, 1], [-1, 2]])


def _expr(words, N):
    return TraceProductExpr(words=tuple(words), N=N)


def _word(letters, normalized=False):
    return TraceWord(tuple(letters), normalized=normalized)


# -- entry products -----------------------------------------------------

def test_entry_product_basics():
    # E u_11 ubar_11 = 1/N; unbalanced alphas vanish
    assert entry_product_expectation([1, -1], [1, 1], [1, 1], 3) \
        == Fraction(1, 3)
    assert entry_product_expectation([1, -1], [1, 2], [1, 1], 3) == 0
    assert entry_product_expectation([1, 1], [1, 1], [1, 1], 3) == 0
    assert entry_product_expectation([1], [1], [1], 3) == 0
    assert entry_product_expectation([], [], [], 3) == 1


def test_entry_product_degree_four():
    N = 4
    # E |u_11|^4 = 2/(N(N+1))
    assert entry_product_expectation([1, 1, -1, -1], [1, 1, 1, 1],
                                     [1, 1, 1, 1], N) \
        == Fraction(2, N * (N + 1))
    # distinct rows and columns kill the swap term; only the identity
    # permutation pair survives, leaving Wg(1,1) = 1/(N^2-1)
    got = entry_product_expectation([1, 1, -1, -1], [1, 2, 1, 2],
                                    [1, 2, 1, 2], N)
    assert got == Fraction(1, N ** 2 - 1)
    # E |u_11 u_12|^2 shares a row, so both permutations contribute
    got = entry_product_expectation([1, 1, -1, -1], [1, 1, 1, 1],
                                    [1, 2, 1, 2], N)
    assert got == Fraction(1, N ** 2 - 1) - Fraction(1, N * (N ** 2 - 1))


def test_entry_product_validates():
    with pytest.raises(ValueError):
        entry_product_expectation([1, -1], [1, 5], [1, 1], 3)
    with pytest.raises(ValueError):
        entry_product_expectation([1, 2], [1, 1], [1, 1], 3)


def _entry_pair_loop(alpha, rows, cols, N):
    """The entry-product pairing sum written out: the Weingarten weight
    of each pair's class over pairs of alpha-compatible pairings with
    rows constant on the blocks of p and columns constant on the blocks
    of q."""
    if len(alpha) % 2 or sum(alpha) != 0:
        return Fraction(0)
    pairings = list(enumerate_alpha_pairings(alpha))
    row_ok = [all(rows[a - 1] == rows[b - 1] for a, b in p.items())
              for p in pairings]
    col_ok = [all(cols[a - 1] == cols[b - 1] for a, b in p.items())
              for p in pairings]
    total = Fraction(0)
    for p, pok in zip(pairings, row_ok):
        for q, qok in zip(pairings, col_ok):
            if pok and qok:
                total += wg_table(len(alpha) // 2, N)[phi(p, q)]
    return total


def test_entry_product_matches_pair_loop_on_random_tuples():
    rng = random.Random(11)
    nonzero = 0
    for _ in range(240):
        N = rng.randint(1, 4)
        k = rng.randint(1, 3)
        alpha = [1] * k + [-1] * k
        if rng.random() < 0.15:  # unbalanced, or of odd length
            alpha = [rng.choice([1, -1]) for _ in range(rng.randint(1, 6))]
        rng.shuffle(alpha)
        rows = [rng.randint(1, N) for _ in alpha]
        cols = [rng.randint(1, N) for _ in alpha]
        got = entry_product_expectation(alpha, rows, cols, N)
        assert isinstance(got, Fraction)
        assert got == _entry_pair_loop(alpha, rows, cols, N), \
            (alpha, rows, cols, N)
        nonzero += bool(got)
    assert nonzero > 50


def test_entry_product_rejects_an_imaginary_part(monkeypatch):
    from haarlab import haar_expect
    monkeypatch.setattr(haar_expect, "expected_trace_product",
                        lambda expr: QC(0, 1))
    with pytest.raises(RuntimeError):
        entry_product_expectation([1, -1], [1, 1], [1, 1], 2)


def test_entry_product_brute_force_oracle():
    # Monte Carlo check of the pairing formula on random index tuples
    rng = np.random.default_rng(7)
    N, reps = 3, 60000
    us = [sample_haar_unitary(N, np.random.default_rng(s))
          for s in range(reps)]
    for trial in range(4):
        alpha = [1, 1, -1, -1]
        rng.shuffle(alpha)
        rows = rng.integers(1, N + 1, size=4)
        cols = rng.integers(1, N + 1, size=4)
        exact = entry_product_expectation(alpha, rows.tolist(),
                                          cols.tolist(), N)
        acc = 0.0 + 0.0j
        for u in us:
            term = 1.0 + 0.0j
            for a, r, c in zip(alpha, rows, cols):
                e = u[r - 1, c - 1]
                term *= e if a == 1 else np.conj(e)
            acc += term
        mc = acc / reps
        assert abs(mc - complex(Fraction(exact))) < 0.01


# -- closed-form trace moments ------------------------------------------

def test_single_trace_vanishes():
    assert expected_trace_product(_expr([_word([U])], 5)) == QC_ZERO


def test_tr_u_ubar_pair():
    # E Tr(U) Tr(U-) = 1 at every N
    for N in (1, 2, 3, 6):
        e = _expr([_word([U]), _word([UC])], N)
        assert expected_trace_product(e) == QC_ONE


def test_normalized_transpose_coupling():
    # E tr(U U-) = 1/N, E tr(U Ut) = 0, E tr(U U*) = 1
    for N in (2, 5):
        assert expected_trace_product(_expr([_word([U, UC], True)], N)) \
            == QC(Fraction(1, N))
        assert expected_trace_product(_expr([_word([U, UT], True)], N)) \
            == QC_ZERO
        assert expected_trace_product(_expr([_word([U, US], True)], N)) \
            == QC_ONE


def test_power_trace_covariance():
    # E |Tr U^k|^2 = min(k, N)
    for k, N in [(1, 3), (2, 3), (3, 3), (3, 2), (4, 2)]:
        e = _expr([_word([U] * k), _word([UC] * k)], N)
        assert expected_trace_product(e) == QC(Fraction(min(k, N)))


def test_fourth_moment_of_trace():
    # E |Tr U|^4 = 2 once N >= 2, but 1 at N = 1
    e2 = _expr([_word([U]), _word([U]), _word([UC]), _word([UC])], 2)
    assert expected_trace_product(e2) == QC(Fraction(2))
    e1 = _expr([_word([U]), _word([U]), _word([UC]), _word([UC])], 1)
    assert expected_trace_product(e1) == QC_ONE


def _power_trace_word(mu, nu, u_odd: int, ubar_odd: int) -> str:
    """Tr(U^mu_1) ... Tr(Ubar^nu_1) ..., factor k of the U side spelled
    with Ut when k + u_odd is odd, and of the Ubar side with U* when
    k + ubar_odd is odd (Tr(Ut^m) = Tr(U^m), Tr(U*^m) = Tr(Uc^m))."""
    def trace(letter, m):
        return f"Tr({' '.join([letter] * m)})"
    return "".join(
        [trace(("U", "Ut")[(k + u_odd) % 2], m) for k, m in enumerate(mu)]
        + [trace(("Uc", "U*")[(k + ubar_odd) % 2], m)
           for k, m in enumerate(nu)])


def test_power_trace_words_match_the_character_oracle():
    """Every product of single-variant power traces with at most 4 U and
    4 Ubar letters, at N = 1..8, against the character sum; over N each
    factor is spelled both ways, so U and Ut each meet Uc and U*."""
    sides = [mu for n in range(5) for mu in integer_partitions(n)]
    pairs = [(mu, nu) for mu in sides for nu in sides if mu or nu]
    mismatches = []
    for N in range(1, 9):
        for i, (mu, nu) in enumerate(pairs):
            text = _power_trace_word(mu, nu, i + N, i + N // 2)
            got = expected_trace_product(parse_trace_product(text, N=N))
            if got != power_trace_moment(mu, nu, N):
                mismatches.append((text, N, got))
    assert len(pairs) == 143 and not mismatches, mismatches


@pytest.mark.parametrize("mu, nu", [((5,), (5,)), ((3, 2), (2, 2, 1)),
                                    ((2, 1, 1, 1), (1, 1, 1, 1, 1))])
def test_order5_power_trace_words_match_the_character_oracle(mu, nu):
    for N, u_odd, ubar_odd in ((2, 0, 0), (3, 1, 0), (8, 0, 1)):
        text = _power_trace_word(mu, nu, u_odd, ubar_odd)
        got = expected_trace_product(parse_trace_product(text, N=N))
        assert got == power_trace_moment(mu, nu, N), (text, N)


def test_conjugation_by_constant():
    # E Tr(U A U* B) = Tr(A) Tr(B) / N
    a = ConstantLetter("A", A_MAT)
    b = ConstantLetter("B", B_MAT)
    e = _expr([_word([U, a, US, b])], 2)
    assert expected_trace_product(e) == QC(Fraction(5 * 2, 2))


def test_entrywise_conjugate_coupling():
    # E Tr(U A Uc B) = Tr(A B^t) / N
    a = ConstantLetter("A", A_MAT)
    b = ConstantLetter("B", B_MAT)
    e = _expr([_word([U, a, UC, b])], 2)
    # Tr(A B^t) = sum_ij A_ij B_ij = 0 + 2 - 3 + 8
    assert expected_trace_product(e) == QC(Fraction(7, 2))


def test_transpose_letter_gives_zero_two_point():
    a = ConstantLetter("A", A_MAT)
    b = ConstantLetter("B", B_MAT)
    e = _expr([_word([U, a, UT, b])], 2)
    assert expected_trace_product(e) == QC_ZERO


def test_pure_constant_word():
    a = ConstantLetter("A", A_MAT)
    assert expected_trace_product(_expr([_word([a])], 2)) == QC(Fraction(5))
    assert expected_trace_product(_expr([_word([a], True)], 2)) \
        == QC(Fraction(5, 2))


def test_empty_expression_is_one():
    assert expected_trace_product(_expr([], 3)) == QC_ONE


def test_engine_cap_is_checked_before_any_constant_product(monkeypatch):
    """Two words of 7 Haar letters, each followed by the constants A B:
    14 Haar letters in all, two over the cap, are refused before any
    constant run is multiplied or any word rotated."""
    def not_wanted(*args):
        raise AssertionError("constants multiplied before the cap")

    monkeypatch.setattr(haar_expect, "_rotate_to_haar_form", not_wanted)
    monkeypatch.setattr(haar_expect, "mat_mul", not_wanted)
    a = ConstantLetter("A", A_MAT)
    b = ConstantLetter("B", B_MAT)
    words = [_word([x for h in (U, UC, U, UC, U, UC, U)
                    for x in (h, a, b)]),
             _word([x for h in (UC, U, UC, U, UC, U, UC)
                    for x in (h, a, b)])]
    with pytest.raises(CapacityError, match="with 14 Haar letters exceeds"):
        expected_trace_product(_expr(words, 2))


def test_a_run_whose_product_is_the_identity_is_carried():
    """Only an empty run reads None: B B^-1 is carried as the identity
    matrix, and E Tr(U B B^-1 U*) is E Tr(U U*) = N all the same."""
    b = ConstantLetter("B", qc_matrix([[1, 1], [0, 1]]))
    b_inv = ConstantLetter("C", qc_matrix([[1, -1], [0, 1]]))
    assert _rotate_to_haar_form((U, b, b_inv, US)) == [(U, identity_qc(2)),
                                                       (US, None)]
    assert expected_trace_product(_expr([_word([U, b, b_inv, US])], 2)) \
        == QC(2)


# -- limits and the invariance gap --------------------------------------

def test_first_order_limit_table():
    variants = [(1, 1), (-1, 1), (1, -1), (-1, -1)]
    for v in variants:
        for w in variants:
            expect = 1 if (v[0] == -w[0] and v[1] == -w[1]) else 0
            assert first_order_limit(2, v, 2, w) == expect
            assert first_order_limit(1, v, 2, w) == 0
    assert first_order_limit(3, (1, 1), 3, (-1, -1)) == 1
    with pytest.raises(ValueError):
        first_order_limit(0, (1, 1), 1, (1, 1))
    with pytest.raises(ValueError):
        first_order_limit(1, (1, 0), 1, (1, 1))


def test_invariance_counterexample_values():
    lhs, rhs = invariance_counterexample(Fraction(1, 4), 10)
    assert lhs == 0
    assert rhs == Fraction(4, 10) * Fraction(1, 4) * Fraction(3, 4)
    lhs, rhs = invariance_counterexample(Fraction(1, 2), 2)
    assert (lhs, rhs) == (0, Fraction(1, 2))
    # orthogonal angles leave no gap
    for c in (Fraction(0), Fraction(1)):
        assert invariance_counterexample(c, 5) == (0, 0)
    with pytest.raises(ValueError):
        invariance_counterexample(Fraction(3, 2), 5)
    with pytest.raises(ValueError):
        invariance_counterexample(Fraction(1, 2), 1)


# -- grammar ------------------------------------------------------------

def test_parse_all_haar_tokens():
    e = parse_trace_product("Tr(U Ut Uc U*)", N=4)
    letters = e.words[0].letters
    assert [(l.eps, l.eta) for l in letters] \
        == [(1, 1), (-1, 1), (1, -1), (-1, -1)]
    assert not e.words[0].normalized
    assert e.N == 4


def test_parse_multiple_factors_and_tr():
    e = parse_trace_product("Tr(U)tr( Uc )", N=3)
    assert len(e.words) == 2
    assert not e.words[0].normalized
    assert e.words[1].normalized


def test_parse_constant_and_transpose_suffix():
    e = parse_trace_product("Tr(U A U* At)", {"A": A_MAT})
    assert e.N == 2  # inferred from the constant
    a_plain = e.words[0].letters[1]
    a_t = e.words[0].letters[3]
    assert not a_plain.transpose and a_t.transpose
    assert a_t.resolved() == qc_matrix([[1, 3], [2, 4]])


def test_parse_errors():
    with pytest.raises(WordParseError):
        parse_trace_product("Tr(U", N=3)
    with pytest.raises(WordParseError):
        parse_trace_product("Tr(U X)", N=3)
    with pytest.raises(WordParseError):
        parse_trace_product("Tr(U)", None)  # no N and no constants
    with pytest.raises(WordParseError):
        parse_trace_product("", N=3)


def test_parse_dimension_conflict():
    with pytest.raises(DimensionError):
        parse_trace_product("Tr(U A)", {"A": A_MAT}, N=3)


@pytest.mark.parametrize("word", ["Tr(U A Uc B)", "Tr(A U Bt)",
                                  "Tr(U A)Tr(Uc A B)"])
@pytest.mark.parametrize("N", [2, None])
def test_every_constant_is_checked_against_N(word, N):
    """Not only the first constant of each factor: a 3 x 3 B after a
    2 x 2 A is refused, naming B, whether N is given or read from A."""
    b3 = identity_qc(3)
    with pytest.raises(DimensionError, match="'B' is 3 x 3"):
        parse_trace_product(word, {"A": A_MAT, "B": b3}, N)


@pytest.mark.parametrize("name", ["U", "Ut", "Uc", "U*", "", "A B",
                                  "A\tB", "A(", "(A)", "B)"])
def test_constant_the_grammar_cannot_read_is_refused(name):
    """A constant named like a Haar letter would lose to the Haar token
    and be dropped without a word; one holding whitespace or a
    parenthesis can never be a token."""
    with pytest.raises(WordParseError, match="cannot name a constant"):
        parse_trace_product("Tr(U)", {name: A_MAT}, N=2)
    with pytest.raises(WordParseError, match="cannot name a constant"):
        parse_trace_product("Tr(U A)", {"A": A_MAT, name: A_MAT})


@pytest.mark.parametrize("name", ["A,B", "A,", 'A"', '"A"'])
def test_constant_name_that_would_break_a_csv_cell_is_refused(name):
    """simulate writes each word into a CSV cell unquoted, so a comma or
    a double quote in a constant name is refused like whitespace."""
    with pytest.raises(WordParseError, match="cannot name a constant"):
        parse_trace_product("Tr(U)", {name: A_MAT}, N=2)


@pytest.mark.parametrize("order", [("A", "At"), ("At", "A")])
def test_constant_named_like_another_constants_transpose_is_refused(order):
    """With A = [[1, 2], [3, 4]] and a second constant At = diag(5, 7),
    the token At could read as A's transpose (trace 5) or as the
    constant At (trace 12); the pair is refused in either order."""
    mats = {"A": A_MAT, "At": qc_matrix([[5, 0], [0, 7]])}
    with pytest.raises(WordParseError, match="'At' is already a token"):
        parse_trace_product("Tr(At)", {name: mats[name] for name in order})
    assert expected_trace_product(
        parse_trace_product("Tr(At)", {"A": A_MAT})) == QC(5)


def test_each_token_reads_as_one_letter_object():
    e = parse_trace_product("Tr(U A At)Tr(A Uc At U)", {"A": A_MAT})
    (u, a, at), (a2, uc, at2, u2) = (w.letters for w in e.words)
    assert a is a2 and at is at2 and u is u2
    assert (repr(a), repr(at), repr(uc)) == ("A", "At", "Uc")


def test_load_matrix_csv(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("row,col,re_num,re_den,im_num,im_den\n"
                 "1,1,1,2,0,1\n1,2,0,1,-1,3\n2,1,0,1,0,1\n2,2,5,1,0,1\n")
    m = load_matrix_csv(str(p))
    assert m == qc_matrix([[Fraction(1, 2), QC(0, Fraction(-1, 3))], [0, 5]])


def test_load_matrix_csv_reads_a_byte_order_mark(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_text("1,1,1,1,0,1\n2,2,-3,2,0,1\n", encoding="utf-8-sig")
    assert p.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_matrix_csv(str(p)) == qc_matrix([[1, 0],
                                                 [0, Fraction(-3, 2)]])


def test_load_matrix_csv_rejects_zero_based(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("row,col,re_num,re_den,im_num,im_den\n0,0,1,1,0,1\n")
    with pytest.raises(WordParseError):
        load_matrix_csv(str(p))


@pytest.mark.parametrize("row", ["1,1,1,1,0,1,7", "2,2,1,1,0,1,junk",
                                 "1,1,1,1,0,1,", "1,1,1,1,0"])
def test_load_matrix_csv_wants_exactly_six_fields(tmp_path, row):
    p = tmp_path / "m.csv"
    p.write_text(f"1,2,1,1,0,1\n{row}\n")
    with pytest.raises(WordParseError) as err:
        load_matrix_csv(str(p))
    assert repr(row.split(",")) in str(err.value) and str(p) in str(err.value)


# -- the pairing-sum kernel against the per-pair object loop ------------

def _per_pair_oracle(expr):
    """E Tr(w) by the per-pair loop: tau's whole partner map, pi_epsilon
    and a full trace product for every pair (p, q)."""
    N = expr.N
    const_factor = QC_ONE
    segments = []
    norm = Fraction(1)
    for word in expr.words:
        if word.normalized:
            norm /= N
        if word.haar_count() == 0:
            prod = None
            for l in word.letters:
                prod = l.resolved() if prod is None \
                    else mat_mul(prod, l.resolved())
            const_factor = const_factor * mat_trace(prod)
        else:
            segments.append(_rotate_to_haar_form(word.letters))
    if not segments:
        return const_factor * QC(norm)
    flat = [pair for seg in segments for pair in seg]
    M = len(flat)
    eta = [u.eta for u, _ in flat]
    if sum(eta) != 0:
        return QC_ZERO
    eps = [u.eps for u, _ in flat]
    mats = [b for _, b in flat]
    gamma = [0] * (M + 1)
    start = 1
    for seg in segments:
        idx = list(range(start, start + len(seg)))
        for a, b in zip(idx, idx[1:] + idx[:1]):
            gamma[a] = b
        start += len(seg)
    phi_map = {}
    for l in range(1, M + 1):
        phi_map[l] = -eps[l - 1] * l
        phi_map[-l] = eps[gamma[l] - 1] * gamma[l]
    phi_inv = {v: k for k, v in phi_map.items()}

    def cycle_trace(cycles, lam):
        total = QC_ONE
        for cyc in cycles:
            prod = None
            for j in cyc:
                b = mats[j - 1]
                if b is None:
                    continue
                if lam[j - 1] == -1:
                    b = mat_transpose(b)
                prod = b if prod is None else mat_mul(prod, b)
            total = total * (QC(N) if prod is None else mat_trace(prod))
        return total

    pairings = list(enumerate_alpha_pairings(eta))
    total = QC_ZERO
    for p in pairings:
        for q in pairings:
            tau = {}
            for x in phi_map:
                y = phi_map[x]
                y = p[y] if y > 0 else -q[-y]
                tau[x] = phi_inv[y]
            val = cycle_trace(*pi_epsilon(tau))
            if val:
                total = total + val * QC(wg_table(M // 2, N)[phi(p, q)])
    return const_factor * total * QC(norm)


def _random_expr(rng, order=None):
    """A random word with transposed letters and constants; when its
    order is drawn here it is unbalanced one time in ten, and a given
    order is always eta-balanced."""
    drawn = order is None
    if drawn:
        order = rng.choice([1, 1, 2, 2, 2, 3, 3, 3, 3, 4])
    # dense 4 x 4 constants make the order-4 oracle slow; N < 4 keeps
    # order 4 in the pseudo-inverse regime all the same
    N = rng.randint(1, 3 if order >= 4 else 4)
    haar = [rng.choice([U, UT]) for _ in range(order)] + \
        [rng.choice([UC, US]) for _ in range(order)]
    if rng.random() < 0.1 and drawn:  # unbalanced: the expectation vanishes
        haar[0] = rng.choice([UC, US])
    rng.shuffle(haar)
    pool = [ConstantLetter("I", identity_qc(N))]
    for name in "AB":
        mat = [[QC(rng.randint(-2, 2), rng.choice([0, 0, rng.randint(-1, 1)]))
                for _ in range(N)] for _ in range(N)]
        pool.append(ConstantLetter(name, mat))
        pool.append(ConstantLetter(name, mat, transpose=True))
    # one chunk per Haar letter, some followed by a constant; the chunks
    # are split into one to three trace factors
    chunks = [[u] + ([rng.choice(pool)] if rng.random() < 0.4 else [])
              for u in haar]
    cuts = sorted(rng.sample(range(1, len(chunks)),
                             min(rng.randint(0, 2), len(chunks) - 1)))
    words = []
    for a, b in zip([0] + cuts, cuts + [len(chunks)]):
        letters = [l for chunk in chunks[a:b] for l in chunk]
        words.append(_word(letters, rng.random() < 0.3))
    if rng.random() < 0.1:
        words.append(_word([rng.choice(pool[1:])]))
    return _expr(words, N)


def test_kernel_matches_per_pair_oracle_on_random_words():
    rng = random.Random(2024)
    nonzero = 0
    for _ in range(200):
        e = _random_expr(rng)
        got = expected_trace_product(e)
        assert got == _per_pair_oracle(e), e
        nonzero += bool(got)
    assert nonzero > 100


def test_constant_free_order5_evaluates_few_traces(monkeypatch):
    from haarlab import haar_expect
    keys = []
    key_trace = haar_expect._key_trace

    def counting(key, mats, N):
        keys.append(key)
        return key_trace(key, mats, N)

    monkeypatch.setattr(haar_expect, "_key_trace", counting)
    e = _expr([_word([U] * 5), _word([UC] * 5)], 8)
    assert expected_trace_product(e) == QC(5)
    assert len(keys) == len(set(keys)) <= 5


def test_kernel_builds_no_per_pair_objects(monkeypatch):
    from haarlab import haar_expect
    pairings = []
    enumerate_alpha = haar_expect.enumerate_alpha_pairings

    def recording(eta):
        for p in enumerate_alpha(eta):
            pairings.append(p)
            yield p

    monkeypatch.setattr(haar_expect, "enumerate_alpha_pairings", recording)
    e = _expr([_word([U] * 4), _word([UC] * 4)], 8)
    assert expected_trace_product(e) == QC(4)
    # the 4! alpha pairings are plain partner maps
    assert len(pairings) == 24
    assert all(type(p) is dict for p in pairings)


def test_kernel_counts_pairs_without_hashing_weights(monkeypatch):
    # the pair tally is keyed by integers; a Fraction is rebuilt once
    # per (trace key, weight) cell, not hashed per pair
    hashes = [0]
    fraction_hash = Fraction.__hash__

    def counting(self):
        hashes[0] += 1
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    e = _expr([_word([U] * 4), _word([UC] * 4)], 8)
    assert expected_trace_product(e) == QC(4)
    assert hashes[0] < 100


def _count_calls(monkeypatch, *names):
    """Count calls of haar_expect's module attributes, as the kernel
    makes them."""
    from haarlab import haar_expect
    calls = dict.fromkeys(names, 0)

    def counted(name):
        inner = getattr(haar_expect, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(haar_expect, name, wrapper)

    for name in names:
        counted(name)
    return calls


def test_kernel_skips_phi_for_pairs_whose_trace_vanishes(monkeypatch):
    # counted at the module attributes the kernel calls, not derived
    # from each other: every pair walks pi_epsilon, and phi runs only
    # when some pair's trace key is nonzero
    calls = _count_calls(monkeypatch, "pi_epsilon", "phi")
    consts = {"A": qc_matrix([[1, 0], [0, -1]]),
              "B": qc_matrix([[1, 2], [0, 3]])}
    e = parse_trace_product("Tr(U A U*)Tr(U B U*)", consts, N=2)
    assert expected_trace_product(e) == QC_ZERO
    assert calls == {"pi_epsilon": 4, "phi": 2}
    calls.update(pi_epsilon=0, phi=0)
    e = parse_trace_product("Tr(U A U* B)", consts, N=2)
    expected_trace_product(e)
    assert calls == {"pi_epsilon": 1, "phi": 0}


def _class_word_orders():
    # orders 1-5, eta-balanced, with transposed letters and constants
    rng = random.Random(26)
    return [(order, _random_expr(rng, order))
            for order in [1, 2, 3, 4, 5] * 4]


def test_class_table_matches_phi_on_every_pair(monkeypatch):
    from haarlab import haar_expect
    tables = []
    pair_classes = haar_expect._pair_classes

    def recording(alpha, pairings):
        classes, class_of = pair_classes(alpha, pairings)
        tables.append((list(pairings), classes, class_of))
        return classes, class_of

    monkeypatch.setattr(haar_expect, "_pair_classes", recording)
    sizes = set()
    for order, e in _class_word_orders():
        tables.clear()
        expected_trace_product(e)
        for pairings, classes, class_of in tables:
            sizes.add((order, len(classes)))
            assert len(pairings) == math.factorial(order)
            assert class_of.shape == (len(pairings), len(pairings))
            assert sorted(classes) == sorted(set(classes))
            for p, row in zip(pairings, class_of.tolist()):
                assert [classes[c] for c in row] == \
                    [phi(p, q) for q in pairings], e
    # a table holds every class of S_n: the 7 cycle types at order 5
    assert sizes == {(1, 1), (2, 2), (3, 3), (4, 5), (5, 7)}


def test_kernel_calls_phi_once_per_pairing(monkeypatch):
    from haarlab import haar_expect
    calls = _count_calls(monkeypatch, "pi_epsilon", "phi")
    traces = []
    key_trace = haar_expect._key_trace

    def recording(key, mats, N):
        traces.append(key_trace(key, mats, N))
        return traces[-1]

    monkeypatch.setattr(haar_expect, "_key_trace", recording)
    consts = {"A": qc_matrix([[1, 0], [0, -1]]),
              "B": qc_matrix([[1, 2], [0, 3]])}
    # the first word's only trace vanishes, so phi is never called
    words = [(2, parse_trace_product("Tr(U A U* A)Tr(U Uc A)", consts, N=2))]
    words += _class_word_orders()
    skipped = 0
    for order, e in words:
        calls.update(pi_epsilon=0, phi=0)
        traces.clear()
        expected_trace_product(e)
        pairs = math.factorial(order)
        assert calls["pi_epsilon"] == pairs ** 2
        assert calls["phi"] == (pairs if any(traces) else 0), e
        skipped += not any(traces)
    assert skipped
