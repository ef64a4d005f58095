"""Exact expectations of trace products of words in a Haar unitary's
four variants U, Ut, U-bar, U*, interleaved with deterministic constant
matrices.  An entry moment is such a product too: u_rc = Tr(U E_cr)
for the matrix unit E_cr.

The trace-product evaluator follows the pairing bookkeeping that makes
these integrals finite sums: letters are numbered 1..M, the one-cycle-
per-word permutation gamma and the transpose signs eps build the index
relabeling phi = eps gamma delta, and each pair of eta-compatible
pairings (p, q) contributes its Weingarten weight times the trace
product read off pi_epsilon of the conjugated involution
tau = phi^-1 p delta q delta phi.  The weight depends on the pair only
through its class, the cycle type of pq's mate pairs, so the sum is

    E Tr(w) = sum over trace keys of Tr_key * sum over classes of
              count(key, class) * Wg_N(class).

Every pairing is a plain partner map {k: p(k)}, as
enumerate_alpha_pairings yields it.  Per pair the engine joins two
precomputed halves of tau's partner map {k: tau(k)} on [+-M] (one half
per pairing p, one per q) into a plain dict, walks it once in
pi_epsilon (the walk also checks that the map is a signed pairing), and
reduces pi's cycles and the signs eps to a trace key: the number of
constant-free cycles plus the constant-carrying cycles, found among the
letters that carry a constant (for a word without constants the key is
the cycle count alone).  Each distinct trace key has its trace
evaluated, and tested for zero, once, and each pair's key index goes
into an (n!, n!) integer array.  The classes need no per-pair walk:
every pairing matches the plus letters to the minus letters through a
permutation sigma, and on the plus letters pq is sigma_p^-1 sigma_q, so
a pair's class is that permutation's cycle type.  _pair_classes builds
the (n!, n!) table of sigma_p^-1 sigma_q and labels each of its n!
permutations once by weingarten.phi, and one bincount gives the integer
count per (trace key, class).  When every trace vanishes no class is
labelled.  The pair counts do not depend on N: N enters once per class,
through wg_table(M / 2, N), and the rational-complex arithmetic runs
once per key.  No Fraction is built or hashed per pair.  Everything
stays exact; the numpy arrays hold integers only, and nothing is
floated.

A product whose Haar letters' eta signs do not sum to 0 is 0 at
any length; a balanced one of more than PAIRING_POINT_CAP Haar letters
raises CapacityError.  pairing_trace is the kernel's trace of one
signed pairing, public for the index-sum oracle.  N is an int: a float
or a bool raises TypeError.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .combinat import (PAIRING_POINT_CAP, enumerate_alpha_pairings,
                       pi_epsilon)
from .errors import (CapacityError, DimensionError, HaarlabError,
                     WordParseError, require_int)
from .exact import (QC, QC_ONE, QC_ZERO, QCMatrix, mat_mul, mat_trace,
                    mat_trace_product, mat_transpose, qc_matrix)
from .weingarten import CycleType, phi, wg_table

# The four Haar variants, (eps, eta) -> the word grammar's token; the
# tokens are also the letters' reprs.
VARIANT_NAMES = {(1, 1): "U", (-1, 1): "Ut", (1, -1): "Uc", (-1, -1): "U*"}
# The largest dimension load_matrix_csv reads: its dense object arrays
# then hold 2 x 4096^2 references, and an exact product at that size is
# already billions of Python-int operations.
CONSTANT_DIMENSION_CAP = 4096


@dataclass(frozen=True)
class HaarLetter:
    """One occurrence of the Haar unitary: eps = -1 transposes,
    eta = -1 conjugates entries."""

    eps: int = 1
    eta: int = 1

    def __post_init__(self):
        if self.eps not in (1, -1) or self.eta not in (1, -1):
            raise HaarlabError("eps and eta must be +1 or -1")

    def __repr__(self) -> str:
        return VARIANT_NAMES[(self.eps, self.eta)]


@dataclass(frozen=True)
class ConstantLetter:
    name: str
    matrix: QCMatrix
    transpose: bool = False

    def __post_init__(self):
        object.__setattr__(self, "matrix", qc_matrix(self.matrix))
        rows, cols = self.matrix.shape
        if rows != cols:
            raise DimensionError(f"constant {self.name!r} is not square")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def resolved(self) -> QCMatrix:
        return mat_transpose(self.matrix) if self.transpose else self.matrix

    def __repr__(self) -> str:
        return self.name + ("t" if self.transpose else "")


@dataclass(frozen=True)
class TraceWord:
    """Tr (or tr, when normalized) of a product of letters."""

    letters: tuple
    normalized: bool = False

    def __post_init__(self):
        letters = tuple(self.letters)
        if not letters:
            raise HaarlabError("a trace word must contain at least one letter")
        for l in letters:
            if not isinstance(l, (HaarLetter, ConstantLetter)):
                raise TypeError(f"not a letter: {l!r}")
        object.__setattr__(self, "letters", letters)

    def haar_count(self) -> int:
        return sum(1 for l in self.letters if isinstance(l, HaarLetter))

    def constants(self) -> list:
        return [l for l in self.letters if isinstance(l, ConstantLetter)]

    def __repr__(self) -> str:
        body = " ".join(repr(l) for l in self.letters)
        return f"{'tr' if self.normalized else 'Tr'}({body})"


@dataclass(frozen=True)
class TraceProductExpr:
    """A product of trace factors evaluated at one dimension N, an int;
    every constant letter must be N x N."""

    words: tuple
    N: int

    def __post_init__(self):
        words = tuple(self.words)
        object.__setattr__(self, "words", words)
        require_int(self.N, "dimension N")
        if self.N < 1:
            raise DimensionError("dimension N must be at least 1")
        for w in words:
            for c in w.constants():
                if c.dim != self.N:
                    raise DimensionError(f"constant {c.name!r} is {c.dim} x "
                                         f"{c.dim}, which does not match "
                                         f"N={self.N}")

    def __repr__(self) -> str:
        return "".join(repr(w) for w in self.words) + f" @N={self.N}"


# ----------------------------------------------------------------------
# trace products

def _product(mats: Sequence[QCMatrix]) -> QCMatrix:
    """The product of mats, multiplied left to right."""
    prod = mats[0]
    for m in mats[1:]:
        prod = mat_mul(prod, m)
    return prod


def _trace_of_product(mats: Sequence[QCMatrix]) -> QC:
    """Tr of the product of mats; the last product is never formed."""
    if len(mats) == 1:
        return mat_trace(mats[0])
    return mat_trace_product(_product(mats[:-1]), mats[-1])


def _rotate_to_haar_form(letters: tuple) -> list[tuple[HaarLetter, QCMatrix | None]]:
    """The word read from its first Haar letter as U_1 B_1 U_2 B_2 ...
    U_M B_M, each B_i the product of the constant run after U_i (B_M
    wraps round to the word's start), None for an empty run; assumes at
    least one Haar letter."""
    first = next(i for i, l in enumerate(letters) if isinstance(l, HaarLetter))
    runs: list[tuple[HaarLetter, list]] = []
    for l in letters[first:] + letters[:first]:
        if isinstance(l, HaarLetter):
            runs.append((l, []))
        else:
            runs[-1][1].append(l.resolved())
    return [(u, _product(run) if run else None) for u, run in runs]


def _trace_key(cycles: Sequence[Sequence[int]], lam: Sequence[int],
               carrying: frozenset[int]) -> tuple:
    """What Tr_pi of the letters depends on, given pi's cycles and the
    letters that carry a constant: the number of cycles with no constant
    (each contributes N) and the sorted constant-carrying cycles, each a
    tuple of (letter, transposed) rotated to start at its smallest
    letter."""
    if not carrying:
        return len(cycles), ()
    free = 0
    carried = []
    for cyc in cycles:
        word = [(j, lam[j - 1] == -1) for j in cyc if j in carrying]
        if not word:
            free += 1
            continue
        i = word.index(min(word))
        carried.append(tuple(word[i:] + word[:i]))
    return free, tuple(sorted(carried))


def _key_trace(key: tuple, mats: Sequence[QCMatrix | None], N: int) -> QC:
    """The trace product a _trace_key stands for; a None letter is the
    identity."""
    free, carried = key
    total = QC(N ** free)
    for cycle in carried:
        factors = [mat_transpose(mats[j - 1]) if transposed else mats[j - 1]
                   for j, transposed in cycle]
        total = total * _trace_of_product(factors)
        if not total:
            break
    return total


def pairing_trace(partner: Mapping[int, int], mats: Sequence[QCMatrix],
                  N: int) -> QC:
    """The kernel's trace for the signed pairing partner of [+-n] when
    all n = len(mats) letters carry a constant: over the cycles of
    pi_epsilon(partner), the traces of their letters' products, letter
    k transposed where eps flips it."""
    cycles, lam = pi_epsilon(partner)
    key = _trace_key(cycles, lam, frozenset(range(1, len(mats) + 1)))
    return _key_trace(key, mats, N)


def _pair_classes(alpha: Sequence[int], pairings: Sequence[Mapping[int, int]]
                  ) -> tuple[list[CycleType], np.ndarray]:
    """The class phi(p, q) of every pair of alpha-pairings, as
    (classes, class_of): class_of[i, j] indexes classes at
    phi(pairings[i], pairings[j]).

    Each pairing matches the plus letters to the minus letters through
    a permutation sigma of their positions, and on the plus letters pq
    is sigma_p^-1 sigma_q, so the pair's class is that permutation's
    cycle type.  The (n!, n!) array of sigma_i^-1 sigma_j, coded as
    base-n digits, takes one fancy-index step per letter.  As q runs
    over the pairings, sigma_0^-1 sigma_q runs over every permutation,
    so phi(pairings[0], q) labels every code, one phi call per pairing.
    """
    points = range(1, len(alpha) + 1)
    plus = [k for k in points if alpha[k - 1] == 1]
    minus = [k for k in points if alpha[k - 1] == -1]
    rank = {m: r for r, m in enumerate(minus)}
    sigma = np.array([[rank[p[k]] for k in plus] for p in pairings], dtype=int)
    inverse = np.argsort(sigma, axis=1)
    n = len(plus)
    codes = np.zeros((len(pairings), len(pairings)), dtype=int)
    for k in range(n):
        codes *= n
        codes += inverse[:, sigma[:, k]]
    index: dict[CycleType, int] = {}
    label = np.zeros(n ** n, dtype=int)
    for code, q in zip(codes[0].tolist(), pairings):
        label[code] = index.setdefault(phi(pairings[0], q), len(index))
    return list(index), label[codes]


def expected_trace_product(expr: TraceProductExpr) -> QC:
    """Exact Haar expectation of a product of traces.

    Words with no Haar letter are evaluated directly (deterministic
    constants factor out of the expectation).  An expression with no
    words at all is the empty product, 1.
    """
    N = expr.N
    const_factor = QC_ONE
    haar_words = []
    norm_divisor = Fraction(1)
    for word in expr.words:
        if word.normalized:
            norm_divisor /= N
        if word.haar_count() == 0:
            const_factor = const_factor * _trace_of_product(
                [l.resolved() for l in word.letters])
        else:
            haar_words.append(word)
    if not const_factor:
        return QC_ZERO
    if not haar_words:
        return const_factor * QC(norm_divisor)

    # an unbalanced word is 0 at any length, and the cap comes before any
    # constant run of a Haar word is multiplied
    if sum(l.eta for word in haar_words for l in word.letters
           if isinstance(l, HaarLetter)) != 0:
        return QC_ZERO
    M = sum(word.haar_count() for word in haar_words)
    if M > PAIRING_POINT_CAP:
        raise CapacityError(f"trace product with {M} Haar letters exceeds "
                            f"engine cap {PAIRING_POINT_CAP}")
    segments = [_rotate_to_haar_form(word.letters) for word in haar_words]
    flat = [pair for seg in segments for pair in seg]
    eta = [u.eta for u, _ in flat]
    eps = [u.eps for u, _ in flat]
    mats = [b for _, b in flat]

    # gamma: one cycle per word, in letter order
    gamma = [0] * (M + 1)
    start = 1
    for seg in segments:
        idx = list(range(start, start + len(seg)))
        for a, b in zip(idx, idx[1:] + idx[:1]):
            gamma[a] = b
        start += len(seg)

    # phi = eps gamma delta on [+-M]
    phi_map: dict[int, int] = {}
    for l in range(1, M + 1):
        phi_map[l] = -eps[l - 1] * l
        g = gamma[l]
        phi_map[-l] = eps[g - 1] * g
    phi_inv = {v: k for k, v in phi_map.items()}

    # tau = phi^-1 (p delta q delta) phi sends x to phi^-1 p phi(x) when
    # phi(x) > 0 and to phi^-1 delta q delta phi(x) otherwise: the points
    # split into a half whose partners p fixes and a half whose partners
    # q fixes, so tau's partner map is a p-half joined to a q-half.
    on_p = [x for x in phi_map if phi_map[x] > 0]
    on_q = [x for x in phi_map if phi_map[x] < 0]
    pairings = list(enumerate_alpha_pairings(eta))
    p_halves = [{x: phi_inv[p[phi_map[x]]] for x in on_p} for p in pairings]
    q_halves = [{x: phi_inv[-q[-phi_map[x]]] for x in on_q} for q in pairings]

    # per distinct trace key: its index and its trace, evaluated once;
    # each pair's key index goes into key_of
    carrying = frozenset(j for j in range(1, M + 1) if mats[j - 1] is not None)
    keys: dict[tuple, int] = {}
    traces: list[QC] = []
    key_of = np.empty((len(pairings), len(pairings)), dtype=int)
    for i, p_half in enumerate(p_halves):
        row = []
        for q_half in q_halves:
            cycles, lam = pi_epsilon({**p_half, **q_half})
            key = _trace_key(cycles, lam, carrying)
            if key not in keys:
                keys[key] = len(traces)
                traces.append(_key_trace(key, mats, N))
            row.append(keys[key])
        key_of[i] = row
    total = QC_ZERO
    if any(traces):
        # an integer count of pairs per (trace key, class)
        classes, class_of = _pair_classes(eta, pairings)
        counts = np.bincount((key_of * len(classes) + class_of).ravel(),
                             minlength=len(traces) * len(classes))
        wg = wg_table(M // 2, N)
        for trace, per_class in zip(traces,
                                    counts.reshape(len(traces), -1).tolist()):
            if trace:
                weight = sum(count * wg[cls]
                             for cls, count in zip(classes, per_class))
                total = total + trace * QC(weight)
    return const_factor * total * QC(norm_divisor)


# ----------------------------------------------------------------------
# limits

def first_order_limit(m: int, variant: tuple[int, int],
                      n: int, variant2: tuple[int, int]) -> int:
    """Large-N limit of E(tr((U^(eps,eta))^m (U^(eps',eta'))^n)): one
    exactly when the powers match and the variants are mutual adjoints,
    zero otherwise."""
    if m < 1 or n < 1:
        raise HaarlabError("powers must be positive")
    (e1, h1), (e2, h2) = variant, variant2
    for s in (e1, h1, e2, h2):
        if s not in (1, -1):
            raise HaarlabError("variant signs must be +1 or -1")
    return int(m == n and e1 == -e2 and h1 == -h2)


# ----------------------------------------------------------------------
# word grammar

_FACTOR_RE = re.compile(r"\s*(Tr|tr)\s*\(\s*([^()]*?)\s*\)")
# a comma or a double quote would split or quote a word's CSV cell
_CONSTANT_NAME_RE = re.compile(r'[^\s(),"]+')


def parse_trace_product(text: str,
                        constants: Mapping[str, QCMatrix] | None = None,
                        N: int | None = None) -> TraceProductExpr:
    """Parse a trace-product string like "Tr(U A U*)tr(U Uc)".

    Haar letters are U, Ut, Uc, U*; a constant from the supplied mapping
    is its name, its transpose the name with a trailing t.  A constant
    name that is empty, holds whitespace, a parenthesis, a comma or a
    double quote, or has a token already taken (a Haar letter's, or
    A's beside a constant At) raises WordParseError.  N may be omitted
    when a constant fixes the dimension.
    """
    letters = {name: HaarLetter(*variant)
               for variant, name in VARIANT_NAMES.items()}
    for name, matrix in (constants or {}).items():
        if not _CONSTANT_NAME_RE.fullmatch(name):
            raise WordParseError(f"{name!r} cannot name a constant: a name "
                                 "is one token, no comma or double quote")
        for token, transpose in ((name, False), (name + "t", True)):
            seen = letters.get(token)
            if seen is not None:
                owner = ("a Haar letter" if isinstance(seen, HaarLetter)
                         else f"a token of constant {seen.name!r}")
                raise WordParseError(f"{name!r} cannot name a constant: "
                                     f"{token!r} is already {owner}")
            letters[token] = ConstantLetter(name, matrix, transpose)
    pos = 0
    words: list[TraceWord] = []
    while pos < len(text):
        m = _FACTOR_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise WordParseError(f"cannot parse {text[pos:].strip()!r}")
            break
        pos = m.end()
        if not m.group(2):
            raise WordParseError("empty trace factor")
        try:
            factor = tuple(letters[token] for token in m.group(2).split())
        except KeyError as exc:
            raise WordParseError(f"unknown letter {exc.args[0]!r}") from None
        words.append(TraceWord(factor, normalized=m.group(1) == "tr"))
    if not words:
        raise WordParseError("no trace factors found")
    if N is None:
        N = next((c.dim for w in words for c in w.constants()), None)
        if N is None:
            raise WordParseError("dimension N required for pure Haar words")
    return TraceProductExpr(tuple(words), N)


def load_matrix_csv(path: str) -> QCMatrix:
    """Read one exact matrix from UTF-8 CSV rows (row, col, re_num,
    re_den, im_num, im_den); omitted entries are zero, indices are
    1-based.  A file that is not UTF-8 CSV, a row that is not exactly
    six integers, or a file that gives one entry twice raises
    WordParseError, and an index beyond CONSTANT_DIMENSION_CAP raises
    CapacityError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            lines = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise WordParseError(
            f"cannot read matrix file {path}: {exc}") from None
    entries: dict[tuple[int, int], tuple[int, int, int, int]] = {}
    for line in lines:
        head = line[0].strip().lower() if line else "#"
        if head.startswith("#") or head == "row":
            continue
        try:
            r, c, re_num, re_den, im_num, im_den = map(int, line)
        except ValueError as exc:
            raise WordParseError(f"bad matrix row {line!r} in {path}: want "
                                 "exactly six integers") from exc
        if r < 1 or c < 1:
            raise WordParseError(f"matrix indices are 1-based: {line!r}")
        if re_den == 0 or im_den == 0:
            raise WordParseError(
                f"zero denominator in matrix row {line!r} in {path}")
        if (r, c) in entries:
            raise WordParseError(
                f"matrix entry ({r}, {c}) is given twice in {path}")
        entries[(r, c)] = (re_num, re_den, im_num, im_den)
    if not entries:
        raise WordParseError(f"no entries in matrix file {path}")
    dim = max(max(rc) for rc in entries)
    if dim > CONSTANT_DIMENSION_CAP:
        raise CapacityError(f"matrix index {dim} in {path} exceeds the cap "
                            f"{CONSTANT_DIMENSION_CAP}")
    den = math.lcm(*(d for e in entries.values() for d in e[1::2]))
    re_part = np.zeros((dim, dim), dtype=object)
    im_part = np.zeros((dim, dim), dtype=object)
    for (r, c), (re_num, re_den, im_num, im_den) in entries.items():
        re_part[r - 1, c - 1] = re_num * (den // re_den)
        im_part[r - 1, c - 1] = im_num * (den // im_den)
    return QCMatrix(re_part, im_part, den)
