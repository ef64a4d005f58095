"""The two layers against each other on random words.

Each word's exact expectation comes from expected_trace_product; its
Monte Carlo mean goes through the `moment --mc` translation,
verify.word_nodes, into trace_observables.  The words are seeded: one or
two trace factors, at most six Haar letters with eta balanced (so the
exact value need not vanish), and up to two constants with small
Gaussian-integer entries, each transposed or not, at N = 2, 3 and 4.
The words of one N share one draw of REPLICAS unitaries; a two-factor
word's sample is the per-replica product of its factor traces.  SEED
and REPLICAS were fixed before the first run.
"""

import random

import numpy as np

from haarlab.exact import QC, qc_matrix
from haarlab.haar_expect import (ConstantLetter, HaarLetter,
                                 TraceProductExpr, TraceWord,
                                 expected_trace_product)
from haarlab.rmt import trace_observables
from haarlab.verify import word_nodes

SEED = 18
REPLICAS = 1000
WORDS_PER_N = 13
DIMENSIONS = (2, 3, 4)
# Floor under 5 SE for words whose every sample is the same number up
# to rounding, such as Tr(U U*) = N.
ROUNDING = 1e-9


def _constant(rng: random.Random, name: str, N: int) -> ConstantLetter:
    rows = [[QC(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(N)]
            for _ in range(N)]
    return ConstantLetter(name, qc_matrix(rows), transpose=rng.random() < 0.5)


def _random_expr(rng: random.Random, N: int) -> TraceProductExpr:
    haar = rng.choice((2, 4, 6))
    etas = [1, -1] * (haar // 2)
    letters = [HaarLetter(rng.choice((1, -1)), eta) for eta in etas]
    letters += [_constant(rng, name, N) for name in "AB"[:rng.randint(0, 2)]]
    rng.shuffle(letters)
    cuts = [0, rng.randint(1, len(letters) - 1), len(letters)] \
        if rng.random() < 0.5 else [0, len(letters)]
    words = tuple(TraceWord(tuple(letters[a:b]), rng.random() < 0.5)
                  for a, b in zip(cuts, cuts[1:]))
    return TraceProductExpr(words, N)


def _word_set() -> list:
    rng = random.Random(SEED)
    return [_random_expr(rng, N) for N in DIMENSIONS
            for _ in range(WORDS_PER_N)]


def _samples(exprs: list) -> list:
    """Per-replica samples of each trace product, all words of one N
    drawing from the same REPLICAS unitaries."""
    out = {}
    for N in DIMENSIONS:
        batch = [(i, expr) for i, expr in enumerate(exprs) if expr.N == N]
        observables = [(f"{i}.{k}", node) for i, expr in batch
                       for k, node in enumerate(word_nodes(expr.words))]
        stats = trace_observables(observables, N, REPLICAS, SEED,
                                  stream="moment")
        for i, expr in batch:
            prod = np.ones(REPLICAS, dtype=complex)
            for k, word in enumerate(expr.words):
                row = stats.row(f"{i}.{k}")
                prod = prod * (row / N if word.normalized else row)
            out[i] = prod
    return [out[i] for i in range(len(exprs))]


def test_word_set_covers_the_shapes():
    exprs = _word_set()
    letters = [l for e in exprs for w in e.words for l in w.letters]
    assert len(exprs) == 39
    assert {len(e.words) for e in exprs} == {1, 2}
    assert {(l.eps, l.eta) for l in letters if isinstance(l, HaarLetter)} \
        == {(1, 1), (-1, 1), (1, -1), (-1, -1)}
    assert {l.transpose for l in letters if isinstance(l, ConstantLetter)} \
        == {False, True}


def test_monte_carlo_means_match_exact_values_on_random_words():
    exprs = _word_set()
    misses = []
    for expr, prod in zip(exprs, _samples(exprs)):
        exact = complex(expected_trace_product(expr))
        mean = np.mean(prod)
        se = np.std(prod) / np.sqrt(prod.size)
        if not abs(mean - exact) < 5 * se + ROUNDING:
            misses.append((repr(expr), exact, mean, se))
    assert misses == []
