"""The benchmark's tracer counts the exact layer's work by wrapping the
module attributes haar_expect looks up (perfbench/tracer.py).  These
counts hold only while haar_expect calls enumerate_alpha_pairings once
per expectation, pi_epsilon once per (p, q) pair and, when some trace
does not vanish, phi once per pairing, all through its module
attributes.  The kernel reads each pair's class from sigma_p^-1 sigma_q,
the permutation by which pq acts on the plus letters, and phi labels
each of the n! permutations once.  The tracer's zero_skips is pairs
minus phi calls, so it no longer counts skipped pairs."""

from pathlib import Path

from haarlab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_counts_pairs_of_an_order3_word(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer(1)
    try:
        rc = cli.main(["moment", "Tr(U U U)Tr(Uc Uc Uc)", "--N", "4"])
    finally:
        t.close()
    m = t.layer_metrics(1.0)
    assert rc == 0
    assert capsys.readouterr().out == "exact: 3\n"
    # 3! alpha pairings, one pi_epsilon per (p, q) pair
    assert m["haar_expect.pairs"] == m["combinat.pi_epsilon_calls"] == 36
    assert m["combinat.alpha_pairings"] == 6
    assert m["weingarten.phi_calls"] + m["haar_expect.zero_skips"] == 36
    # a constant-free word's traces never vanish, so phi labels each of
    # the 3! permutations sigma_p^-1 sigma_q once
    assert m["weingarten.phi_calls"] == 6
