"""Command-line behavior: outputs, exit codes, config merging."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from haarlab import cli, rmt, verify
from haarlab.cli import main
from haarlab.combinat import PAIRING_POINT_CAP
from haarlab.errors import WordParseError
from haarlab.exact import qc_matrix
from haarlab.haar_expect import parse_trace_product
from haarlab.verify import word_nodes

A_CSV = ("row,col,re_num,re_den,im_num,im_den\n"
         "1,1,1,1,0,1\n1,2,2,1,0,1\n2,1,3,1,0,1\n2,2,4,1,0,1\n")


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def _run_module(argv, **env):
    """`python -m haarlab argv` with this checkout's src first on the
    path and env added to the environment."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), **env)
    return subprocess.run([sys.executable, "-m", "haarlab", *argv], env=env,
                          capture_output=True, text=True)


def test_python_dash_m_runs_the_command():
    out = _run_module(["wg", "--n", "2", "--N", "3"])
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("# Weingarten table n=2 N=3")


def test_wg_prints_table_and_dumps(tmp_path, capsys):
    dump = tmp_path / "wg.csv"
    assert main(["wg", "--n", "2", "--N", "5", "--dump", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "1+1" in out and "exact" in out
    lines = dump.read_text().splitlines()
    assert lines[0] == "n,cycle_type,N,numerator,denominator"
    assert len(lines) == 3


@pytest.mark.parametrize("n, N, kind", [("3", "3", "exact"),
                                        ("3", "2", "pseudo-inverse")])
def test_wg_labels_pseudo_inverse_tables(n, N, kind, capsys):
    # N < n: the table is the Moore-Penrose pseudo-inverse
    assert main(["wg", "--n", n, "--N", N]) == 0
    assert capsys.readouterr().out.startswith(
        f"# Weingarten table n={n} N={N} ({kind})\n")


@pytest.mark.parametrize("n, dump, code", [
    ("0", None, 2), ("7", None, 2), ("0", "x.csv", 2), ("7", "x.csv", 2),
    ("2", "missing/x.csv", 3)])
def test_wg_prints_nothing_before_it_fails(tmp_path, capsys, n, dump, code):
    """A bad order and an unwritable dump are refused before the table's
    header is printed, and a bad order writes no dump."""
    argv = ["wg", "--n", n, "--N", "3"]
    if dump:
        argv += ["--dump", str(tmp_path / dump)]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["wg", "--N", "5"], ["wg", "--n", "2"],
                                  ["simulate", "--word", "Tr(U)"]])
def test_missing_required_value_is_usage_error(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is required" in err
    assert "Traceback" not in err


def test_moment_exact_value(capsys):
    assert main(["moment", "tr(U Uc)", "--N", "7"]) == 0
    assert "exact: 1/7" in capsys.readouterr().out


def test_moment_with_constant(tmp_path, capsys):
    mat = tmp_path / "a.csv"
    mat.write_text(A_CSV)
    assert main(["moment", "Tr(U A U* A)", "--constant",
                 f"A={mat}"]) == 0
    # E Tr(U A U* A) = Tr(A)^2 / N = 25/2
    assert "exact: 25/2" in capsys.readouterr().out


@pytest.mark.parametrize("mc", [[], ["--mc", "100"]])
def test_constant_of_another_size_is_refused_before_any_value(mc, tmp_path,
                                                               capsys):
    """B, the second constant of the factor, is 3 x 3 at N = 2: the exact
    value is never printed, with or without --mc."""
    a2, b3 = tmp_path / "a2.csv", tmp_path / "b3.csv"
    a2.write_text(A_CSV)
    b3.write_text("1,1,1,1,0,1\n2,2,1,1,0,1\n3,3,1,1,0,1\n")
    assert main(["moment", "Tr(U A Uc B)", "--N", "2", "--constant",
                 f"A={a2}", "--constant", f"B={b3}", *mc]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: constant 'B' is 3 x 3")
    assert "Traceback" not in captured.err


def test_constant_named_like_a_haar_letter_is_a_usage_error(tmp_path,
                                                           capsys):
    mat = tmp_path / "c.csv"
    mat.write_text(A_CSV)
    assert main(["moment", "Tr(U)", "--N", "2", "--constant",
                 f"U={mat}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 'U' cannot name a constant")


@pytest.mark.parametrize("names", [("A", "At"), ("A,B",), ('A"',)])
def test_constant_name_the_grammar_refuses_is_a_usage_error(names, tmp_path,
                                                            capsys):
    """A beside At (At = diag(5, 7) would shadow A's transpose), and
    names whose comma or double quote would split a traces.csv cell."""
    a, d = tmp_path / "a.csv", tmp_path / "d.csv"
    a.write_text(A_CSV)
    d.write_text("1,1,5,1,0,1\n2,2,7,1,0,1\n")
    paths = {"A": a, "At": d}
    flags = [arg for name in names
             for arg in ("--constant", f"{name}={paths.get(name, a)}")]
    assert main(["moment", "Tr(U)", "--N", "2", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {names[-1]!r} cannot name a "
                                   "constant")


def test_constant_with_zero_denominator_is_parse_error(tmp_path, capsys):
    mat = tmp_path / "z.csv"
    mat.write_text("1,1,1,0,0,1\n")
    assert main(["moment", "Tr(U A U*)", "--constant", f"A={mat}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "zero denominator" in err
    assert "Traceback" not in err


def test_constant_entry_given_twice_is_parse_error(tmp_path, capsys):
    mat = tmp_path / "dup.csv"
    mat.write_text("1,1,1,1,0,1\n1,1,2,1,0,1\n2,2,1,1,0,1\n")
    assert main(["moment", "Tr(A)", "--constant", f"A={mat}"]) == 1
    captured = capsys.readouterr()
    assert "exact:" not in captured.out
    assert captured.err.startswith("error: matrix entry (1, 1)")
    assert str(mat) in captured.err and "Traceback" not in captured.err


def test_moment_monte_carlo_agrees(capsys):
    assert main(["moment", "Tr(U)Tr(Uc)", "--N", "6", "--mc", "600",
                 "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "exact: 1" in out
    dev = float(out.split("|dev| = ")[1].rstrip(")\n"))
    assert dev < 0.2


@pytest.mark.parametrize("argv, code", [
    (["--N", "3", "--mc", "5"], 2),
    (["--N", "3", "--mc", "-4"], 2),
    (["--N", "9000", "--mc", "10"], 2),
    (["--N", "3", "--mc", str(2 ** 26 + 1)], 2),
    (["--N", "3", "--mc", "100", "--seed", "-1"], 1),
])
def test_moment_refuses_a_bad_monte_carlo_request_first(argv, code,
                                                        monkeypatch, capsys):
    """Too few replicas, N beyond the Monte Carlo cap, more stored values
    than its cap (two traces per replica) and a negative seed are
    refused before the exact value is computed, so nothing is printed."""
    def exact_not_wanted(expr):
        raise AssertionError("the exact value was computed")

    monkeypatch.setattr(cli, "expected_trace_product", exact_not_wanted)
    assert main(["moment", "Tr(U)Tr(Uc)", *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_config_with_a_byte_order_mark_loads(tmp_path, capsys):
    cfg = tmp_path / "bom.json"
    cfg.write_text(json.dumps({"N": 3}), encoding="utf-8-sig")
    assert main(["moment", "Tr(U)Tr(Uc)", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == "exact: 1\n"


def test_word_nodes_share_one_const_per_name():
    a = qc_matrix([[1, 2], [3, 4]])
    expr = parse_trace_product("Tr(U A U* Uc At Ut)Tr(A At)Tr(U At)",
                               {"A": a}, 2)
    first, second, third = word_nodes(expr.words)
    const = third.factors[1].node
    assert isinstance(const, rmt.Const) and const.name == "A"
    assert np.array_equal(const.matrix, [[1, 2], [3, 4]])
    assert third == rmt.Product((rmt.HaarU(), rmt.Variant(const, -1, 1)))
    # the mirrored words share their first half: U A U* and A
    for node, half in ((first, (rmt.HaarU(), const, rmt.HaarU(-1, -1))),
                       (second, (const,))):
        left, right = node.factors
        assert left.factors == half
        assert right == rmt.Variant(left, -1, 1) and right.node is left


DENSE_CSV = "".join(f"{i},{j},{(3 * i + j) % 5 - 2},{1 + (i + j) % 3},"
                    f"{(i * j) % 3 - 1},2\n"
                    for i in range(1, 5) for j in range(1, 5))


def test_mirrored_word_monte_carlo_within_five_standard_errors(tmp_path,
                                                                capsys):
    mat = tmp_path / "dense.csv"
    mat.write_text(DENSE_CSV)
    assert main(["moment", "tr(U A U* Uc At Ut)", "--constant", f"A={mat}",
                 "--mc", "4000", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    se = float(out.split(" +- ")[1].split()[0])
    dev = float(out.split("|dev| = ")[1].rstrip(")\n"))
    assert 0 < se and dev <= 5 * se


def test_moment_parse_error_exit_code(capsys):
    assert main(["moment", "Tr(U", "--N", "3"]) == 1
    assert main(["moment", "Tr(U Q)", "--N", "3"]) == 1
    capsys.readouterr()


def test_moment_needs_dimension(capsys):
    assert main(["moment", "Tr(U)"]) == 1
    capsys.readouterr()


def test_figure1_missing_outdir_is_io_error(tmp_path, capsys):
    missing = tmp_path / "not_there"
    assert main(["figure1", "--N", "32", "--outdir", str(missing)]) == 3
    capsys.readouterr()


def test_figure1_small_dimension_is_domain_error(tmp_path, capsys):
    assert main(["figure1", "--N", "16", "--outdir", str(tmp_path)]) == 2
    capsys.readouterr()


def test_figure1_writes_panels(tmp_path, capsys):
    rc = main(["figure1", "--N", "32", "--replicas", "10", "--seed", "1",
               "--outdir", str(tmp_path)])
    assert rc == 0
    for name in ("hist_arcsine.csv", "overlay_arcsine.csv",
                 "fig_arcsine.svg", "hist_sum_law.csv",
                 "overlay_sum_law.csv", "fig_sum_law.svg", "summary.json"):
        assert (tmp_path / name).exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["N"] == 32
    assert 0.0 <= summary["ks_arcsine"] < 0.5
    assert 0.0 <= summary["ks_sum_law"] < 0.5
    assert "replica workers:" in capsys.readouterr().err


def test_simulate_with_config_and_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "N": 8, "replicas": 40, "seed": 2,
        "observables": ["Tr(U)", "tr(U Uc)"],
    }))
    outdir = tmp_path / "out"
    outdir.mkdir()
    rc = main(["simulate", "--config", str(cfg), "--N", "4",
               "--outdir", str(outdir)])
    assert rc == 0
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["N"] == 4            # flag beat the config value
    assert summary["replicas"] == 40
    assert summary["observables"]["tr(U Uc)"]["exact"] == "1/4"
    lines = (outdir / "traces.csv").read_text().splitlines()
    assert lines[0] == "observable,replica,re,im"
    assert len(lines) == 1 + 2 * 40
    capsys.readouterr()


def test_simulate_without_observables(capsys):
    assert main(["simulate", "--N", "4"]) == 1
    capsys.readouterr()


def test_simulate_stdout_when_no_outdir(capsys):
    rc = main(["simulate", "--N", "4", "--replicas", "20",
               "--word", "Tr(U)"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["observables"]["Tr(U)"]["exact"] == "0"


def test_simulate_refuses_a_repeated_observable(capsys, monkeypatch):
    draws = []
    monkeypatch.setattr(rmt, "sample_haar_unitary",
                        lambda N, seed: draws.append(seed))
    assert main(["simulate", "--N", "4", "--replicas", "20",
                 "--word", "Tr(U)", "--word", "Tr(U Uc)",
                 "--word", "Tr(U)"]) == 1
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and "'Tr(U)' is given twice" in err
    assert draws == []


def test_simulate_shares_one_const_across_observables(tmp_path, capsys,
                                                      monkeypatch):
    from haarlab import cli
    (tmp_path / "a.csv").write_text(A_CSV)
    seen = []
    real = cli.trace_observables
    monkeypatch.setattr(cli, "trace_observables",
                        lambda items, *args, **kwargs:
                        seen.append(items) or real(items, *args, **kwargs))
    assert main(["simulate", "--N", "2", "--replicas", "20",
                 "--word", "Tr(U A)", "--word", "Tr(A U*)",
                 "--constant", f"A={tmp_path / 'a.csv'}"]) == 0
    capsys.readouterr()
    [[(_, first), (_, second)]] = seen
    assert isinstance(first.factors[1], rmt.Const)
    assert first.factors[1] is second.factors[0]


# one Haar pair more than the exact engine takes
OVER_CAP_WORD = "Tr({})".format(
    " ".join(["U", "U*"] * (PAIRING_POINT_CAP // 2 + 1)))


# 1e200 is a finite double, but Tr(U A U* A), Tr(U A U*)^2 and
# Tr(U A)^2 are of order 1e400
HUGE_CSV = f"1,1,1{'0' * 200},1,0,1\n2,2,1,1,0,1\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_refuses_traces_that_are_not_finite(tmp_path, capsys):
    (tmp_path / "a.csv").write_text(HUGE_CSV)
    outdir = tmp_path / "out"
    outdir.mkdir()
    assert main(["simulate", "--N", "2", "--replicas", "20", "--seed", "0",
                 "--constant", f"A={tmp_path / 'a.csv'}", "--word",
                 "Tr(U A U* A)", "--word", "Tr(U)", "--outdir",
                 str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "error: trace of observable 'Tr(U A U* A)' at replica 0 is " \
        "not finite" in err
    assert "Traceback" not in err and list(outdir.iterdir()) == []


HUGE_K2 = ("error: JSON value at ['observables']['Tr(U A U*)']['k2_Tr'] is "
           "nan, not a finite number")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_refuses_statistics_that_are_not_finite(tmp_path, capsys):
    """Tr(U A U*) is finite, but its square is not: the cumulants are
    NaN, and simulate writes neither file nor anything on stdout."""
    (tmp_path / "a.csv").write_text(HUGE_CSV)
    outdir = tmp_path / "out"
    outdir.mkdir()
    argv = ["simulate", "--N", "2", "--replicas", "20", "--seed", "0",
            "--constant", f"A={tmp_path / 'a.csv'}", "--word", "Tr(U A U*)",
            "--word", "Tr(U)"]
    assert main(argv + ["--outdir", str(outdir)]) == 2
    assert capsys.readouterr().err.endswith(f"\n{HUGE_K2}\n")
    assert list(outdir.iterdir()) == []
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith(f"\n{HUGE_K2}\n")


@pytest.mark.parametrize("word, error", [
    ("Tr(U A U* A)", "error: trace of observable 'Tr(U A U* A)' at replica "
                     "0 is not finite"),
    ("Tr(U A U*)", HUGE_K2)], ids=["trace", "statistics"])
def test_simulate_prints_no_numpy_warning_before_a_refusal(word, error,
                                                           tmp_path):
    """On stderr, only the workers line and the error: numpy's overflow
    warnings stay silent, in the pool thread too."""
    (tmp_path / "a.csv").write_text(HUGE_CSV)
    out = _run_module(["simulate", "--N", "2", "--replicas", "20",
                       "--constant", f"A={tmp_path / 'a.csv'}", "--word",
                       word, "--word", "Tr(U)"], HAARLAB_THREADS="2")
    assert out.returncode == 2
    workers, refusal = out.stderr.splitlines()
    assert workers.startswith("replica workers: 2;")
    assert refusal == error


@pytest.mark.parametrize("word, message", [
    ("Tr(U A U* A)", "trace of observable 'factor 1' at replica 0 is not "
                     "finite"),
    ("Tr(U A U*)Tr(U A U*)", "the exact value is too large for a double"),
    ("Tr(U A)Tr(U A)", "the Monte Carlo mean of the trace product is not "
                       "finite")])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_moment_refuses_a_monte_carlo_value_beyond_doubles(word, message,
                                                           tmp_path, capsys):
    (tmp_path / "a.csv").write_text(HUGE_CSV)
    assert main(["moment", word, "--N", "2", "--constant",
                 f"A={tmp_path / 'a.csv'}", "--mc", "20"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}\n")
    assert "Traceback" not in err


def test_moment_refuses_a_word_over_the_engine_cap(capsys, monkeypatch):
    from haarlab import haar_expect
    monkeypatch.setattr(haar_expect, "enumerate_alpha_pairings",
                        lambda eta: pytest.fail("pairings enumerated"))
    assert main(["moment", OVER_CAP_WORD, "--N", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and "exceeds engine cap" in err
    assert f"{PAIRING_POINT_CAP + 2} Haar letters" in err


def test_unbalanced_word_over_the_engine_cap_is_zero(capsys):
    """Haar letters whose eta signs do not balance make the word 0 at
    any length, so the cap does not apply to them."""
    word = "Tr({})".format(" ".join(["U"] * (PAIRING_POINT_CAP + 1)))
    assert main(["moment", word, "--N", "2"]) == 0
    assert capsys.readouterr().out == "exact: 0\n"
    assert main(["simulate", "--N", "2", "--replicas", "20",
                 "--word", word]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["observables"][word]["exact"] == "0"


def test_simulate_reports_a_word_over_the_engine_cap(capsys):
    assert main(["simulate", "--N", "2", "--replicas", "20",
                 "--word", OVER_CAP_WORD]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["observables"][OVER_CAP_WORD]["exact"] \
        == "beyond exact-engine capacity"


def test_verify_exact_suite(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = main(["verify", "exact", "--out", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    payload = json.loads(report.read_text())
    assert payload["passed"] is True
    assert len(payload["checks"]) == 7
    assert all(c["passed"] for c in payload["checks"])


def test_verify_refuses_an_unwritable_report_before_running(tmp_path,
                                                            capsys):
    report = tmp_path / "missing" / "r.json"
    assert main(["verify", "exact", "--out", str(report)]) == 3
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err.count("error: ") == 1


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nope"]) == 1
    assert capsys.readouterr().err.startswith("error: unknown suite 'nope'")


def test_verify_unknown_suite_leaves_no_report(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert main(["verify", "nope", "--out", str(report)]) == 1
    assert capsys.readouterr().err == ("error: unknown suite 'nope'; have "
                                       "['all', 'exact', 'mc']\n")
    assert not report.exists()


def _stand_in_checks(monkeypatch) -> list:
    """verify's checks replaced by stand-ins that pass at once; returns
    the list of the names they are run under, in order."""
    ran = []

    def stand_in(name):
        def run(seed):
            ran.append(name)
            return verify.CheckResult(name, "", "", "", "", True, seed, 0.0)
        return run

    monkeypatch.setattr(verify, "CHECKS",
                        {name: stand_in(name) for name in verify.CHECKS})
    return ran


@pytest.mark.parametrize("seed, error, message", [
    (True, TypeError, "seed must be an int, not bool"),
    (2.5, TypeError, "seed must be an int, not float"),
    (-1, WordParseError, "seed must be at least 0, got -1"),
])
def test_run_suite_refuses_a_bad_seed_before_any_check(seed, error, message,
                                                       monkeypatch):
    ran = _stand_in_checks(monkeypatch)
    with pytest.raises(error, match=f"^{message}$"):
        verify.run_suite("all", seed)
    assert ran == []


def test_run_suite_refuses_a_bad_thread_count_only_for_monte_carlo(
        monkeypatch):
    """A suite with Monte Carlo checks asks for the worker count before
    any check; the exact suite never reads HAARLAB_THREADS."""
    ran = _stand_in_checks(monkeypatch)
    monkeypatch.setenv("HAARLAB_THREADS", "abc")
    for suite in ("mc", "all"):
        with pytest.raises(WordParseError, match="HAARLAB_THREADS"):
            verify.run_suite(suite, 0)
    assert ran == []
    assert [r.name for r in verify.run_suite("exact", 0)] == ran \
        == list(verify.SUITES["exact"])


@pytest.mark.parametrize("threads, code", [("abc", 1), ("0", 1), ("999", 2)])
@pytest.mark.parametrize("suite", ["mc", "all"])
def test_verify_refuses_a_bad_thread_count_before_any_check_or_report(
        suite, threads, code, tmp_path, capsys, monkeypatch):
    ran = _stand_in_checks(monkeypatch)
    monkeypatch.setenv("HAARLAB_THREADS", threads)
    report = tmp_path / "r.json"
    assert main(["verify", suite, "--out", str(report)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: HAARLAB_THREADS")
    assert ran == [] and not report.exists()


def test_bad_config_json(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["simulate", "--config", str(cfg)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["simulate", "--N", "8", "--seed", "-1", "--word", "Tr(U)"],
    ["figure1", "--N", "32", "--seed", "-3", "--outdir", "."],
    ["moment", "Tr(U)Tr(Uc)", "--N", "4", "--mc", "10", "--seed", "-1"],
    ["verify", "exact", "--seed", "-1"],
])
def test_negative_seed_is_usage_error(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err
    assert "Traceback" not in err
    if argv[0] == "verify":
        assert err == "error: seed must be at least 0, got -1\n"


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "N", "abc"), ("simulate", "replicas", "many"),
    ("simulate", "seed", 1.5), ("simulate", "N", True),
    ("simulate", "N", [8]), ("wg", "n", "two"), ("figure1", "bins", "x"),
    ("moment", "N", "abc"),
])
def test_non_integer_config_value_is_usage_error(command, key, value,
                                                  tmp_path, capsys):
    # each config holds only keys its command reads
    base = {"wg": {"n": 2}, "simulate": {"N": 8, "observables": ["Tr(U)"]}}
    values = {**base.get(command, {"N": 8}), key: value}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    argv = [command] + (["Tr(U)"] if command == "moment" else []) + \
        ["--config", str(cfg)]
    if command == "figure1":
        argv += ["--outdir", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err


def test_integer_strings_in_config_still_parse(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": "4", "replicas": "20", "seed": "3",
                               "observables": ["Tr(U)"]}))
    assert main(["simulate", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["N"], payload["replicas"], payload["seed"]) == (4, 20, 3)


def test_config_null_counts_as_absent(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 32, "replicas": 1, "seed": None,
                               "bins": None, "outdir": None}))
    assert main(["figure1", "--config", str(cfg),
                 "--outdir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert (summary["seed"], summary["bins"]) == (0, 60)
    cfg.write_text(json.dumps({"N": None, "observables": ["Tr(U)"]}))
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "--N is required" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["abc", "0", "-3", ""])
def test_bad_thread_count_is_usage_error(raw, monkeypatch, capsys):
    monkeypatch.setenv("HAARLAB_THREADS", raw)
    assert main(["simulate", "--N", "4", "--replicas", "20",
                 "--word", "Tr(U)"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "HAARLAB_THREADS" in err
    assert "Traceback" not in err


def test_thread_count_above_the_cap_is_refused(tmp_path, monkeypatch,
                                              capsys):
    draws = []
    monkeypatch.setattr(rmt, "sample_haar_unitary",
                        lambda N, seed: draws.append(seed))
    monkeypatch.setenv("HAARLAB_THREADS", "5000")
    assert main(["figure1", "--N", "32", "--replicas", "1",
                 "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: HAARLAB_THREADS = 5000 exceeds the "
                          f"worker cap {rmt.WORKER_CAP}")
    assert "Traceback" not in err and draws == []


def test_simulate_outputs_independent_of_thread_count(tmp_path, monkeypatch,
                                                      capsys):
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("HAARLAB_THREADS", threads)
        outdir = tmp_path / threads
        outdir.mkdir()
        assert main(["simulate", "--N", "8", "--replicas", "30", "--seed",
                     "4", "--word", "Tr(U)", "--word", "Tr(U Uc)",
                     "--outdir", str(outdir)]) == 0
        assert f"replica workers: {threads};" in capsys.readouterr().err
        outputs.append([(outdir / f).read_bytes()
                        for f in ("summary.json", "traces.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("replicas, code", [("15", 2), ("20", 0)])
def test_simulate_needs_enough_replicas_for_batch_errors(replicas, code,
                                                         capsys, monkeypatch):
    draws = []
    sample = rmt.sample_haar_unitary
    monkeypatch.setattr(rmt, "sample_haar_unitary",
                        lambda N, seed: draws.append(seed) or sample(N, seed))
    assert main(["simulate", "--N", "4", "--replicas", replicas,
                 "--word", "Tr(U)"]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err.count("error: ") == 1 and "20 replicas" in err
        # refused before any replica is sampled
        assert draws == []
    else:
        assert len(draws) == 20


@pytest.mark.parametrize("replicas", ["0", "-1"])
def test_figure1_needs_a_replica(replicas, tmp_path, capsys):
    assert main(["figure1", "--N", "32", "--replicas", replicas,
                 "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and "replica" in err
    assert "Traceback" not in err


def test_figure1_refuses_few_bins_before_sampling(tmp_path, capsys,
                                                  monkeypatch):
    draws = []
    sample = rmt.sample_haar_unitary
    monkeypatch.setattr(rmt, "sample_haar_unitary",
                        lambda N, seed: draws.append(seed) or sample(N, seed))
    assert main(["figure1", "--N", "32", "--replicas", "2", "--bins", "5",
                 "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and "bins must be at least 10" in err
    assert "Traceback" not in err
    assert draws == []


def test_simulate_refuses_a_missing_outdir_before_sampling(tmp_path, capsys,
                                                          monkeypatch):
    draws = []
    sample = rmt.sample_haar_unitary
    monkeypatch.setattr(rmt, "sample_haar_unitary",
                        lambda N, seed: draws.append(seed) or sample(N, seed))
    assert main(["simulate", "--N", "4", "--replicas", "20", "--word",
                 "Tr(U)", "--outdir", str(tmp_path / "missing")]) == 3
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and "does not exist" in err
    assert draws == []


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "constants", "a.csv"), ("moment", "constants", {"A": 0}),
    ("simulate", "constants", ["a.csv"]), ("simulate", "observables", 5),
    ("simulate", "observables", [1, 2]), ("simulate", "outdir", 5),
    ("figure1", "outdir", ["."]),
])
def test_config_value_of_wrong_type_is_usage_error(command, key, value,
                                                   tmp_path, capsys):
    # each config holds only keys its command reads
    base = {"moment": {"N": 32}, "figure1": {"N": 32, "replicas": 20},
            "simulate": {"N": 32, "replicas": 20, "observables": ["Tr(U)"]}}
    values = {**base[command], key: value}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    argv = [command] + (["Tr(U)"] if command == "moment" else []) + \
        ["--config", str(cfg)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err


def test_constant_beyond_double_range_is_domain_error(tmp_path, capsys):
    # a 2x2 constant whose (1, 1) entry, 10^400, overflows a double
    mat = tmp_path / "big.csv"
    mat.write_text("1,1,1" + "0" * 400 + ",1,0,1\n2,2,1,1,0,1\n")
    const = f"A={mat}"
    assert main(["moment", "Tr(U A U*)", "--constant", const]) == 0
    # E Tr(U A U*) = Tr(A) = 10^400 + 1
    assert f"exact: 1{'0' * 399}1\n" in capsys.readouterr().out
    for argv in (["moment", "Tr(U A U*)", "--constant", const, "--mc", "10"],
                 ["simulate", "--N", "2", "--word", "Tr(U A U*)",
                  "--constant", const, "--replicas", "20"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: constant 'A' has an entry too large for a double" \
            in err
        assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["figure1", "--N", "10000000000", "--replicas", "1"],
     "exceeds the Monte Carlo cap"),
    (["simulate", "--N", str(10 ** 30), "--word", "Tr(U)"],
     "exceeds the Monte Carlo cap"),
    (["moment", "Tr(U Uc)", "--N", "2", "--mc", str(10 ** 20)],
     "stored values"),
    (["figure1", "--N", "32", "--replicas", "1", "--bins", str(10 ** 20)],
     "bins exceed the cap"),
])
def test_oversized_run_is_refused_before_sampling(argv, message, tmp_path,
                                                  capsys, monkeypatch):
    draws = []
    monkeypatch.setattr(rmt, "sample_haar_unitary",
                        lambda N, seed: draws.append(seed))
    if argv[0] == "figure1":
        argv = argv + ["--outdir", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: " in err and message in err
    assert "Traceback" not in err
    assert draws == []


FIVE_WORDS = ("Tr(U)", "Tr(Uc)", "Tr(U U)", "Tr(U Uc)", "Tr(U*)")


@pytest.mark.parametrize("argv, threads, code", [
    (["--N", "9000", "--replicas", "20",
      "--word", "Tr(U U U U U U Uc Uc Uc Uc Uc Uc)"], None, 2),
    (["--N", "4", "--replicas", "19", "--word", "Tr(U Uc)"], None, 2),
    # 5 * 2^25 stored values, past the cap of 2^27
    (["--N", "4", "--replicas", str(2 ** 25),
      *(arg for word in FIVE_WORDS for arg in ("--word", word))], None, 2),
    (["--N", "4", "--replicas", "20", "--word", "Tr(U Uc)"], "abc", 1),
])
def test_simulate_refuses_a_bad_run_before_any_exact_value(
        argv, threads, code, monkeypatch, capsys):
    def exact_not_wanted(expr):
        raise AssertionError("an exact value was computed")

    monkeypatch.setattr(cli, "expected_trace_product", exact_not_wanted)
    if threads:
        monkeypatch.setenv("HAARLAB_THREADS", threads)
    assert main(["simulate", *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, threads, code", [
    (["--N", "9000"], None, 2),
    (["--replicas", "0"], None, 2),
    (["--N", "32", "--replicas", "1"], "abc", 1),
])
def test_figure1_refuses_a_bad_run_before_either_law(
        argv, threads, code, tmp_path, monkeypatch, capsys):
    def law_not_wanted():
        raise AssertionError("a reference law was built")

    monkeypatch.setattr(cli, "arcsine_law", law_not_wanted)
    monkeypatch.setattr(cli, "kesten_mckay_law", law_not_wanted)
    if threads:
        monkeypatch.setenv("HAARLAB_THREADS", threads)
    assert main(["figure1", *argv, "--outdir", str(tmp_path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--N", "4", "--replicas", "20", "--word", "Tr(U Uc)"],
    ["figure1", "--N", "32", "--replicas", "1"],
    ["moment", "Tr(U U U U U U)Tr(Uc Uc Uc Uc Uc Uc)", "--N", "8",
     "--mc", "100"],
])
def test_bad_thread_count_is_refused_without_the_diagnostic_line(
        argv, tmp_path, monkeypatch, capsys):
    """check_run refuses HAARLAB_THREADS itself: with the stderr
    diagnostic, which reads it too, stubbed out, each command still exits
    1 before any exact value or reference law."""
    def not_wanted(*args):
        raise AssertionError("work began before the refusal")

    monkeypatch.setattr(cli, "threading_summary", lambda: "diagnostic")
    for name in ("expected_trace_product", "arcsine_law", "kesten_mckay_law"):
        monkeypatch.setattr(cli, name, not_wanted)
    monkeypatch.setenv("HAARLAB_THREADS", "abc")
    if argv[0] == "figure1":
        argv = argv + ["--outdir", str(tmp_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: HAARLAB_THREADS must be a positive "
                            "integer, got 'abc'\n")


def test_constant_index_beyond_cap_is_refused(tmp_path, capsys):
    mat = tmp_path / "far.csv"
    mat.write_text("10000000000,1,1,1,0,1\n")
    assert main(["moment", "Tr(U A)", "--constant", f"A={mat}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: matrix index 10000000000")
    assert "Traceback" not in err


@pytest.mark.parametrize("option", ["--config", "--constant"])
def test_file_that_is_not_utf8_is_parse_error(option, tmp_path, capsys):
    path = tmp_path / "latin1"
    path.write_bytes(b"\xff\xfe1,1,1,1,0,1\n")
    value = f"A={path}" if option == "--constant" else str(path)
    assert main(["moment", "Tr(U)", "--N", "2", option, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and "utf-8" in err
    assert "Traceback" not in err


def _record_work(monkeypatch) -> list:
    """Stand-ins that record every reference law, exact value and Haar
    draw the commands ask for, and then do it."""
    work = []
    for module, name in ((cli, "arcsine_law"), (cli, "kesten_mckay_law"),
                         (cli, "expected_trace_product"),
                         (rmt, "sample_haar_unitary")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _real=real, _name=name:
                            work.append(_name) or _real(*a))
    return work


@pytest.mark.parametrize("command, config, key, keys", [
    ("wg", {"n": 2, "N": 3, "m": 1}, "m", ["n", "N"]),
    ("moment", {"N": 2, "mc": 10, "sed": 1}, "sed",
     ["N", "mc", "seed", "constants"]),
    ("figure1", {"N": 64, "replica": 3, "seed": 1}, "replica",
     ["N", "replicas", "seed", "bins", "outdir"]),
    ("simulate", {"N": 4, "replicas": 20, "seeds": 1}, "seeds",
     ["N", "replicas", "seed", "observables", "constants", "outdir"]),
])
def test_config_key_the_command_does_not_read_is_refused(
        command, config, key, keys, tmp_path, capsys, monkeypatch):
    work = _record_work(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    outdir = tmp_path / "out"
    outdir.mkdir()
    argv = {"wg": ["wg"], "moment": ["moment", "Tr(U)Tr(Uc)"],
            "figure1": ["figure1", "--outdir", str(outdir)],
            "simulate": ["simulate", "--word", "Tr(U)",
                         "--outdir", str(outdir)]}[command]
    assert main(argv + ["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown config key {key!r}; have {keys}\n"
    assert work == [] and list(outdir.iterdir()) == []


@pytest.mark.parametrize("word", ["Tr(U)\n", "Tr(\rU)", "Tr(U\r\nUc)"],
                         ids=["LF", "CR", "CRLF"])
def test_simulate_refuses_an_observable_with_a_line_break(
        word, tmp_path, capsys, monkeypatch):
    """A line break inside an observable would split its traces.csv rows;
    it is refused before any exact value or draw."""
    work = _record_work(monkeypatch)
    assert main(["simulate", "--N", "4", "--replicas", "20", "--seed", "0",
                 "--word", word, "--word", "Tr(Uc)",
                 "--outdir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: observable {word!r} holds a line break\n"
    assert work == [] and list(tmp_path.iterdir()) == []
