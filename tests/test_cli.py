"""Command-line behavior: outputs, exit codes, config merging."""

import json

import pytest

from haarlab.cli import main

A_CSV = ("row,col,re_num,re_den,im_num,im_den\n"
         "1,1,1,1,0,1\n1,2,2,1,0,1\n2,1,3,1,0,1\n2,2,4,1,0,1\n")


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_wg_prints_table_and_dumps(tmp_path, capsys):
    dump = tmp_path / "wg.csv"
    assert main(["wg", "--n", "2", "--N", "5", "--dump", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "1+1" in out and "exact" in out
    lines = dump.read_text().splitlines()
    assert lines[0] == "n,cycle_type,N,numerator,denominator"
    assert len(lines) == 3


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


def test_moment_monte_carlo_agrees(capsys):
    assert main(["moment", "Tr(U)Tr(Uc)", "--N", "6", "--mc", "600",
                 "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "exact: 1" in out
    dev = float(out.split("|dev| = ")[1].rstrip(")\n"))
    assert dev < 0.2


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
    capsys.readouterr()


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


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nope"]) == 1
    capsys.readouterr()


def test_bad_config_json(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["simulate", "--config", str(cfg)]) == 1
    capsys.readouterr()
