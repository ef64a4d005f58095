"""The counts the benchmark's claims rest on, and its input generator.

    python3 -m pytest perfbench -q

Counts asserted here must repeat exactly across runs and seeds, so a
later change may cite them as counts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_commands  # noqa: E402


def traced(commands: list, threads: int = 1) -> tuple:
    tracer = Tracer(threads)
    try:
        results, wall, _cpu = run_commands(commands)
    finally:
        tracer.close()
    return results, tracer.layer_metrics(wall)


def by_id(seed: int) -> dict:
    return {item[0]: item for item in workloads.exact_inputs(seed)}


@pytest.mark.parametrize("seed", [0, 1])
def test_order5_product_is_14400_pairs(seed):
    _ident, word, N, _c, expected = by_id(seed)["power5_N8"]
    results, m = traced([["moment", word, "--N", str(N)]])
    assert results[0][:2] == (0, f"exact: {expected}\n")
    assert m["haar_expect.pairs"] == 14_400
    assert m["combinat.alpha_pairings"] == 120
    assert m["combinat.pi_epsilon_calls"] == 14_400
    assert m["weingarten.phi_calls"] + m["haar_expect.zero_skips"] == 14_400
    assert m["haar_expect.trace_keys"] <= 14_400


@pytest.mark.parametrize("seed", [0, 7])
def test_spectral_ks_counts(seed, tmp_path):
    commands = workloads.prepare("spectral_ks", seed, tmp_path)
    results, m = traced(commands)
    assert results[0][0] == 0
    assert workloads.check_spectral(tmp_path) == []
    assert m["densities.cdf_calls"] == 40_960
    assert m["rmt.sample_calls"] == 2 * workloads.SPECTRAL_REPLICAS


@pytest.mark.parametrize("workload", ["mc_traces", "mc_traces_threads"])
def test_mc_sample_calls_equal_replicas(workload, tmp_path, monkeypatch):
    threads = workloads.threads_for(workload)
    monkeypatch.setenv("HAARLAB_THREADS", str(threads))
    commands = workloads.prepare(workload, 3, tmp_path)
    results, m = traced(commands, threads)
    assert results[0][0] == 0
    assert workloads.check_mc(tmp_path) == []
    assert m["rmt.sample_calls"] == workloads.MC_REPLICAS
    assert 0 < m["rmt.pool_busy_frac"] <= 1.0 + 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generated_words_keep_their_recorded_values(seed, tmp_path):
    """Every symmetry the generator applies leaves E Tr(w) unchanged, so
    each seed's words meet the recorded or closed-form value."""
    keep = [i for i, item in enumerate(workloads.exact_inputs(seed))
            if item[0] != "power5_N8"]
    commands = workloads.prepare("exact_words", seed, tmp_path)
    results, _wall, _cpu = run_commands([commands[i] for i in keep])
    full = [(0, "", 0.0)] * len(commands)
    for i, r in zip(keep, results):
        full[i] = r
    failures = workloads.check_exact(seed, full)
    assert all(failures[i] == [] for i in keep), failures


def test_scramble_is_seeded():
    a = [item[1] for item in workloads.exact_inputs(5)]
    assert a == [item[1] for item in workloads.exact_inputs(5)]
    assert a != [item[1] for item in workloads.exact_inputs(6)]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "mc_traces", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    for line in out.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
