"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess

import pytest

import genmodels
import loops
import refcheck
import run

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(workload, trace):
    result, _ = run.run(workload, 3, 0.3, trace, loops.TINY)
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in want)
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


def _shift_normal(pushforward):
    def corrupted(kind, p, u):
        x = pushforward(kind, p, u)
        return x + 1e-6 if kind == "normal" else x
    return corrupted


def _shift_density(log_density):
    return lambda kind, p, m: log_density(kind, p, m) + 1e-6


@pytest.mark.parametrize("workload,target,corrupt", [
    ("deep_chain", "pushforward", _shift_normal),
    ("do_sweep", "pushforward", _shift_normal),
    ("fixture_records", "log_density", _shift_density),
    ("fixture_records", "derive_seed", lambda f: lambda seed, i: f(seed, i + 1)),
])
def test_corrupted_reference_fails(monkeypatch, workload, target, corrupt):
    monkeypatch.setattr(refcheck, target, corrupt(getattr(refcheck, target)))
    result, lines = run.run(workload, 3, 0.3, False, loops.TINY)
    assert not result["correct"] and result["failed"] > 0
    assert any("FAILED" in line for line in lines)


def test_corrupted_spw_reference_fails(monkeypatch):
    monkeypatch.setitem(loops.SPW_EXACT, "weighted", 0.91)
    result, _ = run.run("fixture_records", 3, 0.3, False, loops.TINY)
    assert not result["correct"]


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_generated_models_validate(tmp_path, seed, capsys):
    jk = run.Jointkern(run.ROOT)
    models = [genmodels.chain_model(n, seed)[0] for n in (2, 160)]
    models += [genmodels.layered_dag(seed, i)[0] for i in range(4)]
    for i, raw in enumerate(models):
        path = genmodels.write_model(raw, str(tmp_path), f"m{i}")
        assert jk.cli.main(["validate", path]) == 0
    assert capsys.readouterr().out == "OK\n" * len(models)


def test_generators_are_seeded():
    assert genmodels.layered_dag(5, 1)[0] == genmodels.layered_dag(5, 1)[0]
    assert genmodels.layered_dag(5, 1)[0] != genmodels.layered_dag(6, 1)[0]
    assert genmodels.chain_model(10, 5)[0] == genmodels.chain_model(10, 5)[0]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "deep_chain", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
