"""Smoke tests of the benchmark itself, on tiny inputs.

    python -m pytest perfbench/ -q

They check that every metric named in ``BENCHMARK.json`` is emitted, that
every result passes its correctness gate, that layers predicted not to run on
a workload record no spans there, and the command-line contract.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

# Layers whose metrics must read zero on a workload ("no change predicted").
IDLE = {
    "search": ["graph.decomposition", "core.index_delta", "core.index_bicore", "core.index_bs"],
    "retrieve": ["core.scs", "graph.decomposition", "core.index_delta", "core.index_bicore", "core.index_bs"],
    "build": ["core.scs", "graph.components", "graph.peel", "core.query"],
}


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)  # use the benchmark's own session
    spark = run.start_session(tmp_path_factory.mktemp("spark"), 2)
    yield spark
    run.stop_session(spark)


@pytest.fixture(scope="module", params=sorted(IDLE))
def traced(request, session, tmp_path_factory):
    name = request.param
    res = run.measure(
        session, name, seed=3, seconds=0, trace=True, smoke=True,
        work_dir=tmp_path_factory.mktemp(name),
    )
    return name, res


def test_results_correct(traced):
    _, res = traced
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1


def test_every_metric_emitted(traced):
    _, res = traced
    assert set(res["end_to_end"]) == END_TO_END
    assert set(res["per_layer"]) == PER_LAYER
    for value, unit in (*res["end_to_end"].values(), *res["per_layer"].values()):
        assert isinstance(value, float | int) and unit


def test_end_to_end_never_zero(traced):
    _, res = traced
    assert all(v > 0 for v, _ in res["end_to_end"].values())


def test_idle_layers_record_nothing(traced):
    name, res = traced
    layer = res["per_layer"]
    for prefix in IDLE[name]:
        assert layer[f"{prefix}.calls"][0] == 0, prefix
        assert layer[f"{prefix}.jobs"][0] == 0, prefix


def test_busy_layers_record_work(traced):
    name, res = traced
    layer = res["per_layer"]
    busy = {
        "search": ["core.scs", "core.query", "graph.peel", "graph.components"],
        "retrieve": ["core.query", "graph.components", "graph.peel"],
        "build": ["graph.decomposition", "core.index_delta", "core.index_bicore", "core.index_bs"],
    }[name]
    for prefix in busy + ["graph.schema"]:
        assert layer[f"{prefix}.calls"][0] > 0, prefix
    assert layer["spark.jobs"][0] >= layer["graph.schema.jobs"][0] > 0
    assert layer["spark.tasks"][0] >= layer["spark.jobs"][0]


def _cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=900,
    )


def test_cli_prints_contract_line():
    out = _cli(ROOT, "--workload", "build", "--seed", "1", "--seconds", "0", "--trace", "0", "--smoke")
    assert out.returncode == 0, out.stderr[-2000:]
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert set(last["metrics"]) == END_TO_END


def test_cli_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _cli(tmp_path, "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
