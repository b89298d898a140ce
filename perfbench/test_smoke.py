"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``. Each
workload runs once untraced and once traced, as separate processes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def runs(request):
    return parse(bench(request.param, 0)), parse(bench(request.param, 1))


def test_metric_names_and_units_match_benchmark_json(runs):
    (_, plain), (_, traced) = runs
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected


def test_every_check_passes(runs):
    for _, result in runs:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_tracing_changes_no_behaviour(runs):
    (plain_info, plain), (traced_info, traced) = runs
    assert traced_info["mv_total"] == plain_info["mv_total"] == plain["metrics"]["mv_total"]["value"]
    assert traced_info["trace_sha256"] == plain_info["trace_sha256"]
    assert traced["metrics"]["problem.apply.calls"]["value"] == plain_info["mv_total"]


def test_self_times_are_nonnegative_and_within_traced_wall(runs):
    _, (_, traced) = runs
    metrics = traced["metrics"]
    self_times = [m["value"] for name, m in metrics.items() if name.endswith("self_s")]
    assert self_times and all(t >= 0.0 for t in self_times)
    assert sum(self_times) <= metrics["trace.wall_s"]["value"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
