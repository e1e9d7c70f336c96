"""Smoke tests of the benchmark harness at P(3, GF(2)), J = 15.

They run the same code paths as the full workloads, with no timing gates.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402


def _units(section: str) -> dict[str, str]:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def _smoke(tmp_path, workload: str, trace: bool) -> dict:
    result = run.run_benchmark(
        workload, seed=1, seconds=0, trace=trace, work=tmp_path / "work", out=tmp_path / "out"
    )
    assert result["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert not any((tmp_path / "work").iterdir())
    if trace:
        spans = json.loads((tmp_path / "out" / f"trace-{workload}-seed1.json").read_text())
        assert spans["commands"] and all(c["spans"][0]["name"] == "cli" for c in spans["commands"])
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["smoke-15", "smoke-pg-15"])
def test_smoke_run_reports_every_end_to_end_metric(tmp_path, workload):
    assert all(value > 0 for value in _smoke(tmp_path, workload, trace=False).values())


def test_traced_build_reports_every_layer_metric(tmp_path):
    value = _smoke(tmp_path, "smoke-pg-15", trace=True)
    assert value["synth.projective.incidence_s"] > 0 and value["verify.command_s"] == 0


def test_traced_smoke_attributes_time_to_layers(tmp_path):
    value = _smoke(tmp_path, "smoke-15", trace=True)
    # 15 consumers per side with 7 real inputs each, over 2 iterations; verify
    # adds the 1-iteration replay of the unfolded build.
    assert value["synth.simulator.real_tokens"] == 2 * 15 * 7 * 2
    assert value["verify.simulator.real_tokens"] == 2 * 15 * 7 * 3
    assert value["synth.emit.check_hdl_s"] > 0 and value["verify.emit.check_hdl_s"] > 0
    assert value["synth.schedule.per_pmu_calls"] > 0


def test_command_prints_result_object_last():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "smoke-pg-15",
         "--seed", "4", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_checks_reject_wrong_outputs():
    graph = {"J": 15, "base_offsets": [0, 1, 2, 4, 5, 8, 10]}
    assert run.check_difference_set(graph, (3, 2, 1)) == []
    graph["base_offsets"] = [0, 1, 2, 4, 5, 8, 11]
    assert run.check_difference_set(graph, (3, 2, 1))
    assert run.check_difference_set({"J": 14, "base_offsets": [0]}, (3, 2, 1))
    assert run.check_tokens({"row": 105, "col": 105}, 105, "x") == []
    assert run.check_tokens({"row": 105, "col": 104}, 105, "x")
    workload = run.WORKLOADS["smoke-15"]
    assert run.check_command_output(workload, "synth", "wrote 30 artifacts\nrun: FAIL\n")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "hdl-91",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
