"""Smoke test of the benchmark harness: every workload, tiny, both modes.

Checks the harness, not speed (``--smoke`` shrinks every population and
runs one set-up).  Not part of the tier-1 suite; run it with::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SERVICE_LAYERS = ("wire.decode.util", "hashing.request_key.util", "cache.get.util")


def _run(workload: str, trace: int, cwd: Path = ROOT):
    completed = subprocess.run(
        [
            sys.executable,
            str(cwd / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "1",
            "--seconds", "1",
            "--trace", str(trace),
            "--smoke",
        ],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )
    return completed


def _result(completed) -> tuple[list[str], dict]:
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return lines, result


def _printed(lines: list[str], metrics: list[dict], result: dict) -> None:
    assert list(result["metrics"]) == [metric["name"] for metric in metrics]
    for metric in metrics:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert any(
            line.startswith(metric["name"] + " ")
            and line.endswith(" " + metric["unit"])
            for line in lines
        ), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    lines, result = _result(_run(workload, 0))
    _printed(lines, SPEC["end_to_end"], result)
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    lines, result = _result(_run(workload, 1))
    _printed(lines, SPEC["per_layer"], result)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if workload == "sweep-sim":
        # The sweep runs no service code at all.
        assert all(values[name] == 0 for name in SERVICE_LAYERS)
        assert values["sim.batch.util"] > 0
    else:
        assert all(values[name] > 0 for name in SERVICE_LAYERS)
    if workload == "hit-wire":
        # Warmed in set-up: the timed phase never computes.
        assert values["engine.compute.per_op"] == 0
    if workload == "mixed-durable":
        assert values["regions.build.calls"] > 0
        assert values["regions.hit_ratio"] > 0


def test_benchmark_lists_every_per_layer_metric():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from summarize import PER_LAYER

    assert [
        (metric["name"], metric["unit"], metric["better"])
        for metric in SPEC["per_layer"]
    ] == list(PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert not completed.stdout.strip()
