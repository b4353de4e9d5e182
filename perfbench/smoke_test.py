"""Smoke test of the benchmark: every workload at a tiny size, traced and not.

    python3 perfbench/smoke_test.py
    python3 -m pytest -q perfbench/smoke_test.py

Each run must exit 0, report ``correct`` with no failed operation, and print
every metric BENCHMARK.json names for its mode, with that metric's unit,
both as a text line and in the closing JSON object.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "0",
            "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)


def check_run(workload: str, trace: int, expected: dict) -> None:
    proc = run(workload, trace)
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: not correct\n{proc.stderr}"
    assert result["attempted"] >= 1 and result["failed"] == 0, f"{where}: {result}"
    assert any(line.startswith("failed_frac = 0 ") for line in lines), where
    assert set(result["metrics"]) == set(expected), (
        f"{where}: missing {set(expected) - set(result['metrics'])}, "
        f"extra {set(result['metrics']) - set(expected)}"
    )
    for name, unit in expected.items():
        got = result["metrics"][name]
        assert got["unit"] == unit, f"{where}: {name} in {got['unit']}, want {unit}"
        assert isinstance(got["value"], float), f"{where}: {name} = {got['value']!r}"
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines), (
            f"{where}: no text line for {name}"
        )


def test_every_workload_prints_every_metric():
    s = spec()
    modes = {0: {m["name"]: m["unit"] for m in s["end_to_end"]},
             1: {m["name"]: m["unit"] for m in s["per_layer"]}}
    for workload in s["workloads"]:
        for trace, expected in modes.items():
            check_run(workload["name"], trace, expected)


if __name__ == "__main__":
    test_every_workload_prints_every_metric()
    print("smoke test passed")
