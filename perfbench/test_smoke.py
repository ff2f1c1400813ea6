"""Smoke test of the benchmark on tiny instances.

Runs every workload with tracing off and on and checks that each metric
named in BENCHMARK.json is printed with its unit, that every job got its
known answer and that error_rate is 0.  Run it with

    python -m pytest perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    CONTRACT = json.load(handle)


def run_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            printed[name] = (float(value), unit)
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    printed, result = run_smoke(workload, trace)
    assert result["correct"], printed
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert printed[metric["name"]][1] == metric["unit"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert printed["error_rate"] == (0.0, "ratio")
        for metric in wanted:
            assert result["metrics"][metric["name"]]["value"] > 0
