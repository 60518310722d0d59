"""Self-test of the benchmark, outside the tier-1 suite:

    python -m pytest bench -q

Every workload runs at a one-second scale, untraced and traced; the
output must match BENCHMARK.json name for name and unit for unit, every
operation must pass its check, and a second traced run must reproduce
the exact counts.
"""

from __future__ import annotations

import functools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
EXACT = ("code_instructions", "sim_cycles")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)


@functools.lru_cache(maxsize=None)
def result(workload: str, trace: int, attempt: int = 0):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_spec_follows_the_result_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(WORKLOADS) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = WORKLOADS + [metric["name"] for metric in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in metrics:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    got = result(workload, 0)
    assert got["correct"] and got["failed"] == 0 and got["attempted"] >= 1
    assert list(got["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        entry = got["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_exact_counts_repeat(workload):
    first, second = result(workload, 1, 0), result(workload, 1, 1)
    for got in (first, second):
        assert got["correct"] and got["failed"] == 0
        assert list(got["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
        for metric in SPEC["per_layer"]:
            assert got["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert got["metrics"]["trace.overhead_ratio"]["value"] > 0
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = bench(str(tmp_path), WORKLOADS[0], 0)
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
