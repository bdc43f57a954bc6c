"""Smoke tests of the benchmark itself.

Every workload runs at tiny sizes (``--smoke``) in both modes and must emit
exactly the metrics BENCHMARK.json declares, with their units; traced spans
must nest with non-negative self time; and without metriclab's sources the
benchmark must refuse to run. Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 5


def run_bench(root, workload, trace):
    cmd = [sys.executable, str(root / BENCH["command"][1]), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=str(root), capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def result():
    """Result line of a smoke run, each (workload, trace) run once."""
    runs = {}

    def get(workload, trace):
        if (workload, trace) not in runs:
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            runs[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        return runs[workload, trace]
    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_exactly_the_declared_metrics(result, workload, trace):
    out = result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    emitted = out["metrics"]
    assert set(emitted) == set(declared)
    for name, unit in declared.items():
        assert emitted[name]["unit"] == unit, name
        value = emitted[name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
        if not trace:
            assert value > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ray_pseudodistance_runs_only_on_suite_all(result, workload):
    calls = result(workload, 1)["metrics"]["horofn.ray_pseudodistance.calls"]["value"]
    assert (calls > 0) == (workload == "suite-all")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_spans_nest(result, workload):
    result(workload, 1)
    spans = Tracer.load(ROOT / ".bench_build" / "perfbench" / f"spans-{workload}")
    assert len(spans.start) > 0
    assert spans.check_nesting() == []
    stats, _ = spans.aggregate()
    assert all(s["self"] >= -1e-9 for s in stats.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for rel in BENCH["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
