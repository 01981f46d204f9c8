"""Tests of the benchmark itself, on tiny inputs (``--smoke``).

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0.3",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "fail_ratio" in proc.stdout


def _inputs(workload: str, seed: int, work: str) -> list:
    plan = workloads.prepare(workload, work, seed, smoke=True)
    if "jobs" in plan:
        return [workloads.sha256_file(job[k]) for job in plan["jobs"] for k in ("x", "y")]
    return [slot["seed"] for slot in plan["slots"]]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_changes_the_inputs_and_only_the_seed(workload, tmp_path):
    first = _inputs(workload, 0, str(tmp_path))
    assert _inputs(workload, 0, str(tmp_path)) == first
    assert _inputs(workload, 1, str(tmp_path)) != first


def test_schedules_repeat_their_block_of_shapes(tmp_path):
    for workload in ("certify-scenario", "certify-chain"):
        plan = workloads.prepare(workload, str(tmp_path), 3, smoke=False)
        shapes = [tuple(slot["shape"]) for slot in plan["slots"]]
        block = shapes[:plan["block"]]
        assert shapes == block * (len(shapes) // len(block))


def test_scenario_block_is_a_stratified_sample_of_the_suites():
    from qextract.extractor import DEOR, ExtractorSpec
    from qextract.gf2 import build_family

    exts = [ExtractorSpec(DEOR, n, m, build_family(n, m, r))
            for n, m, r in workloads.DEOR_FAMILIES]
    suite = {(s["kind"], s["suite_seed"]): s for s in workloads.suite_instances(exts)}
    block = workloads.scenario_block(exts)
    assert all(suite[(s["kind"], s["suite_seed"])] == s for s in block)
    kinds = [(s["kind"], s["strong"]) for s in block]
    assert kinds.count(("ip", True)) == kinds.count(("ip", False)) == workloads.IP_SLOTS_PER_MODE
    deor = sum(workloads.DEOR_SLOTS_BY_N.values())
    assert kinds.count(("deor", True)) == deor
    ip = 2 * workloads.IP_SLOTS_PER_MODE
    assert ip * workloads.DEOR_SUITE_COUNT == deor * workloads.IP_SUITE_COUNT
    for n, k in workloads.DEOR_SLOTS_BY_N.items():
        in_suite = sum(s["kind"] == "deor" and s["shape"][0] == n for s in suite.values())
        assert abs(k / deor - in_suite / workloads.DEOR_SUITE_COUNT) < 0.5 / deor
        assert sum(s["kind"] == "deor" and s["shape"][0] == n for s in block) == k
    assert len(block) % 2 == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench(str(tmp_path), "--workload", "extract-aligned", "--seed", "0",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
