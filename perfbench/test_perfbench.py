"""Self-tests of the benchmark: outputs and trace counters repeat exactly.

    python3 -m pytest perfbench/test_perfbench.py

Run from the root of the checkout.  Every workload's task list runs several
times in fresh interpreters, so this takes a few minutes.
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_digest_repeats_across_passes_and_hash_seeds(workload):
    passes = [run.spawn(ROOT, workload, 7, "check", hashseed=h) for h in ("0", "0", "1", "2", "3")]
    assert {p["digest"] for p in passes} == {passes[0]["digest"]}
    assert all(p["failed"] == 0 for p in passes), passes[0]["failures"]
    assert all(p["attempted"] >= 100 for p in passes)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_trace_counts_repeat_and_leave_outputs_alone(workload):
    plain = run.spawn(ROOT, workload, 7, "check")
    traced = [run.spawn(ROOT, workload, 7, "trace") for _ in range(2)]
    first, second = (t["trace"] for t in traced)
    assert first["counts"] == second["counts"]
    assert first["spans"] == second["spans"]
    assert {t["digest"] for t in traced} == {plain["digest"]}
    layer_total = sum(first["layer_self_s"].values()) + first["self_s"]["task"]
    assert layer_total == pytest.approx(traced[0]["wall_s"], rel=0.05)


def test_times_are_scaled_per_pass_to_the_reference_speed():
    ref = run.REFERENCE_YARDSTICK_S
    fast = {"yardstick_s": ref, "task_s": [0.010, 0.002]}
    slow = {"yardstick_s": 2 * ref, "task_s": [0.020, 0.004]}
    disturbed = {"yardstick_s": ref, "task_s": [0.050, 0.002]}
    assert run.median_task_times([fast, slow, disturbed]) == pytest.approx([0.010, 0.002])
    assert run.measured_wall_s([fast, slow]) == pytest.approx(0.018)


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "morphism-arrow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
