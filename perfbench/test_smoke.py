"""Reduced-size smoke test of the benchmark harness.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at a small size through the same set-up, pass, gate and
tracing code as ``run.py``, and checks that each run is correct and reports
exactly the metrics ``BENCHMARK.json`` names.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from kplane import transform  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "radon3d": lambda: workloads.Radon3d(frames=96),
    "ridge3d": lambda: workloads.Ridge3d(frames=600),
    "iso-mc": lambda: workloads.IsoMC(frames_3d=8, rotations=2, frames_2d=120),
    "cli2d": lambda: workloads.Cli2d(frames=120, dict_frames=12, measurements=50),
}


def _close(workload):
    if hasattr(workload, "close"):
        workload.close()


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert sorted(SMALL) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_run_is_correct(name):
    workload = SMALL[name]()
    bench = run.Run(workload, seed=3)
    try:
        metrics = run.run_untraced(bench, seconds=0.0)
    finally:
        _close(workload)
    assert bench.correct, bench.errors
    assert bench.attempted > 0 and bench.failed == 0
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    workload = SMALL[name]()
    bench = run.Run(workload, seed=3)
    original = transform.forward
    try:
        metrics = run.run_traced(bench, 0.0, tmp_path / "spans.jsonl", {"test": True})
    finally:
        _close(workload)
    assert transform.forward is original  # the tracer detached itself
    assert bench.correct, bench.errors
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert metrics["trace.top_span_frac"]["value"] > 0.95
    assert metrics["transform.thread_scaling"]["value"] > 0
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["env"] == {"test": True}
    assert len(lines) > 1


def test_same_seed_same_inputs():
    a, b, c = (workloads.Radon3d(frames=16).setup(seed, 0) for seed in (5, 5, 6))
    rows = [[fr.rows for fr in x["frames"]] for x in (a, b, c)]
    assert all((p == q).all() for p, q in zip(rows[0], rows[1]))
    assert not all((p == q).all() for p, q in zip(rows[0], rows[2]))


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "radon3d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
