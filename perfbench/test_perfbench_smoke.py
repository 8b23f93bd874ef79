"""Smoke test of the benchmark at tiny input sizes.

Every workload runs traced and untraced, passes its own output checks and
reports exactly the metrics BENCHMARK.json lists; the quality check fails a
model too small to have learned; the command line keeps
its output contract, and fails without printing a result when the mcseg
sources are missing.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace, tmp_path):
    result = workloads.measure(workload, seed=3, seconds=0.01,
                               trace=bool(trace), size=workloads.TINY,
                               out_dir=tmp_path)
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        spans = json.loads((tmp_path / f"spans-{workload}.json").read_text())
        assert spans["name"] and len(spans["name"]) == len(spans["parent"])


def test_quality_check_fails_an_untrained_model(tmp_path):
    """At tiny size the model cannot learn, so the quality check must fail."""
    size = dataclasses.replace(workloads.TINY, learns=True)
    result = workloads.measure("segment-lines", seed=3, seconds=0.01,
                               trace=False, size=size, out_dir=tmp_path)
    assert result["failed"] == 1
    assert "quality_f1" in result["failures"][0]


def _checkout(tmp_path: Path) -> Path:
    """A copy of what the benchmark needs: sources, bench and its spec."""
    root = tmp_path / "checkout"
    shutil.copytree(ROOT / "src" / "mcseg", root / "src" / "mcseg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def _run(root: Path) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", "segment-lines", "--seed", "1",
                             "--seconds", "0.01", "--trace", "0",
                             "--size", "tiny"]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=300)


def test_command_line_contract(tmp_path):
    root = _checkout(tmp_path)
    proc = _run(root)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())

    shutil.rmtree(root / "src")
    proc = _run(root)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
