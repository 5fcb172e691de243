"""Smoke test of the benchmark: n=2 models, two ops per workload.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(script: Path, workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + ["--smoke"], cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_present_and_trace_changes_no_output(workload, tmp_path):
    digests = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = _run(HERE / "run.py", workload, trace, tmp_path)
        assert done.returncode == 0, done.stderr
        *_, report_line, result_line = done.stdout.strip().splitlines()
        result = json.loads(result_line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[section]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        digests.append(json.loads(report_line)["report"]["digest"])
    assert digests[0] == digests[1]


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path / HERE.name / "run.py", "multistart-opt-n3", 0, tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
