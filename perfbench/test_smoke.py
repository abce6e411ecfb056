"""Smoke test of the benchmark at tiny size.

Run from the repository root: ``python3 -m pytest perfbench/test_smoke.py``.
Each case starts the benchmark in a subprocess, from the repository
root, and reads the JSON object on its last line.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*extra: str, cwd: Path = ROOT, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    argv = [sys.executable, str(script), "--workload", "rally_run", "--seed", "3",
            "--seconds", "1", "--size", "tiny", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_appears_with_its_unit(trace, kind):
    proc = bench("--trace", str(trace))
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(math.isfinite(v["value"]) for v in out["metrics"].values())
    ops_line = next(line for line in proc.stdout.splitlines() if line.startswith("# ops "))
    ops = json.loads(ops_line[len("# ops "):])
    assert set(ops) == {"rally_run", "live_streams", "corpus_train"}
    assert all(v["ops_total"] > 0 and v["ops_failed"] == 0 for v in ops.values())


@pytest.mark.parametrize("fault", ["onset", "label", "ttsb"])
def test_planted_fault_is_counted_as_failed(fault):
    out = last_json(bench("--trace", "0", "--plant-fault", fault))
    assert out["failed"] > 0 and not out["correct"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
