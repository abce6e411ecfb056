"""The benchmark's modules import every ``ttbounce`` name they use, so renaming
one fails this suite rather than a benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_modules_import():
    # A fresh process: the modules have generic names (``run``, ``inputs``) and
    # ``run`` pins the BLAS thread variables when imported.
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    out = subprocess.run(
        [sys.executable, "-c", "import workloads, layers, run"],
        env={"PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
