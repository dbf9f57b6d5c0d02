"""The demos run end to end: each exits 0 with output, from a fresh working directory.

`04_ablation_and_temperature.py` is left out: it trains the whole ablation
grid and takes about 12 s on a 2-vCPU box, against under 1 s for each
demo here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_data_and_sampling.py", "02_margins_and_costs.py",
                                  "03_decoupled_training.py"])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
