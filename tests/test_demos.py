"""The demos run end to end: each exits 0 with output, from a fresh working directory.

`04_ablation_and_temperature.py` is left out of the runs: it trains the
whole ablation grid and takes about 12 s on a 2-vCPU box, against under
1 s for each demo here. Every demo, 04 included, has its imports from
`denshift` resolved.
"""

import ast
import importlib
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


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_imports_from_denshift_resolve(demo):
    tree = ast.parse((ROOT / "demos" / demo).read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "denshift"
               for alias in node.names]
    assert imports, f"{demo} imports nothing from denshift"
    assert [f"{m}.{name}" for m, name in imports if not _resolves(m, name)] == []
