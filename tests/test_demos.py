"""The demo scripts run, and every name they import from noaga exists.

demo_scale.py is only import-checked: its 20k-edge run takes tens of seconds.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noaga

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize(
    "script", ["demo_small_dataset.py", "demo_dynamics.py", "demo_oracle_check.py"]
)
def test_demo_runs(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_demo_imports_resolve():
    scripts = sorted(DEMOS.glob("demo_*.py"))
    assert len(scripts) == 4
    missing = [
        f"{path.name}: {alias.name}"
        for path in scripts
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "noaga"
        for alias in node.names
        if not hasattr(noaga, alias.name)
    ]
    assert missing == []
