"""The five demos run in order, with warnings as errors.

They run from a copy of ``demos/`` without its ``output/``, so each starts
from what the one before it wrote there and none writes into the
repository.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_demos_run_in_order(tmp_path):
    demos = tmp_path / "demos"
    shutil.copytree(ROOT / "demos", demos, ignore=shutil.ignore_patterns("output", "__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    scripts = sorted(demos.glob("0[1-5]_*.py"))
    assert [script.name[:2] for script in scripts] == ["01", "02", "03", "04", "05"]
    for script in scripts:
        proc = subprocess.run(
            [sys.executable, "-W", "error", str(script)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, f"{script.name} failed:\n{proc.stderr}"
        assert proc.stdout, script.name
    written = sorted(p.name for p in (demos / "output").iterdir())
    assert written == ["catalog", "doctors_with_survey.csv", "join_graph.dot", "join_graph.json"]
