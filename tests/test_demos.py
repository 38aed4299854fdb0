"""Every demo script runs to completion against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # Demos that write files put them under TMPDIR, here the test's own directory.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert not list(tmp_path.glob("pressqubo-demo-*"))
