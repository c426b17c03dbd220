"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmkit

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(script):
    env = {**os.environ, "PYTHONPATH": str(Path(cmkit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
