"""The example scripts run to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["production_scale_smoke.py", "bound_sweep.py"])
def test_script_exits_cleanly(script):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
