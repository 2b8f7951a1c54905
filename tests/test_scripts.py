"""The example scripts run to completion against the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.test_cli import BENCH_LABELS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["bound_sweep.py"])
def test_script_exits_cleanly(script):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_layer_ab_compares_a_tree_with_itself():
    # toy scale, both sides the same tree: every row of `dvbsig bench`
    # timed, same outputs
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "layer_ab.py"), str(ROOT / "src"),
         str(ROOT / "src"), "--scale", "toy", "--iterations", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["outputs_identical"] is True
    assert tuple(report["rows"]) == BENCH_LABELS
    for row in report["rows"].values():
        for side in ("parent", "change"):
            assert row[side]["q1_ms"] <= row[side]["median_ms"] <= row[side]["q3_ms"]
