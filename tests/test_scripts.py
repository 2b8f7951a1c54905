"""The example scripts run to completion against the package."""

import importlib.util
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


def test_mutate_checks_kills_a_pinned_refusal():
    # one mutant, one test: encode_message's refusal of a non-message
    # replaced by `pass` must make that test fail
    source = (ROOT / "src" / "dvbsig" / "session.py").read_text().splitlines()
    line = 1 + next(i for i, text in enumerate(source) if "raise TypeError" in text)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "mutate_checks.py"), "src/dvbsig/session.py",
         "--line", str(line), "--", "tests/test_session.py", "-k", "non_message"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["mutants"] == 1 and report["survived"] == []
    (killed,) = report["killed"]
    assert killed["operator"] == "raise-to-pass" and killed["line"] == line
    assert killed["by"] == "tests/test_session.py::TestFraming::test_encode_refuses_a_non_message"


def test_mutate_checks_operators():
    spec = importlib.util.spec_from_file_location(
        "mutate_checks", ROOT / "scripts" / "mutate_checks.py"
    )
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    source = (
        b"def check(point, n, low):\n"
        b"    if n < low or point_fault(point, n):  # \xc2\xb1\n"
        b"        raise ValueError('bad')\n"
        b"    if n <= 0:\n"
        b"        return None\n"
        b"    return n\n"
    )
    mutants = mutate.find_mutants(source)
    assert [(m.line, m.operator, m.original, m.replacement) for m in mutants] == [
        (2, "boundary", "n < low", "n <= low"),
        (2, "point-fault", "point_fault(point, n)", "None"),
        (3, "raise-to-pass", "raise ValueError('bad')", "pass"),
    ]
    assert mutate.apply(source, mutants[1]).splitlines()[1] == (
        "    if n < low or None:  # ±".encode("utf-8")
    )
