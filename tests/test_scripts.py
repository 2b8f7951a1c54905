"""The example scripts run to completion against the package."""

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tests.test_cli import BENCH_LABELS

ROOT = Path(__file__).resolve().parents[1]


# SHA-256 of each script's whole stdout
SCRIPT_DIGESTS = {
    "bound_sweep.py": "8f179f2832b9242faf407b2938870d7d326d2743c2a4fb4727062d6834f3cef1",
}


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
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == SCRIPT_DIGESTS[script]


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


@pytest.mark.parametrize("value, identical", [("2 * fa, 2 * fb", True), ("-fb, fa", False)])
def test_layer_ab_compares_miller_values_up_to_an_fp_factor(tmp_path, value, identical):
    # a tree whose raw Miller value is 2*f computes the same pairings and is
    # the same; one whose Miller value is i*f computes the same pairings too
    # (i^4 = 1 and 4 divides the final exponent), but i is not in F_p
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    curve_py = src / "dvbsig" / "curve.py"
    text = curve_py.read_text()
    assert text.count("return Fp2Element(fa, fb, p)") == 1
    curve_py.write_text(text.replace("return Fp2Element(fa, fb, p)", f"return Fp2Element({value}, p)"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "layer_ab.py"), str(ROOT / "src"), str(src),
         "--scale", "toy", "--iterations", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == (0 if identical else 1), done.stderr
    assert json.loads(done.stdout)["outputs_identical"] is identical


def test_launch_ab_compares_a_tree_with_itself(tmp_path):
    # toy scale, both sides the same tree, 2 pairs: every launch exits 0
    # with the same output, signature and log on both sides
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    ws = tmp_path / "ws"
    for argv in (["params", "gen", "--q-value", "13", "--seed", "t"], ["setup", "--seed", "p"],
                 ["keygen", "--id", "signer"], ["keygen", "--id", "verifier"]):
        subprocess.run([sys.executable, "-m", "dvbsig.cli", "-w", str(ws), *argv], env=env,
                       capture_output=True, check=True)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "launch_ab.py"), str(ROOT / "src"),
         str(ROOT / "src"), "--workspace", str(ws), "--pairs", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["pairs"] == 2 and report["failed_launches"] == 0
    assert report["outputs_and_signatures_identical"] is True
    assert report["logs_identical"] is True
    assert tuple(report["commands"]) == ("sign run", "verify")
    for row in report["commands"].values():
        assert 0 <= row["change_wins"] <= 2
        for side in ("parent", "change"):
            assert row[side]["q1_ms"] <= row[side]["median_ms"] <= row[side]["q3_ms"]
    # the workspace itself is left as it was: no log, no signature
    assert not (ws / "transcripts.log").exists() and not (ws / "sig.bin").exists()


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
        b"    if n > 2 * low:\n"
        b"        raise ValueError('big')\n"
        b"    return n\n"
        b"def verdict(n):\n"
        b"    if n < 0:\n"
        b"        return False\n"
        b"    if n > 9:\n"
        b"        return 'is too big'\n"
        b"    if n == 5:\n"
        b"        return None\n"
        b"    return True\n"
        b"def load(ws, cli):\n"
        b"    cli._fresh(ws.out, 'output')\n"
        b"    return _require_file(ws.a or ws.b, 'input').read_bytes()\n"
    )
    mutants = mutate.find_mutants(source)
    assert [(m.line, m.operator, m.original, m.replacement) for m in mutants] == [
        (2, "boundary", "n < low", "n <= low"),
        (2, "point-fault", "point_fault(point, n)", "None"),
        (3, "raise-to-pass", "raise ValueError('bad')", "pass"),
        (6, "boundary", "n > 2 * low", "n >= 2 * low"),
        (7, "raise-to-pass", "raise ValueError('big')", "pass"),
        (11, "return-verdict", "return False", "pass"),
        (13, "return-verdict", "return 'is too big'", "pass"),
        (18, "check-call", "cli._fresh(ws.out, 'output')", "(ws.out)"),
        (19, "check-call", "_require_file(ws.a or ws.b, 'input')", "(ws.a or ws.b)"),
    ]
    assert mutate.apply(source, mutants[1]).splitlines()[1] == (
        "    if n < low or None:  # ±".encode("utf-8")
    )
    assert mutate.apply(source, mutants[-1]).splitlines()[-1] == (
        b"    return (ws.a or ws.b).read_bytes()"
    )
