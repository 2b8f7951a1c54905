#!/usr/bin/env python3
"""Interleaved A/B timing of whole CLI processes, for two source trees of
dvbsig: `sign run` and `verify`, each launched as `python -m dvbsig.cli`.

WS is a workspace holding keys for the identities `signer` and `verifier`
(perfbench's cli-log builds one).  It is copied once per tree, and each
tree's launches run in its own copy, so the two transcript logs grow alike.
Every pair launches `sign run` on both trees, then `verify` on both, with
the tree that goes first alternating from one pair to the next and a
`--seed` that is new to the pair but the same on both sides.  The time of a
launch is its wall-clock time as seen from here.

Prints one JSON object: per command and tree the median and quartiles in
ms, the median of the paired differences (change minus parent) and the
number of pairs the change won; whether every launch exited 0, and whether
every launch's output, every signature and the two logs were byte-identical.
Exits 1 when a launch failed or an output differed.

    python3 scripts/launch_ab.py PARENT_SRC CHANGE_SRC --workspace WS [--pairs 20]

PARENT_SRC and CHANGE_SRC are the directories that hold each tree's
`dvbsig` package (a checkout's `src`).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = ("sign run", "verify")
SIDES = ("parent", "change")
WHO = ["--signer", "signer", "--verifier", "verifier", "--asset-statement", "launch-ab:1"]


def launch(src: Path, ws: Path, argv: list[str]):
    """(ms, (exit code, stdout, stderr)) of one CLI process run in `ws`."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = time.perf_counter_ns()
    done = subprocess.run(
        [sys.executable, "-m", "dvbsig.cli", "-w", ".", *argv],
        cwd=ws, env=env, capture_output=True, timeout=600,
    )
    ms = (time.perf_counter_ns() - start) / 1e6
    return ms, (done.returncode, done.stdout, done.stderr)


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_ms": round(median, 2), "q1_ms": round(q1, 2), "q3_ms": round(q3, 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workspace", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    srcs = (args.parent_src.resolve(), args.change_src.resolve())
    # a run of its own: seeds that no earlier run has logged in a copy of WS
    run_tag = os.urandom(4).hex()
    times = {command: ([], []) for command in COMMANDS}
    failed = 0
    identical = True
    with tempfile.TemporaryDirectory(prefix="launch-ab-") as scratch:
        workspaces = [Path(scratch) / side for side in SIDES]
        for ws in workspaces:
            shutil.copytree(args.workspace, ws)
        for i in range(args.pairs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            seed = f"launch-ab-{run_tag}-{i}"
            for command, argv in (
                ("sign run", ["sign", "run", *WHO, "--seed", seed, "--out", "sig.bin"]),
                ("verify", ["verify", *WHO, "--sig", "sig.bin"]),
            ):
                outputs = [None, None]
                for side in order:
                    ms, outputs[side] = launch(srcs[side], workspaces[side], argv)
                    times[command][side].append(ms)
                failed += sum(code != 0 for code, _, _ in outputs)
                identical = identical and outputs[0] == outputs[1]
            signatures = [sig.read_bytes() if (sig := ws / "sig.bin").exists() else None
                          for ws in workspaces]
            identical = identical and signatures[0] == signatures[1]
        logs = [(ws / "transcripts.log").read_bytes() for ws in workspaces]

    report = {
        "pairs": args.pairs,
        "parent_src": str(args.parent_src),
        "change_src": str(args.change_src),
        "workspace": str(args.workspace),
        "failed_launches": failed,
        "outputs_and_signatures_identical": identical,
        "logs_identical": logs[0] == logs[1],
        "commands": {},
    }
    for command, (parent, change) in times.items():
        report["commands"][command] = {
            "parent": summary(parent),
            "change": summary(change),
            "paired_diff_median_ms": round(
                statistics.median(c - p for p, c in zip(parent, change)), 2
            ),
            "change_wins": sum(c < p for p, c in zip(parent, change)),
        }
    print(json.dumps(report, indent=1))
    return 0 if failed == 0 and identical and report["logs_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
