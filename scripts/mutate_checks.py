#!/usr/bin/env python3
"""Mutation sweep over the checks in one source file: does a test fail when
a check is broken?

Each mutant changes one place in the target file, in a temporary copy of the
repository (`src/`, the tests and everything they read), and runs pytest
there with `-x`.  A mutant is killed when pytest fails, and survives when it
passes.  The operators:

- raise-to-pass:   a `raise` statement becomes `pass`;
- point-fault:     a call to `point_fault` becomes `None` (every point passes);
- boundary:        `<` and `<=`, or `>` and `>=`, swap in the test of an
                   `if` whose body raises;
- return-verdict:  an `if` whose body refuses by return value, `return
                   False` or a `return` of a string (a reason), gets the
                   body `pass`;
- check-call:      a call to `_require`, `_require_*` or `_fresh` becomes
                   its first argument, parenthesised, so its check is gone.

Usage (from anywhere; paths are relative to the repository root):

    python scripts/mutate_checks.py src/dvbsig/session.py
    python scripts/mutate_checks.py src/dvbsig/curve.py --line 443 -- tests/test_curve.py

Arguments after `--` go to pytest (default: the whole tier-1 suite).  The
unmutated copy must pass them first.  Prints one JSON object: the killed
mutants (with the first failing test, when pytest names one) and the
survivors.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# what a run leaves behind, and history: nothing a test reads
SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".bench_*"
)
TIMEOUT_S = 600  # per pytest run: many times a whole tier-1 run
BOUNDARY = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


class Mutant(NamedTuple):
    line: int
    operator: str
    original: str  # the source text replaced
    replacement: str
    start: int  # byte offsets of the replaced text in the file
    end: int


def _called_name(node: ast.AST) -> str | None:
    """The name a call calls (`f(...)` or `module.f(...)`), else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _is_check_call(node: ast.AST) -> bool:
    name = _called_name(node) or ""
    return (name == "_fresh" or name.startswith("_require")) and bool(node.args)


def _is_verdict_return(node: ast.AST) -> bool:
    """`return False` or `return "<reason>"`."""
    value = node.value if isinstance(node, ast.Return) else None
    return isinstance(value, ast.Constant) and (
        value.value is False or isinstance(value.value, str)
    )


def find_mutants(source: bytes) -> list[Mutant]:
    """Every mutant of `source`, in source order."""
    line_starts = [0]  # ast columns are byte offsets into their line
    for line in source.splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(line))
    found = []

    def span(node: ast.AST) -> tuple[int, int]:
        return (line_starts[node.lineno - 1] + node.col_offset,
                line_starts[node.end_lineno - 1] + node.end_col_offset)

    def add(node: ast.AST, operator: str, replacement: str) -> None:
        start, end = span(node)
        original = source[start:end].decode("utf-8")
        found.append(Mutant(node.lineno, operator, original, replacement, start, end))

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            add(node, "raise-to-pass", "pass")
        elif _called_name(node) == "point_fault":
            add(node, "point-fault", "None")
        elif _is_check_call(node):
            start, end = span(node.args[0])
            add(node, "check-call", f"({source[start:end].decode('utf-8')})")
        elif isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body):
            for compare in ast.walk(node.test):
                if not isinstance(compare, ast.Compare):
                    continue
                for i, op in enumerate(compare.ops):
                    if type(op) in BOUNDARY:
                        ops = list(compare.ops)
                        ops[i] = BOUNDARY[type(op)]()
                        swapped = ast.Compare(compare.left, ops, compare.comparators)
                        add(compare, "boundary", ast.unparse(swapped))
        if isinstance(node, ast.If) and len(node.body) == 1 and _is_verdict_return(node.body[0]):
            add(node.body[0], "return-verdict", "pass")
    return sorted(found, key=lambda m: (m.start, m.operator))


def apply(source: bytes, mutant: Mutant) -> bytes:
    mutated = source[: mutant.start] + mutant.replacement.encode("utf-8") + source[mutant.end :]
    ast.parse(mutated)  # each operator keeps the file valid Python
    return mutated


def run_pytest(tree: Path, pytest_args: list[str]) -> tuple[bool, str | None]:
    """(passed, first failing test) for one pytest run in `tree`."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider"]
    try:
        done = subprocess.run(
            command + pytest_args, cwd=tree, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # a mutant can turn a bounded loop into an endless one
        return False, f"timeout after {TIMEOUT_S} s"
    if done.returncode == 0:
        return True, None
    failing = (
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in done.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    )
    return False, next(failing, f"pytest exit code {done.returncode}")


def main() -> int:
    parser = argparse.ArgumentParser(
        usage="%(prog)s [-h] [--line LINE] target [-- pytest args]",
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("target", help="source file to mutate, e.g. src/dvbsig/curve.py")
    parser.add_argument("--line", type=int, help="only the mutants that start on this line")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.pytest_args = argv[split + 1 :]

    target = (ROOT / args.target).resolve().relative_to(ROOT)
    source = (ROOT / target).read_bytes()
    mutants = [m for m in find_mutants(source) if args.line in (None, m.line)]
    if not mutants:
        parser.error(f"no mutants in {target}" + (f" at line {args.line}" if args.line else ""))

    report = {"target": str(target), "pytest_args": args.pytest_args, "mutants": len(mutants),
              "killed": [], "survived": []}
    with tempfile.TemporaryDirectory(prefix="mutate-checks-") as scratch:
        tree = Path(scratch) / "repo"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        passed, failure = run_pytest(tree, args.pytest_args)
        if not passed:
            print(f"the unmutated tree fails: {failure}", file=sys.stderr)
            return 2
        for mutant in mutants:
            (tree / target).write_bytes(apply(source, mutant))
            passed, failure = run_pytest(tree, args.pytest_args)
            entry = {"line": mutant.line, "operator": mutant.operator,
                     "original": mutant.original, "replacement": mutant.replacement}
            if passed:
                report["survived"].append(entry)
            else:
                report["killed"].append({**entry, "by": failure})
            print(f"line {mutant.line} {mutant.operator}: "
                  f"{'survived' if passed else 'killed'}", file=sys.stderr)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
