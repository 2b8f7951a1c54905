#!/usr/bin/env python3
"""Interleaved A/B timing of the per-layer rows of `dvbsig bench`, for two
source trees of dvbsig in one process.

Each tree's `dvbsig` package is loaded under a name of its own (`dvbsig_a`,
`dvbsig_b`), so both run side by side on the same inputs.  The rows are
`dvbsig.layers.rows`, taken from CHANGE_SRC and bound to each tree's own
modules, so a parent tree without a `layers` module compares too.  Every
iteration times each row once per tree, the tree that goes first alternating
from one iteration to the next, so that the drift of a shared machine falls
on both sides alike.

Prints one JSON object: per row and tree the median and quartiles in ms, the
change-over-parent ratio of the medians, and whether both trees returned the
same values on every call.  Exits 1 when they did not.  A raw Miller value
is defined only up to an F_p factor, which the final exponentiation erases,
so the `miller_loop` row's values are compared as elements of F_p2*/F_p*.

    python3 scripts/layer_ab.py PARENT_SRC CHANGE_SRC [--scale production] [--iterations 200]

PARENT_SRC and CHANGE_SRC are the directories that hold each tree's
`dvbsig` package (a checkout's `src`).  --scale picks the parameter set:
toy (q = 13), mid (a 32-bit q) or production (q = 2^159 + 2^17 + 1 and a
512-bit p).
"""

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

SOLINAS_Q = 2**159 + 2**17 + 1


def load_tree(src: Path, name: str):
    """Import src/dvbsig as the package `name`, with the modules that
    `layers.rows` reads off it; its relative imports bind its own modules,
    so two trees never share one."""
    spec = importlib.util.spec_from_file_location(
        name, src / "dvbsig" / "__init__.py", submodule_search_locations=[str(src / "dvbsig")]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("algebra", "curve", "rng", "scheme", "session"):
        importlib.import_module(f"{name}.{module}")
    return package


def build_params(pkg, scale: str):
    if scale == "toy":
        return pkg.curve.params_for_subgroup_order(13, b"toy")
    if scale == "mid":
        return pkg.curve.generate_params(32, b"mid-size")
    return pkg.curve.params_for_subgroup_order(SOLINAS_Q, b"layer-ab", p_bits=512)


def plain(value):
    """A comparable form of a row's result: group elements by their encoding."""
    if hasattr(value, "encode"):
        return value.encode()
    if isinstance(value, tuple):
        return tuple(plain(v) for v in value)
    return value


def same(row: str, a, b) -> bool:
    """Whether two trees' results of `row` agree: exactly, or for a Miller
    value a + b*i up to an F_p factor (f ~ g iff f.b*g.a = f.a*g.b mod p)."""
    if row == "miller_loop":
        nonzero = all(f.a or f.b for f in (a, b))
        return nonzero and a.p == b.p and (a.b * b.a - a.a * b.b) % a.p == 0
    return plain(a) == plain(b)


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_ms": round(median, 4), "q1_ms": round(q1, 4), "q3_ms": round(q3, 4)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--scale", choices=("toy", "mid", "production"), default="production")
    parser.add_argument("--iterations", type=int, default=200)
    args = parser.parse_args(argv)
    if args.iterations < 2:
        parser.error("--iterations must be at least 2")

    sides = ("parent", "change")
    trees = [load_tree(args.parent_src.resolve(), "dvbsig_a"),
             load_tree(args.change_src.resolve(), "dvbsig_b")]
    layers = importlib.import_module("dvbsig_b.layers")
    rows = []
    for pkg in trees:
        params = build_params(pkg, args.scale)
        system, msk = pkg.scheme.setup(params, pkg.rng.SeededRng("layer-ab"))
        rows.append(layers.rows(pkg, system, msk, "layer-ab", args.iterations))
    times = {row: ([], []) for row in rows[0]}
    identical = True
    for i in range(args.iterations):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for row in times:
            results = [None, None]
            for side in order:
                fn = rows[side][row]
                start = time.perf_counter_ns()
                results[side] = fn(i)
                times[row][side].append((time.perf_counter_ns() - start) / 1e6)
            identical = identical and same(row, *results)

    report = {
        "scale": args.scale,
        "iterations": args.iterations,
        "parent_src": str(args.parent_src),
        "change_src": str(args.change_src),
        "outputs_identical": identical,
        "rows": {},
    }
    for row, samples in times.items():
        entry = {side: summary(s) for side, s in zip(sides, samples)}
        entry["change_over_parent"] = round(
            entry["change"]["median_ms"] / entry["parent"]["median_ms"], 4
        )
        report["rows"][row] = entry
    print(json.dumps(report, indent=1))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
