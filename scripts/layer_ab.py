#!/usr/bin/env python3
"""Interleaved A/B timing of the kernels under one verification, for two
source trees of dvbsig in one process.

Each tree's `dvbsig` package is loaded under a name of its own (`dvbsig_a`,
`dvbsig_b`), so both run side by side on the same inputs.  Every iteration
times each row once per tree, the tree that goes first alternating from one
iteration to the next, so that the drift of a shared machine falls on both
sides alike.  The rows:

  sqrt_residue, sqrt_nonresidue   sqrt_mod on a residue and a non-residue
  fp2_pow_cofactor                Fp2Element.__pow__ of a pairing value by
                                  the cofactor (the final exponentiation's)
  doubling_chain_161              a 161-entry doubling chain, uncached
  h1_new, h1_repeat               hash_to_point on a new and on a repeated
                                  identity
  pairing_cached                  tate_pairing with its Miller lines cached
  verify                          scheme.verify of a valid signature
  param_search                    the scale's parameter set from scratch: the
                                  p = 12*q*r - 1 search (and at mid scale the
                                  q search) and the generator

Prints one JSON object: per row and tree the median and quartiles in ms, the
change-over-parent ratio of the medians, and whether both trees returned the
same values on every call.  Exits 1 when they did not.

    python3 scripts/layer_ab.py PARENT_SRC CHANGE_SRC [--scale production] [--iterations 200]

PARENT_SRC and CHANGE_SRC are the directories that hold each tree's
`dvbsig` package (a checkout's `src`).
"""

import argparse
import hashlib
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

SOLINAS_Q = 2**159 + 2**17 + 1


def load_tree(src: Path, name: str):
    """Import src/dvbsig as the package `name`; its relative imports bind its
    own modules, so two trees never share one."""
    spec = importlib.util.spec_from_file_location(
        name, src / "dvbsig" / "__init__.py", submodule_search_locations=[str(src / "dvbsig")]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def build_params(pkg, scale: str):
    curve = importlib.import_module(f"{pkg.__name__}.curve")
    if scale == "toy":
        return curve.params_for_subgroup_order(13, b"toy")
    if scale == "mid":
        return curve.generate_params(32, b"mid-size")
    return curve.params_for_subgroup_order(SOLINAS_Q, b"layer-ab", p_bits=512)


def residue_and_nonresidue(p: int) -> tuple[int, int]:
    """The first full-width residue and non-residue mod p, by Euler's
    criterion, among SHA-256 values."""
    found = {}
    counter = 0
    while len(found) < 2:
        digest = hashlib.sha256(b"layer-ab|" + counter.to_bytes(4, "big")).digest()
        a = int.from_bytes(digest * 2, "big") % p
        if a:
            found.setdefault(pow(a, (p - 1) // 2, p) == 1, a)
        counter += 1
    return found[True], found[False]


def build_rows(pkg, scale: str) -> dict:
    """Row name -> callable(iteration) for one tree."""
    name = pkg.__name__
    algebra = importlib.import_module(f"{name}.algebra")
    curve = importlib.import_module(f"{name}.curve")
    scheme = importlib.import_module(f"{name}.scheme")
    session = importlib.import_module(f"{name}.session")
    rng = importlib.import_module(f"{name}.rng")

    params = build_params(pkg, scale)
    p = params.p
    residue, nonresidue = residue_and_nonresidue(p)
    system, msk = scheme.setup(params, rng.SeededRng("layer-ab|pkg"))
    signer = scheme.keygen(system, msk, b"layer-ab-signer")
    verifier = scheme.keygen(system, msk, b"layer-ab-verifier")
    message = b"layer-ab message"
    outcome = session.run_local_session(
        system, signer, message, verifier.public, rng.SeededRng("layer-ab|session"),
        clock=session.LogicalClock(),
    )
    signature = outcome.signature
    g = params.generator
    base = curve.tate_pairing(g, signer.public, params).value
    point = curve.hash_to_point(b"layer-ab-point", params)
    chain = curve._doubling_chain.__wrapped__

    rows = {
        "sqrt_residue": lambda i: algebra.sqrt_mod(residue, p),
        "sqrt_nonresidue": lambda i: algebra.sqrt_mod(nonresidue, p),
        "fp2_pow_cofactor": lambda i: base ** params.cofactor,
        "doubling_chain_161": lambda i: chain(p, g.x, g.y, 161),
        "h1_new": lambda i: curve.hash_to_point(f"layer-ab-new-{i}".encode(), params),
        "h1_repeat": lambda i: curve.hash_to_point(b"layer-ab-repeat", params),
        "pairing_cached": lambda i: curve.tate_pairing(verifier.secret, point, params),
        "verify": lambda i: scheme.verify(
            system, verifier.secret, signer.public, message, signature
        ),
        "param_search": lambda i: build_params(pkg, scale),
    }
    # warm the caches that a repeated call would find warm
    for row in ("h1_repeat", "pairing_cached", "verify"):
        rows[row](-1)
    return rows


def plain(value):
    """A comparable form of a row's result: group elements by their encoding."""
    if hasattr(value, "encode"):
        return value.encode()
    if isinstance(value, tuple):
        return tuple(plain(v) for v in value)
    return value


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
    rows = [build_rows(pkg, args.scale) for pkg in trees]
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
            identical = identical and plain(results[0]) == plain(results[1])

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
