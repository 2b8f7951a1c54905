"""dvbsig benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree: the program is imported from ./src and
the metric names come from ./BENCHMARK.json.  The last line of standard
output is the JSON result; the line before it is a report with the
reproducibility record and the per-workload detail behind the metrics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "dvbsig" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    if not (root / "BENCHMARK.json").is_file():
        print(f"perfbench: no BENCHMARK.json in {root}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import harness

    return harness.main(root, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
