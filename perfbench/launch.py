"""Run the dvbsig CLI with span tracing and the operation meter switched on.

    python3 perfbench/launch.py <trace.json> <dvbsig arguments...>

Writes {"spans": [...], "counts": {...}} to <trace.json> when the command
returns, and exits with the command's exit code.  The program must be
importable (PYTHONPATH pointing at src/).
"""

import json
import sys
from pathlib import Path

import spans
from dvbsig import cli, meter


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = spans.Tracer()
    tracer.op = 0
    spans.install(tracer)
    with meter.measure() as counter:
        code = cli.main(argv)
    out.write_text(json.dumps({"spans": tracer.spans, "counts": counter.counts}))
    return code


if __name__ == "__main__":
    sys.exit(main())
