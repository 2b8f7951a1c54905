"""In-memory span tracing around the program's public functions.

A span is [name, start_ns, end_ns, parent, op]: `parent` is the index of the
enclosing span (-1 for a root) and `op` the benchmark operation it belongs
to.  Spans are only recorded while an operation is open, stay in memory, and
are summarised once the run ends.

The modules import each other's functions by name (`from .curve import
scalar_mul`), so `install` replaces every module attribute that is bound to
a wrapped function, not only the defining one.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute or Class.method, span name).  `_add_raw` is left out on
# purpose: it runs thousands of times per operation and would dominate the run.
TARGETS = (
    ("algebra", "is_prime", "algebra.is_prime"),
    ("algebra", "sqrt_mod", "algebra.sqrt_mod"),
    ("algebra", "Fp2Element.__pow__", "algebra.fp2_pow"),
    ("curve", "scalar_mul", "curve.scalar_mul"),
    ("curve", "_mul_raw", "curve.mul_raw"),
    ("curve", "point_add", "curve.point_add"),
    ("curve", "tate_pairing", "curve.tate_pairing"),
    ("curve", "_miller_loop", "curve.miller_loop"),
    ("curve", "_final_exponentiation", "curve.final_exp"),
    ("curve", "hash_to_point", "curve.hash_to_point"),
    ("curve", "decode_point", "curve.decode_point"),
    ("curve", "decode_gt", "curve.decode_gt"),
    ("scheme", "sign_commit", "scheme.sign_commit"),
    ("scheme", "blind", "scheme.blind"),
    ("scheme", "sign_respond", "scheme.sign_respond"),
    ("scheme", "unblind", "scheme.unblind"),
    ("scheme", "verify", "scheme.verify"),
    ("scheme", "verify_with_identity", "scheme.verify_with_identity"),
    ("scheme", "decode_signature", "scheme.decode_signature"),
    ("scheme", "h2", "scheme.h2"),
    ("session", "begin_sign", "session.begin_sign"),
    ("session", "begin_blind", "session.begin_blind"),
    ("session", "SignerAwaitingChallenge.respond", "session.respond"),
    ("session", "UserAwaitingResponse.unblind", "session.unblind"),
    ("session", "encode_message", "session.encode_message"),
    ("session", "decode_message", "session.decode_message"),
    ("session", "decode_transcript", "session.decode_transcript"),
    ("session", "TranscriptStore.record", "session.TranscriptStore.record"),
    ("session", "FileTranscriptStore.__init__", "session.FileTranscriptStore.open"),
    ("session", "FileTranscriptStore.record", "session.FileTranscriptStore.record"),
    ("storage", "load_system_params", "storage.load_system_params"),
    ("storage", "load_identity_key", "storage.load_identity_key"),
    ("storage", "load_signature", "storage.load_signature"),
    ("storage", "save_signature", "storage.save_signature"),
    ("cli", "main", "cli.main"),
)

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Collects spans for the operation set in `op` (no spans while it is -1)."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        if self.op < 0:
            return -1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.op])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        if idx >= 0:
            self.spans[idx][END] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx)

        return traced

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under span `parent`.

        perf_counter_ns reads CLOCK_MONOTONIC on Linux, which every process
        shares, so the child's times nest inside the parent's span.
        """
        base = len(self.spans)
        op = self.spans[parent][OP]
        for name, start, end, par, _ in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par, op])


def install(tracer: Tracer):
    """Wrap every TARGETS function in every loaded dvbsig module; returns an
    undo callable."""
    undo = []
    homes = {name: importlib.import_module(f"dvbsig.{name}") for name, _, _ in TARGETS}
    modules = [m for n, m in list(sys.modules.items()) if n == "dvbsig" or n.startswith("dvbsig.")]
    for mod_name, attr, span_name in TARGETS:
        home = homes[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(span_name, orig))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(home, attr)
        wrapped = tracer.wrap(span_name, orig)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, orig))

    def uninstall():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)

    return uninstall


# ---------------------------------------------------------------------------
# analysis


def _children_covered(spans: list[list]) -> list[int]:
    """Per span, the time its direct children cover.  Children of one span
    never overlap: each process records its spans from a single thread."""
    covered = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return covered


def summarize(spans: list[list], op_span: str) -> dict[str, float]:
    """Totals over all operations: `<name>.calls`, `<name>.ns` and
    `<name>.self_ns` (duration minus the time direct children cover), plus
    `coverage` (the share of operation time that the operation's direct
    children cover) and `curve.hash_to_point.tries` (sqrt attempts made
    inside hash_to_point)."""
    covered = _children_covered(spans)
    out: dict[str, float] = defaultdict(float)
    op_ns = op_covered = 0
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        name = s[NAME]
        out[f"{name}.calls"] += 1
        out[f"{name}.ns"] += dur
        out[f"{name}.self_ns"] += dur - covered[i]
        if name == op_span:
            op_ns += dur
            op_covered += covered[i]
        elif name == "algebra.sqrt_mod":
            par = s[PARENT]
            while par >= 0 and spans[par][NAME] != "curve.hash_to_point":
                par = spans[par][PARENT]
            if par >= 0:
                out["curve.hash_to_point.tries"] += 1
    out["coverage"] = op_covered / op_ns if op_ns else 0.0
    return out
