"""Measurement loop, metrics, and the result line.

End-to-end metrics come from an untraced run.  A traced run (--trace 1)
first measures half its time untraced, then installs the span wrappers for
the second half; the per-layer metrics are per operation of that half, and
the tracing overhead is the difference of the two halves' medians.  The
traced half's spans are written to .bench_traces/<workload>-seed<n>.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

from dvbsig import meter

import spans
import stats
from workloads import PRODUCTION, WORKLOADS, Outcome

SETUP_REPS = 3
FAILED_MS = 1e9  # latency charged to a failed operation: it misses every bound
DIGEST_OPS = 8  # outputs_sha256 covers this many leading operations
OP_SPAN = "bench.op"
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "op")
METER_KINDS = (meter.G1_SCALAR_MUL, meter.G1_GROUP_OP, meter.PAIRING, meter.MAP_TO_POINT)
MODULES = ("algebra", "curve", "scheme", "session", "storage", "cli", "bench")
# Names used for each workload's operation in the report line.
OP_NAMES = {"sign-wire": "session", "verify-inbox": "verify", "cli-log": "cli_op"}


@dataclass
class OpRecord:
    index: int
    ms: float
    ok: bool
    record: bytes
    extra: dict[str, float]
    counts: dict[str, int]


def one_op(wl, i: int, tracer: spans.Tracer | None = None) -> OpRecord:
    """Prepare, time and check operation i.  An exception in `run` or
    `check` marks the operation failed; it is reported, never dropped."""
    inputs = wl.prepare(i)
    output = error = None
    with meter.measure() if tracer else nullcontext() as counter:
        if tracer:
            tracer.op = i
            span = tracer.enter(OP_SPAN)
        start = perf_counter_ns()
        try:
            output = wl.run(inputs)
        except Exception as exc:  # a failed operation is a result, not a crash
            error = exc
        ms = (perf_counter_ns() - start) / 1e6
        if tracer:
            tracer.exit(span)
            tracer.op = -1
    outcome = Outcome(False, b"")
    if error is None:
        try:
            outcome = wl.check(inputs, output)
        except Exception as exc:
            error = exc
    if error is not None:
        print(f"perfbench: {wl.name} operation {i} failed", file=sys.stderr)
        traceback.print_exception(error)
    counts = Counter(counter.counts if counter else {})
    counts.update(outcome.counts)
    return OpRecord(i, ms, outcome.ok and error is None, outcome.record, outcome.extra, counts)


def measure(wl, seconds: float, tracer=None, start: int = 0) -> list[OpRecord]:
    """Closed loop: the next operation starts when the previous one is checked."""
    records: list[OpRecord] = []
    deadline = perf_counter() + seconds
    while not records or perf_counter() < deadline:
        records.append(one_op(wl, start + len(records), tracer))
    return records


def latencies(records: list[OpRecord]) -> list[float]:
    return [r.ms if r.ok else FAILED_MS for r in records]


def _mean(records: list[OpRecord], key: str) -> float:
    return statistics.fmean(float(r.extra.get(key, 0)) for r in records)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def end_to_end(records: list[OpRecord], setup_s: list[float]) -> tuple[dict, dict]:
    lat = latencies(records)
    pct, tail_ms, beyond = stats.tail(lat)
    ok = sum(r.ok for r in records)
    values = {
        "setup_s": stats.median(setup_s),
        "op_ms_p50": stats.median(lat),
        "op_ms_tail": tail_ms,
        "ops_per_s": ok / (sum(r.ms for r in records) / 1000),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": ok / len(records),
    }
    tail = {"percentile": pct, "samples": len(lat), "beyond": beyond}
    return values, tail


def per_layer(tracer: spans.Tracer, plain: list[OpRecord], traced: list[OpRecord]) -> dict:
    n = len(traced)
    total = spans.summarize(tracer.spans, OP_SPAN)

    def per_op(key: str) -> float:
        return total.get(key, 0.0) / n

    values = {}
    for _, _, name in spans.TARGETS:
        values[f"{name}.calls"] = per_op(f"{name}.calls")
        values[f"{name}.ms"] = per_op(f"{name}.ns") / 1e6
    for module in MODULES:
        self_ns = sum(
            v for k, v in total.items() if k.startswith(f"{module}.") and k.endswith(".self_ns")
        )
        values[f"self.{module}.ms"] = self_ns / n / 1e6
    values["curve.hidden_ladders"] = values["curve.mul_raw.calls"] - values["curve.scalar_mul.calls"]
    values["curve.hash_to_point.tries"] = per_op("curve.hash_to_point.tries")
    values["cli.sign.process_ms"] = per_op("proc.sign.ns") / 1e6
    values["cli.verify.process_ms"] = per_op("proc.verify.ns") / 1e6
    values["cli.process_ms"] = values["cli.sign.process_ms"] + values["cli.verify.process_ms"]
    values["cli.startup_ms"] = values["cli.process_ms"] - values["cli.main.ms"]
    for kind in METER_KINDS:
        values[f"meter.{kind}"] = sum(r.counts[kind] for r in traced) / n
    values["session.log_bytes_per_op"] = _mean(traced, "log_bytes")
    values["session.attempts_per_session"] = _mean(traced, "attempts")
    values["inputs.seen_signer_frac"] = _mean(traced, "seen_signer")
    values["trace.coverage"] = total["coverage"]
    values["trace.overhead_ms"] = stats.median(latencies(traced)) - stats.median(latencies(plain))
    values["trace.spans_per_op"] = len(tracer.spans) / n
    values["counts.exact"] = float(len(set(count_vectors(tracer, traced))) == 1)
    return values


def count_vectors(tracer: spans.Tracer, records: list[OpRecord]) -> list[tuple[int, ...]]:
    """Per operation: the meter counts in METER_KINDS order, then ladders run."""
    ladders = Counter(s[spans.OP] for s in tracer.spans if s[spans.NAME] == "curve.mul_raw")
    return [tuple(r.counts[k] for k in METER_KINDS) + (ladders[r.index],) for r in records]


def outputs_sha256(records: list[OpRecord]) -> str:
    digest = hashlib.sha256()
    for r in records[:DIGEST_OPS]:
        digest.update(len(r.record).to_bytes(4, "big") + r.record)
    return digest.hexdigest()


def tree_sha256(top: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        digest.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(root: Path, name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if name not in WORKLOADS:
        print(f"perfbench: unknown workload {name!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_s = []
        for rep in range(SETUP_REPS):
            start = perf_counter()
            wl = WORKLOADS[name](seed, PRODUCTION, work, rep)
            setup_s.append(perf_counter() - start)
        problems = []
        if trace:
            plain = measure(wl, seconds / 2)
            tracer = wl.tracer = spans.Tracer()
            uninstall = spans.install(tracer)
            try:
                traced = measure(wl, seconds / 2, tracer, start=len(plain))
            finally:
                uninstall()
            records, untraced = plain + traced, plain
            values = per_layer(tracer, plain, traced)
            problems = [
                f"wrapped {span} recorded no calls"
                for span in wl.exercises
                if values[f"{span}.calls"] == 0
            ]
            vectors = sorted(set(count_vectors(tracer, traced)))
            spans_file = root / ".bench_traces" / f"{name}-seed{seed}.json"
            spans_file.parent.mkdir(exist_ok=True)
            spans_file.write_text(json.dumps({"fields": SPAN_FIELDS, "spans": tracer.spans}))
        else:
            records = untraced = measure(wl, seconds)
            values = {}
        e2e, tail = end_to_end(untraced, setup_s)
        values.update(e2e)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r.ok for r in records)
    op = OP_NAMES[name]
    report = {
        "workload": name,
        "seed": seed,
        "params": f"q={PRODUCTION.q.bit_length()}b,p={PRODUCTION.p_bits}b",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "src_sha256": tree_sha256(root / "src"),
        "outputs_sha256": outputs_sha256(records),
        "digest_ops": min(DIGEST_OPS, len(records)),
        "setup_s": setup_s,
        f"{op}_ms_p50": e2e["op_ms_p50"],
        f"{op}_ms_tail": e2e["op_ms_tail"],
        "tail": tail,
        "failed_frac": failed / len(records),
    }
    if name == "cli-log":
        for part in ("sign", "verify"):
            part_ms = [r.extra[f"{part}_ms"] if r.ok else FAILED_MS for r in untraced]
            report[f"cli_{part}_ms_p50"] = stats.median(part_ms)
            report[f"cli_{part}_ms_tail"] = stats.tail(part_ms)[1]
    if name == "verify-inbox":
        report["seen_signer_frac"] = _mean(records, "seen_signer")
    if trace:
        report["counts_per_op"] = {
            "fields": [*METER_KINDS, "ladders"],
            "distinct": vectors,
        }
        report["spans_file"] = str(spans_file.relative_to(root))
    if problems:
        report["problems"] = problems
        print("perfbench: " + "; ".join(problems), file=sys.stderr)
    correct = failed == 0 and not problems
    section = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1
