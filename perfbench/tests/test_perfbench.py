"""The benchmark's own logic, at toy parameters (q = 13).

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import pytest

import harness
import run
import spans
import stats
from conftest import ROOT
from dvbsig import curve, scheme
from workloads import CliLog, Scale, SignWire, VerifyInbox

TOY = Scale(13, None)


@pytest.mark.parametrize(
    "n, pct, value, beyond",
    [
        (20, 50.0, 10, 10),
        (99, 50.0, 50, 49),
        (100, 90.0, 90, 10),
        (1000, 99.0, 990, 10),
        (10000, 99.9, 9990, 10),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct, value, beyond):
    assert stats.tail(list(range(n, 0, -1))) == (pct, value, beyond)


def test_tail_falls_back_to_median_and_shows_short_count():
    assert stats.tail(list(range(1, 20))) == (50.0, 10, 9)


def test_self_time_subtracts_children_and_coverage_counts_direct_children():
    op, a, a1, b = range(4)
    recorded = [
        ["bench.op", 0, 100, -1, 0],
        ["curve.a", 10, 40, op, 0],
        ["curve.a1", 20, 30, a, 0],
        ["curve.b", 50, 90, op, 0],
    ]
    summary = spans.summarize(recorded, "bench.op")
    self_ns = [summary[f"{s[spans.NAME]}.self_ns"] for s in recorded]
    assert self_ns == [30, 20, 10, 40]
    assert summary["coverage"] == pytest.approx(0.7)
    assert summary["curve.a.calls"] == 1


def test_adopted_child_spans_nest_under_the_process_span():
    tracer = spans.Tracer()
    tracer.op = 3
    proc = tracer.enter("proc.sign")
    tracer.exit(proc)
    tracer.adopt([["cli.main", 5, 9, -1, 0], ["curve.mul_raw", 6, 7, 0, 0]], proc)
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, proc, proc + 1]
    assert {s[spans.OP] for s in tracer.spans} == {3}


def test_install_reaches_by_name_imports_and_uninstall_restores():
    original = curve.scalar_mul
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert scheme.scalar_mul is curve.scalar_mul is not original
        wl = SignWire(1, TOY, None, 0)
        wl.tracer = tracer
        record = harness.one_op(wl, 0, tracer)
    finally:
        uninstall()
    assert scheme.scalar_mul is curve.scalar_mul is original
    assert record.ok
    names = {s[spans.NAME] for s in tracer.spans}
    assert set(SignWire.exercises) <= names
    summary = spans.summarize(tracer.spans, "bench.op")
    self_sum = sum(v for k, v in summary.items() if k.endswith(".self_ns"))
    assert self_sum == summary["bench.op.ns"]


def _run_traced(wl_cls, seed, n_ops):
    wl = wl_cls(seed, TOY, None, 0)
    tracer = wl.tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        records = [harness.one_op(wl, i, tracer) for i in range(n_ops)]
    finally:
        uninstall()
    return tracer, records


@pytest.mark.parametrize("wl_cls", [SignWire, VerifyInbox])
def test_counts_and_outputs_repeat_exactly_for_one_seed(wl_cls):
    first_tracer, first = _run_traced(wl_cls, 7, 8)
    second_tracer, second = _run_traced(wl_cls, 7, 8)
    assert all(r.ok for r in first + second)
    assert harness.count_vectors(first_tracer, first) == harness.count_vectors(
        second_tracer, second
    )
    assert harness.outputs_sha256(first) == harness.outputs_sha256(second)


def test_wrong_verdict_is_counted_as_failed(monkeypatch):
    wl = VerifyInbox(2, TOY, None, 0)
    clean = [harness.one_op(wl, i) for i in range(8)]
    assert harness.end_to_end(clean, [1.0])[0]["ok_frac"] == 1.0

    real = scheme.verify_with_identity
    monkeypatch.setattr(scheme, "verify_with_identity", lambda *args: not real(*args))
    flipped = harness.one_op(wl, 8)
    monkeypatch.undo()
    records = clean + [flipped] + [harness.one_op(wl, i) for i in range(9, 20)]
    values, _ = harness.end_to_end(records, [1.0])
    assert not flipped.ok
    assert values["ok_frac"] == pytest.approx(19 / 20)
    assert harness.latencies(records).count(harness.FAILED_MS) == 1


def test_exception_in_an_operation_is_counted_as_failed(monkeypatch):
    wl = SignWire(3, TOY, None, 0)

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(scheme, "unblind", broken)
    record = harness.one_op(wl, 0)
    assert not record.ok


def test_cli_log_traced_child_spans_and_counts(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    wl = CliLog(4, TOY, tmp_path, 0)
    tracer = wl.tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        records = [harness.one_op(wl, i, tracer) for i in range(2)]
    finally:
        uninstall()
    assert all(r.ok for r in records)
    names = {s[spans.NAME] for s in tracer.spans}
    assert set(CliLog.exercises) <= names
    assert records[0].extra["log_bytes"] == records[1].extra["log_bytes"]
    # Per op: sign 5 SM + 1 add + 1 pairing, verify 1 + 1 + 1, and H1 for both
    # identities in both processes; each degenerate retry adds 4 SM + 1 add.
    for record, vector in zip(records, harness.count_vectors(tracer, records)):
        retries = record.extra["attempts"] - 1
        assert vector[:4] == (6 + 4 * retries, 2 + retries, 2, 4)


def test_run_refuses_without_program_source(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["--workload", "sign-wire", "--seed", "1", "--seconds", "1"]
    assert run.main(argv) == 2
