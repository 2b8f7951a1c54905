import hashlib
import json
import os
import re
import shlex
import stat
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import pytest

from dvbsig import cli, scheme, storage
from dvbsig import curve as dvbsig_curve
from dvbsig.algebra import Fp2Element
from dvbsig.curve import GTElement, hash_to_point, point_fault, scalar_mul
from dvbsig.session import (
    MAX_RETRIES,
    FileTranscriptStore,
    LogicalClock,
    decode_message,
    encode_transcript,
)
from tests.conftest import TapeRng, find_tape_triples, read_log, scalar_chunk, session_tape
from tests.test_curve import CACHES, off_subgroup_point


@pytest.fixture()
def run(capsys):
    def invoke(*args):
        code = cli.main([str(a) for a in args])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture()
def workspace(tmp_path, run):
    """Workspace with generated toy params, a PKG and three identity keys."""
    ws = tmp_path / "ws"
    assert run("-w", ws, "params", "gen", "--q-bits", 4, "--seed", "test")[0] == 0
    assert run("-w", ws, "setup", "--seed", "pkg")[0] == 0
    for identity in ("alice", "bob", "carol"):
        assert run("-w", ws, "keygen", "--id", identity)[0] == 0
    system = storage.load_system_params(ws / "system.txt")
    # the toy group is tiny; the negative-control test below needs these two
    # identity hashes to differ, which holds for this seeded parameter set
    assert hash_to_point(b"bob", system.curve) != hash_to_point(b"carol", system.curve)
    return ws


@pytest.fixture()
def message_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes(b"I control at least 5 coins")
    return path


class TestLifecycle:
    def test_full_flow(self, run, workspace, message_file, tmp_path):
        sig = tmp_path / "sig.bin"
        code, out, _ = run(
            "-w", workspace, "sign", "run", "--signer", "alice", "--verifier", "bob",
            "--message-file", message_file, "--seed", "s1", "--out", sig,
        )
        assert code == 0 and sig.exists()
        code, out, _ = run(
            "-w", workspace, "verify", "--verifier", "bob", "--signer", "alice",
            "--message-file", message_file, "--sig", sig,
        )
        assert code == 0
        assert out.strip() == "VALID"

    def test_wrong_designated_verifier(self, run, workspace, message_file, tmp_path):
        sig = tmp_path / "sig.bin"
        run(
            "-w", workspace, "sign", "run", "--signer", "alice", "--verifier", "bob",
            "--message-file", message_file, "--seed", "s1", "--out", sig,
        )
        code, out, _ = run(
            "-w", workspace, "verify", "--verifier", "carol", "--signer", "alice",
            "--message-file", message_file, "--sig", sig,
        )
        assert code == 1
        assert out.strip() == "INVALID"

    def test_degenerate_forgery_invalid_for_every_verifier(self, run, workspace, tmp_path):
        # U' = t*Q_alice with H2(m, U') = -t (mod q) and sigma = 1, built from
        # public values alone, made U' + h*Q_alice the identity: VALID for all
        curve = storage.load_system_params(workspace / "system.txt").curve
        alice, q = hash_to_point(b"alice", curve), curve.q
        message, t = next(
            (message, t)
            for message in (b"I control at least %d coins" % n for n in range(50))
            for t in range(1, q)
            if scheme.h2(message, scalar_mul(t, alice), q) == q - t
        )
        message_file, sig = tmp_path / "forged.txt", tmp_path / "forged.bin"
        message_file.write_bytes(message)
        one = GTElement(Fp2Element.one(curve.p))
        storage.save_signature(scheme.Signature(scalar_mul(t, alice), one), sig)
        for verifier in ("bob", "carol"):
            code, out, _ = run(
                "-w", workspace, "verify", "--verifier", verifier, "--signer", "alice",
                "--message-file", message_file, "--sig", sig,
            )
            assert (code, out) == (1, "INVALID\n"), verifier

    def test_simulated_signature_verifies(self, run, workspace, message_file, tmp_path):
        sig = tmp_path / "sim.bin"
        code, *_ = run(
            "-w", workspace, "simulate", "--signer", "alice", "--verifier", "bob",
            "--message-file", message_file, "--seed", "sim", "--out", sig,
        )
        assert code == 0
        code, out, _ = run(
            "-w", workspace, "verify", "--verifier", "bob", "--signer", "alice",
            "--message-file", message_file, "--sig", sig,
        )
        assert code == 0 and out.strip() == "VALID"

    def test_asset_statement_sugar(self, run, workspace, tmp_path):
        sig = tmp_path / "sig.bin"
        code, *_ = run(
            "-w", workspace, "sign", "run", "--signer", "alice", "--verifier", "bob",
            "--asset-statement", "bc1-wallet-tag:5btc", "--seed", "s2", "--out", sig,
        )
        assert code == 0
        # the sugar is a plain message with a canonical format
        canonical = tmp_path / "canonical.txt"
        canonical.write_bytes(b"POA|v1|bc1-wallet-tag|5btc")
        code, out, _ = run(
            "-w", workspace, "verify", "--verifier", "bob", "--signer", "alice",
            "--message-file", canonical, "--sig", sig,
        )
        assert code == 0 and out.strip() == "VALID"

    def test_text_envelope_roundtrip(self, run, workspace, message_file, tmp_path):
        sig = tmp_path / "sig.txt"
        run(
            "-w", workspace, "sign", "run", "--signer", "alice", "--verifier", "bob",
            "--message-file", message_file, "--seed", "s3", "--out", sig,
            "--format", "text",
        )
        assert sig.read_text().startswith("u_prime = ")
        code, out, _ = run(
            "-w", workspace, "verify", "--verifier", "bob", "--signer", "alice",
            "--message-file", message_file, "--sig", sig,
        )
        assert code == 0 and out.strip() == "VALID"


class TestStepwiseSigning:
    def test_four_step_flow(self, run, workspace, message_file, tmp_path):
        sig = tmp_path / "step-sig.bin"
        assert run(
            "-w", workspace, "sign", "commit", "--signer", "alice",
            "--session", "s1", "--seed", "c",
        )[0] == 0
        assert run(
            "-w", workspace, "sign", "blind", "--session", "s1", "--signer", "alice",
            "--message-file", message_file, "--seed", "b",
        )[0] == 0
        assert run("-w", workspace, "sign", "respond", "--session", "s1", "--seed", "r")[0] == 0
        assert run(
            "-w", workspace, "sign", "unblind", "--session", "s1",
            "--verifier", "bob", "--out", sig,
        )[0] == 0
        code, out, _ = run(
            "-w", workspace, "verify", "--verifier", "bob", "--signer", "alice",
            "--message-file", message_file, "--sig", sig,
        )
        assert code == 0 and out.strip() == "VALID"
        # the signer's view landed in the transcript log
        system = storage.load_system_params(workspace / "system.txt")
        assert len(read_log(workspace / "transcripts.log", system.curve)) == 1

    def test_commit_frame_of_another_kind_refused(self, run, workspace, message_file):
        # a response carries a point too, so without the kind check sign blind
        # read a response frame copied over commit.frame as a commitment
        msg = ("--message-file", message_file)
        for step in (
            ("commit", "--signer", "alice", "--session", "s1", "--seed", "c"),
            ("blind", "--session", "s1", "--signer", "alice", *msg, "--seed", "b"),
            ("respond", "--session", "s1", "--seed", "r"),
            ("commit", "--signer", "alice", "--session", "s2", "--seed", "c2"),
        ):
            assert run("-w", workspace, "sign", *step)[0] == 0, step
        sessions = workspace / "sessions"
        response = (sessions / "s1" / "response.frame").read_bytes()
        (sessions / "s2" / "commit.frame").write_bytes(response)
        code, out, err = run(
            "-w", workspace, "sign", "blind", "--session", "s2", "--signer", "alice", *msg
        )
        assert code == 2 and out == ""
        assert f"{sessions / 's2' / 'commit.frame'} does not hold a commitment" in err
        assert not (sessions / "s2" / "challenge.frame").exists()

    def test_respond_requires_commit(self, run, workspace):
        code, _, err = run("-w", workspace, "sign", "respond", "--session", "fresh")
        assert code == 2
        assert "commit" in err

    def test_unblind_requires_respond(self, run, workspace, message_file):
        run("-w", workspace, "sign", "commit", "--signer", "alice", "--session", "s2", "--seed", "c")
        code, _, err = run(
            "-w", workspace, "sign", "unblind", "--session", "s2", "--verifier", "bob"
        )
        assert code == 2
        assert "respond" in err

    def test_step_reruns_rejected(self, run, workspace):
        run("-w", workspace, "sign", "commit", "--signer", "alice", "--session", "s3", "--seed", "c")
        code, _, err = run(
            "-w", workspace, "sign", "commit", "--signer", "alice", "--session", "s3", "--seed", "c"
        )
        assert code == 2
        assert "already exists" in err

    def test_replayed_commit_seed_answers_once(self, run, workspace, message_file):
        # the same --seed gives two sessions the same session id and r; two
        # responses under one r would reveal the signer's key, so the second
        # respond must fail before any response frame is written
        for name, blind_seed in (("s1", "b1"), ("s2", "b2")):
            assert run(
                "-w", workspace, "sign", "commit", "--signer", "alice",
                "--session", name, "--seed", "c",
            )[0] == 0
            assert run(
                "-w", workspace, "sign", "blind", "--session", name, "--signer", "alice",
                "--message-file", message_file, "--seed", blind_seed,
            )[0] == 0
        assert run("-w", workspace, "sign", "respond", "--session", "s1", "--seed", "r")[0] == 0
        code, _, err = run("-w", workspace, "sign", "respond", "--session", "s2", "--seed", "r")
        assert code == 3
        assert "already recorded" in err
        assert not (workspace / "sessions" / "s2" / "response.frame").exists()
        assert (workspace / "sessions" / "s1" / "response.frame").exists()

    def _commit_and_blind(self, run, workspace, message_file, name="s1"):
        assert run(
            "-w", workspace, "sign", "commit", "--signer", "alice",
            "--session", name, "--seed", "c",
        )[0] == 0
        assert run(
            "-w", workspace, "sign", "blind", "--session", name, "--signer", "alice",
            "--message-file", message_file, "--seed", "b",
        )[0] == 0
        return workspace / "sessions" / name

    def test_respond_records_its_own_commitment(self, run, workspace, message_file):
        # the user side can rewrite commit.frame; the transcript must keep
        # the U = r*Q_s that this session's r committed to
        sdir = self._commit_and_blind(run, workspace, message_file, "x")
        assert run(
            "-w", workspace, "sign", "commit", "--signer", "alice",
            "--session", "y", "--seed", "c2",
        )[0] == 0
        system = storage.load_system_params(workspace / "system.txt")
        own = decode_message((sdir / "commit.frame").read_bytes(), system.curve).point
        other = workspace / "sessions" / "y" / "commit.frame"
        assert decode_message(other.read_bytes(), system.curve).point != own
        (sdir / "commit.frame").write_bytes(other.read_bytes())
        assert run("-w", workspace, "sign", "respond", "--session", "x", "--seed", "r")[0] == 0
        (record,) = read_log(workspace / "transcripts.log", system.curve)
        assert record.commitment == own

    def test_degenerate_session(self, run, workspace, message_file, monkeypatch):
        system = storage.load_system_params(workspace / "system.txt")
        signer = storage.load_identity_key(workspace / "keys" / "alice.key", system)
        (r, x, y), _ = find_tape_triples(system, signer, message_file.read_bytes())
        q = system.curve.q
        tapes = iter([
            TapeRng([bytes(16), scalar_chunk(r, q)]),  # sign commit: session id, r
            TapeRng([scalar_chunk(x, q), scalar_chunk(y, q)]),  # sign blind
        ])
        monkeypatch.setattr(cli, "_rng_and_clock", lambda seed: (next(tapes), LogicalClock()))
        sdir = self._commit_and_blind(run, workspace, message_file)
        code, out, _ = run("-w", workspace, "sign", "respond", "--session", "s1", "--seed", "r")
        assert code == 0 and "degenerate" in out
        assert (sdir / "response.frame").exists()
        assert not (sdir / "signer.state").exists()
        (record,) = read_log(workspace / "transcripts.log", system.curve)
        assert record.response.is_identity
        code, out, err = run(
            "-w", workspace, "sign", "unblind", "--session", "s1", "--verifier", "bob"
        )
        assert code == 3 and out == ""
        assert err.startswith("error: degenerate response")
        assert not (sdir / "sig.bin").exists()

    def test_secret_files_are_owner_only(self, run, workspace, message_file):
        # r in signer.state, with the public h1 and V, gives S_s = (r + h1)^-1 * V
        old = os.umask(0o022)
        try:
            sdir = self._commit_and_blind(run, workspace, message_file)
        finally:
            os.umask(old)
        for path in (
            sdir / "signer.state",
            sdir / "user.state",
            workspace / "master.key",
            workspace / "keys" / "alice.key",
        ):
            assert stat.S_IMODE(path.stat().st_mode) == 0o600, path

    def test_racing_responds_answer_one_challenge(self, run, workspace, message_file, monkeypatch):
        # a second respond starts while the first is recording, after the
        # user side has swapped challenge.frame: two answers under one r
        # would give away the signer's key
        sdir = self._commit_and_blind(run, workspace, message_file)
        challenge = sdir / "challenge.frame"
        first = challenge.read_bytes()
        challenge.unlink()
        assert run(
            "-w", workspace, "sign", "blind", "--session", "s1", "--signer", "alice",
            "--message-file", message_file, "--seed", "b2",
        )[0] == 0
        second = challenge.read_bytes()
        assert second != first
        challenge.write_bytes(first)
        record, racer = FileTranscriptStore.record, []

        def racing_record(store, transcript):
            if not racer:
                challenge.write_bytes(second)
                racer.append(run("-w", workspace, "sign", "respond", "--session", "s1"))
            record(store, transcript)

        monkeypatch.setattr(FileTranscriptStore, "record", racing_record)
        code, out, _ = run("-w", workspace, "sign", "respond", "--session", "s1", "--seed", "r")
        assert code == 0 and out == f"wrote {sdir / 'response.frame'}\n"
        ((racer_code, racer_out, racer_err),) = racer
        assert racer_code == 2 and racer_out == ""
        assert f"signer state not found: {sdir / 'signer.state'}" in racer_err
        system = storage.load_system_params(workspace / "system.txt")
        # decoded record by record: a store would refuse a log holding an id twice
        records = read_log(workspace / "transcripts.log", system.curve)
        assert len(records) == 1
        assert records[0].challenge == decode_message(first, system.curve).value
        assert sorted(p.name for p in sdir.iterdir()) == [
            "challenge.frame", "commit.frame", "response.frame", "user.state",
        ]

    def test_racing_processes_keep_the_log_readable(self, run, tmp_path):
        # a smoke test, since the processes may miss each other's window:
        # two responds to one session and two sign runs, all at once
        ws = tmp_path / "ws"
        assert run("-w", ws, "params", "gen", "--q-bits", 32, "--seed", "mid")[0] == 0
        assert run("-w", ws, "setup", "--seed", "pkg")[0] == 0
        for identity in ("alice", "bob"):
            assert run("-w", ws, "keygen", "--id", identity)[0] == 0
        assert run("-w", ws, "sign", "commit", "--signer", "alice", "--session", "s1")[0] == 0
        assert run(
            "-w", ws, "sign", "blind", "--session", "s1", "--signer", "alice",
            "--asset-statement", "addr:5",
        )[0] == 0
        command = [sys.executable, "-m", "dvbsig.cli", "-w", str(ws), "sign"]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        procs = [
            subprocess.Popen(command + argv, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
            for argv in 2 * [["respond", "--session", "s1"]]
            + 2 * [["run", "--signer", "alice", "--verifier", "bob", "--asset-statement", "addr:5"]]
        ]
        codes = [proc.wait(timeout=60) for proc in procs]
        assert sorted(codes[:2]) == [0, 2] and codes[2:] == [0, 0]
        curve = storage.load_system_params(ws / "system.txt").curve
        records = read_log(ws / "transcripts.log", curve)
        assert len({t.session_id for t in records}) == len(records) == 3

    def test_failed_respond_returns_the_claim(self, run, workspace, message_file):
        # nothing was recorded, so the session can answer once the challenge is back
        sdir = self._commit_and_blind(run, workspace, message_file)
        frame = (sdir / "challenge.frame").read_bytes()
        (sdir / "challenge.frame").unlink()
        code, _, err = run("-w", workspace, "sign", "respond", "--session", "s1")
        assert code == 2 and "challenge artifact" in err
        assert sorted(p.name for p in sdir.iterdir()) == ["commit.frame", "signer.state", "user.state"]
        (sdir / "challenge.frame").write_bytes(frame)
        assert run("-w", workspace, "sign", "respond", "--session", "s1")[0] == 0

    def test_challenge_fifo_refused(self, run, workspace, message_file):
        # a FIFO could hand each of two responds a challenge of its own
        sdir = self._commit_and_blind(run, workspace, message_file)
        challenge = sdir / "challenge.frame"
        challenge.unlink()
        os.mkfifo(challenge)
        code, out, err = run("-w", workspace, "sign", "respond", "--session", "s1")
        assert code == 2 and out == ""
        assert err == f"error: {challenge} is not a regular file\n"
        assert (sdir / "signer.state").exists()
        assert not (workspace / "transcripts.log").exists()

    def test_racing_commits_write_one_state(self, run, workspace, monkeypatch):
        # two commits that both passed the early check: only the one that
        # creates commit.frame writes signer.state, so the two match
        assert run(
            "-w", workspace, "sign", "commit", "--signer", "alice", "--session", "s1",
            "--seed", "c",
        )[0] == 0
        sdir = workspace / "sessions" / "s1"
        files = {p.name: p.read_bytes() for p in sdir.iterdir()}
        monkeypatch.setattr(cli, "_fresh", lambda path, what: path)
        code, _, err = run(
            "-w", workspace, "sign", "commit", "--signer", "alice", "--session", "s1",
            "--seed", "c2",
        )
        assert code == 2
        assert err == f"error: commit artifact already exists: {sdir / 'commit.frame'}\n"
        assert {p.name: p.read_bytes() for p in sdir.iterdir()} == files

    def test_empty_seed_respond_logs_logical_time(self, run, workspace, message_file):
        # --seed "" is a seed: the session's log record depends on its seeds only
        self._commit_and_blind(run, workspace, message_file)
        assert run("-w", workspace, "sign", "respond", "--session", "s1", "--seed", "")[0] == 0
        curve = storage.load_system_params(workspace / "system.txt").curve
        (record,) = read_log(workspace / "transcripts.log", curve)
        assert (record.started_ms, record.finished_ms) == (0, 1)

    def test_respond_consumes_signer_state(self, run, workspace, message_file):
        sdir = self._commit_and_blind(run, workspace, message_file)
        assert run("-w", workspace, "sign", "respond", "--session", "s1", "--seed", "r")[0] == 0
        assert (sdir / "response.frame").exists()
        assert not (sdir / "signer.state").exists()

    def test_signer_state_without_r_rejected(self, run, workspace, message_file):
        sdir = self._commit_and_blind(run, workspace, message_file)
        state = sdir / "signer.state"
        lines = state.read_text().splitlines(True)
        state.write_text("".join(line for line in lines if not line.startswith("r ")))
        code, _, err = run("-w", workspace, "sign", "respond", "--session", "s1")
        assert code == 3
        assert "signer.state: missing field 'r'" in err
        assert not (sdir / "response.frame").exists()

    @pytest.mark.parametrize("size", [15, 70_000])
    def test_signer_state_session_id_size_checked(self, run, workspace, message_file, size):
        sdir = self._commit_and_blind(run, workspace, message_file)
        state = sdir / "signer.state"
        text = re.sub(r"(?m)^session_id = .*$", f"session_id = {'ab' * size}", state.read_text())
        state.write_text(text)
        code, _, err = run("-w", workspace, "sign", "respond", "--session", "s1")
        assert code == 3
        assert "signer.state: field 'session_id' is not 16 bytes" in err
        assert not (sdir / "response.frame").exists()
        assert not (workspace / "transcripts.log").exists()

    def test_user_state_bad_integer_rejected(self, run, workspace, message_file):
        sdir = self._commit_and_blind(run, workspace, message_file)
        assert run("-w", workspace, "sign", "respond", "--session", "s1", "--seed", "r")[0] == 0
        state = sdir / "user.state"
        state.write_text(re.sub(r"(?m)^x = .*$", "x = zz", state.read_text()))
        code, _, err = run(
            "-w", workspace, "sign", "unblind", "--session", "s1", "--verifier", "bob"
        )
        assert code == 3
        assert "user.state: field 'x' is not a decimal integer" in err


SURFACE_DIGESTS = {
    "<stdout>": "1c0b0efeacb6ede10bf0d5f906b4e9d4150845914d262c1aecd8fe41e5dcf50c",
    "keys/alice.key": "cd07509ea3978b513fb009de516fd030adae2cd6815e730102d2ac27bcb1ce9c",
    "keys/bob.key": "b9f05079b8f64baa24c7d1dfde9447c8e2613e0e3b44b132e65b625fd18146da",
    "master.key": "b679c58f29d532f852072e455756634b20e2125a3fcbb7d17ea35b92a3395224",
    "params.txt": "0fa4d5ab451b6d0f849cbcb52c3ce7d2a9fa2d914680d24c95b9e35fae350c46",
    "run.bin": "2424e8dc0cf89f292a1135a60beec194e2ff120ff3f3499699952c311c3358e9",
    "run.txt": "0639a903695503f53a0d7f44107a3a04e2df4b0959d205a02f0d451d1ef9356b",
    "sessions/s1/challenge.frame": "faf61777ecf9e3e84ed5ca4c53497128cd2285c04fcf7a2b59ea3a3c55bf8a94",
    "sessions/s1/commit.frame": "b54d9db1f489c71e218f61470bb3b6175f2810c202b3c16b75095c88bb4760e7",
    "sessions/s1/response.frame": "e2e3a1f8ef12a88be4350b5134112cc5771b2dfcd8ccd480d5a0561f746b09f4",
    "sessions/s1/sig.bin": "05c5ba7fadaec9762a8f5ee8dc7c51abf3d88731125f555d3632f54e302f4121",
    "sessions/s1/user.state": "253c1e86fb51d77098064074496c1706d5914007ccdf42d1e15c0baecf14d971",
    "sim.bin": "c93568ee0ea06186aef3cf67a8a6b04e3e06a998cb03366cfa835d4ca940996d",
    "system.txt": "06c7fca79d0f13d97eded9e1d2e65070efe62f58be87a00fa06f2ce327f47d02",
    "transcripts.log": "64cf25109c14cdb3ec3d6360c431b2fab2434aea0e95d51e54400b55b95169b4",
}


class TestDeterminism:
    def test_golden_pipeline_artifacts(self, run, tmp_path):
        """Seeded toy pipeline pinned byte-for-byte."""
        ws = tmp_path / "ws"
        message = tmp_path / "m.txt"
        message.write_bytes(b"golden fixture message")
        run("-w", ws, "params", "gen", "--q-bits", 4, "--seed", "test")
        run("-w", ws, "setup", "--seed", "pkg")
        run("-w", ws, "keygen", "--id", "alice")
        run("-w", ws, "keygen", "--id", "bob")
        sig = tmp_path / "sig.bin"
        code, *_ = run(
            "-w", ws, "sign", "run", "--signer", "alice", "--verifier", "bob",
            "--message-file", message, "--seed", "golden", "--out", sig,
        )
        assert code == 0
        assert (ws / "params.txt").read_text() == (
            "p = 131\nq = 11\ncofactor = 12\nPx = 60\nPy = 98\n"
            "security_label = q=4b,p=8b\n"
        )
        assert (ws / "master.key").read_text() == "s = 2\n"
        assert sig.read_bytes().hex() == "043c62313a"
        assert (ws / "transcripts.log").read_bytes().hex() == (
            "1000000030001046036653ff28504852a661f12c369d050005616c69636504790d"
            "07043c2100000000000000000000000000000001"
        )

    def test_seeded_cli_surface_digests(self, run, tmp_path, monkeypatch):
        """Every workspace file and all stdout of a seeded run of the CLI
        surface, pinned by SHA-256 at mid scale (q of 32 bits)."""
        monkeypatch.chdir(tmp_path)
        Path("m.txt").write_bytes(b"golden surface message")
        msg = ("--message-file", "m.txt")
        steps = [
            ("params", "gen", "--q-bits", 32, "--seed", "surface"),
            ("setup", "--seed", "pkg"),
            ("keygen", "--id", "alice"),
            ("keygen", "--id", "bob"),
            ("sign", "run", "--signer", "alice", "--verifier", "bob", *msg,
             "--seed", "run-bin", "--out", "ws/run.bin"),
            ("sign", "run", "--signer", "alice", "--verifier", "bob", *msg,
             "--seed", "run-txt", "--out", "ws/run.txt", "--format", "text"),
            ("sign", "commit", "--signer", "alice", "--session", "s1", "--seed", "c"),
            ("sign", "blind", "--session", "s1", "--signer", "alice", *msg, "--seed", "b"),
            ("sign", "respond", "--session", "s1", "--seed", "r"),
            ("sign", "unblind", "--session", "s1", "--verifier", "bob"),
            ("simulate", "--signer", "alice", "--verifier", "bob", *msg,
             "--seed", "sim", "--out", "ws/sim.bin"),
        ] + [
            ("verify", "--signer", "alice", "--verifier", "bob", *msg, "--sig", sig)
            for sig in ("ws/run.bin", "ws/run.txt", "ws/sessions/s1/sig.bin", "ws/sim.bin")
        ]
        stdout = []
        for step in steps:
            code, out, _ = run("-w", "ws", *step)
            assert code == 0, step
            stdout.append(out)
        digests = {
            path.relative_to("ws").as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path("ws").rglob("*"))
            if path.is_file()
        }
        digests["<stdout>"] = hashlib.sha256("".join(stdout).encode()).hexdigest()
        assert digests == SURFACE_DIGESTS

    def test_params_gen_reproducible(self, run, tmp_path):
        outs = []
        for name in ("a", "b"):
            ws = tmp_path / name
            code, out, _ = run("-w", ws, "params", "gen", "--q-bits", 4, "--seed", "same")
            assert code == 0
            outs.append((ws / "params.txt").read_bytes())
        assert outs[0] == outs[1]

    def test_seeded_pipeline_reproducible(self, run, tmp_path, message_file):
        blobs = []
        for name in ("a", "b"):
            ws = tmp_path / name / "ws"
            run("-w", ws, "params", "gen", "--q-bits", 4, "--seed", "test")
            run("-w", ws, "setup", "--seed", "pkg")
            run("-w", ws, "keygen", "--id", "alice")
            run("-w", ws, "keygen", "--id", "bob")
            sig = tmp_path / name / "sig.bin"
            code, out, _ = run(
                "-w", ws, "sign", "run", "--signer", "alice", "--verifier", "bob",
                "--message-file", message_file, "--seed", "golden", "--out", sig,
            )
            assert code == 0
            blobs.append(
                (
                    sig.read_bytes(),
                    (ws / "system.txt").read_bytes(),
                    (ws / "master.key").read_bytes(),
                    (ws / "transcripts.log").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]


# a costs file that sets every cost axis, and the README's `analyze bounds` budget
ALL_COSTS = (
    "g1_scalar_mul = 3/2\ng2_scalar_mul = 5/4\ng1_group_op = 1/10\ng2_group_op = 1/5\n"
    "pairing = 7\nmap_to_point = 1/3\n"
)
README_BUDGET = "--qh1 100 --qe 10 --qs 10 --qv 10 --eps 1/2 --q 13".split()


class TestAnalysisCommands:
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["perf"], "943ec154a25375e75f13e859dee161541c102b799f777ca0bc885f3267b1ec09"),
            (
                ["perf", "--costs"],
                "008c27cf5a0b5cd3b5ee1adcc51c9a5219e9693045cf864a841e70e519abbe7b",
            ),
            (["bounds"], "811b4aaa680e684ada61c97681b8592cf242af195e45a9934886c3bf64879dda"),
            (
                ["bounds", *README_BUDGET],
                "327fcc2b925e2f179c0078198ec945c2b73ed1890731845d40ba2d41dd46b7aa",
            ),
            (
                ["bounds", *README_BUDGET, "--costs"],
                "cd8ecee234dead596589a15f1b87f3763bedcd05e86058ec425f78c63bf8e2c3",
            ),
        ],
        ids=["perf", "perf-costs", "bounds", "bounds-readme", "bounds-readme-costs"],
    )
    def test_output_pinned(self, run, tmp_path, argv, digest):
        # SHA-256 of the whole stdout; a trailing --costs reads ALL_COSTS
        costs = tmp_path / "costs.txt"
        costs.write_text(ALL_COSTS)
        if argv[-1] == "--costs":
            argv = [*argv, costs]
        code, out, err = run("-w", tmp_path, "analyze", *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bounds_output(self, run, tmp_path):
        code, out, _ = run(
            "-w", tmp_path, "analyze", "bounds", "--qh1", 2, "--qe", 0, "--qs", 0,
            "--qv", 0, "--eps", "1/2", "--q", 13,
        )
        assert code == 0
        assert "advantage = 84/169 (0.4970)" in out
        assert "problem = computational-bilinear-dh" in out
        assert "problem = decisional-bilinear-dh" in out

    def test_bounds_budget_file(self, run, tmp_path):
        budget = tmp_path / "budget.txt"
        budget.write_text("qh1 = 10\nqe = 1\nqs = 1\nqv = 1\neps = 1/2\nq = 13\n")
        code, out, _ = run("-w", tmp_path, "analyze", "bounds", "--budget-file", budget)
        assert code == 0
        assert "advantage = 19712/2851875" in out

    def test_bounds_budget_file_bad_count(self, run, tmp_path):
        budget = tmp_path / "budget.txt"
        budget.write_text("qh1 = abc\neps = 1/2\n")
        code, out, err = run("-w", tmp_path, "analyze", "bounds", "--budget-file", budget)
        assert code == 3 and out == ""
        assert "budget.txt: field 'qh1' is not a decimal integer" in err

    def test_bounds_budget_file_overrides_flags(self, run, tmp_path):
        # fields the file leaves out keep the flag values
        budget = tmp_path / "budget.txt"
        budget.write_text("qe = 1\neps = 1/2\nq = 13\n")
        flags = ("-w", tmp_path, "analyze", "bounds", "--qh1", 10)
        code, out, _ = run(*flags, "--budget-file", budget)
        assert code == 0
        assert "advantage = 112/12675" in out
        assert run(*flags, "--qe", 1, "--eps", "1/2", "--q", 13)[1] == out

    @pytest.mark.parametrize(
        "flag, value, kind",
        [
            ("--qe", "-1", "a decimal integer >= 0"),
            ("--qs", "-3", "a decimal integer >= 0"),
            ("--eps", "3/2", "a rational number in [0, 1]"),
            ("--eps", "-0.5", "a rational number in [0, 1]"),
            ("--t", "-1", "a rational number >= 0"),
            ("--q", "1", "a decimal integer >= 2"),
            ("--q", "-13", "a decimal integer >= 2"),
            ("--qh1", "1", "a decimal integer >= 2"),
            ("--qh1", "0", "a decimal integer >= 2"),
            ("--t", "1e5000", "a rational number >= 0"),
            ("--eps", "1e-5000", "a rational number in [0, 1]"),
            ("--eps", "5E-1", "a rational number in [0, 1]"),
        ],
    )
    def test_bounds_refuse_out_of_range_inputs(self, run, tmp_path, flag, value, kind):
        # a negative count made the advantage exceed 1 or divide by zero; a
        # qH1 below 2 was the bound's own error, which named neither the
        # flag nor the file; and exponent notation expanded into an exact
        # value too long to print, a traceback
        flags = ("-w", tmp_path, "analyze", "bounds", "--qh1", 3)
        code, out, err = run(*flags, flag, value)
        assert code == 2 and out == ""
        assert f"{flag} is not {kind}: {value!r}" in err
        budget = tmp_path / "budget.txt"
        budget.write_text(f"{flag[2:]} = {value}\n")
        code, out, err = run(*flags, "--budget-file", budget)
        assert code == 3 and out == ""
        assert f"budget.txt: field {flag[2:]!r} is not {kind}" in err

    def test_bounds_past_the_digit_limit_print_the_decimal_alone(self, run, tmp_path):
        # at qS = 2000 the advantage's denominator 4950^2000 has over 7,000
        # digits, more than str() may print: a traceback, exit 1.  At
        # qS = 1000 (about 3,700 digits) the exact value still prints
        flags = ("-w", tmp_path, "analyze", "bounds", "--qh1", 100, "--eps", "1/2", "--q", 13)
        code, out, err = run(*flags, "--qs", 2000)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[1] == lines[4] == "advantage = 0.0001"
        # 6100 G1 products, 2000 pairings and one G2 product: exact, it fits
        assert lines[2] == "runtime_ms = 7900331/100 (79003.3100)"
        code, out, err = run(*flags, "--qs", 1000)
        assert code == 0 and err == ""
        assert re.fullmatch(r"advantage = \d+/\d+ \(0\.0001\)", out.splitlines()[1])

    def test_fmt_prints_the_exact_value_up_to_three_bits_a_digit(self):
        # the check is by bit length, 3 bits a digit, so it never passes an
        # integer that str() refuses: up to 3 * limit bits the exact value
        # prints, one bit more and the decimal prints alone
        from fractions import Fraction as F

        from dvbsig import commands

        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            fits, past = (F(2 ** (bits + 1) - 1, 2**bits) for bits in (1919, 1920))
            assert commands._fmt(fits) == f"{fits} (2.0000)"
            assert commands._fmt(past) == "2.0000"
        finally:
            sys.set_int_max_str_digits(limit)
        assert commands._fmt(F(-3, 4)) == "-3/4 (-0.7500)"

    def test_perf_table(self, run, tmp_path):
        code, out, _ = run("-w", tmp_path, "analyze", "perf")
        assert code == 0
        assert "modeled_ms = 2749/50 (54.9800)" in out
        assert "modeled_ms = 1473/50 (29.4600)" in out
        assert "modeled_ms = 4479/50 (89.5800)" in out
        assert "DISCREPANCY" in out
        assert "12.7600" in out

    def test_perf_costs_file(self, run, tmp_path):
        costs = tmp_path / "costs.txt"
        costs.write_text("g1_scalar_mul = 1\nmap_to_point = 1\npairing = 1\n")
        code, out, _ = run("-w", tmp_path, "analyze", "perf", "--costs", costs)
        assert code == 0
        assert "modeled_ms = 7 (7.0000)" in out  # ours sign: 5 + 1 + 1

    @pytest.mark.parametrize("value", ["abc", "-20", "1/0", "1e5000", "2E3"])
    def test_perf_costs_file_bad_value(self, run, tmp_path, value):
        # a negative cost printed a negative modeled time, and 1e5000 a
        # traceback: its exact value was too long to print
        costs = tmp_path / "costs.txt"
        costs.write_text(f"pairing = {value}\n")
        code, out, err = run("-w", tmp_path, "analyze", "perf", "--costs", costs)
        assert code == 3 and out == ""
        assert "costs.txt: field 'pairing' is not a rational number >= 0" in err

    def test_perf_costs_file_repeated_field(self, run, tmp_path):
        costs = tmp_path / "costs.txt"
        costs.write_text("pairing = 1\npairing = 2\n")
        code, out, err = run("-w", tmp_path, "analyze", "perf", "--costs", costs)
        assert code == 3 and out == ""
        assert "costs.txt:2: repeated field 'pairing'" in err

    def test_perf_costs_file_unknown_field(self, run, tmp_path):
        # a bad field of the file, like a malformed value, exits 3 naming the file
        costs = tmp_path / "costs.txt"
        costs.write_text("pairing = 1\ng2_exp = 1\n")
        code, out, err = run("-w", tmp_path, "analyze", "perf", "--costs", costs)
        assert code == 3 and out == ""
        assert err == f"error: {costs}: unknown field 'g2_exp'\n"

    def test_bounds_budget_file_unknown_field(self, run, tmp_path):
        # the file was read as if the unknown field were not there, with the
        # flag defaults for the rest
        budget = tmp_path / "budget.txt"
        budget.write_text("qh1 = 5\nbogus = x\n")
        code, out, err = run("-w", tmp_path, "analyze", "bounds", "--budget-file", budget)
        assert code == 3 and out == ""
        assert err == f"error: {budget}: unknown field 'bogus'\n"


class TestBlindnessDemo:
    def test_demo_runs_clean(self, run, workspace):
        code, out, _ = run(
            "-w", workspace, "blindness-demo", "--sessions", 3, "--seed", "demo"
        )
        assert code == 0
        assert out.count("pair (") == 9
        assert "inconsistent" not in out
        assert "cannot link" in out

    def test_demo_refuses_parameters_beyond_toy_scale(self, run, tmp_path):
        # refused before any session: the witness search would raise
        # RefusedTooLarge (exit 3) only after signing
        ws = tmp_path / "ws"
        assert run("-w", ws, "params", "gen", "--q-bits", 32, "--seed", "mid")[0] == 0
        assert run("-w", ws, "setup", "--seed", "pkg")[0] == 0
        code, out, err = run("-w", ws, "blindness-demo", "--sessions", 1, "--seed", "demo")
        assert code == 2 and out == ""
        assert "blindness-demo needs toy-scale parameters" in err

    def test_demo_runs_at_the_discrete_log_limit(self, run, workspace, monkeypatch):
        # it refuses what dlog_bruteforce refuses, orders above the limit; no
        # prime q equals the real limit 2^20, so the limit is set to q here
        from dvbsig import analysis

        q = storage.load_system_params(workspace / "system.txt").curve.q
        monkeypatch.setattr(analysis, "DLOG_ORDER_LIMIT", q)
        code, out, err = run("-w", workspace, "blindness-demo", "--sessions", 1, "--seed", "demo")
        assert code == 0 and err == ""
        assert "cannot link" in out

    def test_demo_reports_pairs_without_a_witness(self, run, workspace, monkeypatch):
        from dvbsig import analysis

        monkeypatch.setattr(analysis, "extract_blinding_witness", lambda *args: None)
        code, out, err = run(
            "-w", workspace, "blindness-demo", "--sessions", 2, "--seed", "demo"
        )
        assert code == 1
        assert out.count("inconsistent") == 4 and "cannot link" not in out
        assert err == "FAILED: 4 cross pairs had no blinding witness\n"


BENCH_LABELS = (
    "params_validate", "mod_inv", "sqrt_residue", "sqrt_nonresidue", "fp2_mul", "point_add",
    "doubling_chain", "normalise_chain", "g1_scalar_mul", "miller_loop", "normalise_lines",
    "pairing", "final_exponentiation",
    "map_to_point_repeat", "h2", "sign_session", "verify", "g1_scalar_mul_first_use",
    "pairing_first_use", "map_to_point", "decode_signature", "decode_transcript",
    "subgroup_check", "checked_product", "param_search",
)


class TestBench:
    def test_bench_runs(self, run, workspace):
        code, out, _ = run("-w", workspace, "bench", "--iterations", 2)
        assert code == 0
        for label in BENCH_LABELS:
            assert f"{label} = " in out

    def test_bench_json_rows(self, run, workspace):
        code, out, _ = run("-w", workspace, "bench", "--iterations", 2, "--json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert tuple(row["label"] for row in rows) == BENCH_LABELS
        label = storage.load_system_params(workspace / "system.txt").curve.security_label
        for row in rows:
            assert row["iterations"] == 2 and row["params"] == label and row["ms"] >= 0

    def test_bench_at_production_scale(self, run, tmp_path):
        # the workspace's parameters set the scale: every row runs on a
        # 160-bit q and a 512-bit p
        ws = tmp_path / "ws"
        q = str(2**159 + 2**17 + 1)
        assert run("-w", ws, "params", "gen", "--q-value", q, "--p-bits", 512)[0] == 0
        assert run("-w", ws, "setup", "--seed", "pkg")[0] == 0
        code, out, _ = run("-w", ws, "bench", "--iterations", 1, "--json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert tuple(row["label"] for row in rows) == BENCH_LABELS
        assert {row["params"] for row in rows} == {"q=160b,p=512b"}

    def test_bench_scalars_and_bases(self, run, tmp_path, monkeypatch):
        # full-width scalars; the first-use and checked-product rows take a
        # new base each time, and every check the last two rows time is cold
        ws = tmp_path / "ws"
        assert run("-w", ws, "params", "gen", "--q-bits", 32, "--seed", "bench")[0] == 0
        assert run("-w", ws, "setup", "--seed", "pkg")[0] == 0
        curve = storage.load_system_params(ws / "system.txt").curve
        calls, checks = [], []
        scalar_mul, in_subgroup = dvbsig_curve.scalar_mul, dvbsig_curve.in_subgroup
        chains = dvbsig_curve._doubling_chain

        def check(a, q):
            misses = chains.cache_info().misses
            verdict = in_subgroup(a, q)
            checks.append((a, chains.cache_info().misses > misses))
            return verdict

        monkeypatch.setattr(
            dvbsig_curve, "scalar_mul", lambda k, a: calls.append((k, a)) or scalar_mul(k, a)
        )
        monkeypatch.setattr(dvbsig_curve, "in_subgroup", check)
        assert run("-w", ws, "bench", "--iterations", 4)[0] == 0
        signer = hash_to_point(b"bench-signer", curve)
        fixed = [k for k, a in calls if a == signer]
        first_use = [a for _, a in calls if a not in (signer, curve.generator)]
        # 4 timed, after warm-up calls up to the one that normalises the chain
        assert len(fixed) == 4 + dvbsig_curve.NORMALISE_AT
        assert max(k.bit_length() for k in fixed) > 24
        assert len(first_use) == len(set(first_use)) == 8
        # subgroup_check's 4 points, then checked_product's 4 decoded bases
        assert [a for a, _ in checks[-4:]] == first_use[-4:]
        assert not any(a == b for a, _ in checks[-8:-4] for _, b in calls)
        assert all(missed for _, missed in checks[-8:])

    def test_each_row_times_one_table_state(self, mid_system, monkeypatch):
        # every table a timed row reads is past the read that rewrites it, so
        # only the two rows that time a rewrite make one
        import dvbsig
        from dvbsig import algebra, layers, rng, scheme, session  # noqa: F401

        rewrites, timing = [], [None]

        def counted(normalise):
            return lambda p, table: rewrites.append(timing[0]) or normalise(p, table)

        for name in ("_normalise_chain", "_normalise_lines"):
            monkeypatch.setattr(dvbsig_curve, name, counted(getattr(dvbsig_curve, name)))
        for cache in CACHES:
            cache.cache_clear()
        n = 10
        try:
            for label, fn in layers.rows(dvbsig, *mid_system, "bench", n).items():
                for i in range(n):
                    timing[0] = (label, i)
                    fn(i)
        finally:
            for cache in CACHES:
                cache.cache_clear()
        timed = [where for where in rewrites if where is not None]
        assert [where for where in timed if not where[0].startswith("normalise_")] == []
        rows = ("normalise_chain", "normalise_lines")
        assert sorted(timed) == [(label, i) for label in rows for i in range(n)]

    @pytest.mark.parametrize(
        "name, missing",
        [
            ("system.txt", "system parameters (run setup)"),
            ("master.key", "master secret (run setup)"),
        ],
    )
    def test_bench_needs_a_workspace(self, run, workspace, name, missing):
        (workspace / name).unlink()
        code, out, err = run("-w", workspace, "bench", "--iterations", 1)
        assert code == 2 and out == ""
        assert f"error: {missing} not found: {workspace / name}" in err

    def test_bench_in_an_empty_workspace(self, run, tmp_path):
        code, out, err = run("-w", tmp_path / "empty", "bench", "--iterations", 1)
        assert code == 2 and out == ""
        assert "system parameters (run setup) not found" in err


def _loaded_by(statement: str) -> list[str]:
    """The modules that `statement` adds in a fresh interpreter, over those
    that its startup (`site` and any `.pth` file it runs) already loaded."""
    src = Path(cli.__file__).resolve().parents[1]
    script = f"import sys; before = set(sys.modules); {statement}"
    return subprocess.run(
        [sys.executable, "-c", f"{script}; print(*sorted(set(sys.modules) - before))"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()


class TestImports:
    def test_cli_import_leaves_command_modules_out(self):
        # analysis, layers, fractions and json are imported by the commands
        # that use them; dataclasses (and the inspect it imports) by none,
        # since every process would pay for it and for each decorated class's
        # exec.  session is imported where a session runs or is logged, and
        # commands when one of its handlers runs; randomness comes from
        # os.urandom, not secrets
        loaded = _loaded_by("import dvbsig.cli")
        assert "dvbsig.cli" in loaded
        assert {
            "dvbsig.analysis", "dvbsig.layers", "fractions", "json", "dataclasses", "inspect",
            "dvbsig.session", "dvbsig.commands", "secrets",
        }.isdisjoint(loaded)

    def test_package_import_loads_no_submodule(self):
        loaded = _loaded_by("import dvbsig")
        assert "dvbsig" in loaded
        assert [name for name in loaded if name.startswith("dvbsig.")] == []


class TestErrorPaths:
    def test_unknown_command(self, run):
        code, *_ = run("frobnicate")
        assert code == 2

    @pytest.mark.parametrize("label", ["x\ny = 1", "x\r", " x", "x\u2028y", "\udcff"])
    def test_label_that_would_not_read_back_refused(self, run, tmp_path, label):
        # "x\ny = 1" wrote a field y = 1 of its own into params.txt
        ws = tmp_path / "ws"
        code, out, err = run(
            "-w", ws, "params", "gen", "--q-bits", 4, "--seed", "test", "--label", label
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: --label {label!r} would not read back")
        assert not ws.exists()

    def test_label_with_spaces_and_equals_kept(self, run, tmp_path):
        ws = tmp_path / "ws"
        label = "toy # a = b"
        assert run(
            "-w", ws, "params", "gen", "--q-bits", 4, "--seed", "test", "--label", label
        )[0] == 0
        assert storage.load_curve_params(ws / "params.txt").security_label == label

    @pytest.mark.parametrize(
        "command, flag",
        [
            (("params", "gen", "--q-bits", "4"), "--seed"),
            (("sign", "run", "--signer", "alice", "--verifier", "bob", "MSG"), "--seed"),
            (("sign", "commit", "--signer", "alice", "--session", "s1"), "--seed"),
            (("simulate", "--signer", "alice", "--verifier", "bob", "MSG"), "--seed"),
            (("sign", "run", "--signer", "alice", "--verifier", "bob"), "--asset-statement"),
            (("verify", "--signer", "alice", "--verifier", "bob", "--sig", "s"), "--asset-statement"),
        ],
        ids=lambda v: " ".join(takewhile(lambda w: w[0] != "-", v)) if isinstance(v, tuple) else v,
    )
    def test_text_flag_utf8_cannot_encode_refused(
        self, run, workspace, message_file, command, flag
    ):
        # a byte that is not UTF-8 in argv arrives as a lone surrogate; these
        # flags become bytes, and a UnicodeEncodeError escaped as exit 1, which
        # verify documents as INVALID
        if command[-1] == "MSG":
            command = command[:-1] + ("--message-file", message_file)
        command += (flag, "\udcff" if flag == "--seed" else "\udcff:5")
        before = {path: path.read_bytes() for path in workspace.rglob("*") if path.is_file()}
        code, out, err = run("-w", workspace, *command)
        assert code == 2 and out == ""
        assert f"argument {flag}: not UTF-8 text" in err
        assert {path: path.read_bytes() for path in workspace.rglob("*") if path.is_file()} == before
        assert not (workspace / "sessions" / "s1").exists()

    def test_params_gen_needs_a_subgroup_order(self, run, tmp_path):
        # argparse requires neither flag; without the check q_bits None < 4
        # raised a TypeError
        code, out, err = run("-w", tmp_path / "ws", "params", "gen")
        assert code == 2 and out == ""
        assert "one of --q-bits / --q-value is required" in err
        assert not (tmp_path / "ws").exists()

    def test_missing_message_source(self, run, workspace):
        code, *_ = run(
            "-w", workspace, "sign", "run", "--signer", "alice", "--verifier", "bob"
        )
        assert code == 2

    def test_bad_asset_statement(self, run, workspace, tmp_path):
        code, _, err = run(
            "-w", workspace, "sign", "run", "--signer", "alice", "--verifier", "bob",
            "--asset-statement", "no-threshold",
        )
        assert code == 2
        assert "asset-statement" in err

    @pytest.mark.parametrize("statement", ["a|b:5", "a:b|5"])
    def test_asset_statement_separator_refused(self, run, workspace, tmp_path, statement):
        # both would sign POA|v1|a|b|5, so a signature for one verified for the other
        sig = tmp_path / "sig.bin"
        code, out, err = run(
            "-w", workspace, "sign", "run", "--signer", "alice", "--verifier", "bob",
            "--asset-statement", statement, "--seed", "s1", "--out", sig,
        )
        assert code == 2 and out == ""
        assert "--asset-statement" in err
        assert not sig.exists()

    def test_bad_identity_name(self, run, workspace):
        code, _, err = run("-w", workspace, "keygen", "--id", "../evil")
        assert code == 2

    def test_identity_length_bounded(self, run, workspace):
        code, _, err = run("-w", workspace, "keygen", "--id", "a" * 300)
        assert code == 2 and "longer than 128" in err
        assert run("-w", workspace, "keygen", "--id", "a" * 128)[0] == 0

    @pytest.mark.parametrize("name", ["alice\n", ".", "..", "...", ""])
    def test_identity_is_the_whole_name_and_not_only_dots(self, run, workspace, name):
        keys = sorted((workspace / "keys").iterdir())
        code, out, err = run("-w", workspace, "keygen", "--id", name)
        assert code == 2 and out == "" and f"--id {name!r}" in err
        assert sorted((workspace / "keys").iterdir()) == keys
        assert run("-w", workspace, "keygen", "--id", "a.b-c_1")[0] == 0

    def test_signer_with_trailing_newline_refused(self, run, workspace, message_file, tmp_path):
        # "alice\n" once signed as the key file keys/alice\n.key, under a
        # name that verifies INVALID as either "alice" or "alice\n"
        sig = tmp_path / "sig.bin"
        code, out, err = run(
            "-w", workspace, "sign", "run", "--signer", "alice\n", "--verifier", "bob",
            "--message-file", message_file, "--out", sig,
        )
        assert code == 2 and out == "" and "--signer 'alice\\n'" in err
        assert not sig.exists()

    @pytest.mark.parametrize("session_name", [".", ".."])
    def test_session_name_of_dots_refused(self, run, workspace, session_name):
        before = sorted(workspace.rglob("*"))
        code, out, err = run(
            "-w", workspace, "sign", "commit", "--signer", "alice", "--session", session_name,
        )
        assert code == 2 and out == "" and f"--session {session_name!r}" in err
        assert sorted(workspace.rglob("*")) == before

    @pytest.mark.parametrize(
        "command",
        [("keygen", "--id", "dave"), ("blindness-demo",), ("bench", "--iterations", 1)],
    )
    def test_master_secret_outside_units_refused(self, run, workspace, command):
        (workspace / "master.key").write_text("s = 0\n")
        code, out, err = run("-w", workspace, *command)
        assert code == 3 and out == ""
        assert f"{workspace / 'master.key'}: field 's' is not in [1, q - 1]" in err
        assert not (workspace / "keys" / "dave.key").exists()

    @pytest.mark.parametrize(
        "command",
        [
            ("verify", "--verifier", "dave", "--signer", "bob", "--sig", "sig.bin"),
            ("sign", "run", "--signer", "dave", "--verifier", "bob", "--out", "dave.bin"),
        ],
    )
    def test_key_file_of_another_identity_refused(
        self, run, workspace, message_file, monkeypatch, command
    ):
        # dave.key holding alice's key verified alice's designated signatures
        # as dave and signed as alice under dave's name
        monkeypatch.chdir(workspace)
        assert run(
            "-w", workspace, "sign", "run", "--signer", "bob", "--verifier", "alice",
            "--message-file", message_file, "--seed", "s1", "--out", "sig.bin",
        )[0] == 0
        dave = workspace / "keys" / "dave.key"
        dave.write_text((workspace / "keys" / "alice.key").read_text())
        code, out, err = run("-w", workspace, *command, "--message-file", message_file)
        assert code == 3 and out == ""
        assert f"{dave}: field 'identity' is not 'dave'" in err
        assert not (workspace / "dave.bin").exists()

    def test_verify_garbage_signature(self, run, workspace, message_file, tmp_path):
        garbage = tmp_path / "garbage.bin"
        garbage.write_bytes(b"\x04\x99\x99\x99\x99\x99\x99\x99\x99")
        code, _, err = run(
            "-w", workspace, "verify", "--verifier", "bob", "--signer", "alice",
            "--message-file", message_file, "--sig", garbage,
        )
        assert code == 3

    def test_verify_non_utf8_signature(self, run, workspace, message_file, tmp_path):
        garbage = tmp_path / "garbage.txt"
        garbage.write_bytes(b"\xff\xfe not text")
        code, out, err = run(
            "-w", workspace, "verify", "--verifier", "bob", "--signer", "alice",
            "--message-file", message_file, "--sig", garbage,
        )
        assert code == 3 and out == ""
        assert "garbage.txt: not UTF-8 text (at byte 0)" in err

    def test_sign_run_out_of_attempts(self, run, workspace, message_file, monkeypatch):
        system = storage.load_system_params(workspace / "system.txt")
        signer = storage.load_identity_key(workspace / "keys" / "alice.key", system)
        degenerate, _ = find_tape_triples(system, signer, message_file.read_bytes())
        tape = session_tape(system.curve.q, *[degenerate] * (MAX_RETRIES + 1))
        monkeypatch.setattr(cli, "_rng_and_clock", lambda seed: (tape, None))
        code, out, err = run(
            "-w", workspace, "sign", "run", "--signer", "alice", "--verifier", "bob",
            "--message-file", message_file,
        )
        assert code == 3 and out == ""
        assert "degenerate" in err
        assert not (workspace / "transcripts.log").exists()

    def test_sign_run_reuses_the_signer_keys_doubling_chain(self, run, tmp_path, message_file):
        # reopening the log checks no point's order, so the 4-entry check
        # cache still holds S_s's chain when the response first multiplies
        # by it: x*U, (r + h1)*S_s and x*V all reuse their check's chain
        ws = tmp_path / "mid"
        assert run("-w", ws, "params", "gen", "--q-bits", 32, "--seed", "mid")[0] == 0
        assert run("-w", ws, "setup", "--seed", "pkg")[0] == 0
        for identity in ("alice", "bob"):
            assert run("-w", ws, "keygen", "--id", identity)[0] == 0
        sign = (
            "-w", ws, "sign", "run", "--signer", "alice", "--verifier", "bob",
            "--message-file", message_file,
        )
        assert run(*sign, "--seed", "s1")[0] == 0
        chains = (dvbsig_curve._doubling_chain, dvbsig_curve._product_chain)
        for cache in chains:
            cache.cache_clear()
        assert run(*sign, "--seed", "s2")[0] == 0
        assert dvbsig_curve._doubling_chain.cache_info().hits == 3
        for cache in chains:
            cache.cache_clear()

    def test_damaged_transcript_log_named(self, run, workspace, message_file):
        sign = (
            "-w", workspace, "sign", "run", "--signer", "alice", "--verifier", "bob",
            "--message-file", message_file,
        )
        assert run(*sign, "--seed", "s1")[0] == 0
        log = workspace / "transcripts.log"
        with log.open("ab") as fh:
            fh.write(b"\x10\x00\x00")
        before = log.read_bytes(), (workspace / "sig.bin").read_bytes()
        code, out, err = run(*sign, "--seed", "s2")
        assert code == 3 and out == ""
        assert f"{log}: truncated frame header (at byte {len(before[0])})" in err
        # the log is read as the session is recorded, before a signature is written
        assert (log.read_bytes(), (workspace / "sig.bin").read_bytes()) == before

    def test_sign_run_past_a_logged_point_outside_the_subgroup(
        self, run, workspace, message_file
    ):
        # reopening the log leaves a record's order-q check to whoever reads
        # the record back, and `sign run` reads none
        system = storage.load_system_params(workspace / "system.txt")
        curve = system.curve
        log = workspace / "transcripts.log"
        sign = (
            "-w", workspace, "sign", "run", "--signer", "alice", "--verifier", "bob",
            "--message-file", message_file,
        )
        for seed in ("s1", "s2", "s3"):
            assert run(*sign, "--seed", seed)[0] == 0
        first, second, third = read_log(log, curve)
        rogue = second._replace(commitment=off_subgroup_point(curve.p, curve.q))
        log.write_bytes(b"".join(encode_transcript(t, curve) for t in (first, rogue, third)))
        code, out, err = run(*sign, "--seed", "s4")
        assert (code, err) == (0, "") and out.startswith("wrote ")
        # read back, the rogue record still needs its order check before use
        records = read_log(log, curve)
        assert len(records) == 4 and records[:3] == [first, rogue, third]
        assert point_fault(records[1].commitment, curve.q)

    def blinded_session(self, run, workspace, message_file):
        """Session s1 after commit and blind; its directory."""
        assert run(
            "-w", workspace, "sign", "commit", "--signer", "alice", "--session", "s1",
            "--seed", "c",
        )[0] == 0
        assert run(
            "-w", workspace, "sign", "blind", "--session", "s1", "--signer", "alice",
            "--message-file", message_file, "--seed", "b",
        )[0] == 0
        return workspace / "sessions" / "s1"

    def responded_session(self, run, workspace, message_file):
        """Session s1 after commit, blind and respond; its directory."""
        sdir = self.blinded_session(run, workspace, message_file)
        assert run("-w", workspace, "sign", "respond", "--session", "s1")[0] == 0
        return sdir

    @staticmethod
    def rewrite_field(path, key, value):
        fields = storage.read_kv(path)
        fields[key] = value
        path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))

    def test_u_prime_trailing_bytes_refused(self, run, workspace, message_file):
        sdir = self.responded_session(run, workspace, message_file)
        state = sdir / "user.state"
        self.rewrite_field(state, "u_prime", storage.read_kv(state)["u_prime"] + "deadbeef")
        code, out, err = run(
            "-w", workspace, "sign", "unblind", "--session", "s1", "--verifier", "bob"
        )
        assert code == 3 and out == ""
        assert f"{state}: trailing bytes after the point in field 'u_prime'" in err
        assert not (sdir / "sig.bin").exists()

    @pytest.mark.parametrize("times_q, plus", [(0, 0), (0, -7), (1, 7)], ids=["0", "-7", "q+7"])
    def test_commitment_exponent_out_of_range(self, run, workspace, message_file, times_q, plus):
        # r = q + 7 would log the commitment of r = 7 under a second challenge
        q = storage.load_system_params(workspace / "system.txt").curve.q
        state = self.blinded_session(run, workspace, message_file) / "signer.state"
        self.rewrite_field(state, "r", times_q * q + plus)
        code, out, err = run("-w", workspace, "sign", "respond", "--session", "s1")
        assert code == 3 and out == ""
        assert f"{state}: field 'r' is not in [1, q - 1]" in err
        assert not (workspace / "transcripts.log").exists()
        assert not (state.parent / "response.frame").exists()

    @pytest.mark.parametrize("started", [-5, 2**64 - 1, 2**64])
    def test_start_time_out_of_range(self, run, workspace, message_file, started):
        # the log keeps started_ms and finished_ms = started_ms + 1 in 8 bytes
        state = self.blinded_session(run, workspace, message_file) / "signer.state"
        self.rewrite_field(state, "started_ms", started)
        code, out, err = run("-w", workspace, "sign", "respond", "--session", "s1", "--seed", "r")
        assert code == 3 and out == ""
        assert f"{state}: field 'started_ms' is not in [0, 2^64 - 2]" in err
        assert not (workspace / "transcripts.log").exists()
        assert not (state.parent / "response.frame").exists()

    @pytest.mark.parametrize("signer", ["..", "a/b", "a" * 129], ids=["dots", "slash", "long"])
    def test_signer_field_invalid(self, run, workspace, message_file, signer):
        # a damaged state file exits 3 whichever of its fields is at fault
        state = self.blinded_session(run, workspace, message_file) / "signer.state"
        self.rewrite_field(state, "signer", signer)
        code, out, err = run("-w", workspace, "sign", "respond", "--session", "s1", "--seed", "r")
        assert code == 3 and out == ""
        assert f"{state}: field 'signer'" in err
        assert not (workspace / "transcripts.log").exists()
        assert not (state.parent / "response.frame").exists()

    def test_start_time_required(self, run, workspace, message_file):
        # a state without started_ms was answered and logged as started at 0
        state = self.blinded_session(run, workspace, message_file) / "signer.state"
        lines = state.read_text().splitlines(True)
        state.write_text("".join(line for line in lines if not line.startswith("started_ms ")))
        code, out, err = run("-w", workspace, "sign", "respond", "--session", "s1", "--seed", "r")
        assert code == 3 and out == ""
        assert err == f"error: {state}: missing field 'started_ms'\n"
        assert not (workspace / "transcripts.log").exists()
        assert not (state.parent / "response.frame").exists()

    def test_field_errors_name_no_byte_offset(self, run, workspace, message_file):
        # a key-value field has no measured offset; "(at byte 0)" was printed
        dave = workspace / "keys" / "dave.key"
        dave.write_text((workspace / "keys" / "alice.key").read_text())
        code, out, err = run(
            "-w", workspace, "sign", "run", "--signer", "dave", "--verifier", "bob",
            "--message-file", message_file,
        )
        assert code == 3 and out == ""
        assert err == f"error: {dave}: field 'identity' is not 'dave'\n"
        state = self.responded_session(run, workspace, message_file) / "user.state"
        lines = state.read_text().splitlines(True)
        state.write_text("".join(line for line in lines if not line.startswith("u_prime ")))
        code, out, err = run(
            "-w", workspace, "sign", "unblind", "--session", "s1", "--verifier", "bob"
        )
        assert code == 3 and out == ""
        assert err == f"error: {state}: missing field 'u_prime'\n"

    def test_latest_start_time_is_logged(self, run, workspace, message_file):
        state = self.blinded_session(run, workspace, message_file) / "signer.state"
        self.rewrite_field(state, "started_ms", 2**64 - 2)
        assert run("-w", workspace, "sign", "respond", "--session", "s1", "--seed", "r")[0] == 0
        curve = storage.load_system_params(workspace / "system.txt").curve
        (record,) = read_log(workspace / "transcripts.log", curve)
        assert (record.started_ms, record.finished_ms) == (2**64 - 2, 2**64 - 1)

    @pytest.mark.parametrize("times_q", [0, 1], ids=["0", "q"])
    def test_blinding_factor_out_of_range(self, run, workspace, message_file, times_q):
        # x = 0 unblinds to a signature that verifies INVALID
        q = storage.load_system_params(workspace / "system.txt").curve.q
        sdir = self.responded_session(run, workspace, message_file)
        self.rewrite_field(sdir / "user.state", "x", times_q * q)
        code, out, err = run(
            "-w", workspace, "sign", "unblind", "--session", "s1", "--verifier", "bob"
        )
        assert code == 3 and out == ""
        assert f"{sdir / 'user.state'}: field 'x' is not in [1, q - 1]" in err
        assert not (sdir / "sig.bin").exists()

    def test_bad_u_prime_names_user_state(self, run, workspace, message_file):
        state = self.responded_session(run, workspace, message_file) / "user.state"
        fields = storage.read_kv(state)
        u_prime = bytes.fromhex(fields["u_prime"])
        width = (len(u_prime) - 1) // 2
        p = storage.load_system_params(workspace / "system.txt").curve.p
        fields["u_prime"] = (u_prime[:1] + p.to_bytes(width, "big") + u_prime[1 + width :]).hex()
        state.write_text("".join(f"{key} = {value}\n" for key, value in fields.items()))
        code, out, err = run(
            "-w", workspace, "sign", "unblind", "--session", "s1", "--verifier", "bob"
        )
        assert code == 3 and out == ""
        assert f"{state}: point has coordinates out of range (at byte 1)" in err

    def test_short_response_frame_named(self, run, workspace, message_file):
        frame = self.responded_session(run, workspace, message_file) / "response.frame"
        frame.write_bytes(frame.read_bytes()[:1])
        code, out, err = run(
            "-w", workspace, "sign", "unblind", "--session", "s1", "--verifier", "bob"
        )
        assert code == 3 and out == ""
        assert f"{frame}: truncated frame header (at byte 1)" in err

    def test_short_signature_file_named(self, run, workspace, message_file, tmp_path):
        # at toy scale the first 3 bytes hold all of U' and none of sigma
        sig = tmp_path / "short.bin"
        assert run(
            "-w", workspace, "sign", "run", "--signer", "alice", "--verifier", "bob",
            "--message-file", message_file, "--seed", "s1", "--out", sig,
        )[0] == 0
        sig.write_bytes(sig.read_bytes()[:3])
        code, out, err = run(
            "-w", workspace, "verify", "--verifier", "bob", "--signer", "alice",
            "--message-file", message_file, "--sig", sig,
        )
        assert code == 3 and out == ""
        assert f"{sig}: truncated pairing-value encoding (at byte 3)" in err

    def test_message_file_is_a_directory(self, run, workspace, tmp_path):
        code, out, err = run(
            "-w", workspace, "sign", "run", "--signer", "alice", "--verifier", "bob",
            "--message-file", tmp_path, "--seed", "s1",
        )
        assert code == 2 and out == ""
        assert str(tmp_path) in err
        assert not (workspace / "transcripts.log").exists()

    def test_signature_file_is_a_directory(self, run, workspace, message_file, tmp_path):
        code, out, err = run(
            "-w", workspace, "verify", "--verifier", "bob", "--signer", "alice",
            "--message-file", message_file, "--sig", tmp_path,
        )
        assert code == 2 and out == ""
        assert str(tmp_path) in err

    @pytest.mark.parametrize(
        "command",
        [
            ("bench", "--iterations", "0"),
            ("params", "gen", "--q-value", "abc"),
            ("params", "gen", "--q-value", "13", "--p-bits", "0"),
            ("blindness-demo", "--sessions", "-2"),
            ("params", "gen", "--q-bits", "3"),
            ("params", "gen", "--q-bits", "-2"),
            ("params", "gen", "--q-value", "15"),
            # no p = 12*q*r - 1 has that few bits for q
            ("params", "gen", "--q-value", "13", "--p-bits", "5"),
            ("params", "gen", "--q-bits", "8", "--p-bits", "6"),
            # 2 and 3 divide every cofactor 12*r: refused before the search
            ("params", "gen", "--q-value", "2"),
            ("params", "gen", "--q-value", "3"),
        ],
    )
    def test_numeric_flags_checked(self, run, workspace, command):
        code, out, err = run("-w", workspace, *command)
        assert code == 2 and out == ""
        assert command[-2] in err

    def test_params_gen_searches_at_the_least_p_bits(self, run, tmp_path):
        # the least length a p = 12*q*r - 1 can have is searched, not refused:
        # for q = 5 that is 6 bits, and r = 1 gives the prime 59
        code, out, _ = run("-w", tmp_path / "a", "params", "gen", "--q-value", 5, "--p-bits", 6)
        assert code == 0 and "p = 59\n" in out
        # for q = 13 the one 8-bit candidate, 155, is composite
        code, out, err = run("-w", tmp_path / "b", "params", "gen", "--q-value", 13, "--p-bits", 8)
        assert code == 3 and out == ""
        assert "no prime p = 12*q*r - 1 found for q = 13" in err

    def test_params_gen_writes_only_the_workspace_params(self, run, tmp_path):
        # setup reads only <workspace>/params.txt, so -w names the output
        code, out, err = run(
            "-w", tmp_path / "ws", "params", "gen", "--q-bits", 4, "--out", tmp_path / "p.txt"
        )
        assert code == 2 and out == ""
        assert "unrecognized arguments: --out" in err
        assert not (tmp_path / "p.txt").exists()

    def test_second_setup_refused(self, run, workspace):
        # keys issued under the first master secret must keep verifying
        before = {name: (workspace / name).read_bytes() for name in ("master.key", "system.txt")}
        code, out, err = run("-w", workspace, "setup", "--seed", "another-pkg")
        assert code == 2 and out == ""
        assert f"master secret already exists: {workspace / 'master.key'}" in err
        assert before == {name: (workspace / name).read_bytes() for name in before}

    def test_missing_workspace(self, run, tmp_path, message_file):
        code, _, err = run(
            "-w", tmp_path / "nope", "verify", "--verifier", "bob", "--signer", "alice",
            "--message-file", message_file, "--sig", tmp_path / "nope.bin",
        )
        assert code == 2

    def test_setup_requires_params(self, run, tmp_path):
        code, _, err = run("-w", tmp_path / "empty", "setup")
        assert code == 2
        assert "params" in err


class TestOneWriter:
    def test_every_workspace_file_is_created_by_write_file(self, run, tmp_path, monkeypatch):
        # every file but the append-only transcript log, which is appended to
        # under its lock
        created = []
        write_file = storage.write_file

        def record(path, *args, **kwargs):
            created.append(Path(path))
            write_file(path, *args, **kwargs)

        monkeypatch.setattr(storage, "write_file", record)
        monkeypatch.chdir(tmp_path)
        Path("m.txt").write_bytes(b"one writer")
        msg = ("--message-file", "m.txt")
        for step in [
            ("params", "gen", "--q-bits", 4, "--seed", "test", "--label", "caf\u00e9"),
            ("setup", "--seed", "pkg"),
            ("keygen", "--id", "alice"),
            ("keygen", "--id", "bob"),
            ("sign", "run", "--signer", "alice", "--verifier", "bob", *msg, "--seed", "s1",
             "--out", "ws/run.bin"),
            ("sign", "run", "--signer", "alice", "--verifier", "bob", *msg, "--seed", "s2",
             "--out", "ws/run.txt", "--format", "text"),
            ("sign", "commit", "--signer", "alice", "--session", "s1", "--seed", "c"),
            ("sign", "blind", "--session", "s1", "--signer", "alice", *msg, "--seed", "b"),
            ("sign", "respond", "--session", "s1", "--seed", "r"),
            ("sign", "unblind", "--session", "s1", "--verifier", "bob"),
            ("simulate", "--signer", "alice", "--verifier", "bob", *msg, "--seed", "sim",
             "--out", "ws/sim.bin"),
        ]:
            assert run("-w", "ws", *step)[0] == 0, step
        files = {path for path in Path("ws").rglob("*") if path.is_file()}
        assert len(files) == 14 and Path("ws/sessions/s1/signer.state") in created
        assert files - set(created) == {Path("ws/transcripts.log")}


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadme:
    def test_walkthrough_commands_parse(self):
        # every `dvbsig ...` line of the CLI walkthrough's three code blocks
        # parses and reaches the handler of the command it names
        section = README.read_text().split("## CLI walkthrough\n", 1)[1].split("\n## ", 1)[0]
        blocks = re.findall(r"```sh\n(.*?)```", section, re.S)
        assert len(blocks) == 3
        handlers = {words: handler for words, _, handler, _ in cli.COMMANDS}
        parser = cli.build_parser()
        for block in blocks:
            lines = [line for line in block.splitlines() if line.startswith("dvbsig ")]
            assert lines, block
            for line in lines:
                argv = shlex.split(line, comments=True)[1:]
                assert argv[:2] == ["-w", "ws"], line
                named = " ".join(takewhile(lambda word: not word.startswith("-"), argv[2:]))
                handler = parser.parse_args(argv).func
                assert handler is handlers[named], line
                # and the table gives that command its own handler
                assert handler.__name__ == "cmd_" + re.sub("[ -]", "_", named), line


# SHA-256 of every --help screen at COLUMNS=80, from the parser that built
# all commands for every argv.  Python 3.10-3.12 print these screens; 3.13's
# argparse words five of them differently.
HELP_DIGESTS = {
    "": "bb5fa3fdfb11e6b72d45dbc30eab08ca27de38ad0e43465f5501ef50e3f9ab2c",
    "params": "0c7751fb41a80fb32a1d6a0f2b9fc2f5f97bd34b5052da2c658ae1770a24f8a6",
    "params gen": "44a7731b197f403fc7a4f3a64a22b26b45e984b390eb9aea4e9a97ed487cf81a",
    "setup": "ca4cb55a3a194fdcd5047139a1c4c3270368d8c1a57696b22eec9e5687684246",
    "keygen": "44828d2c43cd931c9ed28a58f92d5c6f04028d6a14a4d4b7296e1c3918f16a1f",
    "sign": "36e60edbb6d69ade325bda8704dce37fd7c6c454db3e81bc13aeb9be848241c7",
    "sign run": "70cc61ebc6219553ca7ddeb0f8243e614b8f8818409bc686e6f0768d3d379a2b",
    "sign commit": "ffbabdf7a7c91a830fce55f2595664e9d00ed2b26e79800612c6b18017d81b69",
    "sign blind": "ab6b7721b8781e7d48a35b1656817fb7aab60678798caec70a15c9d8377abadb",
    "sign respond": "bf4e2e862e0c9b3fc125aaf1307216d6e891e004a72183bccaed3dccf46af568",
    "sign unblind": "a1fc2b8dfbad728278bf33918383d93f63cf9e4384ca3b148563f7e0c9380411",
    "verify": "5f89f48ff3d8a18b1799b5853754acbd6f7cce8fa7b24bddb0736aa653a4e28a",
    "simulate": "b1899531dc3fc14db2ef4f5be46126dba12338ebc8f5221bbecb40ecdebf9e09",
    "blindness-demo": "9979bf106182f9a71cdb1a6ab21c6b6de3d742f9b89fafe924f884bb3f7b7279",
    "analyze": "ace762197f3bb09643c1b601f5b78d3d89c4b8c37d6e1fd7da7b404f6b6d3471",
    "analyze bounds": "d825a4f8623d7cb9ec17970d98c005dfc9f8879e6dbc9a6a7d0e9d8eb6ad02e0",
    "analyze perf": "caa965d052b8ca1df1fe1eeb837042dd65aab9145c410ce425dc4df10a74d9d2",
    "bench": "9467d40426465d968af384f3b2f2f3623b69b7664932a9e478c7abf53c6a16c3",
}
HELP_DIGESTS_313 = {
    **HELP_DIGESTS,
    "": "5fcdfe53570f2f9560447e8a95444e56ccb63863bf3024c363bc91eebdb7fe97",
    "sign run": "546c9b77160df294a257f2a56c3511b6c8682d30163cf2d10e15983ca22ed469",
    "sign blind": "bae44ba835766f06bff412f630fc699ec4efad9646d92436326c3f43989aeb4e",
    "verify": "2a4e29311e185d846e416ed9abfce36f111f11481d7ac1c783dc8251674f97f2",
    "simulate": "c48f4fe24bb06e51dc7a93aa4d5bf1f254afb58a894456b423e184df3155848a",
}

# one valid argv per command; those of the commands in REQUIRED begin with a
# required flag
VALID_ARGV = {
    "params gen": ["--q-bits", "4", "--p-bits", "12", "--seed", "s", "--label", "l"],
    "setup": ["--seed", "s"],
    "keygen": ["--id", "alice"],
    "sign run": ["--signer", "a", "--verifier", "b", "--asset-statement", "t:1", "--seed", "s",
                 "--out", "o", "--format", "text"],
    "sign commit": ["--signer", "a", "--session", "s"],
    "sign blind": ["--session", "s", "--signer", "a", "--message-file", "m"],
    "sign respond": ["--session", "s"],
    "sign unblind": ["--session", "s", "--verifier", "b", "--out", "o"],
    "verify": ["--signer", "a", "--verifier", "b", "--message-file", "m", "--sig", "x"],
    "simulate": ["--signer", "a", "--verifier", "b", "--asset-statement", "t:1"],
    "blindness-demo": ["--sessions", "2", "--seed", "s"],
    "analyze bounds": ["--qh1", "3", "--budget-file", "b"],
    "analyze perf": ["--costs", "c"],
    "bench": ["--iterations", "2", "--json"],
}
REQUIRED = {"keygen", "sign run", "sign commit", "sign blind", "sign respond", "sign unblind",
            "verify", "simulate"}
WORKSPACE_FORMS = ([], ["-w", "ws"], ["-wws"], ["--workspace", "ws"], ["--workspace=ws"])


def _invalid_argv():
    for words, valid in VALID_ARGV.items():
        command = words.split()
        yield command + valid[:1]  # a flag without its value
        yield ["-w", "ws"] + command + valid + ["--bogus"]
        yield command + valid + ["extra"]
        if words in REQUIRED:
            yield command + valid[2:]
        if words in ("sign run", "sign unblind", "simulate"):
            yield command + valid + ["--format", "pdf"]
    # an abbreviation of --help, and options out of place
    yield ["sign", "run", "--he"]
    yield ["sign", "run", "-w", "ws"] + VALID_ARGV["sign run"]
    yield ["-w"]


def _parsed(parse, argv, capsys):
    """(exit code or namespace, stdout, stderr) of parse(argv)."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    out, err = capsys.readouterr()
    return result, out, err


class TestNarrowParse:
    @pytest.mark.skipif(sys.version_info[:2] > (3, 13), reason="digests taken under 3.10-3.13")
    @pytest.mark.parametrize("words", HELP_DIGESTS)
    def test_help_screens_unchanged(self, words, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        digests = HELP_DIGESTS_313 if sys.version_info[:2] == (3, 13) else HELP_DIGESTS
        code, out, err = _parsed(cli.main, words.split() + ["-h"], capsys)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digests[words]

    @pytest.mark.parametrize("words", VALID_ARGV)
    def test_valid_argv_parses_alone_as_in_full(self, words):
        handlers = {name: handler for name, _, handler, _ in cli.COMMANDS}
        for workspace in WORKSPACE_FORMS:
            argv = workspace + words.split() + VALID_ARGV[words]
            narrow = cli._parse_narrow(argv)
            assert narrow is not None, argv
            assert narrow == cli.build_parser().parse_args(argv), argv
            assert narrow.func is handlers[words]
        # an abbreviated --workspace is the full parser's to read
        assert cli._parse_narrow(["--work", "ws", *words.split(), *VALID_ARGV[words]]) is None

    @pytest.mark.parametrize("argv", list(_invalid_argv()), ids=" ".join)
    def test_invalid_argv_prints_what_the_full_parser_prints(self, argv, capsys):
        assert cli._parse_narrow(argv) is None
        full = _parsed(cli.build_parser().parse_args, argv, capsys)
        assert full[0] in (0, 2)  # help, or a usage error
        assert _parsed(cli.main, argv, capsys) == full
