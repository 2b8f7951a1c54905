"""The three closed-loop workloads, each driven by one client.

Every workload is built from (seed, scale, work_dir, rep) -- construction is
the set-up the harness times -- and then serves operations in three steps:
`prepare(i)` makes operation i's inputs from the seed (untimed), `run` is
the timed call into the program, and `check` verifies its output (untimed)
and returns an `Outcome`.  For a traced run the harness sets `tracer`; only
cli-log reads it, because its work runs in child processes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

from dvbsig import scheme, session, storage
from dvbsig.algebra import sample_unit
from dvbsig.curve import (
    GTElement,
    hash_to_point,
    params_for_subgroup_order,
    scalar_mul,
    tate_pairing,
)
from dvbsig.rng import SeededRng

SOLINAS_Q = 2**159 + 2**17 + 1
PARAMS_SEED = b"perfbench"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Scale:
    q: int
    p_bits: int | None

    def curve(self):
        return params_for_subgroup_order(self.q, PARAMS_SEED, p_bits=self.p_bits)


PRODUCTION = Scale(SOLINAS_Q, 512)


@dataclass
class Outcome:
    ok: bool
    record: bytes  # the operation's output, for outputs_sha256
    extra: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)  # meter counts made elsewhere


def _statement(rng) -> tuple[str, int]:
    """A proof-of-asset statement's address tag and threshold."""
    return rng.next_bytes(6).hex(), int.from_bytes(rng.next_bytes(3), "big") + 1


def _poa(tag: str, threshold: int) -> bytes:
    return f"POA|v1|{tag}|{threshold}".encode("utf-8")


def _distinct_keys(system, msk, prefix: str, n: int) -> list[scheme.KeyPair]:
    """n key pairs with pairwise distinct public points (names collide under
    H1 at toy scale, which would make a wrong-verifier check pass)."""
    keys: list[scheme.KeyPair] = []
    k = 0
    while len(keys) < n:
        key = scheme.keygen(system, msk, f"{prefix}-{k}".encode("utf-8"))
        if all(key.public != other.public for other in keys):
            keys.append(key)
        k += 1
    return keys


class SignWire:
    """One signer issues sessions to a user; every protocol message crosses
    the wire codec and every transcript lands in an in-memory store."""

    name = "sign-wire"
    exercises = (
        "session.begin_sign", "session.begin_blind", "session.respond", "session.unblind",
        "session.encode_message", "session.decode_message", "session.TranscriptStore.record",
        "scheme.sign_commit", "scheme.blind", "scheme.sign_respond", "scheme.unblind",
        "scheme.h2", "curve.scalar_mul", "curve.mul_raw", "curve.point_add",
        "curve.tate_pairing", "curve.miller_loop", "curve.final_exp", "curve.decode_point",
        "algebra.fp2_pow",
    )
    VERIFIERS = 4
    CROSS_CHECK_EVERY = 4  # also confirm a non-designated verifier rejects
    MAX_ATTEMPTS = 5

    def __init__(self, seed: int, scale: Scale, work_dir: Path, rep: int):
        tag = f"perfbench|{seed}|{self.name}|{rep}"
        curve = scale.curve()
        curve.validate()
        self.system, msk = scheme.setup(curve, SeededRng(tag + "|pkg"))
        self.signer = scheme.keygen(self.system, msk, f"signer-{seed}".encode("utf-8"))
        self.verifiers = _distinct_keys(self.system, msk, f"verifier-{seed}", self.VERIFIERS)
        self.rng = SeededRng(tag + "|session")
        self.inputs = SeededRng(tag + "|inputs")
        self.clock = session.LogicalClock()
        self.store = session.TranscriptStore()

    def _wire(self, message):
        curve = self.system.curve
        return session.decode_message(session.encode_message(message, curve), curve)

    def prepare(self, i: int):
        verifier = self.verifiers[i % self.VERIFIERS]
        other = self.verifiers[(i + 1) % self.VERIFIERS]
        return i, _poa(*_statement(self.inputs)), verifier, other

    def run(self, inputs):
        _, message, verifier, _ = inputs
        system, signer = self.system, self.signer
        session_id = self.rng.next_bytes(session.SESSION_ID_BYTES)
        for attempt in range(1, self.MAX_ATTEMPTS + 1):
            started = self.clock()
            signer_side, commit = session.begin_sign(system, signer, self.rng)
            commit = self._wire(commit)
            user_side, challenge = session.begin_blind(
                system, message, commit, signer.public, self.rng
            )
            challenge = self._wire(challenge)
            respond = self._wire(signer_side.respond(challenge))
            finished = self.clock()
            if respond.point.is_identity:
                continue
            signature = user_side.unblind(respond, verifier.public)
            self.store.record(
                session.Transcript(
                    session_id=session_id,
                    signer_identity=signer.identity,
                    commitment=commit.point,
                    challenge=challenge.value,
                    response=respond.point,
                    started_ms=started,
                    finished_ms=finished,
                )
            )
            return session_id, signature, attempt
        raise RuntimeError(f"session degenerate {self.MAX_ATTEMPTS} times")

    def check(self, inputs, output) -> Outcome:
        i, message, verifier, other = inputs
        session_id, signature, attempts = output
        self.store.get(session_id)  # raises KeyError if the transcript was not kept
        ok = scheme.verify(
            self.system, verifier.secret, self.signer.public, message, signature
        )
        if i % self.CROSS_CHECK_EVERY == 0:
            ok = ok and not scheme.verify(
                self.system, other.secret, self.signer.public, message, signature
            )
        record = scheme.encode_signature(signature) + bytes([ok])
        return Outcome(ok, record, {"attempts": attempts})


class VerifyInbox:
    """One designated verifier works through an inbox of encoded signatures
    from a small signer pool; a fixed share is well-formed but invalid."""

    name = "verify-inbox"
    exercises = (
        "scheme.decode_signature", "scheme.verify_with_identity", "scheme.verify", "scheme.h2",
        "curve.hash_to_point", "algebra.sqrt_mod", "curve.decode_point", "curve.decode_gt",
        "curve.scalar_mul", "curve.mul_raw", "curve.point_add", "curve.tate_pairing",
        "curve.miller_loop", "curve.final_exp", "algebra.fp2_pow",
    )
    SIGNERS = 8
    ALTERED, OTHER_VERIFIER = 3, 7  # i % 8: a quarter of the inbox must verify False

    def __init__(self, seed: int, scale: Scale, work_dir: Path, rep: int):
        tag = f"perfbench|{seed}|{self.name}|{rep}"
        curve = scale.curve()
        curve.validate()
        self.system, msk = scheme.setup(curve, SeededRng(tag + "|pkg"))
        self.verifier, self.other = _distinct_keys(self.system, msk, f"verifier-{seed}", 2)
        # Inbox entries are built from g = e(Q_s, S_v): a signature (U', sigma)
        # with U' = t*Q_s verifies iff sigma = e(U' + h*Q_s, S_v) = g^(t + h).
        # That is the distribution real sessions give, for one scalar
        # multiplication per entry instead of simulate's five and a pairing.
        self.signers = []
        for k in range(self.SIGNERS):
            identity = f"signer-{seed}-{k}".encode("utf-8")
            q_s = hash_to_point(identity, curve)
            self.signers.append(
                (
                    identity,
                    q_s,
                    tate_pairing(q_s, self.verifier.secret, curve).value,
                    tate_pairing(q_s, self.other.secret, curve).value,
                )
            )
        self.inputs = SeededRng(tag + "|inputs")
        self.seen: set[bytes] = set()

    def prepare(self, i: int):
        q = self.system.curve.q
        pick = self.inputs.next_bytes(1)[0] % self.SIGNERS
        identity, q_s, g_v, g_other = self.signers[pick]
        tag, threshold = _statement(self.inputs)
        message = _poa(tag, threshold)
        while True:
            t = sample_unit(self.inputs, q)
            u_prime = scalar_mul(t, q_s)
            h = scheme.h2(message, u_prime, q)
            if (t + h) % q:
                break
        kind = i % 8
        base = g_other if kind == self.OTHER_VERIFIER else g_v
        signature = scheme.Signature(u_prime, GTElement(base ** ((t + h) % q)))
        if kind == self.ALTERED:
            while scheme.h2(message, u_prime, q) == h:
                threshold += 1
                message = _poa(tag, threshold)
        expected = kind not in (self.ALTERED, self.OTHER_VERIFIER)
        return identity, message, scheme.encode_signature(signature), expected

    def run(self, inputs):
        identity, message, data, _ = inputs
        signature = scheme.decode_signature(data, self.system.curve)
        return scheme.verify_with_identity(
            self.system, self.verifier.secret, identity, message, signature
        )

    def check(self, inputs, verdict) -> Outcome:
        identity, _, data, expected = inputs
        seen = identity in self.seen
        self.seen.add(identity)
        return Outcome(verdict is expected, data + bytes([verdict]), {"seen_signer": seen})


@dataclass(frozen=True)
class _Proc:
    code: int
    stdout: str
    ms: float
    trace_file: Path | None
    span: int


class CliLog:
    """`dvbsig sign run` then `dvbsig verify`, each in its own process, on a
    production workspace whose transcript log holds PREFILL records."""

    name = "cli-log"
    exercises = (
        "cli.main", "storage.load_system_params", "storage.load_identity_key",
        "storage.load_signature", "storage.save_signature", "algebra.is_prime",
        "session.FileTranscriptStore.open", "session.decode_transcript",
        "session.FileTranscriptStore.record", "curve.hash_to_point", "curve.decode_point",
        "curve.decode_gt", "curve.tate_pairing", "scheme.sign_commit", "scheme.blind",
        "scheme.sign_respond", "scheme.unblind", "scheme.verify_with_identity",
    )
    PREFILL = 16
    SIGNER, VERIFIER = "signer", "verifier"

    def __init__(self, seed: int, scale: Scale, work_dir: Path, rep: int):
        self.seed = seed
        self.ws = storage.Workspace(work_dir / f"ws-{rep}")
        src = str(Path.cwd() / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.tracer = None
        p_bits = ["--p-bits", str(scale.p_bits)] if scale.p_bits else []
        self._setup_cli("params", "gen", "--q-value", str(scale.q), *p_bits,
                        "--seed", PARAMS_SEED.decode())
        self._setup_cli("setup", "--seed", f"perfbench-{seed}-pkg-{rep}")
        self._setup_cli("keygen", "--id", self.SIGNER)
        self._setup_cli("keygen", "--id", self.VERIFIER)
        self._prefill(seed)
        self.log_size = self.ws.transcript_log.stat().st_size
        self.inputs = SeededRng(f"perfbench|{seed}|{self.name}|inputs")

    def _setup_cli(self, *args: str) -> None:
        proc = self._proc("setup", list(args))
        if proc.code != 0 or not proc.stdout.startswith("wrote"):
            raise RuntimeError(f"dvbsig {' '.join(args)} failed ({proc.code}): {proc.stdout}")

    def _prefill(self, seed: int) -> None:
        """Append PREFILL signer transcripts, each a real commit/respond pair."""
        system = storage.load_system_params(self.ws.system_file)
        signer = storage.load_identity_key(self.ws.key_file(self.SIGNER), system)
        store = session.FileTranscriptStore(self.ws.transcript_log, system.curve)
        for k in range(self.PREFILL):
            rng = SeededRng(f"perfbench|{seed}|prefill|{k}")
            session_id = rng.next_bytes(session.SESSION_ID_BYTES)
            state, commitment = scheme.sign_commit(system, signer, rng)
            challenge = sample_unit(rng, system.curve.q)
            response = scheme.sign_respond(system, state, scheme.BlindedChallenge(challenge))
            store.record(
                session.Transcript(
                    session_id=session_id,
                    signer_identity=signer.identity,
                    commitment=commitment.point,
                    challenge=challenge,
                    response=response.point,
                    started_ms=2 * k,
                    finished_ms=2 * k + 1,
                )
            )

    def _proc(self, kind: str, args: list[str]) -> _Proc:
        args = ["-w", str(self.ws.root), *args]
        tracer, trace_file, span = self.tracer, None, -1
        if tracer is None:
            cmd = [sys.executable, "-m", "dvbsig.cli", *args]
        else:
            trace_file = self.ws.root / f"trace-{kind}.json"
            cmd = [sys.executable, str(LAUNCHER), str(trace_file), *args]
            span = tracer.enter(f"proc.{kind}")
        start = perf_counter_ns()
        try:
            done = subprocess.run(
                cmd, env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
            )
        finally:
            ms = (perf_counter_ns() - start) / 1e6
            if tracer is not None:
                tracer.exit(span)
        return _Proc(done.returncode, done.stdout, ms, trace_file, span)

    def prepare(self, i: int):
        tag, threshold = _statement(self.inputs)
        # A reused --seed reuses the session id and raises DuplicateSession.
        return f"{tag}:{threshold}", f"perfbench-{self.seed}-op-{i}"

    def run(self, inputs):
        statement, op_seed = inputs
        sig = str(self.ws.root / "sig.bin")
        who = ["--signer", self.SIGNER, "--verifier", self.VERIFIER, "--asset-statement", statement]
        sign = self._proc("sign", ["sign", "run", *who, "--seed", op_seed, "--out", sig])
        verify = self._proc("verify", ["verify", *who, "--sig", sig])
        return sign, verify

    def check(self, inputs, output) -> Outcome:
        sign, verify = output
        log, sig = self.ws.transcript_log, self.ws.root / "sig.bin"
        appended = log.stat().st_size - self.log_size
        retries = re.search(r"\(retries: (\d+)\)", sign.stdout)
        ok = (
            sign.code == 0
            and sign.stdout.startswith(f"wrote {sig}")
            and retries is not None
            and appended > 0
            and verify.code == 0
            and verify.stdout.strip() == "VALID"
        )
        record = (sig.read_bytes() if sig.exists() else b"") + bytes([verify.code == 0])
        outcome = Outcome(ok, record, {
            "attempts": int(retries.group(1)) + 1 if retries else 0,
            "log_bytes": self.log_size + appended,
            "sign_ms": sign.ms,
            "verify_ms": verify.ms,
        })
        for proc in (sign, verify):
            if proc.trace_file is not None and proc.trace_file.exists():
                child = json.loads(proc.trace_file.read_text())
                self.tracer.adopt(child["spans"], proc.span)
                for kind, n in child["counts"].items():
                    outcome.counts[kind] = outcome.counts.get(kind, 0) + n
                proc.trace_file.unlink()
        # Every sign sees the same log: drop the record this operation appended.
        os.truncate(log, self.log_size)
        sig.unlink(missing_ok=True)
        return outcome


WORKLOADS = {w.name: w for w in (SignWire, VerifyInbox, CliLog)}
