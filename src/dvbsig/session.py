"""The interactive three-move signing protocol: wire framing for the messages
that cross the signer/user boundary (scheme's Commitment, BlindedChallenge
and Response), state machines for both sides, a local in-process runner
that reruns degenerate sessions a fixed number of times, and an append-only
transcript store.

A transcript is exactly the signer's view of one session: the commitment it
sent, the blinded challenge it received, and the response it returned.  It
never contains the message, the blinding factors, or the final signature.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Union

from . import scheme
from .curve import CurveParams, G1Point, decode_point
from .errors import DecodeError, Degenerate, DuplicateSession
from .scheme import BlindedChallenge, Commitment, KeyPair, Response, Signature, SystemParams

TAG_COMMIT = 1
TAG_CHALLENGE = 2
TAG_RESPOND = 3
TAG_TRANSCRIPT = 16  # store records only; not a protocol message

SESSION_ID_BYTES = 16
MAX_RETRIES = 4  # degenerate attempts rerun before a session raises Degenerate


ProtocolMessage = Union[Commitment, BlindedChallenge, Response]


@dataclass(frozen=True)
class Transcript:
    """Signer-side view of one session plus bookkeeping metadata."""

    session_id: bytes
    signer_identity: bytes
    commitment: G1Point
    challenge: int
    response: G1Point
    started_ms: int
    finished_ms: int


@dataclass(frozen=True)
class SessionOutcome:
    """A completed local session.  `blinding` is the user side's state of the
    decisive attempt: its blinding factors x and y and the message."""

    signature: Signature
    transcript: Transcript
    retries: int
    blinding: scheme.BlindState


# ---------------------------------------------------------------------------
# message framing: tag byte || 4-byte big-endian payload length || payload


def _frame(tag: int, payload: bytes) -> bytes:
    return bytes([tag]) + len(payload).to_bytes(4, "big") + payload


def encode_message(message: ProtocolMessage, params: CurveParams) -> bytes:
    if isinstance(message, Commitment):
        return _frame(TAG_COMMIT, message.point.encode())
    if isinstance(message, BlindedChallenge):
        return _frame(TAG_CHALLENGE, scheme.encode_scalar(message.value, params))
    if isinstance(message, Response):
        return _frame(TAG_RESPOND, message.point.encode())
    raise TypeError(f"not a protocol message: {message!r}")


def _split_frame(data: bytes, expect_exhausted: bool) -> tuple[int, bytes, int]:
    """Return (tag, payload, total length); never reads past the declared length."""
    if len(data) == 0:
        raise DecodeError("empty frame", 0)
    if len(data) < 5:
        raise DecodeError("truncated frame header", len(data))
    tag = data[0]
    length = int.from_bytes(data[1:5], "big")
    if len(data) < 5 + length:
        raise DecodeError("frame payload shorter than declared", len(data))
    if expect_exhausted and len(data) > 5 + length:
        raise DecodeError("trailing bytes after frame", 5 + length)
    return tag, data[5 : 5 + length], 5 + length


def _decode_scalar_payload(payload: bytes, params: CurveParams, offset: int) -> int:
    width = scheme.scalar_width(params)
    if len(payload) != width:
        raise DecodeError(f"challenge payload must be {width} bytes", offset)
    value = int.from_bytes(payload, "big")
    if value >= params.q:
        raise DecodeError("challenge out of range", offset)
    return value


def _decode_point_payload(payload: bytes, params: CurveParams, offset: int) -> G1Point:
    point, consumed = decode_point(payload, params, offset)
    if consumed != len(payload):
        raise DecodeError("trailing bytes in point payload", offset + consumed)
    return point


def decode_message(data: bytes, params: CurveParams) -> ProtocolMessage:
    """Parse exactly one protocol frame; round-trips encode_message."""
    tag, payload, _ = _split_frame(data, expect_exhausted=True)
    if tag == TAG_COMMIT:
        return Commitment(_decode_point_payload(payload, params, 5))
    if tag == TAG_CHALLENGE:
        return BlindedChallenge(_decode_scalar_payload(payload, params, 5))
    if tag == TAG_RESPOND:
        return Response(_decode_point_payload(payload, params, 5))
    raise DecodeError(f"unknown tag {tag}", 0)


# ---------------------------------------------------------------------------
# transcript records (store file format)


def _lv(blob: bytes) -> bytes:
    if len(blob) > 0xFFFF:
        raise ValueError("field too long for 2-byte length prefix")
    return len(blob).to_bytes(2, "big") + blob


class _Reader:
    def __init__(self, data: bytes, base: int):
        self.data = data
        self.pos = 0
        self.base = base

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise DecodeError(f"truncated {what}", self.base + len(self.data))
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def take_lv(self, what: str) -> bytes:
        n = int.from_bytes(self.take(2, what), "big")
        return self.take(n, what)

    def done(self) -> None:
        if self.pos != len(self.data):
            raise DecodeError("trailing bytes in transcript record", self.base + self.pos)


def encode_transcript(t: Transcript, params: CurveParams) -> bytes:
    payload = (
        _lv(t.session_id)
        + _lv(t.signer_identity)
        + t.commitment.encode()
        + scheme.encode_scalar(t.challenge, params)
        + t.response.encode()
        + t.started_ms.to_bytes(8, "big")
        + t.finished_ms.to_bytes(8, "big")
    )
    return _frame(TAG_TRANSCRIPT, payload)


def decode_transcript(data: bytes, params: CurveParams) -> tuple[Transcript, int]:
    """Parse one transcript frame from the head of `data`."""
    tag, payload, total = _split_frame(data, expect_exhausted=False)
    if tag != TAG_TRANSCRIPT:
        raise DecodeError(f"not a transcript record (tag {tag})", 0)
    r = _Reader(payload, 5)
    session_id = r.take_lv("session id")
    identity = r.take_lv("signer identity")
    commitment, used = decode_point(payload[r.pos :], params, 5 + r.pos)
    r.pos += used
    challenge = _decode_scalar_payload(
        r.take(scheme.scalar_width(params), "challenge"), params, 5 + r.pos
    )
    response, used = decode_point(payload[r.pos :], params, 5 + r.pos)
    r.pos += used
    started = int.from_bytes(r.take(8, "start timestamp"), "big")
    finished = int.from_bytes(r.take(8, "finish timestamp"), "big")
    r.done()
    t = Transcript(
        session_id=session_id,
        signer_identity=identity,
        commitment=commitment,
        challenge=challenge,
        response=response,
        started_ms=started,
        finished_ms=finished,
    )
    return t, total


# ---------------------------------------------------------------------------
# state machines: each side only ever exposes its legal next step


@dataclass(frozen=True)
class SignerAwaitingChallenge:
    """Signer after sending the commitment; can only respond."""

    system: SystemParams
    state: scheme.SignerState

    def respond(self, challenge: BlindedChallenge) -> Response:
        return scheme.sign_respond(self.system, self.state, challenge)


def begin_sign(
    system: SystemParams, signer: KeyPair, rng
) -> tuple[SignerAwaitingChallenge, Commitment]:
    state, commitment = scheme.sign_commit(system, signer, rng)
    return SignerAwaitingChallenge(system, state), commitment


@dataclass(frozen=True)
class UserAwaitingResponse:
    """User after sending the blinded challenge; can only unblind."""

    system: SystemParams
    state: scheme.BlindState

    def unblind(self, response: Response, verifier_public: G1Point) -> Signature:
        return scheme.unblind(self.system, self.state, response, verifier_public)


def begin_blind(
    system: SystemParams,
    message: bytes,
    commitment: Commitment,
    signer_public: G1Point,
    rng,
) -> tuple[UserAwaitingResponse, BlindedChallenge]:
    state, challenge = scheme.blind(system, message, commitment, signer_public, rng)
    return UserAwaitingResponse(system, state), challenge


# ---------------------------------------------------------------------------
# local runner


def _now_ms() -> int:
    return time.time_ns() // 1_000_000


class LogicalClock:
    """Deterministic clock for seeded runs: 0, 1, 2, ... ms."""

    def __init__(self):
        self._tick = -1

    def __call__(self) -> int:
        self._tick += 1
        return self._tick


def run_local_session(
    system: SystemParams,
    signer: KeyPair,
    message: bytes,
    verifier_public: G1Point,
    rng,
    store: "TranscriptStore | None" = None,
    clock=None,
) -> SessionOutcome:
    """Run commit -> blind -> respond -> unblind in one process.

    A degenerate response (V = identity, i.e. r + h1 = 0 mod q) aborts the
    attempt; the whole session reruns with fresh randomness up to
    MAX_RETRIES times, then raises Degenerate.  Draws are the session id,
    then r, x and y per attempt.  Only the decisive attempt's transcript is
    returned and recorded in `store`; a session that raises records nothing.
    """
    clock = clock or _now_ms
    session_id = rng.next_bytes(SESSION_ID_BYTES)
    for attempt in range(MAX_RETRIES + 1):
        started = clock()
        signer_side, commitment = begin_sign(system, signer, rng)
        user_side, challenge = begin_blind(system, message, commitment, signer.public, rng)
        response = signer_side.respond(challenge)
        finished = clock()
        if response.degenerate:
            continue
        transcript = Transcript(
            session_id=session_id,
            signer_identity=signer.identity,
            commitment=commitment.point,
            challenge=challenge.value,
            response=response.point,
            started_ms=started,
            finished_ms=finished,
        )
        signature = user_side.unblind(response, verifier_public)
        if store is not None:
            store.record(transcript)
        return SessionOutcome(signature, transcript, attempt, user_side.state)
    raise Degenerate(
        f"signing session stayed degenerate (r + h1 = 0 mod q) in {MAX_RETRIES + 1} attempts"
    )


# ---------------------------------------------------------------------------
# transcript stores


@dataclass
class TranscriptStore:
    """Append-only in-memory store keyed by session id, insertion-ordered.

    Appends are serialized with a lock; sessions running on different threads
    may share one store.
    """

    _by_id: dict[bytes, Transcript] = field(default_factory=dict)
    _lock: threading.RLock = field(default_factory=threading.RLock)

    def record(self, transcript: Transcript) -> None:
        with self._lock:
            if transcript.session_id in self._by_id:
                raise DuplicateSession(
                    f"session {transcript.session_id.hex()} already recorded"
                )
            self._by_id[transcript.session_id] = transcript

    def get(self, session_id: bytes) -> Transcript:
        return self._by_id[session_id]

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Transcript]:
        return iter(self._by_id.values())


class FileTranscriptStore(TranscriptStore):
    """Store backed by an append-only file of transcript frames.  A malformed
    record is a DecodeError naming the file and the offset in it."""

    def __init__(self, path: str | Path, params: CurveParams):
        super().__init__()
        self.path = Path(path)
        self.params = params
        if self.path.exists():
            data = self.path.read_bytes()
            pos = 0
            while pos < len(data):
                try:
                    transcript, used = decode_transcript(data[pos:], params)
                except DecodeError as exc:
                    raise DecodeError(f"{self.path}: {exc.reason}", pos + exc.position) from None
                super().record(transcript)
                pos += used

    def record(self, transcript: Transcript) -> None:
        with self._lock:
            super().record(transcript)
            with self.path.open("ab") as fh:
                fh.write(encode_transcript(transcript, self.params))
