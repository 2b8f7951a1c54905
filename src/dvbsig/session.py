"""The interactive three-move signing protocol: wire framing for the messages
that cross the signer/user boundary (scheme's Commitment, BlindedChallenge
and Response), state machines for both sides, a local in-process runner
that reruns degenerate sessions a fixed number of times, the verifier-side
simulation that reruns them the same way, and append-only transcript stores.

A transcript is exactly the signer's view of one session: the commitment it
sent, the blinded challenge it received, and the response it returned.  It
never contains the message, the blinding factors, or the final signature.
"""

from __future__ import annotations

import fcntl
import os
import threading
import time
from pathlib import Path
from typing import NamedTuple, Union

from . import scheme
from .algebra import encode_int
from .curve import CurveParams, G1Point, Reader
from .errors import DecodeError, Degenerate, DuplicateSession
from .scheme import BlindedChallenge, Commitment, KeyPair, Response, Signature, SystemParams

TAG_COMMIT = 1
TAG_CHALLENGE = 2
TAG_RESPOND = 3
TAG_TRANSCRIPT = 16  # store records only; not a protocol message

SESSION_ID_BYTES = 16
MAX_RETRIES = 4  # degenerate attempts rerun before a session raises Degenerate


ProtocolMessage = Union[Commitment, BlindedChallenge, Response]


class Transcript(NamedTuple):
    """Signer-side view of one session plus bookkeeping metadata."""

    session_id: bytes
    signer_identity: bytes
    commitment: G1Point
    challenge: int
    response: G1Point
    started_ms: int
    finished_ms: int


class SessionOutcome(NamedTuple):
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


def _open_frame(r: Reader) -> tuple[int, Reader]:
    """Read the frame at the head of `r`: its tag, and a cursor over exactly
    the declared payload, which starts at byte 5."""
    header = r.take(5, "frame header")
    return header[0], Reader(r.take(int.from_bytes(header[1:], "big"), "frame payload"), 5)


def encode_message(message: ProtocolMessage, params: CurveParams) -> bytes:
    if isinstance(message, Commitment):
        return _frame(TAG_COMMIT, message.point.encode())
    if isinstance(message, BlindedChallenge):
        return _frame(TAG_CHALLENGE, encode_int(message.value, params.q))
    if isinstance(message, Response):
        return _frame(TAG_RESPOND, message.point.encode())
    raise TypeError(f"not a protocol message: {message!r}")


def decode_message(data: bytes, params: CurveParams) -> ProtocolMessage:
    """Parse exactly one protocol frame; round-trips encode_message."""
    r = Reader(data)
    tag, body = _open_frame(r)
    r.done("after frame")
    if tag == TAG_COMMIT:
        message = Commitment(body.point(params))
    elif tag == TAG_CHALLENGE:
        message = BlindedChallenge(body.scalar(params.q, "challenge"))
    elif tag == TAG_RESPOND:
        message = Response(body.point(params))
    else:
        raise DecodeError(f"unknown tag {tag}", 0)
    body.done("in frame payload")
    return message


# ---------------------------------------------------------------------------
# transcript records (store file format)


def _lv(blob: bytes) -> bytes:
    if len(blob) > 0xFFFF:
        raise ValueError("field too long for 2-byte length prefix")
    return len(blob).to_bytes(2, "big") + blob


def encode_transcript(t: Transcript, params: CurveParams) -> bytes:
    payload = (
        _lv(t.session_id)
        + _lv(t.signer_identity)
        + t.commitment.encode()
        + encode_int(t.challenge, params.q)
        + t.response.encode()
        + t.started_ms.to_bytes(8, "big")
        + t.finished_ms.to_bytes(8, "big")
    )
    return _frame(TAG_TRANSCRIPT, payload)


def decode_transcript(data: bytes, params: CurveParams) -> tuple[Transcript, int]:
    """Parse one transcript frame from the head of `data`; returns it and
    the frame's length.  U and V get every check of `decode_point` but the
    order-q one, which the caller owes them (`point_fault`) before they are
    used."""
    r = Reader(data)
    tag, body = _open_frame(r)
    if tag != TAG_TRANSCRIPT:
        raise DecodeError(f"not a transcript record (tag {tag})", 0)
    t = Transcript(
        session_id=bytes(body.take_lv("session id")),
        signer_identity=bytes(body.take_lv("signer identity")),
        commitment=body.curve_point(params),
        challenge=body.scalar(params.q, "challenge"),
        response=body.curve_point(params),
        started_ms=int.from_bytes(body.take(8, "start timestamp"), "big"),
        finished_ms=int.from_bytes(body.take(8, "finish timestamp"), "big"),
    )
    body.done("in transcript record")
    return t, r.pos


# ---------------------------------------------------------------------------
# state machines: each side only ever exposes its legal next step


class SignerAwaitingChallenge(NamedTuple):
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


class UserAwaitingResponse(NamedTuple):
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


def wall_clock_ms() -> int:
    """Milliseconds since the epoch: the clock of unseeded runs."""
    return time.time_ns() // 1_000_000


class LogicalClock:
    """Deterministic clock for seeded runs: start, start + 1, ... ms."""

    def __init__(self, start: int = 0):
        self._tick = start - 1

    def __call__(self) -> int:
        self._tick += 1
        return self._tick


def run_local_session(
    system: SystemParams,
    signer: KeyPair,
    message: bytes,
    verifier_public: G1Point,
    rng,
    store: "TranscriptStore | FileTranscriptStore | None" = None,
    clock=None,
) -> SessionOutcome:
    """Run commit -> blind -> respond -> unblind in one process.

    A degenerate response (V = identity, i.e. r + h1 = 0 mod q) aborts the
    attempt; the whole session reruns with fresh randomness up to
    MAX_RETRIES times, then raises Degenerate.  Draws are the session id,
    then r, x and y per attempt.  Only the decisive attempt's transcript is
    returned and recorded in `store`; a session that raises records nothing.
    """
    clock = clock or wall_clock_ms
    session_id = rng.next_bytes(SESSION_ID_BYTES)
    outcome = _sound_attempt(system, signer, message, verifier_public, rng, clock, session_id)
    if store is not None:
        store.record(outcome.transcript)
    return outcome


def simulate(
    system: SystemParams, signer_public: G1Point, verifier_secret: G1Point, message: bytes, rng
) -> Signature:
    """Verifier-side transcript simulation.

    Runs the four signing steps with the signer's public key Q_s standing in
    for the private one, and the verifier's secret S_v in place of Q_v inside
    the pairing:  e(x(r+h1) * Q_s, S_v) = e(x(r+h1) * S_s, Q_v).
    Under a matched random tape the output is bit-identical to a real run.
    A degenerate attempt, whose sigma = 1 every verifier accepts, reruns.
    """
    stand_in = KeyPair(identity=b"", public=signer_public, secret=signer_public)
    outcome = _sound_attempt(system, stand_in, message, verifier_secret, rng, LogicalClock(), b"")
    return outcome.signature


def _sound_attempt(
    system: SystemParams, signer: KeyPair, message: bytes, verifier_key: G1Point, rng, clock,
    session_id: bytes,
) -> SessionOutcome:
    """The first attempt of up to MAX_RETRIES + 1 whose response is not
    degenerate, unblinded with `verifier_key`; each attempt draws r, x and y,
    and `session_id` only labels the transcript."""
    for attempt in range(MAX_RETRIES + 1):
        started = clock()
        signer_side, commitment = begin_sign(system, signer, rng)
        user_side, challenge = begin_blind(system, message, commitment, signer.public, rng)
        response = signer_side.respond(challenge)
        finished = clock()
        if response.degenerate:
            continue
        transcript = Transcript(
            session_id=session_id, signer_identity=signer.identity,
            commitment=commitment.point, challenge=challenge.value, response=response.point,
            started_ms=started, finished_ms=finished,
        )
        signature = user_side.unblind(response, verifier_key)
        return SessionOutcome(signature, transcript, attempt, user_side.state)
    raise Degenerate(
        f"signing session stayed degenerate (r + h1 = 0 mod q) in {MAX_RETRIES + 1} attempts"
    )


# ---------------------------------------------------------------------------
# transcript stores


class TranscriptStore:
    """Append-only in-memory store keyed by session id.  Appends are
    serialized with a lock; sessions running on different threads may share
    one store."""

    def __init__(self):
        self._by_id: dict[bytes, Transcript] = {}
        self._lock = threading.Lock()

    def record(self, transcript: Transcript) -> None:
        with self._lock:
            if transcript.session_id in self._by_id:
                raise DuplicateSession(f"session {transcript.session_id.hex()} already recorded")
            self._by_id[transcript.session_id] = transcript

    def get(self, session_id: bytes) -> Transcript:
        return self._by_id[session_id]


class FileTranscriptStore:
    """Append-only file of transcript frames that keeps only the session ids
    it holds, all that refusing a repeated one needs.

    The file is read in one place, `record`, under the exclusive
    `fcntl.flock` it appends under: it reads, a frame at a time, what was
    appended since it last looked, refuses a session id already in the file
    and appends.  So no session is recorded twice, whoever races.  Each
    record read is checked whole but for the order of its two points, so no
    curve arithmetic runs; a malformed record, or one repeating an earlier
    record's session id, is a DecodeError naming the file and the offset in
    it, and the file is left as it was."""

    def __init__(self, path: str | Path, params: CurveParams):
        self.path = Path(path)
        self.params = params
        self._ids: set[bytes] = set()
        self._read = 0  # bytes of the file decoded so far
        self._lock = threading.Lock()

    def _catch_up(self, fh) -> None:
        """Decode the records past the first `_read` bytes of the locked file,
        one frame at a time.  `_read` passes each record as it is kept, so
        after an error a retry starts at the record at fault."""
        end = fh.seek(0, os.SEEK_END)
        fh.seek(self._read)
        while self._read < end:
            header = fh.read(5)
            # a damaged length reads no further than the end of the file
            size = min(int.from_bytes(header[1:], "big"), end - self._read - len(header))
            frame = header + fh.read(size)
            try:
                transcript, _ = decode_transcript(frame, self.params)
            except DecodeError as exc:
                raise DecodeError(f"{self.path}: {exc.reason}", self._read + exc.position) from None
            if transcript.session_id in self._ids:
                raise DecodeError(
                    f"{self.path}: repeated session id {transcript.session_id.hex()}", self._read
                )
            self._ids.add(transcript.session_id)
            self._read += len(frame)

    def record(self, transcript: Transcript) -> None:
        # encoded first: a transcript the log cannot hold changes nothing
        frame = encode_transcript(transcript, self.params)
        with self._lock, self.path.open("a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            self._catch_up(fh)
            if transcript.session_id in self._ids:
                raise DuplicateSession(f"session {transcript.session_id.hex()} already recorded")
            fh.write(frame)
            self._ids.add(transcript.session_id)
            self._read += len(frame)
