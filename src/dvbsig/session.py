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

import fcntl
import threading
import time
from pathlib import Path
from typing import Iterator, NamedTuple, Union

from . import scheme
from .algebra import byte_width, encode_int
from .curve import CurveParams, G1Point, Reader, point_fault
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


def decode_transcript(data: bytes | memoryview, params: CurveParams) -> tuple[Transcript, int]:
    """Parse one transcript frame from the head of `data`, which may be a
    view into a whole log; returns it and the frame's length.  U and V get
    every check of `decode_point` but the order-q one, which the caller
    owes them (`point_fault`) before they are used."""
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
    clock = clock or wall_clock_ms
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


class TranscriptStore:
    """Append-only in-memory store keyed by session id, insertion-ordered.

    Appends are serialized with a lock; sessions running on different threads
    may share one store.
    """

    def __init__(self):
        self._by_id: dict[bytes, Transcript] = {}
        self._lock = threading.RLock()

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
    record, or one repeating an earlier record's session id, is a DecodeError
    naming the file and the offset in it.

    Reading the file checks each record whole but for the order of its two
    points, so opening it needs no curve arithmetic; a record read from the
    file gets that check the first time `get` or iteration hands it out,
    and a point outside the order-q subgroup is then the DecodeError that
    opening the file raised before.

    Processes share the file under `fcntl.flock`: opening reads it under a
    shared lock, and `record` holds an exclusive one while it reads what
    other processes appended since, refuses a session id already in the
    file and appends.  So no session is recorded twice, whoever races."""

    def __init__(self, path: str | Path, params: CurveParams):
        super().__init__()
        self.path = Path(path)
        self.params = params
        self._read = 0  # bytes of the file decoded so far
        self._unchecked: dict[bytes, int] = {}  # session id -> offset of its record
        if self.path.exists():
            with self.path.open("rb") as fh:
                fcntl.flock(fh, fcntl.LOCK_SH)
                self._catch_up(fh)

    def _catch_up(self, fh) -> None:
        """Decode the records past the first `_read` bytes of the locked file.
        `_read` passes each record as it is kept, so after an error a retry
        starts at the record at fault."""
        fh.seek(self._read)
        # one view of the new bytes: each record's slice of it copies nothing
        data = memoryview(fh.read())
        pos = 0
        while pos < len(data):
            at = self._read
            try:
                transcript, used = decode_transcript(data[pos:], self.params)
            except DecodeError as exc:
                raise DecodeError(f"{self.path}: {exc.reason}", at + exc.position) from None
            if transcript.session_id in self._by_id:
                raise DecodeError(
                    f"{self.path}: repeated session id {transcript.session_id.hex()}", at
                )
            self._by_id[transcript.session_id] = transcript
            self._unchecked[transcript.session_id] = at
            pos += used
            self._read += used

    def record(self, transcript: Transcript) -> None:
        # encoded first: a transcript the log cannot hold changes nothing
        frame = encode_transcript(transcript, self.params)
        with self._lock, self.path.open("a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            self._catch_up(fh)
            super().record(transcript)
            fh.write(frame)
            self._read += len(frame)

    def get(self, session_id: bytes) -> Transcript:
        return self._checked(super().get(session_id))

    def __iter__(self) -> Iterator[Transcript]:
        return map(self._checked, super().__iter__())

    def _checked(self, t: Transcript) -> Transcript:
        """`t`, once its points have passed the order-q check that reading
        its record deferred; the error names the first byte of the point's
        x, as `decode_point` does."""
        at = self._unchecked.get(t.session_id)
        if at is not None:
            # frame header, then the two length-prefixed fields before U
            u = at + 9 + len(t.session_id) + len(t.signer_identity)
            v = u + len(t.commitment.encode()) + byte_width(self.params.q)
            for point, offset in ((t.commitment, u), (t.response, v)):
                fault = point_fault(point, self.params.q)
                if fault:
                    raise DecodeError(f"{self.path}: point {fault}", offset + 1)
            self._unchecked.pop(t.session_id, None)
        return t
