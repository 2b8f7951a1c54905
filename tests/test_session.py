import pytest
from hypothesis import given, strategies as st

from dvbsig import curve, scheme, session
from dvbsig.algebra import byte_width
from dvbsig.curve import G1Point, decode_gt, decode_point, point_add, scalar_mul, tate_pairing
from dvbsig.errors import DecodeError, Degenerate, DuplicateSession
from dvbsig.rng import SeededRng
from dvbsig.scheme import (
    BlindedChallenge,
    Commitment,
    Response,
    Signature,
    decode_signature,
    encode_signature,
)
from dvbsig.session import (
    MAX_RETRIES,
    TAG_TRANSCRIPT,
    FileTranscriptStore,
    LogicalClock,
    Transcript,
    TranscriptStore,
    begin_blind,
    begin_sign,
    decode_message,
    decode_transcript,
    encode_message,
    encode_transcript,
    run_local_session,
)
from tests.conftest import TOY_SIGNER, TOY_VERIFIER, find_tape_triples, read_log, session_tape

Q = 13
MESSAGE = b"settle the invoice"


@pytest.fixture()
def mul_raw_calls(monkeypatch):
    """The arguments of every `curve._mul_raw` call (products, order-q
    checks and cofactor clearings) made from here on."""
    calls, mul = [], curve._mul_raw
    monkeypatch.setattr(curve, "_mul_raw", lambda *args: calls.append(args) or mul(*args))
    return calls


def assert_same_message(decoded, message):
    # records are tuples: Commitment(P) == Response(P), so the type is checked too
    assert type(decoded) is type(message) and decoded == message


class TestFraming:
    def test_roundtrip_all_variants(self, toy_params):
        g = toy_params.generator
        for message in (
            Commitment(g),
            Commitment(G1Point.identity(toy_params.p)),
            BlindedChallenge(0),
            BlindedChallenge(12),
            Response(scalar_mul(5, g)),
        ):
            encoded = encode_message(message, toy_params)
            assert_same_message(decode_message(encoded, toy_params), message)

    @given(k=st.integers(min_value=0, max_value=12))
    def test_roundtrip_any_subgroup_point(self, toy_params, k):
        message = Commitment(scalar_mul(k, toy_params.generator))
        encoded = encode_message(message, toy_params)
        assert_same_message(decode_message(encoded, toy_params), message)

    def test_empty_input(self, toy_params):
        with pytest.raises(DecodeError):
            decode_message(b"", toy_params)

    def test_unknown_tag(self, toy_params):
        for tag in (7, 255):
            with pytest.raises(DecodeError, match=f"unknown tag {tag}"):
                decode_message(bytes([tag]) + (0).to_bytes(4, "big"), toy_params)

    def test_truncated_header_and_payload(self, toy_params):
        with pytest.raises(DecodeError):
            decode_message(b"\x01\x00", toy_params)
        with pytest.raises(DecodeError):
            decode_message(b"\x01" + (5).to_bytes(4, "big") + b"\x04", toy_params)

    def test_trailing_bytes(self, toy_params):
        good = encode_message(BlindedChallenge(3), toy_params)
        with pytest.raises(DecodeError, match="trailing"):
            decode_message(good + b"\x00", toy_params)

    def test_challenge_range_enforced(self, toy_params):
        framed = b"\x02" + (1).to_bytes(4, "big") + bytes([13])
        with pytest.raises(DecodeError, match="out of range"):
            decode_message(framed, toy_params)

    def test_encode_refuses_a_non_message(self, toy_params):
        with pytest.raises(TypeError, match="not a protocol message"):
            encode_message(toy_params.generator, toy_params)

    def test_declared_length_is_the_boundary(self, toy_params):
        # decoder must not interpret bytes past the declared payload length
        inner = encode_message(BlindedChallenge(3), toy_params)
        padded = inner[:5] + inner[5:]
        assert_same_message(decode_message(padded, toy_params), BlindedChallenge(3))

    @given(blob=st.binary(max_size=64))
    def test_fuzz_never_crashes(self, toy_params, blob):
        try:
            decode_message(blob, toy_params)
        except DecodeError:
            pass


class TestTranscriptCodec:
    def _transcript(self, toy_params):
        g = toy_params.generator
        return Transcript(
            session_id=bytes(range(16)),
            signer_identity=b"alice",
            commitment=scalar_mul(3, g),
            challenge=7,
            response=scalar_mul(9, g),
            started_ms=1_700_000_000_123,
            finished_ms=1_700_000_000_456,
        )

    def test_roundtrip(self, toy_params):
        t = self._transcript(toy_params)
        decoded, consumed = decode_transcript(encode_transcript(t, toy_params), toy_params)
        assert decoded == t
        assert consumed == len(encode_transcript(t, toy_params))

    def test_concatenated_records(self, toy_params):
        t = self._transcript(toy_params)
        blob = encode_transcript(t, toy_params) * 3
        seen, pos = [], 0
        while pos < len(blob):
            record, used = decode_transcript(blob[pos:], toy_params)
            seen.append(record)
            pos += used
        assert seen == [t, t, t]

    def test_identity_longer_than_its_length_prefix_refused(self, toy_params):
        t = self._transcript(toy_params)._replace(signer_identity=bytes(0xFFFF))
        assert decode_transcript(encode_transcript(t, toy_params), toy_params)[0] == t
        with pytest.raises(ValueError, match="too long for 2-byte length prefix"):
            encode_transcript(t._replace(signer_identity=bytes(0x10000)), toy_params)

    def test_protocol_frame_rejected(self, toy_params):
        framed = encode_message(BlindedChallenge(3), toy_params)
        with pytest.raises(DecodeError, match="not a transcript"):
            decode_transcript(framed, toy_params)


def _layout(*fields):
    """(kind, start, end) per (kind, length), laid end to end from byte 0."""
    out, pos = [], 0
    for kind, n in fields:
        out.append((kind, pos, pos + n))
        pos += n
    return out


def _refused(decode, raw, params) -> bool:
    try:
        decode(raw, params)
    except DecodeError:
        return True
    return False


class TestFieldOffsets:
    """Every decoder names a byte inside the field at fault; data that runs
    out (a cut, or a length that claims more than is there) is named at its
    end."""

    def _artifacts(self, params, k, v):
        """(blob, decode, fields, valid tags) for each binary artifact."""
        g = params.generator
        point, gt = 1 + 2 * byte_width(params.p), 2 * byte_width(params.p)
        scalar = byte_width(params.q)
        frames = [
            (Commitment(scalar_mul(k, g)), "point", point),
            (BlindedChallenge(v), "scalar", scalar),
            (Response(scalar_mul(v or 1, g)), "point", point),
        ]
        out = [
            (
                encode_message(message, params),
                decode_message,
                _layout(("tag", 1), ("length", 4), (kind, n)),
                {1, 2, 3},
            )
            for message, kind, n in frames
        ]
        t = Transcript(
            session_id=bytes(range(16)),
            signer_identity=b"alice",
            commitment=scalar_mul(k, g),
            challenge=v,
            response=scalar_mul(12, g),
            started_ms=1,
            finished_ms=2,
        )
        out.append(
            (
                encode_transcript(t, params),
                decode_transcript,
                _layout(
                    ("tag", 1), ("length", 4), ("lv", 2), ("opaque", 16), ("lv", 2),
                    ("opaque", 5), ("curve point", point), ("scalar", scalar),
                    ("curve point", point),
                    ("opaque", 8), ("opaque", 8),
                ),
                {TAG_TRANSCRIPT},
            )
        )
        signature = Signature(scalar_mul(k, g), tate_pairing(g, scalar_mul(v or 1, g), params))
        out.append(
            (
                encode_signature(signature),
                decode_signature,
                _layout(("point", point), ("gt", gt)),
                set(),
            )
        )
        return out

    def _corruption(self, params, kind, blob, start, end, tags):
        """Bytes for blob[start:end] that the decoder must refuse."""
        n = end - start
        if kind == "tag":
            return st.integers(0, 255).filter(lambda t: t not in tags).map(lambda t: bytes([t]))
        if kind == "length":  # more payload than the frame holds
            return st.integers(len(blob) - 4, 2**32 - 1).map(lambda x: x.to_bytes(4, "big"))
        if kind == "lv":  # more bytes than the record has left
            return st.integers(len(blob) - end + 1, 0xFFFF).map(lambda x: x.to_bytes(2, "big"))
        if kind == "scalar":
            return st.integers(params.q, 256**n - 1).map(lambda x: x.to_bytes(n, "big"))
        # a record's reader owes its points the order-q check, so the
        # record parser refuses less than decode_point
        decode = {
            "point": decode_point,
            "curve point": lambda raw, p: curve.Reader(raw).curve_point(p),
            "gt": decode_gt,
        }[kind]
        return st.binary(min_size=n, max_size=n).filter(lambda raw: _refused(decode, raw, params))

    @given(data=st.data(), k=st.integers(1, 12), v=st.integers(0, 12))
    def test_corrupt_field_named_inside_it(self, toy_params, data, k, v):
        blob, decode, fields, tags = data.draw(
            st.sampled_from(self._artifacts(toy_params, k, v))
        )
        kind, start, end = data.draw(st.sampled_from([f for f in fields if f[0] != "opaque"]))
        raw = data.draw(self._corruption(toy_params, kind, blob, start, end, tags))
        with pytest.raises(DecodeError) as info:
            decode(blob[:start] + raw + blob[end:], toy_params)
        if kind in ("length", "lv"):
            assert info.value.position == len(blob)
        else:
            assert start <= info.value.position < end, (kind, start, end)

    @given(data=st.data(), k=st.integers(1, 12), v=st.integers(0, 12))
    def test_cut_named_at_end(self, toy_params, data, k, v):
        blob, decode, _, _ = data.draw(st.sampled_from(self._artifacts(toy_params, k, v)))
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(DecodeError) as info:
            decode(blob[:cut], toy_params)
        assert info.value.position == cut

    def test_trailing_bytes_named_at_first(self, toy_params):
        for blob, decode, _, _ in self._artifacts(toy_params, 3, 7):
            if decode is decode_transcript:  # a log holds records back to back
                assert decode(blob + b"\x00", toy_params)[1] == len(blob)
                continue
            with pytest.raises(DecodeError, match="trailing") as info:
                decode(blob + b"\x00", toy_params)
            assert info.value.position == len(blob)


class TestStateMachines:
    def test_legal_flow_produces_valid_signature(self, toy_system, toy_keys):
        system, _ = toy_system
        signer, verifier = toy_keys[TOY_SIGNER], toy_keys[TOY_VERIFIER]
        rng = SeededRng("machine")
        signer_side, commit = begin_sign(system, signer, rng)
        user_side, challenge = begin_blind(system, MESSAGE, commit, signer.public, rng)
        respond = signer_side.respond(challenge)
        signature = user_side.unblind(respond, verifier.public)
        assert scheme.verify(system, verifier.secret, signer.public, MESSAGE, signature)

    def test_out_of_order_steps_unrepresentable(self):
        # responding requires a SignerAwaitingChallenge, which only begin_sign
        # constructs; there is no module-level respond/unblind to call early
        assert not hasattr(session, "respond")
        assert not hasattr(session, "unblind")


class TestLocalRunner:
    def test_honest_session(self, toy_system, toy_keys):
        system, _ = toy_system
        outcome = run_local_session(
            system,
            toy_keys[TOY_SIGNER],
            MESSAGE,
            toy_keys[TOY_VERIFIER].public,
            SeededRng("runner"),
            clock=LogicalClock(),
        )
        assert outcome.blinding.message == MESSAGE
        assert scheme.verify(
            system,
            toy_keys[TOY_VERIFIER].secret,
            toy_keys[TOY_SIGNER].public,
            MESSAGE,
            outcome.signature,
        )
        t = outcome.transcript
        assert t.signer_identity == TOY_SIGNER
        assert t.started_ms <= t.finished_ms

    def test_transcript_is_exactly_signer_view(self, toy_system, toy_keys):
        system, _ = toy_system
        outcome = run_local_session(
            system,
            toy_keys[TOY_SIGNER],
            MESSAGE,
            toy_keys[TOY_VERIFIER].public,
            SeededRng("view"),
            clock=LogicalClock(),
        )
        fields = set(Transcript._fields)
        assert fields == {
            "session_id",
            "signer_identity",
            "commitment",
            "challenge",
            "response",
            "started_ms",
            "finished_ms",
        }
        # the signer-side pairing identity ties the recorded V to (U, h1)
        t = outcome.transcript
        from dvbsig.curve import tate_pairing

        lhs = tate_pairing(t.response, system.curve.generator, system.curve)
        rhs = tate_pairing(
            point_add(
                t.commitment, scalar_mul(t.challenge, toy_keys[TOY_SIGNER].public)
            ),
            system.p_pub,
            system.curve,
        )
        assert lhs == rhs

    def test_message_taint_reaches_transcript_only_via_challenge(
        self, toy_system, toy_keys
    ):
        system, _ = toy_system
        signer = toy_keys[TOY_SIGNER]
        # two sessions, identical random tapes, different messages
        messages = (b"first message", b"second message")
        outcomes = [
            run_local_session(
                system,
                signer,
                m,
                toy_keys[TOY_VERIFIER].public,
                SeededRng("taint-tape"),
                clock=LogicalClock(),
            )
            for m in messages
        ]
        t_a, t_b = outcomes[0].transcript, outcomes[1].transcript
        assert t_a.session_id == t_b.session_id
        assert t_a.commitment == t_b.commitment
        assert (t_a.started_ms, t_a.finished_ms) == (t_b.started_ms, t_b.finished_ms)
        # chosen so the challenge hashes apart at q = 13
        assert t_a.challenge != t_b.challenge
        # the response difference is fully explained by the challenge delta
        delta = (t_b.challenge - t_a.challenge) % Q
        assert t_b.response == point_add(
            t_a.response, scalar_mul(delta, signer.secret)
        )

    def test_degenerate_session_retries_once(self, toy_system, toy_keys):
        system, _ = toy_system
        signer = toy_keys[TOY_SIGNER]
        degenerate, (r2, x2, y2) = find_tape_triples(system, signer, MESSAGE)
        tape = session_tape(Q, degenerate, (r2, x2, y2))
        outcome = run_local_session(
            system,
            signer,
            MESSAGE,
            toy_keys[TOY_VERIFIER].public,
            tape,
            clock=LogicalClock(),
        )
        assert outcome.retries == 1
        # the user-side state is the decisive attempt's
        assert (outcome.blinding.x, outcome.blinding.y) == (x2, y2)
        assert scheme.verify(
            system,
            toy_keys[TOY_VERIFIER].secret,
            signer.public,
            MESSAGE,
            outcome.signature,
        )

    def test_exhausted_attempts_raise_and_record_nothing(self, toy_system, toy_keys, tmp_path):
        system, _ = toy_system
        signer = toy_keys[TOY_SIGNER]
        degenerate, _ = find_tape_triples(system, signer, MESSAGE)
        assert MAX_RETRIES == 4
        tape = session_tape(Q, *[degenerate] * (MAX_RETRIES + 1))
        log = tmp_path / "transcripts.log"
        store = FileTranscriptStore(log, system.curve)
        with pytest.raises(Degenerate):
            run_local_session(
                system,
                signer,
                MESSAGE,
                toy_keys[TOY_VERIFIER].public,
                tape,
                store=store,
                clock=LogicalClock(),
            )
        assert tape.chunks == []  # all MAX_RETRIES + 1 attempts ran
        assert len(store) == 0 and not log.exists()

    def test_store_receives_successful_sessions(self, toy_system, toy_keys):
        system, _ = toy_system
        store = TranscriptStore()
        outcome = run_local_session(
            system,
            toy_keys[TOY_SIGNER],
            MESSAGE,
            toy_keys[TOY_VERIFIER].public,
            SeededRng("stored"),
            store=store,
            clock=LogicalClock(),
        )
        assert len(store) == 1
        assert store.get(outcome.transcript.session_id) == outcome.transcript


class TestTranscriptStore:
    def _transcripts(self, params, n):
        q, g = params.q, params.generator
        return [
            Transcript(
                session_id=i.to_bytes(16, "big"),
                signer_identity=b"alice",
                commitment=scalar_mul(1 + i % 12, g),
                challenge=i % q,
                response=scalar_mul(1 + (i + 3) % 12, g),
                started_ms=i,
                finished_ms=i + 1,
            )
            for i in range(n)
        ]

    def test_write_then_read(self, toy_params):
        store = TranscriptStore()
        (t,) = self._transcripts(toy_params, 1)
        store.record(t)
        assert store.get(t.session_id) == t

    def test_duplicate_rejected(self, toy_params):
        store = TranscriptStore()
        (t,) = self._transcripts(toy_params, 1)
        store.record(t)
        with pytest.raises(DuplicateSession):
            store.record(t)

    def test_order_preserved(self, toy_params):
        store = TranscriptStore()
        transcripts = self._transcripts(toy_params, 10)
        for t in transcripts:
            store.record(t)
        assert len(store) == 10
        assert list(store) == transcripts

    def test_file_store_roundtrip(self, toy_params, tmp_path):
        path = tmp_path / "transcripts.log"
        store = FileTranscriptStore(path, toy_params)
        transcripts = self._transcripts(toy_params, 5)
        for t in transcripts:
            store.record(t)
        reopened = FileTranscriptStore(path, toy_params)
        assert len(reopened) == 5 and read_log(path, toy_params) == transcripts
        with pytest.raises(DuplicateSession):
            reopened.record(transcripts[2])

    @pytest.mark.parametrize(
        "damage", ["stray tail", "second record's commitment tag", "last record's response tag"]
    )
    def test_file_store_error_names_file_and_offset(self, toy_params, tmp_path, damage):
        path = tmp_path / "transcripts.log"
        store = FileTranscriptStore(path, toy_params)
        transcripts = self._transcripts(toy_params, 9 if damage.startswith("last") else 2)
        for t in transcripts:
            store.record(t)
        data = bytearray(path.read_bytes())
        if damage == "stray tail":
            data += b"\x10\x00\x00"
            offset = len(data)  # the header runs out at the end of the file
        else:
            # frame header 5, session id 2 + 16 and identity 2 + 5 bytes, then
            # a 5-byte commitment and a 1-byte challenge before the response
            head = sum(len(encode_transcript(t, toy_params)) for t in transcripts[:-1])
            offset = head + (30 if damage.startswith("second") else 36)
            data[offset] = 0x07
        path.write_bytes(bytes(data))
        with pytest.raises(DecodeError) as info:
            FileTranscriptStore(path, toy_params)
        assert str(info.value).startswith(f"{path}: ")
        assert info.value.position == offset

    def test_file_store_repeated_session_id_names_file_and_offset(self, toy_params, tmp_path):
        path = tmp_path / "transcripts.log"
        a, b = self._transcripts(toy_params, 2)
        record = encode_transcript(a, toy_params)
        message = f"{path}: repeated session id {a.session_id.hex()} (at byte 57)"
        path.write_bytes(record * 2)
        with pytest.raises(DecodeError) as info:
            FileTranscriptStore(path, toy_params)
        assert str(info.value) == message and info.value.position == len(record) == 57
        # the same record appended after the store opened: `record` reads it first
        path.write_bytes(record)
        store = FileTranscriptStore(path, toy_params)
        path.write_bytes(record * 2)
        with pytest.raises(DecodeError) as info:
            store.record(b)
        assert str(info.value) == message
        assert path.read_bytes() == record * 2

    def test_file_store_retry_after_damage_names_the_same_byte(self, toy_params, tmp_path):
        # the records read before the damage are kept once: a retry reports
        # the damage again, not a record it had already read
        path = tmp_path / "transcripts.log"
        a, b, c = self._transcripts(toy_params, 3)
        store = FileTranscriptStore(path, toy_params)
        store.record(a)
        with path.open("ab") as fh:
            fh.write(encode_transcript(b, toy_params) + b"\x10\x00\x00")
        for _ in range(2):
            with pytest.raises(DecodeError) as info:
                store.record(c)
            assert str(info.value) == f"{path}: truncated frame header (at byte 117)"
        assert len(store) == 2

    def test_file_store_refused_record_changes_nothing(self, toy_params, tmp_path):
        # the frame is encoded before the log is opened: a transcript the log
        # cannot hold is not remembered, and creates no file
        path = tmp_path / "transcripts.log"
        store = FileTranscriptStore(path, toy_params)
        (t,) = self._transcripts(toy_params, 1)
        with pytest.raises(OverflowError):
            store.record(t._replace(started_ms=2**64))
        assert len(store) == 0 and not path.exists()
        store.record(t)
        assert read_log(path, toy_params) == [t]

    def test_file_store_reopen_copies_no_tail(self, toy_params, tmp_path, monkeypatch):
        # each record is read from one view of the file, not from a copy of
        # the rest of it, which made reopening quadratic in the log's length
        path = tmp_path / "transcripts.log"
        store = FileTranscriptStore(path, toy_params)
        transcripts = self._transcripts(toy_params, 6)
        for t in transcripts:
            store.record(t)
        seen = []
        decode = session.decode_transcript
        monkeypatch.setattr(
            session, "decode_transcript", lambda data, p: seen.append(data) or decode(data, p)
        )
        reopened = FileTranscriptStore(path, toy_params)
        # each kept id is a copy: a view would hold the whole file in memory
        assert sorted(reopened._ids) == [t.session_id for t in transcripts]
        assert all(type(sid) is bytes for sid in reopened._ids)
        assert len(seen) == 6
        assert all(isinstance(d, memoryview) and d.obj is seen[0].obj for d in seen)

    def test_file_store_sees_records_appended_since_it_opened(self, toy_params, tmp_path):
        # two processes with the log open: the second to record a session id
        # must find the first's record in the file, not append a duplicate
        path = tmp_path / "transcripts.log"
        first, second = (FileTranscriptStore(path, toy_params) for _ in range(2))
        a, b, c = self._transcripts(toy_params, 3)
        first.record(a)
        second.record(b)
        with pytest.raises(DuplicateSession):
            second.record(a)
        first.record(c)
        assert len(first) == 3 and read_log(path, toy_params) == [a, b, c]
        assert len(FileTranscriptStore(path, toy_params)) == 3

    def test_file_store_reopen_keeps_the_product_cache(self, mid_params, tmp_path, mul_raw_calls):
        # reopening runs no curve arithmetic: the records' points get no
        # order-q check, so neither chain cache is even read
        path = tmp_path / "transcripts.log"
        store = FileTranscriptStore(path, mid_params)
        for t in self._transcripts(mid_params, 16):
            store.record(t)
        chains = (curve._doubling_chain, curve._product_chain)
        for cache in chains:
            cache.cache_clear()
        scalar_mul(7, scalar_mul(424242, mid_params.generator))
        before = [cache.cache_info() for cache in chains]
        mul_raw_calls.clear()
        assert len(FileTranscriptStore(path, mid_params)) == 16
        assert mul_raw_calls == []
        assert [cache.cache_info() for cache in chains] == before
        for cache in chains:
            cache.cache_clear()

    def test_file_store_reopens_a_production_log_without_curve_arithmetic(
        self, tmp_path, mul_raw_calls
    ):
        params = curve.params_for_subgroup_order(2**159 + 2**17 + 1, b"log", p_bits=512)
        g = params.generator
        t = Transcript(
            session_id=bytes(16),
            signer_identity=b"alice",
            commitment=scalar_mul(3, g),
            challenge=7,
            response=scalar_mul(9, g),
            started_ms=1,
            finished_ms=2,
        )
        path = tmp_path / "transcripts.log"
        ids = [i.to_bytes(16, "big") for i in range(10**4)]
        path.write_bytes(
            b"".join(encode_transcript(t._replace(session_id=sid), params) for sid in ids)
        )
        mul_raw_calls.clear()
        store = FileTranscriptStore(path, params)
        assert len(store) == 10**4
        assert mul_raw_calls == []
        with pytest.raises(DuplicateSession):
            store.record(t._replace(session_id=ids[-1]))
