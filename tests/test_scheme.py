import pytest
from hypothesis import given, strategies as st

from dvbsig import curve, scheme, session
from dvbsig.curve import (
    G1Point,
    decode_point,
    in_subgroup,
    point_add,
    scalar_mul,
    tate_pairing,
)
from dvbsig.errors import DecodeError, InvalidPoint
from dvbsig.rng import SeededRng
from dvbsig.scheme import (
    BlindedChallenge,
    Commitment,
    Response,
    decode_signature,
    encode_signature,
)
from tests.conftest import (
    TOY_SIGNER,
    TOY_THIRD_PARTY,
    TOY_VERIFIER,
    TapeRng,
    find_tape_triples,
    scalar_chunk,
)
from tests.test_curve import add_oracle, mul_oracle, neg, off_subgroup_point

P, Q = 311, 13
MESSAGE = b"proof of funds"


class TestSetup:
    def test_deterministic(self, toy_params):
        first = scheme.setup(toy_params, SeededRng("test-0"))
        second = scheme.setup(toy_params, SeededRng("test-0"))
        assert first == second

    def test_regression_master_key(self, toy_system):
        system, s = toy_system
        assert s == 8  # pinned output of the "test-0" stream
        assert (system.p_pub.x, system.p_pub.y) == mul_oracle(
            P, s, (system.curve.gx, system.curve.gy)
        )

    def test_public_key_pairs_with_generator(self, toy_system):
        system, s = toy_system
        g = system.curve.generator
        assert tate_pairing(system.p_pub, g, system.curve).value == tate_pairing(
            g, g, system.curve
        ).value ** s


class TestKeygen:
    def test_deterministic(self, toy_system):
        system, msk = toy_system
        assert scheme.keygen(system, msk, b"alice") == scheme.keygen(system, msk, b"alice")

    def test_publicly_checkable(self, toy_system, toy_keys):
        # e(S, P) = e(Q, Ppub): key validity without the master secret
        system, _ = toy_system
        g = system.curve.generator
        for key in toy_keys.values():
            assert tate_pairing(key.secret, g, system.curve) == tate_pairing(
                key.public, system.p_pub, system.curve
            )

    def test_distinct_identities_distinct_keys(self, toy_keys):
        assert toy_keys[TOY_SIGNER].public != toy_keys[TOY_VERIFIER].public

    def test_secret_is_master_multiple(self, toy_system, toy_keys):
        system, s = toy_system
        key = toy_keys[TOY_SIGNER]
        assert (key.secret.x, key.secret.y) == mul_oracle(
            P, s, (key.public.x, key.public.y)
        )


class TestChallengeHash:
    def test_deterministic(self, toy_params):
        g = toy_params.generator
        assert scheme.h2(b"hello", g, Q) == scheme.h2(b"hello", g, Q)

    def test_regression_value(self, toy_params):
        assert scheme.h2(b"hello", toy_params.generator, Q) == 10

    @given(message=st.binary(max_size=64), k=st.integers(min_value=0, max_value=12))
    def test_never_zero(self, toy_params, message, k):
        point = scalar_mul(k, toy_params.generator)
        assert 1 <= scheme.h2(message, point, Q) <= Q - 1

    def test_never_zero_bulk(self, toy_params):
        g = toy_params.generator
        values = {scheme.h2(str(i).encode(), g, Q) for i in range(10_000)}
        assert 0 not in values
        assert values == set(range(1, Q))


class TestCommit:
    def test_never_identity(self, toy_system, toy_keys):
        system, _ = toy_system
        rng = SeededRng("commit-bulk")
        for _ in range(200):
            _, commitment = scheme.sign_commit(system, toy_keys[TOY_SIGNER], rng)
            assert not commitment.point.is_identity

    def test_seeded_replay(self, toy_system, toy_keys):
        system, _ = toy_system
        a = scheme.sign_commit(system, toy_keys[TOY_SIGNER], SeededRng("r"))
        b = scheme.sign_commit(system, toy_keys[TOY_SIGNER], SeededRng("r"))
        assert a == b

    def test_fixed_r_matches_repeated_addition(self, toy_system, toy_keys):
        system, _ = toy_system
        signer = toy_keys[TOY_SIGNER]
        state, commitment = scheme.sign_commit(
            system, signer, TapeRng([scalar_chunk(5, Q)])
        )
        assert state.r == 5
        assert (commitment.point.x, commitment.point.y) == mul_oracle(
            P, 5, (signer.public.x, signer.public.y)
        )


class TestBlind:
    def test_x_equal_one_collapses(self, toy_system, toy_keys):
        system, _ = toy_system
        signer = toy_keys[TOY_SIGNER]
        state, commitment = scheme.sign_commit(system, signer, SeededRng("c1"))
        blind_state, challenge = scheme.blind(
            system,
            MESSAGE,
            commitment,
            signer.public,
            TapeRng([scalar_chunk(1, Q), scalar_chunk(4, Q)]),
        )
        expected_u_prime = add_oracle(
            P,
            (commitment.point.x, commitment.point.y),
            mul_oracle(P, 4, (signer.public.x, signer.public.y)),
        )
        assert (blind_state.u_prime.x, blind_state.u_prime.y) == expected_u_prime
        assert challenge.value == (blind_state.h + 4) % Q

    def test_challenge_covers_full_range(self, toy_system, toy_keys):
        system, _ = toy_system
        signer = toy_keys[TOY_SIGNER]
        rng = SeededRng("h1-range")
        seen = set()
        for _ in range(1000):
            _, commitment = scheme.sign_commit(system, signer, rng)
            _, challenge = scheme.blind(system, MESSAGE, commitment, signer.public, rng)
            seen.add(challenge.value)
        assert seen == set(range(Q))  # blinding pushes h1 over all of Z_q

    def test_rejects_off_curve_commitment(self, toy_system, toy_keys):
        system, _ = toy_system
        with pytest.raises(InvalidPoint):
            scheme.blind(
                system,
                MESSAGE,
                Commitment(G1Point(P, 1, 1)),
                toy_keys[TOY_SIGNER].public,
                SeededRng("x"),
            )

    def test_rejects_out_of_subgroup_commitment(self, toy_system, toy_keys):
        # on the curve but outside the order-q subgroup, as if cofactor
        # clearing was skipped
        system, _ = toy_system
        rogue = off_subgroup_point(P, Q)
        assert rogue.on_curve()
        with pytest.raises(InvalidPoint):
            scheme.blind(
                system, MESSAGE, Commitment(rogue), toy_keys[TOY_SIGNER].public,
                SeededRng("x"),
            )


class TestPinnedProtocolRun:
    """One fully pinned toy session: r = 5, x = 2, y = 3.

    Every intermediate was recomputed with the repeated-addition oracle when
    the fixture was frozen.
    """

    @pytest.fixture()
    def run(self, toy_system, toy_keys):
        system, _ = toy_system
        signer = toy_keys[TOY_SIGNER]
        state, commitment = scheme.sign_commit(system, signer, TapeRng([scalar_chunk(5, Q)]))
        blind_state, challenge = scheme.blind(
            system,
            MESSAGE,
            commitment,
            signer.public,
            TapeRng([scalar_chunk(2, Q), scalar_chunk(3, Q)]),
        )
        response = scheme.sign_respond(system, state, challenge)
        signature = scheme.unblind(
            system, blind_state, response, toy_keys[TOY_VERIFIER].public
        )
        return state, commitment, blind_state, challenge, response, signature

    def test_pinned_values(self, run):
        state, commitment, blind_state, challenge, response, signature = run
        assert (commitment.point.x, commitment.point.y) == (89, 232)
        assert (blind_state.u_prime.x, blind_state.u_prime.y) == (254, 181)
        assert blind_state.h == 3
        assert challenge.value == 11  # 2^-1 * 3 + 3 = 7*3 + 3 = 24 = 11 (mod 13)
        assert (response.point.x, response.point.y) == (141, 132)
        assert (signature.sigma.value.a, signature.sigma.value.b) == (218, 252)
        assert encode_signature(signature).hex() == "0400fe00b500da00fc"

    def test_response_matches_repeated_addition(self, run, toy_keys):
        state, _, _, challenge, response, _ = run
        secret = toy_keys[TOY_SIGNER].secret
        assert (response.point.x, response.point.y) == mul_oracle(
            P, (state.r + challenge.value) % Q, (secret.x, secret.y)
        )

    def test_verifies(self, toy_system, toy_keys, run):
        system, _ = toy_system
        *_, signature = run
        assert scheme.verify(
            system, toy_keys[TOY_VERIFIER].secret, toy_keys[TOY_SIGNER].public, MESSAGE, signature
        )


class TestRespond:
    def test_degenerate_when_challenge_cancels_r(self, toy_system, toy_keys):
        system, _ = toy_system
        state, _ = scheme.sign_commit(
            system, toy_keys[TOY_SIGNER], TapeRng([scalar_chunk(5, Q)])
        )
        response = scheme.sign_respond(system, state, BlindedChallenge(value=(Q - 5) % Q))
        assert response.degenerate
        assert response.point.is_identity

    def test_signer_side_pairing_identity(self, toy_system, toy_keys):
        # e(V, P) = e(U + h1*Q_s, Ppub) holds on every honest transcript,
        # checkable without any secret
        system, _ = toy_system
        signer = toy_keys[TOY_SIGNER]
        g = system.curve.generator
        rng = SeededRng("identity-check")
        for _ in range(20):
            state, commitment = scheme.sign_commit(system, signer, rng)
            _, challenge = scheme.blind(system, MESSAGE, commitment, signer.public, rng)
            response = scheme.sign_respond(system, state, challenge)
            lhs = tate_pairing(response.point, g, system.curve)
            u_plus = add_oracle(
                P,
                (commitment.point.x, commitment.point.y),
                mul_oracle(P, challenge.value, (signer.public.x, signer.public.y)),
            )
            rhs_point = G1Point.identity(P) if u_plus is None else G1Point(P, *u_plus)
            assert lhs == tate_pairing(rhs_point, system.p_pub, system.curve)


class TestUnblind:
    def test_rejects_out_of_subgroup_response(self, toy_system, toy_keys):
        # an on-curve V outside the order-q subgroup would hand the user a
        # point carrying a small-order component; unblind must refuse it
        system, _ = toy_system
        signer = toy_keys[TOY_SIGNER]
        rng = SeededRng("rogue-response")
        _, commitment = scheme.sign_commit(system, signer, rng)
        blind_state, _ = scheme.blind(system, MESSAGE, commitment, signer.public, rng)
        rogue = off_subgroup_point(P, Q)
        assert rogue.on_curve()
        with pytest.raises(InvalidPoint, match="subgroup"):
            scheme.unblind(system, blind_state, Response(rogue), toy_keys[TOY_VERIFIER].public)


    def test_off_subgroup_point_refused_after_its_negation(self, toy_system, toy_keys):
        # every check is made afresh on the point given: checking -R must
        # not let R through
        system, _ = toy_system
        signer = toy_keys[TOY_SIGNER]
        rng = SeededRng("rogue-negation")
        _, commitment = scheme.sign_commit(system, signer, rng)
        blind_state, _ = scheme.blind(system, MESSAGE, commitment, signer.public, rng)
        rogue = off_subgroup_point(P, Q)
        assert not in_subgroup(neg(rogue), Q)
        with pytest.raises(DecodeError, match="subgroup"):
            decode_point(rogue.encode(), system.curve)
        with pytest.raises(InvalidPoint, match="subgroup"):
            scheme.blind(system, MESSAGE, Commitment(rogue), signer.public, rng)
        with pytest.raises(InvalidPoint, match="subgroup"):
            scheme.unblind(system, blind_state, Response(rogue), toy_keys[TOY_VERIFIER].public)


    def test_decoded_point_builds_one_chain(self, toy_system, toy_keys, monkeypatch):
        # decode_point's order-q check and blind's check of the same point sum
        # one doubling chain, which then serves blind's x*U
        system, _ = toy_system
        signer = toy_keys[TOY_SIGNER]
        rng = SeededRng("checked-once")
        _, commitment = scheme.sign_commit(system, signer, rng)
        curve._product_chain.cache_clear()
        scalar_mul(2, signer.public)  # Q_s's chain, for blind's x*y*Q_s
        curve._doubling_chain.cache_clear()
        ladders = []
        ladder = curve._mul_raw
        monkeypatch.setattr(curve, "_mul_raw", lambda *args: ladders.append(args) or ladder(*args))
        decoded, _ = decode_point(commitment.point.encode(), system.curve)
        state, _ = scheme.blind(system, MESSAGE, Commitment(decoded), signer.public, rng)
        x, y = decoded.x, decoded.y
        check = (P, Q, x, y, curve._doubling_chain)
        assert ladders[:3] == [check, check, (P, state.x, x, y)]
        assert curve._doubling_chain.cache_info()[:2] == (2, 1)  # hits, misses
        assert state.u_prime == point_add(
            scalar_mul(state.x, commitment.point), scalar_mul(state.x * state.y, signer.public)
        )
        curve._doubling_chain.cache_clear()
        curve._product_chain.cache_clear()


class TestVerify:
    def _sign(self, system, signer, verifier, message, seed="sign"):
        rng = SeededRng(seed)
        state, commitment = scheme.sign_commit(system, signer, rng)
        blind_state, challenge = scheme.blind(system, message, commitment, signer.public, rng)
        response = scheme.sign_respond(system, state, challenge)
        return scheme.unblind(system, blind_state, response, verifier.public)

    def test_verifier_keys_are_the_miller_argument(self, toy_system, toy_keys):
        # unblind pairs Q_v, and verify S_v, as the first argument, whose
        # Miller lines are cached: three sessions build each set once
        system, _ = toy_system
        signer, verifier = toy_keys[TOY_SIGNER], toy_keys[TOY_VERIFIER]
        lines = curve._miller_lines
        lines.cache_clear()
        for seed in ("one", "two", "three"):
            sig = self._sign(system, signer, verifier, MESSAGE, seed)
            assert scheme.verify(system, verifier.secret, signer.public, MESSAGE, sig)
        assert lines.cache_info()[:2] == (4, 2)  # hits, misses
        for key in (verifier.public, verifier.secret):
            lines(Q, P, key.x, key.y)
        assert lines.cache_info()[:2] == (6, 2)
        lines.cache_clear()

    def test_honest_signature_accepts(self, toy_system, toy_keys):
        system, _ = toy_system
        sig = self._sign(system, toy_keys[TOY_SIGNER], toy_keys[TOY_VERIFIER], MESSAGE)
        assert scheme.verify(
            system, toy_keys[TOY_VERIFIER].secret, toy_keys[TOY_SIGNER].public, MESSAGE, sig
        )

    def test_flipped_message_bit_rejects_when_hash_moves(self, toy_system, toy_keys):
        system, _ = toy_system
        sig = self._sign(system, toy_keys[TOY_SIGNER], toy_keys[TOY_VERIFIER], MESSAGE)
        flipped = bytes([MESSAGE[0] ^ 1]) + MESSAGE[1:]
        # q = 13 makes hash collisions across messages likely; only trials
        # where the recomputed challenge hash actually moves are conclusive
        if scheme.h2(flipped, sig.u_prime, Q) != scheme.h2(MESSAGE, sig.u_prime, Q):
            assert not scheme.verify(
                system,
                toy_keys[TOY_VERIFIER].secret,
                toy_keys[TOY_SIGNER].public,
                flipped,
                sig,
            )

    def test_third_party_key_rejects(self, toy_system, toy_keys):
        system, _ = toy_system
        accepted = 0
        for i in range(50):
            sig = self._sign(
                system, toy_keys[TOY_SIGNER], toy_keys[TOY_VERIFIER], MESSAGE, seed=f"s{i}"
            )
            # a degenerate session's sigma = 1 is refused too, for every key
            if scheme.verify(
                system,
                toy_keys[TOY_THIRD_PARTY].secret,
                toy_keys[TOY_SIGNER].public,
                MESSAGE,
                sig,
            ):
                accepted += 1
        assert accepted == 0

    def test_degenerate_signature_rejects_for_every_verifier(self, toy_system, toy_keys):
        # U' = t*Q_s with H2(m, U') = -t (mod q) puts the identity in the
        # pairing, so sigma = 1 matched every verifier's key: a forgery that
        # needs no secret
        system, _ = toy_system
        signer = toy_keys[TOY_SIGNER]
        forged = []
        for message in (b"forged %d" % i for i in range(20)):
            for t in range(1, Q):
                u_prime = scalar_mul(t, signer.public)
                if scheme.h2(message, u_prime, Q) == Q - t:
                    forged.append((message, u_prime))
        assert len(forged) >= 10
        for name in (TOY_VERIFIER, TOY_THIRD_PARTY):
            secret = toy_keys[name].secret
            one = tate_pairing(secret, G1Point.identity(P), system.curve)
            for message, u_prime in forged:
                sig = scheme.Signature(u_prime, one)
                assert not scheme.verify(system, secret, signer.public, message, sig)

    def test_verify_with_identity_matches(self, toy_system, toy_keys):
        system, _ = toy_system
        sig = self._sign(system, toy_keys[TOY_SIGNER], toy_keys[TOY_VERIFIER], MESSAGE)
        assert scheme.verify_with_identity(
            system, toy_keys[TOY_VERIFIER].secret, TOY_SIGNER, MESSAGE, sig
        )


class TestSimulate:
    def test_simulated_signature_verifies(self, toy_system, toy_keys):
        system, _ = toy_system
        rng = SeededRng("sim")
        for _ in range(20):
            sig = session.simulate(
                system,
                toy_keys[TOY_SIGNER].public,
                toy_keys[TOY_VERIFIER].secret,
                MESSAGE,
                rng,
            )
            assert scheme.verify(
                system,
                toy_keys[TOY_VERIFIER].secret,
                toy_keys[TOY_SIGNER].public,
                MESSAGE,
                sig,
            )

    def test_matched_tape_bit_identical(self, toy_system, toy_keys):
        # the real protocol and the simulation, fed the same (r, x, y) tape,
        # must emit byte-identical signatures
        system, _ = toy_system
        signer, verifier = toy_keys[TOY_SIGNER], toy_keys[TOY_VERIFIER]
        for seed in range(50):
            tape = SeededRng(f"tape-{seed}")
            state, commitment = scheme.sign_commit(system, signer, tape)
            blind_state, challenge = scheme.blind(
                system, MESSAGE, commitment, signer.public, tape
            )
            response = scheme.sign_respond(system, state, challenge)
            real = scheme.unblind(system, blind_state, response, verifier.public)
            simulated = session.simulate(
                system, signer.public, verifier.secret, MESSAGE, SeededRng(f"tape-{seed}")
            )
            assert encode_signature(real) == encode_signature(simulated)

    def test_degenerate_attempt_reruns(self, toy_system, toy_keys):
        # a degenerate attempt's sigma = 1 verified for every verifier; the
        # rerun gives what the benign draws alone give.  MESSAGE has no
        # degenerate draws at q = 13
        system, _ = toy_system
        signer, verifier = toy_keys[TOY_SIGNER], toy_keys[TOY_VERIFIER]
        message = b"settle the invoice"
        degenerate, benign = find_tape_triples(system, signer, message)

        def simulate(*triples):
            tape = TapeRng([scalar_chunk(v, Q) for triple in triples for v in triple])
            signature = session.simulate(system, signer.public, verifier.secret, message, tape)
            assert tape.chunks == []
            return signature

        rerun = simulate(degenerate, benign)
        assert rerun == simulate(benign) and not rerun.sigma.value.is_one()

    def test_seeded_replay(self, toy_system, toy_keys):
        system, _ = toy_system
        a = session.simulate(
            system, toy_keys[TOY_SIGNER].public, toy_keys[TOY_VERIFIER].secret, MESSAGE,
            SeededRng("replay"),
        )
        b = session.simulate(
            system, toy_keys[TOY_SIGNER].public, toy_keys[TOY_VERIFIER].secret, MESSAGE,
            SeededRng("replay"),
        )
        assert a == b


class TestSignatureSerialization:
    def _signature(self, toy_system, toy_keys):
        system, _ = toy_system
        rng = SeededRng("serialize")
        state, commitment = scheme.sign_commit(system, toy_keys[TOY_SIGNER], rng)
        blind_state, challenge = scheme.blind(
            system, MESSAGE, commitment, toy_keys[TOY_SIGNER].public, rng
        )
        response = scheme.sign_respond(system, state, challenge)
        return system, scheme.unblind(
            system, blind_state, response, toy_keys[TOY_VERIFIER].public
        )

    def test_binary_roundtrip(self, toy_system, toy_keys):
        system, sig = self._signature(toy_system, toy_keys)
        assert decode_signature(encode_signature(sig), system.curve) == sig

    def test_trailing_bytes_rejected(self, toy_system, toy_keys):
        system, sig = self._signature(toy_system, toy_keys)
        with pytest.raises(DecodeError):
            decode_signature(encode_signature(sig) + b"\x00", system.curve)
