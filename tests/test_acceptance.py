"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py` to see them live).

Tolerances are pinned here and nowhere else: group-law and pairing checks
are exact equalities, the performance/bound figures are exact rational
equalities, and the stated runtime budgets are asserted with a wall clock.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from dvbsig import scheme, session
from dvbsig.analysis import (
    REFERENCE_COSTS,
    Ops,
    QueryBudget,
    extract_blinding_witness,
    perf_report,
    unforgeability_bound,
    unverifiability_bound,
)
from dvbsig.curve import hash_to_point, params_for_subgroup_order, scalar_mul, tate_pairing
from dvbsig.errors import DecodeError
from dvbsig.meter import measure
from dvbsig.rng import SeededRng
from dvbsig.scheme import decode_signature, encode_signature
from dvbsig.session import LogicalClock, decode_message, run_local_session
from tests.conftest import TOY_SIGNER, TOY_THIRD_PARTY, TOY_VERIFIER


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"FAIL | acceptance {number}: {label}")
        raise
    print(f"PASS | acceptance {number}: {label}")


def sign_once(system, signer, verifier_public, message, seed):
    return run_local_session(system, signer, message, verifier_public, SeededRng(seed))


def test_01_pairing_axioms(toy_params, mid_params):
    with criterion(1, "pairing axioms on toy and mid-size parameters"):
        start = time.perf_counter()
        for params in (toy_params, mid_params):
            g = params.generator
            base = tate_pairing(g, g, params)
            assert not base.is_one  # non-degeneracy
            rnd = random.Random(f"axioms-{params.q}")
            for _ in range(100):
                a = rnd.randrange(1, params.q)
                b = rnd.randrange(1, params.q)
                lhs = tate_pairing(scalar_mul(a, g), scalar_mul(b, g), params)
                assert lhs == base ** (a * b % params.q)
        elapsed = time.perf_counter() - start
        assert elapsed < 30, f"pairing axiom check took {elapsed:.1f}s"


def test_02_correctness_round_trips(toy_system, toy_keys, mid_system, mid_keys):
    with criterion(2, "500 toy + 50 mid-size sign/verify round trips"):
        start = time.perf_counter()
        system, _ = toy_system
        signer, verifier = toy_keys[TOY_SIGNER], toy_keys[TOY_VERIFIER]
        for i in range(500):
            outcome = sign_once(
                system, signer, verifier.public, f"toy message {i}".encode(), f"rt-{i}"
            )
            assert scheme.verify(
                system, verifier.secret, signer.public, f"toy message {i}".encode(),
                outcome.signature,
            )
        system, _ = mid_system
        signer, verifier = mid_keys[b"signer"], mid_keys[b"verifier"]
        for i in range(50):
            outcome = sign_once(
                system, signer, verifier.public, f"mid message {i}".encode(), f"mid-{i}"
            )
            assert scheme.verify(
                system, verifier.secret, signer.public, f"mid message {i}".encode(),
                outcome.signature,
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"round trips took {elapsed:.1f}s"


def test_03_non_transferability_matched_tapes(toy_system, toy_keys):
    with criterion(3, "100 matched-tape real/simulated signatures byte-identical"):
        system, _ = toy_system
        signer, verifier = toy_keys[TOY_SIGNER], toy_keys[TOY_VERIFIER]
        message = b"indistinguishable"
        mismatches = 0
        for i in range(100):
            tape = SeededRng(f"nt-{i}")
            state, commitment = scheme.sign_commit(system, signer, tape)
            blind_state, challenge = scheme.blind(
                system, message, commitment, signer.public, tape
            )
            response = scheme.sign_respond(system, state, challenge)
            real = scheme.unblind(system, blind_state, response, verifier.public)
            simulated = session.simulate(
                system, signer.public, verifier.secret, message, SeededRng(f"nt-{i}")
            )
            if encode_signature(real) != encode_signature(simulated):
                mismatches += 1
        assert mismatches == 0


def test_04_strongness_simulation(toy_system, toy_keys):
    with criterion(4, "100 simulated signatures verify; signer key never built"):
        system, msk = toy_system
        # the signer exists only as an identity hash: its private key is
        # never extracted anywhere in this test process
        phantom_public = hash_to_point(b"phantom-signer", system.curve)
        verifier = toy_keys[TOY_VERIFIER]
        for i in range(100):
            sig = session.simulate(
                system, phantom_public, verifier.secret, b"never signed", SeededRng(f"st-{i}")
            )
            assert scheme.verify(
                system, verifier.secret, phantom_public, b"never signed", sig
            )


def test_05_designated_unverifiability(toy_system, toy_keys, mid_system, mid_keys):
    with criterion(5, "third-party keys reject 100 honest signatures"):
        # mid-size: strict rejection in every trial
        system, _ = mid_system
        signer, verifier = mid_keys[b"signer"], mid_keys[b"verifier"]
        third = mid_keys[b"third-party"]
        assert third.public != verifier.public
        for i in range(100):
            message = f"mid unverifiable {i}".encode()
            outcome = sign_once(system, signer, verifier.public, message, f"uv-{i}")
            assert scheme.verify(
                system, verifier.secret, signer.public, message, outcome.signature
            )
            assert not scheme.verify(
                system, third.secret, signer.public, message, outcome.signature
            )
        # toy scale: rejection in every trial except the structural sigma = 1
        # case, where U' + h*Q_signer collapses to the identity and the
        # verification equation degenerates to 1 = 1 under any key
        system, _ = toy_system
        signer, verifier = toy_keys[TOY_SIGNER], toy_keys[TOY_VERIFIER]
        third = toy_keys[TOY_THIRD_PARTY]
        assert third.public != verifier.public
        conclusive = 0
        for i in range(100):
            message = f"toy unverifiable {i}".encode()
            outcome = sign_once(system, signer, verifier.public, message, f"uvt-{i}")
            sig = outcome.signature
            h = scheme.h2(message, sig.u_prime, system.curve.q)
            from dvbsig.curve import point_add

            anchor = point_add(sig.u_prime, scalar_mul(h, signer.public))
            if anchor.is_identity:
                continue
            conclusive += 1
            assert not scheme.verify(system, third.secret, signer.public, message, sig)
        assert conclusive > 50  # the degenerate exclusion must stay rare


def test_06_blindness_witness_cross_pairs(toy_system, toy_keys):
    with criterion(6, "10 sessions: all 100 cross pairs yield witnesses"):
        system, _ = toy_system
        signer, verifier = toy_keys[TOY_SIGNER], toy_keys[TOY_VERIFIER]
        rng, clock = SeededRng("blindness-acceptance"), LogicalClock()
        records = [
            run_local_session(
                system, signer, f"blind statement {i}".encode(), verifier.public, rng, clock=clock
            )
            for i in range(10)
        ]
        assert len(records) == 10
        for i, rec_t in enumerate(records):
            for j, rec_s in enumerate(records):
                witness = extract_blinding_witness(
                    system,
                    rec_t.transcript,
                    rec_s.signature,
                    rec_s.blinding.message,
                    signer.public,
                    verifier.public,
                    verifier.secret,
                )
                assert witness is not None, f"pair ({i},{j}) inconsistent"
                if i == j:
                    truth = rec_s.blinding
                    assert witness == (truth.x, truth.y), "diagonal must be exact"


def test_07_performance_model_reproduction():
    with criterion(7, "performance model reproduces the published totals"):
        rows = {(r.scheme_name, r.phase): r for r in perf_report(REFERENCE_COSTS)}
        # modeled and published totals agree, except for Zhang-Wen's signing
        assert rows[("ours", "sign")].modeled_ms == F(5498, 100)  # 54.98 ms
        assert rows[("ours", "sign")].stated_ms == F(5498, 100)
        assert rows[("ours", "verify")].modeled_ms == F(2946, 100)  # 29.46 ms
        assert rows[("ours", "verify")].stated_ms == F(2946, 100)
        assert rows[("zhang-wen", "verify")].modeled_ms == F(8958, 100)  # 89.58 ms
        assert rows[("zhang-wen", "verify")].stated_ms == F(8958, 100)
        zw_sign = rows[("zhang-wen", "sign")]
        assert zw_sign.stated_ms == F(6774, 100)  # published 67.74 ms
        assert zw_sign.modeled_ms == F(5498, 100)  # its own counts give 54.98 ms


def test_08_operation_count_instrumentation(toy_system, toy_keys):
    with criterion(8, "instrumented counts: sign 5 mults + 1 pairing; verify 1 + 1 + 1"):
        system, _ = toy_system
        signer, verifier = toy_keys[TOY_SIGNER], toy_keys[TOY_VERIFIER]
        with measure() as sign_counter:
            outcome = run_local_session(
                system, signer, b"instrumented", verifier.public, SeededRng("ic")
            )
        assert outcome.retries == 0
        sign_counts = Ops(**sign_counter.counts)
        assert sign_counts.g1_scalar_mul == 5
        assert sign_counts.pairing == 1
        assert sign_counts.map_to_point == 0
        with measure() as verify_counter:
            assert scheme.verify_with_identity(
                system, verifier.secret, TOY_SIGNER, b"instrumented", outcome.signature
            )
        verify_counts = Ops(**verify_counter.counts)
        assert verify_counts.g1_scalar_mul == 1
        assert verify_counts.map_to_point == 1
        assert verify_counts.pairing == 1


def test_09_bound_calculators_hand_checked():
    with criterion(9, "reduction bounds match hand evaluation exactly"):
        expected_advantage = {
            (2, 0, 0, 0): F(84, 169),
            (10, 1, 1, 1): F(19712, 2851875),
            (100, 10, 10, 10): F(
                168 * 49**20 * 4949**10, 169 * 50**20 * 4950**10 * 4950 * 2
            ),
        }
        for (qh1, qe, qs, qv), expected in expected_advantage.items():
            budget = QueryBudget(
                h1_queries=qh1,
                extract_queries=qe,
                sign_queries=qs,
                verify_queries=qv,
                advantage=F(1, 2),
                runtime=F(1000),
            )
            forge = unforgeability_bound(budget, REFERENCE_COSTS, 13)
            dver = unverifiability_bound(budget, REFERENCE_COSTS, 13)
            assert forge.advantage == expected
            assert dver.advantage == expected
            assert forge.advantage <= F(1, 2)
            # time side, hand-expanded: (qh1+qe+3qs+qv)*S1 + (qs+qv)*Pe
            # + qs*O1 [+ tails] + t, with the reference table (O1 = O2 = 0)
            s1, s2, pe = F(638, 100), F(531, 100), F(2004, 100)
            base = (qh1 + qe + 3 * qs + qv) * s1 + (qs + qv) * pe + F(1000)
            assert forge.runtime == base + s2
            assert dver.runtime == base + s1 + s2 + pe


def test_10_production_scale_smoke():
    with criterion(10, "160-bit Solinas q with 512-bit p: full round trip"):
        start = time.perf_counter()
        q = 2**159 + 2**17 + 1
        params = params_for_subgroup_order(q, b"acceptance-production-scale", p_bits=512)
        generated = time.perf_counter()
        assert params.q == q
        assert params.p.bit_length() == 512
        assert (params.p + 1) % (12 * q) == 0
        params.validate()
        system, msk = scheme.setup(params, SeededRng("production-setup"))
        signer = scheme.keygen(system, msk, b"prod-signer")
        verifier = scheme.keygen(system, msk, b"prod-verifier")
        outcome = sign_once(
            system, signer, verifier.public, b"production-scale statement", "production-run"
        )
        assert scheme.verify(
            system, verifier.secret, signer.public, b"production-scale statement",
            outcome.signature,
        )
        assert not scheme.verify(
            system, verifier.secret, signer.public, b"tampered statement",
            outcome.signature,
        )
        done = time.perf_counter()
        print(
            f"production-scale wall clock: parameter search {generated - start:.2f}s,"
            f" round trip {done - generated:.2f}s",
            end=" ... ",
        )


def test_11_decoder_robustness(toy_system, toy_keys):
    with criterion(11, "10^4 fuzz inputs: structured decode errors only"):
        system, _ = toy_system
        params = system.curve
        outcome = run_local_session(
            system,
            toy_keys[TOY_SIGNER],
            b"fuzz seed",
            toy_keys[TOY_VERIFIER].public,
            SeededRng("fuzz"),
        )
        valid_sig = encode_signature(outcome.signature)
        rnd = random.Random("fuzz-acceptance")
        for i in range(10_000):
            if i % 5 == 4 and valid_sig:  # mutations of a valid encoding
                blob = bytearray(valid_sig)
                blob[rnd.randrange(len(blob))] ^= 1 << rnd.randrange(8)
                blob = bytes(blob[: rnd.randrange(1, len(blob) + 1)])
            else:
                blob = rnd.randbytes(rnd.randrange(0, 64))
            try:
                decode_message(blob, params)
            except DecodeError:
                pass
            try:
                decode_signature(blob, params)
            except DecodeError:
                pass
