import hashlib
from fractions import Fraction as F

import pytest

from dvbsig import analysis, scheme
from dvbsig.algebra import encode_int
from dvbsig.analysis import (
    OpCosts,
    OperationCounts,
    QueryBudget,
    dlog_bruteforce,
    extract_blinding_witness,
    perf_model,
    perf_report,
    unforgeability_advantage,
    unforgeability_bound,
    unforgeability_runtime,
    unverifiability_bound,
    unverifiability_runtime,
)
from dvbsig.curve import G1Point, scalar_mul
from dvbsig.errors import Degenerate, DomainError, RefusedTooLarge
from dvbsig.meter import measure
from dvbsig.rng import SeededRng
from dvbsig.session import (
    MAX_RETRIES,
    LogicalClock,
    Transcript,
    encode_transcript,
    run_local_session,
)
from tests.conftest import (
    TOY_SIGNER,
    TOY_THIRD_PARTY,
    TOY_VERIFIER,
    find_tape_triples,
    session_tape,
)

Q = 13

# reference unit costs, extended with nonzero group-operation costs so the
# time formulas are exercised on every term
COSTS = OpCosts(
    g1_scalar_mul=F(638, 100),
    g2_scalar_mul=F(531, 100),
    g1_group_op=F(1, 10),
    g2_group_op=F(1, 5),
    pairing=F(2004, 100),
    map_to_point=F(304, 100),
)


def budget(qh1, qe, qs, qv, adv=F(1, 2), t=F(1000)):
    return QueryBudget(
        h1_queries=qh1,
        extract_queries=qe,
        sign_queries=qs,
        verify_queries=qv,
        advantage=adv,
        runtime=t,
    )


class TestAdvantageBounds:
    # frozen hand evaluations (q = 13, eps = 1/2)
    EXPECTED = {
        (2, 0, 0, 0): F(84, 169),
        (10, 1, 1, 1): F(19712, 2851875),
        (100, 10, 10, 10): F(
            168 * 49**20 * 4949**10, 169 * 50**20 * 4950**10 * 4950 * 2
        ),
    }

    @pytest.mark.parametrize("shape", sorted(EXPECTED))
    def test_matches_hand_evaluation(self, shape):
        got = unforgeability_advantage(budget(*shape), 13)
        assert got == self.EXPECTED[shape]
        assert got <= F(1, 2)

    def test_zero_advantage_propagates(self):
        assert unforgeability_advantage(budget(10, 1, 1, 1, adv=0), 13) == 0

    def test_collapses_at_minimal_budget(self):
        # qH1 = 2 and no other queries: only the (1 - 1/q^2) factor survives
        assert unforgeability_advantage(budget(2, 0, 0, 0, adv=F(1, 2)), 13) == (
            1 - F(1, 169)
        ) * F(1, 2)

    def test_extraction_queries_strictly_hurt(self):
        values = [
            unforgeability_advantage(budget(10, qe, 1, 1), 13) for qe in range(5)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_linear_in_advantage(self):
        one = unforgeability_advantage(budget(10, 1, 1, 1, adv=F(1)), 13)
        third = unforgeability_advantage(budget(10, 1, 1, 1, adv=F(1, 3)), 13)
        assert third == one / 3

    def test_too_few_hash_queries_rejected(self):
        with pytest.raises(DomainError):
            unforgeability_advantage(budget(1, 0, 0, 0), 13)
        with pytest.raises(DomainError):
            unforgeability_advantage(budget(0, 0, 0, 0), 13)

    def test_group_order_below_2_rejected(self):
        # the formula itself would give 0 for a group of order 1
        with pytest.raises(DomainError, match="group order must be at least 2"):
            unforgeability_advantage(QueryBudget(h1_queries=2), 1)
        assert unforgeability_advantage(QueryBudget(h1_queries=2, advantage=1), 2) == F(3, 4)

    def test_same_advantage_formula_both_reductions(self):
        b = budget(10, 1, 1, 1)
        assert unforgeability_bound(b, COSTS, 13).advantage == unverifiability_bound(
            b, COSTS, 13
        ).advantage


class TestRuntimeBounds:
    EXPECTED_FORGE = {
        (2, 0, 0, 0): F(101827, 100),
        (10, 1, 1, 1): F(114139, 100),
        (100, 10, 10, 10): F(236431, 100),
    }
    EXPECTED_DVER = {
        (2, 0, 0, 0): F(104449, 100),
        (10, 1, 1, 1): F(116761, 100),
        (100, 10, 10, 10): F(239053, 100),
    }

    @pytest.mark.parametrize("shape", sorted(EXPECTED_FORGE))
    def test_matches_hand_evaluation(self, shape):
        assert unforgeability_runtime(budget(*shape), COSTS) == self.EXPECTED_FORGE[shape]
        assert unverifiability_runtime(budget(*shape), COSTS) == self.EXPECTED_DVER[shape]

    def test_all_budgets_zero_leaves_output_tail(self):
        # only the solution-assembly terms and the adversary's own time remain
        b = QueryBudget(runtime=F(7))
        assert unforgeability_runtime(b, COSTS) == COSTS.g2_group_op + COSTS.g2_scalar_mul + 7
        assert (
            unverifiability_runtime(b, COSTS)
            == COSTS.g1_scalar_mul + COSTS.g2_scalar_mul + COSTS.pairing + 7
        )

    def test_reduction_tail_difference(self):
        # identical budgets: the two runtimes differ by S_G1 + P_e - O_G2
        b = budget(10, 1, 1, 1)
        diff = unverifiability_runtime(b, COSTS) - unforgeability_runtime(b, COSTS)
        assert diff == COSTS.g1_scalar_mul + COSTS.pairing - COSTS.g2_group_op

    def test_linear_in_adversary_time(self):
        base = unforgeability_runtime(budget(10, 1, 1, 1, t=F(0)), COSTS)
        assert unforgeability_runtime(budget(10, 1, 1, 1, t=F(123)), COSTS) == base + 123


class TestPerfModel:
    def test_reference_totals_exact(self):
        costs = OpCosts.reference()
        assert perf_model(analysis.SIGN_COUNTS, costs) == F(5498, 100)
        assert perf_model(analysis.VERIFY_COUNTS, costs) == F(2946, 100)
        assert perf_model(analysis.ZHANG_WEN_VERIFY_COUNTS, costs) == F(8958, 100)

    def test_dot_product_by_hand(self):
        counts = OperationCounts(g1_scalar_mul=2, pairing=1, map_to_point=3)
        assert perf_model(counts, COSTS) == 2 * F(638, 100) + F(2004, 100) + 3 * F(304, 100)

    def test_each_count_meets_the_cost_of_its_own_axis(self):
        costs = OpCosts(*(F(2**i) for i in range(len(OpCosts._fields))))
        for axis in OperationCounts._fields:
            assert perf_model(OperationCounts(**{axis: 1}), costs) == getattr(costs, axis)

    def test_report_rows(self):
        rows = {(r.scheme_name, r.phase): r for r in perf_report()}
        ours_sign = rows[("ours", "sign")]
        assert ours_sign.modeled_ms == ours_sign.stated_ms == F(5498, 100)
        assert not ours_sign.discrepancy
        ours_verify = rows[("ours", "verify")]
        assert ours_verify.modeled_ms == ours_verify.stated_ms == F(2946, 100)
        zw_verify = rows[("zhang-wen", "verify")]
        assert zw_verify.modeled_ms == zw_verify.stated_ms == F(8958, 100)
        assert not zw_verify.discrepancy

    def test_zhang_wen_sign_discrepancy_surfaced(self):
        rows = {(r.scheme_name, r.phase): r for r in perf_report()}
        zw_sign = rows[("zhang-wen", "sign")]
        assert zw_sign.stated_ms == F(6774, 100)
        assert zw_sign.modeled_ms == F(5498, 100)
        assert zw_sign.discrepancy
        # the gap is exactly two G1 scalar multiplications
        assert zw_sign.stated_ms - zw_sign.modeled_ms == 2 * F(638, 100)


class TestInstrumentation:
    def test_signing_session_counts(self, toy_system, toy_keys):
        system, _ = toy_system
        with measure() as counter:
            outcome = run_local_session(
                system,
                toy_keys[TOY_SIGNER],
                b"count me",
                toy_keys[TOY_VERIFIER].public,
                SeededRng("count"),
            )
        assert outcome.retries == 0
        counts = OperationCounts(**counter.counts)
        assert counts.g1_scalar_mul == 5
        assert counts.pairing == 1
        assert counts.map_to_point == 0

    def test_verification_counts(self, toy_system, toy_keys):
        system, _ = toy_system
        outcome = run_local_session(
            system,
            toy_keys[TOY_SIGNER],
            b"count me",
            toy_keys[TOY_VERIFIER].public,
            SeededRng("count"),
        )
        with measure() as counter:
            assert scheme.verify_with_identity(
                system,
                toy_keys[TOY_VERIFIER].secret,
                TOY_SIGNER,
                b"count me",
                outcome.signature,
            )
        counts = OperationCounts(**counter.counts)
        assert counts.g1_scalar_mul == 1
        assert counts.map_to_point == 1
        assert counts.pairing == 1

    def test_simulation_counts(self, toy_system, toy_keys):
        system, _ = toy_system
        with measure() as counter:
            scheme.simulate(
                system,
                toy_keys[TOY_SIGNER].public,
                toy_keys[TOY_VERIFIER].secret,
                b"count me",
                SeededRng("count"),
            )
        counts = OperationCounts(**counter.counts)
        assert counts.g1_scalar_mul == 5
        assert counts.g1_group_op == 1
        assert counts.pairing == 1
        assert counts.map_to_point == 0

    def test_no_counting_outside_regions(self, toy_params):
        with measure() as counter:
            pass
        scalar_mul(5, toy_params.generator)
        assert counter.counts["g1_scalar_mul"] == 0


class TestDlogBruteforce:
    def test_identity_is_zero(self, toy_params):
        g = toy_params.generator
        assert dlog_bruteforce(g, G1Point.identity(toy_params.p), Q) == 0

    def test_base_is_one(self, toy_params):
        g = toy_params.generator
        assert dlog_bruteforce(g, g, Q) == 1

    def test_full_sweep(self, toy_params):
        g = toy_params.generator
        for k in range(Q):
            assert dlog_bruteforce(g, scalar_mul(k, g), Q) == k

    def test_sweep_counts_no_group_operations(self, toy_params):
        g = toy_params.generator
        target = scalar_mul(7, g)
        with measure() as counter:
            assert dlog_bruteforce(g, target, Q) == 7
        assert counter.counts == {kind: 0 for kind in counter.counts}

    def test_guard(self, toy_params):
        g = toy_params.generator
        with pytest.raises(RefusedTooLarge):
            dlog_bruteforce(g, g, (1 << 20) + 1)


class TestBlindSessionHarness:
    # Pinned SHA-256 over every outcome's transcript, signature, x and y; any
    # change to the draw order (session id, then r, x, y per attempt) or the
    # clock order changes it.  "blindness-retry-3" reruns its third session
    # twice, so the retry path is pinned too.
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (
                "blindness-acceptance",
                "c47c8d5802c916f583ec1037bda52d3a951d41104b60c154f706b89cc545780c",
            ),
            (
                "blindness-retry-3",
                "418c53715aab8a1efcde7038f4c005835d4174b341f3515d42627f6c3f72ed9a",
            ),
        ],
    )
    def test_pinned_records(self, toy_system, toy_keys, seed, digest):
        system, _ = toy_system
        curve = system.curve
        signer, verifier_public = toy_keys[TOY_SIGNER], toy_keys[TOY_VERIFIER].public
        rng, clock = SeededRng(seed), LogicalClock()
        records = [
            run_local_session(
                system, signer, f"blind statement {i}".encode(), verifier_public, rng, clock=clock
            )
            for i in range(3)
        ]
        h = hashlib.sha256()
        for rec in records:
            h.update(encode_transcript(rec.transcript, curve))
            h.update(scheme.encode_signature(rec.signature))
            x, y = rec.blinding.x, rec.blinding.y
            h.update(encode_int(x, curve.q) + encode_int(y, curve.q))
        assert h.hexdigest() == digest

    def test_exhausted_retries_raise(self, toy_system, toy_keys):
        system, _ = toy_system
        signer = toy_keys[TOY_SIGNER]
        message = b"blind statement 0"
        degenerate, _ = find_tape_triples(system, signer, message)
        with pytest.raises(Degenerate):
            run_local_session(
                system,
                signer,
                message,
                toy_keys[TOY_VERIFIER].public,
                session_tape(Q, *[degenerate] * (MAX_RETRIES + 1)),
                clock=LogicalClock(),
            )


class TestBlindnessWitness:
    @pytest.fixture()
    def records(self, toy_system, toy_keys):
        system, _ = toy_system
        signer, verifier_public = toy_keys[TOY_SIGNER], toy_keys[TOY_VERIFIER].public
        rng, clock = SeededRng("blindness"), LogicalClock()
        return [
            run_local_session(
                system, signer, f"asset statement {i}".encode(), verifier_public, rng, clock=clock
            )
            for i in range(6)
        ]

    def test_sessions_all_verify(self, toy_system, toy_keys, records):
        system, _ = toy_system
        for rec in records:
            assert scheme.verify(
                system,
                toy_keys[TOY_VERIFIER].secret,
                toy_keys[TOY_SIGNER].public,
                rec.blinding.message,
                rec.signature,
            )

    def test_diagonal_recovers_true_factors(self, toy_system, toy_keys, records):
        system, _ = toy_system
        for rec in records:
            witness = extract_blinding_witness(
                system,
                rec.transcript,
                rec.signature,
                rec.blinding.message,
                toy_keys[TOY_SIGNER].public,
                toy_keys[TOY_VERIFIER].public,
                toy_keys[TOY_VERIFIER].secret,
            )
            assert witness == (rec.blinding.x, rec.blinding.y)

    def test_every_cross_pair_consistent(self, toy_system, toy_keys, records):
        system, _ = toy_system
        signer_public = toy_keys[TOY_SIGNER].public
        for rec_t in records:
            for rec_s in records:
                witness = extract_blinding_witness(
                    system,
                    rec_t.transcript,
                    rec_s.signature,
                    rec_s.blinding.message,
                    signer_public,
                    toy_keys[TOY_VERIFIER].public,
                    toy_keys[TOY_VERIFIER].secret,
                )
                assert witness is not None
                x, y = witness
                # the witness satisfies both protocol relations by contract;
                # spot-check the commitment one against the transcript
                from dvbsig.curve import point_add

                rebuilt = point_add(
                    scalar_mul(x, rec_t.transcript.commitment),
                    scalar_mul(x * y % Q, signer_public),
                )
                assert rebuilt == rec_s.signature.u_prime

    def test_other_signers_signature_inconsistent(self, toy_system, toy_keys, records):
        system, _ = toy_system
        other = run_local_session(
            system,
            toy_keys[TOY_THIRD_PARTY],
            b"impostor statement",
            toy_keys[TOY_VERIFIER].public,
            SeededRng("other-signer"),
            clock=LogicalClock(),
        )
        witness = extract_blinding_witness(
            system,
            records[0].transcript,
            other.signature,
            other.blinding.message,
            toy_keys[TOY_SIGNER].public,
            toy_keys[TOY_VERIFIER].public,
            toy_keys[TOY_VERIFIER].secret,
        )
        assert witness is None

    def test_degenerate_transcript_rejected(self, toy_system, toy_keys, records):
        system, _ = toy_system
        signer = toy_keys[TOY_SIGNER]
        base = records[0].transcript
        rigged = Transcript(
            session_id=b"\xff" * 16,
            signer_identity=base.signer_identity,
            commitment=scalar_mul(5, signer.public),
            challenge=(Q - 5) % Q,  # anchor U + h1*Q collapses to identity
            response=base.response,
            started_ms=0,
            finished_ms=0,
        )
        with pytest.raises(Degenerate):
            extract_blinding_witness(
                system,
                rigged,
                records[0].signature,
                records[0].blinding.message,
                signer.public,
                toy_keys[TOY_VERIFIER].public,
                toy_keys[TOY_VERIFIER].secret,
            )
