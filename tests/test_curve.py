import hashlib
import random
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from dvbsig import curve
from dvbsig.algebra import Fp2Element, _signed_digits, sqrt_mod
from dvbsig.curve import (
    G1Point,
    _mul_raw,
    decode_gt,
    decode_point,
    generate_params,
    hash_to_point,
    in_subgroup,
    params_for_subgroup_order,
    point_add,
    scalar_mul,
    tate_pairing,
)
from dvbsig.errors import (
    DecodeError,
    HashToPointFailed,
    InvalidPoint,
    InversionOfZero,
    ParamMismatch,
    ParamSearchFailed,
)
from dvbsig.meter import G1_GROUP_OP, G1_SCALAR_MUL, MAP_TO_POINT, measure

P, Q = 311, 13


@pytest.fixture(scope="module")
def production_params():
    return params_for_subgroup_order(2**159 + 2**17 + 1, b"acceptance-production-scale", p_bits=512)


def legendre(a, p):
    """Euler criterion: 1 for nonzero residues, -1 for non-residues, 0 for 0."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def add_oracle(p, a, b):
    """Textbook chord-and-tangent on coordinate pairs; identity is None."""
    if a is None:
        return b
    if b is None:
        return a
    (x1, y1), (x2, y2) = a, b
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if a == b:
        lam = (3 * x1 * x1 + 1) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def mul_oracle(p, k, a):
    acc = None
    for _ in range(k):
        acc = add_oracle(p, acc, a)
    return acc


def assert_naf(k, w=2):
    """`_signed_digits(k, w)` is the width-w non-adjacent form of k: its
    digits sum to k, each nonzero one is odd and below 2^(w-1) in size, any
    w consecutive digits hold at most one nonzero, and the top digit is
    positive and at most one place above k's top bit."""
    digits = _signed_digits(k, w)
    assert sum(d << i for i, d in enumerate(digits)) == k
    assert digits[-1] > 0 and len(digits) <= k.bit_length() + 1
    assert all(d % 2 and abs(d) < 1 << (w - 1) for d in digits if d)
    places = [i for i, d in enumerate(digits) if d]
    assert all(b - a >= w for a, b in zip(places, places[1:]))


def as_pair(point):
    return None if point.is_identity else (point.x, point.y)


def all_points(p):
    """Every point of E(F_p) as a coordinate pair, the identity as None."""
    points = [None]
    for x in range(p):
        rhs = (x * x * x + x) % p
        if rhs == 0:
            points.append((x, 0))
        elif legendre(rhs, p) == 1:
            y = pow(rhs, (p + 1) // 4, p)
            points += [(x, y), (x, p - y)]
    return points


def off_subgroup_point(p, q):
    """The first on-curve point (by x) outside both the order-q subgroup and
    the 2-torsion (y = 0)."""
    return next(
        G1Point(p, *pt) for pt in all_points(p)[1:] if pt[1] and mul_oracle(p, q, pt) is not None
    )


def fp2_add(x, y):
    """x + y in F_p2, for the oracles; `Fp2Element` keeps only G_T's
    operations."""
    return Fp2Element(x.a + y.a, x.b + y.b, x.p)


def fp2_sub(x, y):
    return Fp2Element(x.a - y.a, x.b - y.b, x.p)


def fp2_conj(x):
    """a - b*i, the Frobenius map x -> x^p on F_p2."""
    return Fp2Element(x.a, -x.b, x.p)


def fp2_inv(x):
    """1/x = (a - b*i)/(a^2 + b^2) for x != 0."""
    n = pow(x.a * x.a + x.b * x.b, -1, x.p)
    return Fp2Element(x.a * n, -x.b * n, x.p)


def pow_oracle(x, e):
    """x^e in F_p2 by right-to-left square-and-multiply, for any x and e >= 0;
    `Fp2Element.__pow__` takes only elements of norm 1."""
    acc = Fp2Element.one(x.p)
    while e:
        if e & 1:
            acc = acc * x
        x, e = x * x, e >> 1
    return acc


def miller_oracle(params, a, b):
    """Textbook reduced Tate pairing: Miller's loop with the distortion map
    applied explicitly, every line and vertical evaluated at
    phi(B) = (-x_B, i*y_B) in F_p2, then the power (p^2 - 1)/q."""
    p, q = params.p, params.q
    u, w = Fp2Element(-b.x, 0, p), Fp2Element(0, b.y, p)

    def fp(v):
        return Fp2Element(v, 0, p)

    def line(t, r):
        """Line through t and r at phi(B), over the vertical at t + r; 1 when
        t = O (the vertical at r over itself)."""
        if t is None:
            return fp(1)
        s = add_oracle(p, t, r)
        if s is None:
            return fp2_sub(u, fp(t[0]))
        if t == r:
            lam = (3 * t[0] * t[0] + 1) * pow(2 * t[1], -1, p) % p
        else:
            lam = (r[1] - t[1]) * pow(r[0] - t[0], -1, p) % p
        chord = fp2_sub(fp2_sub(w, fp(t[1])), fp(lam) * fp2_sub(u, fp(t[0])))
        return chord * fp2_inv(fp2_sub(u, fp(s[0])))

    f, t = Fp2Element.one(p), (a.x, a.y)
    for bit in bin(q)[3:]:
        f = f * f * line(t, t)
        t = add_oracle(p, t, t)
        if bit == "1":
            f = f * line(t, (a.x, a.y))
            t = add_oracle(p, t, (a.x, a.y))
    return pow_oracle(f, (p * p - 1) // q)


class TestParameterSearch:
    def test_toy_parameters(self, toy_params):
        # r = 1 gives 12*13 - 1 = 155 = 5 * 31 (composite, by trial division);
        # r = 2 gives 311, prime.
        assert any(155 % d == 0 for d in range(2, 13))
        assert all(311 % d for d in range(2, 18))
        assert (toy_params.p, toy_params.q, toy_params.cofactor) == (311, 13, 24)
        assert toy_params.p % 4 == 3
        toy_params.validate()

    def test_group_order_is_p_plus_one(self, toy_params):
        # brute-force point count: #E = p + 1 = 312 for this supersingular curve
        count = 1  # identity
        for x in range(P):
            rhs = (x * x * x + x) % P
            if rhs == 0:
                count += 1
            elif legendre(rhs, P) == 1:
                count += 2
        assert count == P + 1 == 312

    def test_cofactor_clearing_lands_in_subgroup(self, toy_params):
        rnd = random.Random(7)
        hits = 0
        while hits < 10:
            x = rnd.randrange(P)
            rhs = (x * x * x + x) % P
            if legendre(rhs, P) != 1:
                continue
            y = pow(rhs, (P + 1) // 4, P)
            cleared = mul_oracle(P, toy_params.cofactor, (x, y))
            # order of the cleared point divides 13
            if cleared is not None:
                acc = None
                for _ in range(Q):
                    acc = add_oracle(P, acc, cleared)
                assert acc is None
            hits += 1

    def test_generator_invariants(self, toy_params):
        g = toy_params.generator
        assert not g.is_identity and g.on_curve()
        assert scalar_mul(Q, g).is_identity

    def test_mid_size_generation(self, mid_params):
        assert mid_params.q.bit_length() == 32
        mid_params.validate()

    def test_explicit_order_with_bit_target(self):
        params = params_for_subgroup_order(13, b"toy", p_bits=16)
        assert params.p.bit_length() == 16
        assert (params.p + 1) % (12 * 13) == 0
        params.validate()

    def test_search_exhaustion(self):
        with pytest.raises(ParamSearchFailed):
            # the only 8-bit candidate, 12*13*1 - 1 = 155, is composite
            params_for_subgroup_order(13, b"toy", p_bits=8)

    @pytest.mark.parametrize("p_bits", [1, 0, -1])
    def test_no_p_below_two_bits(self, p_bits):
        # p_bits 0 and -1 shifted by a negative count (ValueError) before
        # reaching the search's own refusal
        with pytest.raises(ParamSearchFailed, match="no prime p = 12"):
            params_for_subgroup_order(13, b"toy", p_bits=p_bits)

    def test_rejects_composite_order(self):
        with pytest.raises(ParamSearchFailed):
            params_for_subgroup_order(15, b"toy")

    @pytest.mark.parametrize("q", [2, 3])
    def test_orders_dividing_12_refused_before_the_search(self, q, monkeypatch):
        # no cofactor 12*r is free of q, so the search could only run out
        tested, check = [], curve.is_prime
        monkeypatch.setattr(curve, "is_prime", lambda n: tested.append(n) or check(n))
        with pytest.raises(ParamSearchFailed, match=f"order {q} is not a prime of at least 5"):
            params_for_subgroup_order(q, b"toy")
        assert tested == [q]

    def test_generate_params_refuses_q_bits_below_4(self):
        # a 3-bit q would be found (5 or 7) and a curve built around it
        with pytest.raises(ParamSearchFailed, match="q_bits must be at least 4"):
            generate_params(3, b"s")
        assert generate_params(4, b"s").q.bit_length() == 4

    def test_deterministic_from_seed(self):
        a = generate_params(16, b"det-seed")
        b = generate_params(16, b"det-seed")
        c = generate_params(16, b"other-seed")
        assert a == b
        assert a != c


class TestGroupLaw:
    def test_identity_cases(self, toy_params):
        g = toy_params.generator
        ident = G1Point.identity(P)
        assert point_add(g, ident) == g
        assert point_add(ident, g) == g
        assert point_add(g, neg(g)).is_identity

    def test_off_curve_rejected(self, toy_params):
        bogus = G1Point(P, 1, 1)
        assert not bogus.on_curve()
        with pytest.raises(InvalidPoint):
            point_add(bogus, toy_params.generator)
        with pytest.raises(InvalidPoint):
            scalar_mul(2, bogus)

    def test_mixed_fields_rejected(self, toy_params, mid_params):
        with pytest.raises(ParamMismatch):
            point_add(toy_params.generator, mid_params.generator)

    def test_associativity_random_triples(self, toy_params):
        g = toy_params.generator
        rnd = random.Random(13)
        for _ in range(100):
            a = scalar_mul(rnd.randrange(Q), g)
            b = scalar_mul(rnd.randrange(Q), g)
            c = scalar_mul(rnd.randrange(Q), g)
            assert point_add(point_add(a, b), c) == point_add(a, point_add(b, c))

    def test_scalar_mul_small_cases(self, toy_params):
        g = toy_params.generator
        assert scalar_mul(0, g).is_identity
        assert scalar_mul(1, g) == g
        assert scalar_mul(Q, g).is_identity
        assert scalar_mul(-1, g) == neg(g)

    def test_scalar_mul_matches_repeated_addition(self, toy_params):
        g = toy_params.generator
        for k in range(51):
            assert as_pair(scalar_mul(k, g)) == mul_oracle(P, k, (g.x, g.y))

    def test_ladder_matches_oracle_on_every_point(self, toy_params):
        # all 312 points, the 299 outside the subgroup included, so the
        # mixed addition meets both T = A (doubling) and T = -A (identity)
        for pt in all_points(P):
            x, y = pt if pt else (None, None)
            neg = pt and (x, -y % P)
            for k in range(2 * Q + 2):
                assert _mul_raw(P, k, x, y) == (mul_oracle(P, k, pt) or (None, None))
                assert _mul_raw(P, -k, x, y) == (mul_oracle(P, k, neg) or (None, None))

    def test_signed_digits_small_scalars(self):
        for k in range(1, 10**4 + 1):
            assert_naf(k)

    @given(st.integers(min_value=2**399, max_value=2**400 - 1))
    def test_signed_digits_wide_scalars(self, k):
        assert_naf(k)

    def test_width4_digits_small_scalars(self):
        for k in range(1, 10**4 + 1):
            assert_naf(k, 4)
        # 9 = 16 - 7: one digit longer than 9's bit length and its NAF
        assert _signed_digits(9, 4) == [-7, 0, 0, 0, 1] and len(_signed_digits(9)) == 4

    @given(st.integers(min_value=2**159, max_value=2**160 - 1))
    def test_width4_digits_wide_scalars(self, k):
        assert_naf(k, 4)

    def test_point_add_matches_oracle_on_every_pair(self, toy_params):
        # every ordered pair of the 312 points: P + P, P + (-P), the 2-torsion
        # point (0, 0) and the identity on either side; one group op each
        points = all_points(P)
        with measure() as counter:
            for a in points:
                pa = G1Point(P, *(a or (None, None)))
                for b in points:
                    pb = G1Point(P, *(b or (None, None)))
                    assert as_pair(point_add(pa, pb)) == add_oracle(P, a, b)
        assert counter.counts[G1_GROUP_OP] == len(points) ** 2
        assert counter.counts[G1_SCALAR_MUL] == 0

    def test_in_subgroup_counts_q_points(self, toy_params):
        members = [
            pt for pt in all_points(P) if in_subgroup(G1Point(P, *(pt or (None, None))), Q)
        ]
        assert len(members) == Q
        assert all(mul_oracle(P, Q, pt) is None for pt in members)


class TestTatePairing:
    def test_inlined_distortion_line_formula(self, toy_params, mid_params):
        # the projective loop with phi(B) folded into its line values must
        # agree with the explicit textbook loop, and e(P, P) must not be 1
        for params in (toy_params, mid_params):
            g = params.generator
            e = tate_pairing(g, g, params)
            assert not e.is_one
            assert e.value == miller_oracle(params, g, g)
            a, b = scalar_mul(3, g), scalar_mul(params.q - 5, g)
            assert tate_pairing(a, b, params).value == miller_oracle(params, a, b)

    def test_identity_inputs(self, toy_params):
        g = toy_params.generator
        ident = G1Point.identity(P)
        assert tate_pairing(ident, g, toy_params).is_one
        assert tate_pairing(g, ident, toy_params).is_one

    def test_non_degenerate(self, toy_params):
        e = tate_pairing(toy_params.generator, toy_params.generator, toy_params)
        assert not e.is_one
        assert (e**Q).is_one

    def test_published_bilinearity_identity(self, toy_params):
        # e(2A, 3A) = e(A, A)^6
        g = toy_params.generator
        base = tate_pairing(g, g, toy_params)
        assert tate_pairing(scalar_mul(2, g), scalar_mul(3, g), toy_params) == base**6

    def test_exponent_arithmetic(self, toy_params):
        g = toy_params.generator
        base = tate_pairing(g, g, toy_params)
        rnd = random.Random(99)
        for _ in range(100):
            a, b = rnd.randrange(Q), rnd.randrange(Q)
            assert tate_pairing(scalar_mul(a, g), scalar_mul(b, g), toy_params) == base ** (
                a * b % Q
            )

    def test_bilinearity_both_slots(self, toy_params):
        g = toy_params.generator
        rnd = random.Random(5)
        for _ in range(100):
            a = scalar_mul(rnd.randrange(Q), g)
            b = scalar_mul(rnd.randrange(Q), g)
            c = scalar_mul(rnd.randrange(Q), g)
            assert tate_pairing(point_add(a, b), c, toy_params) == tate_pairing(
                a, c, toy_params
            ) * tate_pairing(b, c, toy_params)
            assert tate_pairing(a, point_add(b, c), toy_params) == tate_pairing(
                a, b, toy_params
            ) * tate_pairing(a, c, toy_params)

    def test_outputs_in_order_q_subgroup(self, toy_params):
        g = toy_params.generator
        rnd = random.Random(3)
        for _ in range(25):
            a = scalar_mul(rnd.randrange(1, Q), g)
            b = scalar_mul(rnd.randrange(1, Q), g)
            e = tate_pairing(a, b, toy_params)
            assert (e**Q).is_one and e.value != Fp2Element(0, 0, P)

    def test_final_exponentiation_refuses_zero(self, toy_params):
        # 0 has no inverse, so no power (p - 1)*cofactor
        with pytest.raises(InversionOfZero):
            curve._final_exponentiation(Fp2Element(0, 0, P), toy_params)

    def test_mid_size_bilinearity(self, mid_params):
        g = mid_params.generator
        base = tate_pairing(g, g, mid_params)
        assert not base.is_one
        rnd = random.Random(17)
        for _ in range(10):
            a, b = rnd.randrange(mid_params.q), rnd.randrange(mid_params.q)
            assert tate_pairing(scalar_mul(a, g), scalar_mul(b, g), mid_params) == base ** (
                a * b % mid_params.q
            )


CACHES = (curve._product_chain, curve._miller_lines, curve._doubling_chain, curve._clear_cofactor)
CHAIN_SCALARS = [
    sign * k
    for bits in (1, 31, 32, 33, 63, 64, 65)
    for k in {2**bits - 1, 2 ** (bits - 1) + 0x89ABCDEF % 2 ** (bits - 1)}
    for sign in (1, -1)
]


@pytest.fixture()
def cold_caches():
    """Start from, and leave behind, empty precomputation caches."""
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()


def negated(pair):
    return pair and (pair[0], -pair[1] % P)


def neg(point):
    return point if point.is_identity else G1Point(point.p, point.x, -point.y % point.p)


def affine(chain):
    """Whether every entry of a doubling chain is affine or the identity."""
    return {z for _, _, z in chain} <= {0, 1}


def divided(lines):
    """Whether every line of a Miller line set has c2 = 1, or c2 = 0."""
    return {c2 for step in lines for _, _, c2 in step} <= {0, 1}


def read_past_k(read):
    """Call `read` as often as it takes its table to be normalised."""
    for _ in range(curve.NORMALISE_AT):
        read()


class TestPrecompute:
    def test_scalar_mul_matches_oracle_cold_and_warm(self, toy_params, cold_caches):
        # all 312 points: chain entries of small-order bases are the
        # identity, and the bucket additions meet T = A and T = -A; every k
        # on a new chain, on a chain as built and on a normalised chain
        for pt in all_points(P):
            a = G1Point(P, *(pt or (None, None)))
            multiples = [None]
            for _ in range(27):
                multiples.append(add_oracle(P, multiples[-1], pt))
            want = {k: multiples[k] if k >= 0 else negated(multiples[-k]) for k in range(-27, 28)}
            for warm in (0, 1):
                for k in range(-27, 28):
                    curve._product_chain.cache_clear()
                    curve._doubling_chain.cache_clear()
                    if warm:
                        scalar_mul(1, a)  # builds the 33-entry chain every k here reads
                    assert as_pair(scalar_mul(k, a)) == want[k]
            read_past_k(lambda: scalar_mul(1, a))
            if pt:
                assert affine(curve._product_chain(P, *pt, 33))
            for k in range(-27, 28):
                assert as_pair(scalar_mul(k, a)) == want[k]
            # 1-bit scalars, and scalars on either side of the 32- and 64-bit
            # roundings of the chain's length, where the width-4 form of the
            # widest one reads the chain's last entry
            for k in CHAIN_SCALARS:
                assert as_pair(scalar_mul(k, a)) == mul_oracle(P, k % (P + 1), pt)

    def test_checked_first_product_matches_oracle_cold_and_warm(self, toy_params, cold_caches):
        # all 312 points, (0, 0) and the identity included, k in [-2q-1, 2q+1]:
        # the first product after an order-q check reads the check's chain
        # through the product cache, or builds it when the check's is evicted
        for pt in all_points(P):
            coords = pt or (None, None)
            multiples = [None]
            for _ in range(2 * Q + 1):
                multiples.append(add_oracle(P, multiples[-1], pt))
            for cold in (False, True):
                for cache in (curve._product_chain, curve._doubling_chain):
                    cache.cache_clear()
                a = G1Point(P, *coords)
                in_subgroup(a, Q)
                if cold:
                    curve._doubling_chain.cache_clear()
                for k in range(-2 * Q - 1, 2 * Q + 2):
                    want = multiples[k] if k >= 0 else negated(multiples[-k])
                    assert as_pair(scalar_mul(k, a)) == want
                if pt:
                    assert curve._product_chain.cache_info().misses == 1
                    assert curve._doubling_chain.cache_info().hits == (0 if cold else 1)
        # 2*(0, 0) is the identity, and so is every later chain entry
        assert [z for _, _, z in curve._doubling_chain(P, 0, 0, 5)] == [1, 0, 0, 0, 0]

    def test_decoded_point_and_its_product_share_one_doubling_chain(
        self, production_params, cold_caches, monkeypatch
    ):
        params = production_params
        q, p = params.q, params.p
        point = scalar_mul(987654321, params.generator)
        k = 3**100  # below q, with every bucket filled
        doublings = []
        double = curve._double_jacobian
        monkeypatch.setattr(curve, "_double_jacobian", lambda *a: doublings.append(a) or double(*a))
        decoded, _ = decode_point(point.encode(), params)
        # the chain's 2^i*P for i <= q.bit_length(), then the bucket sum's one
        assert len(doublings) == q.bit_length() + 1 == 161
        doublings.clear()
        got = scalar_mul(k, decoded)
        assert len(doublings) == 1  # the bucket sum's; no chain doublings
        monkeypatch.undo()
        assert got == scalar_mul(k, G1Point(p, point.x, point.y))

    def test_width4_form_longer_than_qs_naf_shares_the_checks_chain(
        self, cold_caches, monkeypatch
    ):
        # q = 2^31 + 2^28 + 5 has a 32-digit NAF, and this k < q a 33-digit
        # width-4 form (its top digits 9 = 16 - 7), with every bucket used
        q = 2**31 + 2**28 + 5
        params = params_for_subgroup_order(q, b"width-4 chain")
        k = q - 3534754
        digits = _signed_digits(k, 4)
        assert len(digits) == len(_signed_digits(q)) + 1 == 33
        assert {abs(d) for d in digits} == {0, 1, 3, 5, 7}
        point = scalar_mul(123456789, params.generator)
        for cache in CACHES:
            cache.cache_clear()
        decoded, _ = decode_point(point.encode(), params)
        doublings = []
        double = curve._double_jacobian
        monkeypatch.setattr(curve, "_double_jacobian", lambda *a: doublings.append(a) or double(*a))
        got = scalar_mul(k, decoded)
        assert len(doublings) == 1  # the bucket sum's; no chain doublings
        assert curve._doubling_chain.cache_info()[:2] == (1, 1)  # hits, misses
        monkeypatch.undo()
        assert got == neg(scalar_mul(q - k, point))
        assert got == scalar_mul(k, G1Point(params.p, point.x, point.y))

    def test_scalar_longer_than_q_gets_its_own_chain(self, mid_params, cold_caches):
        # a 41-bit k rounds up to a 65-entry chain; k mod the 32-bit q takes 33
        g, q = mid_params.generator, mid_params.q
        assert q.bit_length() == 32
        k = (1 << 40) + 12345
        got = scalar_mul(k, g)
        assert [len(curve._product_chain(g.p, g.x, g.y, n)) for n in (65, 33)] == [65, 33]
        assert curve._product_chain.cache_info()[:2] == (1, 2)  # hits, misses
        assert got == scalar_mul(k % q, g)
        assert scalar_mul(-k, g) == neg(got)
        assert curve._product_chain.cache_info()[:4] == (3, 2, 16, 2)

    def test_pairing_matches_oracle_cold_and_warm(self, toy_params, cold_caches):
        # every point as the Miller (cached) argument, every subgroup point as
        # the other; T = O inside the loop for the 11 points whose order
        # divides 12 (T runs through 1, 2, 3, 6, 12 times A), and the
        # tangent at a 2-torsion T has c2 = 0, which stays past K
        points = [G1Point(P, *pt) for pt in all_points(P)[1:]]
        subgroup = [b for b in points if in_subgroup(b, Q)]
        for a in points:
            want = {b: miller_oracle(toy_params, a, b) for b in subgroup}
            for b in subgroup:
                curve._miller_lines.cache_clear()
                assert tate_pairing(a, b, toy_params).value == want[b]
                assert tate_pairing(a, b, toy_params).value == want[b]
            read_past_k(lambda: tate_pairing(a, subgroup[0], toy_params))
            assert divided(curve._miller_lines(Q, P, a.x, a.y))
            for b in subgroup:
                assert tate_pairing(a, b, toy_params).value == want[b]

    def test_a_kept_table_is_rewritten_on_its_kth_read(self, mid_params, cold_caches):
        # a product base's chain and a Miller argument's lines stay as built
        # for K - 1 reads, the K-th rewrites them in place, and every product
        # and pairing is the same before and after; the raw Miller value
        # changes by an F_p factor, and the check cache's chain stays as built
        params = mid_params
        p, q, g = params.p, params.q, params.generator
        b, k = hash_to_point(b"other", params), q - 12345
        product = scalar_mul(k, g)  # the first read of each table
        as_built = curve._miller_loop(q, p, g.x, g.y, b.x, b.y)
        chain, lines = curve._product_chain(p, g.x, g.y, 33), curve._miller_lines(q, p, g.x, g.y)
        for _ in range(2, curve.NORMALISE_AT):
            assert scalar_mul(k, g) == product
            assert curve._miller_loop(q, p, g.x, g.y, b.x, b.y) == as_built
        assert not affine(chain) and not divided(lines)
        assert scalar_mul(k, g) == product  # the K-th reads
        f = curve._miller_loop(q, p, g.x, g.y, b.x, b.y)
        assert affine(chain) and divided(lines)
        assert curve._product_chain(p, g.x, g.y, 33) is chain
        assert curve._miller_lines(q, p, g.x, g.y) is lines
        assert f != as_built and (f.a * as_built.b - f.b * as_built.a) % p == 0
        assert scalar_mul(k, g) == product
        assert tate_pairing(g, b, params).value == curve._final_exponentiation(as_built, params)
        assert not affine(curve._doubling_chain(p, g.x, g.y, 33))

    @pytest.mark.parametrize("lines", ["as built", "past K"])
    def test_every_toy_pairing_is_pinned(self, toy_params, cold_caches, monkeypatch, lines):
        # e(A, B) for all 312 x 312 pairs, the identity included, each as
        # its encoding or the class name of what it raised, as computed
        # before lines were normalised: 33 pairs, all with B = (0, 0), have
        # Miller value 0, which the final exponentiation cannot invert
        points = [G1Point(P, *(pt or (None, None))) for pt in all_points(P)]
        if lines == "as built":
            monkeypatch.setattr(curve, "NORMALISE_AT", 0)  # no read normalises a table
        digest, raised = hashlib.sha256(), []
        for a in points:
            if lines == "past K" and not a.is_identity:
                read_past_k(lambda: tate_pairing(a, toy_params.generator, toy_params))
                assert divided(curve._miller_lines(Q, P, a.x, a.y))
            for b in points:
                try:
                    digest.update(tate_pairing(a, b, toy_params).encode())
                except InversionOfZero as exc:
                    digest.update(type(exc).__name__.encode())
                    raised.append(b)
        assert digest.hexdigest() == (
            "6ebc634faf5c81956a267c6f3169c1cfd1e3bf5e2c1a46baf8da4bca1e49e7e7"
        )
        assert len(raised) == 33 and set(raised) == {G1Point(P, 0, 0)}

    def test_pairing_is_symmetric_on_the_subgroup(self, toy_params, mid_params):
        subgroup = [scalar_mul(k, toy_params.generator) for k in range(Q)]
        for a in subgroup:
            for b in subgroup:
                assert tate_pairing(a, b, toy_params) == tate_pairing(b, a, toy_params)
        g, rnd = mid_params.generator, random.Random(23)
        for _ in range(5):
            a = scalar_mul(rnd.randrange(mid_params.q), g)
            b = scalar_mul(rnd.randrange(mid_params.q), g)
            assert tate_pairing(a, b, mid_params) == tate_pairing(b, a, mid_params)

    def test_points_carry_only_their_coordinates(self, mid_params):
        # a check or a product leaves nothing on the point object
        point = scalar_mul(12345, mid_params.generator)
        decoded, _ = decode_point(point.encode(), mid_params)
        assert in_subgroup(decoded, mid_params.q)
        scalar_mul(77, decoded)
        for a in (point, decoded, G1Point(P, 1, 2), G1Point.identity(P)):
            assert not hasattr(a, "__dict__")
            with pytest.raises(AttributeError):
                object.__setattr__(a, "_order_q", (mid_params.q, True))
        assert G1Point.__slots__ == ("p", "x", "y")
        assert (decoded.p, decoded.x, decoded.y) == (point.p, point.x, point.y)

    def test_order_check_answers_per_q(self, toy_params):
        g = G1Point(P, toy_params.gx, toy_params.gy)
        assert in_subgroup(g, Q) and not in_subgroup(g, 2) and in_subgroup(g, Q)

    def test_caches_are_shared_safely_between_threads(self, toy_params, cold_caches, monkeypatch):
        # more threads than cores, switching often, over more bases than the
        # chain caches hold and more identities than the clearing cache holds:
        # every result must match its single-thread product and cold hash.
        # Every thread also multiplies and pairs with one hot point g, so
        # tables are normalised while other threads read them
        g = toy_params.generator
        points = [G1Point(P, *pt) for pt in all_points(P)[1:41]]
        want = {(k, a): G1Point(P, *_mul_raw(P, k, a.x, a.y)) for a in points + [g] for k in (5, 11)}
        subgroup = [scalar_mul(k, g) for k in range(1, Q)]
        pairings = {b: miller_oracle(toy_params, g, b) for b in subgroup}
        for cache in CACHES:
            cache.cache_clear()
        rewrites = []  # (which, table): holding each table keeps its id unique
        for name in ("_normalise_chain", "_normalise_lines"):
            rewrite = getattr(curve, name)
            monkeypatch.setattr(
                curve, name, lambda p, t, f=rewrite, n=name: rewrites.append((n, t)) or f(p, t)
            )
        ids = [f"id-{i}".encode() for i in range(40)]
        hashed = {}
        for ident in ids:
            hashed[ident] = hash_to_point(ident, toy_params)
            curve._clear_cofactor.cache_clear()
        errors = []

        def work(seed):
            rnd = random.Random(seed)
            try:
                for _ in range(300):
                    a, k = rnd.choice(points), rnd.choice((5, 11))
                    if scalar_mul(k, a) != want[(k, a)]:
                        errors.append((k, a))
                    if scalar_mul(k, g) != want[(k, g)]:
                        errors.append((k, g))
                    tate_pairing(a, g, toy_params)
                    b = rnd.choice(subgroup)
                    if tate_pairing(g, b, toy_params).value != pairings[b]:
                        errors.append((g, b))
                    ident = rnd.choice(ids)
                    if hash_to_point(ident, toy_params) != hashed[ident]:
                        errors.append(ident)
            except Exception as exc:  # reported below; a thread cannot raise into the test
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        info = curve._product_chain.cache_info()
        assert info.currsize <= info.maxsize
        # both kinds of table were rewritten while shared, and none twice
        assert {name for name, _ in rewrites} == {"_normalise_chain", "_normalise_lines"}
        assert len({id(table) for _, table in rewrites}) == len(rewrites)

    def test_caches_stay_bounded(self, toy_params, cold_caches):
        g = toy_params.generator
        for pt in all_points(P)[1:101]:
            a = G1Point(P, *pt)
            in_subgroup(a, Q)
            scalar_mul(5, a)
            scalar_mul(5, a)
            tate_pairing(a, g, toy_params)
        for i in range(100):
            hash_to_point(f"id-{i}".encode(), toy_params)
        infos = [cache.cache_info() for cache in CACHES]
        for info in infos:
            assert 0 < info.currsize <= info.maxsize
        assert infos[-1].misses > infos[-1].maxsize
        assert [info.maxsize for info in infos] == [16, 8, 4, 16]


class TestHashToPoint:
    def test_deterministic(self, toy_params):
        assert hash_to_point(b"alice", toy_params) == hash_to_point(b"alice", toy_params)

    def test_subgroup_membership(self, toy_params):
        point = hash_to_point(b"alice", toy_params)
        assert not point.is_identity
        assert scalar_mul(Q, point).is_identity

    def test_regression_coordinates(self, toy_params):
        # concrete outputs of the SHA-256 try-and-increment procedure, pinned;
        # "alice" and "bob" happen to collide in this 12-element group, so the
        # distinctness check uses "carol".
        assert as_pair(hash_to_point(b"alice", toy_params)) == (274, 25)
        assert as_pair(hash_to_point(b"bob", toy_params)) == (274, 25)
        assert as_pair(hash_to_point(b"carol", toy_params)) == (141, 132)
        assert hash_to_point(b"alice", toy_params) != hash_to_point(b"carol", toy_params)

    def test_one_square_root_per_try(self, production_params, monkeypatch):
        # pinned on the production curve: the tries per identity (a
        # non-residue x^3 + x costs one) and a digest of the point found
        pinned = {
            b"alice": (4, "bf721f40ca8addf12b5375ab4bcb02292395691e5fa66357d4917660d6e3c435"),
            b"bob": (2, "8a57fddaa643b839138dccf64cf9771c336dfaab2745c7e4d2413e703a93f79e"),
            b"carol": (3, "c35ce743a7ecdcd2a426c4f8e63eac630a6c2336b203ac906af3cc72763f1abb"),
            b"dave": (1, "85ad488d99068304fbf6b45abe7ce46cf6cb494efbe86a1b17368ea9fed6a12c"),
        }
        p = production_params.p
        roots = []
        root = curve.sqrt_mod
        monkeypatch.setattr(curve, "sqrt_mod", lambda *a: roots.append(a) or root(*a))
        for identity, (tries, digest) in pinned.items():
            del roots[:]
            point = hash_to_point(identity, production_params)
            assert len(roots) == tries
            assert [legendre(a, p) for a, _ in roots] == [-1] * (tries - 1) + [1]
            assert hashlib.sha256(point.encode()).hexdigest() == digest

    def test_gives_up_after_the_last_counter(self, toy_params, monkeypatch):
        tries = []
        monkeypatch.setattr(curve, "sqrt_mod", lambda a, p: tries.append(a))
        monkeypatch.setattr(curve, "HASH_TO_POINT_MAX_COUNTER", 4)
        with pytest.raises(HashToPointFailed, match="no curve point found for b'alice'"):
            hash_to_point(b"alice", toy_params)
        assert len(tries) == 4

    def test_generator_is_one_map_to_point(self, toy_params):
        with measure() as counter:
            params = params_for_subgroup_order(Q, b"toy")
        assert params.generator == hash_to_point(b"generator|toy", toy_params)
        assert counter.counts[MAP_TO_POINT] == 1

    def test_coupon_collector_coverage(self, toy_params):
        # 1000 distinct ids must hit all 12 non-identity subgroup elements
        seen = set()
        for i in range(1000):
            pt = hash_to_point(f"id-{i}".encode(), toy_params)
            seen.add((pt.x, pt.y))
        assert len(seen) == Q - 1

    def test_cofactor_clearing_is_one_bucket_sum_over_an_unkept_chain(
        self, production_params, monkeypatch, cold_caches
    ):
        # the production cofactor has 167 one-bits but 9 nonzero width-4
        # digits: one addition into a bucket per digit and 8 to combine the
        # buckets, after the 352 doublings of a 353-entry chain and the
        # bucket sum's one; neither chain cache keeps that chain
        params = production_params
        h, p = params.cofactor, params.p
        assert (h.bit_length(), bin(h).count("1")) == (352, 167)
        assert sum(1 for d in _signed_digits(h, 4) if d) == 9
        x = next(x for x in range(1, p) if sqrt_mod((x * x * x + x) % p, p) is not None)
        y = sqrt_mod((x * x * x + x) % p, p)
        adds, doublings = [], []
        add, double = curve._add_jacobian, curve._double_jacobian
        monkeypatch.setattr(curve, "_add_jacobian", lambda *a: adds.append(a) or add(*a))
        monkeypatch.setattr(curve, "_double_jacobian", lambda *a: doublings.append(a) or double(*a))
        point = G1Point(p, *curve._clear_cofactor(p, h, x, y))
        assert (len(adds), len(doublings)) == (17, 353)
        for chains in (curve._doubling_chain, curve._product_chain):
            info = chains.cache_info()
            assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
        monkeypatch.undo()
        assert not point.is_identity and scalar_mul(params.q, point).is_identity

    def test_recurring_identity_skips_the_cofactor_clearing(
        self, production_params, monkeypatch, cold_caches
    ):
        # the clearing is cached by its inputs; SHA-256 and sqrt_mod still run
        # once per try, so a repeat pays one Jacobi symbol per try and the
        # one exponentiation of the residue it stops at
        roots, adds, doublings = [], [], []
        root, add, double = curve.sqrt_mod, curve._add_jacobian, curve._double_jacobian
        monkeypatch.setattr(curve, "sqrt_mod", lambda *a: roots.append(a) or root(*a))
        monkeypatch.setattr(curve, "_add_jacobian", lambda *a: adds.append(a) or add(*a))
        monkeypatch.setattr(curve, "_double_jacobian", lambda *a: doublings.append(a) or double(*a))
        first = hash_to_point(b"alice", production_params)
        cold = (len(roots), len(adds), len(doublings))
        del roots[:], adds[:], doublings[:]
        again = hash_to_point(b"alice", production_params)
        monkeypatch.undo()
        assert cold[1:] == (17, 353)
        assert (len(roots), len(adds), len(doublings)) == (cold[0], 0, 0)
        assert again == first

    def test_cached_clearing_returns_a_new_point_object(self, production_params, cold_caches):
        params = production_params
        first = hash_to_point(b"alice", params)
        assert in_subgroup(first, params.q)
        again = hash_to_point(b"alice", params)
        assert again == first and again is not first
        scalar_mul(12345, first)
        third = hash_to_point(b"alice", params)
        assert third == first and third is not first and third is not again


class TestEncodings:
    def test_point_roundtrip(self, toy_params):
        for k in range(Q):
            point = scalar_mul(k, toy_params.generator)
            decoded, consumed = decode_point(point.encode(), toy_params)
            assert decoded == point
            assert consumed == len(point.encode())

    def test_identity_encoding(self, toy_params):
        assert G1Point.identity(P).encode() == b"\x00"

    def test_gt_roundtrip(self, toy_params):
        e = tate_pairing(toy_params.generator, toy_params.generator, toy_params)
        for k in range(1, Q):
            value = e**k
            decoded, consumed = decode_gt(value.encode(), toy_params)
            assert decoded == value and consumed == 4

    def test_point_decode_rejects_garbage(self, toy_params):
        with pytest.raises(DecodeError):
            decode_point(b"", toy_params)
        with pytest.raises(DecodeError):
            decode_point(b"\x07" + b"\x00" * 4, toy_params)
        with pytest.raises(DecodeError):
            decode_point(b"\x04\x00\x01", toy_params)  # truncated
        # on-curve but outside the order-13 subgroup
        with pytest.raises(DecodeError):
            decode_point(off_subgroup_point(P, Q).encode(), toy_params)

    def test_point_fault_is_the_acceptance_rule(self, toy_params):
        g = toy_params.generator
        faults = {
            G1Point.identity(P): None,
            g: None,
            G1Point(P, g.x + P, g.y): "has coordinates out of range",
            G1Point(P, g.x, g.y - P): "has coordinates out of range",
            G1Point(P, 1, 1): "is not on the curve",
            off_subgroup_point(P, Q): "is outside the order-q subgroup",
        }
        for point, fault in faults.items():
            assert curve.point_fault(point, Q) == fault

    def test_gt_decode_rejects_garbage(self, toy_params):
        with pytest.raises(DecodeError):
            decode_gt(b"\x00\x00", toy_params)  # truncated
        with pytest.raises(DecodeError):
            decode_gt(b"\x00\x00\x00\x00", toy_params)  # zero: not in the group
        # nonzero but wrong multiplicative order
        bad = Fp2Element(2, 0, P)
        assert not pow_oracle(bad, Q).is_one()
        with pytest.raises(DecodeError):
            decode_gt(bad.encode(), toy_params)

    def test_gt_decode_checks_norm_before_powering(self, toy_params, monkeypatch):
        # 2 has norm 4, so it is refused without a power by q
        calls = []
        power = Fp2Element.__pow__
        monkeypatch.setattr(Fp2Element, "__pow__", lambda x, e: calls.append(e) or power(x, e))
        with pytest.raises(DecodeError, match="outside the order-q subgroup"):
            decode_gt(Fp2Element(2, 0, P).encode(), toy_params)
        assert calls == []

    def test_gt_decode_refuses_norm_one_of_other_order(self, toy_params):
        # i has norm 1 and order 4, which does not divide q
        i = Fp2Element(0, 1, P)
        assert pow_oracle(i, 4).is_one() and not pow_oracle(i, Q).is_one()
        with pytest.raises(DecodeError, match="outside the order-q subgroup"):
            decode_gt(i.encode(), toy_params)

    @pytest.mark.parametrize(
        "part, reason, position",
        [(0, "real component out of range", 5), (1, "imaginary component out of range", 7)],
    )
    def test_gt_decode_refuses_a_component_of_p_or_more(self, toy_params, part, reason, position):
        # a component plus p still fits the 2-byte field at p = 311 and names
        # the same element: without the range check one value has two encodings
        value = tate_pairing(toy_params.generator, toy_params.generator, toy_params).value
        parts = [value.a, value.b]
        parts[part] += P
        data = b"".join(c.to_bytes(2, "big") for c in parts)
        with pytest.raises(DecodeError, match=reason) as info:
            decode_gt(data, toy_params, 5)
        assert info.value.position == position

    @pytest.mark.parametrize(
        "a, b, reason, position",
        [(P, 1, "real component out of range", 5), (1, P, "imaginary component out of range", 7)],
    )
    def test_gt_decode_refuses_a_component_of_exactly_p(self, toy_params, a, b, reason, position):
        # (1, p) is a second encoding of 1, and (p, 1) one of i
        data = a.to_bytes(2, "big") + b.to_bytes(2, "big")
        with pytest.raises(DecodeError, match=reason) as info:
            decode_gt(data, toy_params, 5)
        assert info.value.position == position


class TestPinnedOutputs:
    """Outputs of the affine arithmetic this code replaced; any rewrite of
    the ladder, the Miller loop or F_p2 powering must reproduce them."""

    def test_mid_scale(self, mid_params):
        g = mid_params.generator
        assert tate_pairing(g, g, mid_params).encode().hex() == "0f8097eb020118ebde5a"
        assert hash_to_point(b"pin", mid_params).encode().hex() == "0417eedf051a1b48e62899"

    def test_production_scale(self, production_params):
        params = production_params
        g = params.generator

        def digest(data):
            return hashlib.sha256(data).hexdigest()

        assert digest(tate_pairing(g, g, params).encode()) == (
            "054de76b3ea288b9760b298644e626de2812f8be0082c0f12ca0ada66b3587da"
        )
        assert digest(hash_to_point(b"pin", params).encode()) == (
            "066d990171b261f79e20845d517459f168b069c729a6f3a0c137a272f44eb6ae"
        )
