import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from dvbsig import algebra
from dvbsig.algebra import (
    _SMALL_PRIMES,
    Fp2Element,
    _jacobi,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    byte_width,
    encode_int,
    is_prime,
    mod_inv,
    sample_unit,
    sqrt_mod,
)
from dvbsig.curve import params_for_subgroup_order
from dvbsig.errors import DomainError, InversionOfZero, ParamMismatch
from dvbsig.rng import SeededRng
from tests.test_curve import fp2_add, fp2_conj, fp2_inv, legendre, pow_oracle

SIEVE_LIMIT = 10**5


def _primes_below(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return [n for n in range(limit) if sieve[n]]


PRIMES_BELOW_1E5 = _primes_below(SIEVE_LIMIT)
ODD_COMPOSITES_BELOW_1E5 = sorted(set(range(9, SIEVE_LIMIT, 2)) - set(PRIMES_BELOW_1E5))
# p = 12*q*r - 1 for the least r giving a 512-bit prime with the Solinas q:
# the production-scale field modulus
PRODUCTION_R = int(
    "7644995386633571705369402984340289802655215259296677475227949867542364473"
    "46418243059358251698375624054239"
)
PRODUCTION_P = 12 * (2**159 + 2**17 + 1) * PRODUCTION_R - 1
P = 311  # toy curve modulus, 3 mod 4
Q = 13  # toy subgroup order

fp_values = st.integers(min_value=0, max_value=P - 1)


def unit_norm(x):
    """conj(x)/x, an element of norm 1."""
    return fp2_conj(x) * fp2_inv(x)


def sqrt_oracle(a, p):
    """The exponentiation route alone: a^((p+1)/4), kept when it squares
    back to a."""
    a %= p
    if a == 0:
        return 0
    root = pow(a, (p + 1) // 4, p)
    return min(root, p - root) if root * root % p == a else None


def jacobi_oracle(a, n):
    """(a/n) for odd n > 0 as the product of the Legendre symbols (a/d) over
    n's prime factors d, repeated factors repeated."""
    result, rest = 1, n
    for d in range(3, n + 1, 2):
        while rest % d == 0:
            result *= legendre(a, d)
            rest //= d
    return result


class TestModInv:
    def test_identity(self):
        assert mod_inv(1, 13) == 1

    def test_hand_checked(self):
        # extended Euclid by hand: 2 * 7 = 14 = 1 (mod 13)
        assert mod_inv(2, 13) == 7
        assert 2 * mod_inv(2, 13) % 13 == 1

    def test_zero_rejected(self):
        with pytest.raises(InversionOfZero):
            mod_inv(0, 13)
        with pytest.raises(InversionOfZero):
            mod_inv(26, 13)

    @given(st.integers(min_value=1, max_value=P - 1))
    def test_involution(self, a):
        assert mod_inv(mod_inv(a, P), P) == a


class TestSqrt:
    def test_zero(self):
        assert sqrt_mod(0, P) == 0

    def test_small_square(self):
        assert sqrt_mod(4, P) == 2  # the smaller of {2, 309}

    def test_exponent_route(self):
        # (P+1)/4 = 78; 2^78 mod 311 must square back to 2
        candidate = pow(2, 78, P)
        assert candidate * candidate % P == 2
        assert sqrt_mod(2, P) == min(candidate, P - candidate)

    def test_wrong_modulus_class(self):
        with pytest.raises(DomainError):
            sqrt_mod(4, 13 * 4 + 1)  # 53 = 1 mod 4

    @given(fp_values)
    def test_root_or_nonresidue(self, a):
        root = sqrt_mod(a, P)
        if root is None:
            assert legendre(a, P) == -1
        else:
            assert root * root % P == a % P
            assert root <= P - root

    def test_jacobi_matches_the_factorisation(self):
        # every odd n below 300, squares (9, 25, 225, ...) and other
        # composites among them, and a on both sides of [0, n)
        for n in range(1, 300, 2):
            for a in range(-n, 2 * n):
                assert _jacobi(a, n) == jacobi_oracle(a, n), (a, n)

    def test_matches_the_exponentiation_route_mod_the_toy_p(self):
        assert [sqrt_mod(a, P) for a in range(P)] == [sqrt_oracle(a, P) for a in range(P)]

    def test_matches_the_exponentiation_route_at_mid_and_production(self, mid_params):
        rnd = random.Random(19)
        for p in (mid_params.p, PRODUCTION_P):
            values = [rnd.randrange(p) for _ in range(2000)]
            assert [sqrt_mod(a, p) for a in values] == [sqrt_oracle(a, p) for a in values]

    @pytest.mark.parametrize("n", [15, 27, 35])
    def test_matches_the_exponentiation_route_mod_composites(self, n):
        # a symbol of -1 rules out a root mod some prime factor, so the
        # answer stays None; a symbol of 1 or 0 still has its root checked
        values = range(-n, 2 * n)
        assert [sqrt_mod(a, n) for a in values] == [sqrt_oracle(a, n) for a in values]

    def test_nonresidue_skips_the_exponentiation(self, monkeypatch):
        # a module global named pow shadows the builtin inside algebra
        calls = []
        monkeypatch.setattr(
            algebra, "pow", lambda *a: calls.append(a) or pow(*a), raising=False
        )
        a = next(a for a in range(2, 100) if legendre(a, PRODUCTION_P) == -1)
        assert sqrt_mod(a, PRODUCTION_P) is None
        assert calls == []
        b = next(b for b in range(2, 100) if legendre(b, PRODUCTION_P) == 1)
        root = sqrt_mod(b, PRODUCTION_P)
        assert root * root % PRODUCTION_P == b
        assert len(calls) == 1


class TestFp2:
    def test_multiplicative_identity(self):
        one = Fp2Element.one(P)
        z = Fp2Element(17, 42, P)
        assert one * z == z

    def test_i_squared_is_minus_one(self):
        i = Fp2Element(0, 1, P)
        assert i * i == Fp2Element(P - 1, 0, P)

    def test_hand_product(self):
        # (2+3i)(4+5i) = (8-15) + (10+12)i = -7 + 22i
        lhs = Fp2Element(2, 3, P) * Fp2Element(4, 5, P)
        assert lhs == Fp2Element(304, 22, P)

    def test_mismatched_moduli(self):
        with pytest.raises(ParamMismatch):
            Fp2Element(1, 0, P) * Fp2Element(1, 0, 13)

    @given(fp_values, fp_values, fp_values, fp_values, fp_values, fp_values)
    def test_ring_axioms(self, a, b, c, d, e, f):
        x = Fp2Element(a, b, P)
        y = Fp2Element(c, d, P)
        z = Fp2Element(e, f, P)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * fp2_add(y, z) == fp2_add(x * y, x * z)

    @given(fp_values, fp_values)
    def test_lagrange_order(self, a, b):
        x = Fp2Element(a, b, P)
        if x != Fp2Element(0, 0, P):
            assert pow_oracle(x, P * P - 1).is_one()

    @given(fp_values, fp_values)
    def test_inverse_roundtrip(self, a, b):
        x = Fp2Element(a, b, P)
        if x != Fp2Element(0, 0, P):
            assert (x * fp2_inv(x)).is_one()
            assert (pow_oracle(x, 2) * pow_oracle(fp2_inv(x), 2)).is_one()

    def test_conjugate_is_frobenius(self):
        x = Fp2Element(123, 45, P)
        assert fp2_conj(x) == pow_oracle(x, P)

    def test_pow_matches_repeated_multiplication(self):
        # exponents 0..300 take in every one below 2^8, so every NAF digit
        # string of up to 9 digits that such an exponent has, -1 digits too
        x = unit_norm(Fp2Element(123, 45, P))
        acc = Fp2Element.one(P)
        for e in range(301):
            assert x**e == acc
            acc = acc * x

    def test_pow_exponent_laws_at_wide_moduli(self):
        p = 2**521 - 1  # prime, 3 mod 4
        rnd = random.Random(11)
        x = unit_norm(Fp2Element(rnd.getrandbits(520), rnd.getrandbits(520), p))
        for _ in range(4):
            e1, e2 = rnd.getrandbits(352), rnd.getrandbits(352)
            assert x ** (e1 + e2) == x**e1 * x**e2
            assert x ** (e1 * e2) == (x**e1) ** e2

    def test_pow_by_production_cofactor_and_order(self):
        # the final exponentiation's cofactor (167 one-bits, 11 NAF digits)
        # and decode_gt's q, against square-and-multiply
        q = 2**159 + 2**17 + 1
        p = 12 * q * PRODUCTION_R - 1
        rnd = random.Random(13)
        for _ in range(5):
            x = unit_norm(Fp2Element(rnd.randrange(1, p), rnd.randrange(p), p))
            for e in (12 * PRODUCTION_R, q):
                assert x**e == pow_oracle(x, e)

    def test_pow_refuses_other_norms_and_negative_exponents(self):
        for x in (Fp2Element(0, 0, P), Fp2Element(2, 0, P), Fp2Element(123, 45, P)):
            with pytest.raises(DomainError):
                x**3
            with pytest.raises(DomainError):
                x**0
        with pytest.raises(DomainError):
            unit_norm(Fp2Element(123, 45, P)) ** -1


class TestEncoding:
    def test_widths(self):
        assert byte_width(311) == 2
        assert byte_width(13) == 1
        assert byte_width(2**159 + 2**17 + 1) == 20

    def test_roundtrip(self):
        for v in (0, 1, 310):
            assert int.from_bytes(encode_int(v, P), "big") == v
            assert len(encode_int(v, P)) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            encode_int(311, P)
        with pytest.raises(ValueError):
            encode_int(-1, P)


class TestSampleUnit:
    def test_range_forced_for_tiny_order(self):
        rng = SeededRng("q3")
        draws = {sample_unit(rng, 3) for _ in range(200)}
        assert draws == {1, 2}

    def test_distribution_and_exclusions(self):
        rng = SeededRng("dist")
        counts = [0] * Q
        n = 10_000
        for _ in range(n):
            counts[sample_unit(rng, Q)] += 1
        assert counts[0] == 0
        assert all(counts[v] > 0 for v in range(1, Q))
        # chi-square against uniform over 12 cells, 1% critical value
        expected = n / 12
        chi2 = sum((counts[v] - expected) ** 2 / expected for v in range(1, Q))
        assert chi2 < 24.725  # df = 11, upper 1% point

    def test_deterministic_replay(self):
        first = SeededRng("replay")
        second = SeededRng("replay")
        assert [sample_unit(first, Q) for _ in range(64)] == [
            sample_unit(second, Q) for _ in range(64)
        ]

    def test_too_small_order(self):
        with pytest.raises(DomainError):
            sample_unit(SeededRng("x"), 2)


class TestPrimality:
    def test_small_cases(self):
        assert is_prime(2) and is_prime(3) and is_prime(13) and is_prime(311)
        assert not is_prime(1) and not is_prime(0) and not is_prime(155)

    def test_solinas_prime(self):
        assert is_prime(2**159 + 2**17 + 1)

    def test_carmichael_rejected(self):
        assert not is_prime(561)
        assert not is_prime(41041)

    @given(st.integers(min_value=2, max_value=2000))
    def test_against_trial_division(self, n):
        by_trial = all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_prime(n) == by_trial

    def test_every_n_below_1e5(self):
        assert [n for n in range(SIEVE_LIMIT) if is_prime(n)] == PRIMES_BELOW_1E5

    def test_strong_lucas_pseudoprimes(self):
        # Selfridge method A; OEIS A217255 below 10^5
        assert [n for n in ODD_COMPOSITES_BELOW_1E5 if _strong_lucas_probable_prime(n)] == [
            5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439,
        ]
        assert all(_strong_lucas_probable_prime(n) for n in PRIMES_BELOW_1E5[1:])

    def test_strong_base_2_pseudoprimes(self):
        # OEIS A001262 below 10^5
        assert [n for n in ODD_COMPOSITES_BELOW_1E5 if _strong_probable_prime(n, 2)] == [
            2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633, 65281,
            74665, 80581, 85489, 88357, 90751,
        ]

    def test_pseudoprimes_to_many_bases_rejected(self):
        # strong pseudoprime to every prime base up to 37, the first n that
        # Baillie-PSW decides; 1093^2 is a strong base-2 pseudoprime (1093 is
        # a Wieferich prime) and a square, which the Lucas half refuses
        psi_12 = 3317044064679887385961981
        assert all(_strong_probable_prime(psi_12, a) for a in _SMALL_PRIMES)
        assert not is_prime(psi_12)
        assert _strong_probable_prime(1093**2, 2) and not _strong_lucas_probable_prime(1093**2)
        assert not is_prime(1093**2)

    @pytest.mark.parametrize("n", [561, 1105, 1729, 41041, 825265])
    def test_carmichael_numbers_rejected(self, n):
        assert not is_prime(n)

    def test_composites_above_the_fixed_bases(self):
        p90, p100a, p100b = 2**90 - 33, 2**100 - 15, 2**100 - 99
        assert is_prime(p90) and is_prime(p100a) and is_prime(p100b)
        assert not is_prime(p90 * p90) and not _strong_lucas_probable_prime(p90 * p90)
        assert not is_prime(p100a * p100b)

    def test_production_moduli(self):
        q = 2**159 + 2**17 + 1
        p = 12 * q * PRODUCTION_R - 1
        assert p.bit_length() == 512
        assert is_prime(q) and is_prime(p)
        assert not is_prime(p + 2) and not is_prime(q * p)

    @pytest.mark.parametrize(
        "n, prime",
        [(4093, True), (4095, False), (4096, False), (4097, False), (4099, True),
         (4099**2, False), (4099 * 4111, False)],
    )
    def test_sieve_edge(self, n, prime):
        # 4093 is the last prime in the sieve, 4097 = 17 * 241 the gcd's, and
        # 4099^2 and 4099 * 4111 have no factor below 2^12 for it to find
        assert algebra._SIEVE_LIMIT == 4096
        assert is_prime(n) is prime

    def test_composite_of_large_primes_below_the_base_limit(self):
        # psi_9 = 149491 * 747451 * 34233211 is a strong pseudoprime to the
        # first eleven bases; no factor is below 2^12, so base 37 decides it
        psi_9 = 3825123056546413051
        assert psi_9 == 149491 * 747451 * 34233211 and psi_9 < algebra._SMALL_BASES_LIMIT
        assert all(is_prime(f) for f in (149491, 747451, 34233211))
        assert all(_strong_probable_prime(psi_9, a) for a in _SMALL_PRIMES[:11])
        assert not is_prime(psi_9)

    def test_production_search_rounds(self, monkeypatch):
        # the gcd refuses 107 of the search's 138 candidates; trial division
        # by the primes up to 37 left 67 Miller-Rabin rounds
        rounds = []

        def counted(n, a):
            rounds.append(a)
            return _strong_probable_prime(n, a)

        monkeypatch.setattr(algebra, "_strong_probable_prime", counted)
        params = params_for_subgroup_order(
            2**159 + 2**17 + 1, b"acceptance-production-scale", p_bits=512
        )
        assert len(rounds) <= 35
        assert (params.p, params.cofactor) == (PRODUCTION_P, 12 * PRODUCTION_R)
        assert hashlib.sha256(params.generator.encode()).hexdigest() == (
            "a45d9bb5bc4472a4827481928a2099d9d8862b8378e160ab8bca9a3a78060901"
        )
