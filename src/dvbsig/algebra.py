"""Arbitrary-precision modular arithmetic: the base field F_p, its quadratic
extension F_p2 (i^2 = -1, valid because every curve modulus here satisfies
p = 3 mod 4), and the scalar ring Z_q.

Values are plain Python integers wrapped in small immutable classes, so a
9-bit toy modulus and a 512-bit production modulus run through the same code.
"""

from __future__ import annotations

import math

from .errors import DomainError, InversionOfZero, ParamMismatch

# ---------------------------------------------------------------------------
# integer helpers


def byte_width(modulus: int) -> int:
    """Fixed serialization width for residues of the given modulus."""
    return (modulus.bit_length() + 7) // 8


def encode_int(value: int, modulus: int) -> bytes:
    """Big-endian, fixed-width (I2OSP-style) encoding of 0 <= value < modulus."""
    if not 0 <= value < modulus:
        raise ValueError(f"value {value} out of range for modulus {modulus}")
    return value.to_bytes(byte_width(modulus), "big")


def mod_inv(a: int, m: int) -> int:
    """Inverse of a modulo m; raises InversionOfZero on a = 0 (mod m)."""
    a %= m
    if a == 0:
        raise InversionOfZero(f"0 has no inverse mod {m}")
    return pow(a, -1, m)


def _signed_digits(k: int, w: int = 2) -> list[int]:
    """The width-w non-adjacent form of k >= 0, least significant digit
    first: k = sum(d_i * 2^i), every nonzero d_i odd with |d_i| < 2^(w-1),
    at most one nonzero digit in any w consecutive ones, and the top digit
    positive.  Width 2 is the NAF, with digits 0 and +-1."""
    digits, half = [], 1 << (w - 1)
    while k:
        zeros = (k & -k).bit_length() - 1
        digits += [0] * zeros
        k >>= zeros
        d = k & (2 * half - 1)
        if d >= half:
            d -= 2 * half
        digits.append(d)
        k = (k - d) >> 1
    return digits


def sqrt_mod(a: int, p: int) -> int | None:
    """Canonical square root of a modulo a prime p = 3 (mod 4).

    Returns the numerically smaller of the two roots, or None when a is a
    non-residue.  The Jacobi symbol turns a non-residue away without an
    exponentiation; otherwise the p = 3 (mod 4) restriction makes
    a^((p+1)/4) a root whenever one exists, so no Tonelli-Shanks machinery
    is needed.  The root is checked by squaring it, so for a composite p the
    answer is a root or None: a symbol of -1 rules out every root.
    """
    if p % 4 != 3:
        raise DomainError(f"modulus {p} is not 3 mod 4")
    a %= p
    if a == 0:
        return 0
    if _jacobi(a, p) == -1:
        return None
    root = pow(a, (p + 1) // 4, p)
    if root * root % p != a:
        return None
    return min(root, p - root)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to every base in _SMALL_PRIMES (Sorenson and
# Webster, 2017); below it those bases decide primality
_SMALL_BASES_LIMIT = 3_317_044_064_679_887_385_961_981

# the knee on the production p = 12*q*r - 1 search (CPython 3.11, 2 vCPUs):
# primes below 2^12 leave 31 of its 138 candidates for Miller-Rabin at
# 13.5 us of gcd each, below 2^10 36 at 6.7 us, below 2^14 25 at 42 us
_SIEVE_LIMIT = 1 << 12


def _sieve(limit: int) -> bytearray:
    """flags[n] = 1 exactly for the primes n < limit (Eratosthenes)."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return flags


_IS_SMALL_PRIME = _sieve(_SIEVE_LIMIT)
# the product of the 564 primes below 2^12, a number of 5,811 bits
_SMALL_PRIMORIAL = math.prod(n for n, flag in enumerate(_IS_SMALL_PRIME) if flag)


def is_prime(n: int) -> bool:
    """Primality of n.

    Below 2^12 n is looked up in a sieve.  From 2^12 up, one
    gcd(n, product of the primes below 2^12) refuses every n with a factor
    below 2^12 before a probabilistic round runs: on the parameter search
    that is about three candidates in four.  Below 3.3 * 10^24 the twelve
    prime bases up to 37 then make Miller-Rabin a proof.  From there on it
    is Baillie-PSW: a strong base-2 test and a strong Lucas test
    (Selfridge's parameters).  No composite is known to pass both, including
    adversarially built ones (Albrecht et al., "Prime and Prejudice", CCS
    2018), and their pseudoprimes are believed disjoint.
    """
    if n < _SIEVE_LIMIT:
        return n >= 2 and _IS_SMALL_PRIME[n] == 1
    if math.gcd(n, _SMALL_PRIMORIAL) != 1:
        return False
    if n < _SMALL_BASES_LIMIT:
        return all(_strong_probable_prime(n, a) for a in _SMALL_PRIMES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, a: int) -> bool:
    """One Miller-Rabin round: odd n > 2 passes to base a (not a multiple of n)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0: all factors of two leave a in one
    shift, each flipping the sign when n = 3, 5 (mod 8), then reciprocity
    swaps a and n, flipping it when both are 3 (mod 4)."""
    a %= n
    result = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and (n & 7) in (3, 5):
            result = -result
        if a & n & 3 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test for odd n > 1 with Selfridge's method A: D is the
    first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and Q = (1 - D)/4.

    A perfect square has no such D, so it is refused before the search.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0:
            return n == abs(d)
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    # n + 1 = k * 2^s with k odd; U_k, V_k and Q^k by doubling along k's bits
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    u, v, qk = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            # U_{m+1} = (U_m + V_m)/2 and V_{m+1} = (D U_m + V_m)/2 for P = 1
            u, v = u + v, d * u + v
            u = (u + n if u % 2 else u) // 2 % n
            v = (v + n if v % 2 else v) // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


# ---------------------------------------------------------------------------
# immutable values and F_p2 elements


class Value:
    """An immutable value whose fields are its class's `__slots__`, set once
    by the constructor: it refuses assignment and deletion, equals only a
    value of its own class, and takes its hash and repr from its fields."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which takes the
        # fields in slot order, not through the refused setattr
        return type(self), self._key()


class Fp2Element(Value):
    """Immutable element a + b*i of F_p2 with i^2 = -1 (requires p = 3 mod 4)."""

    __slots__ = ("a", "b", "p")

    def __init__(self, a: int, b: int, p: int):
        object.__setattr__(self, "a", a % p)
        object.__setattr__(self, "b", b % p)
        object.__setattr__(self, "p", p)

    @classmethod
    def one(cls, p: int) -> Fp2Element:
        return cls(1, 0, p)

    def __mul__(self, other: Fp2Element) -> Fp2Element:
        p = self.p
        if other.p != p:
            raise ParamMismatch(f"moduli differ: {p} vs {other.p}")
        # (a + bi)(c + di) = (ac - bd) + (ad + bc)i
        return Fp2Element(
            (self.a * other.a - self.b * other.b) % p,
            (self.a * other.b + self.b * other.a) % p,
            p,
        )

    def __pow__(self, exponent: int) -> Fp2Element:
        """self^exponent for exponent >= 0 and a self of norm a^2 + b^2 = 1, as
        every pairing value has, so that its inverse is its conjugate: square
        and multiply over exponent's NAF digits, a -1 digit multiplying by
        the conjugate.  Every power of such a base has norm 1 too, so its
        square a^2 - b^2 + 2ab*i is (2a^2 - 1) + ((a + b)^2 - 1)*i: two
        squarings, which CPython multiplies faster than two products."""
        a, b, p = self.a, self.b, self.p
        if (a * a + b * b) % p != 1 or exponent < 0:
            raise DomainError(f"F_p2 power {exponent} needs exponent >= 0 and a base of norm 1")
        ra, rb = 1, 0
        for d in reversed(_signed_digits(exponent)):
            s, t = ra * ra, ra + rb
            ra, rb = (2 * s - 1) % p, (t * t - 1) % p
            if d == 1:
                ra, rb = (ra * a - rb * b) % p, (ra * b + rb * a) % p
            elif d == -1:
                ra, rb = (ra * a + rb * b) % p, (rb * a - ra * b) % p
        return Fp2Element(ra, rb, p)

    def is_one(self) -> bool:
        return self.a == 1 and self.b == 0

    def encode(self) -> bytes:
        return encode_int(self.a, self.p) + encode_int(self.b, self.p)


# ---------------------------------------------------------------------------
# scalar sampling


def sample_unit(rng, q: int) -> int:
    """Uniform draw from Z_q^* = [1, q-1] by rejection from q.bit_length() bits.

    `rng` is anything with next_bytes(n) -> bytes; replaying a seeded source
    replays the draws.
    """
    if q <= 2:
        raise DomainError(f"group order {q} leaves no room for units")
    nbytes = byte_width(q)
    mask = (1 << q.bit_length()) - 1
    while True:
        v = int.from_bytes(rng.next_bytes(nbytes), "big") & mask
        if 1 <= v <= q - 1:
            return v
