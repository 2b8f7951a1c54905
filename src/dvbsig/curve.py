"""The supersingular curve E: y^2 = x^3 + x over F_p, its order-q subgroup,
and the reduced Tate pairing into the order-q subgroup of F_p2^*.

Parameters are of the Boneh-Franklin shape: p = 12*q*r - 1 prime (so that
q | p + 1 = #E(F_p)) with p = 3 (mod 4).  The pairing of two F_p-rational
points A, B is Miller's algorithm for f_{q,A} evaluated at the distorted
point phi(B) = (-x_B, i*y_B), followed by the final exponentiation to
(p^2 - 1)/q.  With embedding degree 2 every factor that lies in F_p --
vertical lines and the denominators of the projective line values -- is
erased by the final exponentiation, so such factors are skipped.

G1 arithmetic and the Miller loop keep their running points in Jacobian
coordinates (x, y) = (X/Z^2, Y/Z^3), so each inverts at most once.

Every G1 product, order-q check and cofactor clearing is one `_mul_raw`,
which sums the point's doubling chain 2^i*P into buckets by the scalar's
width-4 digits.  Chains, the Miller lines per first pairing argument and
the cofactor clearing of `hash_to_point` are kept in bounded
`functools.lru_cache`s keyed by exact affine coordinates: checks and
products keep their chains in two caches, so points that are only checked
never evict a long-lived key's chain, and neither keeps a clearing's.
Every cached value is computed from its key alone, so results are the same
cold or warm, and a point object carries nothing but p, x, y.  The tables
in the two long-lived caches (a `scalar_mul` base's chain, a first pairing
argument's lines) change form once: each counts its reads, and its
NORMALISE_AT-th read rewrites it in place with one batch inversion, chain
entries to (X/Z^2, Y/Z^3, 1) and lines to (c1/c2, c0/c2, 1).  The loops
that read them stay as they are, since adding an entry with Z = 1 is a
mixed addition and a line divided by c2 differs by an F_p factor, which
the final exponentiation erases; products and pairings stay bit-identical.

A point from outside the program is accepted by one rule, `point_fault`.
Binary artifacts are read through one cursor, `Reader`, on top of
`decode_point` and `decode_gt`.
"""

from __future__ import annotations

import functools
import hashlib
import threading
from typing import NamedTuple

from . import meter
from .algebra import (
    Fp2Element,
    Value,
    _signed_digits,
    byte_width,
    encode_int,
    is_prime,
    mod_inv,
    sqrt_mod,
)
from .errors import (
    DecodeError,
    HashToPointFailed,
    InvalidPoint,
    ParamMismatch,
    ParamSearchFailed,
)

HASH_TO_POINT_MAX_COUNTER = 1 << 16
R_SEARCH_LIMIT = 1 << 22  # cofactor candidates r tried by params_for_subgroup_order
# The read of a kept table that normalises it, from measured costs at 512
# bits (medians of 200): a normalisation costs 1.66 ms for a 161-entry chain
# and 1.38 ms for a line set, and saves 0.20 and 0.21 ms on every later read,
# so it pays for itself after 1.66 / 0.20 = 8.3 or 1.38 / 0.21 = 6.6 reads;
# 8 serves both, and a table read fewer times never pays for one.
NORMALISE_AT = 8


class G1Point(Value):
    """Immutable affine point on y^2 = x^3 + x over F_p; x = y = None is the
    identity."""

    __slots__ = ("p", "x", "y")

    def __init__(self, p: int, x: int | None, y: int | None):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def identity(cls, p: int) -> G1Point:
        return cls(p, None, None)

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def on_curve(self) -> bool:
        if self.is_identity:
            return True
        x, y, p = self.x, self.y, self.p
        return y * y % p == (x * x * x + x) % p

    def encode(self) -> bytes:
        """0x00 for the identity; 0x04 || x || y otherwise (fixed width)."""
        if self.is_identity:
            return b"\x00"
        return b"\x04" + encode_int(self.x, self.p) + encode_int(self.y, self.p)


class GTElement(Value):
    """Element of the order-q subgroup of F_p2^* (pairing values): it
    compares and encodes; arithmetic on it goes through `value`."""

    __slots__ = ("value",)

    def __init__(self, value: Fp2Element):
        object.__setattr__(self, "value", value)

    def encode(self) -> bytes:
        return self.value.encode()


class CurveParams(NamedTuple):
    """Public pairing context: modulus, subgroup order, cofactor, generator."""

    p: int
    q: int
    cofactor: int
    gx: int
    gy: int
    security_label: str = ""

    @property
    def generator(self) -> G1Point:
        return G1Point(self.p, self.gx, self.gy)

    def validate(self) -> None:
        """Check every structural invariant; raises on violation."""
        if not is_prime(self.p):
            raise InvalidPoint(f"p = {self.p} is not prime")
        if not is_prime(self.q):
            raise InvalidPoint(f"q = {self.q} is not prime")
        if self.p % 4 != 3:
            raise InvalidPoint(f"p = {self.p} is not 3 mod 4")
        if self.q * self.cofactor != self.p + 1:
            raise InvalidPoint("q * cofactor != p + 1")
        if self.cofactor % self.q == 0:
            raise InvalidPoint("q divides the cofactor")
        g = self.generator
        fault = "is the identity" if g.is_identity else point_fault(g, self.q)
        if fault:
            raise InvalidPoint(f"generator {fault}")


# ---------------------------------------------------------------------------
# the group law in Jacobian coordinates (x, y) = (X/Z^2, Y/Z^3); Z = 0 is the
# identity, and the affine identity at the boundary is (None, None)


def _double_jacobian(p, x, y, z):
    """2*(X, Y, Z) for a = 1: M = 3X^2 + Z^4, S = 4XY^2, Z' = 2YZ.

    Also returns M, Z^2 and Y^2, from which the tangent line at the input is
    built.  Z = 0 stays 0, and so does a point with Y = 0 (2-torsion).
    X^2 and Y^4 are written x * x * 3 and yy * yy * 8, so that each is a
    squaring of one object, which CPython multiplies faster than a product.
    """
    yy = y * y % p
    zz = z * z % p
    m = (x * x * 3 + zz * zz) % p
    s = 4 * x * yy % p
    x3 = (m * m - 2 * s) % p
    return x3, (m * (s - x3) - yy * yy * 8) % p, 2 * y * z % p, m, zz, yy


def _add_jacobian(p, tx, ty, tz, x, y, z=1):
    """(X, Y, Z) + (x, y, z), plus R; Z = 0 on either side is the identity.

    U = X*z^2, S = Y*z^3, H = x*Z^2 - U, R = y*Z^3 - S and Z' = Z*z*H, so
    for an affine (x, y, 1) the chord through both points has slope R/Z'.
    T = -(x, y, z) gives Z' = 0; T = (x, y, z) doubles and returns the
    tangent's M as R, with Z' = 2YZ.
    """
    if not z:
        return tx, ty, tz, 0
    if not tz:
        return x, y, z, 0
    zz = tz * tz % p
    h, r = x * zz, y * zz * tz
    if z != 1:
        zz = z * z % p
        tx, ty, tz = tx * zz % p, ty * zz * z % p, tz * z % p
    h, r = (h - tx) % p, (r - ty) % p
    if h == 0:
        if r:
            return 1, 1, 0, r
        tx, ty, tz, m, _, _ = _double_jacobian(p, tx, ty, tz)
        return tx, ty, tz, m
    hh = h * h % p
    hhh = h * hh % p
    v = tx * hh % p
    x3 = (r * r - hhh - 2 * v) % p
    return x3, (r * (v - x3) - ty * hhh) % p, tz * h % p, r


def _to_affine(p, x, y, z):
    """(X/Z^2, Y/Z^3) with one inversion; (None, None) when Z = 0."""
    if not z:
        return None, None
    zinv = pow(z, -1, p)
    zinv2 = zinv * zinv % p
    return x * zinv2 % p, y * zinv2 * zinv % p


def _inverses(values, p):
    """The inverses mod p of nonzero `values`, with one inversion
    (Montgomery's trick): invert the product, then peel off one factor at a
    time from the end."""
    prefix = [1]
    for v in values:
        prefix.append(prefix[-1] * v % p)
    inv = pow(prefix[-1], -1, p)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % p
        inv = inv * values[i] % p
    return out


class _Table(list):
    """A doubling chain or a line set kept in a long-lived cache, and the
    number of times it has been read (`_read`)."""

    reads = 0


_reads_lock = threading.Lock()


def _read(table, p, normalise):
    """Count one read of `table`; the NORMALISE_AT-th rewrites it in place.

    The count is exact across threads, so one thread rewrites a table, once.
    A thread that reads the table meanwhile may meet some entries rewritten
    and some as built, and each stands for the same point or line.
    """
    with _reads_lock:
        reads = table.reads = table.reads + 1
    if reads == NORMALISE_AT:
        normalise(p, table)
    return table


def _normalise_chain(p, chain):
    """Rewrite each entry (X, Y, Z) of `chain` as (X/Z^2, Y/Z^3, 1) in place;
    entries with Z = 0 (the identity) stay."""
    live = [(i, entry) for i, entry in enumerate(chain) if entry[2]]
    for (i, (x, y, _)), zinv in zip(live, _inverses([entry[2] for _, entry in live], p)):
        zinv2 = zinv * zinv % p
        chain[i] = (x * zinv2 % p, y * zinv2 * zinv % p, 1)


def _normalise_lines(p, steps):
    """Rewrite each line (c1, c0, c2) of `steps` as (c1/c2, c0/c2, 1) in
    place; lines with c2 = 0 stay."""
    inverses = iter(_inverses([c2 for step in steps for _, _, c2 in step if c2], p))
    for i, step in enumerate(steps):
        lines = []
        for c1, c0, c2 in step:
            if c2:
                inv = next(inverses)
                c1, c0, c2 = c1 * inv % p, c0 * inv % p, 1
            lines.append((c1, c0, c2))
        steps[i] = tuple(lines)


@functools.lru_cache(maxsize=4)
def _doubling_chain(p, x, y, n):
    """2^i*(x, y) for i < n, in Jacobian coordinates.  Order-q checks read
    this cache directly, and a checked point's chain waits here for its
    first product: 4 entries, so in `dvbsig sign run` the key S_s's chain
    outlasts Q_s's first product and U's check, which come in between."""
    tx, ty, tz = x, y, 1
    chain = [(tx, ty, tz)]
    for _ in range(n - 1):
        tx, ty, tz, _, _, _ = _double_jacobian(p, tx, ty, tz)
        chain.append((tx, ty, tz))
    return tuple(chain)


# a session's long-lived keys fit, with room for the fresh points that pass
# through between their uses
@functools.lru_cache(maxsize=16)
def _product_chain(p, x, y, n):
    """The chain of a `scalar_mul` base, as a `_Table` of its own, read
    through `_doubling_chain` on a miss, so points that are only checked
    never evict it, and its normalisation leaves the check cache's alone."""
    return _Table(_doubling_chain(p, x, y, n))


def _kept_chain(p, x, y, n):
    """`_product_chain`'s table, read once more: affine from its
    NORMALISE_AT-th read on."""
    return _read(_product_chain(p, x, y, n), p, _normalise_chain)


def _mul_raw(p, k, x, y, chains=_kept_chain):
    """k*(x, y) right to left by Yao's bucket method: the entry 2^i*(x, y) of
    the base's doubling chain, from the cache `chains`, joins bucket B_|d|,
    negated when d < 0, for each width-4 digit d of k at i (k's sign flips
    every digit's); then k*(x, y) = 2*(3*B7 + 2*B5 + B3) + (B7 + B5 + B3 + B1).

    The chain runs to one past k's bit length rounded up to a multiple of
    32, which bounds k's width-4 form, so the check by a 160-bit q and a
    product by any k < q (all but a 2^-31 share of them) share one chain.
    Entries are Jacobian as built, or affine once a kept chain is
    normalised, where `_add_jacobian`'s z = 1 case is the mixed addition.
    The single inversion is skipped when the result is the identity, which
    is what every subgroup check expects.
    """
    if x is None or k == 0:
        return None, None
    chain = chains(p, x, y, -(-abs(k).bit_length() // 32) * 32 + 1)
    buckets = [(1, 1, 0)] * 8
    for d, (cx, cy, cz) in zip(_signed_digits(abs(k), 4), chain):
        if d:
            cy = cy if (d > 0) == (k > 0) else -cy % p
            buckets[abs(d)] = _add_jacobian(p, *buckets[abs(d)], cx, cy, cz)[:3]
    s = t = (1, 1, 0)
    for j in (7, 5, 3):
        s = _add_jacobian(p, *s, *buckets[j])[:3]
        t = _add_jacobian(p, *t, *s)[:3]
    s = _add_jacobian(p, *s, *buckets[1])[:3]
    tx, ty, tz, _ = _add_jacobian(p, *_double_jacobian(p, *t)[:3], *s)
    return _to_affine(p, tx, ty, tz)


def in_subgroup(point: G1Point, q: int) -> bool:
    """True when q*point is the identity (the identity itself included).

    One `_mul_raw` over the check cache's chain, and no state kept: a
    repeated check sums the still-cached chain, and the point's first
    `scalar_mul` reads it through the product cache.  Range and curve
    membership are `point_fault`'s checks.
    """
    return point.is_identity or _mul_raw(point.p, q, point.x, point.y, _doubling_chain)[0] is None


def point_fault(point: G1Point, q: int | None) -> str | None:
    """The one acceptance rule for a point from outside the program: why it is
    not in the order-q subgroup ("is not on the curve"), or None when it is.
    It checks coordinates in [0, p), the curve equation, then order q; a q
    of None stops before the order, which the caller then owes."""
    if point.is_identity:
        return None
    if not (0 <= point.x < point.p and 0 <= point.y < point.p):
        return "has coordinates out of range"
    if not point.on_curve():
        return "is not on the curve"
    if q is not None and not in_subgroup(point, q):
        return "is outside the order-q subgroup"
    return None


def _require_on_curve(point: G1Point) -> None:
    if not point.on_curve():
        raise InvalidPoint(f"({point.x}, {point.y}) not on y^2 = x^3 + x mod {point.p}")


def _require_same_p(a: G1Point, b: G1Point) -> None:
    if a.p != b.p:
        raise ParamMismatch(f"points from different fields: {a.p} vs {b.p}")


# ---------------------------------------------------------------------------
# public group operations (these are the instrumented, protocol-level ops)


def point_add(a: G1Point, b: G1Point) -> G1Point:
    """Chord-and-tangent group law; counts as one G1 group operation."""
    _require_same_p(a, b)
    _require_on_curve(a)
    _require_on_curve(b)
    meter.tally(meter.G1_GROUP_OP)
    if b.is_identity:
        return a
    x, y, z, _ = _add_jacobian(a.p, a.x, a.y, 0 if a.is_identity else 1, b.x, b.y)
    return G1Point(a.p, *_to_affine(a.p, x, y, z))


def scalar_mul(k: int, a: G1Point) -> G1Point:
    """k*A by `_mul_raw` over A's cached doubling chain; counts as one G1
    scalar multiplication."""
    _require_on_curve(a)
    meter.tally(meter.G1_SCALAR_MUL)
    return G1Point(a.p, *_mul_raw(a.p, k, a.x, a.y))


def tate_pairing(a: G1Point, b: G1Point, params: CurveParams) -> GTElement:
    """Reduced Tate pairing e(A, B) = f_{q,A}(phi(B))^((p^2-1)/q).

    Bilinear and non-degenerate on the order-q subgroup; identity inputs map
    to 1.  Counts as one pairing computation.
    """
    _require_same_p(a, b)
    _require_on_curve(a)
    _require_on_curve(b)
    meter.tally(meter.PAIRING)
    p = params.p
    if a.is_identity or b.is_identity:
        return GTElement(Fp2Element.one(p))
    f = _miller_loop(params.q, p, a.x, a.y, b.x, b.y)
    return GTElement(_final_exponentiation(f, params))


@functools.lru_cache(maxsize=8)
def _miller_lines(q: int, p: int, ax: int, ay: int) -> _Table:
    """The lines of f_{q,A}, per bit of q, as (c1, c0, c2) with the line's
    value at phi(B) = (-bx, i*by) being (c1*bx + c0) + c2*by * i; c0 is
    left unreduced, as it is only added to c1*bx before a reduction.

    T runs in Jacobian coordinates (Chatterjee-Sarkar-Barua).  The tangent
    at T evaluates at phi(B) to lam*(bx + x_T) - y_T + by*i; scaled by its
    denominator 2YZ*Z^2 it is M*Z^2*bx + (M*X - 2Y^2) + by*2YZ*Z^2 * i.
    The chord through T and A, taken at A and scaled by the new Z', is
    R*bx + (R*ax - ay*Z') + by*Z' * i (the tangent when T = A, where R = M).
    The scale factors and the vertical lines lie in F_p^* and vanish in the
    final exponentiation.  So does the c2 that `_normalise_lines` divides
    out of each line once the table has been read NORMALISE_AT times (c0 is
    then reduced).  Tangents at 2-torsion points have c2 = 0 and stay.
    """
    steps = _Table()
    tx, ty, tz = ax, ay, 1
    for bit in bin(q)[3:]:
        lines = []
        if tz:
            x0 = tx
            tx, ty, tz, m, zz, yy = _double_jacobian(p, tx, ty, tz)
            lines.append((m * zz % p, m * x0 - 2 * yy, tz * zz % p))
        if bit == "1":
            # T = O has no chord and T = -A a vertical one (in F_p): both
            # are skipped
            chord = tz
            tx, ty, tz, r = _add_jacobian(p, tx, ty, tz, ax, ay)
            if chord and tz:
                lines.append((r, r * ax - ay * tz, tz))
        steps.append(tuple(lines))
    return steps


def _miller_loop(q: int, p: int, ax: int, ay: int, bx: int, by: int) -> Fp2Element:
    """Accumulate f_{q,A} evaluated at phi(B) = (-bx, i*by), up to F_p factors.

    The lines depend on A alone; they are built on A's first use and cached
    per (q, p, ax, ay), so a long-lived first argument pays for them once,
    and from their NORMALISE_AT-th read on, each line's c2 * by is by.
    """
    lines = _read(_miller_lines(q, p, ax, ay), p, _normalise_lines)
    fa, fb = 1, 0  # f as fa + fb*i
    for step in lines:
        # f <- f^2 * the step's tangent, then its chord, at phi(B)
        fa, fb = (fa + fb) * (fa - fb) % p, 2 * fa * fb % p
        for c1, c0, c2 in step:
            la = (c1 * bx + c0) % p
            lb = c2 * by % p
            # (fa + fb*i)(la + lb*i) with three products
            aa, bb = fa * la, fb * lb
            fa, fb = (aa - bb) % p, ((fa + fb) * (la + lb) - aa - bb) % p
    return Fp2Element(fa, fb, p)


def _final_exponentiation(f: Fp2Element, params: CurveParams) -> Fp2Element:
    # (p^2 - 1)/q = (p - 1) * cofactor, and f^(p-1) = conj(f)/f, which is
    # conj(f)^2 over the norm a^2 + b^2 in F_p and has norm 1
    a, b, p = f.a, f.b, f.p
    n = mod_inv(a * a + b * b, p)
    return Fp2Element((a * a - b * b) * n, -2 * a * b * n, p) ** params.cofactor


# ---------------------------------------------------------------------------
# hashing to the subgroup


# a recurring signer's Q_s, whose product chain (in a cache of the same size)
# its h*Q_s needs anyway, and the fresh identities that pass between its uses
@functools.lru_cache(maxsize=16)
def _clear_cofactor(p, cofactor, x, y):
    """cofactor*(x, y), affine, by `_mul_raw` over a doubling chain that no
    chain cache keeps: in `dvbsig sign run` a kept clearing chain would evict
    the chain of the signer's key S_s before its product."""
    return _mul_raw(p, cofactor, x, y, _doubling_chain.__wrapped__)


def hash_to_point(id_bytes: bytes, params: CurveParams) -> G1Point:
    """Map-to-point hash: SHA-256 try-and-increment, then cofactor clearing.

    Deterministic; the result is always a non-identity point of order q.
    Counts as one map-to-point execution.
    """
    meter.tally(meter.MAP_TO_POINT)
    p = params.p
    for counter in range(HASH_TO_POINT_MAX_COUNTER):
        digest = hashlib.sha256(id_bytes + counter.to_bytes(4, "big")).digest()
        x = int.from_bytes(digest, "big") % p
        y = sqrt_mod((x * x * x + x) % p, p)
        if y is None:
            continue
        point = G1Point(p, *_clear_cofactor(p, params.cofactor, x, y))
        if not point.is_identity:
            return point
    raise HashToPointFailed(f"no curve point found for {id_bytes!r}")


# ---------------------------------------------------------------------------
# parameter generation


def _find_prime(bits: int, seed: bytes) -> int:
    """Deterministic prime of exactly `bits` bits from a seeded SHA-256 stream."""
    blocks = (bits + 255) // 256
    counter = 0
    while True:
        material = b"".join(
            hashlib.sha256(seed + b"|prime|" + (counter + i).to_bytes(8, "big")).digest()
            for i in range(blocks)
        )
        counter += blocks
        candidate = int.from_bytes(material, "big")
        candidate &= (1 << bits) - 1
        candidate |= (1 << (bits - 1)) | 1
        if is_prime(candidate):
            return candidate


def params_for_subgroup_order(
    q: int,
    seed: bytes,
    p_bits: int | None = None,
    security_label: str = "",
) -> CurveParams:
    """Build curve parameters around a given prime subgroup order q >= 5:
    2 and 3 divide every cofactor 12*r, so no search is run for them.

    Searches the smallest r with p = 12*q*r - 1 prime (so p = 3 mod 4) and
    q not dividing 12*r.  When p_bits is given, r runs over the window that
    puts p at exactly p_bits bits (12*q*r is even, so never 2^p_bits + 1);
    R_SEARCH_LIMIT then bounds the number of candidates tried, not r itself.
    The generator is hash_to_point(b"generator|" + seed).
    """
    if not is_prime(q) or 12 % q == 0:
        raise ParamSearchFailed(f"subgroup order {q} is not a prime of at least 5")
    if p_bits is None:
        r_start, r_stop = 1, R_SEARCH_LIMIT + 1
    else:
        # a p_bits below 1 searches the window of p_bits = 1, which is empty
        bits = max(p_bits, 1)
        r_start = ((1 << (bits - 1)) + 1 + 12 * q - 1) // (12 * q)
        r_stop = min(((1 << bits) + 1) // (12 * q) + 1, r_start + R_SEARCH_LIMIT)
    for r in range(r_start, r_stop):
        p = 12 * q * r - 1
        if (12 * r) % q == 0:
            continue
        if is_prime(p):
            params = CurveParams(
                p=p,
                q=q,
                cofactor=12 * r,
                gx=0,
                gy=0,
                security_label=security_label or f"q={q.bit_length()}b,p={p.bit_length()}b",
            )
            generator = hash_to_point(b"generator|" + seed, params)
            return params._replace(gx=generator.x, gy=generator.y)
    raise ParamSearchFailed(f"no prime p = 12*q*r - 1 found for q = {q} within the search bound")


def generate_params(q_bits: int, seed: bytes) -> CurveParams:
    """Deterministically derive a full parameter set from a seed.

    Picks a q_bits-bit prime q from the seeded stream, then delegates to
    `params_for_subgroup_order`.
    """
    if q_bits < 4:
        raise ParamSearchFailed("q_bits must be at least 4")
    return params_for_subgroup_order(_find_prime(q_bits, seed), seed)


# ---------------------------------------------------------------------------
# encodings


def decode_point(data: bytes, params: CurveParams, offset: int = 0) -> tuple[G1Point, int]:
    """Parse one point, returning (point, bytes consumed).

    Validates the point by `point_fault`; any malformation raises
    DecodeError carrying the offending byte position.
    """
    return _parse_point(data, params, offset, params.q)


def _parse_point(data, params: CurveParams, offset: int, q: int | None) -> tuple[G1Point, int]:
    """`decode_point`, with `point_fault` taking q: None defers the order
    check to the caller, whose error must then name `offset` + 1."""
    if len(data) == 0:
        raise DecodeError("empty point encoding", offset)
    tag = data[0]
    if tag == 0x00:
        return G1Point.identity(params.p), 1
    if tag != 0x04:
        raise DecodeError(f"unknown point tag {tag:#04x}", offset)
    w = byte_width(params.p)
    if len(data) < 1 + 2 * w:
        raise DecodeError("truncated point encoding", offset + len(data))
    x = int.from_bytes(data[1 : 1 + w], "big")
    y = int.from_bytes(data[1 + w : 1 + 2 * w], "big")
    point = G1Point(params.p, x, y)
    fault = point_fault(point, q)
    if fault:
        raise DecodeError(f"point {fault}", offset + 1)
    return point, 1 + 2 * w


def decode_gt(data: bytes, params: CurveParams, offset: int = 0) -> tuple[GTElement, int]:
    """Parse one pairing value (a || b); validates subgroup membership."""
    w = byte_width(params.p)
    if len(data) < 2 * w:
        raise DecodeError("truncated pairing-value encoding", offset + len(data))
    a = int.from_bytes(data[:w], "big")
    b = int.from_bytes(data[w : 2 * w], "big")
    if a >= params.p:
        raise DecodeError("real component out of range", offset)
    if b >= params.p:
        raise DecodeError("imaginary component out of range", offset + w)
    # q does not divide p - 1, so an element of order q has norm a^2 + b^2 = 1
    value = Fp2Element(a, b, params.p)
    if (a * a + b * b) % params.p != 1 or not (value**params.q).is_one():
        raise DecodeError("value outside the order-q subgroup of F_p2^*", offset)
    return GTElement(value), 2 * w


class Reader:
    """Cursor over one binary artifact (wire frame, transcript record or
    signature) whose first byte lies at absolute offset `base`.  Every
    DecodeError it raises names the absolute offset of the first byte of the
    field at fault, or the end of the data when the data runs out."""

    def __init__(self, data: bytes, base: int = 0):
        self.data = data
        self.base = base
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise DecodeError(f"truncated {what}", self.base + len(self.data))
        self.pos += n
        return self.data[self.pos - n : self.pos]

    def take_lv(self, what: str) -> bytes:
        """A field with a 2-byte big-endian length prefix."""
        return self.take(int.from_bytes(self.take(2, what), "big"), what)

    def scalar(self, q: int, what: str) -> int:
        """A Z_q element: byte_width(q) big-endian bytes, below q."""
        start = self.base + self.pos
        value = int.from_bytes(self.take(byte_width(q), what), "big")
        if value >= q:
            raise DecodeError(f"{what} out of range", start)
        return value

    def point(self, params: CurveParams) -> G1Point:
        return self._decode(decode_point, params)

    def curve_point(self, params: CurveParams) -> G1Point:
        """A point with every check of `point` but the order-q one, which
        the caller owes it (`point_fault`) before it is used."""
        return self._decode(_parse_point, params, None)

    def gt(self, params: CurveParams) -> GTElement:
        return self._decode(decode_gt, params)

    def _decode(self, decode, params: CurveParams, *args):
        value, used = decode(self.data[self.pos :], params, self.base + self.pos, *args)
        self.pos += used
        return value

    def done(self, where: str) -> None:
        """Refuse unread bytes; `where` completes "trailing bytes ..."."""
        if self.pos != len(self.data):
            raise DecodeError(f"trailing bytes {where}", self.base + self.pos)
