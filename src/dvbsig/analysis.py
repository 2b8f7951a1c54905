"""Quantitative analysis tools.

Three independent things live here:

* closed-form reduction bounds: how an attacker against unforgeability
  (resp. designated unverifiability) with a given query budget converts into
  a solver for the bilinear Diffie-Hellman problem (resp. its decisional
  variant), evaluated in exact rational arithmetic;
* the operation-count performance model (per-phase millisecond estimates
  from published unit costs);
* the toy-scale blindness witness extractor: given any signer transcript and
  any same-signer signature, recover blinding factors (x, y) that connect
  them, using brute-force discrete logs.  Its success on every cross pair is
  what makes transcripts unlinkable to signatures.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple

from . import scheme
from .curve import G1Point, _add_jacobian, _to_affine, point_add, scalar_mul, tate_pairing
from .errors import Degenerate, DomainError, RefusedTooLarge
from .algebra import mod_inv
from .scheme import Signature, SystemParams
from .session import Transcript

DLOG_ORDER_LIMIT = 1 << 20

Rational = Fraction | int


class QueryBudget(NamedTuple):
    """Adversary resources in the random-oracle security games.  No bound
    reads `h2_queries`."""

    h1_queries: int = 0
    h2_queries: int = 0
    extract_queries: int = 0
    sign_queries: int = 0
    verify_queries: int = 0
    advantage: Rational = 0
    runtime: Rational = 0


class Ops(NamedTuple):
    """One value per operation kind: a count of operations, or a unit cost
    in milliseconds (an exact rational)."""

    g1_scalar_mul: Rational = 0
    g2_scalar_mul: Rational = 0
    g1_group_op: Rational = 0
    g2_group_op: Rational = 0
    map_to_point: Rational = 0
    pairing: Rational = 0


# The published benchmark table for a Tate pairing at the 1024-bit RSA
# security level: 6.38 ms per G1 scalar multiplication, 5.31 ms per G2
# exponentiation, 3.04 ms per map-to-point, 20.04 ms per pairing.  Plain
# group operations were not priced there and cost 0.
REFERENCE_COSTS = Ops(
    g1_scalar_mul=Fraction(638, 100),
    g2_scalar_mul=Fraction(531, 100),
    map_to_point=Fraction(304, 100),
    pairing=Fraction(2004, 100),
)


class ReductionBound(NamedTuple):
    """Solver advantage (lower bound) and running time (upper bound).  The
    advantage is exact, or a float where its exact value has more bits than
    `exact_bits` allows."""

    advantage: Fraction | float
    runtime: Fraction


def exact_bits() -> float:
    """The most bits an integer may have for `str` to print it: 3 bits a
    digit of `sys.get_int_max_str_digits()` L, since 2^(3L) < 10^L, and no
    bound when that limit is off."""
    limit = sys.get_int_max_str_digits()
    return 3 * limit if limit else math.inf


def _log_power(x: Fraction, k: int) -> float:
    """log((1 - x)^k) for 0 < x < 1: -inf once it is below -50, where the
    power is below 10^-21, and -k*x where x is too small for a float to
    hold 1 - x (log(1 - x) = -x(1 + x/2 + ...))."""
    if k * x > 50:
        return -math.inf
    if x < Fraction(1, 2**60):
        return -float(k * x)
    return k * math.log1p(-float(x))


def _bound(budget: QueryBudget, costs: Ops, group_order: int, tail: Ops) -> ReductionBound:
    """The derived solver's advantage, which both reductions share, and its
    running time: answering queries costs (qH1 + qE + 3qS + qV) G1 scalar
    multiplications, (qS + qV) pairings and qS G1 group operations, `tail`
    assembles the final solution, and the adversary's own time is added."""
    qh1, _, qe, qs, qv, eps, t = budget
    if qh1 < 2:
        raise DomainError("the bound needs at least 2 identity-hash queries")
    if group_order < 2:
        raise DomainError("group order must be at least 2")
    pair_term = Fraction(2, qh1 * (qh1 - 1))
    rest = (1 - Fraction(1, group_order**2)) * pair_term * Fraction(eps)
    # the advantage is rest * (1 - x)^k over `powers`.  1 - 2/qH1 is
    # (qH1 - 2)/qH1 and 1 - pair_term is (qH1 - 2)(qH1 + 1)/(qH1(qH1 - 1)):
    # neither numerator shares a factor with the other's denominator, so the
    # powers' product keeps a denominator of at least `bits` bits once rest's
    # numerator has cancelled what it can.  Past `exact_bits` the exact value
    # would only be printed to four places, and raising it takes time
    # quadratic in k, so it is evaluated through logarithms instead
    powers = ((Fraction(2, qh1), qe + qv), (pair_term, qs))
    bits = sum(k * ((1 - x).denominator.bit_length() - 1) for x, k in powers)
    if bits - rest.numerator.bit_length() <= exact_bits():
        advantage = rest * math.prod((1 - x) ** k for x, k in powers)
    else:
        advantage = float(rest) * math.exp(sum(_log_power(x, k) for x, k in powers))
    queries = Ops(g1_scalar_mul=qh1 + qe + 3 * qs + qv, g1_group_op=qs, pairing=qs + qv)
    runtime = perf_model(queries, costs) + perf_model(tail, costs) + Fraction(t)
    return ReductionBound(advantage, runtime)


def unforgeability_bound(budget: QueryBudget, costs: Ops, group_order: int) -> ReductionBound:
    """Forger -> BDHP solver reduction; assembling the final solution takes
    one G2 group operation and one G2 scalar multiplication."""
    return _bound(budget, costs, group_order, Ops(g2_scalar_mul=1, g2_group_op=1))


def unverifiability_bound(budget: QueryBudget, costs: Ops, group_order: int) -> ReductionBound:
    """Distinguisher -> DBDHP solver reduction; assembling the final solution
    takes one G1 and one G2 scalar multiplication and one pairing."""
    return _bound(budget, costs, group_order, Ops(g1_scalar_mul=1, g2_scalar_mul=1, pairing=1))


# ---------------------------------------------------------------------------
# performance model


def perf_model(counts: Ops, costs: Ops) -> Fraction:
    """Exact-rational dot product of operation counts and unit costs (ms)."""
    return sum((n * Fraction(cost) for n, cost in zip(counts, costs)), Fraction(0))


# Declared per-phase counts.  Signing totals five G1 scalar multiplications
# (commit, two blinding products, respond, unblind), one map-to-point (the
# user derives the signer's public key from its identity) and one pairing;
# verification from an identity is one of each.  The comparison rows encode
# the Zhang-Wen identity-based designated-verifier scheme as published: its
# signing counts equal ours, its verification uses four pairings, and its
# stated signing total does not match its stated operation counts, which the
# report surfaces rather than resolves.
SIGN_COUNTS = Ops(g1_scalar_mul=5, map_to_point=1, pairing=1)
VERIFY_COUNTS = Ops(g1_scalar_mul=1, map_to_point=1, pairing=1)
ZHANG_WEN_VERIFY_COUNTS = Ops(g1_scalar_mul=1, map_to_point=1, pairing=4)


class PerfEntry(NamedTuple):
    scheme_name: str
    phase: str
    counts: Ops
    modeled_ms: Fraction
    stated_ms: Fraction


def perf_report(costs: Ops) -> list[PerfEntry]:
    """Modeled per-phase costs for this scheme and the Zhang-Wen baseline."""
    rows = [
        ("ours", "sign", SIGN_COUNTS, Fraction(5498, 100)),
        ("ours", "verify", VERIFY_COUNTS, Fraction(2946, 100)),
        ("zhang-wen", "sign", SIGN_COUNTS, Fraction(6774, 100)),
        ("zhang-wen", "verify", ZHANG_WEN_VERIFY_COUNTS, Fraction(8958, 100)),
    ]
    return [
        PerfEntry(name, phase, counts, perf_model(counts, costs), stated)
        for name, phase, counts, stated in rows
    ]


# ---------------------------------------------------------------------------
# discrete-log oracle and the blindness witness extractor


def dlog_bruteforce(base: G1Point, target: G1Point, order: int) -> int | None:
    """Smallest k in [0, order) with k*base = target, by linear sweep.

    A test oracle only: refuses orders above 2^20.
    """
    if order > DLOG_ORDER_LIMIT:
        raise RefusedTooLarge(f"order {order} exceeds the brute-force guard")
    if base.is_identity:
        return 0 if target.is_identity else None
    p, tx, ty, tz = base.p, 1, 1, 0
    for k in range(order):
        if _to_affine(p, tx, ty, tz) == (target.x, target.y):
            return k
        tx, ty, tz, _ = _add_jacobian(p, tx, ty, tz, base.x, base.y)
    return None


def extract_blinding_witness(
    system: SystemParams,
    transcript: Transcript,
    signature: Signature,
    message: bytes,
    signer_public: G1Point,
    verifier_public: G1Point,
    verifier_secret: G1Point,
) -> tuple[int, int] | None:
    """Blinding factors (x, y) connecting a signer transcript to a signature.

    Solves  U' + h*Q_s = x * (U + h1*Q_s)  for x by brute-force discrete log
    against base Q_s, sets y = h1 - x^-1 * h, and accepts iff both protocol
    relations hold:  U' = x*U + x*y*Q_s  and  sigma = e(x*V, Q_v).  Returns
    None ("inconsistent") when no such pair exists, e.g. for a signature
    issued under a different signer key.  The verifier's secret key is used
    up front to discard signatures that do not even verify.

    Toy-scale only (the discrete-log sweep is linear in q).
    """
    q = system.curve.q
    if not scheme.verify(system, verifier_secret, signer_public, message, signature):
        return None
    h = scheme.h2(message, signature.u_prime, q)
    anchor = point_add(transcript.commitment, scalar_mul(transcript.challenge, signer_public))
    if anchor.is_identity:
        raise Degenerate("transcript has r + h1 = 0; no witness equation exists")
    numerator = point_add(signature.u_prime, scalar_mul(h, signer_public))
    d_num = dlog_bruteforce(signer_public, numerator, q)
    d_den = dlog_bruteforce(signer_public, anchor, q)
    if d_num is None or d_den is None or d_num == 0:
        return None
    x = d_num * mod_inv(d_den, q) % q
    y = (transcript.challenge - mod_inv(x, q) * h) % q
    rebuilt = point_add(
        scalar_mul(x, transcript.commitment), scalar_mul(x * y % q, signer_public)
    )
    if rebuilt != signature.u_prime:
        return None
    sigma = tate_pairing(scalar_mul(x, transcript.response), verifier_public, system.curve)
    if sigma != signature.sigma:
        return None
    return x, y
