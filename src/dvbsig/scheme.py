"""The algorithms of the identity-based strong designated verifier blind
signature scheme: PKG setup, identity key extraction, the four-step
interactive signing (commit / blind / respond / unblind) and designated
verification.  The fifth, the verifier-side transcript simulation, reruns
degenerate attempts as a signing session does, so it is `session.simulate`.

All algorithms are pure functions of their inputs plus an explicit rng
handle.  Group math goes through the instrumented operations in `curve`, so
a measured region sees exactly the protocol-level operation counts.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

from .algebra import mod_inv, sample_unit
from .curve import (
    CurveParams,
    G1Point,
    GTElement,
    Reader,
    hash_to_point,
    point_add,
    point_fault,
    scalar_mul,
    tate_pairing,
)
from .errors import InvalidPoint

H1_NAME = "sha256-try-increment"
H2_NAME = "sha256-mod-q-star"


class SystemParams(NamedTuple):
    """Public output of setup: pairing context plus the PKG public key.  The
    hash functions are fixed: H1 is `H1_NAME` and H2 is `H2_NAME`."""

    curve: CurveParams
    p_pub: G1Point


class KeyPair(NamedTuple):
    """Identity key material: public = H1(identity), secret = s * public."""

    identity: bytes
    public: G1Point
    secret: G1Point


class Commitment(NamedTuple):
    """Signer's first move U = r * Q_signer."""

    point: G1Point


class SignerState(NamedTuple):
    """Signer's per-session secret: the commitment exponent r."""

    r: int
    key: KeyPair


class BlindedChallenge(NamedTuple):
    """User's second move h1 = x^-1 * h + y (mod q)."""

    value: int


class BlindState(NamedTuple):
    """User-side session secrets: blinding pair (x, y), the blinded
    commitment, and the challenge hash they produced."""

    x: int
    y: int
    u_prime: G1Point
    h: int
    message: bytes


class Response(NamedTuple):
    """Signer's third move V = (r + h1) * S_signer."""

    point: G1Point

    @property
    def degenerate(self) -> bool:
        """True when r + h1 = 0 (mod q) collapsed V to the identity."""
        return self.point.is_identity


class Signature(NamedTuple):
    """Final signature (U', sigma) with sigma = e(x*V, Q_verifier)."""

    u_prime: G1Point
    sigma: GTElement


def setup(curve: CurveParams, rng) -> tuple[SystemParams, int]:
    """PKG setup: draw the master key s in [1, q - 1] and publish
    p_pub = s * P.  Returns the public parameters and s."""
    s = sample_unit(rng, curve.q)
    p_pub = scalar_mul(s, curve.generator)
    return SystemParams(curve=curve, p_pub=p_pub), s


def keygen(system: SystemParams, s: int, identity: bytes) -> KeyPair:
    """Extract the key pair for an identity under the master key s:
    Q = H1(id), S = s * Q."""
    public = hash_to_point(identity, system.curve)
    secret = scalar_mul(s, public)
    return KeyPair(identity=identity, public=public, secret=secret)


def h2(message: bytes, u_prime: G1Point, q: int) -> int:
    """Challenge hash into Z_q^*: SHA-256(message || U') mod (q-1), plus 1.

    The mod-(q-1)-plus-1 fold guarantees a nonzero result; its bias is below
    2^-96 once q exceeds 160 bits.
    """
    digest = hashlib.sha256(message + u_prime.encode()).digest()
    return int.from_bytes(digest, "big") % (q - 1) + 1


def sign_commit(system: SystemParams, signer: KeyPair, rng) -> tuple[SignerState, Commitment]:
    """Signer's opening move: r random in Z_q^*, U = r * Q_signer."""
    r = sample_unit(rng, system.curve.q)
    u = scalar_mul(r, signer.public)
    return SignerState(r=r, key=signer), Commitment(point=u)


def blind(
    system: SystemParams,
    message: bytes,
    commitment: Commitment,
    signer_public: G1Point,
    rng,
) -> tuple[BlindState, BlindedChallenge]:
    """User's blinding move.

    Draws blinding factors x, y in Z_q^*, then
        U' = x*U + (x*y)*Q_signer,  h = H2(message, U'),  h1 = x^-1*h + y.
    """
    q = system.curve.q
    fault = point_fault(commitment.point, q)
    if fault:
        raise InvalidPoint(f"commitment {fault}")
    x = sample_unit(rng, q)
    y = sample_unit(rng, q)
    u_prime = point_add(scalar_mul(x, commitment.point), scalar_mul(x * y % q, signer_public))
    h = h2(message, u_prime, q)
    h1 = (mod_inv(x, q) * h + y) % q
    state = BlindState(x=x, y=y, u_prime=u_prime, h=h, message=message)
    return state, BlindedChallenge(value=h1)


def sign_respond(system: SystemParams, state: SignerState, challenge: BlindedChallenge) -> Response:
    """Signer's closing move V = (r + h1) * S_signer.

    If r + h1 = 0 (mod q) the result is the identity; it is returned as-is
    (flagged via Response.degenerate) and the session layer decides whether
    to rerun the protocol.
    """
    q = system.curve.q
    v = scalar_mul((state.r + challenge.value) % q, state.key.secret)
    return Response(point=v)


def unblind(
    system: SystemParams,
    state: BlindState,
    response: Response,
    verifier_public: G1Point,
) -> Signature:
    """User's unblinding: V' = x * V, sigma = e(V', Q_verifier).

    The pairing is evaluated as e(Q_verifier, V'), which is equal on the
    order-q subgroup, so the long-lived key is the argument whose Miller
    lines are cached.
    """
    fault = point_fault(response.point, system.curve.q)
    if fault:
        raise InvalidPoint(f"response {fault}")
    v_prime = scalar_mul(state.x, response.point)
    sigma = tate_pairing(verifier_public, v_prime, system.curve)
    return Signature(u_prime=state.u_prime, sigma=sigma)


def verify(
    system: SystemParams,
    verifier_secret: G1Point,
    signer_public: G1Point,
    message: bytes,
    signature: Signature,
) -> bool:
    """Designated verification: sigma == e(U' + h*Q_signer, S_verifier).

    Only the holder of the designated verifier's private key can evaluate
    the right-hand side, which is computed as e(S_verifier, U' + h*Q_signer)
    (equal on the order-q subgroup) so that the key's Miller lines are the
    cached ones.  U' + h*Q_signer = identity would pair to 1 under every
    verifier's key, and no honest signature has it, so it is refused.
    """
    h = h2(message, signature.u_prime, system.curve.q)
    lhs = point_add(signature.u_prime, scalar_mul(h, signer_public))
    if lhs.is_identity:
        return False
    return tate_pairing(verifier_secret, lhs, system.curve) == signature.sigma


def verify_with_identity(
    system: SystemParams,
    verifier_secret: G1Point,
    signer_identity: bytes,
    message: bytes,
    signature: Signature,
) -> bool:
    """Verification entry point that rederives Q_signer = H1(identity)."""
    signer_public = hash_to_point(signer_identity, system.curve)
    return verify(system, verifier_secret, signer_public, message, signature)


# ---------------------------------------------------------------------------
# signature serialization


def encode_signature(signature: Signature) -> bytes:
    """Binary form: point encoding of U' followed by the pairing value."""
    return signature.u_prime.encode() + signature.sigma.encode()


def decode_signature(data: bytes, params: CurveParams) -> Signature:
    """Strict inverse of encode_signature; trailing bytes are an error."""
    r = Reader(data)
    signature = Signature(u_prime=r.point(params), sigma=r.gt(params))
    r.done("after signature")
    return signature
