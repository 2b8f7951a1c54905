"""The per-layer timing rows that `dvbsig bench` and `scripts/layer_ab.py`
time: the field, G1, the pairing, hashing, the protocol and the codecs.

`rows` binds the table to one source tree of dvbsig.  Each row is a
callable(i), called for i = 0 .. n-1:

- a row that must see cold caches takes an input drawn for its i up front,
  which no earlier call has cached;
- a row that times a warm path has made its untimed first calls here (as
  many as the tree's `curve.NORMALISE_AT`, so that the tables it reads are
  past the read that rewrites them and it times one state only), and it
  comes before every row that fills the cache it reads, so its entries are
  still there when a caller times each row n times before the next.

Every draw comes from one seeded stream and every session's clock is a
`LogicalClock`, so two trees with the same kernels return identical values.
The tree's modules are read off `dv`, never imported, so a script can bind
this table to a tree that has no `layers` module.
"""


def rows(dv, system, msk, seed: str, n: int) -> dict:
    """Row name -> callable(i) for i < n, in print order.

    `dv` is any object whose `algebra`, `curve`, `scheme`, `session` and
    `rng` attributes are one tree's modules, such as its loaded package;
    `system` and `msk` are that tree's.
    """
    algebra, curve, scheme, session = dv.algebra, dv.curve, dv.scheme, dv.session
    params = system.curve
    p, q, g = params.p, params.q, params.generator
    rng = dv.rng.SeededRng(seed)
    clock = session.LogicalClock()
    signer = scheme.keygen(system, msk, b"bench-signer")
    verifier = scheme.keygen(system, msk, b"bench-verifier")
    base, other = signer.public, verifier.public
    message = b"bench message"

    def draw(sample):
        return [sample() for _ in range(n)]

    def fresh():
        """n order-q points that no row multiplies or checks before its own."""
        return draw(lambda: curve.scalar_mul(algebra.sample_unit(rng, q), g))

    field = draw(lambda: algebra.sample_unit(rng, p))
    squares = [x * x % p for x in field]
    fp2 = [algebra.Fp2Element(x, y, p) for x, y in zip(field, squares)]
    scalars = draw(lambda: algebra.sample_unit(rng, q))
    bases, others, checked = fresh(), fresh(), fresh()
    encoded = [b.encode() for b in others]
    outcome = session.run_local_session(system, signer, message, other, rng, clock=clock)
    signatures = [
        scheme.encode_signature(outcome.signature._replace(u_prime=u)) for u in fresh()
    ]
    transcripts = [
        session.encode_transcript(outcome.transcript._replace(commitment=u, response=v), params)
        for u, v in zip(fresh(), fresh())
    ]
    # each validation checks a generator whose chain no check has built
    generators = [params._replace(gx=h.x, gy=h.y) for h in fresh()]
    # a copy of a table as built, per call, for the rows that normalise one;
    # a tree that keeps its tables as built times a no-op there
    chain = curve._doubling_chain.__wrapped__(p, g.x, g.y, q.bit_length() + 1)
    lines = curve._miller_lines.__wrapped__(q, p, g.x, g.y)
    chains, line_sets = [list(chain) for _ in range(n)], [list(lines) for _ in range(n)]
    normalise_chain = getattr(curve, "_normalise_chain", lambda p, table: None)
    normalise_lines = getattr(curve, "_normalise_lines", lambda p, table: None)

    table = {
        "params_validate": lambda i: generators[i].validate(),
        "mod_inv": lambda i: algebra.mod_inv(field[i], p),
        # p = 3 (mod 4), so -1 is a non-residue and so is minus a square
        "sqrt_residue": lambda i: algebra.sqrt_mod(squares[i], p),
        "sqrt_nonresidue": lambda i: algebra.sqrt_mod(p - squares[i], p),
        "fp2_mul": lambda i: fp2[i] * fp2[i - 1],
        "point_add": lambda i: curve.point_add(bases[i], others[i]),
        "doubling_chain": lambda i: curve._doubling_chain.__wrapped__(
            p, g.x, g.y, q.bit_length() + 1
        ),
        "normalise_chain": lambda i: normalise_chain(p, chains[i]),
        "g1_scalar_mul": lambda i: curve.scalar_mul(scalars[i], base),
        "miller_loop": lambda i: curve._miller_loop(q, p, base.x, base.y, others[i].x, others[i].y),
        "normalise_lines": lambda i: normalise_lines(p, line_sets[i]),
        "pairing": lambda i: curve.tate_pairing(base, others[i], params),
        "final_exponentiation": lambda i: curve._final_exponentiation(loops[i], params),
        "map_to_point_repeat": lambda i: curve.hash_to_point(b"bench-repeat", params),
        "h2": lambda i: scheme.h2(message, others[i], q),
        "sign_session": lambda i: session.run_local_session(
            system, signer, message, other, rng, clock=clock
        ),
        "verify": lambda i: scheme.verify_with_identity(
            system, verifier.secret, b"bench-signer", message, outcome.signature
        ),
        # the rows from here on fill the caches that the rows above read
        "g1_scalar_mul_first_use": lambda i: curve.scalar_mul(scalars[i], bases[i]),
        "pairing_first_use": lambda i: curve.tate_pairing(others[i], other, params),
        "map_to_point": lambda i: curve.hash_to_point(b"bench%d" % i, params),
        "decode_signature": lambda i: scheme.decode_signature(signatures[i], params),
        "decode_transcript": lambda i: session.decode_transcript(transcripts[i], params),
        "subgroup_check": lambda i: curve.in_subgroup(checked[i], q),
        # decode_point of an encoding seen once (an order-q check), then its
        # first product: the path of blind's x*U and unblind's x*V
        "checked_product": lambda i: curve.scalar_mul(
            scalars[i], curve.decode_point(encoded[i], params)[0]
        ),
        "param_search": lambda i: curve.params_for_subgroup_order(
            q, b"bench-params-%d" % i, p_bits=p.bit_length()
        ),
    }
    for warm in ("g1_scalar_mul", "miller_loop", "pairing", "verify"):
        for _ in range(getattr(curve, "NORMALISE_AT", 1)):
            table[warm](0)
    table["map_to_point_repeat"](0)
    loops = [table["miller_loop"](i) for i in range(n)]
    return table
