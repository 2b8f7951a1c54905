"""The handlers of the twelve commands other than `sign run` and `verify`.

`cli.COMMANDS` imports this module when one of them runs, so a signing or
verifying process never compiles it.  The helpers these handlers share with
`cli` are read off the `cli` module each time they run, so a test that
patches one there (`cli._rng_and_clock`, `cli._fresh`) patches it here too.
"""

from __future__ import annotations

import os
import stat
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import cli, scheme, session, storage
from .algebra import is_prime
from .curve import Reader, _find_prime, params_for_subgroup_order, scalar_mul
from .errors import DecodeError, Degenerate

if TYPE_CHECKING:
    from fractions import Fraction

    from . import analysis

# `analysis`, `fractions` and `json` are imported by the commands that use them.


def _read_frame(path: Path) -> bytes:
    """The bytes of the frame file at `path`, which must be a regular file:
    it is opened without blocking, so a FIFO there cannot hand out one
    message per reader."""
    with open(os.open(path, os.O_RDONLY | os.O_NONBLOCK), "rb") as handle:
        if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            raise cli.CommandLineError(f"{path} is not a regular file")
        return handle.read()


def _write_frame(path: Path, data: bytes, what: str) -> None:
    """Create the frame file at `path`.  It is created exclusively, so a step
    that already ran is refused here, and of two racing runs of one step only
    one writes a frame (and the state beside it)."""
    try:
        storage.write_file(path, data, exclusive=True)
    except FileExistsError:
        raise cli.CommandLineError(f"{what} already exists: {path}") from None


def _read_message(path: Path, kind: type, what: str, curve) -> session.ProtocolMessage:
    """The protocol message of type `kind` in the frame file at `path`."""
    message = storage.decode_named(path, session.decode_message, _read_frame(path), curve)
    if not isinstance(message, kind):
        raise cli.CommandLineError(f"{path} does not hold a {what}")
    return message


def _load_master_secret(ws: storage.Workspace, q: int) -> scheme.MasterSecret:
    return storage.load_master_secret(cli._require(ws.master_file, "master secret (run setup)"), q)


def _count(low: int):
    """A parser of query counts and group orders: decimal integers >= low."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise ValueError(text)
        return int(text)

    return parse


def _rational(low: int, high: int | None = None):
    """A parser of rational numbers in [low, high], or from low up, without an
    exponent: 1e5000 is too long to print, and 1e4000000 takes seconds to read."""

    def parse(text: str) -> Fraction:
        from fractions import Fraction

        if "e" in text.lower():
            raise ValueError(text)
        try:
            value = Fraction(text)
        except ZeroDivisionError:
            raise ValueError(text) from None
        if value < low or high is not None and value > high:
            raise ValueError(text)
        return value

    return parse


def _fmt(value: Fraction) -> str:
    """`value` exact and to four places, or to four places alone when its
    numerator or denominator has more digits than `str` may print."""
    limit = sys.get_int_max_str_digits()
    # an integer of 3 * limit bits or fewer is below 2^(3 * limit) < 10^limit
    fits = not limit or max(abs(value.numerator), value.denominator).bit_length() <= 3 * limit
    return f"{value} ({float(value):.4f})" if fits else f"{float(value):.4f}"


def cmd_params_gen(ws: storage.Workspace, args) -> int:
    seed = (args.seed or "dvbsig-params").encode("utf-8")
    if args.q_value is not None:
        if args.q_value < 5 or not is_prime(args.q_value):  # 2 and 3 divide every 12*r
            raise cli.CommandLineError(f"--q-value {args.q_value} is not a prime of at least 5")
        q = args.q_value
    else:
        if args.q_bits is None:
            raise cli.CommandLineError("one of --q-bits / --q-value is required")
        if args.q_bits < 4:
            raise cli.CommandLineError(f"--q-bits must be at least 4, not {args.q_bits}")
        q = _find_prime(args.q_bits, seed)
    # p = 12*q*r - 1 is least at r = 1, and once 12*q <= 2^(p_bits - 1) the
    # 2^(p_bits - 1) candidates of p_bits bits hold a multiple of 12*q, so
    # this is the whole condition for a p of that length to exist
    least_p_bits = (12 * q - 1).bit_length()
    if args.p_bits is not None and args.p_bits < least_p_bits:
        raise cli.CommandLineError(
            f"--p-bits {args.p_bits} is too small: p = 12*q*r - 1 has at least "
            f"{least_p_bits} bits for q = {q}"
        )
    label = args.label or ""
    if not storage.reads_back("security_label", label):
        raise cli.CommandLineError(
            f"--label {label!r} would not read back from the params file"
            " (no line breaks or surrounding whitespace, or characters UTF-8 cannot encode)"
        )
    params = params_for_subgroup_order(q, seed, p_bits=args.p_bits, security_label=label)
    ws.ensure()
    storage.save_curve_params(params, ws.params_file)
    print(f"wrote {ws.params_file}")
    print(f"p = {params.p}")
    print(f"q = {params.q}")
    print(f"cofactor = {params.cofactor}")
    return 0


def cmd_setup(ws: storage.Workspace, args) -> int:
    # keys issued under an old master secret would never verify against new ones
    cli._fresh(ws.master_file, "master secret")
    params = storage.load_curve_params(cli._require(ws.params_file, "params file (run params gen)"))
    rng, _ = cli._rng_and_clock(args.seed)
    system, msk = scheme.setup(params, rng)
    ws.ensure()
    storage.save_system_params(system, ws.system_file)
    storage.save_master_secret(msk, ws.master_file)
    print(f"wrote {ws.system_file}")
    print(f"wrote {ws.master_file} (keep this file secret; it is stored unencrypted)")
    return 0


def cmd_keygen(ws: storage.Workspace, args) -> int:
    system = cli._load_system(ws)
    msk = _load_master_secret(ws, system.curve.q)
    identity = cli._identity(args.id, "--id")
    key = scheme.keygen(system, msk, identity.encode("utf-8"))
    ws.ensure()
    storage.save_identity_key(key, ws.key_file(identity))
    print(f"wrote {ws.key_file(identity)}")
    return 0


def _session_paths(ws: storage.Workspace, name: str):
    sdir = ws.session_dir(cli._identity(name, "--session"))
    return sdir, sdir / "commit.frame", sdir / "challenge.frame", sdir / "response.frame"


def cmd_sign_commit(ws: storage.Workspace, args) -> int:
    system = cli._load_system(ws)
    signer = cli._load_key(ws, system, cli._identity(args.signer, "--signer"))
    sdir, commit_path, _, _ = _session_paths(ws, args.session)
    sdir.mkdir(parents=True, exist_ok=True)
    rng, clock = cli._rng_and_clock(args.seed)
    session_id = rng.next_bytes(session.SESSION_ID_BYTES)
    state, commitment = scheme.sign_commit(system, signer, rng)
    _write_frame(commit_path, session.encode_message(commitment, system.curve), "commit artifact")
    storage.write_kv(
        sdir / "signer.state",
        dict(session_id=session_id.hex(), signer=args.signer, r=state.r, started_ms=clock()),
        secret=True,
    )
    print(f"wrote {commit_path}")
    return 0


def cmd_sign_blind(ws: storage.Workspace, args) -> int:
    system = cli._load_system(ws)
    sdir, commit_path, challenge_path, _ = _session_paths(ws, args.session)
    cli._require(commit_path, "commit artifact (run sign commit first)")
    message = cli._message_bytes(args)
    commitment = _read_message(commit_path, scheme.Commitment, "commitment", system.curve)
    signer_public = cli._identity_point(args.signer, "--signer", system.curve)
    rng, _ = cli._rng_and_clock(args.seed)
    state, challenge = scheme.blind(system, message, commitment, signer_public, rng)
    _write_frame(
        challenge_path, session.encode_message(challenge, system.curve), "challenge artifact"
    )
    fields = {"x": state.x, "y": state.y, "h": state.h, "u_prime": state.u_prime.encode().hex()}
    storage.write_kv(sdir / "user.state", fields, secret=True)
    print(f"wrote {challenge_path}")
    return 0


def cmd_sign_respond(ws: storage.Workspace, args) -> int:
    system = cli._load_system(ws)
    sdir, _, _, response_path = _session_paths(ws, args.session)
    state_path = sdir / "signer.state"
    # claim r before reading it: of two racing responds one rename wins, and
    # the other exits here without having seen r
    claim = sdir / f"signer.state.{os.getpid()}-{os.urandom(4).hex()}"
    try:
        os.rename(state_path, claim)
    except FileNotFoundError:
        raise cli.CommandLineError(
            f"signer state not found: {state_path}"
            " (run sign commit first; a sign respond that claimed it answers once)"
        ) from None
    try:
        response = _respond(ws, system, args, claim)
    except BaseException:
        os.rename(claim, state_path)  # nothing was recorded, so r has answered nothing
        raise
    claim.unlink()  # r has answered its one challenge
    _write_frame(response_path, session.encode_message(response, system.curve), "response artifact")
    if response.degenerate:
        print(f"wrote {response_path} (degenerate response; rerun the session)")
    else:
        print(f"wrote {response_path}")
    return 0


def _respond(ws: storage.Workspace, system, args, claim: Path) -> scheme.Response:
    """The response of the signer state claimed at `claim` to the session's
    challenge, once it is logged.  Errors name the state by its own name."""
    sdir, _, challenge_path, response_path = _session_paths(ws, args.session)
    state_path = sdir / "signer.state"
    cli._require(challenge_path, "challenge artifact (run sign blind first)")
    cli._fresh(response_path, "response artifact")
    fields = storage.read_kv(claim, state_path)
    signer_name = cli._identity(
        storage.kv_text(fields, "signer", state_path), f"{state_path}: field 'signer'", DecodeError
    )
    r = storage.kv_unit(fields, "r", state_path, system.curve.q)
    session_id = storage.kv_hex(fields, "session_id", state_path)
    if len(session_id) != (size := session.SESSION_ID_BYTES):
        raise DecodeError(f"{state_path}: field 'session_id' is not {size} bytes")
    started = storage.kv_int(fields, "started_ms", state_path)
    if not 0 <= started <= 2**64 - 2:  # the log's 8 bytes hold it and finished = started + 1
        raise DecodeError(f"{state_path}: field 'started_ms' is not in [0, 2^64 - 2]")
    signer = cli._load_key(ws, system, signer_name)
    challenge = _read_message(challenge_path, scheme.BlindedChallenge, "challenge", system.curve)
    # U is the commitment to this state's r, r*Q_s, whatever commit.frame
    # (which the user side can rewrite) holds now
    commitment = scalar_mul(r, signer.public)
    response = scheme.sign_respond(system, scheme.SignerState(r=r, key=signer), challenge)
    clock = cli._clock(args.seed, started + 1)
    store = session.FileTranscriptStore(ws.transcript_log, system.curve)
    # the transcript is recorded before the response leaves: a session id
    # that was already answered raises DuplicateSession and writes nothing
    store.record(
        session.Transcript(
            session_id=session_id,
            signer_identity=signer_name.encode("utf-8"),
            commitment=commitment,
            challenge=challenge.value,
            response=response.point,
            started_ms=started,
            finished_ms=clock(),
        )
    )
    return response


def cmd_sign_unblind(ws: storage.Workspace, args) -> int:
    system = cli._load_system(ws)
    sdir, _, _, response_path = _session_paths(ws, args.session)
    cli._require(response_path, "response artifact (run sign respond first)")
    state_path = cli._require(sdir / "user.state", "user state (run sign blind first)")
    fields = storage.read_kv(state_path)
    reader = Reader(storage.kv_hex(fields, "u_prime", state_path))
    u_prime = storage.decode_named(state_path, reader.point, system.curve)
    storage.decode_named(state_path, reader.done, "after the point in field 'u_prime'")
    x = storage.kv_unit(fields, "x", state_path, system.curve.q)
    y, h = (storage.kv_int(fields, key, state_path) for key in ("y", "h"))
    blind_state = scheme.BlindState(x=x, y=y, u_prime=u_prime, h=h, message=b"")
    response = _read_message(response_path, scheme.Response, "response", system.curve)
    if response.degenerate:
        raise Degenerate("degenerate response (V is the identity); rerun the session")
    verifier_public = cli._identity_point(args.verifier, "--verifier", system.curve)
    signature = scheme.unblind(system, blind_state, response, verifier_public)
    cli._write_signature(args, signature, sdir / "sig.bin")
    return 0


def cmd_simulate(ws: storage.Workspace, args) -> int:
    system = cli._load_system(ws)
    verifier = cli._load_key(ws, system, cli._identity(args.verifier, "--verifier"))
    signer_public = cli._identity_point(args.signer, "--signer", system.curve)
    message = cli._message_bytes(args)
    rng, _ = cli._rng_and_clock(args.seed)
    signature = session.simulate(system, signer_public, verifier.secret, message, rng)
    cli._write_signature(args, signature, ws.root / "sig.bin")
    return 0


def cmd_blindness_demo(ws: storage.Workspace, args) -> int:
    from . import analysis

    system = cli._load_system(ws)
    if system.curve.q > analysis.DLOG_ORDER_LIMIT:
        raise cli.CommandLineError(
            "blindness-demo needs toy-scale parameters (witness extraction brute-forces"
            f" discrete logs; q = {system.curve.q} is too large)"
        )
    msk = _load_master_secret(ws, system.curve.q)
    signer = scheme.keygen(system, msk, cli._identity(args.signer, "--signer").encode("utf-8"))
    verifier_name = cli._identity(args.verifier, "--verifier")
    verifier = scheme.keygen(system, msk, verifier_name.encode("utf-8"))
    rng, clock = cli._rng_and_clock(args.seed)
    messages = [f"demo message {i}".encode("utf-8") for i in range(args.sessions)]
    outcomes = [
        session.run_local_session(system, signer, m, verifier.public, rng, clock=clock)
        for m in messages
    ]
    failures = 0
    for i, rec_t in enumerate(outcomes):
        for j, rec_s in enumerate(outcomes):
            truth = rec_s.blinding
            witness = analysis.extract_blinding_witness(
                system,
                rec_t.transcript,
                rec_s.signature,
                truth.message,
                signer.public,
                verifier.public,
                verifier.secret,
            )
            if witness is None:
                print(f"pair ({i},{j}): inconsistent")
                failures += 1
            else:
                x, y = witness
                exact = " (true factors)" if (i == j and (x, y) == (truth.x, truth.y)) else ""
                print(f"pair ({i},{j}): x = {x}, y = {y}{exact}")
    if failures:
        print(f"FAILED: {failures} cross pairs had no blinding witness", file=sys.stderr)
        return 1
    print(
        f"all {len(outcomes) ** 2} transcript x signature pairs admit blinding factors;"
        " the signer cannot link transcripts to signatures"
    )
    return 0


def _read_fields(name: str, what: str, known) -> tuple[dict[str, str], Path]:
    """The fields of the key-value file `name` and its path; a field not in
    `known` is a DecodeError naming the file and the field."""
    path = cli._require(Path(name), what)
    fields = storage.read_kv(path)
    unknown = [key for key in fields if key not in known]
    if unknown:
        raise DecodeError(f"{path}: unknown field {unknown[0]!r}")
    return fields, path


def _load_costs(args) -> analysis.Ops:
    from . import analysis

    if args.costs is None:
        return analysis.REFERENCE_COSTS
    fields, path = _read_fields(args.costs, "costs file", analysis.Ops._fields)
    cost = _rational(0)
    return analysis.Ops(
        **{f: storage.kv_field(fields, f, path, cost, "a rational number >= 0") for f in fields}
    )


def cmd_analyze_bounds(ws: storage.Workspace, args) -> int:
    from . import analysis

    # QueryBudget's fields in its order, then the group order
    rules = [
        ("qh1", _count(2), "a decimal integer >= 2"),
        *((key, _count(0), "a decimal integer >= 0") for key in ("qh2", "qe", "qs", "qv")),
        ("eps", _rational(0, 1), "a rational number in [0, 1]"),
        ("t", _rational(0), "a rational number >= 0"),
        ("q", _count(2), "a decimal integer >= 2"),
    ]
    # the flags give the defaults; a budget file's fields override them.  A
    # bad flag is a usage error, a bad field a DecodeError naming the file
    fields, path = {}, None
    if args.budget_file is not None:
        fields, path = _read_fields(args.budget_file, "budget file", [key for key, *_ in rules])

    def value(key: str, parse, kind: str):
        if key in fields:
            return storage.kv_field(fields, key, path, parse, kind)
        try:
            return parse(getattr(args, key))
        except ValueError:
            raise cli.CommandLineError(f"--{key} is not {kind}: {getattr(args, key)!r}") from None

    *counts, group_order = [value(*rule) for rule in rules]
    budget = analysis.QueryBudget(*counts)
    costs = _load_costs(args)
    for problem, bound in (
        ("computational-bilinear-dh", analysis.unforgeability_bound),
        ("decisional-bilinear-dh", analysis.unverifiability_bound),
    ):
        advantage, runtime = bound(budget, costs, group_order)
        print(f"problem = {problem}")
        print(f"advantage = {_fmt(advantage)}")
        print(f"runtime_ms = {_fmt(runtime)}")
    return 0


def cmd_analyze_perf(ws: storage.Workspace, args) -> int:
    from . import analysis

    for entry in analysis.perf_report(_load_costs(args)):
        counts = " + ".join(f"{n}*{kind}" for kind, n in entry.counts._asdict().items() if n)
        line = (
            f"scheme = {entry.scheme_name} | phase = {entry.phase}"
            f" | counts = {counts}"
            f" | modeled_ms = {_fmt(entry.modeled_ms)}"
            f" | stated_ms = {_fmt(entry.stated_ms)}"
        )
        diff = entry.stated_ms - entry.modeled_ms
        if diff:
            line += f" | DISCREPANCY: stated total exceeds its own counts by {_fmt(diff)}"
        print(line)
    return 0


def cmd_bench(ws: storage.Workspace, args) -> int:
    import json

    # layers.rows reads these modules off the package, which imports none itself
    from . import algebra, curve, layers, rng  # noqa: F401

    system = cli._load_system(ws)
    params = system.curve
    msk = _load_master_secret(ws, params.q)
    n = args.iterations
    for label, fn in layers.rows(sys.modules[__package__], system, msk, "bench", n).items():
        start = time.perf_counter()
        for i in range(n):
            fn(i)
        ms = (time.perf_counter() - start) * 1000 / n
        if args.json:
            row = {"label": label, "ms": ms, "iterations": n, "params": params.security_label}
            print(json.dumps(row))
        else:
            print(f"{label} = {ms:.3f} ms")
    return 0
