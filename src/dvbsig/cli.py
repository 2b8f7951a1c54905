"""Command-line driver for the whole lifecycle.

Exit codes: 0 success, 1 verification/property failure, 2 usage error
(bad flags, missing or unreadable files, out-of-order protocol steps), 3
crypto or decode error.

All randomness honors --seed: when given, every draw comes from the
SHA-256(seed || counter) stream and timestamps come from a logical clock,
so reruns in a fresh workspace are bit-identical.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import scheme, session, storage
from .curve import (
    Reader,
    generate_params,
    hash_to_point,
    params_for_subgroup_order,
    scalar_mul,
)
from .errors import DecodeError, Degenerate, DvbsigError
from .rng import SeededRng, SystemRng
from .scheme import KeyPair
from .session import FileTranscriptStore, LogicalClock

if TYPE_CHECKING:
    from fractions import Fraction

    from . import analysis

# `analysis`, `fractions` and `json` are imported by the commands that use
# them: every process pays for what it imports, and most commands need none.

IDENTITY_RE = re.compile(r"[A-Za-z0-9_.-]+")
# identities and session names become file names; this stays below the
# usual 255-byte name limit once a suffix such as ".key" is added
IDENTITY_MAX_CHARS = 128


class CommandLineError(Exception):
    """Usage-level failure: exits 2."""


def _rng_and_clock(seed: str | None):
    """The draws and the millisecond clock of one command: system randomness
    and the wall clock, or the seeded stream and a logical clock."""
    if seed is None:
        return SystemRng(), session.wall_clock_ms
    return SeededRng(seed), LogicalClock()


def _identity(name: str, flag: str, error: type[Exception] = CommandLineError) -> str:
    """`name`, given by `flag`, as an identity or session name: a file name
    in the workspace, so not "." or ".." either.  A name read from a file
    fails with `error=DecodeError`, so it exits 3 as that file's other
    fields do."""
    if not IDENTITY_RE.fullmatch(name) or not name.strip("."):
        raise error(f"{flag} {name!r} must be [A-Za-z0-9_.-], not only dots")
    if len(name) > IDENTITY_MAX_CHARS:
        raise error(f"{flag} of {len(name)} characters is longer than {IDENTITY_MAX_CHARS}")
    return name


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise CommandLineError(f"{what} not found: {path}")
    return path


def _fresh(path: Path, what: str) -> Path:
    if path.exists():
        raise CommandLineError(f"{what} already exists: {path}")
    return path


def _message_bytes(args) -> bytes:
    if getattr(args, "asset_statement", None) is not None:
        tag, sep, threshold = args.asset_statement.partition(":")
        if not sep or not tag or not threshold:
            raise CommandLineError("--asset-statement must look like <address-tag>:<threshold>")
        # '|' separates the fields of the signed string, so two statements
        # could otherwise sign the same bytes ("a|b:5" and "a:b|5")
        if "|" in args.asset_statement:
            raise CommandLineError("--asset-statement may not contain '|'")
        return f"POA|v1|{tag}|{threshold}".encode("utf-8")
    if getattr(args, "message_file", None) is not None:
        return Path(_require(Path(args.message_file), "message file")).read_bytes()
    raise CommandLineError("one of --message-file / --asset-statement is required")


def _load_system(ws: storage.Workspace) -> scheme.SystemParams:
    return storage.load_system_params(_require(ws.system_file, "system parameters (run setup)"))


def _load_key(ws: storage.Workspace, system, identity: str) -> KeyPair:
    return storage.load_identity_key(
        _require(ws.key_file(identity), f"key for {identity!r} (run keygen)"), system
    )


def _read_message(path: Path, kind: type, what: str, curve) -> session.ProtocolMessage:
    """The protocol message of type `kind` in the frame file at `path`."""
    message = storage.decode_named(path, session.decode_message, path.read_bytes(), curve)
    if not isinstance(message, kind):
        raise CommandLineError(f"{path} does not hold a {what}")
    return message


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def _count(text: str) -> int:
    """A query count: a decimal integer, 0 or more."""
    if not text.isdecimal():
        raise ValueError(text)
    return int(text)


def _rational(low: int, high: int | None = None):
    """A parser of rational numbers in [low, high], or from low up."""

    def parse(text: str) -> Fraction:
        from fractions import Fraction

        try:
            value = Fraction(text)
        except ZeroDivisionError:
            raise ValueError(text) from None
        if value < low or high is not None and value > high:
            raise ValueError(text)
        return value

    return parse


def _fmt(value: Fraction) -> str:
    return f"{value} ({float(value):.4f})"


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_params_gen(ws: storage.Workspace, args) -> int:
    seed = (args.seed or "dvbsig-params").encode("utf-8")
    if args.q_value is not None:
        params = params_for_subgroup_order(
            args.q_value, seed, p_bits=args.p_bits, security_label=args.label or ""
        )
    else:
        if args.q_bits is None:
            raise CommandLineError("one of --q-bits / --q-value is required")
        params = generate_params(
            args.q_bits, seed, p_bits=args.p_bits, security_label=args.label or ""
        )
    ws.ensure()
    out = Path(args.out) if args.out else ws.params_file
    storage.save_curve_params(params, out)
    print(f"wrote {out}")
    print(f"p = {params.p}")
    print(f"q = {params.q}")
    print(f"cofactor = {params.cofactor}")
    return 0


def cmd_setup(ws: storage.Workspace, args) -> int:
    params = storage.load_curve_params(_require(ws.params_file, "params file (run params gen)"))
    rng, _ = _rng_and_clock(args.seed)
    system, msk = scheme.setup(params, rng)
    ws.ensure()
    storage.save_system_params(system, ws.system_file)
    storage.save_master_secret(msk, ws.master_file)
    print(f"wrote {ws.system_file}")
    print(f"wrote {ws.master_file} (keep this file secret; it is stored unencrypted)")
    return 0


def cmd_keygen(ws: storage.Workspace, args) -> int:
    system = _load_system(ws)
    msk = storage.load_master_secret(
        _require(ws.master_file, "master secret (run setup)"), system.curve.q
    )
    identity = _identity(args.id, "--id")
    key = scheme.keygen(system, msk, identity.encode("utf-8"))
    ws.ensure()
    storage.save_identity_key(key, ws.key_file(identity))
    print(f"wrote {ws.key_file(identity)}")
    return 0


def cmd_sign_run(ws: storage.Workspace, args) -> int:
    system = _load_system(ws)
    signer_name = _identity(args.signer, "--signer")
    verifier = _identity(args.verifier, "--verifier")
    message = _message_bytes(args)
    # open the log first: its order-q checks (two per record) would evict the
    # key's doubling chain from the 4-entry check cache before its first product
    store = FileTranscriptStore(ws.transcript_log, system.curve)
    signer = _load_key(ws, system, signer_name)
    verifier_public = hash_to_point(verifier.encode("utf-8"), system.curve)
    rng, clock = _rng_and_clock(args.seed)
    outcome = session.run_local_session(
        system,
        signer,
        message,
        verifier_public,
        rng,
        store=store,
        clock=clock,
    )
    out = Path(args.out) if args.out else ws.root / "sig.bin"
    storage.save_signature(outcome.signature, out, text=args.format == "text")
    print(f"wrote {out} (retries: {outcome.retries})")
    return 0


def _session_paths(ws: storage.Workspace, name: str):
    sdir = ws.session_dir(_identity(name, "--session"))
    return sdir, sdir / "commit.frame", sdir / "challenge.frame", sdir / "response.frame"


def cmd_sign_commit(ws: storage.Workspace, args) -> int:
    system = _load_system(ws)
    signer = _load_key(ws, system, _identity(args.signer, "--signer"))
    sdir, commit_path, _, _ = _session_paths(ws, args.session)
    sdir.mkdir(parents=True, exist_ok=True)
    _fresh(commit_path, "commit artifact")
    rng, clock = _rng_and_clock(args.seed)
    session_id = rng.next_bytes(session.SESSION_ID_BYTES)
    state, commitment = scheme.sign_commit(system, signer, rng)
    commit_path.write_bytes(session.encode_message(commitment, system.curve))
    started = clock()
    storage.write_private(
        sdir / "signer.state",
        f"session_id = {session_id.hex()}\n"
        f"signer = {args.signer}\n"
        f"r = {state.r}\n"
        f"started_ms = {started}\n",
    )
    print(f"wrote {commit_path}")
    return 0


def cmd_sign_blind(ws: storage.Workspace, args) -> int:
    system = _load_system(ws)
    sdir, commit_path, challenge_path, _ = _session_paths(ws, args.session)
    _require(commit_path, "commit artifact (run sign commit first)")
    _fresh(challenge_path, "challenge artifact")
    message = _message_bytes(args)
    commitment = _read_message(commit_path, scheme.Commitment, "commitment", system.curve)
    signer = _identity(args.signer, "--signer")
    signer_public = hash_to_point(signer.encode("utf-8"), system.curve)
    rng, _ = _rng_and_clock(args.seed)
    state, challenge = scheme.blind(system, message, commitment, signer_public, rng)
    challenge_path.write_bytes(session.encode_message(challenge, system.curve))
    storage.write_private(
        sdir / "user.state",
        f"x = {state.x}\n"
        f"y = {state.y}\n"
        f"h = {state.h}\n"
        f"u_prime = {state.u_prime.encode().hex()}\n",
    )
    print(f"wrote {challenge_path}")
    return 0


def cmd_sign_respond(ws: storage.Workspace, args) -> int:
    system = _load_system(ws)
    sdir, _, challenge_path, response_path = _session_paths(ws, args.session)
    state_path = _require(sdir / "signer.state", "signer state (run sign commit first)")
    _require(challenge_path, "challenge artifact (run sign blind first)")
    _fresh(response_path, "response artifact")
    fields = storage.read_kv(state_path)
    signer_name = _identity(
        storage.kv_text(fields, "signer", state_path), f"{state_path}: field 'signer'", DecodeError
    )
    r = storage.kv_unit(fields, "r", state_path, system.curve.q)
    session_id = storage.kv_hex(fields, "session_id", state_path)
    if len(session_id) != (size := session.SESSION_ID_BYTES):
        raise DecodeError(f"{state_path}: field 'session_id' is not {size} bytes")
    started = storage.kv_int(fields, "started_ms", state_path, default=0)
    if not 0 <= started <= 2**64 - 2:  # the log's 8 bytes hold it and finished = started + 1
        raise DecodeError(f"{state_path}: field 'started_ms' is not in [0, 2^64 - 2]")
    signer = _load_key(ws, system, signer_name)
    challenge = _read_message(challenge_path, scheme.BlindedChallenge, "challenge", system.curve)
    # U is the commitment to this state's r, r*Q_s, whatever commit.frame
    # (which the user side can rewrite) holds now
    commitment = scalar_mul(r, signer.public)
    response = scheme.sign_respond(system, scheme.SignerState(r=r, key=signer), challenge)
    finished = started + 1 if args.seed else session.wall_clock_ms()
    store = FileTranscriptStore(ws.transcript_log, system.curve)
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
            finished_ms=finished,
        )
    )
    response_path.write_bytes(session.encode_message(response, system.curve))
    state_path.unlink()  # r has answered its one challenge
    if response.degenerate:
        print(f"wrote {response_path} (degenerate response; rerun the session)")
    else:
        print(f"wrote {response_path}")
    return 0


def cmd_sign_unblind(ws: storage.Workspace, args) -> int:
    system = _load_system(ws)
    sdir, _, _, response_path = _session_paths(ws, args.session)
    _require(response_path, "response artifact (run sign respond first)")
    state_path = _require(sdir / "user.state", "user state (run sign blind first)")
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
    verifier = _identity(args.verifier, "--verifier")
    verifier_public = hash_to_point(verifier.encode("utf-8"), system.curve)
    signature = scheme.unblind(system, blind_state, response, verifier_public)
    out = Path(args.out) if args.out else sdir / "sig.bin"
    storage.save_signature(signature, out, text=args.format == "text")
    print(f"wrote {out}")
    return 0


def cmd_verify(ws: storage.Workspace, args) -> int:
    system = _load_system(ws)
    verifier = _load_key(ws, system, _identity(args.verifier, "--verifier"))
    message = _message_bytes(args)
    signature = storage.load_signature(_require(Path(args.sig), "signature file"), system)
    signer = _identity(args.signer, "--signer").encode("utf-8")
    ok = scheme.verify_with_identity(system, verifier.secret, signer, message, signature)
    if ok:
        print("VALID")
        return 0
    print("INVALID")
    return 1


def cmd_simulate(ws: storage.Workspace, args) -> int:
    system = _load_system(ws)
    verifier = _load_key(ws, system, _identity(args.verifier, "--verifier"))
    signer = _identity(args.signer, "--signer")
    signer_public = hash_to_point(signer.encode("utf-8"), system.curve)
    message = _message_bytes(args)
    rng, _ = _rng_and_clock(args.seed)
    signature = scheme.simulate(system, signer_public, verifier.secret, message, rng)
    out = Path(args.out) if args.out else ws.root / "sig.bin"
    storage.save_signature(signature, out, text=args.format == "text")
    print(f"wrote {out}")
    return 0


def cmd_blindness_demo(ws: storage.Workspace, args) -> int:
    from . import analysis

    system = _load_system(ws)
    if system.curve.q > analysis.DLOG_ORDER_LIMIT:
        raise CommandLineError(
            "blindness-demo needs toy-scale parameters (witness extraction brute-forces"
            f" discrete logs; q = {system.curve.q} is too large)"
        )
    msk = storage.load_master_secret(
        _require(ws.master_file, "master secret (run setup)"), system.curve.q
    )
    signer = scheme.keygen(system, msk, _identity(args.signer, "--signer").encode("utf-8"))
    verifier = scheme.keygen(system, msk, _identity(args.verifier, "--verifier").encode("utf-8"))
    rng, _ = _rng_and_clock(args.seed)
    messages = [f"demo message {i}".encode("utf-8") for i in range(args.sessions)]
    outcomes = analysis.run_blind_sessions(system, signer, verifier.public, messages, rng)
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


def _load_costs(args) -> analysis.OpCosts:
    from . import analysis

    if getattr(args, "costs", None) is None:
        return analysis.OpCosts.reference()
    path = _require(Path(args.costs), "costs file")
    fields = storage.read_kv(path)
    bad = set(fields) - set(analysis.OpCosts._fields)
    if bad:
        raise CommandLineError(f"unknown cost fields: {sorted(bad)}")
    cost = _rational(0)
    return analysis.OpCosts(
        **{f: storage.kv_field(fields, f, path, cost, "a rational number >= 0") for f in fields}
    )


def cmd_analyze_bounds(ws: storage.Workspace, args) -> int:
    from . import analysis

    # the flags give the defaults; a budget file's fields override them.  A
    # bad flag is a usage error, a bad field a DecodeError naming the file
    fields, path = {}, None
    if args.budget_file is not None:
        path = _require(Path(args.budget_file), "budget file")
        fields = storage.read_kv(path)

    def value(key: str, parse, kind: str):
        if key in fields:
            return storage.kv_field(fields, key, path, parse, kind)
        try:
            return parse(getattr(args, key))
        except ValueError:
            raise CommandLineError(f"--{key} is not {kind}: {getattr(args, key)!r}") from None

    integer = "a decimal integer >= 0"
    budget = analysis.QueryBudget(
        h1_queries=value("qh1", _count, integer),
        h2_queries=value("qh2", _count, integer),
        extract_queries=value("qe", _count, integer),
        sign_queries=value("qs", _count, integer),
        verify_queries=value("qv", _count, integer),
        advantage=value("eps", _rational(0, 1), "a rational number in [0, 1]"),
        runtime=value("t", _rational(0), "a rational number >= 0"),
    )
    group_order = storage.kv_int(fields, "q", path, default=args.q)
    costs = _load_costs(args)
    forge = analysis.unforgeability_bound(budget, costs, group_order)
    dver = analysis.unverifiability_bound(budget, costs, group_order)
    print("problem = computational-bilinear-dh")
    print(f"advantage = {_fmt(forge.advantage)}")
    print(f"runtime_ms = {_fmt(forge.runtime)}")
    print("problem = decisional-bilinear-dh")
    print(f"advantage = {_fmt(dver.advantage)}")
    print(f"runtime_ms = {_fmt(dver.runtime)}")
    return 0


def cmd_analyze_perf(ws: storage.Workspace, args) -> int:
    from . import analysis

    for entry in analysis.perf_report(_load_costs(args)):
        counts = entry.counts
        parts = [
            f"{n}*{kind}"
            for kind, n in (
                ("g1_scalar_mul", counts.g1_scalar_mul),
                ("map_to_point", counts.map_to_point),
                ("pairing", counts.pairing),
            )
            if n
        ]
        line = (
            f"scheme = {entry.scheme_name} | phase = {entry.phase}"
            f" | counts = {' + '.join(parts)}"
            f" | modeled_ms = {_fmt(entry.modeled_ms)}"
        )
        if entry.stated_ms is not None:
            line += f" | stated_ms = {_fmt(entry.stated_ms)}"
        if entry.discrepancy:
            diff = entry.stated_ms - entry.modeled_ms
            line += f" | DISCREPANCY: stated total exceeds its own counts by {_fmt(diff)}"
        print(line)
    return 0


def cmd_bench(ws: storage.Workspace, args) -> int:
    import json

    from .algebra import sample_unit
    from .curve import decode_point, in_subgroup, scalar_mul, tate_pairing
    from .curve import _final_exponentiation, _miller_loop
    from .scheme import MasterSecret

    if ws.system_file.exists():
        system = _load_system(ws)
    else:
        params = params_for_subgroup_order(13, b"bench-toy")
        system, _ = scheme.setup(params, SeededRng("bench"))
        print("no workspace system; benchmarking built-in toy parameters", file=sys.stderr)
    curve = system.curve
    rng, _ = _rng_and_clock(args.seed or "bench")
    if ws.master_file.exists():
        msk = storage.load_master_secret(ws.master_file, curve.q)
    else:
        msk = MasterSecret(sample_unit(rng, curve.q))
    signer = scheme.keygen(system, msk, b"bench-signer")
    verifier = scheme.keygen(system, msk, b"bench-verifier")
    n = args.iterations

    def timed(label, fn, inputs):
        start = time.perf_counter()
        for item in inputs:
            fn(item)
        ms = (time.perf_counter() - start) * 1000 / n
        if args.json:
            row = {"label": label, "ms": ms, "iterations": n, "params": curve.security_label}
            print(json.dumps(row))
        else:
            print(f"{label} = {ms:.3f} ms")

    timed("params_validate", lambda _: curve.validate(), range(n))
    # Full-width scalars.  `g1_scalar_mul` and `pairing` reuse one base and
    # one Miller argument, whose doubling chain and lines an untimed first
    # call builds; the `_first_use` rows take a fresh point per iteration and
    # so pay for building them.
    scalars = [sample_unit(rng, curve.q) for _ in range(n)]
    fresh = [scalar_mul(sample_unit(rng, curve.q), curve.generator) for _ in range(2 * n)]
    base, other = signer.public, verifier.public
    scalar_mul(scalars[0], base)
    tate_pairing(base, other, curve)
    timed("g1_scalar_mul", lambda k: scalar_mul(k, base), scalars)
    timed("g1_scalar_mul_first_use", lambda i: scalar_mul(scalars[i], fresh[i]), range(n))
    timed("pairing", lambda b: tate_pairing(base, b, curve), fresh[n:])
    timed("pairing_first_use", lambda a: tate_pairing(a, other, curve), fresh[n:])
    # `map_to_point` hashes a new identity each iteration (a cold H1);
    # `map_to_point_repeat` one identity, whose cofactor clearing an untimed
    # first call has cached
    counter = iter(range(10**9))
    timed(
        "map_to_point",
        lambda _: hash_to_point(f"bench{next(counter)}".encode(), curve),
        range(n),
    )
    hash_to_point(b"bench-repeat", curve)
    timed("map_to_point_repeat", lambda _: hash_to_point(b"bench-repeat", curve), range(n))
    timed(
        "sign_session",
        lambda _: session.run_local_session(
            system, signer, b"bench message", verifier.public, rng
        ),
        range(n),
    )
    outcome = session.run_local_session(system, signer, b"bench message", verifier.public, rng)
    timed(
        "verify",
        lambda _: scheme.verify_with_identity(
            system, verifier.secret, b"bench-signer", b"bench message", outcome.signature
        ),
        range(n),
    )
    # points that no row has multiplied or checked, so no cache holds their chain
    checked = [scalar_mul(sample_unit(rng, curve.q), curve.generator) for _ in range(n)]
    timed("subgroup_check", lambda a: in_subgroup(a, curve.q), checked)
    # decode_point of an encoding seen once (an order-q check), then a first product
    encoded = [(k, a.encode()) for k, a in zip(scalars, fresh[n:])]
    timed("checked_product", lambda e: scalar_mul(e[0], decode_point(e[1], curve)[0]), encoded)
    loops = [_miller_loop(curve.q, curve.p, base.x, base.y, b.x, b.y) for b in fresh[n:]]
    timed("final_exponentiation", lambda f: _final_exponentiation(f, curve), loops)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvbsig",
        description="Identity-based strong designated verifier blind signatures",
    )
    parser.add_argument(
        "-w", "--workspace", default="dvbsig-workspace", help="workspace directory"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="curve parameter management")
    params_sub = p_params.add_subparsers(dest="subcommand", required=True)
    p_gen = params_sub.add_parser("gen", help="generate pairing parameters")
    p_gen.add_argument("--q-bits", type=int, help="bit length of the subgroup order")
    p_gen.add_argument(
        "--q-value", type=int, help="explicit decimal subgroup order (overrides --q-bits)"
    )
    p_gen.add_argument("--p-bits", type=_positive_int, help="target bit length for the field prime")
    p_gen.add_argument("--seed", help="derivation seed")
    p_gen.add_argument("--label", help="security label stored in the params file")
    p_gen.add_argument("--out", help="output file (default: workspace params.txt)")
    p_gen.set_defaults(func=cmd_params_gen)

    p_setup = sub.add_parser("setup", help="run PKG setup (master key + system params)")
    p_setup.add_argument("--seed")
    p_setup.set_defaults(func=cmd_setup)

    p_keygen = sub.add_parser("keygen", help="issue an identity key")
    p_keygen.add_argument("--id", required=True)
    p_keygen.set_defaults(func=cmd_keygen)

    p_sign = sub.add_parser("sign", help="interactive signing")
    sign_sub = p_sign.add_subparsers(dest="subcommand", required=True)

    def add_message_flags(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--message-file")
        group.add_argument("--asset-statement", help="<address-tag>:<threshold> sugar")

    p_run = sign_sub.add_parser("run", help="run a whole session locally")
    p_run.add_argument("--signer", required=True)
    p_run.add_argument("--verifier", required=True)
    add_message_flags(p_run)
    p_run.add_argument("--seed")
    p_run.add_argument("--out", help="signature output (default: workspace sig.bin)")
    p_run.add_argument("--format", choices=["binary", "text"], default="binary")
    p_run.set_defaults(func=cmd_sign_run)

    p_commit = sign_sub.add_parser("commit", help="signer step 1: commitment")
    p_commit.add_argument("--signer", required=True)
    p_commit.add_argument("--session", required=True)
    p_commit.add_argument("--seed")
    p_commit.set_defaults(func=cmd_sign_commit)

    p_blind = sign_sub.add_parser("blind", help="user step 2: blinded challenge")
    p_blind.add_argument("--session", required=True)
    p_blind.add_argument("--signer", required=True)
    add_message_flags(p_blind)
    p_blind.add_argument("--seed")
    p_blind.set_defaults(func=cmd_sign_blind)

    p_respond = sign_sub.add_parser("respond", help="signer step 3: response")
    p_respond.add_argument("--session", required=True)
    p_respond.add_argument("--seed")
    p_respond.set_defaults(func=cmd_sign_respond)

    p_unblind = sign_sub.add_parser("unblind", help="user step 4: final signature")
    p_unblind.add_argument("--session", required=True)
    p_unblind.add_argument("--verifier", required=True)
    p_unblind.add_argument("--out")
    p_unblind.add_argument("--format", choices=["binary", "text"], default="binary")
    p_unblind.set_defaults(func=cmd_sign_unblind)

    p_verify = sub.add_parser("verify", help="designated verification")
    p_verify.add_argument("--signer", required=True)
    p_verify.add_argument("--verifier", required=True)
    add_message_flags(p_verify)
    p_verify.add_argument("--sig", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="verifier-side transcript simulation")
    p_sim.add_argument("--signer", required=True)
    p_sim.add_argument("--verifier", required=True)
    add_message_flags(p_sim)
    p_sim.add_argument("--seed")
    p_sim.add_argument("--out", help="signature output (default: workspace sig.bin)")
    p_sim.add_argument("--format", choices=["binary", "text"], default="binary")
    p_sim.set_defaults(func=cmd_simulate)

    p_demo = sub.add_parser("blindness-demo", help="cross-pair witness extraction demo")
    p_demo.add_argument("--sessions", type=_positive_int, default=4)
    p_demo.add_argument("--signer", default="demo-signer")
    p_demo.add_argument("--verifier", default="demo-verifier")
    p_demo.add_argument("--seed")
    p_demo.set_defaults(func=cmd_blindness_demo)

    p_analyze = sub.add_parser("analyze", help="reduction bounds and performance model")
    analyze_sub = p_analyze.add_subparsers(dest="subcommand", required=True)

    p_bounds = analyze_sub.add_parser("bounds", help="evaluate the reduction bounds")
    p_bounds.add_argument("--qh1", default="2")
    p_bounds.add_argument("--qh2", default="0")
    p_bounds.add_argument("--qe", default="0")
    p_bounds.add_argument("--qs", default="0")
    p_bounds.add_argument("--qv", default="0")
    p_bounds.add_argument("--eps", default="1")
    p_bounds.add_argument("--t", default="0")
    p_bounds.add_argument("--q", type=int, default=2**159 + 2**17 + 1, help="group order")
    p_bounds.add_argument("--budget-file", help="key-value file overriding the flags")
    p_bounds.add_argument("--costs", help="key-value unit-cost file")
    p_bounds.set_defaults(func=cmd_analyze_bounds)

    p_perf = analyze_sub.add_parser("perf", help="per-phase cost model")
    p_perf.add_argument("--costs")
    p_perf.set_defaults(func=cmd_analyze_perf)

    p_bench = sub.add_parser("bench", help="wall-clock micro-benchmarks")
    p_bench.add_argument("--seed")
    p_bench.add_argument("--iterations", type=_positive_int, default=20)
    p_bench.add_argument(
        "--json", action="store_true", help="print each row as one JSON object"
    )
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    ws = storage.Workspace(Path(args.workspace))
    try:
        return args.func(ws, args)
    except CommandLineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a path that is missing, a directory, unreadable or unwritable; the
        # message names it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DvbsigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
