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
import os
import re
import secrets
import stat
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import scheme, session, storage
from .algebra import is_prime
from .curve import (
    Reader,
    _find_prime,
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


def _clock(seed: str | None, start: int = 0):
    """The millisecond clock of one command: the wall clock, or for any seed
    that is not None ("" too) a logical clock whose first reading is `start`."""
    return session.wall_clock_ms if seed is None else LogicalClock(start)


def _rng_and_clock(seed: str | None):
    """The draws and the clock of one command: system randomness, or the
    seeded stream."""
    return (SystemRng() if seed is None else SeededRng(seed)), _clock(seed)


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
    if args.asset_statement is not None:
        tag, sep, threshold = args.asset_statement.partition(":")
        if not sep or not tag or not threshold:
            raise CommandLineError("--asset-statement must look like <address-tag>:<threshold>")
        # '|' separates the fields of the signed string, so two statements
        # could otherwise sign the same bytes ("a|b:5" and "a:b|5")
        if "|" in args.asset_statement:
            raise CommandLineError("--asset-statement may not contain '|'")
        return f"POA|v1|{tag}|{threshold}".encode("utf-8")
    # argparse requires exactly one of the two flags
    return _require(Path(args.message_file), "message file").read_bytes()


def _load_system(ws: storage.Workspace) -> scheme.SystemParams:
    return storage.load_system_params(_require(ws.system_file, "system parameters (run setup)"))


def _load_key(ws: storage.Workspace, system, identity: str) -> KeyPair:
    path = _require(ws.key_file(identity), f"key for {identity!r} (run keygen)")
    key = storage.load_identity_key(path, system)
    if key.identity != identity.encode("utf-8"):
        raise DecodeError(f"{path}: field 'identity' is not {identity!r}")
    return key


def _read_frame(path: Path) -> bytes:
    """The bytes of the frame file at `path`, which must be a regular file:
    it is opened without blocking, so a FIFO there cannot hand out one
    message per reader."""
    with open(os.open(path, os.O_RDONLY | os.O_NONBLOCK), "rb") as handle:
        if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            raise CommandLineError(f"{path} is not a regular file")
        return handle.read()


def _write_frame(path: Path, data: bytes, what: str) -> None:
    """Create the frame file at `path`.  It is created exclusively, so of two
    racing runs of one step only one writes a frame (and the state beside it)."""
    try:
        storage.write_file(path, data, exclusive=True)
    except FileExistsError:
        raise CommandLineError(f"{what} already exists: {path}") from None


def _read_message(path: Path, kind: type, what: str, curve) -> session.ProtocolMessage:
    """The protocol message of type `kind` in the frame file at `path`."""
    message = storage.decode_named(path, session.decode_message, _read_frame(path), curve)
    if not isinstance(message, kind):
        raise CommandLineError(f"{path} does not hold a {what}")
    return message


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def _utf8_text(text: str) -> str:
    """argparse type for text flags that become bytes: UTF-8 must encode them."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(f"not UTF-8 text: {text!r}") from None
    return text


def _count(text: str, low: int = 0) -> int:
    """A query count or group order: a decimal integer, `low` or more."""
    if not text.isdecimal() or int(text) < low:
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
        if not is_prime(args.q_value):
            raise CommandLineError(f"--q-value {args.q_value} is not prime")
        q = args.q_value
    else:
        if args.q_bits is None:
            raise CommandLineError("one of --q-bits / --q-value is required")
        if args.q_bits < 4:
            raise CommandLineError(f"--q-bits must be at least 4, not {args.q_bits}")
        q = _find_prime(args.q_bits, seed)
    # p = 12*q*r - 1 is least at r = 1, and once 12*q <= 2^(p_bits - 1) the
    # 2^(p_bits - 1) candidates of p_bits bits hold a multiple of 12*q, so
    # this is the whole condition for a p of that length to exist
    least_p_bits = (12 * q - 1).bit_length()
    if args.p_bits is not None and args.p_bits < least_p_bits:
        raise CommandLineError(
            f"--p-bits {args.p_bits} is too small: p = 12*q*r - 1 has at least "
            f"{least_p_bits} bits for q = {q}"
        )
    label = args.label or ""
    if not storage.reads_back("security_label", label):
        raise CommandLineError(
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
    _fresh(ws.master_file, "master secret")
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
    _write_frame(commit_path, session.encode_message(commitment, system.curve), "commit artifact")
    storage.write_kv(
        sdir / "signer.state",
        dict(session_id=session_id.hex(), signer=args.signer, r=state.r, started_ms=clock()),
        secret=True,
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
    _write_frame(
        challenge_path, session.encode_message(challenge, system.curve), "challenge artifact"
    )
    fields = {"x": state.x, "y": state.y, "h": state.h, "u_prime": state.u_prime.encode().hex()}
    storage.write_kv(sdir / "user.state", fields, secret=True)
    print(f"wrote {challenge_path}")
    return 0


def cmd_sign_respond(ws: storage.Workspace, args) -> int:
    system = _load_system(ws)
    sdir, _, _, response_path = _session_paths(ws, args.session)
    state_path = sdir / "signer.state"
    # claim r before reading it: of two racing responds one rename wins, and
    # the other exits here without having seen r
    claim = sdir / f"signer.state.{os.getpid()}-{secrets.token_hex(4)}"
    try:
        os.rename(state_path, claim)
    except FileNotFoundError:
        raise CommandLineError(
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
    _require(challenge_path, "challenge artifact (run sign blind first)")
    _fresh(response_path, "response artifact")
    fields = storage.read_kv(claim, state_path)
    signer_name = _identity(
        storage.kv_text(fields, "signer", state_path), f"{state_path}: field 'signer'", DecodeError
    )
    r = storage.kv_unit(fields, "r", state_path, system.curve.q)
    session_id = storage.kv_hex(fields, "session_id", state_path)
    if len(session_id) != (size := session.SESSION_ID_BYTES):
        raise DecodeError(f"{state_path}: field 'session_id' is not {size} bytes")
    started = storage.kv_int(fields, "started_ms", state_path)
    if not 0 <= started <= 2**64 - 2:  # the log's 8 bytes hold it and finished = started + 1
        raise DecodeError(f"{state_path}: field 'started_ms' is not in [0, 2^64 - 2]")
    signer = _load_key(ws, system, signer_name)
    challenge = _read_message(challenge_path, scheme.BlindedChallenge, "challenge", system.curve)
    # U is the commitment to this state's r, r*Q_s, whatever commit.frame
    # (which the user side can rewrite) holds now
    commitment = scalar_mul(r, signer.public)
    response = scheme.sign_respond(system, scheme.SignerState(r=r, key=signer), challenge)
    clock = _clock(args.seed, started + 1)
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
            finished_ms=clock(),
        )
    )
    return response


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
    rng, clock = _rng_and_clock(args.seed)
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
    path = _require(Path(name), what)
    fields = storage.read_kv(path)
    unknown = [key for key in fields if key not in known]
    if unknown:
        raise DecodeError(f"{path}: unknown field {unknown[0]!r}")
    return fields, path


def _load_costs(args) -> analysis.OpCosts:
    from . import analysis

    if args.costs is None:
        return analysis.OpCosts.reference()
    fields, path = _read_fields(args.costs, "costs file", analysis.OpCosts._fields)
    cost = _rational(0)
    return analysis.OpCosts(
        **{f: storage.kv_field(fields, f, path, cost, "a rational number >= 0") for f in fields}
    )


def cmd_analyze_bounds(ws: storage.Workspace, args) -> int:
    from . import analysis

    integer = "a decimal integer >= 0"
    # QueryBudget's fields in its order, then the group order
    rules = [(key, _count, integer) for key in ("qh1", "qh2", "qe", "qs", "qv")] + [
        ("eps", _rational(0, 1), "a rational number in [0, 1]"),
        ("t", _rational(0), "a rational number >= 0"),
        ("q", lambda text: _count(text, 2), "a decimal integer >= 2"),
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
            raise CommandLineError(f"--{key} is not {kind}: {getattr(args, key)!r}") from None

    *counts, group_order = [value(*rule) for rule in rules]
    budget = analysis.QueryBudget(*counts)
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

    from . import layers

    system = _load_system(ws)
    curve = system.curve
    msk = storage.load_master_secret(_require(ws.master_file, "master secret (run setup)"), curve.q)
    n = args.iterations
    for label, fn in layers.rows(sys.modules[__package__], system, msk, "bench", n).items():
        start = time.perf_counter()
        for i in range(n):
            fn(i)
        ms = (time.perf_counter() - start) * 1000 / n
        if args.json:
            row = {"label": label, "ms": ms, "iterations": n, "params": curve.security_label}
            print(json.dumps(row))
        else:
            print(f"{label} = {ms:.3f} ms")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


# flags that several commands take, each declared once: flag -> add_argument keywords
SHARED_FLAGS = {
    "--seed": {"type": _utf8_text},
    "--signer": {"required": True},
    "--verifier": {"required": True},
    "--session": {"required": True},
    "--out": {"help": "signature output (default: workspace sig.bin)"},
    "--format": {"choices": ["binary", "text"], "default": "binary"},
}
MESSAGE = "--message-file | --asset-statement"  # a required pair: exactly one of the two

# Every command in --help order: (words, help, handler, flags).  A flag is a
# SHARED_FLAGS name, MESSAGE, or a (flag, keywords) pair of its own.  A group
# ("params", "sign", "analyze") has no handler or flags; its commands follow it.
COMMANDS = (
    ("params", "curve parameter management", None, ()),
    ("params gen", "generate pairing parameters", cmd_params_gen, (
        ("--q-bits", {"type": int, "help": "bit length of the subgroup order"}),
        ("--q-value",
         {"type": int, "help": "explicit decimal subgroup order (overrides --q-bits)"}),
        ("--p-bits", {"type": _positive_int, "help": "target bit length for the field prime"}),
        ("--seed", {"type": _utf8_text, "help": "derivation seed"}),
        ("--label", {"help": "security label stored in the params file"}),
    )),
    ("setup", "run PKG setup (master key + system params)", cmd_setup, ("--seed",)),
    ("keygen", "issue an identity key", cmd_keygen, (("--id", {"required": True}),)),
    ("sign", "interactive signing", None, ()),
    ("sign run", "run a whole session locally", cmd_sign_run,
     ("--signer", "--verifier", MESSAGE, "--seed", "--out", "--format")),
    ("sign commit", "signer step 1: commitment", cmd_sign_commit,
     ("--signer", "--session", "--seed")),
    ("sign blind", "user step 2: blinded challenge", cmd_sign_blind,
     ("--session", "--signer", MESSAGE, "--seed")),
    ("sign respond", "signer step 3: response", cmd_sign_respond, ("--session", "--seed")),
    ("sign unblind", "user step 4: final signature", cmd_sign_unblind,
     ("--session", "--verifier", ("--out", {}), "--format")),
    ("verify", "designated verification", cmd_verify,
     ("--signer", "--verifier", MESSAGE, ("--sig", {"required": True}))),
    ("simulate", "verifier-side transcript simulation", cmd_simulate,
     ("--signer", "--verifier", MESSAGE, "--seed", "--out", "--format")),
    ("blindness-demo", "cross-pair witness extraction demo", cmd_blindness_demo, (
        ("--sessions", {"type": _positive_int, "default": 4}),
        ("--signer", {"default": "demo-signer"}),
        ("--verifier", {"default": "demo-verifier"}),
        "--seed",
    )),
    ("analyze", "reduction bounds and performance model", None, ()),
    ("analyze bounds", "evaluate the reduction bounds", cmd_analyze_bounds, (
        ("--qh1", {"default": "2"}),
        ("--qh2", {"default": "0"}),
        ("--qe", {"default": "0"}),
        ("--qs", {"default": "0"}),
        ("--qv", {"default": "0"}),
        ("--eps", {"default": "1"}),
        ("--t", {"default": "0"}),
        ("--q", {"default": str(2**159 + 2**17 + 1), "help": "group order"}),
        ("--budget-file", {"help": "key-value file overriding the flags"}),
        ("--costs", {"help": "key-value unit-cost file"}),
    )),
    ("analyze perf", "per-phase cost model", cmd_analyze_perf, (("--costs", {}),)),
    ("bench", "wall-clock micro-benchmarks", cmd_bench, (
        ("--iterations", {"type": _positive_int, "default": 20}),
        ("--json", {"action": "store_true", "help": "print each row as one JSON object"}),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvbsig",
        description="Identity-based strong designated verifier blind signatures",
    )
    parser.add_argument(
        "-w", "--workspace", default="dvbsig-workspace", help="workspace directory"
    )
    # the subparsers of the top level ("") and of each group
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for words, help_text, handler, flags in COMMANDS:
        group, _, name = words.rpartition(" ")
        command = subparsers[group].add_parser(name, help=help_text)
        if handler is None:
            subparsers[words] = command.add_subparsers(dest="subcommand", required=True)
            continue
        command.set_defaults(func=handler)
        for flag in flags:
            if flag == MESSAGE:
                pair = command.add_mutually_exclusive_group(required=True)
                pair.add_argument("--message-file")
                pair.add_argument(
                    "--asset-statement", type=_utf8_text, help="<address-tag>:<threshold> sugar"
                )
            else:
                option, keywords = (flag, SHARED_FLAGS[flag]) if isinstance(flag, str) else flag
                command.add_argument(option, **keywords)
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
    except (CommandLineError, OSError) as exc:
        # an OSError is a path that is missing, a directory, unreadable or
        # unwritable; its message names it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DvbsigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
