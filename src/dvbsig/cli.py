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
from pathlib import Path

from . import scheme, storage
from .curve import hash_to_point
from .errors import DecodeError, DvbsigError
from .rng import SeededRng, SystemRng
from .scheme import KeyPair

# Every process pays for what it imports and compiles, so a process imports
# only its own command: `session` where a session runs or is logged, and the
# handlers of the other twelve commands, in `commands`, when one of them runs.

IDENTITY_RE = re.compile(r"[A-Za-z0-9_.-]+")
# identities and session names become file names; this stays below the
# usual 255-byte name limit once a suffix such as ".key" is added
IDENTITY_MAX_CHARS = 128


class CommandLineError(Exception):
    """Usage-level failure: exits 2."""


def _clock(seed: str | None, start: int = 0):
    """The millisecond clock of one command: the wall clock, or for any seed
    that is not None ("" too) a logical clock whose first reading is `start`."""
    from . import session

    return session.wall_clock_ms if seed is None else session.LogicalClock(start)


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


# ---------------------------------------------------------------------------
# the commands of a signing or a verifying process


def cmd_sign_run(ws: storage.Workspace, args) -> int:
    from . import session

    system = _load_system(ws)
    signer_name = _identity(args.signer, "--signer")
    verifier = _identity(args.verifier, "--verifier")
    message = _message_bytes(args)
    store = session.FileTranscriptStore(ws.transcript_log, system.curve)
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


def _on_demand(name: str):
    """The handler `name` of `commands`, a module that is imported only when
    one of its handlers runs."""

    def handler(ws: storage.Workspace, args) -> int:
        from . import commands

        return getattr(commands, name)(ws, args)

    handler.__name__ = handler.__qualname__ = name
    return handler


# Every command in --help order: (words, help, handler, flags).  A flag is a
# SHARED_FLAGS name, MESSAGE, or a (flag, keywords) pair of its own.  A group
# ("params", "sign", "analyze") has no handler or flags; its commands follow it.
COMMANDS = (
    ("params", "curve parameter management", None, ()),
    ("params gen", "generate pairing parameters", _on_demand("cmd_params_gen"), (
        ("--q-bits", {"type": int, "help": "bit length of the subgroup order"}),
        ("--q-value",
         {"type": int, "help": "explicit decimal subgroup order (overrides --q-bits)"}),
        ("--p-bits", {"type": _positive_int, "help": "target bit length for the field prime"}),
        ("--seed", {"type": _utf8_text, "help": "derivation seed"}),
        ("--label", {"help": "security label stored in the params file"}),
    )),
    ("setup", "run PKG setup (master key + system params)", _on_demand("cmd_setup"), ("--seed",)),
    ("keygen", "issue an identity key", _on_demand("cmd_keygen"), (("--id", {"required": True}),)),
    ("sign", "interactive signing", None, ()),
    ("sign run", "run a whole session locally", cmd_sign_run,
     ("--signer", "--verifier", MESSAGE, "--seed", "--out", "--format")),
    ("sign commit", "signer step 1: commitment", _on_demand("cmd_sign_commit"),
     ("--signer", "--session", "--seed")),
    ("sign blind", "user step 2: blinded challenge", _on_demand("cmd_sign_blind"),
     ("--session", "--signer", MESSAGE, "--seed")),
    ("sign respond", "signer step 3: response", _on_demand("cmd_sign_respond"),
     ("--session", "--seed")),
    ("sign unblind", "user step 4: final signature", _on_demand("cmd_sign_unblind"),
     ("--session", "--verifier", ("--out", {}), "--format")),
    ("verify", "designated verification", cmd_verify,
     ("--signer", "--verifier", MESSAGE, ("--sig", {"required": True}))),
    ("simulate", "verifier-side transcript simulation", _on_demand("cmd_simulate"),
     ("--signer", "--verifier", MESSAGE, "--seed", "--out", "--format")),
    ("blindness-demo", "cross-pair witness extraction demo", _on_demand("cmd_blindness_demo"), (
        ("--sessions", {"type": _positive_int, "default": 4}),
        ("--signer", {"default": "demo-signer"}),
        ("--verifier", {"default": "demo-verifier"}),
        "--seed",
    )),
    ("analyze", "reduction bounds and performance model", None, ()),
    ("analyze bounds", "evaluate the reduction bounds", _on_demand("cmd_analyze_bounds"), (
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
    ("analyze perf", "per-phase cost model", _on_demand("cmd_analyze_perf"), (("--costs", {}),)),
    ("bench", "wall-clock micro-benchmarks", _on_demand("cmd_bench"), (
        ("--iterations", {"type": _positive_int, "default": 20}),
        ("--json", {"action": "store_true", "help": "print each row as one JSON object"}),
    )),
)


class _Reparse(Exception):
    """A narrow parse met what only the full parser may answer."""


class _NarrowParser(argparse.ArgumentParser):
    """A parser in the chain of one command.  It prints nothing of its own:
    where argparse would print usage, an error or help, it raises _Reparse."""

    def error(self, message):
        raise _Reparse

    def print_help(self, file=None):
        raise _Reparse


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or with `only` ("sign run") a narrow
    parser of that command alone (see `_parse_narrow`)."""
    parser = (argparse.ArgumentParser if only is None else _NarrowParser)(
        prog="dvbsig",
        description="Identity-based strong designated verifier blind signatures",
    )
    parser.add_argument(
        "-w", "--workspace", default="dvbsig-workspace", help="workspace directory"
    )
    # the subparsers of the top level ("") and of each group
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for words, help_text, handler, flags in COMMANDS:
        if only is not None and words not in (only, only.rpartition(" ")[0]):
            continue
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


_HANDLED = {words for words, _, handler, _ in COMMANDS if handler is not None}


def _parse_narrow(argv):
    """argv parsed by the parser of the command it names alone, or None where
    the full parser must parse it again: a request for help, no command or an
    unknown one, an option before it other than the workspace, or any error.
    So every message a parse prints is the full parser's."""
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        if argv[i] in ("-w", "--workspace"):
            i += 2
        elif argv[i].startswith(("-w", "--workspace=")):
            i += 1
        else:
            return None
    words = " ".join(argv[i : i + 1])
    if words not in _HANDLED:  # a group names its command in the next word
        words = " ".join(argv[i : i + 2])
    if words not in _HANDLED or "-h" in argv or "--help" in argv:
        return None
    try:
        return build_parser(words).parse_args(argv)
    except _Reparse:
        return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_narrow(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
    # `python -m dvbsig.cli` runs this file as __main__.  `commands` imports
    # dvbsig.cli, which must be this module: another copy would raise its
    # own CommandLineError, which this main does not catch
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    sys.exit(main())
