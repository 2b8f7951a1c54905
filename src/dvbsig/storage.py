"""On-disk workspace: parameter, system, master-key, identity-key and
signature files, plus the session directory layout used by the step-wise CLI.

All public artifacts are key-value text with decimal integers (signatures
may also use a hex text envelope); secrets are the same format in files
created owner-only (no encryption at rest, by design: this is a research
artifact).  Fields are read through the checked `kv_*` readers.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple

from .curve import CurveParams, G1Point, hash_to_point, point_fault
from .errors import DecodeError, InvalidPoint
from .scheme import (
    H1_NAME,
    H2_NAME,
    KeyPair,
    MasterSecret,
    Signature,
    SystemParams,
    decode_signature,
    encode_signature,
)


def parse_kv(text: str, path: str = "<text>") -> dict[str, str]:
    """Parse `key = value` lines; blank lines and #-comments are skipped."""
    fields: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DecodeError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        fields[key.strip()] = value.strip()
    return fields


def _utf8(data: bytes, path: Path) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"{path}: not UTF-8 text", exc.start) from None


def read_kv(path: Path) -> dict[str, str]:
    """Read and parse a key-value file; non-UTF-8 bytes are a DecodeError."""
    return parse_kv(_utf8(path.read_bytes(), path), str(path))


def decode_named(path: Path | str, decode, *args):
    """decode(*args), where a DecodeError also names `path`."""
    try:
        return decode(*args)
    except DecodeError as exc:
        raise DecodeError(f"{path}: {exc.reason}", exc.position) from None


def kv_field(fields: dict[str, str], key: str, path: Path | str, parse, kind: str):
    """parse(field `key`); a missing field, or one that `parse` refuses with a
    ValueError, is a DecodeError naming the file, the field and `kind`."""
    try:
        return parse(fields[key])
    except KeyError:
        raise DecodeError(f"{path}: missing field {key!r}") from None
    except ValueError:
        raise DecodeError(f"{path}: field {key!r} is not {kind}") from None


def kv_int(fields: dict[str, str], key: str, path: Path | str, default: int | None = None) -> int:
    """Field `key` as a decimal integer, or `default` when it is absent and a
    default is given.  A missing or malformed field is a DecodeError naming
    the file and the field."""
    if default is not None and key not in fields:
        return default
    return kv_field(fields, key, path, int, "a decimal integer")


def kv_unit(fields: dict[str, str], key: str, path: Path | str, q: int) -> int:
    """Field `key` as a decimal integer in [1, q - 1], checked like `kv_int`."""
    value = kv_int(fields, key, path)
    if not 0 < value < q:
        raise DecodeError(f"{path}: field {key!r} is not in [1, q - 1]")
    return value


def kv_hex(fields: dict[str, str], key: str, path: Path | str) -> bytes:
    """Field `key` as hex-encoded bytes, checked like `kv_int`."""
    return kv_field(fields, key, path, bytes.fromhex, "hex")


def kv_text(fields: dict[str, str], key: str, path: Path | str) -> str:
    """Field `key` as text; only its absence is an error."""
    return kv_field(fields, key, path, str, "text")


def write_private(path: Path, text: str) -> None:
    """Write a secret file that is owner-only (0600) before it holds a byte;
    a file that already exists is narrowed to 0600 too."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        os.fchmod(fd, 0o600)
        handle.write(text)


# ---------------------------------------------------------------------------
# curve / system parameter files


def _curve_text(params: CurveParams) -> str:
    """The curve fields shared by params.txt and system.txt."""
    return (
        f"p = {params.p}\n"
        f"q = {params.q}\n"
        f"cofactor = {params.cofactor}\n"
        f"Px = {params.gx}\n"
        f"Py = {params.gy}\n"
        f"security_label = {params.security_label}\n"
    )


def _point_from_fields(
    fields: dict[str, str], name: str, curve: CurveParams, path: Path, what: str
) -> G1Point:
    """The point in fields `<name>x` and `<name>y`, accepted by `point_fault`;
    a refusal is a DecodeError naming the file."""
    point = G1Point(curve.p, kv_int(fields, name + "x", path), kv_int(fields, name + "y", path))
    fault = point_fault(point, curve.q)
    if fault:
        raise DecodeError(f"{path}: {what} {fault}")
    return point


def _curve_from_fields(fields: dict[str, str], path: Path) -> CurveParams:
    params = CurveParams(
        p=kv_int(fields, "p", path),
        q=kv_int(fields, "q", path),
        cofactor=kv_int(fields, "cofactor", path),
        gx=kv_int(fields, "Px", path),
        gy=kv_int(fields, "Py", path),
        security_label=fields.get("security_label", ""),
    )
    try:
        params.validate()
    except InvalidPoint as exc:
        raise DecodeError(f"{path}: {exc}") from None
    return params


def save_curve_params(params: CurveParams, path: Path) -> None:
    path.write_text(_curve_text(params))


def load_curve_params(path: Path) -> CurveParams:
    return _curve_from_fields(read_kv(path), path)


def save_system_params(system: SystemParams, path: Path) -> None:
    path.write_text(
        _curve_text(system.curve)
        + f"Ppubx = {system.p_pub.x}\n"
        f"Ppuby = {system.p_pub.y}\n"
        f"hash_h1 = {H1_NAME}\n"
        f"hash_h2 = {H2_NAME}\n"
    )


def load_system_params(path: Path) -> SystemParams:
    fields = read_kv(path)
    for key, name in (("hash_h1", H1_NAME), ("hash_h2", H2_NAME)):
        if kv_text(fields, key, path) != name:
            raise DecodeError(f"{path}: field {key!r} is not {name!r}")
    curve = _curve_from_fields(fields, path)
    p_pub = _point_from_fields(fields, "Ppub", curve, path, "system public key")
    return SystemParams(curve=curve, p_pub=p_pub)


# ---------------------------------------------------------------------------
# key material


def save_master_secret(msk: MasterSecret, path: Path) -> None:
    write_private(path, f"s = {msk.s}\n")


def load_master_secret(path: Path, q: int) -> MasterSecret:
    """The master secret s in [1, q - 1] of a curve with subgroup order q."""
    return MasterSecret(s=kv_unit(read_kv(path), "s", path, q))


def save_identity_key(key: KeyPair, path: Path) -> None:
    write_private(
        path,
        f"identity = {key.identity.decode('utf-8')}\n"
        f"Sx = {key.secret.x}\n"
        f"Sy = {key.secret.y}\n",
    )


def load_identity_key(path: Path, system: SystemParams) -> KeyPair:
    fields = read_kv(path)
    identity = kv_text(fields, "identity", path).encode("utf-8")
    secret = _point_from_fields(fields, "S", system.curve, path, "secret key point")
    public = hash_to_point(identity, system.curve)
    return KeyPair(identity=identity, public=public, secret=secret)


# ---------------------------------------------------------------------------
# signatures


def signature_to_text(signature: Signature) -> str:
    """Key-value text envelope with hex payloads (CLI interchange form)."""
    return (
        f"u_prime = {signature.u_prime.encode().hex()}\n"
        f"sigma = {signature.sigma.encode().hex()}\n"
    )


def signature_from_text(text: str, params: CurveParams, path: str = "<text>") -> Signature:
    fields = parse_kv(text, path)
    raw = kv_hex(fields, "u_prime", path) + kv_hex(fields, "sigma", path)
    return decode_named(path, decode_signature, raw, params)


def save_signature(signature: Signature, path: Path, text: bool = False) -> None:
    if text:
        path.write_text(signature_to_text(signature))
    else:
        path.write_bytes(encode_signature(signature))


def load_signature(path: Path, system: SystemParams) -> Signature:
    """Binary signatures start with a point tag byte; anything else must be
    the UTF-8 text envelope."""
    data = path.read_bytes()
    if data[:1] in (b"\x00", b"\x04"):
        return decode_named(path, decode_signature, data, system.curve)
    return signature_from_text(_utf8(data, path), system.curve, str(path))


# ---------------------------------------------------------------------------
# workspace layout


class Workspace(NamedTuple):
    """Directory layout for the CLI: public parameters, the master secret,
    per-identity keys, step-wise session directories and the transcript log."""

    root: Path

    @property
    def params_file(self) -> Path:
        return self.root / "params.txt"

    @property
    def system_file(self) -> Path:
        return self.root / "system.txt"

    @property
    def master_file(self) -> Path:
        return self.root / "master.key"

    @property
    def keys_dir(self) -> Path:
        return self.root / "keys"

    @property
    def sessions_dir(self) -> Path:
        return self.root / "sessions"

    @property
    def transcript_log(self) -> Path:
        return self.root / "transcripts.log"

    def key_file(self, identity: str) -> Path:
        return self.keys_dir / f"{identity}.key"

    def session_dir(self, name: str) -> Path:
        return self.sessions_dir / name

    def ensure(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self.keys_dir.mkdir(exist_ok=True)
        self.sessions_dir.mkdir(exist_ok=True)
