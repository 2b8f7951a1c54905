"""On-disk workspace: parameter, system, master-key, identity-key and
signature files, plus the session directory layout used by the step-wise CLI.

All public artifacts are UTF-8 key-value text (`write_kv`) with decimal
integers (signatures may also be binary, or use a hex text envelope); secrets
are the same format in owner-only files (no encryption at rest, by design:
this is a research artifact).  `write_file` creates every workspace file.
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
    """Parse `key = value` lines, each key once; blank lines and #-comments
    are skipped."""
    fields: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DecodeError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        if key in fields:
            raise DecodeError(f"{path}:{lineno}: repeated field {key!r}")
        fields[key] = value.strip()
    return fields


def _utf8(data: bytes, path: Path) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"{path}: not UTF-8 text", exc.start) from None


def read_kv(path: Path, name: Path | None = None) -> dict[str, str]:
    """Read and parse a key-value file; non-UTF-8 bytes are a DecodeError.
    Errors name the file as `name`, by default its path."""
    name = name or path
    return parse_kv(_utf8(path.read_bytes(), name), str(name))


def reads_back(key: str, value: str) -> bool:
    """Whether the line `key = value` is UTF-8 text that parses back to
    exactly that one field: a line break, surrounding whitespace or a
    character UTF-8 cannot encode (a lone surrogate) in `value` would not."""
    line = f"{key} = {value}\n"
    try:
        line.encode("utf-8")
        return parse_kv(line) == {key: value}
    except (UnicodeEncodeError, DecodeError):
        return False


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


def kv_int(fields: dict[str, str], key: str, path: Path | str) -> int:
    """Field `key` as a decimal integer.  A missing or malformed field is a
    DecodeError naming the file and the field."""
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


def write_file(path: Path, data: bytes, secret: bool = False, exclusive: bool = False) -> None:
    """Create (or truncate) the workspace file at `path` and write `data`.  A
    secret file is owner-only (0600) before it holds a byte, and one that
    already exists is narrowed to 0600 too.  An exclusive file must not exist
    yet: FileExistsError, so of two racing writers only one writes."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | (os.O_EXCL if exclusive else 0)
    fd = os.open(path, flags, 0o600 if secret else 0o666)
    with open(fd, "wb") as handle:
        if secret:
            os.fchmod(fd, 0o600)
        handle.write(data)


def write_kv(path: Path, fields: dict[str, object], secret: bool = False) -> None:
    """Write `fields` as UTF-8 `key = value` lines through `write_file`.  A
    field that would not read back unchanged (`reads_back`) is a ValueError,
    raised before the file is opened."""
    lines = []
    for key, value in fields.items():
        if not reads_back(key, str(value)):
            raise ValueError(f"{path}: field {key!r} = {value!r} would not read back")
        lines.append(f"{key} = {value}\n")
    write_file(path, "".join(lines).encode("utf-8"), secret)


# ---------------------------------------------------------------------------
# curve / system parameter files


def _curve_fields(params: CurveParams) -> dict[str, object]:
    """The curve fields shared by params.txt and system.txt."""
    return {
        "p": params.p,
        "q": params.q,
        "cofactor": params.cofactor,
        "Px": params.gx,
        "Py": params.gy,
        "security_label": params.security_label,
    }


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
    write_kv(path, _curve_fields(params))


def load_curve_params(path: Path) -> CurveParams:
    return _curve_from_fields(read_kv(path), path)


def save_system_params(system: SystemParams, path: Path) -> None:
    public = {"Ppubx": system.p_pub.x, "Ppuby": system.p_pub.y}
    write_kv(path, _curve_fields(system.curve) | public | {"hash_h1": H1_NAME, "hash_h2": H2_NAME})


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
    write_kv(path, {"s": msk.s}, secret=True)


def load_master_secret(path: Path, q: int) -> MasterSecret:
    """The master secret s in [1, q - 1] of a curve with subgroup order q."""
    return MasterSecret(s=kv_unit(read_kv(path), "s", path, q))


def save_identity_key(key: KeyPair, path: Path) -> None:
    fields = {"identity": key.identity.decode("utf-8"), "Sx": key.secret.x, "Sy": key.secret.y}
    write_kv(path, fields, secret=True)


def load_identity_key(path: Path, system: SystemParams) -> KeyPair:
    fields = read_kv(path)
    identity = kv_text(fields, "identity", path).encode("utf-8")
    secret = _point_from_fields(fields, "S", system.curve, path, "secret key point")
    public = hash_to_point(identity, system.curve)
    return KeyPair(identity=identity, public=public, secret=secret)


# ---------------------------------------------------------------------------
# signatures


def signature_from_text(text: str, params: CurveParams, path: str = "<text>") -> Signature:
    fields = parse_kv(text, path)
    raw = kv_hex(fields, "u_prime", path) + kv_hex(fields, "sigma", path)
    return decode_named(path, decode_signature, raw, params)


def save_signature(signature: Signature, path: Path, text: bool = False) -> None:
    """Binary `encode_signature`, or the key-value text envelope with hex
    payloads (CLI interchange form)."""
    if text:
        u_prime, sigma = signature.u_prime.encode().hex(), signature.sigma.encode().hex()
        write_kv(path, {"u_prime": u_prime, "sigma": sigma})
    else:
        write_file(path, encode_signature(signature))


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
