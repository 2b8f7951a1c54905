import os
import subprocess
import sys
from pathlib import Path

import pytest

from dvbsig import storage
from dvbsig.errors import DecodeError
from dvbsig.rng import SeededRng
from dvbsig.session import run_local_session
from tests.conftest import TOY_SIGNER, TOY_VERIFIER
from tests.test_curve import off_subgroup_point


class TestKeyValueParser:
    def test_basic(self):
        fields = storage.parse_kv("a = 1\n# comment\n\nb = two words\n")
        assert fields == {"a": "1", "b": "two words"}

    def test_malformed_line(self):
        with pytest.raises(DecodeError, match="key = value"):
            storage.parse_kv("just some text")

    def test_repeated_key_rejected(self, tmp_path):
        # the last value used to win: a costs file with `pairing` twice was accepted
        path = tmp_path / "costs.txt"
        path.write_text("pairing = 1\n# again\n pairing = 20\n")
        with pytest.raises(DecodeError, match=r"costs.txt:3: repeated field 'pairing'"):
            storage.read_kv(path)

    def test_read_kv_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "system.txt"
        path.write_bytes(b"p = 311\nq = \xff\n")
        with pytest.raises(DecodeError, match="system.txt: not UTF-8") as info:
            storage.read_kv(path)
        assert info.value.position == 12


class TestDecimal:
    @pytest.mark.parametrize("text", ["0", "7", "-7", "311", str(2**64), str(-(2**64))])
    def test_reads_what_str_writes(self, text):
        assert str(storage.decimal(text)) == text

    @pytest.mark.parametrize(
        "text", ["+5", "1_0", "05", "-0", "\u0665", "00", " 5", "5 ", "", "-", "5.0", "0x5", "1e3"]
    )
    def test_refuses_every_other_spelling(self, text):
        with pytest.raises(ValueError):
            storage.decimal(text)


class TestParamsFiles:
    def test_curve_roundtrip(self, toy_params, tmp_path):
        path = tmp_path / "params.txt"
        storage.save_curve_params(toy_params, path)
        assert storage.load_curve_params(path) == toy_params
        text = path.read_text()
        assert "p = 311" in text and "Px =" in text

    def test_validation_on_load(self, toy_params, tmp_path):
        path = tmp_path / "params.txt"
        storage.save_curve_params(toy_params, path)
        tampered = path.read_text().replace("q = 13", "q = 14")
        path.write_text(tampered)
        with pytest.raises(Exception):
            storage.load_curve_params(path)

    @pytest.mark.parametrize(
        "fields, reason",
        [
            ({"p": 315}, "p = 315 is not prime"),
            ({"p": 313}, "p = 313 is not 3 mod 4"),
            ({"cofactor": 25}, "q * cofactor != p + 1"),
            ({"p": 7, "q": 2, "cofactor": 4}, "q divides the cofactor"),
            ({"q": 26, "cofactor": 12}, "q = 26 is not prime"),
        ],
    )
    def test_structural_checks_name_file(self, toy_params, tmp_path, fields, reason):
        # toy p = 311 = 13 * 24 - 1; 7 + 1 = 2 * 4 with 2 | 4; 26 * 12 = 311 + 1,
        # and 26 * G is the identity for the order-13 generator, so q = 26
        # passes every later check
        path = tmp_path / "params.txt"
        storage.save_curve_params(toy_params._replace(**fields), path)
        with pytest.raises(DecodeError) as info:
            storage.load_curve_params(path)
        assert str(info.value).startswith(f"{path}: {reason}")

    def test_system_roundtrip(self, toy_system, tmp_path):
        system, _ = toy_system
        path = tmp_path / "system.txt"
        storage.save_system_params(system, path)
        assert storage.load_system_params(path) == system

    def test_system_key_outside_subgroup_rejected(self, toy_system, tmp_path):
        system, _ = toy_system
        rogue = off_subgroup_point(system.curve.p, system.curve.q)
        path = tmp_path / "system.txt"
        storage.save_system_params(system, path)
        text = path.read_text()
        text = text.replace(f"Ppubx = {system.p_pub.x}", f"Ppubx = {rogue.x}")
        text = text.replace(f"Ppuby = {system.p_pub.y}", f"Ppuby = {rogue.y}")
        path.write_text(text)
        with pytest.raises(DecodeError, match="subgroup"):
            storage.load_system_params(path)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("hash_h1 = sha256-try-increment", "hash_h1 = md5", "field 'hash_h1' is not"),
            ("hash_h2 = sha256-mod-q-star\n", "", "missing field 'hash_h2'"),
        ],
    )
    def test_system_hash_identifiers_checked(self, toy_system, tmp_path, old, new, message):
        system, _ = toy_system
        path = tmp_path / "system.txt"
        storage.save_system_params(system, path)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(DecodeError, match=f"system.txt: {message}"):
            storage.load_system_params(path)

    def test_missing_field(self, toy_params, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("p = 311\nq = 13\n")
        with pytest.raises(DecodeError, match="missing field"):
            storage.load_curve_params(path)


class TestKeyFiles:
    def test_master_secret_roundtrip(self, toy_system, tmp_path):
        system, msk = toy_system
        path = tmp_path / "master.key"
        storage.save_master_secret(msk, path)
        assert storage.load_master_secret(path, system.curve.q) == msk
        assert (path.stat().st_mode & 0o777) == 0o600

    @pytest.mark.parametrize("s", ["0", "q"])
    def test_master_secret_outside_units_rejected(self, toy_system, tmp_path, s):
        system, _ = toy_system
        q = system.curve.q
        path = tmp_path / "master.key"
        path.write_text(f"s = {q if s == 'q' else s}\n")
        with pytest.raises(DecodeError, match=r"master.key: field 's' is not in \[1, q - 1\]"):
            storage.load_master_secret(path, q)

    def test_identity_key_roundtrip(self, toy_system, toy_keys, tmp_path):
        system, _ = toy_system
        path = tmp_path / "alice.key"
        storage.save_identity_key(toy_keys[TOY_SIGNER], path)
        loaded = storage.load_identity_key(path, system)
        assert loaded == toy_keys[TOY_SIGNER]

    def test_tampered_key_rejected(self, toy_system, toy_keys, tmp_path):
        system, _ = toy_system
        path = tmp_path / "alice.key"
        storage.save_identity_key(toy_keys[TOY_SIGNER], path)
        path.write_text(path.read_text().replace("Sx = ", "Sx = 1 #"))
        with pytest.raises(DecodeError):
            storage.load_identity_key(path, system)

    def test_secret_outside_subgroup_rejected(self, toy_system, toy_keys, tmp_path):
        # on the curve, so only the order-q check can refuse it
        system, _ = toy_system
        key = toy_keys[TOY_SIGNER]
        rogue = off_subgroup_point(system.curve.p, system.curve.q)
        path = tmp_path / "alice.key"
        storage.save_identity_key(key, path)
        text = path.read_text()
        text = text.replace(f"Sx = {key.secret.x}", f"Sx = {rogue.x}")
        text = text.replace(f"Sy = {key.secret.y}", f"Sy = {rogue.y}")
        path.write_text(text)
        with pytest.raises(DecodeError, match=r"alice\.key: .*order-q subgroup"):
            storage.load_identity_key(path, system)


def _add_p_to(path, field, p):
    """Rewrite `field = v` as `field = v + p`: the same residue, out of range."""
    fields = storage.read_kv(path)
    text = path.read_text()
    path.write_text(text.replace(f"{field} = {fields[field]}", f"{field} = {int(fields[field]) + p}"))


class TestCoordinatesBelowP:
    """A coordinate of p or more satisfies the curve equation mod p, but no
    encoding can carry it; each file that holds a point refuses it."""

    def test_params_file(self, toy_params, tmp_path):
        path = tmp_path / "params.txt"
        storage.save_curve_params(toy_params, path)
        _add_p_to(path, "Px", toy_params.p)
        with pytest.raises(DecodeError, match=r"params\.txt: generator has coordinates out of range"):
            storage.load_curve_params(path)

    def test_system_file(self, toy_system, tmp_path):
        system, _ = toy_system
        path = tmp_path / "system.txt"
        storage.save_system_params(system, path)
        _add_p_to(path, "Ppubx", system.curve.p)
        with pytest.raises(DecodeError, match=r"system\.txt: system public key has coordinates"):
            storage.load_system_params(path)

    def test_key_file(self, toy_system, toy_keys, tmp_path):
        system, _ = toy_system
        path = tmp_path / "alice.key"
        storage.save_identity_key(toy_keys[TOY_SIGNER], path)
        _add_p_to(path, "Sx", system.curve.p)
        with pytest.raises(DecodeError, match=r"alice\.key: secret key point has coordinates"):
            storage.load_identity_key(path, system)


@pytest.fixture()
def signature(toy_system, toy_keys):
    system, _ = toy_system
    outcome = run_local_session(
        system,
        toy_keys[TOY_SIGNER],
        b"file me",
        toy_keys[TOY_VERIFIER].public,
        SeededRng("file-sig"),
    )
    return outcome.signature


class TestSignatureFiles:
    def test_binary_roundtrip(self, toy_system, signature, tmp_path):
        system, _ = toy_system
        path = tmp_path / "sig.bin"
        storage.save_signature(signature, path)
        assert storage.load_signature(path, system) == signature

    def test_text_roundtrip(self, toy_system, signature, tmp_path):
        system, _ = toy_system
        path = tmp_path / "sig.txt"
        storage.save_signature(signature, path, text=True)
        assert path.read_text().startswith("u_prime = ")
        assert storage.load_signature(path, system) == signature


class TestTextEnvelope:
    def test_malformed_text_rejected(self, toy_system, tmp_path):
        system, _ = toy_system
        path = tmp_path / "sig.txt"
        for text in ("u_prime: missing equals", "u_prime = zz\nsigma = 00", "sigma = 00\n"):
            path.write_text(text)
            with pytest.raises(DecodeError, match=str(path)):
                storage.load_signature(path, system)

    @pytest.mark.parametrize("data, offset", [(b"\xff\xfe", 0), (b"u_prime = \xff", 10)])
    def test_non_utf8_file_rejected(self, toy_system, tmp_path, data, offset):
        system, _ = toy_system
        path = tmp_path / "sig.txt"
        path.write_bytes(data)
        with pytest.raises(DecodeError, match="sig.txt: not UTF-8") as info:
            storage.load_signature(path, system)
        assert info.value.position == offset


class TestWorkspace:
    def test_layout(self, tmp_path):
        ws = storage.Workspace(tmp_path / "ws")
        ws.ensure()
        assert ws.keys_dir.is_dir() and ws.sessions_dir.is_dir()
        assert ws.master_file != ws.params_file
        assert ws.key_file("alice").name == "alice.key"
        assert ws.session_dir("s1").parent == ws.sessions_dir


# values that would not read back from `key = value`: a line break,
# surrounding whitespace, and a lone surrogate (a non-UTF-8 byte in argv)
UNREADABLE = ["x\ny = 1", "x\r", " x", "x ", "\udcff"]


class TestKeyValueWriter:
    @pytest.mark.parametrize("value", UNREADABLE)
    def test_refused_before_the_file_is_opened(self, tmp_path, value):
        old, new = tmp_path / "old.txt", tmp_path / "new.txt"
        old.write_bytes(b"a = 1\n")
        for path in (old, new):
            with pytest.raises(ValueError, match="field 'b' .* would not read back"):
                storage.write_kv(path, {"a": 2, "b": value})
        assert old.read_bytes() == b"a = 1\n" and not new.exists()

    @pytest.mark.parametrize("value", UNREADABLE)
    @pytest.mark.parametrize("writer", ["params", "system", "identity key"])
    def test_refused_by_each_text_writer(self, toy_system, toy_keys, tmp_path, writer, value):
        # a lone surrogate cannot reach a key's identity, which is bytes: its
        # encoding is not UTF-8, so decoding it is the ValueError there
        system, _ = toy_system
        curve = system.curve._replace(security_label=value)
        key = toy_keys[TOY_SIGNER]._replace(identity=value.encode("utf-8", "surrogatepass"))
        path = tmp_path / "file.txt"
        save = {
            "params": lambda: storage.save_curve_params(curve, path),
            "system": lambda: storage.save_system_params(system._replace(curve=curve), path),
            "identity key": lambda: storage.save_identity_key(key, path),
        }[writer]
        with pytest.raises(ValueError):
            save()
        assert not path.exists()

    def test_utf8_whatever_the_locale(self, tmp_path):
        # under the C locale with UTF-8 mode off, text files default to ASCII
        path = tmp_path / "params.txt"
        script = (
            "import sys; from pathlib import Path; from dvbsig import storage;"
            " from dvbsig.curve import params_for_subgroup_order;"
            " params = params_for_subgroup_order(13, b'toy')._replace(security_label='caf\\u00e9');"
            " storage.save_curve_params(params, Path(sys.argv[1]))"
        )
        src = Path(storage.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C"}
        env.pop("PYTHONUTF8", None)
        subprocess.run([sys.executable, "-X", "utf8=0", "-c", script, path], env=env, check=True)
        assert "security_label = caf\u00e9\n".encode("utf-8") in path.read_bytes()
        assert storage.load_curve_params(path).security_label == "caf\u00e9"

    def test_secret_files_are_narrowed_and_exclusive_files_fresh(self, tmp_path):
        path = tmp_path / "secret.key"
        path.write_bytes(b"old")
        path.chmod(0o644)
        storage.write_file(path, b"new", secret=True)
        assert path.read_bytes() == b"new" and (path.stat().st_mode & 0o777) == 0o600
        with pytest.raises(FileExistsError):
            storage.write_file(path, b"other", exclusive=True)
        assert path.read_bytes() == b"new"
