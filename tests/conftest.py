import pytest
from hypothesis import settings

from dvbsig import scheme
from dvbsig.curve import generate_params, params_for_subgroup_order
from dvbsig.rng import SeededRng
from dvbsig.session import decode_transcript

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

# Identities chosen pairwise-distinct under H1 on the toy parameters: with
# only 12 usable subgroup points, name collisions are common ("alice" and
# "bob" collide), so the fixture set was checked explicitly.
TOY_SIGNER = b"alice"
TOY_VERIFIER = b"carol"
TOY_THIRD_PARTY = b"erin"


class TapeRng:
    """Replays a fixed list of byte chunks; each next_bytes(n) call must
    match the queued chunk length exactly."""

    def __init__(self, chunks):
        self.chunks = list(chunks)

    def next_bytes(self, n: int) -> bytes:
        if not self.chunks:
            raise AssertionError("random tape exhausted")
        chunk = self.chunks.pop(0)
        assert len(chunk) == n, f"tape chunk is {len(chunk)} bytes, {n} requested"
        return chunk


def scalar_chunk(value: int, q: int) -> bytes:
    """Encode a scalar the way sample_unit will consume it."""
    return value.to_bytes((q.bit_length() + 7) // 8, "big")


def session_tape(q: int, *triples) -> TapeRng:
    """Tape for one run_local_session: a zero session id, then (r, x, y) per
    attempt."""
    return TapeRng([bytes(16)] + [scalar_chunk(v, q) for triple in triples for v in triple])


def find_tape_triples(system, signer, message):
    """First degenerate and first benign (r, x, y) for `message`, searched by
    whether they force h1 = -r (mod q).  Toy scale only."""
    q = system.curve.q
    degenerate, benign = None, None
    for r in range(1, q):
        for x in range(1, q):
            for y in range(1, q):
                tape = TapeRng([scalar_chunk(r, q), scalar_chunk(x, q), scalar_chunk(y, q)])
                state, commitment = scheme.sign_commit(system, signer, tape)
                _, challenge = scheme.blind(system, message, commitment, signer.public, tape)
                if (state.r + challenge.value) % q == 0:
                    degenerate = degenerate or (r, x, y)
                else:
                    benign = benign or (r, x, y)
                if degenerate and benign:
                    return degenerate, benign
    raise AssertionError("toy search space exhausted")


def read_log(path, params):
    """Every transcript in the log at `path`, decoded record by record (the
    file-backed store keeps only session ids).  The points have not passed
    the order-q check: `point_fault` them before any use."""
    data, records = memoryview(path.read_bytes()), []
    while data:
        record, used = decode_transcript(data, params)
        records.append(record)
        data = data[used:]
    return records


@pytest.fixture(scope="session")
def toy_params():
    return params_for_subgroup_order(13, b"toy")


@pytest.fixture(scope="session")
def toy_system(toy_params):
    return scheme.setup(toy_params, SeededRng("test-0"))


@pytest.fixture(scope="session")
def toy_keys(toy_system):
    system, msk = toy_system
    return {
        identity: scheme.keygen(system, msk, identity)
        for identity in (TOY_SIGNER, TOY_VERIFIER, TOY_THIRD_PARTY)
    }


@pytest.fixture(scope="session")
def mid_params():
    return generate_params(32, b"mid-size")


@pytest.fixture(scope="session")
def mid_system(mid_params):
    return scheme.setup(mid_params, SeededRng("mid-setup"))


@pytest.fixture(scope="session")
def mid_keys(mid_system):
    system, msk = mid_system
    return {
        identity: scheme.keygen(system, msk, identity)
        for identity in (b"signer", b"verifier", b"third-party")
    }
