"""Value semantics of the immutable types: fields cannot be assigned, and
equal values compare and hash equal.  G1 points, F_p2 elements and pairing
values share one base, `algebra.Value`; the records are NamedTuples.  That
a decoded point's first product reuses the doubling chain of its order-q
check is tested in test_scheme (TestUnblind) and test_curve
(TestPrecompute)."""

import copy
import pickle

import pytest

from dvbsig import analysis, curve, scheme, session, storage
from dvbsig.algebra import Fp2Element
from dvbsig.curve import G1Point, in_subgroup
from tests.test_curve import neg

P, Q = 311, 13

RECORDS = [
    curve.CurveParams,
    scheme.SystemParams,
    scheme.MasterSecret,
    scheme.KeyPair,
    scheme.Commitment,
    scheme.SignerState,
    scheme.BlindedChallenge,
    scheme.BlindState,
    scheme.Response,
    scheme.Signature,
    session.Transcript,
    session.SessionOutcome,
    session.SignerAwaitingChallenge,
    session.UserAwaitingResponse,
    storage.Workspace,
    analysis.QueryBudget,
    analysis.Ops,
    analysis.ReductionBound,
    analysis.PerfEntry,
]


def assert_fields_refuse_assignment(value, names):
    before = [getattr(value, name) for name in names]
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert [getattr(value, name) for name in names] == before


def test_fp2_element_reduces_and_is_a_value():
    x = Fp2Element(-1, P + 2, P)
    assert (x.a, x.b, x.p) == (P - 1, 2, P)
    same = Fp2Element(P - 1, 2, P)
    assert x == same and hash(x) == hash(same) and len({x, same}) == 1
    assert x != Fp2Element(P - 1, 3, P) and x != (P - 1, 2, P)
    assert repr(x) == f"Fp2Element(a={P - 1}, b=2, p={P})"
    assert_fields_refuse_assignment(x, ("a", "b", "p"))
    with pytest.raises(AttributeError):
        x.other = 1


def test_point_is_a_value(toy_params):
    g = toy_params.generator
    same = G1Point(P, toy_params.gx, toy_params.gy)
    assert g == same and hash(g) == hash(same) and g is not same
    assert g != neg(g) and g != (P, g.x, g.y)
    assert len({g, same, G1Point.identity(P), G1Point.identity(P)}) == 2
    assert repr(g) == f"G1Point(p={P}, x={g.x}, y={g.y})"
    assert_fields_refuse_assignment(g, ("p", "x", "y"))
    # an order-q check leaves nothing on the point, so equality and hash hold
    assert in_subgroup(g, Q) and g == same and hash(g) == hash(same)


def test_gt_element_is_a_value(toy_params):
    g = toy_params.generator
    e = curve.tate_pairing(g, g, toy_params)
    same = curve.GTElement(Fp2Element(e.value.a, e.value.b, P))
    assert e == same and hash(e) == hash(same) and e is not same
    assert e != e * e and e != (e.value,) and e != e.value
    assert len({e, same, e * e}) == 2
    assert repr(e) == f"GTElement(value=Fp2Element(a={e.value.a}, b={e.value.b}, p={P}))"
    assert_fields_refuse_assignment(e, ("value",))
    with pytest.raises(AttributeError):
        e.other = 1


def toy_values(params):
    g = params.generator
    return [g, Fp2Element(-1, P + 2, P), curve.tate_pairing(g, g, params)]


@pytest.mark.parametrize("index", range(3), ids=["G1Point", "Fp2Element", "GTElement"])
def test_a_value_equals_only_its_own_class(toy_params, index):
    value = toy_values(toy_params)[index]
    fields = tuple(getattr(value, name) for name in type(value).__slots__)
    assert value != fields and fields != value

    class Twin(type(value)):
        __slots__ = ()

    # each constructor takes the fields in slot order
    assert type(value)(*fields) == value
    assert value != Twin(*fields) and Twin(*fields) != value


@pytest.mark.parametrize("index", range(3), ids=["G1Point", "Fp2Element", "GTElement"])
@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_value_copies_and_pickles(toy_params, index, duplicate):
    # the default reduction restored the slots by setattr, which a value refuses
    value = toy_values(toy_params)[index]
    twin = duplicate(value)
    assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
    assert_fields_refuse_assignment(twin, type(value).__slots__)


def test_repr_and_hash_are_pinned(toy_params):
    # the same text and hashes as when each type wrote its own methods; a
    # tuple of ints hashes alike in every 64-bit CPython process (3.11, 3.13)
    pinned = [
        ("G1Point(p=311, x=254, y=181)", -4202262534942407334),
        ("Fp2Element(a=310, b=2, p=311)", -6499095396739200382),
        ("GTElement(value=Fp2Element(a=24, b=228, p=311))", 2892317949900789376),
    ]
    assert [(repr(v), hash(v)) for v in toy_values(toy_params)] == pinned


def test_gt_element_has_no_tuple_arithmetic():
    one = curve.GTElement(Fp2Element.one(P))
    assert one * one == one and one**5 == one
    for misuse in (lambda: 2 * one, lambda: one + one, lambda: one + (1,)):
        with pytest.raises(TypeError):
            misuse()


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_a_value(record):
    values = range(len(record._fields))
    value, same = record(*values), record(*values)
    assert value == same and hash(value) == hash(same)
    changed = value._replace(**{record._fields[0]: -1})
    assert changed != value and getattr(value, record._fields[0]) == 0
    assert_fields_refuse_assignment(value, record._fields)

