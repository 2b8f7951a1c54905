"""Value semantics of the immutable types: fields cannot be assigned, and
equal values compare and hash equal.  That a decoded point's first product
reuses the doubling chain of its order-q check is tested in test_scheme
(TestUnblind) and test_curve (TestPrecompute)."""

import pytest

from dvbsig import analysis, curve, scheme, session, storage
from dvbsig.algebra import Fp2Element
from dvbsig.curve import G1Point, in_subgroup
from tests.test_curve import neg

P, Q = 311, 13

RECORDS = [
    curve.CurveParams,
    curve.GTElement,
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
    analysis.OpCosts,
    analysis.ReductionBound,
    analysis.OperationCounts,
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

