"""The seven immutable records: repr, read-only fields, equality, hashing
and a pickle round trip (the benchmark pickles results between
processes)."""

import pickle

import pytest

from bilbiq import (
    AxiomReport,
    AxiomViolation,
    BilinearSpec,
    Crossing,
    CrossingRelation,
    GaussToken,
    parse_gauss,
)

VIOLATION = AxiomViolation(4, "no x: x=a_x, a=x^a", (0,))

# (make, an unequal record of the same type, its repr, a field name)
RECORDS = {
    "GaussToken": (
        lambda: GaussToken("O", 1, 1),
        GaussToken("U", 1, 1),
        "GaussToken(kind='O', crossing_id=1, sign=1)",
        "sign",
    ),
    "Crossing": (
        lambda: Crossing(1, 0, 1, 1, 0),
        Crossing(-1, 0, 1, 1, 0),
        "Crossing(sign=1, under_in=0, under_out=1, over_in=1, over_out=0)",
        "over_out",
    ),
    "CrossingRelation": (
        lambda: CrossingRelation(1, 0, 1, "up"),
        CrossingRelation(1, 0, 1, "low"),
        "CrossingRelation(output=1, x=0, y=1, op='up')",
        "op",
    ),
    "AxiomViolation": (
        lambda: AxiomViolation(4, "no x: x=a_x, a=x^a", (0,)),
        AxiomViolation(4, "no x: x=a_x, a=x^a", (1,)),
        "AxiomViolation(axiom=4, equation='no x: x=a_x, a=x^a', elements=(0,))",
        "elements",
    ),
    "AxiomReport": (
        lambda: AxiomReport((None, None, None, VIOLATION)),
        AxiomReport((None, None, None, None)),
        "AxiomReport(violations=(None, None, None, AxiomViolation(axiom=4,"
        " equation='no x: x=a_x, a=x^a', elements=(0,))))",
        "violations",
    ),
    "BilinearSpec": (
        lambda: BilinearSpec(3, 2, 2, 2, ((0, 0), (0, 0))),
        BilinearSpec(3, 2, 2, 2, ((0, 1), (2, 0))),
        "BilinearSpec(n=3, m=2, alpha=2, beta=2, matrix=((0, 0), (0, 0)))",
        "alpha",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_semantics(name):
    make, other, text, field = RECORDS[name]
    record = make()
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(other, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == make() and hash(record) == hash(make())
    assert record != other
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record and repr(copy) == text


def test_link_diagram():
    # The crossing map is a dict, so a diagram compares but does not hash.
    diagram = parse_gauss("O1+U1+")
    assert repr(diagram) == (
        "LinkDiagram(components=((GaussToken(kind='O', crossing_id=1, sign=1),"
        " GaussToken(kind='U', crossing_id=1, sign=1)),), crossings={1: Crossing(sign=1,"
        " under_in=0, under_out=1, over_in=1, over_out=0)}, n_semiarcs=2)"
    )
    with pytest.raises(AttributeError):
        diagram.n_semiarcs = 3
    assert diagram == parse_gauss("O1+ U1+") != parse_gauss("O1-U1-")
    with pytest.raises(TypeError):
        hash(diagram)
    copy = pickle.loads(pickle.dumps(diagram))
    assert type(copy) is type(diagram) and copy == diagram


def test_bilinear_spec_by_keyword_reduces():
    spec = BilinearSpec(n=3, m=2, alpha=5, beta=-1, matrix=((3, 4), (-1, 0)))
    assert (spec.alpha, spec.beta, spec.matrix) == (2, 2, ((0, 1), (2, 0)))
    assert spec == BilinearSpec(3, 2, 2, 2, ((0, 1), (2, 0)))
