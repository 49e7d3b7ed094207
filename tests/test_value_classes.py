"""The library's value classes compare, hash and print as the frozen
dataclasses they replace did.  Fields are compared only against an instance
of exactly the same class, the hash is the hash of the field tuple (so set
and dict iteration order stays the same), assignment raises AttributeError,
and every repr that a report, message or stdout line can show is unchanged."""

from fractions import Fraction

import pytest

from lambdaforest.bruhat import QpElement
from lambdaforest.devissage import (
    CyclicBySum,
    FreeAbelian,
    FreeGroup,
    GGEdge,
    GGVertex,
    MaxAbelianDeclaration,
    Preset,
    SurfaceWithBoundary,
)
from lambdaforest.gluing import DualPoint
from lambdaforest.groups import FinitePresentation, FreeAbelianOracle, FreeGroupOracle, parse_word
from lambdaforest.isometry import Elliptic, Hyperbolic, Inconclusive, OutOfWindow
from lambdaforest.lambdatree import EdgeInterior, Leg, Vertex
from lambdaforest.markedgroups import MarkedGroup, RelationBall
from lambdaforest.ordgroup import LexValue

# class, field values, and the repr the dataclass printed where one can reach
# output (None: the class keeps no repr)
VALUES = {
    "LexValue": (LexValue, ((Fraction(1), Fraction(-1, 2)),), "(1, -1/2)"),
    "Vertex": (Vertex, ("a",), "Vertex('a')"),
    "Vertex-tuple-id": (Vertex, (("x", 1),), "Vertex(('x', 1))"),
    "EdgeInterior": (EdgeInterior, ("a", "b", LexValue([Fraction(1, 3), 2])),
                     "EdgeInterior('a'-'b' @ (1/3, 2))"),
    "Leg": (Leg, ("a", "b", LexValue([0]), LexValue([1])), None),
    "DualPoint": (DualPoint, ("A", Vertex("a0")), "DualPoint(vertex='A', point=Vertex('a0'))"),
    "DualPoint-interior": (DualPoint, ("B", EdgeInterior("b0", "b1", LexValue(["1/2"]))),
                           "DualPoint(vertex='B', point=EdgeInterior('b0'-'b1' @ (1/2)))"),
    "QpElement": (QpElement, (Fraction(2, 9), 3), "QpElement(value=Fraction(2, 9), p=3)"),
    "FreeGroupOracle": (FreeGroupOracle, (("p", "q"),), None),
    "FreeAbelianOracle": (FreeAbelianOracle, (("p", "q"),), None),
    "FreeGroup": (FreeGroup, (("x", "y"),), None),
    "FreeAbelian": (FreeAbelian, (("x", "y"),), None),
    "CyclicBySum": (CyclicBySum, ("n", ("x",)), None),
    "SurfaceWithBoundary": (SurfaceWithBoundary, (("a", "b"), (parse_word("aba'b'"),), None),
                            None),
    "Preset": (Preset, (FreeGroupOracle(("p",)), "cert", 1), None),
    "GGVertex": (GGVertex, ("v", "abelian", CyclicBySum("n", ()), None), None),
    "GGEdge": (GGEdge, ("u", "v", parse_word("n"), parse_word("xy'")), None),
    "MarkedGroup": (MarkedGroup, (FreeGroupOracle(("p", "q")), (parse_word("p"), parse_word("pq")),
                                  ("a", "b")), None),
}

# frozen classes that nothing compares or hashes
RECORDS = {
    "FinitePresentation": (FinitePresentation, (("a",), ())),
    "RelationBall": (RelationBall, (1, ())),
    "MaxAbelianDeclaration": (MaxAbelianDeclaration, ((("A", 2),),)),
    "OutOfWindow": (OutOfWindow, (parse_word("a"),)),
    "Elliptic": (Elliptic, (Vertex("a"),)),
    "Hyperbolic": (Hyperbolic, (LexValue([1]),)),
    "Inconclusive": (Inconclusive, ("midpoint leaves the window",)),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_class_contract(name):
    cls, fields, text = VALUES[name]
    x, y = cls(*fields), cls(*fields)
    assert x == y and not x != y
    assert hash(x) == hash(y) == hash(fields)
    twin = type("Twin", (cls,), {"__slots__": ()})(*fields)
    assert x != twin and twin != x and x != fields
    first = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(x, first, fields[0])
    if text is not None:
        assert repr(x) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_frozen_record_rejects_assignment(name):
    cls, fields = RECORDS[name]
    x = cls(*fields)
    assert tuple(getattr(x, f) for f in cls.__slots__) == fields
    first = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(x, first, fields[0])
