"""The library's classes keep the frozen fields and the repr of the
dataclasses they replace: assignment and deletion raise AttributeError, and
every repr that a report, message or stdout line can show is unchanged.  The
verdict records that the checks return are frozen records too.  The value
classes that the code compares compare by fields, only against an instance of
exactly the same class, and hash as the field tuple (so set and dict
iteration order stays the same): they take both from the frozen `Value`
base.  A class that nothing compares keeps object's identity equality and
hash."""

from fractions import Fraction

import pytest

from lambdaforest.bruhat import QpElement
from lambdaforest.cover import SkeletonGraph, TransverseReport
from lambdaforest.devissage import (
    AcylReport,
    BettiReport,
    ClauseVerdict,
    CyclicBySum,
    GGEdge,
    GGVertex,
    MaxAbelianDeclaration,
    SplittingCase,
    StructureReport,
    SurfaceWithBoundary,
)
from lambdaforest.frozen import Frozen, Value
from lambdaforest.gluing import DualPoint, EquivClass, FreeCriterionReport, GluedEdge, SegmentIso
from lambdaforest.groups import FinitePresentation, FreeAbelianOracle, FreeGroupOracle, parse_word
from lambdaforest.isometry import Certificate, Elliptic, Hyperbolic, Inconclusive, OutOfWindow
from lambdaforest.lambdatree import EdgeInterior, MetricTree, ValidationResult, Vertex
from lambdaforest.markedgroups import MarkedGroup, RelationBall
from lambdaforest.ordgroup import LexValue

# a one-edge tree, whose segment a GluedEdge glues to itself
SEGMENT = MetricTree(["a", "b"], [("a", "b", LexValue([1]))], 1)
ENDS = (Vertex("a"), Vertex("b"))

# class, field values, the repr a report, message or stdout line can show
# (None: the class keeps no repr), and its equality: "hash" compares and
# hashes by fields, as the Value base does, None is object's identity, since
# nothing compares the class
CLASSES = {
    "LexValue": (LexValue, ((Fraction(1), Fraction(-1, 2)),), "(1, -1/2)", "hash"),
    "Vertex": (Vertex, ("a",), "Vertex('a')", "hash"),
    "Vertex-tuple-id": (Vertex, (("x", 1),), "Vertex(('x', 1))", "hash"),
    "EdgeInterior": (EdgeInterior, ("a", "b", LexValue([Fraction(1, 3), 2])),
                     "EdgeInterior('a'-'b' @ (1/3, 2))", "hash"),
    "QpElement": (QpElement, (Fraction(2, 9), 3), "QpElement(value=Fraction(2, 9), p=3)", "hash"),
    "DualPoint": (DualPoint, ("A", Vertex("a0")), "DualPoint(vertex='A', point=Vertex('a0'))",
                  None),
    "DualPoint-interior": (DualPoint, ("B", EdgeInterior("b0", "b1", LexValue(["1/2"]))),
                           "DualPoint(vertex='B', point=EdgeInterior('b0'-'b1' @ (1/2)))", None),
    "FreeGroupOracle": (FreeGroupOracle, (("p", "q"),), None, None),
    "FreeAbelianOracle": (FreeAbelianOracle, (("p", "q"),), None, None),
    "CyclicBySum": (CyclicBySum, ("n", ("x",)), None, None),
    "SurfaceWithBoundary": (SurfaceWithBoundary, (("a", "b"), (parse_word("aba'b'"),), None),
                            None, None),
    "GGVertex": (GGVertex, ("v", "abelian", CyclicBySum("n", ()), None), None, None),
    "GGEdge": (GGEdge, ("u", "v", parse_word("n"), parse_word("xy'")), None, None),
    "MarkedGroup": (MarkedGroup, (FreeGroupOracle(("p", "q")), (parse_word("p"), parse_word("pq")),
                                  ("a", "b")), None, None),
    "FinitePresentation": (FinitePresentation, (("a",), ()), None, None),
    "RelationBall": (RelationBall, (1, ()), None, None),
    "MaxAbelianDeclaration": (MaxAbelianDeclaration, ((("A", 2),),), None, None),
    "OutOfWindow": (OutOfWindow, (parse_word("a"),), None, None),
    "Elliptic": (Elliptic, (Vertex("a"),), None, None),
    "Hyperbolic": (Hyperbolic, (LexValue([1]),), None, None),
    "Inconclusive": (Inconclusive, ("midpoint leaves the window",), None, None),
    # the verdict records: Certificate is given its first five fields and
    # derives status and extra
    "ValidationResult": (ValidationResult, (False, "asymmetry", ("a", "b")), None, None),
    "TransverseReport": (TransverseReport, (False, "coverage-gap", (0,)), None, None),
    "SkeletonGraph": (SkeletonGraph, ([0, 1], [Vertex("b")], [(("pt", 0), ("mem", 0))], True,
                                      True, []), None, None),
    "GluedEdge": (GluedEdge, ("A", "B", SegmentIso(SEGMENT, ENDS, SEGMENT, ENDS)), None, None),
    "EquivClass": (EquivClass, ([("A", Vertex("a"))], True, None), None, None),
    "FreeCriterionReport": (FreeCriterionReport, ("Inconclusive", "no sample point given"),
                            None, None),
    "ClauseVerdict": (ClauseVerdict, ("Pass", "connected"), None, None),
    "StructureReport": (StructureReport, ({"graph": ClauseVerdict("Pass", "connected")}, []),
                        None, None),
    "AcylReport": (AcylReport, ("Pass", [], None), None, None),
    "BettiReport": (BettiReport, (2, {"A": 2}, 0, 2, 0, 1, 0, True), None, None),
    "SplittingCase": (SplittingCase, ("recurse", "single infinitesimal piece"), None, None),
    "Certificate": (Certificate, (1, 4, [], LexValue([1]), None), None, None),
}


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_value_class_contract(name):
    cls, fields, _text, equality = CLASSES[name]
    x, y = cls(*fields), cls(*fields)
    if equality is None:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
        assert x == x and x != y
        return
    assert issubclass(cls, Value) and not {"__eq__", "__hash__"} & vars(cls).keys()
    assert x == y and not x != y
    assert hash(x) == hash(y) == hash(fields)
    twin = type("Twin", (cls,), {"__slots__": ()})(*fields)
    assert x != twin and twin != x and x != fields


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_frozen_record_rejects_assignment(name):
    cls, fields, text, _equality = CLASSES[name]
    x = cls(*fields)
    # the constructor's fields lead the slots; a slot after them is derived
    # (MarkedGroup's letter images)
    assert tuple(getattr(x, f) for f in cls.__slots__[:len(fields)]) == fields
    first = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(x, first, fields[0])
    if text is not None:
        assert repr(x) == text


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_frozen_record_rejects_deletion(name):
    cls, fields, _text, _equality = CLASSES[name]
    x = cls(*fields)
    before = tuple(getattr(x, f) for f in cls._fields), repr(x)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{cls._fields[0]}'$"):
        delattr(x, cls._fields[0])
    assert (tuple(getattr(x, f) for f in cls._fields), repr(x)) == before


# every class above is a Frozen record: the base alone refuses assignment, and
# its constructor sets one value per field, in order
@pytest.mark.parametrize("name", sorted(CLASSES))
def test_record_derives_from_the_frozen_base(name):
    cls = CLASSES[name][0]
    assert issubclass(cls, Frozen) and "__setattr__" not in vars(cls)
    assert cls.__setattr__ is Frozen.__setattr__


@pytest.mark.parametrize("values", [(), ("a", "b")], ids=["too-few", "too-many"])
def test_a_wrong_number_of_fields_raises(values):
    with pytest.raises(ValueError, match="^zip"):
        Vertex(*values)


def test_fields_run_from_the_base_class_down():
    assert FreeAbelianOracle._fields == ("letters",)
    assert CyclicBySum._fields == FreeAbelianOracle._fields + ("n_letter", "extra_letters")
    x = CyclicBySum("n", ("x", "y"))
    assert tuple(getattr(x, f) for f in CyclicBySum._fields) == (("n", "x", "y"), "n", ("x", "y"))
