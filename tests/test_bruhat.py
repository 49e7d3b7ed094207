from fractions import Fraction

import pytest

from lambdaforest.bruhat import (
    BiRatFunc,
    FieldError,
    Laurent1,
    Laurent2,
    Mat2,
    MatrixLengthOracle,
    QpElement,
    RatFunc,
    bt_translation_length,
    certify_free_bt,
    matrix_group_from_json,
    matrix_group_to_json,
    value_group_rank,
)
from lambdaforest.groups import parse_word
from lambdaforest.presets import _schottky_generators, unipotent_fail, z2_diagonal

from conftest import L


def Q2(x):
    return QpElement(Fraction(x), 2)


# valuations -----------------------------------------------------------------------


def test_padic_valuation():
    assert Q2(12).valuation() == L(2)
    assert Q2(Fraction(3, 4)).valuation() == L(-2)
    assert Q2(1).valuation() == L(0)
    assert Q2(0).valuation() is None


def test_laurent_valuation():
    t = RatFunc.t
    assert t(2).valuation() == L(2)
    assert (t(1) + t(-1)).valuation() == L(-1)
    assert RatFunc.const(0).valuation() is None
    assert (t(3) * t(-3)).valuation() == L(0)


def test_ratfunc_arithmetic_is_exact():
    t = RatFunc.t(1)
    one = RatFunc.const(1)
    x = (t + one) * (t - one)
    assert x == t * t - one
    assert (x * x.inverse()) == one
    y = one + t.inverse()  # (t + 1)/t
    assert y.valuation() == L(-1)
    with pytest.raises(FieldError):
        RatFunc.const(0).inverse()


def test_rank2_valuation_lex():
    # valuation of t^a s^b is (a, b): t dominates s
    m = BiRatFunc.monomial
    assert m(1, 0).valuation() == L(1, 0)
    assert m(0, 1).valuation() == L(0, 1)
    assert (m(1, 0) + m(0, 5)).valuation() == L(0, 5)
    assert (m(2, -1) + m(2, 3)).valuation() == L(2, -1)
    assert (m(0, 1) * m(1, -1)).valuation() == L(1, 0)


def test_biratfunc_equality_cross_multiplies():
    m = BiRatFunc.monomial
    one = BiRatFunc.const(1)
    x = m(1, 1) * (m(1, 0) + m(0, 1)).inverse()
    y = (m(1, 0).inverse() + m(0, 1).inverse()).inverse()
    assert x == y  # ts/(t+s) in two spellings
    assert x * x.inverse() == one


# translation length ----------------------------------------------------------------


def test_translation_length_diagonal():
    zero = RatFunc.const(0)
    a = Mat2(RatFunc.t(1), zero, zero, RatFunc.t(-1))
    assert bt_translation_length(a) == L(2)
    a3 = Mat2(RatFunc.t(3), zero, zero, RatFunc.t(-3))
    assert bt_translation_length(a3) == L(6)


def test_translation_length_elliptic():
    one = RatFunc.const(1)
    zero = RatFunc.const(0)
    c = Mat2(one, one, one, RatFunc.const(2))
    assert bt_translation_length(c) == L(0)
    u = Mat2(one, one, zero, one)  # unipotent: trace 2, still length 0
    assert bt_translation_length(u) == L(0)


def test_translation_length_padic():
    p = Mat2(Q2(2), Q2(0), Q2(0), Q2(Fraction(1, 2)))
    assert bt_translation_length(p) == L(2)
    e = Mat2(Q2(0), Q2(1), Q2(-1), Q2(0))  # trace 0: infinite valuation
    assert bt_translation_length(e) == L(0)


def test_det_check():
    with pytest.raises(FieldError):
        Mat2(Q2(2), Q2(0), Q2(0), Q2(2))


def test_rank2_diagonal_length_law():
    """diag(s^a t^b, s^-a t^-b) translates by (2|b|, 2a sign(b)), or (0, 2|a|)
    when b = 0."""
    zero = BiRatFunc.const(0)
    for a in range(-3, 4):
        for b in range(-3, 4):
            if a == 0 and b == 0:
                continue
            g = Mat2(BiRatFunc.monomial(b, a), zero, zero, BiRatFunc.monomial(-b, -a))
            got = bt_translation_length(g)
            if b != 0:
                want = L(2 * abs(b), 2 * a * (1 if b > 0 else -1))
            else:
                want = L(0, 2 * abs(a))
            assert got == want, (a, b)


def test_z2_preset_lengths():
    gens = matrix_group_from_json(z2_diagonal())
    oracle = MatrixLengthOracle(gens)
    assert oracle.length(parse_word("u")) == L(0, 2)
    assert oracle.length(parse_word("v")) == L(2, 0)
    assert oracle.length(parse_word("uv")) == L(2, 2)
    assert oracle.length(parse_word("uuuv'")) == L(2, -6)
    # commuting generators: uv and vu are the same element
    assert oracle.is_trivial(parse_word("uvu'v'"))
    assert value_group_rank(oracle.trace_valuations) == 2


# certification ---------------------------------------------------------------------


def test_schottky_certifies_small_ball():
    cert = certify_free_bt(_schottky_generators(1), 3)
    assert cert.status == "free-on-ball"
    assert cert.relations == []
    assert cert.min_positive_length == L(2)
    assert cert.extra["value_group_rank"] == 1


def test_unipotent_counterexample():
    gens = matrix_group_from_json(unipotent_fail())
    cert = certify_free_bt(gens, 1)
    assert cert.status == "counterexample"
    assert len(parse_word(cert.counterexample)) == 1


def test_commuting_diagonals_fail_freeness():
    gens = matrix_group_from_json(z2_diagonal())
    cert = certify_free_bt(gens, 4)
    # the commutator uvu'v' is trivial, so it lands in relations, and no
    # nontrivial word has zero length: every length is positive on Z^2
    assert cert.status == "free-on-ball"
    assert any(len(parse_word(r)) == 4 for r in cert.relations)
    assert cert.extra["value_group_rank"] == 2


def test_schottky_conjugate_has_same_lengths():
    gens = _schottky_generators(1)
    oracle = MatrixLengthOracle(gens)
    assert oracle.length(parse_word("a")) == oracle.length(parse_word("b")) == L(2)
    assert oracle.length(parse_word("ab")) == L(4)


# serialization ---------------------------------------------------------------------


def test_matrix_json_roundtrip_qt():
    gens = _schottky_generators(1)
    doc = matrix_group_to_json("Qt", gens)
    back = matrix_group_from_json(doc)
    assert back == gens


def test_matrix_json_roundtrip_qst():
    doc = z2_diagonal()
    back = matrix_group_from_json(doc)
    assert matrix_group_from_json(matrix_group_to_json("Qst", back)) == back


def test_matrix_json_roundtrip_qp():
    gens = {"g": Mat2(Q2(2), Q2(1), Q2(0), Q2(Fraction(1, 2)))}
    doc = matrix_group_to_json("Qp", gens, p=2)
    assert matrix_group_from_json(doc) == gens


def test_matrix_json_rejects_unknown_field():
    with pytest.raises(FieldError):
        matrix_group_from_json(
            {"field": "Qx", "generators": {"g": [["1", "0"], ["0", "1"]]}}
        )
    with pytest.raises(FieldError):
        matrix_group_from_json({"field": "Qp", "generators": {}})  # missing p


# polynomial internals --------------------------------------------------------------


def test_laurent_ord_and_degree():
    x = Laurent1({-2: Fraction(1), 3: Fraction(5)})
    assert x.ord() == -2 and x.degree() == 3
    assert Laurent1({}).ord() is None


def test_laurent2_ord_is_lex():
    x = Laurent2({(1, 0): Fraction(1), (0, 7): Fraction(1)})
    assert x.ord() == (0, 7)
