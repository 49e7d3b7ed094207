from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
from lambdaforest.groups import ball_words, parse_word
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


# the ring oracle against the field path ---------------------------------------------


def field_products(gens, radius):
    """The field product of every word of the ball, from field Mat2
    products; the identity, g g^-1, is the empty word's."""
    step = {}
    for label, g in gens.items():
        step[(label, 1)], step[(label, -1)] = g, g.inverse()
    g = next(iter(gens.values()))
    prods = {(): g * g.inverse()}
    for w in ball_words(sorted(gens), radius):
        prods[w] = prods[w[:-1]] * step[w[-1]]
    return prods


def assert_oracle_matches_field(gens, radius=5):
    oracle = MatrixLengthOracle(gens)
    prods = field_products(gens, radius)
    identity = prods[()]
    for w, m in prods.items():
        assert oracle.length(w) == bt_translation_length(m), w
        assert oracle.is_trivial(w) == (m == identity), w
        assert oracle.trace_valuation(w) == m.trace().valuation(), w
    return oracle


QP_RATIONAL = {"a": [["3/2", "0"], ["0", "2/3"]], "b": [["7/3", "-5/6"], ["5/3", "-1/6"]]}


@pytest.mark.parametrize("make", [lambda: _schottky_generators(1),
                                  lambda: matrix_group_from_json(unipotent_fail()),
                                  lambda: matrix_group_from_json(z2_diagonal())],
                         ids=["schottky-qt", "unipotent-fail", "z2-diagonal"])
def test_ring_oracle_matches_field_on_presets(make):
    assert_oracle_matches_field(make())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ring_oracle_matches_field_qp_rational(p):
    """D = 6: p = 2 and p = 3 divide it, with a prime of D that is not p;
    p = 5 does not."""
    gens = matrix_group_from_json({"field": "Qp", "p": p, "generators": QP_RATIONAL})
    assert assert_oracle_matches_field(gens).scale == 6


COEFF = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6)).map(Fraction)


def sl2(entry, poly, exponent, origin):
    """SL2 matrices over the field: products of one or two factors
    [[1, f], [0, 1]], [[1, 0], [f, 1]] or diag(u, 1/u), with f drawn from
    `poly` and u = c x^k for a nonzero rational c and k drawn from
    `exponent`.  `entry` turns exponent -> coefficient into a field element;
    `origin` is the exponent of the constants."""
    one, zero = entry({origin: 1}), entry({})

    def factor(kind, f, c, k):
        if kind == "upper":
            return Mat2(one, entry(f), zero, one)
        if kind == "lower":
            return Mat2(one, zero, entry(f), one)
        u = entry({k: c})
        return Mat2(u, zero, zero, u.inverse())

    def product(factors):
        m = factors[0]
        for g in factors[1:]:
            m = m * g
        return m

    factors = st.builds(factor, st.sampled_from(["upper", "lower", "diag"]), poly,
                        COEFF.filter(bool), exponent)
    return st.lists(factors, min_size=1, max_size=2).map(product)


def _qt(c):
    return RatFunc(Laurent1(c), Laurent1.const(1))


def _qst(c):
    return BiRatFunc(Laurent2(c), Laurent2.const(1))


EXP = st.integers(-1, 1)
EXP2 = st.tuples(EXP, EXP)
QT_SL2 = sl2(_qt, st.dictionaries(EXP, COEFF, max_size=2), EXP, 0)
QST_SL2 = sl2(_qst, st.dictionaries(EXP2, COEFF, max_size=2), EXP2, (0, 0))


@settings(max_examples=12, deadline=None)
@given(st.lists(QT_SL2, min_size=1, max_size=2))
def test_ring_oracle_matches_field_qt(mats):
    assert_oracle_matches_field(dict(zip("ab", mats)))


@settings(max_examples=12, deadline=None)
@given(st.lists(QST_SL2, min_size=1, max_size=2))
def test_ring_oracle_matches_field_qst(mats):
    assert_oracle_matches_field(dict(zip("ab", mats)))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_ring_oracle_matches_field_qp(p, data):
    def entry(c):
        return QpElement(c.get(0, Fraction(0)), p)

    qp_sl2 = sl2(entry, st.dictionaries(st.just(0), COEFF), st.just(0), 0)
    mats = data.draw(st.lists(qp_sl2, min_size=1, max_size=2))
    assert_oracle_matches_field(dict(zip("ab", mats)))


def test_ring_oracle_rejects_non_laurent_entries():
    one = RatFunc.const(1)
    d = RatFunc(Laurent1({0: 1, 1: 1}), Laurent1.const(1))  # 1 + t
    with pytest.raises(FieldError):
        MatrixLengthOracle({"g": Mat2(d.inverse(), RatFunc.const(0), RatFunc.const(0), d)})
    with pytest.raises(FieldError):
        MatrixLengthOracle({"g": Mat2(one, one, RatFunc.const(0), one),
                            "h": Mat2(Q2(1), Q2(1), Q2(0), Q2(1))})
