import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lambdaforest.bruhat import (
    INFINITY,
    BiRatFunc,
    FieldError,
    Mat2,
    MatrixLengthOracle,
    PRIME_BOUND,
    QpElement,
    RatFunc,
    _is_prime,
    _parse_monomial_key,
    bt_translation_length,
    certify_free_bt,
    matrix_group_from_json,
    parse_entry,
    _vp,
)
from lambdaforest.groups import (
    ball_words,
    cyclic_reduce,
    free_reduce,
    invert,
    parse_word,
    rational_rank,
    word_str,
)
from lambdaforest.conjugacy import _class_key, _classes
from lambdaforest.isometry import certify_free_on_ball
from lambdaforest.ordgroup import LexValue
from lambdaforest.presets import _schottky_generators, schottky_qt, unipotent_fail, z2_diagonal

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
    assert (one + RatFunc.t(-1)).valuation() == L(-1)


def test_rank2_valuation_lex():
    # valuation of t^a s^b is (a, b): t dominates s
    m = BiRatFunc.monomial
    assert m(1, 0).valuation() == L(1, 0)
    assert m(0, 1).valuation() == L(0, 1)
    assert (m(1, 0) + m(0, 5)).valuation() == L(0, 5)
    assert (m(2, -1) + m(2, 3)).valuation() == L(2, -1)
    assert (m(0, 1) * m(1, -1)).valuation() == L(1, 0)


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
    assert rational_rank([list(v) for v in oracle.trace_valuations]) == 2


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
    """A Qt document parses to the matrices it spells: a string entry is a
    constant, and "t" and "t^1" name one monomial."""
    doc = {"field": "Qt", "generators": {"g": [[{"1": "1", "t^1": "1"}, {"t": "1"}], ["1", "1"]],
                                         "h": [[{"t^2": "1"}, "3/2"], [{"1": "0"}, {"t^-2": "1"}]]}}
    one, t = RatFunc.const(1), RatFunc.t()
    assert matrix_group_from_json(doc) == {
        "g": Mat2(one + t, t, one, one),
        "h": Mat2(RatFunc.t(2), RatFunc.const(Fraction(3, 2)), RatFunc.const(0), RatFunc.t(-2))}


def test_matrix_json_roundtrip_qst():
    """A Qst document parses to the matrices it spells: "st" and "ts" name
    the monomial s t."""
    doc = {"field": "Qst", "generators": {"g": [[{"1": "1", "st": "1"}, {"s": "1"}],
                                                [{"t^1": "1"}, "1"]],
                                          "h": [[{"ts^-1": "2"}, "0"], ["0", {"t^-1s": "1/2"}]]}}
    one, s, t = BiRatFunc.const(1), BiRatFunc.monomial(0, 1), BiRatFunc.monomial(1, 0)
    assert matrix_group_from_json(doc) == {
        "g": Mat2(one + s * t, s, t, one),
        "h": Mat2(BiRatFunc.monomial(1, -1, 2), BiRatFunc.const(0), BiRatFunc.const(0),
                  BiRatFunc.monomial(-1, 1, Fraction(1, 2)))}


def test_matrix_json_roundtrip_qp():
    """A Qp document parses each rational string to an element of Q_p."""
    doc = {"field": "Qp", "p": 2, "generators": {"g": [["2", "1"], ["0", "1/2"]]}}
    assert matrix_group_from_json(doc) == {"g": Mat2(Q2(2), Q2(1), Q2(0), Q2(Fraction(1, 2)))}


def test_matrix_presets_parse_to_their_constructions():
    """The matrix presets are literal documents: each parses to the matrices
    its provenance names."""
    assert matrix_group_from_json(schottky_qt()) == _schottky_generators()
    zero2 = BiRatFunc.const(0)
    s, s_, t, t_ = (BiRatFunc.monomial(*e) for e in ((0, 1), (0, -1), (1, 0), (-1, 0)))
    assert matrix_group_from_json(z2_diagonal()) == {"u": Mat2(s, zero2, zero2, s_),
                                                      "v": Mat2(t, zero2, zero2, t_)}
    one, zero = RatFunc.const(1), RatFunc.const(0)
    assert matrix_group_from_json(unipotent_fail()) == {"u": Mat2(one, one, zero, one)}


def test_matrix_json_rejects_unknown_field():
    with pytest.raises(FieldError):
        matrix_group_from_json(
            {"field": "Qx", "generators": {"g": [["1", "0"], ["0", "1"]]}}
        )
    with pytest.raises(FieldError):
        matrix_group_from_json({"field": "Qp", "generators": {}})  # missing p


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


QP_COMMUTING = {"a": [["3/2", "0"], ["0", "2/3"]], "b": [["2", "0"], ["0", "1/2"]]}


@pytest.mark.parametrize("generators, p, radius", [(QP_RATIONAL, 2, 4), (QP_RATIONAL, 3, 4),
                                                   (QP_COMMUTING, 3, 6)],
                         ids=["rational-2", "rational-3", "commuting-3"])
def test_class_value_does_not_depend_on_the_member_evaluated(generators, p, radius):
    """Longest words first, so a class is first evaluated on a conjugate that
    is longer than its representative, and D = 6 makes the scaled product of
    a word depend on its length; the commuting pair has relations."""
    gens = matrix_group_from_json({"field": "Qp", "p": p, "generators": generators})
    oracle = MatrixLengthOracle(gens)
    prods = field_products(gens, radius)
    identity = prods[()]
    for w, m in reversed(prods.items()):
        assert oracle.trace_valuation(w) == m.trace().valuation(), w
        assert oracle.is_trivial(w) == (m == identity), w


COEFF = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6)).map(Fraction)


def unit(entry, k, c):
    """u = c x^k and 1/u, the monomial (1/c) x^-k."""
    minus_k = tuple(-e for e in k) if isinstance(k, tuple) else -k
    return entry({k: c}), entry({minus_k: 1 / c})


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
        u, u_inv = unit(entry, k, c)
        return Mat2(u, zero, zero, u_inv)

    def product(factors):
        m = factors[0]
        for g in factors[1:]:
            m = m * g
        return m

    factors = st.builds(factor, st.sampled_from(["upper", "lower", "diag"]), poly,
                        COEFF.filter(bool), exponent)
    return st.lists(factors, min_size=1, max_size=2).map(product)


EXP = st.integers(-1, 1)
EXP2 = st.tuples(EXP, EXP)
QT_SL2 = sl2(RatFunc, st.dictionaries(EXP, COEFF, max_size=2), EXP, 0)
QST_SL2 = sl2(BiRatFunc, st.dictionaries(EXP2, COEFF, max_size=2), EXP2, (0, 0))


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


def test_ring_oracle_rejects_mixed_field_contexts():
    one = RatFunc.const(1)
    with pytest.raises(FieldError):
        MatrixLengthOracle({"g": Mat2(one, one, RatFunc.const(0), one),
                            "h": Mat2(Q2(1), Q2(1), Q2(0), Q2(1))})


# one evaluation per conjugacy class against per-word evaluation -------------------------


class PerWordOracle:
    """Per-word evaluation, the slow reference for the class memo: every call
    builds a fresh MatrixLengthOracle and evaluates the word it is given, and
    every trace valuation is recorded."""

    def __init__(self, gens):
        self.gens = gens
        self.trace_valuations = set()

    def trace_valuation(self, w):
        oracle = MatrixLengthOracle(self.gens)
        tr = oracle.product(w).trace()
        if oracle._p is not None:
            if tr == 0:
                return None
            v = L(_vp(tr, oracle._p) - len(w) * oracle._vp_scale)
        else:
            if not tr.coeffs:
                return None
            n = min(tr.coeffs)
            v = L(*n[:oracle.rank])
        self.trace_valuations.add(v.coords)
        return v

    def length(self, w):
        v = self.trace_valuation(w)
        zero = LexValue.zero(MatrixLengthOracle(self.gens).rank)
        if v is None:
            return zero
        cand = v.scale(-2)
        return cand if cand > zero else zero

    def is_trivial(self, w):
        oracle = MatrixLengthOracle(self.gens)
        return oracle.product(w) == oracle._scalar(oracle.scale ** len(w))


def per_word_certificate(gens, radius):
    """certify_free_bt's report without the class memo or the first-letter
    shortcut: w is skipped when invert(w) < w, and every other word is
    evaluated on its own."""
    oracle = PerWordOracle(gens)
    relations, min_pos, checked = [], None, 0
    status, counterexample = "free-on-ball", None
    for w in ball_words(sorted(gens), radius):
        checked += 1
        if invert(w) < w:
            continue
        if oracle.is_trivial(w):
            relations.append(word_str(w))
            continue
        l = oracle.length(w)
        if l.is_zero():
            status, counterexample = "counterexample", word_str(w)
            break
        if min_pos is None or l < min_pos:
            min_pos = l
    return {"N": radius, "words_checked": checked, "relations": relations,
            "min_positive_length": min_pos.to_json() if min_pos is not None else None,
            "status": status, "counterexample": counterexample,
            "trace_valuations": [[str(c) for c in v] for v in sorted(oracle.trace_valuations)],
            "value_group_rank": rational_rank([list(v) for v in oracle.trace_valuations])}


def _diagonal(entry, k, c):
    u, u_inv = unit(entry, k, c)
    zero = entry({})
    return Mat2(u, zero, zero, u_inv)


def _upper(entry, k, c, f):
    """An upper triangular matrix: it fixes the end at infinity, as the
    diagonal ones do."""
    u, u_inv = unit(entry, k, c)
    return Mat2(u, entry(f), entry({}), u_inv)


def _qp_entry(p):
    return lambda c: QpElement(c.get(0, Fraction(0)), p)


UNIT = COEFF.filter(bool)
# per field: entry maker, exponents, nonzero exponents, exponent of the constants
FIELDS = {"Qt": (RatFunc, EXP, EXP.filter(bool), 0),
          "Qst": (BiRatFunc, EXP2, EXP2.filter(any), (0, 0))}


@st.composite
def generator_pairs(draw):
    """Two generators over Q(t), Q(s, t) or Q_p: random SL2 pairs,
    Schottky-like pairs (two hyperbolic diagonal matrices, one conjugated by
    a product of unipotents), commuting diagonal pairs (they have relations)
    and pairs that share an end (their commutators are unipotent, so a
    counterexample is found)."""
    field = draw(st.sampled_from(["Qt", "Qst", "Qp"]))
    shape = draw(st.sampled_from(["random", "schottky", "diagonal", "shared-end"]))
    if field == "Qp":
        p = draw(st.sampled_from([2, 3, 5]))
        entry, exp, hyperbolic_exp, origin = _qp_entry(p), st.just(0), st.just(0), 0
        # diag(c, 1/c) is hyperbolic when v_p(c) is not 0
        diag_coeff = st.sampled_from([Fraction(p), Fraction(1, p), Fraction(p * p, 3)])
    else:
        entry, exp, hyperbolic_exp, origin = FIELDS[field]
        diag_coeff = UNIT
    poly = st.dictionaries(exp, COEFF, max_size=2)
    if shape == "random":
        a, b = (draw(sl2(entry, poly, exp, origin)) for _ in "ab")
    elif shape == "schottky":
        a, b = (_diagonal(entry, draw(hyperbolic_exp), draw(diag_coeff)) for _ in "ab")
        one, zero = entry({origin: 1}), entry({})
        m = (Mat2(one, entry({origin: draw(UNIT)}), zero, one)
             * Mat2(one, zero, entry({origin: draw(UNIT)}), one))
        b = m * b * m.inverse()
    elif shape == "diagonal":
        a, b = (_diagonal(entry, draw(exp), draw(diag_coeff)) for _ in "ab")
    else:
        a = _diagonal(entry, draw(exp), draw(diag_coeff))
        b = _upper(entry, draw(exp), draw(diag_coeff), draw(poly))
    return {"a": a, "b": b}


@settings(max_examples=60, deadline=None)
@given(generator_pairs(), st.integers(1, 6))
def test_class_memo_matches_per_word_certificate(gens, radius):
    """The class pass on free pairs, and the walk after it on pairs with
    relations or a counterexample."""
    got = certify_free_bt(gens, radius).to_json()
    assert json.dumps(got) == json.dumps(per_word_certificate(gens, radius))


@pytest.mark.parametrize("make", [lambda: _schottky_generators(1),
                                  lambda: matrix_group_from_json(z2_diagonal()),
                                  lambda: matrix_group_from_json(unipotent_fail()),
                                  lambda: matrix_group_from_json(
                                      {"field": "Qp", "p": 3, "generators": QP_RATIONAL})],
                         ids=["schottky-qt", "z2-diagonal", "unipotent-fail", "qp-rational"])
def test_class_memo_matches_per_word_certificate_on_presets(make):
    gens = make()
    got = certify_free_bt(gens, 5).to_json()
    assert json.dumps(got) == json.dumps(per_word_certificate(gens, 5))


def test_class_memo_matches_per_word_certificate_on_both_exits():
    """A commuting diagonal pair has its commutator among the relations, and
    a pair sharing an end has a counterexample."""
    t = RatFunc.t
    zero = RatFunc.const(0)
    diagonal = {"a": Mat2(t(1), zero, zero, t(-1)), "b": Mat2(t(2), zero, zero, t(-2))}
    cert = per_word_certificate(diagonal, 4)
    assert cert["relations"] and cert["status"] == "free-on-ball"
    one = RatFunc.const(1)
    shared = {"a": diagonal["a"], "b": Mat2(one, t(1), zero, one)}
    assert per_word_certificate(shared, 2)["status"] == "counterexample"
    for gens, radius in ((diagonal, 4), (shared, 2)):
        assert certify_free_bt(gens, radius).to_json() == per_word_certificate(gens, radius)


# class keys ---------------------------------------------------------------------------


F2 = _schottky_generators(1)


def key(w, keys=None):
    return _class_key(w, {} if keys is None else keys)


def rotate(w, i):
    return w[i:] + w[:i]


def cyclic_word(w):
    core, _ = cyclic_reduce(w)
    return core


def conjugate_up_to_inversion(u, w):
    """Independent of the oracle: the cyclic cores have one length and one
    is a substring of the other's core doubled, or of its inverse's."""
    cu, cw = cyclic_word(u), cyclic_word(w)
    n = len(cu)
    return n == len(cw) and any(
        d[i:i + n] == cu for d in (cw + cw, invert(cw) * 2) for i in range(max(n, 1)))


LETTERS = st.sampled_from([("a", 1), ("a", -1), ("b", 1), ("b", -1)])
REDUCED = st.lists(LETTERS, min_size=1, max_size=12).map(
    lambda w: free_reduce(tuple(w))).filter(bool)


@settings(max_examples=200, deadline=None)
@given(REDUCED, st.integers(0, 11), LETTERS)
def test_class_key_is_a_class_invariant(w, i, letter):
    keys = {}
    k = key(w, keys)
    core = cyclic_word(w)
    assert key(rotate(core, i % len(core))) == k
    assert key(invert(w)) == k
    conj = free_reduce((letter,) + w + invert((letter,)))
    assert key(conj) == k
    assert key(conj, keys) == k
    assert conjugate_up_to_inversion(k, w)


def test_equal_class_keys_mean_conjugate_up_to_inversion():
    keys, by_key = {}, {}
    for w in ball_words(["a", "b"], 5):
        by_key.setdefault(key(w, keys), []).append(w)
    for k, words in by_key.items():
        assert all(conjugate_up_to_inversion(w, words[0]) for w in words), k
    # and distinct keys are distinct classes
    reps = [words[0] for words in by_key.values()]
    assert not any(conjugate_up_to_inversion(u, w) for i, u in enumerate(reps)
                   for w in reps[i + 1:])


def test_f2_ball_of_radius_8_has_693_classes():
    keys = {}
    assert len({key(w, keys) for w in ball_words(["a", "b"], 8)}) == 693


def test_empty_word_is_its_own_class():
    oracle = MatrixLengthOracle(F2)
    assert key(()) == () and oracle.is_trivial(())
    assert oracle.is_trivial(parse_word("aa'")) and key(parse_word("aa'")) == ()
    assert oracle.trace_valuation(()) == L(0) and oracle.length(()) == L(0)


# the class pass of ball certification -------------------------------------------------


def walk_first_words(labels, radius, keys):
    """Brute force: the first word of each class that the walk evaluates
    (it skips w when invert(w) < w), in the walk's order."""
    first = {}
    for w in ball_words(labels, radius):
        if not invert(w) < w:
            first.setdefault(key(w, keys), w)
    return list(first.values())


@pytest.mark.parametrize("labels, radius", [("a", 8), ("ab", 8), ("abc", 5)])
def test_class_enumerator_meets_each_class_once_in_walk_order(labels, radius):
    labels, keys = list(labels), {}
    words = list(_classes(labels, radius))
    reps = [key(w, keys) for w in words]
    assert len(set(reps)) == len(reps)
    assert set(reps) == {key(w, keys) for w in ball_words(labels, radius)}
    assert words == walk_first_words(labels, radius, keys)
    assert len(words) == {"a": 8, "ab": 693, "abc": 434}["".join(labels)]


class AllPositive:
    """Class-function oracles under which every word is nontrivial with
    length 1, a new LexValue each time."""

    class_function = True

    def length(self, w):
        return L(1)

    def is_trivial(self, w):
        return False


@pytest.mark.parametrize("labels, radius", [("a", 7), ("ab", 6), ("abc", 4), ("ab", 0)])
def test_class_pass_counts_every_word_of_the_ball(labels, radius):
    oracle = AllPositive()
    cert = certify_free_on_ball(oracle.length, oracle.is_trivial, list(labels), radius)
    assert cert.status == "free-on-ball" and cert.relations == []
    assert cert.words_checked == len(list(ball_words(list(labels), radius)))
    assert cert.min_positive_length == (L(1) if radius else None)


def test_class_pass_asks_once_per_class_through_a_wrapped_oracle():
    """perfbench's tracer hands certification a closure around is_trivial;
    the object of the length oracle still selects the class pass.  A plain
    function as length oracle walks the ball."""
    oracle = MatrixLengthOracle(F2)
    asked = []

    def trivial(w):
        asked.append(w)
        return oracle.is_trivial(w)

    cert = certify_free_on_ball(oracle.length, trivial, ["a", "b"], 8)
    assert len(asked) == 693
    assert cert.status == "free-on-ball"
    assert cert.words_checked == len(list(ball_words(["a", "b"], 8))) == 13120
    asked.clear()
    walked = certify_free_on_ball(lambda w: oracle.length(w), trivial, ["a", "b"], 8)
    assert len(asked) == 6560
    assert walked.to_json() == cert.to_json()


def test_walk_asks_once_per_class():
    """z2-diagonal's generators commute, so the class pass stops at the
    commutator and the walk runs: it asks the first word of each class
    among the words it evaluates that the pass did not ask, and no other,
    so the two ask each class once.  Through a plain-function length oracle
    it asks every word it evaluates."""
    gens = matrix_group_from_json(z2_diagonal())
    labels = sorted(gens)
    oracle = MatrixLengthOracle(gens)
    asked, measured = [], []

    def trivial(w):
        asked.append(w)
        return oracle.is_trivial(w)

    def length(w):
        measured.append(w)
        return oracle.length(w)

    cert = certify_free_on_ball(oracle.length, trivial, labels, 5)
    passed = next(i for i, w in enumerate(_classes(labels, 5)) if oracle.is_trivial(w)) + 1
    pruned = [w for w in ball_words(labels, 5) if not invert(w) < w]
    firsts = []
    for w in pruned:
        if not any(conjugate_up_to_inversion(w, u) for u in firsts):
            firsts.append(w)
    assert cert.relations and passed < len(firsts) < len(pruned)
    assert asked[:passed] == list(_classes(labels, 5))[:passed]
    assert asked[passed:] == [w for w in firsts
                              if not any(conjugate_up_to_inversion(w, u) for u in asked[:passed])]
    assert len(asked) == len(firsts)  # each class once
    asked.clear()
    plain = certify_free_on_ball(length, trivial, labels, 5)
    assert asked == pruned
    assert measured == [w for w in pruned if not oracle.is_trivial(w)]
    assert plain.to_json() == cert.to_json()


# the prime of a Q_p context -------------------------------------------------------


def test_is_prime_matches_trial_division():
    def by_division(n):
        return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(-3, 5000) if _is_prime(n) != by_division(n)] == []


def test_is_prime_on_strong_pseudoprimes():
    # a Carmichael number, and composites that pass the strong test to every
    # prime base up to 2, 7, 17, 23 and 37 (OEIS A014233); base 41 catches the last
    assert 149491 * 747451 * 34233211 == 3825123056546413051
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not any(map(_is_prime, (561, 2047, 3215031751, 341550071728321, 3825123056546413051)))
    assert not _is_prime(318665857834031151167461)
    assert _is_prime(2 ** 61 - 1) and not _is_prime(2 ** 67 - 1)  # 193707721 * 761838257287


@pytest.mark.parametrize("p", [1, -1, True, 0, 4, -3, 2.5, "3", None, PRIME_BOUND])
def test_qp_context_needs_a_prime_int(p):
    doc = {"field": "Qp", "p": p, "generators": {"a": [["2", "0"], ["0", "1/2"]]}}
    with pytest.raises(FieldError, match="Qp context needs a prime p|p = .* is too large"):
        matrix_group_from_json(doc)


def test_qp_context_takes_a_large_prime():
    p = 2 ** 61 - 1
    gens = matrix_group_from_json({"field": "Qp", "p": p,
                                   "generators": {"a": [[str(p), "0"], ["0", f"1/{p}"]]}})
    assert MatrixLengthOracle(gens).length(parse_word("a")) == L(2)


# errors and rare branches -------------------------------------------------------------


def test_field_errors():
    one2, zero2, one3, zero3 = (QpElement(Fraction(v), p) for p in (2, 3) for v in (1, 0))
    with pytest.raises(FieldError, match="^mixed primes$"):
        one2 + one3
    with pytest.raises(FieldError, match="^mixed primes$"):
        MatrixLengthOracle({"a": Mat2(one2, zero2, zero2, one2), "b": Mat2(one3, zero3, zero3, one3)})
    with pytest.raises(FieldError, match="^unknown generator label 'x'$"):
        MatrixLengthOracle(matrix_group_from_json(z2_diagonal())).product(parse_word("x"))
    for data, field, message in [({"x": "1"}, "Qt", "bad monomial key 'x'"),
                                 ({"1": "1"}, "Qp", "Qp entries are rational strings"),
                                 ({"s": "1"}, "Qt", "s appears in a Qt entry")]:
        with pytest.raises(FieldError, match=f"^{message}$"):
            parse_entry(data, field, 2)


# the monomial-key scanner as it was before one pattern read the key: the
# reference for the exponents a key names and for the keys refused


def old_parse_monomial_key(key: str) -> tuple[int, int]:
    key = key.strip()
    if key in ("1", ""):
        return (0, 0)
    t_exp = s_exp = 0
    i = 0
    while i < len(key):
        var = key[i]
        if var not in ("s", "t"):
            raise FieldError(f"bad monomial key {key!r}")
        i += 1
        exp = 1
        if i < len(key) and key[i] == "^":
            i += 1
            first = j = i + 1 if key.startswith("-", i) else i  # the first digit
            while j < len(key) and key[j].isdecimal():  # '²'.isdigit(), but int('²') fails
                j += 1
            if j == first:
                raise FieldError(f"bad monomial key {key!r}")
            exp = int(key[i:j])
            i = j
        if var == "t":
            t_exp += exp
        else:
            s_exp += exp
    return (t_exp, s_exp)


def _key_outcome(parse, key: str):
    try:
        return parse(key)
    except FieldError as exc:
        return str(exc)


# signs, carets, whitespace, NUL, a superscript digit (not decimal), Arabic-Indic
# and full-width digits (decimal), and a letter outside s and t
KEY_CHARS = st.sampled_from(list("st^-+0129 \t\n\x00") + ["\u00b2", "\u0663", "\uff11", "x"])


@settings(max_examples=600, deadline=None)
@given(st.text(KEY_CHARS, max_size=10) | st.text(max_size=6))
def test_monomial_key_reads_as_the_old_scanner(key):
    assert _key_outcome(_parse_monomial_key, key) == _key_outcome(old_parse_monomial_key, key)


def test_zero_over_q_s_t_has_infinite_valuation_and_a_matrix_prints_its_entries():
    assert BiRatFunc({}).valuation() is INFINITY
    one, zero = QpElement(Fraction(1), 2), QpElement(Fraction(0), 2)
    assert repr(Mat2(one, zero, zero, one)) == f"[[{one!r}, {zero!r}], [{zero!r}, {one!r}]]"


# element text ---------------------------------------------------------------------------
# RatFunc and BiRatFunc as they were before they shared one implementation, the
# reference for the text a determinant error quotes and for the valuation: a
# coefficient dict keyed by the t-exponent over Q(t), by (t-exp, s-exp) over Q(s, t)


def old_qt_repr(coeffs: dict) -> str:
    k = max(0, -min(coeffs, default=0))
    num = " + ".join(f"{v}*t^{e + k}" for e, v in sorted(coeffs.items()))
    return f"({num or 0})/(1*t^{k})"


def old_qst_repr(coeffs: dict) -> str:
    vt, vs = min(coeffs, default=(0, 0))
    kt, ks = max(0, -vt), max(0, -vs)
    num = " + ".join(f"{v}*t^{et + kt}*s^{es + ks}" for (et, es), v in sorted(coeffs.items()))
    return f"({num or 0})/(1*t^{kt}*s^{ks})"


def old_valuation(coeffs: dict):
    if not coeffs:
        return INFINITY
    e = min(coeffs)
    return L(*e) if isinstance(e, tuple) else L(e)


def old_arithmetic(op: str, c1: dict, c2: dict) -> dict:
    """c1 op c2 on coefficient dicts, with no zero coefficient kept."""
    out = {} if op == "*" else dict(c1)
    for e2, v2 in c2.items():
        if op == "*":
            for e1, v1 in c1.items():
                e = e1 + e2 if isinstance(e1, int) else (e1[0] + e2[0], e1[1] + e2[1])
                out[e] = out.get(e, 0) + v1 * v2
        else:
            out[e2] = out.get(e2, 0) + (v2 if op == "+" else -v2)
    return {e: v for e, v in out.items() if v}


OPS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y}
ELEMENTS = {"Qt": (RatFunc, st.integers(-3, 3), old_qt_repr),
            "Qst": (BiRatFunc, st.tuples(st.integers(-3, 3), st.integers(-3, 3)), old_qst_repr)}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(ELEMENTS)), st.sampled_from(["one", *OPS]), st.data())
def test_element_text_and_valuation_match_the_two_old_classes(field, op, data):
    """Zero, negative exponents and, over Q(s, t), an s^-1 outside the
    lowest-t part, alone and in sums, differences and products."""
    cls, exponent, old_repr = ELEMENTS[field]
    c1, c2 = (data.draw(st.dictionaries(exponent, COEFF, max_size=3)) for _ in "12")
    if op == "one":
        x, ref = cls(c1), {e: v for e, v in c1.items() if v}
    else:
        x, ref = OPS[op](cls(c1), cls(c2)), old_arithmetic(op, c1, c2)
    assert repr(x) == old_repr(ref)
    assert x.valuation() == old_valuation(ref)


def test_an_s_inverse_outside_the_lowest_t_part_stays_in_the_numerator():
    coeffs = {(0, 0): 1, (1, -1): 2}
    text = "(1*t^0*s^0 + 2*t^1*s^-1)/(1*t^0*s^0)"
    assert repr(BiRatFunc(coeffs)) == old_qst_repr(coeffs) == text
