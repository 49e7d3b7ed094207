import operator
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from lambdaforest.ordgroup import (
    LexValue,
    RankMismatchError,
    _num,
    _rat,
    magnitude,
    project_top,
)

from test_lambdatree import NON_STRICT, READER_SPELLINGS, outcome

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def lex3(draw_rank=3):
    return st.lists(rationals, min_size=draw_rank, max_size=draw_rank).map(LexValue)


def test_basic_arithmetic():
    a = LexValue([1, Fraction(1, 2)])
    b = LexValue([0, 2])
    assert a + b == LexValue([1, Fraction(5, 2)])
    assert a - b == LexValue([1, Fraction(-3, 2)])
    assert -b == LexValue([0, -2])
    assert a.scale(Fraction(2, 3)) == LexValue([Fraction(2, 3), Fraction(1, 3)])
    assert a.half() + a.half() == a


def test_leftmost_dominance():
    # (1, -1000) is still bigger than (0, 1000)
    assert LexValue([1, -1000]) > LexValue([0, 1000])


def test_rank_mixing_rejected():
    with pytest.raises(RankMismatchError):
        LexValue([1]) + LexValue([1, 2])
    for op in (operator.lt, operator.gt, operator.le, operator.ge):
        with pytest.raises(RankMismatchError):
            op(LexValue([1]), LexValue([1, 2]))


def test_magnitude_and_infinitesimal():
    assert magnitude(LexValue([0, 0, 0])) == 0
    assert magnitude(LexValue([0, 0, 5])) == 1
    assert magnitude(LexValue([0, 1, 0])) == 2
    assert magnitude(LexValue([3, 0, 0])) == 3
    assert LexValue([0, 7]).is_infinitesimal()
    assert not LexValue([1, 0]).is_infinitesimal()
    assert not LexValue([-1, 0]).is_infinitesimal()


def test_project_top():
    v = LexValue([1, 2, 3])
    assert project_top(v, 1) == LexValue([1])
    assert project_top(v, 2) == LexValue([1, 2])
    with pytest.raises(RankMismatchError):
        project_top(v, 4)


def test_json_roundtrip():
    v = LexValue([Fraction(3, 7), -2])
    assert LexValue(v.to_json()) == v
    assert v.to_json() == ["3/7", "-2"]


@given(lex3(), lex3())
def test_order_totality_and_antisymmetry(a, b):
    assert (a < b) + (a == b) + (b < a) == 1


@given(lex3(), lex3(), lex3())
def test_order_translation_invariant(a, b, c):
    if a < b:
        assert a + c < b + c


@given(lex3())
def test_abs_and_sign(a):
    assert abs(a) >= LexValue.zero(3)
    assert abs(a) == abs(-a)
    assert (a + (-a)).is_zero()


mostly_zero = st.one_of(st.just(Fraction(0)), rationals,
                        st.fractions(min_value=-10**30, max_value=10**30))
any_rank = st.integers(1, 3).flatmap(
    lambda n: st.lists(mostly_zero, min_size=n, max_size=n)).map(LexValue)


@given(any_rank)
def test_sign_predicates_match_the_order(a):
    # abs reads the first nonzero coordinate; the reference is the comparison
    # with zero it used to make
    zero = LexValue.zero(a.rank)
    assert abs(a) == (a if a >= zero else -a)
    assert (abs(a) is a) == (a >= zero)


@given(lex3())
def test_project_top_is_homomorphic(a):
    b = LexValue([1, -2, Fraction(5, 3)])
    assert project_top(a + b, 2) == project_top(a, 2) + project_top(b, 2)


@given(lex3())
def test_magnitude_of_sum_bounded(a):
    b = LexValue([0, 1, 0])
    assert magnitude(a + b) <= max(magnitude(a), magnitude(b))


@given(lex3(), lex3(), rationals)
def test_uncoerced_results_match_coerced(a, b, q):
    # the operations build results without coercion; they must equal, hash
    # like and hold the same Fraction coordinates as publicly built values
    for v in (a + b, a - b, -a, a.scale(q), a.half(), a.project_top(2)):
        w = LexValue(list(v.coords))
        assert v == w and hash(v) == hash(w)
        assert all(type(c) is Fraction for c in v.coords)


def test_zero_is_shared_per_rank():
    assert LexValue.zero(2) is LexValue.zero(2)
    assert LexValue.zero(2) == LexValue([0, 0]) and LexValue.zero(1) != LexValue.zero(2)
    with pytest.raises(ValueError):
        LexValue.zero(0)


# int coordinates ---------------------------------------------------------------------


def assert_reads_as_rat(x):
    """_num(x) is _rat(x)'s value, an int only where that value is integral and
    always an int for an int or a plain spelling; or _rat(x)'s error, word for word."""
    want_type, want = outcome(_rat, x)
    got_type, got = outcome(_num, x)
    if want_type is not Fraction:
        assert (got_type, got) == (want_type, want)
        return
    assert got == want and got_type in (int, Fraction)
    assert got_type is Fraction or want.denominator == 1
    plain = isinstance(x, str) and len(x) <= 4300 and re.fullmatch(r"-?[0-9]+", x)
    assert (got_type is int) == (x.__class__ is int or bool(plain))


@pytest.mark.parametrize("x", NON_STRICT + READER_SPELLINGS,
                         ids=[repr(x)[:12] for x in NON_STRICT + READER_SPELLINGS])
def test_integer_reader_matches_rat(x):
    assert_reads_as_rat(x)


# \d is Unicode's decimal digit, so the first strategy draws non-ASCII digits too;
# the last spells integers on either side of int's default limit of 4,300 digits
spellings = st.one_of(
    st.from_regex(r"[-+]?\d+(/\d+)?", fullmatch=True),
    st.from_regex(r"[-+]?0*[0-9]{1,3}(/0*[0-9])?", fullmatch=True),
    st.builds(lambda sign, n, den: sign + "7" * n + den, st.sampled_from(["", "-", "+"]),
              st.integers(4298, 4302), st.sampled_from(["", "/3"])),
)


@given(spellings)
@example("-0")
@example("-" + "7" * 4300)
@example("7" * 4300)
def test_integer_reader_matches_rat_on_drawn_spellings(x):
    assert_reads_as_rat(x)


mixed = st.lists(st.one_of(st.integers(-50, 50), rationals), min_size=3, max_size=3)


@given(mixed, mixed, st.one_of(st.integers(-4, 4), rationals))
def test_int_coordinates_act_as_their_fractions(xs, ys, q):
    """A value that keeps int coordinates is, in every operation and every
    text, the value of the equal Fractions."""
    a, b = LexValue(xs), LexValue(ys)
    A, B = (LexValue._of(tuple(map(Fraction, v))) for v in (xs, ys))
    assert [type(c) for c in a.coords] == [type(c) for c in xs]
    for v, V in ((a, A), (a + b, A + B), (a - b, A - B), (-a, -A), (abs(a), abs(A)),
                 (a.scale(q), A.scale(q)), (a.half(), A.half()), (a.project_top(2), A.project_top(2))):
        assert v == V and hash(v) == hash(V) and repr(v) == repr(V) and v.to_json() == V.to_json()
        W = B.project_top(V.rank)
        assert (v < W, v <= W, v.magnitude(), v.is_zero()) == (V < W, V <= W, V.magnitude(),
                                                                V.is_zero())
    assert all(type(c) is int for c in (a + b).coords) == all(type(c) is int for c in xs + ys)
    assert all(type(c) is int for c in LexValue.zero(3).coords)
