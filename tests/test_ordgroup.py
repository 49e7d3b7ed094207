import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lambdaforest.ordgroup import (
    LexValue,
    RankMismatchError,
    magnitude,
    project_top,
)

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
