import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lambdaforest.groups import (
    BudgetExceeded,
    FinitePresentation,
    FreeAbelianOracle,
    FreeGroupOracle,
    WordError,
    ball_words,
    betti1,
    conjugator,
    cyclic_reduce,
    exponent_vector,
    free_reduce,
    invert,
    parse_word,
    power,
    primitive_root,
    rational_rank,
    word_str,
)

letters2 = st.lists(
    st.tuples(st.sampled_from("ab"), st.sampled_from([1, -1])), max_size=10
).map(tuple)


def test_parse_and_print():
    w = parse_word("ab'a")
    assert w == (("a", 1), ("b", -1), ("a", 1))
    assert word_str(w) == "ab'a"
    assert parse_word("") == ()


def test_free_reduce():
    assert free_reduce(parse_word("abb'a'")) == ()
    assert free_reduce(parse_word("aa'b")) == (("b", 1),)


@given(letters2)
def test_reduce_idempotent_and_inverse(w):
    r = free_reduce(w)
    assert free_reduce(r) == r
    assert free_reduce(r + invert(r)) == ()


def test_primitive_root_examples():
    assert primitive_root(parse_word("abab")) == (parse_word("ab"), 2)
    assert primitive_root(parse_word("a")) == (parse_word("a"), 1)
    # b a^2 b' b a^2 b' reduces to b a^4 b': root b a b', exponent 4
    w = free_reduce(parse_word("baab'baab'"))
    root, k = primitive_root(w)
    assert (root, k) == (parse_word("bab'"), 4)
    with pytest.raises(WordError):
        primitive_root(())


@given(letters2, st.integers(min_value=1, max_value=4))
def test_primitive_root_reconstructs(w, k):
    w = free_reduce(w)
    if not w:
        return
    wk = power(w, k)
    root, e = primitive_root(wk)
    assert power(root, e) == wk
    # root itself is not a proper power
    assert primitive_root(root)[1] == 1


def test_conjugacy():
    assert conjugator(parse_word("ab"), parse_word("ba")) == parse_word("b'")
    assert conjugator(parse_word("a"), parse_word("b")) is None
    assert conjugator(parse_word("aba'"), parse_word("b")) == parse_word("a")
    assert conjugator(parse_word("ab"), parse_word("ab'")) is None
    assert conjugator(parse_word("ab"), parse_word("ab")) == ()
    assert conjugator((), ()) == ()
    assert conjugator((), parse_word("a")) is None


short2 = st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from([1, -1])),
                  max_size=6).map(lambda w: free_reduce(tuple(w)))


@settings(max_examples=60, deadline=None)
@given(short2, short2, short2)
def test_conjugator_against_a_ball_search(u, w, h):
    """conjugator solves h w h^-1 = u exactly when some word of the ball of
    radius (|u| + |w|) / 2 does, which bounds the shortest solution; w is
    also tried as a conjugate of u, so both answers occur."""
    for w in (w, free_reduce(invert(h) + u + h)):
        got = conjugator(u, w)
        radius = (len(u) + len(w)) // 2
        found = any(free_reduce(g + w + invert(g)) == u
                    for g in [(), *ball_words(["a", "b"], radius)])
        assert (got is not None) == found
        if got is not None:
            assert free_reduce(got) == got and free_reduce(got + w + invert(got)) == u


# oracles --------------------------------------------------------------------------


def test_oracles():
    assert FreeGroupOracle(("a", "b")).is_trivial(parse_word("abb'a'"))
    assert not FreeGroupOracle(("a", "b")).is_trivial(parse_word("ab"))
    assert FreeAbelianOracle(("a", "b")).is_trivial(parse_word("aba'b'"))
    assert not FreeAbelianOracle(("a", "b")).is_trivial(parse_word("ab"))


def test_exponent_vector():
    assert exponent_vector(parse_word("aab'"), ("a", "b")) == (2, -1)
    with pytest.raises(WordError):
        exponent_vector(parse_word("c"), ("a", "b"))


# rank and Betti numbers -------------------------------------------------------------


def _det(m):
    """Leibniz formula: the signed sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        term = -1 if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def brute_rank(matrix):
    """The largest order of a nonzero minor."""
    rows, cols = len(matrix), len(matrix[0])
    for k in range(min(rows, cols), 0, -1):
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                if _det([[matrix[r][c] for c in cs] for r in rs]):
                    return k
    return 0


def test_rank_examples():
    half, third = Fraction(1, 2), Fraction(1, 3)
    for matrix, rank in [([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], 3), ([[1, 2], [2, 4], [0, 0]], 1),
                         ([[0, 0]], 0), ([[half, third], [3 * half, 1]], 1)]:
        assert brute_rank(matrix) == rational_rank(matrix) == rank


def test_betti1_examples():
    assert betti1(FinitePresentation(("a", "b"), ())) == 2
    assert betti1(FinitePresentation(("a", "b", "c"), (parse_word("aabbcc"),))) == 2
    comm = parse_word("xyzy'x'z'")
    assert betti1(FinitePresentation(("x", "y", "z"), (comm,))) == 3


def test_hnn_abelianization_matches():
    # the HNN extension <p, q, t | t q t^-1 = q^-1 p^2> abelianizes to 2q = 2p
    pres = FinitePresentation(("p", "q", "t"), (parse_word("qqp'p'"),))
    target = FinitePresentation(("a", "b", "c"), (parse_word("aabbcc"),))
    assert betti1(pres) == betti1(target) == 2


def matrices(entries):
    """1-4 rows of 1-4 entries each; small entries make dependent rows common."""
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda cols: st.lists(st.lists(entries, min_size=cols, max_size=cols),
                              min_size=1, max_size=4))


@settings(max_examples=100, deadline=None)
@given(matrices(st.integers(min_value=-3, max_value=3)))
def test_betti1_matches_rational_rank(matrix):
    """On integer matrices the elimination rank is the brute-force rank, and
    betti1 of the presentation whose relators have these exponent rows is
    the number of generators less that rank."""
    assert rational_rank(matrix) == brute_rank(matrix)
    gens = "abcd"[:len(matrix[0])]
    relators = tuple(tuple((g, -1 if c < 0 else 1) for g, c in zip(gens, row)
                           for _ in range(abs(c))) for row in matrix)
    assert betti1(FinitePresentation(tuple(gens), relators)) == len(gens) - brute_rank(matrix)


@settings(max_examples=100, deadline=None)
@given(matrices(st.fractions(min_value=-2, max_value=2, max_denominator=3)))
def test_rational_rank_on_fractions(matrix):
    assert rational_rank(matrix) == brute_rank(matrix)


def test_cyclic_reduce():
    core, conj = cyclic_reduce(parse_word("ab'cba'"))
    assert free_reduce(conj + core + invert(conj)) == parse_word("ab'cba'")
    assert core == parse_word("c")
    assert conj == parse_word("ab'")


# word balls -----------------------------------------------------------------------


def test_ball_words_counts():
    ws = list(ball_words(["a", "b"], 2))
    assert len(ws) == 4 + 4 * 3
    assert all(len(w) <= 2 for w in ws)
    # shortest first
    assert [len(w) for w in ws] == sorted(len(w) for w in ws)


def _brute_ball(letters, max_len):
    """Freely reduced words of length 1..max_len by filtering all products,
    sorted by (length, position of each letter in `letters`, + before -)."""
    alphabet = [(l, e) for l in letters for e in (1, -1)]
    words = [
        w
        for n in range(1, max_len + 1)
        for w in itertools.product(alphabet, repeat=n)
        if free_reduce(w) == w
    ]
    return sorted(words, key=lambda w: (len(w), [alphabet.index(a) for a in w]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from("abcxyz"), min_size=1, max_size=3, unique=True),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=1000),
)
def test_ball_words_order_and_budget(letters, max_len, budget):
    """Unsorted alphabets keep their order, and the budget stops the walk
    after the last length whose words all fit, before yielding any word of
    the next length."""
    words = _brute_ball(letters, max_len)
    assert list(ball_words(letters, max_len)) == words
    fits = max(n for n in range(max_len + 1) if sum(len(w) <= n for w in words) <= budget)
    got = []
    if fits < max_len:
        with pytest.raises(BudgetExceeded):
            for w in ball_words(letters, max_len, budget):
                got.append(w)
    else:
        got = list(ball_words(letters, max_len, budget))
    assert got == [w for w in words if len(w) <= fits]


def test_parse_word_skips_spaces_and_dots():
    assert parse_word("a b.a'") == parse_word("aba'") == (("a", 1), ("b", 1), ("a", -1))
