import contextlib
import functools

import pytest
from hypothesis import given, settings, strategies as st

from lambdaforest import markedgroups
from lambdaforest.cli_marked import z_marked
from lambdaforest.groups import (
    BudgetExceeded,
    FreeAbelianOracle,
    FreeGroupOracle,
    WordError,
    ball_words,
    parse_word,
    word_str,
)
from lambdaforest.markedgroups import (
    MarkedGroup,
    convergence_profile,
    marked_group_from_json,
    profile_text,
    relations_up_to,
    same_ball,
)
from lambdaforest.presets import z_to_z2_sequence


def z_marked_group(n: int) -> MarkedGroup:
    """(Z, (1, n)) marked over abstract letters a, b."""
    oracle = FreeAbelianOracle(("g",))
    return MarkedGroup(oracle, (parse_word("g"), parse_word("g" * n)), ("a", "b"))


@pytest.fixture
def z2_std() -> MarkedGroup:
    oracle = FreeAbelianOracle(("p", "q"))
    return MarkedGroup(oracle, (parse_word("p"), parse_word("q")), ("a", "b"))


def test_marking_validation():
    with pytest.raises(WordError):
        MarkedGroup(FreeGroupOracle(("x",)), (parse_word("x"),), ("a", "b"))
    with pytest.raises(WordError):
        MarkedGroup(FreeGroupOracle(("x",)), (parse_word("y"),), ("a",))


def test_substitute_and_relations(z2_std):
    m1 = z_marked_group(1)  # both letters mark the same generator
    assert m1.substitute(parse_word("ab'")) == ()
    assert m1.is_relation(parse_word("ab'"))
    assert not z2_std.is_relation(parse_word("ab'"))
    assert z2_std.is_relation(parse_word("aba'b'"))


def test_relation_ball_contents(z2_std):
    ball = relations_up_to(z2_std, 4)
    words = [word_str(w) for w in ball.words]
    assert len(words) == 8  # the eight commutators of length 4
    assert all(len(w) == 4 for w in ball.words)
    assert words[0] == "a'b'ab"
    assert parse_word("aba'b'") in ball.words
    assert parse_word("ab") not in ball.words
    # a free group has no short relations at all
    free = MarkedGroup(
        FreeGroupOracle(("x", "y")), (parse_word("x"), parse_word("y")), ("a", "b")
    )
    assert relations_up_to(free, 4).words == ()


def test_same_ball_witness(z2_std):
    eq, w = same_ball(z_marked_group(1), z2_std, 2)
    assert not eq
    assert word_str(w) == "ab'"  # shortest divergent relation for n = 1
    eq3, w3 = same_ball(z_marked_group(3), z2_std, 3)
    assert eq3 and w3 is None
    eq4, w4 = same_ball(z_marked_group(3), z2_std, 4)
    assert not eq4
    assert len(w4) == 4  # a^3 b^-1 in some length-lex-first spelling
    assert z_marked_group(3).is_relation(w4) and not z2_std.is_relation(w4)


def test_diverging_abelian_pair_walks_words_of_the_divergence_length_only(z2_std, monkeypatch):
    """The vector pass finds the divergence length L; no shorter word can
    differ, so the witness walk tests words of length L and no others."""
    lengths = []
    is_relation = MarkedGroup.is_relation
    monkeypatch.setattr(MarkedGroup, "is_relation",
                        lambda M, w, image=None: lengths.append(len(w)) or is_relation(M, w, image))
    for n in (1, 3, 5):
        lengths.clear()
        eq, w = same_ball(z_marked_group(n), z2_std, 7)
        L = n + 1
        assert not eq and len(w) == L
        # shorter words: only the vector pass's, 4r vectors of |e|_1 = r in each group
        assert sum(k < L for k in lengths) == 2 * sum(4 * r for r in range(1, L))
        assert max(lengths) == L


def test_ball_agreement_law(z2_std):
    """(Z, (1, n)) and (Z^2, standard) share the radius-R relation ball
    exactly when n + 1 > R: the shortest divergent relation a^n b^-1 has
    length n + 1."""
    for n in range(1, 7):
        for R in range(1, 6):
            eq, w = same_ball(z_marked_group(n), z2_std, R)
            assert eq == (n + 1 > R), (n, R)
            if not eq:
                assert len(w) == n + 1


def test_ball_agreement_monotone(z2_std):
    # once the balls diverge they stay divergent at larger radius
    for n in (2, 4):
        agreed = True
        for R in range(1, 7):
            eq, _ = same_ball(z_marked_group(n), z2_std, R)
            assert agreed or not eq
            agreed = eq


def test_relation_balls_closed_under_inversion(z2_std):
    ball = relations_up_to(z2_std, 4)
    from lambdaforest.groups import invert

    for w in ball.words:
        assert invert(w) in ball.words


def test_same_ball_rejects_mismatched_alphabets(z2_std):
    other = MarkedGroup(FreeAbelianOracle(("g",)), (parse_word("g"),), ("a",))
    with pytest.raises(WordError):
        same_ball(other, z2_std, 2)


def test_convergence_profile(z2_std):
    table = convergence_profile(z_marked_group, z2_std, 5, index_budget=8)
    assert table == [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]
    txt = profile_text(table)
    assert "least index" in txt and txt.count("\n") == 5


def test_convergence_profile_budget_exhausted(z2_std):
    # with a tiny index budget large radii find no agreeing index
    table = convergence_profile(z_marked_group, z2_std, 4, index_budget=2)
    assert table[-1] == (4, None)
    assert "inf" in profile_text(table)


def test_enumeration_budget():
    free = MarkedGroup(
        FreeGroupOracle(("x", "y", "z")),
        (parse_word("x"), parse_word("y"), parse_word("z")),
        ("a", "b", "c"),
    )
    with pytest.raises(BudgetExceeded):
        relations_up_to(free, 12)


def test_marked_group_json_roundtrip():
    m3 = marked_group_from_json(z_marked(3))
    assert m3.is_relation(parse_word("aaab'"))
    with pytest.raises(WordError):
        marked_group_from_json({"group": {"kind": "matrix", "letters": []}, "marking": [], "letters": []})


def test_profile_preset_document(z2_std):
    doc = z_to_z2_sequence()
    target = marked_group_from_json(doc["marked_target"])
    table = convergence_profile(
        z_marked_group, target, doc["r_max"], doc["index_budget"]
    )
    assert [i for _R, i in table] == list(range(1, doc["r_max"] + 1))


# the carried images against substitute + oracle.is_trivial ---------------------------


def _slow_flag(M: MarkedGroup, w) -> bool:
    return M.oracle.is_trivial(M.substitute(w))


def _slow_relations(M: MarkedGroup, R: int):
    rels = [w for w in ball_words(M.letters, R) if _slow_flag(M, w)]
    return tuple(sorted(rels, key=lambda w: (len(w), word_str(w))))


def _slow_same_ball(M1: MarkedGroup, M2: MarkedGroup, R: int):
    for w in ball_words(M1.letters, R, markedgroups.MAX_WORDS):
        if _slow_flag(M1, w) != _slow_flag(M2, w):
            return False, w
    return True, None


oracle_letters = st.lists(st.sampled_from("pqrs"), min_size=1, max_size=3, unique=True)
abstract_letters = st.lists(st.sampled_from("abcd"), min_size=1, max_size=3, unique=True)


@st.composite
def marked_groups(draw, letters=None, kinds=(FreeGroupOracle, FreeAbelianOracle)):
    """Free or free-abelian markings of rank 1-3 with marking words of length
    0-4, not necessarily reduced, over unsorted alphabets."""
    group = draw(oracle_letters)
    oracle = draw(st.sampled_from(kinds))(tuple(group))
    letters = draw(abstract_letters) if letters is None else letters
    word = st.lists(st.tuples(st.sampled_from(group), st.sampled_from([1, -1])), max_size=4)
    marking = tuple(tuple(draw(word)) for _ in letters)
    return MarkedGroup(oracle, marking, tuple(letters))


@settings(max_examples=80, deadline=None)
@given(marked_groups(), st.integers(min_value=0, max_value=4))
def test_relation_ball_matches_substitution(M, R):
    assert relations_up_to(M, R).words == _slow_relations(M, R)


def _renamed(M: MarkedGroup, kind):
    """The same marking read in a group of `kind` on fresh letters: for the
    same kind the relations are the same, so the balls agree."""
    fresh = {l: l.upper() for l in M.oracle.letters}
    marking = tuple(tuple((fresh[l], e) for l, e in w) for w in M.marking)
    return MarkedGroup(kind(tuple(fresh[l] for l in reversed(M.oracle.letters))), marking,
                       M.letters)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(min_value=0, max_value=4))
def test_same_ball_matches_substitution(data, R):
    M1 = data.draw(marked_groups())
    other = data.draw(st.sampled_from(["random", "free", "free-abelian"]))
    if other == "random":
        M2 = data.draw(marked_groups(letters=list(M1.letters)))
    else:
        M2 = _renamed(M1, FreeGroupOracle if other == "free" else FreeAbelianOracle)
    assert same_ball(M1, M2, R) == _slow_same_ball(M1, M2, R)


@settings(max_examples=60, deadline=None)
@given(abstract_letters, st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=500))
def test_ball_words_carries_the_fold(letters, max_len, budget):
    """With a step, the walk yields the same words, raises at the same
    point, and pairs each word with the fold of the step over its letters."""
    def step(v, a):
        return v * 5 + 2 * letters.index(a[0]) + (a[1] < 0) + 1

    plain, carried = [], []
    with contextlib.suppress(BudgetExceeded):
        plain.extend(ball_words(letters, max_len, budget))
    with contextlib.suppress(BudgetExceeded):
        carried.extend(ball_words(letters, max_len, budget, step, 7))
    assert [w for w, _v in carried] == plain
    assert all(v == functools.reduce(step, w, 7) for w, v in carried)


# convergence_profile against a per-(R, i) loop of the substitution walk --------------


def _loop_profile(family, target, r_max, index_budget):
    table = []
    for R in range(1, r_max + 1):
        found = None
        for i in range(1, index_budget + 1):
            eq, _w = _slow_same_ball(family(i), target, R)
            if eq:
                found = i
                break
        table.append((R, found))
    return table


SHUFFLED = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
FREE2 = MarkedGroup(FreeGroupOracle(("x", "y")), (parse_word("x"), parse_word("y")),
                    ("a", "b"))
FAMILIES = {
    "z-marked": (z_marked_group, None),
    "shuffled": (lambda i: z_marked_group(SHUFFLED[i - 1]), None),
    "free-target": (lambda i: z_marked_group(SHUFFLED[i - 1]), FREE2),
}


class CountingFamily:
    def __init__(self, family):
        self.family, self.built = family, []

    def __call__(self, i):
        assert i not in self.built, f"family({i}) built twice"
        self.built.append(i)
        return self.family(i)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_profile_matches_per_row_loop(z2_std, name):
    family, target = FAMILIES[name]
    target = target or z2_std
    # rows of the loop do not depend on r_max, so one run gives every prefix; and
    # a smaller budget finds the same least index, or none when that is past it
    least = _loop_profile(family, target, 9, 10)
    for budget in range(1, 11):
        rows = [(R, i if i is not None and i <= budget else None) for R, i in least]
        for r_max in range(1, 10):
            counting = CountingFamily(family)
            assert convergence_profile(counting, target, r_max, budget) == rows[:r_max]


def _outcome(run):
    try:
        return run()
    except BudgetExceeded as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_profile_budget_exceeded_as_per_row_loop(monkeypatch, z2_std, name):
    """With MAX_WORDS = 200 the ball of radius 5 on two letters passes the
    budget (4 + 12 + 36 + 108 + 324 words).  The loop raises, naming R = 5,
    exactly when some index it tries agrees with the target up to length 4,
    so large r_max with small budgets still give a table.  Against the free
    target every index diverges by length 4, at a commutator."""
    monkeypatch.setattr(markedgroups, "MAX_WORDS", 200)
    family, target = FAMILIES[name]
    target = target or z2_std
    raised = set()
    for r_max in range(1, 9):
        for budget in range(1, 11):
            want = _outcome(lambda: _loop_profile(family, target, r_max, budget))
            got = _outcome(lambda: convergence_profile(CountingFamily(family), target, r_max,
                                                       budget))
            assert got == want, (r_max, budget)
            if isinstance(want, tuple):
                assert want[1].endswith("(n = 2, R = 5)")
                raised.add((r_max, budget))
    assert len(raised) < 8 * 10 and bool(raised) == (name != "free-target")


def test_duplicate_abstract_letters_rejected():
    with pytest.raises(WordError, match="distinct"):
        MarkedGroup(FreeGroupOracle(("p",)), (parse_word("p"), ()), ("a", "a"))


# free-abelian pairs, decided by exponent vector, against the substitution walk --------

# budgets from 1 word up: every ball on 2 or 3 letters of radius 5 or 6 passes
# some of them, and then the vector pass must raise where the walk raises
tripping_budgets = st.integers(min_value=1, max_value=2000)
abelian_groups = functools.partial(marked_groups, kinds=(FreeAbelianOracle,))


@settings(max_examples=100, deadline=None)
@given(st.data(), tripping_budgets)
def test_abelian_same_ball_matches_substitution(data, budget):
    M1 = data.draw(abelian_groups())
    M2 = data.draw(abelian_groups(letters=list(M1.letters)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(markedgroups, "MAX_WORDS", budget)
        for R in range(7):
            want = _outcome(lambda: _slow_same_ball(M1, M2, R))
            assert _outcome(lambda: same_ball(M1, M2, R)) == want, R


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=6), tripping_budgets)
def test_abelian_profile_matches_substitution(data, r_max, budget):
    target = data.draw(abelian_groups())
    members = data.draw(st.lists(abelian_groups(letters=list(target.letters)), min_size=1,
                                 max_size=4))
    index_budget = data.draw(st.integers(min_value=1, max_value=len(members)))
    family = lambda i: members[i - 1]  # noqa: E731
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(markedgroups, "MAX_WORDS", budget)
        want = _outcome(lambda: _loop_profile(family, target, r_max, index_budget))
        got = _outcome(lambda: convergence_profile(CountingFamily(family), target, r_max,
                                                   index_budget))
        assert got == want


def test_substitute_and_the_ball_refuse_what_they_cannot_read(z2_std):
    with pytest.raises(WordError, match="^unknown marking letter 'c'$"):
        z2_std.substitute(parse_word("c"))
    with pytest.raises(WordError, match="^radius must be nonnegative$"):
        relations_up_to(z2_std, -1)
