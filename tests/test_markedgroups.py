import pytest

from lambdaforest.groups import (
    BudgetExceeded,
    FreeAbelianOracle,
    FreeGroupOracle,
    WordError,
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
from lambdaforest.presets import z_marked, z_to_z2_sequence


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
    assert parse_word("aba'b'") in ball
    assert parse_word("ab") not in ball
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
        assert invert(w) in ball


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
