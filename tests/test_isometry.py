import itertools
import random
from fractions import Fraction

import pytest

from lambdaforest.groups import FreeGroupOracle, ball_words, invert, parse_word
from lambdaforest.isometry import (
    ActionWindow,
    CertificationAborted,
    Elliptic,
    Hyperbolic,
    Inconclusive,
    IsometryError,
    OutOfWindow,
    PartialIsometry,
    certify_free_on_ball,
    classify,
    window_length_oracle,
)
from lambdaforest.lambdatree import MetricTree, Vertex, distance, geodesic_legs, point_at

from conftest import L, random_lex_positive, random_tree


def _path_ids(n):
    return [f"n{i}" for i in range(n + 1)]


@pytest.fixture
def caterpillar():
    """Path n0..n12 with unit arms m4, m6, m8, m10; generator a shifts by 2."""
    ids = _path_ids(12)
    arms = ["m4", "m6", "m8", "m10"]
    edges = [(ids[i], ids[i + 1], L(1)) for i in range(12)]
    edges += [(f"m{i}", f"n{i}", L(1)) for i in (4, 6, 8, 10)]
    T = MetricTree(ids + arms, edges, 1)
    vmap = {f"n{i}": Vertex(f"n{i + 2}") for i in range(11)}
    vmap.update({f"m{i}": Vertex(f"m{i + 2}") for i in (4, 6, 8)})
    return ActionWindow(T, {"a": PartialIsometry(T, vmap)})


@pytest.fixture
def tripod_rotation():
    T = MetricTree(
        ["o", "p", "q", "r"],
        [("o", "p", L(1)), ("o", "q", L(1)), ("o", "r", L(1))],
        1,
    )
    rot = PartialIsometry(
        T, {"o": Vertex("o"), "p": Vertex("q"), "q": Vertex("r"), "r": Vertex("p")}
    )
    return ActionWindow(T, {"r": rot})


def test_partial_isometry_rejects_non_isometry():
    T = MetricTree(["a", "b", "c"], [("a", "b", L(1)), ("b", "c", L(2))], 1)
    with pytest.raises(IsometryError):
        PartialIsometry(T, {"a": Vertex("b"), "b": Vertex("c")})


def test_inverse_matches_checked_construction():
    """inverse() skips the all-pairs check; it builds the same map as the
    checked constructor, on random windows made of two copies of a tree."""
    rng = random.Random(7)
    for _ in range(60):
        rank = rng.randint(1, 3)
        S = random_tree(rng, rng.randint(1, 7), rank)
        ids = sorted(S.vertices)
        edges = [(c + u, c + v, ln) for c in "xy" for (u, v), ln in S.edges.items()]
        edges.append(("x" + rng.choice(ids), "y" + rng.choice(ids), random_lex_positive(rng, rank)))
        T = MetricTree([c + v for c in "xy" for v in ids], edges, rank)
        domain = rng.sample(ids, rng.randint(1, len(ids)))
        g = PartialIsometry(T, {"x" + v: Vertex("y" + v) for v in domain})
        inv_map = {img.id: Vertex(v) for v, img in g.vertex_map.items()}
        ginv = g.inverse()
        assert ginv.window is T
        assert ginv.vertex_map == PartialIsometry(T, inv_map).vertex_map


def distance_check(T, vmap):
    """The error of the pair check done through distance, or None."""
    for a, b in itertools.combinations(sorted(vmap, key=repr), 2):
        if distance(T, Vertex(a), Vertex(b)) != distance(T, vmap[a], vmap[b]):
            return f"not distance-preserving on pair ({a!r}, {b!r})"
    return None


def test_int_row_check_matches_the_distance_check():
    """On two copies of a random tree: the shift of a copy onto the other,
    two points sent to the ends of a geodesic as long (often edge-interior
    points), and random images, vertex or interior."""
    rng, seen = random.Random(11), set()
    for _ in range(300):
        rank = rng.randint(1, 2)
        S = random_tree(rng, rng.randint(2, 7), rank)
        ids = sorted(S.vertices)
        edges = [(c + u, c + v, ln) for c in "xy" for (u, v), ln in S.edges.items()]
        edges.append(("x" + rng.choice(ids), "y" + rng.choice(ids), random_lex_positive(rng, rank)))
        T = MetricTree([c + v for c in "xy" for v in ids], edges, rank)
        verts, lengths = sorted(T.vertices), list(T.edges.items())

        def anywhere():
            if rng.random() < 0.5:
                return Vertex(rng.choice(verts))
            (u, v), ln = rng.choice(lengths)
            return T.point(u, v, ln.scale(Fraction(1, rng.randint(2, 4))))

        domain = rng.sample(ids, rng.randint(1, len(ids)))
        vmap = {"x" + v: Vertex("y" + v) for v in domain}
        kind = rng.randrange(3)
        if kind == 1:
            a, b = rng.sample(verts, 2)
            c = rng.choice(verts)
            far = max(verts, key=lambda f: distance(T, Vertex(c), Vertex(f)))
            d = distance(T, Vertex(a), Vertex(b))
            if distance(T, Vertex(c), Vertex(far)) < d:
                continue
            vmap = {a: Vertex(c), b: point_at(T, geodesic_legs(T, Vertex(c), Vertex(far)), d)}
        elif kind == 2:
            vmap[rng.choice(sorted(vmap))] = anywhere()
            vmap.update({v: anywhere() for v in rng.sample(verts, rng.randint(0, 3))})
        try:
            PartialIsometry(T, vmap)
            got = None
        except IsometryError as exc:
            got = str(exc)
        assert got == distance_check(T, vmap)
        seen.add((got is None, all(isinstance(p, Vertex) for p in vmap.values())))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_inverse_refuses_edge_interior_images():
    T = MetricTree(["a", "b"], [("a", "b", L(1))], 1)
    g = PartialIsometry(T, {"a": T.point("a", "b", L("1/2"))})
    with pytest.raises(IsometryError):
        g.inverse()


def test_partial_isometry_moves_interior_points(caterpillar):
    T = caterpillar.window
    x = T.point("n0", "n1", L("1/2"))
    g = caterpillar.generators[("a", 1)]
    assert g.apply(x) == T.point("n2", "n3", L("1/2"))


def test_classify_hyperbolic_on_axis(caterpillar):
    cls = classify(caterpillar, parse_word("a"), Vertex("n0"))
    assert isinstance(cls, Hyperbolic)
    assert cls.length == L(2)


def test_classify_hyperbolic_off_axis(caterpillar):
    # base point on an arm: the midpoint step still returns the exact length
    cls = classify(caterpillar, parse_word("a"), Vertex("m4"))
    assert isinstance(cls, Hyperbolic)
    assert cls.length == L(2)


def test_classify_elliptic(tripod_rotation):
    cls = classify(tripod_rotation, parse_word("r"), Vertex("p"))
    assert isinstance(cls, Elliptic)
    assert cls.fixed_point == Vertex("o")
    # a point fixed outright is elliptic at itself
    cls0 = classify(tripod_rotation, parse_word("rrr"), Vertex("p"))
    assert isinstance(cls0, Elliptic)


def test_out_of_window(caterpillar):
    res = caterpillar.apply_word(parse_word("aaaaaaa"), Vertex("n0"))
    assert isinstance(res, OutOfWindow)
    assert len(res.prefix) == 7


def test_displacement_law(caterpillar):
    """d(x, w^k x) = 2 d(x, axis) + k * l for a hyperbolic w and x off-axis."""
    T = caterpillar.window
    x = Vertex("m4")
    l = classify(caterpillar, parse_word("a"), x).length
    d_to_axis = L(1)
    for k in (1, 2, 3):
        wk = parse_word("a" * k)
        xk = caterpillar.apply_word(wk, x)
        assert distance(T, x, xk) == d_to_axis + d_to_axis + l.scale(k)


# ball certification -------------------------------------------------------------


def test_certify_free_shift(caterpillar):
    oracle = window_length_oracle(caterpillar, Vertex("n6"))
    cert = certify_free_on_ball(
        oracle, FreeGroupOracle(("a",)).is_trivial, ["a"], 2
    )
    assert cert.status == "free-on-ball"
    assert cert.relations == []
    assert cert.min_positive_length == L(2)
    assert cert.words_checked == 4
    doc = cert.to_json()
    assert doc["N"] == 2 and doc["counterexample"] is None


def test_certify_detects_elliptic_counterexample(tripod_rotation):
    oracle = window_length_oracle(tripod_rotation, Vertex("p"))
    cert = certify_free_on_ball(
        oracle, FreeGroupOracle(("r",)).is_trivial, ["r"], 1
    )
    assert cert.status == "counterexample"
    assert len(parse_word(cert.counterexample)) == 1


def test_certify_with_torsion_oracle(tripod_rotation):
    # declaring the rotation order-3 turns r^3 into a relation and the
    # remaining nontrivial powers into counterexamples
    oracle = window_length_oracle(tripod_rotation, Vertex("p"))
    cert = certify_free_on_ball(
        oracle, lambda w: sum(e for _l, e in w) % 3 == 0, ["r"], 1
    )
    assert cert.status == "counterexample"


def test_certify_aborts_when_window_too_small(caterpillar):
    oracle = window_length_oracle(caterpillar, Vertex("n6"))
    with pytest.raises(CertificationAborted):
        certify_free_on_ball(oracle, FreeGroupOracle(("a",)).is_trivial, ["a"], 7)


def test_window_certify_aborts_at_the_walks_first_word_outside(caterpillar):
    """A window oracle is no class function (whether a word leaves the
    window depends on the word), so certification walks the ball and aborts
    at the first word it evaluates whose oracle is inconclusive."""
    oracle = window_length_oracle(caterpillar, Vertex("n6"))
    trivial = FreeGroupOracle(("a",)).is_trivial
    first = next(w for w in ball_words(["a"], 7)
                 if not invert(w) < w and isinstance(oracle(w), Inconclusive))
    with pytest.raises(CertificationAborted) as info:
        certify_free_on_ball(oracle, trivial, ["a"], 7)
    assert info.value.word == first


# errors and rare branches -------------------------------------------------------------


def test_window_refuses_a_foreign_vertex_and_a_foreign_generator(tripod_rotation):
    T = tripod_rotation.window
    with pytest.raises(IsometryError, match="^domain vertex 'z' not in window$"):
        PartialIsometry(T, {"z": Vertex("o")})
    other = MetricTree(["o", "p"], [("o", "p", L(1))], 1)
    with pytest.raises(IsometryError, match="^generator defined on a different window$"):
        ActionWindow(T, {"a": PartialIsometry(other, {"o": Vertex("p"), "p": Vertex("o")})})


def test_two_vertices_sent_to_one_image_are_refused(tripod_rotation):
    """So a checked map is injective on vertices, and its inverse is exact."""
    T = tripod_rotation.window
    with pytest.raises(IsometryError, match=r"^not distance-preserving on pair \('p', 'q'\)$"):
        PartialIsometry(T, {"p": Vertex("o"), "q": Vertex("o")})
