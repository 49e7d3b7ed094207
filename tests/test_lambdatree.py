import itertools
import json
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from lambdaforest import lambdatree
from lambdaforest.cli import JSONText, _dumps
from lambdaforest.lambdatree import (
    EdgeInterior,
    FiniteLambdaMetric,
    MetricTree,
    SubtreeSpec,
    TreeError,
    ValidationResult,
    Vertex,
    distance,
    geodesic_legs,
    kill_infinitesimals,
    median,
    point_at,
    validate_tree_metric,
    _id_key,
    _scaled,
)
from lambdaforest.cover import intersect_specs, is_degenerate
from lambdaforest.ordgroup import LexValue, _rat, _ratio, project_top

from conftest import L, random_tree, tree_json


@pytest.fixture
def tripod():
    return MetricTree(
        ["o", "p", "q", "r"],
        [("o", "p", L(1)), ("o", "q", L(1)), ("o", "r", L(1))],
        rank=1,
    )


@pytest.fixture
def mixed():
    # path a - b - c with a mixed-rank edge and an infinitesimal edge
    return MetricTree(
        ["a", "b", "c"],
        [("a", "b", L(1, Fraction(1, 2))), ("b", "c", L(0, 1))],
        rank=2,
    )


def test_construction_errors():
    with pytest.raises(TreeError):
        MetricTree(["a", "b"], [("a", "b", L(0))], 1)  # zero length
    with pytest.raises(TreeError):
        MetricTree(["a", "b"], [("a", "b", L(-1))], 1)  # negative length
    with pytest.raises(TreeError):
        MetricTree(["a", "b"], [("a", "c", L(1))], 1)  # unknown endpoint
    with pytest.raises(TreeError):
        # cycle
        MetricTree(
            ["a", "b", "c"],
            [("a", "b", L(1)), ("b", "c", L(1)), ("c", "a", L(1))],
            1,
        )
    with pytest.raises(TreeError):
        # right edge count but disconnected (duplicate edge is rejected first)
        MetricTree(
            ["a", "b", "c", "d"],
            [("a", "b", L(1)), ("c", "d", L(1)), ("d", "c", L(2))],
            1,
        )
    with pytest.raises(TreeError, match="not connected"):
        # right edge count, no duplicate, but a triangle and an isolated vertex
        MetricTree(
            ["a", "b", "c", "d"],
            [("a", "b", L(1)), ("b", "c", L(1)), ("c", "a", L(1))],
            1,
        )
    with pytest.raises(TreeError):
        # rank mismatch on an edge length
        MetricTree(["a", "b"], [("a", "b", L(1, 2))], 1)


def test_vertex_distances(tripod):
    assert distance(tripod, Vertex("p"), Vertex("q")) == L(2)
    assert distance(tripod, Vertex("o"), Vertex("o")) == L(0)


def test_interior_points_and_distance(tripod):
    x = tripod.point("o", "p", L(Fraction(1, 2)))
    y = tripod.point("o", "q", L(Fraction(3, 4)))
    # through o: 1/2 + 3/4
    assert distance(tripod, x, y) == L(Fraction(5, 4))
    # same edge
    z = tripod.point("o", "p", L(Fraction(7, 8)))
    assert distance(tripod, x, z) == L(Fraction(3, 8))


def test_point_canonicalization(tripod):
    # offset 0 and full length snap to the endpoints
    assert tripod.point("o", "p", L(0)) == Vertex("o")
    assert tripod.point("o", "p", L(1)) == Vertex("p")
    # both orientations name the same interior point
    assert tripod.point("o", "p", L(Fraction(1, 4))) == tripod.point(
        "p", "o", L(Fraction(3, 4))
    )
    with pytest.raises(TreeError):
        tripod.point("o", "p", L(2))


def test_point_at_walks_geodesic(tripod):
    p, q = Vertex("p"), Vertex("q")
    legs = geodesic_legs(tripod, p, q)
    assert point_at(tripod, legs, L(0)) == p
    assert point_at(tripod, legs, L(1)) == Vertex("o")
    assert point_at(tripod, legs, L(Fraction(3, 2))) == tripod.point(
        "o", "q", L(Fraction(1, 2))
    )
    assert point_at(tripod, legs, L(2)) == q
    with pytest.raises(TreeError):
        point_at(tripod, legs, L(3))


def test_median(tripod):
    assert median(tripod, Vertex("p"), Vertex("q"), Vertex("r")) == Vertex("o")
    # median of collinear points is the middle one
    x = tripod.point("o", "p", L(Fraction(1, 2)))
    assert median(tripod, Vertex("p"), x, Vertex("o")) == x


def test_median_characterization_random():
    rng = random.Random(5)
    for _ in range(25):
        T = random_tree(rng, rng.randint(2, 7), rank=2)
        vs = sorted(T.vertices)
        a, b, c = (Vertex(rng.choice(vs)) for _ in range(3))
        m = median(T, a, b, c)
        for x, y in ((a, b), (b, c), (a, c)):
            assert distance(T, x, m) + distance(T, m, y) == distance(T, x, y)


def test_mixed_rank_distances(mixed):
    a, c = Vertex("a"), Vertex("c")
    assert distance(mixed, a, c) == L(1, Fraction(3, 2))
    x = mixed.point("b", "c", L(0, Fraction(1, 2)))
    assert distance(mixed, a, x) == L(1, 1)


# metric validation ---------------------------------------------------------------


def test_validator_accepts_tree_tables():
    rng = random.Random(7)
    for _ in range(20):
        T = random_tree(rng, rng.randint(1, 8), rank=rng.randint(1, 3))
        table = FiniteLambdaMetric.from_tree(T)
        res = validate_tree_metric(table)
        assert res.ok, res.witness
        assert "vacuous" in res.note


def test_validator_rejects_square_cycle():
    one, two, zero = L(1), L(2), L(0)
    labels = ["p", "q", "r", "s"]
    # cycle metric: graph distance on a 4-cycle with unit edges
    d = [
        [zero, one, two, one],
        [one, zero, one, two],
        [two, one, zero, one],
        [one, two, one, zero],
    ]
    res = validate_tree_metric(FiniteLambdaMetric(labels, d, 1))
    assert not res.ok
    assert res.kind == "four-point"
    assert set(res.witness) == set(labels)


def test_validator_rejects_triangle_violation():
    zero = L(0)
    d = [
        [zero, L(1), L(5)],
        [L(1), zero, L(1)],
        [L(5), L(1), zero],
    ]
    res = validate_tree_metric(FiniteLambdaMetric(["a", "b", "c"], d, 1))
    assert not res.ok
    assert res.kind == "triangle-inequality"


def test_validator_rejects_degenerate_tables():
    zero = L(0)
    res = validate_tree_metric(
        FiniteLambdaMetric(["a", "b"], [[zero, zero], [zero, zero]], 1)
    )
    assert not res.ok and res.kind == "non-separation"
    res = validate_tree_metric(
        FiniteLambdaMetric(["a", "b"], [[zero, L(1)], [L(2), zero]], 1)
    )
    assert not res.ok and res.kind == "asymmetry"
    res = validate_tree_metric(FiniteLambdaMetric(["a"], [[L(1)]], 1))
    assert not res.ok and res.kind == "nonzero-diagonal"
    with pytest.raises(TreeError):  # a rank-2 distance in a rank-1 table
        FiniteLambdaMetric(["a", "b"], [[zero, L(1, 0)], [L(1, 0), zero]], 1)
    # no points means nothing was checked, so the verdict cannot be a pass
    with pytest.raises(TreeError):
        validate_tree_metric(FiniteLambdaMetric([], [], 1))


# the exhaustive scan over LexValue, kept as the oracle for the integer-packed
# validator: same axiom pass, then triangle and four-point on Fraction tuples


def exhaustive_scan(M: FiniteLambdaMetric) -> ValidationResult:
    m = len(M.labels)
    zero = LexValue.zero(M.rank)
    d = M.dist
    for i in range(m):
        if not d[i][i].is_zero():
            return ValidationResult(False, "nonzero-diagonal", (M.labels[i],))
        for j in range(m):
            if d[i][j] != d[j][i]:
                return ValidationResult(False, "asymmetry", (M.labels[i], M.labels[j]))
            if i != j and not d[i][j] > zero:
                return ValidationResult(False, "non-separation", (M.labels[i], M.labels[j]))
    for i, j, k in itertools.combinations(range(m), 3):
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            if d[a][c] > d[a][b] + d[b][c]:
                return ValidationResult(
                    False, "triangle-inequality", (M.labels[a], M.labels[b], M.labels[c])
                )
    for i, j, k, l in itertools.combinations(range(m), 4):
        s1 = d[i][j] + d[k][l]
        s2 = d[i][k] + d[j][l]
        s3 = d[i][l] + d[j][k]
        sums = sorted([s1, s2, s3])
        if sums[2] > sums[1]:
            return ValidationResult(
                False, "four-point", (M.labels[i], M.labels[j], M.labels[k], M.labels[l])
            )
    return ValidationResult(True, "", ())


def assert_same_verdict(M):
    got, want = validate_tree_metric(M), exhaustive_scan(M)
    assert (got.ok, got.kind, got.witness) == (want.ok, want.kind, want.witness)
    return want.kind or "pass"


def rationals(lo, hi, max_den):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, max_den))


def small_values(rank):
    """Any sign, rational coordinates."""
    return st.lists(rationals(-6, 6, 3), min_size=rank, max_size=rank).map(LexValue)


def radix_values(rank):
    """Top coordinate 0 or 1, lower coordinates up to 1000 in absolute value:
    sums whose lower coordinates nearly cancel a unit on top, where a radix
    below 4B + 1 would misorder them."""
    return st.builds(
        lambda top, low: LexValue([top] + low),
        st.integers(0, 1),
        st.lists(rationals(-1000, 1000, 2), min_size=rank - 1, max_size=rank - 1),
    )


def _positive(v):
    """v if positive, else v with its top coordinate set to 1."""
    return v if v > LexValue.zero(v.rank) else LexValue([1, *v.coords[1:]])


@st.composite
def tables(draw, ranks, values):
    """Distances between some vertices of a random tree, listed in a random
    order; then maybe one entry, or a symmetric pair, replaced by or shifted
    by a random value."""
    rank = draw(ranks)
    vals = values(rank)
    n = draw(st.integers(1, 8))
    verts = [f"v{i}" for i in range(n)]
    edges = [(verts[i], verts[draw(st.integers(0, i - 1))], _positive(draw(vals)))
             for i in range(1, n)]
    T = MetricTree(verts, edges, rank)
    order = draw(st.permutations(verts))[: draw(st.integers(1, n))]
    M = FiniteLambdaMetric.from_tree(T, [Vertex(v) for v in order], order)
    m = len(order)
    d = [list(row) for row in M.dist]
    mode = draw(st.sampled_from(["none", "entry", "pair", "shift"]))
    if mode == "entry":
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        d[i][j] = draw(vals)
    elif mode in ("pair", "shift") and m >= 2:
        i, j = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        v = draw(vals)
        d[i][j] = d[j][i] = v if mode == "pair" else d[i][j] + v
    return FiniteLambdaMetric(order, d, rank)


@st.composite
def symmetric_tables(draw, ranks, values):
    """Symmetric tables with a zero diagonal and positive entries drawn one
    by one: most break the triangle inequality somewhere."""
    rank = draw(ranks)
    m = draw(st.integers(3, 5))
    d = [[LexValue.zero(rank)] * m for _ in range(m)]
    for i, j in itertools.combinations(range(m), 2):
        d[i][j] = d[j][i] = _positive(draw(values(rank)))
    return FiniteLambdaMetric([f"p{i}" for i in range(m)], d, rank)


@settings(max_examples=400, deadline=None)
@given(tables(st.integers(1, 3), small_values))
def test_validator_matches_exhaustive_scan(M):
    assert_same_verdict(M)


@settings(max_examples=400, deadline=None)
@given(st.one_of(tables(st.integers(2, 3), radix_values),
                 symmetric_tables(st.integers(2, 3), radix_values)))
def test_validator_matches_exhaustive_scan_near_radix_bound(M):
    assert_same_verdict(M)


@pytest.mark.parametrize("kind", ["pass", "nonzero-diagonal", "asymmetry", "non-separation",
                                  "triangle-inequality", "four-point"])
def test_differential_tables_reach_every_kind(kind):
    find(tables(st.integers(1, 3), small_values),
         lambda M: (exhaustive_scan(M).kind or "pass") == kind,
         settings=settings(max_examples=2000, database=None, phases=[Phase.generate]))


def genuine(M, res) -> bool:
    """Whether the witness of a triangle or four-point verdict breaks that
    inequality, recomputed in LexValue on its own points."""
    d, at = M.dist, {label: k for k, label in enumerate(M.labels)}
    w = [at[label] for label in res.witness]
    if res.kind == "triangle-inequality":
        a, b, c = w
        return d[a][c] > d[a][b] + d[b][c]
    i, j, k, l = w
    sums = sorted([d[i][j] + d[k][l], d[i][k] + d[j][l], d[i][l] + d[j][k]])
    return res.kind == "four-point" and len(set(w)) == 4 and sums[2] > sums[1]


@settings(max_examples=400, deadline=None)
@given(st.one_of(tables(st.integers(1, 3), small_values),
                 symmetric_tables(st.integers(2, 3), radix_values)))
def test_insertion_check_matches_exhaustive_scan_with_genuine_witnesses(M):
    """With no scan for the witness, the verdict is the scan's and every
    triangle or four-point witness is a violation."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lambdatree, "_SCAN_POINTS", 0)
        got = validate_tree_metric(M)
    want = exhaustive_scan(M)
    assert got.ok == want.ok
    if got.kind in ("triangle-inequality", "four-point"):
        assert genuine(M, got)
    else:
        assert (got.kind, got.witness) == (want.kind, want.witness)


def test_insertion_check_needs_the_full_radix():
    """A tree metric where g(x, y) - g(x, y') = (1, -8) with B = 2: packed
    with K = 3B + 1 that difference reads negative, the check picks y' as
    the earlier point nearest x and reports a four-point failure; 4B + 1
    orders it right.  (Points 0, y, y', x; 0-m, m-y', m-n, n-y, n-x.)"""
    rows = {(0, 1): (1, -2), (0, 2): (1, 2), (0, 3): (1, -2),
            (1, 2): (1, -2), (1, 3): (0, 2), (2, 3): (1, -2)}
    d = [[L(*rows[min(i, j), max(i, j)]) if i != j else L(0, 0) for j in range(4)]
         for i in range(4)]
    M = FiniteLambdaMetric(["0", "y", "y'", "x"], d, 2)
    assert exhaustive_scan(M).ok
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lambdatree, "_SCAN_POINTS", 0)
        assert validate_tree_metric(M).ok


def tree_table(rng, m, rank):
    """Distances between m vertices of a random tree of 2m vertices, in a
    random order."""
    T = random_tree(rng, 2 * m, rank)
    points = rng.sample(sorted(T.vertices), m)
    return FiniteLambdaMetric.from_tree(T, [Vertex(v) for v in points], points)


def test_validator_has_no_point_cap():
    """Tables of 33-40 points from trees pass; perturbed, they agree with
    the exhaustive scan, and each witness is a violation."""
    rng, kinds = random.Random(33), set()
    for m in range(33, 41):
        rank = rng.randint(1, 3)
        M = tree_table(rng, m, rank)
        assert validate_tree_metric(M).ok
        d = [list(row) for row in M.dist]
        i, j = rng.sample(range(m), 2)
        step = LexValue([0] * (rank - 1) + [Fraction(rng.choice((-1, 1)), rng.randint(1, 3))])
        d[i][j] = d[j][i] = d[i][j] + step if m % 2 else d[i][j].scale(rng.randint(3, 5))
        P = FiniteLambdaMetric(M.labels, d, rank)
        got = validate_tree_metric(P)
        assert got.ok == exhaustive_scan(P).ok
        if not got.ok:
            assert genuine(P, got)
            kinds.add(got.kind)
    assert kinds == {"triangle-inequality", "four-point"}


def full_scan(p: list):
    """The witness scan over every tuple, as `lambdatree._scan` read packed
    distances before it started from the insertion check's failing point."""
    for i, j, k in itertools.combinations(range(len(p)), 3):
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            if p[a][c] > p[a][b] + p[b][c]:
                return "triangle-inequality", (a, b, c)
    for i, j, k, l in itertools.combinations(range(len(p)), 4):
        sums = sorted([p[i][j] + p[k][l], p[i][k] + p[j][l], p[i][l] + p[j][k]])
        if sums[2] > sums[1]:
            return "four-point", (i, j, k, l)
    return None


def _positive_row(rng, rank):
    """A random positive length as `rank` ints: its first nonzero one positive."""
    row = [rng.randint(0, 2)] + [rng.randint(-2, 2) for _ in range(rank - 1)]
    return row if row > [0] * rank else [1] + row[1:]


def violated_table(rng, m, rank):
    """m points of a random tree in a random order, with a violation at a
    random place: a pair perturbed, a row shifted down, or a 4-cycle c0-c3
    hung by an edge at c0 from a random vertex, its points (numbered -1 to
    -4) at random places among the others."""
    T = random_tree(rng, 2 * m, rank)
    mode = rng.choice(["pair", "row", "cycle"])
    points = rng.sample(range(2 * m), m)
    hang, side, stalk = rng.randrange(2 * m), _positive_row(rng, rank), _positive_row(rng, rank)
    if mode == "cycle":
        for k, at in enumerate(rng.sample(range(m), 4)):
            points[at] = -1 - k

    def dist(a, b):
        if a >= 0 and b >= 0:
            return T._drow(a, b)
        if a < 0 and b < 0:
            return [min(abs(a - b), 4 - abs(a - b)) * c for c in side]
        k, v = (-1 - a, b) if a < 0 else (-1 - b, a)
        return [min(k, 4 - k) * c + s + t for c, s, t in zip(side, stalk, T._drow(hang, v))]

    d = [[dist(a, b) for b in points] for a in points]
    i, j = rng.sample(range(m), 2)
    if mode == "pair":
        sign = rng.choice((-1, 1))
        d[i][j] = d[j][i] = [c + sign * s for c, s in zip(d[i][j], side)]
    elif mode == "row":
        for j in range(m):
            if j != i:
                d[i][j] = d[j][i] = [c - s for c, s in zip(d[i][j], side)]
    return FiniteLambdaMetric._from_rows([f"p{k}" for k in range(m)], d, rank, T._D)


def test_witness_scan_from_the_failing_point_is_the_full_scan(monkeypatch):
    """Tables of 9-32 points with a violation anywhere get the witness of
    the scan over every tuple, though the scan starts at the point where the
    insertion check failed; that point is often not the last."""
    seen, insertion = [], lambdatree._insertion_failure

    def spy(p):  # keeps the packed table and the insertion check's failure
        seen.append((p, insertion(p)))
        return seen[-1][1]

    monkeypatch.setattr(lambdatree, "_insertion_failure", spy)
    rng, kinds, early = random.Random(30), Counter(), 0
    for _ in range(240):
        M, seen[:] = violated_table(rng, rng.randint(9, 32), rng.randint(1, 3)), []
        got = validate_tree_metric(M)
        if not seen:  # the metric axioms failed first
            continue
        p, failure = seen[0]
        want = full_scan(p)
        assert (failure is None) == (want is None)
        if failure is not None:
            kind, witness = want
            assert (got.kind, got.witness) == (kind, tuple(M.labels[i] for i in witness))
            kinds[kind] += 1
            early += max(failure[1]) < len(p) - 1
    assert min(kinds["triangle-inequality"], kinds["four-point"]) >= 40 and early >= 75, (kinds, early)


def test_validator_passes_200_points_in_under_a_second():
    T = random_tree(random.Random(200), 400, 3)
    nums = random.Random(2).sample(range(400), 200)
    M = FiniteLambdaMetric._from_rows([T._ids[a] for a in nums],
                                      [[T._drow(a, b) for b in nums] for a in nums], 3, T._D)
    start = time.perf_counter()
    assert validate_tree_metric(M).ok
    assert time.perf_counter() - start < 1


def test_validator_huge_coordinates():
    big = 10**30
    rng = random.Random(30)
    for rank in (1, 2, 3):
        for _ in range(30):
            T = random_tree(rng, rng.randint(2, 7), rank)
            edges = [(u, v, LexValue([c * big + rng.randint(-big, big) if i else c * big + 1
                                      for i, c in enumerate(ln.coords)]))
                     for (u, v), ln in T.edges.items()]
            T = MetricTree(T.vertices, edges, rank)
            M = FiniteLambdaMetric.from_tree(T)
            assert assert_same_verdict(M) == "pass"
            d = [list(row) for row in M.dist]
            m = len(d)
            i, j = rng.sample(range(m), 2)
            d[i][j] = d[j][i] = d[i][j] + LexValue([0] * (rank - 1) + [Fraction(rng.choice((-1, 1)), big)])
            assert_same_verdict(FiniteLambdaMetric(M.labels, d, rank))


# geodesics against the search engine the rooted one replaced: a distance dict
# per source, a DFS per vertex path, and a minimum over exit endpoints


def neighbours(T: MetricTree) -> dict:
    nbrs = {v: [] for v in T.vertices}
    for u, v in T.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def search_dists(T: MetricTree, src) -> dict:
    nbrs = neighbours(T)
    dists = {src: LexValue.zero(T.rank)}
    stack = [src]
    while stack:
        w = stack.pop()
        for nb in nbrs[w]:
            if nb not in dists:
                dists[nb] = dists[w] + T.edge_length(w, nb)
                stack.append(nb)
    return dists


def search_path(T: MetricTree, u, v) -> list:
    nbrs = neighbours(T)
    parent = {u: None}
    stack = [u]
    while stack:
        w = stack.pop()
        if w == v:
            break
        for nb in nbrs[w]:
            if nb not in parent:
                parent[nb] = w
                stack.append(nb)
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    return path[::-1]


def search_exit(T: MetricTree, x: EdgeInterior, target):
    ln = T.edge_length(x.u, x.v)
    du = x.offset + search_dists(T, x.u)[target]
    dv = (ln - x.offset) + search_dists(T, x.v)[target]
    return x.u if du < dv else x.v


def search_legs(T: MetricTree, x, y) -> list[tuple]:
    zero = LexValue.zero(T.rank)
    if x == y:
        return []
    if (isinstance(x, EdgeInterior) and isinstance(y, EdgeInterior)
            and T._key(x.u, x.v) == T._key(y.u, y.v)):
        return [(x.u, x.v, x.offset, y.offset)]
    legs = []
    if isinstance(x, EdgeInterior):
        ex = search_exit(T, x, y.id if isinstance(y, Vertex) else y.u)
        entry = y.id if isinstance(y, Vertex) else None
        if isinstance(y, EdgeInterior):
            best = None
            for e, de in ((x.u, x.offset), (x.v, T.edge_length(x.u, x.v) - x.offset)):
                for f, df in ((y.u, y.offset), (y.v, T.edge_length(y.u, y.v) - y.offset)):
                    total = de + search_dists(T, e)[f] + df
                    if best is None or total < best[0]:
                        best = (total, e, f)
            ex, entry = best[1], best[2]
        legs.append((x.u, x.v, x.offset, zero if ex == x.u else T.edge_length(x.u, x.v)))
        start = ex
    else:
        start = x.id
        entry = search_exit(T, y, start) if isinstance(y, EdgeInterior) else y.id
    path = search_path(T, start, entry)
    for a, b in zip(path, path[1:]):
        cu, cv = T._key(a, b)
        ln = T.edge_length(cu, cv)
        legs.append((cu, cv, zero, ln) if a == cu else (cu, cv, ln, zero))
    if isinstance(y, EdgeInterior):
        legs.append((y.u, y.v, zero if entry == y.u else T.edge_length(y.u, y.v), y.offset))
    return [leg for leg in legs if leg[2] != leg[3]]


@st.composite
def tree_point_pairs(draw):
    """A random tree of rank 1-3 and two points on it, vertices or interior
    points, drawn anywhere, on one edge, on two edges at a common vertex, or
    with one on an edge at the root."""
    rank = draw(st.integers(1, 3))
    n = draw(st.integers(1, 9))
    verts = [f"v{i}" for i in range(n)]
    T = MetricTree(verts, [(verts[i], verts[draw(st.integers(0, i - 1))],
                            _positive(draw(small_values(rank)))) for i in range(1, n)], rank)
    edges = sorted(T.edges)

    def interior(u, v):
        k = draw(st.integers(1, 5))
        return T.point(u, v, T.edge_length(u, v).scale(Fraction(k, 6)))

    def anywhere():
        if not edges or draw(st.booleans()):
            return Vertex(draw(st.sampled_from(verts)))
        return interior(*draw(st.sampled_from(edges)))

    kind = draw(st.sampled_from(["anywhere", "same-edge", "adjacent", "root"]))
    if kind == "same-edge" and edges:
        e = draw(st.sampled_from(edges))
        return T, interior(*e), interior(*e)

    def nbrs(w):
        return [T._ids[c] for c, _row in T._adj[T._index[w]]]

    hubs = [w for w in verts if len(nbrs(w)) >= 2]
    if kind == "adjacent" and hubs:
        w = draw(st.sampled_from(hubs))
        a, b = draw(st.lists(st.sampled_from(nbrs(w)), min_size=2, max_size=2, unique=True))
        return T, interior(w, a), interior(w, b)
    root = T._ids[0]  # the rooting walk starts at vertex 0
    if kind == "root" and nbrs(root):
        x, y = interior(root, draw(st.sampled_from(nbrs(root)))), anywhere()
        return (T, x, y) if draw(st.booleans()) else (T, y, x)
    return T, anywhere(), anywhere()


@settings(max_examples=400, deadline=None)
@given(tree_point_pairs())
def test_geodesics_match_search_engine(case):
    T, x, y = case
    legs = search_legs(T, x, y)
    assert geodesic_legs(T, x, y) == legs
    total = LexValue.zero(T.rank)
    for _u, _v, a, b in legs:
        total = total + abs(b - a)
    assert distance(T, x, y) == total
    for u in T.vertices:
        dists = search_dists(T, u)
        for v in T.vertices:
            assert distance(T, Vertex(u), Vertex(v)) == dists[v]


# subtrees and projection ----------------------------------------------------------


def test_subtree_spec_contains(tripod):
    spec = SubtreeSpec(tripod, [Vertex("p"), Vertex("q")])
    assert spec.contains(Vertex("o"))
    assert spec.contains(tripod.point("o", "p", L(Fraction(1, 2))))
    assert not spec.contains(Vertex("r"))
    assert not is_degenerate(spec)
    assert len(spec.grid_points()) >= 3


def test_projection_is_identity_on_subtree(tripod):
    x = tripod.point("o", "q", L(Fraction(1, 3)))
    assert median(tripod, Vertex("p"), Vertex("q"), x) == x


def test_projection_examples(tripod):
    # r projects onto [p, q] at the center
    assert median(tripod, Vertex("p"), Vertex("q"), Vertex("r")) == Vertex("o")
    x = tripod.point("o", "r", L(Fraction(2, 3)))
    assert median(tripod, Vertex("p"), Vertex("q"), x) == Vertex("o")
    # projection onto a clipped interval lands on the interval endpoint
    a, b = (tripod.point("o", "p", L(Fraction(k, 4))) for k in (1, 3))
    assert median(tripod, a, b, Vertex("q")) == a
    assert median(tripod, a, b, Vertex("p")) == b


def _leg_walk_projection(T, Y, x):
    """The reference: walk the legs of [y0, x] from y0, the first grid point,
    building a point for every leg end, until one leaves Y."""
    if Y.contains(x):
        return x
    y0 = Y.grid_points()[0]
    cur = y0
    for u, v, a, b in geodesic_legs(T, y0, x):
        end = T.point(u, v, b)
        if Y.contains(end):
            cur = end
            continue
        if (u, v) not in Y.intervals:
            return cur
        lo, hi = Y.intervals[u, v]
        return T.point(u, v, min(b, hi) if b > a else max(b, lo))
    return cur


@settings(max_examples=300, deadline=None)
@given(tree_point_pairs(), st.booleans())
def test_median_projection_matches_the_leg_walk(case, hull):
    """median(x, y, z) is the projection of z onto [x, y]: onto the hull of
    two points (or of one, x = y, maybe interior: a spec with no vertex),
    from every vertex and from points a third along every edge."""
    T, x, y = case
    if not hull:
        y = x
    Y = SubtreeSpec(T, [x, y])
    targets = [Vertex(v) for v in T.vertices] + [
        T.point(u, v, ln.scale(Fraction(k, 3))) for (u, v), ln in T.edges.items() for k in (1, 2)]
    for z in targets:
        assert median(T, x, y, z) == _leg_walk_projection(T, Y, z)


def test_projection_bridge_property():
    """d(x, y) = d(x, proj(x)) + d(proj(x), y) for every y in the subtree."""
    rng = random.Random(13)
    for _ in range(30):
        T = random_tree(rng, rng.randint(2, 8), rank=2)
        vs = sorted(T.vertices)
        anchors = [Vertex(v) for v in rng.sample(vs, k=min(len(vs), 2))]
        spec = SubtreeSpec(T, anchors)
        x = Vertex(rng.choice(vs))
        p = median(T, anchors[0], anchors[-1], x)
        assert spec.contains(p)
        for v in vs:
            y = Vertex(v)
            if spec.contains(y):
                assert distance(T, x, y) == distance(T, x, p) + distance(T, p, y)


@given(st.lists(st.one_of(st.integers(-50, 50), st.text(max_size=3),
                          st.tuples(st.sampled_from("ab"), st.integers(0, 20))),
                min_size=1, max_size=12, unique=True))
def test_vertices_are_numbered_in_id_key_order(ids):
    """With one class of id the tree sorts by repr alone: the same order."""
    for vs in (ids, [v for v in ids if type(v) is type(ids[0])]):
        T = MetricTree(vs, [(u, v, L(1)) for u, v in zip(vs, vs[1:])], 1)
        assert T._ids == sorted(vs, key=_id_key)


class _Spelled:
    """An id whose repr is its spelling."""

    def __init__(self, s):
        self.s = s

    def __repr__(self):
        return self.s


def test_to_json_sorts_edges_by_repr_where_number_order_differs():
    """"a" sorts before "a!", yet "(a!, z)" before "(a, z)": "!" < ",".  So
    a tree's document lists edges in number order only for ids of str, int or
    tuple."""
    a, b, z = (_Spelled(s) for s in ("a", "a!", "z"))
    T = MetricTree([a, b, z], [(a, z, L(1)), (b, z, L(1))], 1)
    assert T._ids == [a, b, z]
    assert [e["u"] for e in tree_json(T)["edges"]] == ["a!", "a"]


# ids of each kind the edge order tells apart; text reaches past ASCII and
# holds quotes, backslashes and control characters, which JSON escapes
JSON_IDS = {"str": st.text(min_size=1, max_size=3), "int": st.integers(-30, 30),
            "tuple": st.tuples(st.sampled_from(["x", 'y"']), st.integers(0, 12)),
            "spelled": st.text(max_size=3).map(_Spelled)}
JSON_IDS["mixed"] = st.one_of(JSON_IDS["str"], JSON_IDS["int"], JSON_IDS["tuple"])


@st.composite
def json_trees(draw):
    """A tree of 1-9 vertices of one kind of id, rank 1-3, fractional lengths."""
    ids = draw(st.lists(JSON_IDS[draw(st.sampled_from(sorted(JSON_IDS)))], min_size=1,
                        max_size=9, unique=True))
    rank = draw(st.integers(1, 3))
    coord = st.fractions(-4, 4, max_denominator=draw(st.sampled_from([1, 6])))
    edges = []
    for i in range(1, len(ids)):
        row = draw(st.lists(coord, min_size=rank, max_size=rank))
        if row < [0] * rank:
            row = [-c for c in row]
        if not any(row):
            row[-1] = Fraction(1, 3)
        edges.append((ids[i], ids[draw(st.integers(0, i - 1))], LexValue(row)))
    return MetricTree(ids, edges, rank)


@settings(max_examples=300, deadline=None)
@given(json_trees())
def test_json_text_matches_the_document_built_edge_by_edge(T):
    """json_text writes in one pass what the report writer wrote of the
    tree's document, at any depth of a report."""
    text, doc = JSONText(T.json_text()), tree_json(T)
    assert json.loads(text) == doc
    assert _dumps({"tree": text, "status": "pass", "deeper": [{"t": text}]}) == json.dumps(
        {"tree": doc, "status": "pass", "deeper": [{"t": doc}]}, sort_keys=True, indent=2)


def test_intersect_specs(tripod):
    pq = SubtreeSpec(tripod, [Vertex("p"), Vertex("q")])
    qr = SubtreeSpec(tripod, [Vertex("q"), Vertex("r")])
    # [p, q] and [q, r] share the whole leg from o to q
    assert intersect_specs(pq, qr) is None
    # [p, q] and [o, r] meet only at the center
    o_r = SubtreeSpec(tripod, [Vertex("o"), Vertex("r")])
    assert intersect_specs(pq, o_r) == {Vertex("o")}
    # overlapping intervals on one edge
    a = SubtreeSpec(
        tripod,
        [tripod.point("o", "p", L(Fraction(1, 4))), tripod.point("o", "p", L(Fraction(3, 4)))],
    )
    b = SubtreeSpec(tripod, [tripod.point("o", "p", L(Fraction(1, 2))), Vertex("p")])
    assert intersect_specs(a, b) is None
    # disjoint
    x = SubtreeSpec(tripod, [tripod.point("o", "p", L(Fraction(1, 4)))])
    y = SubtreeSpec(tripod, [Vertex("r")])
    assert intersect_specs(x, y) == set()


def test_intersect_single_point_on_edge(tripod):
    m = tripod.point("o", "p", L(Fraction(1, 2)))
    a = SubtreeSpec(tripod, [Vertex("o"), m])
    b = SubtreeSpec(tripod, [m, Vertex("p")])
    assert intersect_specs(a, b) == {m}


@st.composite
def tree_points(draw, lists):
    """A random tree of rank 1-2 and `lists` lists of 1-3 of its points,
    vertices or points a quarter, a half or three quarters along an edge."""
    rank = draw(st.integers(1, 2))
    n = draw(st.integers(1, 7))
    verts = [f"v{i}" for i in range(n)]
    T = MetricTree(verts, [(verts[i], verts[draw(st.integers(0, i - 1))],
                            _positive(draw(small_values(rank)))) for i in range(1, n)], rank)
    edges = sorted(T.edges)
    point = st.one_of(st.sampled_from(verts).map(Vertex), *([] if not edges else [
        st.tuples(st.sampled_from(edges), st.integers(1, 3)).map(
            lambda e: T.point(*e[0], T.edge_length(*e[0]).scale(Fraction(e[1], 4))))]))
    return T, [draw(st.lists(point, min_size=1, max_size=3)) for _ in range(lists)]


@settings(max_examples=300, deadline=None)
@given(tree_points(1))
def test_hull_is_the_union_of_the_geodesics_between_its_points(case):
    """Every vertex and every point a quarter, a third, a half, two thirds or
    three quarters along an edge lies in the hull exactly when it lies on the
    geodesic between two of the given points (a point and itself included);
    and every edge whose two ends lie in the hull is whole in it."""
    T, (points,) = case
    spec = SubtreeSpec(T, points)
    targets = [Vertex(v) for v in T.vertices] + [
        T.point(u, v, ln.scale(f)) for (u, v), ln in T.edges.items()
        for f in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))]
    for x in targets:
        assert spec.contains(x) == any(
            distance(T, p, x) + distance(T, x, q) == distance(T, p, q)
            for p, q in itertools.combinations_with_replacement(points, 2))
    for (u, v), ln in T.edges.items():
        if u in spec.vertices and v in spec.vertices:
            assert spec.intervals[(u, v)] == (LexValue.zero(T.rank), ln)


@settings(max_examples=300, deadline=None)
@given(tree_points(2))
def test_intersect_specs_matches_the_grid_points(case):
    """None exactly when two grid points of Y1 or Y2 lie in both (then the
    two share a segment), and otherwise the set of those that do."""
    T, (a, b) = case
    Y1, Y2 = SubtreeSpec(T, a), SubtreeSpec(T, b)
    shared = {p for p in Y1.grid_points() + Y2.grid_points() if Y1.contains(p) and Y2.contains(p)}
    assert intersect_specs(Y1, Y2) == (None if len(shared) > 1 else shared)


# errors and rare branches ------------------------------------------------------


def test_tree_and_point_errors(tripod):
    with pytest.raises(TreeError, match="^empty subtree$"):
        SubtreeSpec(tripod, [])
    with pytest.raises(TreeError, match="^edge length must be a LexValue$"):
        MetricTree(["a", "b"], [("a", "b", 1)], 1)
    with pytest.raises(TreeError, match="^loop edge$"):
        MetricTree(["a", "b"], [("a", "a", L(1)), ("a", "b", L(1))], 1)
    with pytest.raises(TreeError, match="^vertex 'z' not in tree$"):
        tripod.check_point(Vertex("z"))
    with pytest.raises(TreeError, match=r"^interior offset \(2\) out of range$"):
        tripod.check_point(EdgeInterior("o", "p", L(2)))
    with pytest.raises(TreeError, match="^bad point syntax 'o:p'$"):
        lambdatree._parse_point(tripod, "o:p")
    legs = geodesic_legs(tripod, Vertex("p"), Vertex("q"))
    for legs, s, message in [(legs, L(-1), "negative arclength"),
                             ([], L(0), "cannot locate a point on an empty geodesic"),
                             ([], L(1), "arclength beyond geodesic end")]:
        with pytest.raises(TreeError, match=f"^{message}$"):
            point_at(tripod, legs, s)


def test_verdicts_read_as_booleans_and_the_scan_of_a_tree_finds_nothing(tripod):
    table = FiniteLambdaMetric.from_tree(tripod)
    assert validate_tree_metric(table).ok and not ValidationResult(False, "asymmetry", ("a", "b")).ok
    assert lambdatree._scan([[0, 1], [1, 0]], 0) is None


def test_kill_infinitesimals_needs_rank_2(tripod):
    with pytest.raises(TreeError, match="^kill_infinitesimals needs rank >= 2$"):
        kill_infinitesimals(tripod)


# base change ----------------------------------------------------------------------


def test_kill_infinitesimals_contracts(mixed):
    T1, vmap = kill_infinitesimals(mixed)
    assert T1.rank == 1
    # b and c are infinitesimally close, so they merge
    assert vmap["b"] == vmap["c"]
    assert vmap["a"] != vmap["b"]
    assert distance(T1, Vertex(vmap["a"]), Vertex(vmap["b"])) == L(1)


def test_kill_infinitesimals_commutes_with_projection():
    rng = random.Random(23)
    for _ in range(40):
        T = random_tree(rng, rng.randint(1, 8), rank=2)
        T1, vmap = kill_infinitesimals(T)
        vs = sorted(T.vertices)
        for _ in range(6):
            u, v = rng.choice(vs), rng.choice(vs)
            d = distance(T, Vertex(u), Vertex(v))
            d1 = distance(T1, Vertex(vmap[u]), Vertex(vmap[v]))
            assert d1 == project_top(d, 1)


def test_kill_infinitesimals_all_infinitesimal():
    T = MetricTree(["a", "b"], [("a", "b", L(0, 1))], 2)
    T1, vmap = kill_infinitesimals(T)
    assert len(T1.vertices) == 1
    assert vmap["a"] == vmap["b"]


# serialization --------------------------------------------------------------------


def test_tree_json_roundtrip(mixed):
    T2 = MetricTree.from_json(tree_json(mixed))
    assert T2.rank == mixed.rank
    assert set(T2.vertices) == set(mixed.vertices)
    assert distance(T2, Vertex("a"), Vertex("c")) == L(1, Fraction(3, 2))


def test_metric_json_roundtrip(tripod):
    table = FiniteLambdaMetric.from_tree(tripod)
    back = FiniteLambdaMetric.from_json(table.to_json())
    assert validate_tree_metric(back).ok


# the int-row build against LexValues ------------------------------------------------
#
# from_json reads every coordinate to ints under one denominator per tree or
# table.  The reference below knows nothing of that: it builds each value
# through the public LexValue constructor and sums, orders and prints
# LexValues, on mixed and huge denominators, huge coordinates and vertex ids
# of mixed type (ints and strings whose repr order is not their own order).


def id_key(v):
    return (type(v).__name__, repr(v))


def ordered(u, v):
    return (u, v) if id_key(u) <= id_key(v) else (v, u)


def spellings(q: Fraction):
    """Strings and JSON ints that read as q, strict and not."""
    out = [str(q), f"{q.numerator * 3}/{q.denominator * 3}", f" {q} ", f"+{q}" if q >= 0 else str(q)]
    if q.denominator == 1:
        out += [q.numerator, f"{q.numerator}.0", f"{q.numerator}e0"]
    return st.sampled_from(out)


mixed_coords = st.one_of(
    rationals(-6, 6, 4),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.sampled_from([1, 3, 10**20 + 39])),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 10**25)),
)
vertex_ids = st.one_of(st.integers(-10**12, 10**12), st.text("ab'\"\\ !", max_size=3))


@st.composite
def tree_docs(draw):
    """A JSON tree with mixed spellings, and its vertices, rank and edges
    with LexValue lengths, in input order and input orientation."""
    rank = draw(st.integers(1, 3))
    verts = draw(st.lists(vertex_ids, min_size=1, max_size=9, unique=True))
    edges = []
    for i in range(1, len(verts)):
        coords = draw(st.lists(mixed_coords, min_size=rank, max_size=rank))
        ln = _positive(LexValue(coords))
        pair = (verts[i], verts[draw(st.integers(0, i - 1))])
        u, v = pair if draw(st.booleans()) else pair[::-1]
        edges.append((u, v, ln))
    edges = draw(st.permutations(edges))
    doc = {"rank": rank, "vertices": list(verts),
           "edges": [{"u": u, "v": v, "len": [draw(spellings(c)) for c in ln.coords]}
                     for u, v, ln in edges]}
    return doc, verts, rank, edges


def reference_points(verts, edges, rank):
    """Vertices and a few interior points as (u, v, offset from u, length)."""
    pts = list(verts)
    for u, v, ln in edges[:4]:
        pts.append((u, v, ln.scale(Fraction(1, 3)), ln))
    return pts


def reference_distance(dists, x, y, rank):
    zero = LexValue.zero(rank)

    def ends(p):
        if isinstance(p, tuple):
            u, v, off, ln = p
            return [(u, off), (v, ln - off)]
        return [(p, zero)]

    if isinstance(x, tuple) and isinstance(y, tuple) and {x[0], x[1]} == {y[0], y[1]}:
        off = y[2] if y[0] == x[0] else y[3] - y[2]
        return abs(x[2] - off)
    return min(da + dists[a][b] + db for a, da in ends(x) for b, db in ends(y))


def as_point(T, p):
    return T.point(p[0], p[1], p[2]) if isinstance(p, tuple) else Vertex(p)


@settings(max_examples=200, deadline=None)
@given(tree_docs())
def test_int_tree_matches_lexvalue_reference(case):
    doc, verts, rank, edges = case
    T = MetricTree.from_json(doc)
    S = MetricTree(verts, edges, rank)  # the public constructor
    want = {ordered(u, v): ln for u, v, ln in edges}
    for tree in (T, S):
        assert list(tree.edges.items()) == list(want.items())  # input order
        for u, v, ln in edges:
            assert tree.edge_length(u, v) == ln == tree.edge_length(v, u)
        assert tree_json(tree) == {
            "rank": rank, "vertices": sorted(str(v) for v in verts),
            "edges": [{"u": str(u), "v": str(v), "len": [str(c) for c in ln.coords]}
                      for (u, v), ln in sorted(want.items(), key=lambda kv: id_key(kv[0]))]}
    nbrs = {v: [] for v in verts}
    for u, v, ln in edges:
        nbrs[u].append((v, ln))
        nbrs[v].append((u, ln))
    dists = {}
    for s in verts:
        dists[s] = {s: LexValue.zero(rank)}
        stack = [s]
        while stack:
            w = stack.pop()
            for nb, ln in nbrs[w]:
                if nb not in dists[s]:
                    dists[s][nb] = dists[s][w] + ln
                    stack.append(nb)
    for a in verts:
        for b in verts:
            assert distance(T, Vertex(a), Vertex(b)) == dists[a][b] == distance(S, Vertex(a), Vertex(b))
    pts = reference_points(verts, edges, rank)
    for x in pts:
        for y in pts:
            want_d = reference_distance(dists, x, y, rank)
            assert distance(T, as_point(T, x), as_point(T, y)) == want_d
            assert distance(S, as_point(S, x), as_point(S, y)) == want_d


class RefTable:
    """A LexValue table as exhaustive_scan reads it, built without the
    int rows of FiniteLambdaMetric."""

    def __init__(self, labels, dist, rank):
        self.labels, self.dist, self.rank = labels, dist, rank


@st.composite
def table_docs(draw):
    rank = draw(st.integers(1, 3))
    values = st.lists(mixed_coords, min_size=rank, max_size=rank).map(LexValue)
    changes = st.one_of(st.just(LexValue.zero(rank)), small_values(rank), values)
    n = draw(st.integers(1, 6))
    labels = draw(st.lists(vertex_ids, min_size=n, max_size=n, unique=True))
    edges = [(labels[i], labels[draw(st.integers(0, i - 1))], _positive(draw(values)))
             for i in range(1, n)]
    T = MetricTree(labels, edges, rank)
    d = [[distance(T, Vertex(a), Vertex(b)) for b in labels] for a in labels]
    mode = draw(st.sampled_from(["none", "entry", "pair", "shift"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if mode == "entry":
        d[i][j] = draw(changes)
    elif mode in ("pair", "shift") and i != j:
        v = draw(changes)
        d[i][j] = d[j][i] = v if mode == "pair" else d[i][j] + v
    doc = {"rank": rank, "labels": labels,
           "dist": [[[draw(spellings(c)) for c in e.coords] for e in row] for row in d]}
    return doc, RefTable(labels, d, rank)


@settings(max_examples=200, deadline=None)
@given(table_docs())
def test_int_table_matches_lexvalue_reference(case):
    doc, ref = case
    want = exhaustive_scan(ref)
    for M in (FiniteLambdaMetric.from_json(doc), FiniteLambdaMetric(ref.labels, ref.dist, ref.rank)):
        assert M.dist == ref.dist
        got = validate_tree_metric(M)
        assert (got.ok, got.kind, got.witness) == (want.ok, want.kind, want.witness)


def reference_rat(x):
    """The coercion before strict strings took the int path: Fraction for
    every string, a ValueError for a zero denominator."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"cannot coerce {x!r} to a rational")


def outcome(f, x):
    try:
        q = f(x)
    except Exception as exc:
        return type(exc), str(exc)
    return type(q), q


NON_STRICT = [" 3", "+3", "1.5", "1e2", "1_0", "1/0", "-0", "3/-4", "1/", "/2", "--1", "",
              "0/0", "-7/00", "٣/٤", "3/٠", "1" * 4301, "1/" + "2" * 4301, 3, -10**40, 0,
              1.5, True, False, None, [1]]


@pytest.mark.parametrize("x", NON_STRICT, ids=[repr(x)[:12] for x in NON_STRICT])
def test_rat_spellings_match_fraction(x):
    want = outcome(reference_rat, x)
    assert outcome(_rat, x) == want
    if want[0] is Fraction:
        assert Fraction(*_ratio(x)) == want[1]
    else:
        assert outcome(_ratio, x) == want


# the one-pass reader takes plain strings; every other spelling, and a string
# that would split into two coordinates, goes through _ratio
READER_SPELLINGS = ["-0", "007", "6/4", "-7/002", "3/0", "3/-2", "+3", " 3", "1_0", "\u0663",
                    "3/\u0660", "1,2", "1\n2", "", "2-1", "--1", "1/2/3", "1" * 4301, 3, -10**40,
                    True, 1.5, None, [1]]


@pytest.mark.parametrize("x", READER_SPELLINGS, ids=[repr(x)[:12] for x in READER_SPELLINGS])
def test_reader_matches_ratio(x):
    """A tree or table document reads a coordinate as _ratio does: the same
    D and rows, or the same error."""
    def want(rows):
        D, scaled = _scaled([[_ratio(c) for c in row] for row in rows])
        return D, list(scaled)

    def tree(rows):
        T = MetricTree.from_json({"rank": 2, "vertices": ["a", "b", "c"], "edges": [
            {"u": "a", "v": "b", "len": rows[0]}, {"u": "c", "v": "b", "len": rows[1]}]})
        return T._D, [row for _a, _b, row in T._edges]

    def table(rows):
        M = FiniteLambdaMetric.from_json({"rank": 2, "labels": ["a", "b"],
                                          "dist": [rows[:2], rows[2:]]})
        return M._D, [cs for row in M._rows for cs in row]

    edges = [["1", x], ["2", "1/3"]]
    assert outcome(tree, edges) == outcome(want, edges)
    cells = [["0", "0"], [x, "5"], [x, "5"], ["0", "0"]]
    assert outcome(table, cells) == outcome(want, cells)


@pytest.mark.parametrize("row, message", [
    (["1,2"], "Invalid literal for Fraction: '1,2'"),
    (["1", "2", "3"], "edge c-b has rank 3, want 2"),
    ("12", "edge c-b must be a list of rationals, got '12'"), ([], "rank must be positive")])
def test_reader_refuses_a_row_of_the_wrong_shape(row, message):
    doc = {"rank": 2, "vertices": ["a", "b", "c"],
           "edges": [{"u": "a", "v": "b", "len": ["1", "2"]}, {"u": "c", "v": "b", "len": row}]}
    with pytest.raises(ValueError) as err:
        MetricTree.from_json(doc)
    assert str(err.value) == message


@given(st.text("-+/0123456789._e ", max_size=8))
def test_rat_matches_fraction_on_any_spelling(s):
    assert outcome(_rat, s) == outcome(reference_rat, s)
