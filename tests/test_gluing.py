import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lambdaforest.gluing import (
    CLASS_CAP,
    DualPoint,
    GluedEdge,
    GluingError,
    GraphOfActions,
    SegmentIso,
    check_free_criterion,
    dual_distance,
    dual_distance_bruteforce,
    fold_glued_tree,
    glue_equiv_class,
    glue_point,
    glue_subtree,
    subdivide_at,
)
from lambdaforest.cover import (CoverError, TransverseCovering, intersect_specs, same_set, skeleton,
                                transverse_check)
from lambdaforest.lambdatree import MetricTree, SubtreeSpec, TreeError, Vertex, distance, _id_key

from conftest import L, random_lex_positive, random_tree, tree_json


def unit_path(ids):
    return MetricTree(ids, [(ids[i], ids[i + 1], L(1)) for i in range(len(ids) - 1)], 1)


# subdivision ---------------------------------------------------------------------


def test_subdivide_at_transports_points():
    T = MetricTree(["a", "b"], [("a", "b", L(2))], 1)
    mid = T.point("a", "b", L(1))
    T2, mapper = subdivide_at(T, [mid])
    assert isinstance(mapper(mid), Vertex)
    assert mapper(Vertex("a")) == Vertex("a")
    q = mapper(T.point("a", "b", L("1/2")))
    assert distance(T2, mapper(Vertex("a")), q) == L("1/2")
    assert distance(T2, Vertex("a"), Vertex("b")) == L(2)


def test_subdivide_at_offsets_with_new_denominators():
    """The cut lengths have denominators (7, 9) that no edge of T has, so the
    subdivided tree is kept over a larger common denominator."""
    T = MetricTree(["a", "b", "c"], [("a", "b", L(2, "1/2")), ("c", "b", L(1, 0))], 2)
    cuts = [T.point("a", "b", L("1/7", 3)), T.point("a", "b", L("1/7", "-2/9")),
            T.point("b", "c", L("1/3", 5))]
    T2, mapper = subdivide_at(T, cuts)
    assert len(T2.vertices) == 6
    assert sorted(T2.edges.values()) == sorted([
        L("1/7", "-2/9"), L(0, "29/9"), L("13/7", -3 + Fraction(1, 2)),
        L("2/3", -5), L("1/3", 5)])
    for p in cuts:
        assert isinstance(mapper(p), Vertex)
    for x in (Vertex("a"), Vertex("c"), *cuts):
        for y in (Vertex("a"), Vertex("c"), *cuts):
            assert distance(T2, mapper(x), mapper(y)) == distance(T, x, y)


def test_subdivide_at_no_interior_point_is_the_identity():
    rng = random.Random(5)
    T = random_tree(rng, 12, rank=2)
    vertices = [Vertex(v) for v in rng.sample(sorted(T.vertices), 4)]
    for points in ([], vertices):
        T2, mapper = subdivide_at(T, points)
        assert T2 is T
        (u, v), ln = next(iter(T.edges.items()))
        for p in (*vertices, T.point(u, v, ln.scale(Fraction(1, 2)))):
            assert mapper(p) is p


# glued and subdivided trees take their numbering from their parts; checked
# against the slow path they replace: sorting every id by _id_key, the repr
# sort of the edges in the reference document (tree_json), and distances
# summed breadth first

IDS = {"str": st.text("ab'\"(), 1", min_size=1, max_size=3), "int": st.integers(-30, 30),
       "tuple": st.tuples(st.sampled_from(["x", "y'"]), st.integers(0, 12))}
IDS["mixed"] = st.one_of(IDS["str"], IDS["int"])
IDS["str-tuple"] = st.one_of(IDS["str"], IDS["tuple"])


def _shaped(ids, shape, rank):
    """The tree on ids with vertex i + 1 hung from vertex shape[i] by length i + 1."""
    return MetricTree(ids, [(ids[i + 1], ids[p], L(*[i + 1] * rank)) for i, p in enumerate(shape)],
                      rank)


def _assert_numbered_as_sorted(T):
    assert T._ids == sorted(T.vertices, key=_id_key)
    assert T._index == {v: i for i, v in enumerate(T._ids)}
    doc, r = tree_json(T), {v: repr(v) for v in T.vertices}
    assert doc["vertices"] == sorted(str(v) for v in T.vertices)
    want = sorted(T.edges, key=lambda k: f"({r[k[0]]}, {r[k[1]]})")
    assert [(e["u"], e["v"]) for e in doc["edges"]] == [(str(u), str(v)) for u, v in want]
    nbrs = {v: [] for v in T.vertices}
    for (u, v), ln in T.edges.items():
        nbrs[u].append((v, ln))
        nbrs[v].append((u, ln))
    src = T._ids[-1]
    dists, stack = {src: L(*[0] * T.rank)}, [src]
    while stack:
        w = stack.pop()
        for x, ln in nbrs[w]:
            if x not in dists:
                dists[x] = dists[w] + ln
                stack.append(x)
    assert {v: distance(T, Vertex(src), Vertex(v)) for v in T.vertices} == dists


@given(st.sampled_from(sorted(IDS)), st.integers(1, 2), st.data())
@settings(max_examples=120, deadline=None)
def test_glued_trees_are_numbered_as_a_sort_would(kind, rank, data):
    def tree(n_min=1):
        ids = data.draw(st.lists(IDS[kind], min_size=n_min, max_size=6, unique=True))
        return _shaped(ids, [data.draw(st.integers(0, i)) for i in range(len(ids) - 1)], rank)

    def anywhere(T):
        (u, v), ln = data.draw(st.sampled_from(sorted(T.edges.items(), key=repr)))
        return T.point(u, v, ln.scale(Fraction(data.draw(st.integers(1, 3)), 4)))

    base, arms = tree(), [tree() for _ in range(data.draw(st.integers(1, 3)))]
    glued, _, _ = glue_point(base, [(Y, data.draw(st.sampled_from(base._ids)),
                                     data.draw(st.sampled_from(Y._ids))) for Y in arms])
    assert "_r" not in vars(glued)  # no distance asked for yet
    _assert_numbered_as_sorted(glued)
    T1 = tree(n_min=2)
    _assert_numbered_as_sorted(subdivide_at(T1, [anywhere(T1) for _ in range(3)])[0])
    # the same shape on other ids, glued along a segment with interior ends
    ids2 = data.draw(st.lists(IDS[kind], min_size=len(T1._ids), max_size=len(T1._ids), unique=True))
    T2 = MetricTree(ids2, [(ids2[T1._index[u]], ids2[T1._index[v]], ln)
                           for (u, v), ln in T1.edges.items()], rank)
    ends = [anywhere(T1), Vertex(data.draw(st.sampled_from(T1._ids)))]
    images = [Vertex(ids2[T1._index[p.id]]) if isinstance(p, Vertex) else
              T2.point(ids2[T1._index[p.u]], ids2[T1._index[p.v]], p.offset) for p in ends]
    if ends[0] != ends[1]:
        twice, _, _ = glue_subtree(SegmentIso(T1, tuple(ends), T2, tuple(images)))
        _assert_numbered_as_sorted(twice)
        # a glue of a glued tree: nested tuple ids, and cut ids inside them
        _assert_numbered_as_sorted(glue_point(twice, [(glued, twice._ids[0], glued._ids[-1])])[0])
        _assert_numbered_as_sorted(subdivide_at(twice, [anywhere(twice)])[0])


# segment isometries --------------------------------------------------------------


def test_segment_iso_caches_what_a_fresh_one_builds():
    """phi builds its specs and its target legs once; every apply, in any
    order, equals that of a new SegmentIso, which builds them again."""
    for seed in range(20):
        rng = random.Random(seed)
        n, rank = rng.randint(2, 12), rng.randint(1, 2)
        T1 = random_tree(random.Random(seed), n, rank, prefix="v")
        T2 = random_tree(random.Random(seed), n, rank, prefix="w")  # the same tree, renamed
        i, j = rng.sample(range(n), 2)
        src, dst = (Vertex(f"v{i}"), Vertex(f"v{j}")), (Vertex(f"w{i}"), Vertex(f"w{j}"))
        if rng.random() < 0.5:
            dst = dst[::-1]
        phi = SegmentIso(T1, src, T2, dst)
        assert phi.src_spec is phi.src_spec and phi.dst_spec is phi.dst_spec
        assert same_set(phi.src_spec, SubtreeSpec(T1, list(src)))
        assert same_set(phi.dst_spec, SubtreeSpec(T2, list(dst)))
        points = [Vertex(v) for v in sorted(phi.src_spec.vertices)] + [
            T1.point(a, b, T1.edge_length(a, b).scale(Fraction(k, 3)))
            for a, b in sorted(phi.src_spec.intervals) for k in (1, 2)]
        rng.shuffle(points)
        for x in points + points[::-1]:
            assert phi.apply(x) == SegmentIso(T1, src, T2, dst).apply(x)




def test_segment_iso_apply_and_inverse():
    T1 = unit_path(["a", "b", "c"])
    T2 = unit_path(["x", "y", "z"])
    phi = SegmentIso(T1, (Vertex("a"), Vertex("c")), T2, (Vertex("x"), Vertex("z")))
    assert phi.apply(Vertex("b")) == Vertex("y")
    m = T1.point("a", "b", L("1/2"))
    assert phi.apply(m) == T2.point("x", "y", L("1/2"))
    assert phi.inverse().apply(phi.apply(m)) == m


def test_segment_iso_rejects_span_mismatch():
    T1 = unit_path(["a", "b"])
    T2 = unit_path(["x", "y", "z"])
    with pytest.raises(GluingError):
        SegmentIso(T1, (Vertex("a"), Vertex("b")), T2, (Vertex("x"), Vertex("z")))


# point and subtree gluing ---------------------------------------------------------


def test_glue_point_wedge():
    base = unit_path(["a", "b"])
    arm1 = unit_path(["p", "q"])
    arm2 = unit_path(["r", "s", "t"])
    glued, base_map, att_maps = glue_point(base, [(arm1, "b", "p"), (arm2, "a", "r")])
    d = distance(glued, Vertex(att_maps[0]["q"]), Vertex(att_maps[1]["t"]))
    # q - p=b - a=r - s - t
    assert d == L(4)
    assert att_maps[0]["p"] == base_map["b"]
    assert distance(glued, Vertex(base_map["a"]), Vertex(base_map["b"])) == L(1)


def test_glue_point_rejects_bad_attachment():
    base = unit_path(["a", "b"])
    arm = unit_path(["p", "q"])
    with pytest.raises(GluingError):
        glue_point(base, [(arm, "zz", "p")])


def test_glue_subtree_overlapping_segments():
    Y1 = unit_path(["a", "b", "c"])
    Y2 = unit_path(["x", "y", "z"])
    # identify [b, c] of Y1 with [x, y] of Y2
    phi = SegmentIso(Y1, (Vertex("b"), Vertex("c")), Y2, (Vertex("x"), Vertex("y")))
    glued, map_src, map_dst = glue_subtree(phi)
    a = map_src(Vertex("a"))
    z = map_dst(Vertex("z"))
    assert distance(glued, a, z) == L(3)  # a - b=x - c=y - z
    assert map_src(Vertex("b")) == map_dst(Vertex("x"))
    assert map_src(Vertex("c")) == map_dst(Vertex("y"))
    # interior points of the shared segment agree through both maps
    m1 = map_src(Y1.point("b", "c", L("1/2")))
    m2 = map_dst(Y2.point("x", "y", L("1/2")))
    assert m1 == m2


def test_glue_subtree_at_interior_cut():
    Y1 = MetricTree(["a", "b"], [("a", "b", L(2))], 1)
    Y2 = MetricTree(["x", "y"], [("x", "y", L(3))], 1)
    # glue [midpoint of Y1, b] onto [x, a point 1 into Y2]
    src = (Y1.point("a", "b", L(1)), Vertex("b"))
    dst = (Vertex("x"), Y2.point("x", "y", L(1)))
    glued, map_src, map_dst = glue_subtree(SegmentIso(Y1, src, Y2, dst))
    assert distance(glued, map_src(Vertex("a")), map_dst(Vertex("y"))) == L(4)


# graphs of actions and the dual distance -----------------------------------------


def make_chain_goa():
    """A - B - C chain with unit-segment interfaces."""
    TA = unit_path(["a0", "a1", "a2", "a3"])
    TB = unit_path(["b0", "b1", "b2", "b3"])
    TC = unit_path(["c0", "c1", "c2", "c3"])
    e1 = GluedEdge(
        "A", "B", SegmentIso(TA, (Vertex("a2"), Vertex("a3")), TB, (Vertex("b0"), Vertex("b1")))
    )
    e2 = GluedEdge(
        "B", "C", SegmentIso(TB, (Vertex("b2"), Vertex("b3")), TC, (Vertex("c0"), Vertex("c1")))
    )
    return GraphOfActions({"A": TA, "B": TB, "C": TC}, [e1, e2]), TA, TB, TC


def test_dual_distance_chain():
    G, TA, TB, TC = make_chain_goa()
    a = DualPoint("A", Vertex("a0"))
    c = DualPoint("C", Vertex("c3"))
    d = dual_distance(G, a, c)
    # a0..a2 (2) + b1..b2 (1, entering at b0=a2) ... explicit fold below
    assert d == dual_distance_bruteforce(G, a, c)
    assert d == L(7)
    # distance within one carrier falls back to the tree metric
    assert dual_distance(G, a, DualPoint("A", Vertex("a3"))) == L(3)


def test_dual_distance_matches_folded_tree():
    G, TA, TB, TC = make_chain_goa()
    path = G.skeleton_paths("A", "C")[0]
    folded, maps = fold_glued_tree(G, path)
    for u in ("a0", "a1", "a3"):
        for w in ("c0", "c2", "c3"):
            d1 = dual_distance(G, DualPoint("A", Vertex(u)), DualPoint("C", Vertex(w)))
            d2 = distance(folded, maps["A"](Vertex(u)), maps["C"](Vertex(w)))
            assert d1 == d2, (u, w)


def test_directed_edges_built_once():
    G = make_chain_goa()[0]
    de = G.directed_edges
    assert [(a, b, i) for a, b, _phi, i in de] == [
        ("A", "B", 0), ("B", "A", 0), ("B", "C", 1), ("C", "B", 1)]
    for k, e in enumerate(G.edges):
        forward, backward = de[2 * k][2], de[2 * k + 1][2]
        assert forward is e.phi
        assert (backward.src_ends, backward.dst_ends) == (e.phi.dst_ends, e.phi.src_ends)
    # the paths reuse the stored inverses instead of building new ones
    (path,) = G.skeleton_paths("C", "A")
    assert len(path) == 2 and path[0][2] is de[3][2] and path[1][2] is de[1][2]


def test_goa_rejects_disconnected_skeleton():
    TA = unit_path(["a0", "a1"])
    TB = unit_path(["b0", "b1"])
    with pytest.raises(GluingError):
        GraphOfActions({"A": TA, "B": TB}, [])


def test_goa_rejects_empty_skeleton():
    """An empty graph of actions would pass every check vacuously."""
    with pytest.raises(GluingError, match="at least one vertex tree"):
        GraphOfActions({}, [])


def _random_goa(rng):
    T1 = random_tree(rng, rng.randint(2, 5), rank=1, prefix="s")
    vs1 = sorted(T1.vertices)
    u, v = rng.sample(vs1, 2)
    d = distance(T1, Vertex(u), Vertex(v))
    # second tree: random part plus a pendant chain of total length d
    T2base = random_tree(rng, rng.randint(1, 4), rank=1, prefix="t")
    vs2 = sorted(T2base.vertices)
    anchor = rng.choice(vs2)
    parts = [Fraction(rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    total = sum(parts)
    verts = list(T2base.vertices)
    edges = [(a, b, ln) for (a, b), ln in T2base.edges.items()]
    prev = anchor
    for i, part in enumerate(parts):
        nxt = f"w{i}"
        verts.append(nxt)
        edges.append((prev, nxt, d.scale(part / total)))
        prev = nxt
    T2 = MetricTree(verts, edges, 1)
    phi = SegmentIso(T1, (Vertex(u), Vertex(v)), T2, (Vertex(anchor), Vertex(prev)))
    G = GraphOfActions({"X": T1, "Y": T2}, [GluedEdge("X", "Y", phi)])
    return G, T1, T2


def test_dual_distance_matches_bruteforce_random():
    rng = random.Random(42)
    for _ in range(30):
        G, T1, T2 = _random_goa(rng)
        for _ in range(4):
            a = DualPoint("X", Vertex(rng.choice(sorted(T1.vertices))))
            b = DualPoint("Y", Vertex(rng.choice(sorted(T2.vertices))))
            assert dual_distance(G, a, b) == dual_distance_bruteforce(G, a, b)
            assert dual_distance(G, b, a) == dual_distance(G, a, b)


# glue equivalence classes ----------------------------------------------------------


def test_glue_equiv_class_simple():
    G, TA, TB, TC = make_chain_goa()
    cls = glue_equiv_class(G, DualPoint("A", Vertex("a2")))
    assert len(cls.nodes) == 2  # a2 = b0
    assert cls.acyclic
    lone = glue_equiv_class(G, DualPoint("A", Vertex("a0")))
    assert len(lone.nodes) == 1


def test_glue_equiv_class_cap():
    """Parallel gluings shifted by one: the class of h0 holds all 2n - 1
    vertices of the two paths, so on paths of n = 33 it outgrows the cap,
    and on n = 32 it does not."""
    assert 2 * 32 - 1 < CLASS_CAP < 2 * 33 - 1
    for n, capped in ((32, False), (33, True)):
        cls = glue_equiv_class(_period_doubling_goa(n), DualPoint("U", Vertex("h0")))
        assert bool(cls.inconclusive) == capped
        assert len(cls.nodes) == (CLASS_CAP if capped else 2 * n - 1)


# free criterion --------------------------------------------------------------------


def _period_doubling_goa(n=9):
    """Paths h0..h(n-1) and k0..k(n-1); [h0, h(n-2)] and [h1, h(n-1)] both
    glued onto [k0, k(n-2)]."""
    U = unit_path([f"h{i}" for i in range(n)])
    V = unit_path([f"k{i}" for i in range(n)])
    ks = (Vertex("k0"), Vertex(f"k{n - 2}"))
    phi1 = SegmentIso(U, (Vertex("h0"), Vertex(f"h{n - 2}")), V, ks)
    phi2 = SegmentIso(U, (Vertex("h1"), Vertex(f"h{n - 1}")), V, ks)
    return GraphOfActions(
        {"U": U, "V": V}, [GluedEdge("U", "V", phi1), GluedEdge("U", "V", phi2)]
    )


def test_free_criterion_pass():
    G, TA, TB, TC = make_chain_goa()
    att = {"A": "free", "B": "free", "C": "free"}
    samples = [DualPoint("A", Vertex("a2")), DualPoint("B", Vertex("b3"))]
    rep = check_free_criterion(G, att, samples)
    assert rep.verdict == "Pass"


def test_free_criterion_missing_attestation():
    G, *_ = make_chain_goa()
    rep = check_free_criterion(G, {"A": "free"}, [])
    assert rep.verdict == "Inconclusive"
    assert "B" in rep.detail or "missing" in rep.detail


def test_free_criterion_period_doubling_fails():
    G = _period_doubling_goa()
    rep = check_free_criterion(G, {"U": "free", "V": "free"}, [])
    assert rep.verdict == "Fail"
    assert "translates" in rep.detail


def test_free_criterion_period_doubling_needs_twice_the_shift():
    """[x, y] and [w, x] of a unit tripod Y glued onto one segment S of length 2:
    the composite turns y -> x -> w, so it moves y by delta = 2 and y twice
    also by 2, not 2 delta.  That is no period doubling; the glue class of the
    center holds a cycle instead."""
    Y = MetricTree(["p", "x", "y", "w"], [("p", q, L(1)) for q in ("x", "y", "w")], 1)
    S = MetricTree(["c", "d"], [("c", "d", L(2))], 1)
    cd = (Vertex("c"), Vertex("d"))
    G = GraphOfActions({"Y": Y, "S": S}, [
        GluedEdge("Y", "S", SegmentIso(Y, (Vertex("x"), Vertex("y")), S, cd)),
        GluedEdge("Y", "S", SegmentIso(Y, (Vertex("w"), Vertex("x")), S, cd)),
    ])
    rep = check_free_criterion(G, {"Y": "free", "S": "free"}, [DualPoint("Y", Vertex("p"))])
    assert (rep.verdict, rep.detail) == (
        "Fail", "class of DualPoint(vertex='Y', point=Vertex('p')) is not a tree")


# transverse coverings ---------------------------------------------------------------


@pytest.fixture
def tripod():
    return MetricTree(
        ["o", "p", "q", "r"],
        [("o", "p", L(1)), ("o", "q", L(1)), ("o", "r", L(1))],
        1,
    )


def test_transverse_check_ok(tripod):
    members = [
        SubtreeSpec(tripod, [Vertex("o"), Vertex(x)]) for x in "pqr"
    ]
    rep = transverse_check(TransverseCovering(tripod, members))
    assert rep.ok
    sk = skeleton(TransverseCovering(tripod, members))
    assert len(sk.member_vertices) == 3
    assert sk.point_vertices == [Vertex("o")]
    assert sk.connected and sk.acyclic
    assert sorted(sk.terminal_members) == [0, 1, 2]


def test_transverse_check_degenerate(tripod):
    members = [SubtreeSpec(tripod, [Vertex("o")])]
    rep = transverse_check(TransverseCovering(tripod, members))
    assert not rep.ok and rep.kind == "degenerate-member"


def test_transverse_check_overlap(tripod):
    members = [
        SubtreeSpec(tripod, [Vertex("p"), Vertex("q")]),
        SubtreeSpec(tripod, [Vertex("o"), Vertex("p")]),
        SubtreeSpec(tripod, [Vertex("o"), Vertex("r")]),
    ]
    rep = transverse_check(TransverseCovering(tripod, members))
    assert not rep.ok and rep.kind == "transverse-intersection"


def test_transverse_check_gap(tripod):
    members = [
        SubtreeSpec(tripod, [Vertex("o"), Vertex("p")]),
        SubtreeSpec(tripod, [Vertex("o"), Vertex("q")]),
    ]
    rep = transverse_check(TransverseCovering(tripod, members))
    assert not rep.ok and rep.kind == "coverage-gap"
    with pytest.raises(CoverError):
        skeleton(TransverseCovering(tripod, members))


def test_transverse_check_gap_inside_an_edge(tripod):
    """Two members reach into o-p from its ends and leave its middle bare."""
    quarter, three = (tripod.point("o", "p", L(Fraction(k, 4))) for k in (1, 3))
    members = [SubtreeSpec(tripod, [Vertex("o"), Vertex(x)]) for x in "qr"] + [
        SubtreeSpec(tripod, [Vertex("o"), quarter]),
        SubtreeSpec(tripod, [three, Vertex("p")])]
    rep = transverse_check(TransverseCovering(tripod, members))
    assert (rep.ok, rep.kind, rep.witness) == (False, "coverage-gap", (("o", "p"),))


def test_cover_refuses_another_tree_and_rank_2(tripod):
    other = MetricTree(["o", "p"], [("o", "p", L(1))], 1)
    mine, theirs = (SubtreeSpec(T, [Vertex("o")]) for T in (tripod, other))
    with pytest.raises(TreeError, match="^subtrees of different trees$"):
        intersect_specs(mine, theirs)
    with pytest.raises(CoverError, match="^member of a different tree$"):
        TransverseCovering(tripod, [mine, theirs])
    with pytest.raises(CoverError, match="^transverse coverings live in rank-1 trees$"):
        TransverseCovering(MetricTree(["o", "p"], [("o", "p", L(1, 0))], 2), [])


# errors and rare branches ------------------------------------------------------------


def test_subdivide_at_mapper_off_the_cuts():
    """A point on an edge with no cut keeps its place; one past the last cut
    of its edge lands on the piece from that cut to the far end."""
    T = unit_path(["a", "b", "c"])
    T2, mapper = subdivide_at(T, [T.point("a", "b", L(Fraction(1, 2)))])
    on_bc, past = T.point("b", "c", L(Fraction(1, 3))), T.point("a", "b", L(Fraction(3, 4)))
    assert mapper(on_bc) is on_bc
    assert mapper(past) == T2.point(("cut", "a", "b", 0), "b", L(Fraction(1, 4)))
    assert distance(T2, Vertex("a"), mapper(past)) == L(Fraction(3, 4))


def test_rank_mismatch_is_refused():
    Y, Y2 = unit_path(["a", "b"]), MetricTree(["x", "y"], [("x", "y", L(1, 0))], 2)
    with pytest.raises(GluingError, match="^rank mismatch$"):
        glue_point(Y, [(Y2, "a", "x")])
    # segments of trees of two ranks never span alike, so glue_subtree never sees them
    with pytest.raises(GluingError, match="endpoint spans differ"):
        SegmentIso(Y, (Vertex("a"),) * 2, Y2, (Vertex("x"),) * 2)


def test_graph_of_actions_refuses_mismatched_edges():
    TA, TB = unit_path(["a0", "a1"]), unit_path(["b0", "b1"])
    phi = SegmentIso(TA, (Vertex("a0"), Vertex("a1")), TB, (Vertex("b0"), Vertex("b1")))
    copy = unit_path(["a0", "a1"])
    for trees, edge, message in [
        ({"A": TA, "B": TB}, GluedEdge("A", "Z", phi), "edge endpoint is not a skeleton vertex"),
        ({"A": copy, "B": TB}, GluedEdge("A", "B", phi), "gluing map domain tree mismatch"),
        ({"A": TA, "B": TA}, GluedEdge("A", "B", phi), "gluing map target tree mismatch"),
    ]:
        with pytest.raises(GluingError, match=f"^{message}$"):
            GraphOfActions(trees, [edge])


def test_dual_distance_and_fold_refuse_what_no_path_joins():
    G = make_chain_goa()[0]
    with pytest.raises(GluingError, match="^no skeleton path between carriers$"):
        dual_distance(G, DualPoint("Z", Vertex("a0")), DualPoint("A", Vertex("a0")))
    with pytest.raises(GluingError, match="^empty path$"):
        fold_glued_tree(G, [])


def test_dual_distance_from_a_point_inside_the_glued_segment():
    """The point is its own projection, which no grid of the brute force holds."""
    G, TA, TB, TC = make_chain_goa()
    a = DualPoint("A", TA.point("a2", "a3", L(Fraction(1, 2))))
    c = DualPoint("C", Vertex("c3"))
    assert dual_distance(G, a, c) == dual_distance_bruteforce(G, a, c) == L(Fraction(9, 2))


def test_free_criterion_fails_a_class_past_the_cap():
    """A point glued to CLASS_CAP leaf trees: its class outgrows the cap with
    no two parallel gluings, so no period doubling answers first."""
    C = unit_path(["c0", "c1"])
    leaves = {f"L{i}": unit_path([f"l{i}a", f"l{i}b"]) for i in range(CLASS_CAP)}
    edges = [GluedEdge("C", v, SegmentIso(C, (Vertex("c0"),) * 2, T, (Vertex(T._ids[0]),) * 2))
             for v, T in leaves.items()]
    G = GraphOfActions({"C": C, **leaves}, edges)
    p = DualPoint("C", Vertex("c0"))
    rep = check_free_criterion(G, {v: "free" for v in G.vertex_trees}, [p])
    assert (rep.verdict, rep.detail) == (
        "Fail", f"class of {p!r} grows beyond the window: class exceeds window cap")
