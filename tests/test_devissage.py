import copy
import itertools
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from lambdaforest.devissage import (
    AcylReport,
    CyclicBySum,
    DevissageError,
    GGEdge,
    GGVertex,
    GraphOfGroups,
    MaxAbelianDeclaration,
    SurfaceWithBoundary,
    _boundary_matching,
    _turns,
    check_acylindricity,
    check_betti_bounds,
    check_structure,
    descriptor_from_json,
    principal_splitting_case,
)
from lambdaforest.groups import (
    FinitePresentation,
    FreeAbelianOracle,
    FreeGroupOracle,
    WordError,
    ball_words,
    betti1,
    conjugator,
    exponent_vector,
    free_reduce,
    invert,
    parse_word,
    power,
    primitive_root,
    word_str,
)
from lambdaforest.presets import centralizer_extension_gog, n3_surface_gog

from test_groups import brute_rank

CLAUSES = {"graph", "incidence", "abelian", "abelian-pairs", "surface", "infinitesimal"}


def load(doc):
    G = GraphOfGroups.from_json(doc)
    ambient = FinitePresentation.from_json(doc["ambient"])
    decl = MaxAbelianDeclaration(tuple((t, r) for t, r in doc["max_abelian"]))
    return G, ambient, decl


# the centralizer-extension decomposition -------------------------------------------


def test_centralizer_extension_structure():
    G, _, _ = load(centralizer_extension_gog())
    rep = check_structure(G)
    assert set(rep.clauses) == CLAUSES
    assert rep.ok and rep.conclusive
    for name, clause in rep.clauses.items():
        assert clause.verdict == "Pass", name


def test_centralizer_extension_acylindricity():
    G, _, _ = load(centralizer_extension_gog())
    rep = check_acylindricity(G, radius=5, window=4)
    assert rep.verdict == "Pass"


def test_centralizer_extension_betti():
    G, ambient, decl = load(centralizer_extension_gog())
    rep = check_betti_bounds(G, ambient, decl)
    assert rep.b1_ambient == 3
    assert rep.b1_vertices == {"F": 2, "A": 2}
    assert rep.b1_graph == 0
    assert rep.lower_bound == 3 and rep.lower_slack == 0
    assert rep.abelian_sum == 1 and rep.abelian_slack == 1
    assert rep.noncyclic_floor_ok
    assert rep.ok


def test_centralizer_extension_principal_case():
    G, _, _ = load(centralizer_extension_gog())
    case = principal_splitting_case(G)
    assert case.case == "centralizer-extension"
    assert "k = 1" in case.detail


# the closed-surface decomposition ---------------------------------------------------


def test_surface_structure_and_case():
    G, ambient, decl = load(n3_surface_gog())
    rep = check_structure(G)
    assert rep.ok
    assert any("closed-surface" in r for r in rep.remarks)
    betti = check_betti_bounds(G, ambient, decl)
    assert betti.b1_ambient == 2 and betti.ok
    assert check_acylindricity(G).verdict == "Pass"
    assert principal_splitting_case(G).case == "essential-curve"


def test_surface_boundary_matching():
    # one-holed torus hanging on an infinitesimal free vertex
    torus = SurfaceWithBoundary(("a", "b"), (parse_word("aba'b'"),))
    F = GGVertex("F", "infinitesimal", FreeGroupOracle(("x", "y")), None)
    S = GGVertex("S", "surface", torus, None)
    edge = GGEdge("F", "S", parse_word("xy"), parse_word("b'a'ba"))
    G = GraphOfGroups([F, S], [edge])
    rep = check_structure(G)
    assert rep.clauses["surface"].verdict == "Pass"
    # a second edge with no matching boundary breaks the bijection
    G2 = GraphOfGroups([F, S], [edge, GGEdge("F", "S", parse_word("x"), parse_word("a"))])
    rep2 = check_structure(G2)
    assert rep2.clauses["surface"].verdict == "Fail"


cores = st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from([1, -1])), min_size=1,
                 max_size=3).map(lambda w: free_reduce(tuple(w))).filter(
                     lambda w: w and w[0] != (w[-1][0], -w[-1][1]))


@settings(max_examples=150, deadline=None)
@given(st.lists(cores, min_size=1, max_size=4), st.data())
def test_greedy_boundary_matching_agrees_with_every_permutation(boundaries, data):
    """Conjugacy up to inversion is an equivalence relation, so the greedy
    match finds a bijection exactly when some permutation is one."""
    def image():  # a conjugate of a boundary, its inverse or a fresh word
        w = data.draw(st.sampled_from(boundaries * 3 + [data.draw(cores)]))
        h = data.draw(cores)
        return free_reduce(h + (invert(w) if data.draw(st.booleans()) else w) + invert(h))

    n = len(boundaries) + data.draw(st.sampled_from([0, 0, 0, -1, 1]))
    images = [image() for _ in range(n)]
    want = len(images) == len(boundaries) and any(
        all(conjugator(i, b) is not None or conjugator(i, invert(b)) is not None
            for i, b in zip(images, perm)) for perm in itertools.permutations(boundaries))
    assert _boundary_matching(images, boundaries) == want


# mutation tests: each mutation flips at least one clause -----------------------------


def test_mutation_power_edge_image():
    doc = copy.deepcopy(centralizer_extension_gog())
    doc["edges"][0]["image_u"] = "xyxy"
    rep = check_structure(GraphOfGroups.from_json(doc))
    assert not rep.ok
    assert rep.clauses["abelian"].verdict == "Fail"
    assert "power" in rep.clauses["abelian"].detail


def test_mutation_drop_edge():
    doc = copy.deepcopy(centralizer_extension_gog())
    doc["edges"] = []
    rep = check_structure(GraphOfGroups.from_json(doc))
    assert not rep.ok
    assert rep.clauses["graph"].verdict == "Fail"


def test_mutation_retype_vertex():
    doc = copy.deepcopy(centralizer_extension_gog())
    doc["vertices"][1]["type"] = "infinitesimal"
    rep = check_structure(GraphOfGroups.from_json(doc))
    assert not rep.ok
    assert rep.clauses["incidence"].verdict == "Fail"
    assert rep.clauses["infinitesimal"].verdict == "Fail"  # cyclic-by-sum unattested


def test_principal_refuses_broken_structure():
    doc = copy.deepcopy(centralizer_extension_gog())
    doc["edges"][0]["image_u"] = "xyxy"
    with pytest.raises(DevissageError):
        principal_splitting_case(GraphOfGroups.from_json(doc))


# abelian pair clause ------------------------------------------------------------------


def _pair_graph(w1: str, w2: str, free=True):
    desc = FreeGroupOracle(("x", "y")) if free else FreeAbelianOracle(("x", "y"))
    F = GGVertex("F", "infinitesimal", desc, "window-certified")
    A1 = GGVertex("A1", "abelian", CyclicBySum("n", ()), None)
    A2 = GGVertex("A2", "abelian", CyclicBySum("m", ()), None)
    return GraphOfGroups(
        [F, A1, A2],
        [
            GGEdge("F", "A1", parse_word(w1), parse_word("n")),
            GGEdge("F", "A2", parse_word(w2), parse_word("m")),
        ],
    )


def test_abelian_pair_shared_root_fails():
    rep = check_structure(_pair_graph("xy", "yx"))  # conjugate roots
    assert rep.clauses["abelian-pairs"].verdict == "Fail"
    rep2 = check_structure(_pair_graph("xy", "y'x'"))  # inverse conjugate
    assert rep2.clauses["abelian-pairs"].verdict == "Fail"


def test_abelian_pair_distinct_roots_pass():
    rep = check_structure(_pair_graph("x", "y"))
    assert rep.clauses["abelian-pairs"].verdict == "Pass"
    assert rep.ok


def test_abelian_pair_nonfree_shared_vertex_unchecked():
    rep = check_structure(_pair_graph("x", "y", free=False))
    assert rep.clauses["abelian-pairs"].verdict == "Unchecked"
    assert rep.ok and not rep.conclusive


# acylindricity ------------------------------------------------------------------------


def test_acylindricity_fails_on_global_stabilizer():
    # two parallel edges gluing <x> to the cyclic summand: <x> fixes an
    # unbounded line in the Bass-Serre tree
    F = GGVertex("F", "infinitesimal", FreeGroupOracle(("x", "y")), None)
    A = GGVertex("A", "abelian", CyclicBySum("n", ()), None)
    e = GGEdge("F", "A", parse_word("x"), parse_word("n"))
    G = GraphOfGroups([F, A], [e, GGEdge("F", "A", parse_word("x"), parse_word("n"))])
    rep = check_acylindricity(G, radius=5)
    assert rep.verdict == "Fail"
    assert rep.element
    assert len(rep.path) == 5


def test_acylindricity_fails_on_two_abelian_vertices():
    A = GGVertex("A", "abelian", CyclicBySum("n", ()), None)
    B = GGVertex("B", "abelian", CyclicBySum("m", ()), None)
    e = GGEdge("A", "B", parse_word("n"), parse_word("m"))
    G = GraphOfGroups([A, B], [e, GGEdge("A", "B", parse_word("n"), parse_word("m"))])
    rep = check_acylindricity(G, radius=5)
    assert rep.verdict == "Fail"


def _loop(desc, image_u, image_v):
    V = GGVertex("V", "infinitesimal", desc, None)
    return GraphOfGroups([V], [GGEdge("V", "V", parse_word(image_u), parse_word(image_v))])


# a loop is an HNN extension, and its two ends are two half-edges: going round
# it twice the same way is a reduced path, however the turn is chosen
@pytest.mark.parametrize("desc, image_u, image_v, element", [
    (FreeGroupOracle(("x", "y")), "x", "x", "x"),  # t commutes with x: x fixes a line
    (FreeAbelianOracle(("a",)), "a", "aa", "a"),  # BS(1, 2): a, read at the far end
])
def test_acylindricity_fails_on_hnn_loops(desc, image_u, image_v, element):
    rep = check_acylindricity(_loop(desc, image_u, image_v), radius=5, window=4)
    assert rep.verdict == "Fail"
    assert rep.element == element
    assert len(rep.path) == 5
    assert all(step["from"] == step["to"] == "V" for step in rep.path)


def test_acylindricity_passes_free_hnn_loop():
    # t x t^-1 = y: the group is free on x and t
    rep = check_acylindricity(_loop(FreeGroupOracle(("x", "y")), "x", "y"), radius=5, window=4)
    assert rep.verdict == "Pass"


# at an abelian vertex a turn leaves the edge group <b> when its letter is not
# +-b itself: n lies outside <n^2>
@pytest.mark.parametrize("k", [2, 3])
def test_acylindricity_fails_when_a_proper_power_is_glued(k):
    # <n, m | n^k = m^2>: the central n^k fixes the whole tree
    A = GGVertex("A", "abelian", CyclicBySum("n", ()), None)
    B = GGVertex("B", "abelian", FreeAbelianOracle(("m",)), None)
    G = GraphOfGroups([A, B], [GGEdge("A", "B", parse_word("n" * k), parse_word("mm"))])
    rep = check_acylindricity(G, radius=5, window=4)
    assert rep.verdict == "Fail"
    assert rep.path[1]["turn"] in ("m", "n")


def test_acylindricity_passes_when_the_letter_itself_is_glued():
    # <n> *_{n = m} <m> is Z: its tree has no reduced path of two edges
    A = GGVertex("A", "abelian", CyclicBySum("n", ()), None)
    B = GGVertex("B", "abelian", FreeAbelianOracle(("m",)), None)
    G = GraphOfGroups([A, B], [GGEdge("A", "B", parse_word("n"), parse_word("m'"))])
    assert check_acylindricity(G, radius=2, window=4).verdict == "Pass"


# a turn at a free vertex is computed, not searched for within --window
def test_acylindricity_finds_a_turn_longer_than_the_window():
    # t x t^-1 = y^5 x y^-5: y^-5 t commutes with x, so x fixes a line
    G = _loop(FreeGroupOracle(("x", "y")), "x", "yyyyyxy'y'y'y'y'")
    rep = check_acylindricity(G, radius=5, window=4)
    assert rep.verdict == "Fail"
    assert rep.element == "yyyyyxy'y'y'y'y'"
    assert [step["turn"] for step in rep.path] == [""] + ["yyyyy"] * 4


def test_acylindricity_finds_a_root_turn_longer_than_the_window():
    # (xyxyy)^2 glued to n: the root xyxyy commutes with n's image and lies
    # outside the edge group, so n fixes a reduced path of two edges
    F = GGVertex("F", "infinitesimal", FreeGroupOracle(("x", "y")), None)
    A = GGVertex("A", "abelian", CyclicBySum("n", ()), None)
    G = GraphOfGroups([F, A], [GGEdge("F", "A", parse_word("xyxyy" * 2), parse_word("n"))])
    rep = check_acylindricity(G, radius=2, window=4)
    assert rep.verdict == "Fail"
    assert rep.element == "n"
    assert [step["turn"] for step in rep.path] == ["", "xyxyy"]


def _walk_turns(letters, a, M, b, backtrack, window):
    """The reference: the turn search at a free vertex before turns were
    computed.  It walks every word h of length at most `window`, shortest
    first, and takes the first with h rb h^-1 = ra^+-1 that, on a backtrack,
    lies outside <b>."""
    ra, ea = primitive_root(a)
    rb, eb = primitive_root(b)
    for h in [(), *ball_words(sorted(letters), window)]:
        # |b^k| >= |k|, so h = b^k needs |k| <= |h|
        if backtrack and any(power(b, k) == h for k in range(-len(h), len(h) + 1)):
            continue
        if free_reduce(h + rb + invert(h)) in (ra, invert(ra)):
            return [(ea * M // gcd(ea * M, eb), h)]
    return []


reduced = st.lists(st.tuples(st.sampled_from("xy"), st.sampled_from([1, -1])),
                   max_size=4).map(lambda w: free_reduce(tuple(w)))


@settings(max_examples=300, deadline=None)
@given(reduced, reduced, reduced, st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from(["conjugate", "inverse", "other", "backtrack"]), reduced,
       st.integers(0, 4))
def test_turns_agree_with_the_window_walk(root, g1, g2, ea, eb, M, how, other, window):
    """Whenever the walk finds a turn within the window, _turns yields the
    same (multiplier, turn); and a turn _turns yields within the window, the
    walk finds too."""
    assume(root)
    a = free_reduce(g1 + power(root, ea) + invert(g1))
    b = {"conjugate": free_reduce(g2 + power(root, eb) + invert(g2)),
         "inverse": free_reduce(g2 + power(root, -eb) + invert(g2)),
         "other": other, "backtrack": a}[how]
    assume(b)
    backtrack = how == "backtrack"
    got = list(_turns(FreeGroupOracle(("x", "y")), a, M, b, backtrack))
    want = _walk_turns(("x", "y"), a, M, b, backtrack, window)
    assert len(got) <= 1
    if want or (got and len(got[0][1]) <= window):
        assert got == want, (word_str(a), word_str(b))


DESCRIPTORS = [FreeGroupOracle(("x",)), FreeGroupOracle(("x", "y")), FreeAbelianOracle(("a",)),
               FreeAbelianOracle(("a", "b")), CyclicBySum("n", ()), CyclicBySum("n", ("z",))]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_acylindricity_verdict_ignores_edge_orientation(data):
    """Reversing every edge (swapping its ends and their images) names the
    same graph of groups, so the verdict stays."""
    descs = data.draw(st.lists(st.sampled_from(DESCRIPTORS), min_size=1, max_size=3))
    verts = [GGVertex(f"V{k}", "infinitesimal", d, None) for k, d in enumerate(descs)]

    def end():
        k = data.draw(st.integers(0, len(verts) - 1))
        word = st.tuples(st.sampled_from(descs[k].letters), st.sampled_from([1, -1]))
        return f"V{k}", tuple(data.draw(st.lists(word, min_size=1, max_size=2)))

    ends = [(end(), end()) for _ in range(data.draw(st.integers(1, 3)))]
    try:
        G = GraphOfGroups(verts, [GGEdge(u, v, iu, iv) for (u, iu), (v, iv) in ends])
    except DevissageError:  # a trivial edge image
        assume(False)
    R = GraphOfGroups(verts, [GGEdge(v, u, iv, iu) for (u, iu), (v, iv) in ends])

    def verdict(H):  # a disconnected graph is refused whichever way its edges point
        try:
            return check_acylindricity(H, radius=3, window=2).verdict
        except DevissageError as exc:
            return str(exc)

    assert verdict(R) == verdict(G)


# Betti bounds -------------------------------------------------------------------------


def test_acylindricity_and_betti_refuse_a_disconnected_graph():
    """Two components have no one Bass-Serre tree: acylindricity once passed
    such a graph, where the Betti bounds refused it."""
    G, ambient, decl = load(centralizer_extension_gog())
    H = GraphOfGroups(list(G.vertices.values()), [])
    assert not H.connected()
    for check in (lambda: check_acylindricity(H), lambda: check_betti_bounds(H, ambient, decl)):
        with pytest.raises(DevissageError, match="^graph of groups is not connected$"):
            check()


def test_betti_bounds_reject_overdeclared_abelian():
    G, ambient, _ = load(centralizer_extension_gog())
    decl = MaxAbelianDeclaration((("A", 5),))
    rep = check_betti_bounds(G, ambient, decl)
    assert rep.abelian_slack < 0
    assert not rep.ok


# the paper's devissage as an oracle: pi1 of a graph of groups is presented by
# the vertex groups, one relator per spanning-tree edge and one stable letter
# per other edge; with cyclic edge groups, Mayer-Vietoris gives b1 at least
# sum b1(G_v) + b1(graph) - #edges, which is gog betti's lower bound

KINDS = {"free": "infinitesimal", "free-abelian": "abelian", "cyclic-by-sum": "abelian",
         "surface-with-boundary": "surface"}


def _closed_relator(letters, orientable):
    """a a b b ..., or [a, b][c, d] ... on an even number of letters."""
    if not orientable or len(letters) % 2:
        return tuple((l, 1) for l in letters for _ in range(2))
    return tuple((l, e) for x, y in zip(letters[::2], letters[1::2])
                 for l, e in ((x, 1), (y, 1), (x, -1), (y, -1)))


@st.composite
def graphs_of_groups(draw):
    """1-4 vertices of the four kinds, each on 1-3 of the letters a, b, c
    (shared between vertices), joined by a random spanning tree and up to 5
    edges in all, loops and parallel edges included, with random nontrivial
    images.  A closed surface takes no edge, so only a lone vertex with no
    loop draws a closed relator."""
    verts, n = [], draw(st.integers(1, 4))
    for i in range(n):
        kind = draw(st.sampled_from(sorted(KINDS)))
        letters = tuple("abc"[:draw(st.integers(1, 3))])
        if kind == "free":
            desc = FreeGroupOracle(letters)
        elif kind == "free-abelian":
            desc = FreeAbelianOracle(letters)
        elif kind == "cyclic-by-sum":
            desc = CyclicBySum(letters[0], letters[1:])
        else:
            rel = draw(st.sampled_from([None, False, True])) if n == 1 else None
            desc = SurfaceWithBoundary(letters, (), None if rel is None else
                                       _closed_relator(letters, rel))
        verts.append(GGVertex(f"V{i}", KINDS[kind], desc, None))
    ends = [(f"V{draw(st.integers(0, i - 1))}", f"V{i}") for i in range(1, len(verts))]
    ids = st.sampled_from([v.id for v in verts])
    if not getattr(verts[0].desc, "closed_relator", None):
        ends += draw(st.lists(st.tuples(ids, ids), max_size=5 - len(ends)))
    edges = []
    for u, v in draw(st.permutations(ends)):
        images = []
        for end in (u, v):
            desc = verts[int(end[1:])].desc
            w = free_reduce(tuple(draw(st.lists(
                st.tuples(st.sampled_from(desc.letters), st.sampled_from([1, -1])),
                min_size=1, max_size=4))))
            if desc.is_trivial(w):  # as GraphOfGroups refuses it
                w = free_reduce(w + ((desc.letters[0], 1),))
            images.append(w)
        edges.append(GGEdge(u, v, *images))
    return GraphOfGroups(verts, edges)


def devissage_presentation(G):
    """pi1 of G: each vertex's letters renamed apart, with the commutators of
    an abelian vertex and the closed relator of a surface vertex; then
    img_u img_v^-1 for each edge of a spanning tree and t img_u t^-1 img_v^-1,
    t a new stable letter, for every other edge."""
    fresh = iter("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
    rename = {vid: {l: next(fresh) for l in v.desc.letters} for vid, v in G.vertices.items()}

    def image(vid, w):
        return tuple((rename[vid][l], e) for l, e in w)

    relators = []
    for vid, v in G.vertices.items():
        d, r = v.desc, rename[vid]
        if isinstance(d, (FreeAbelianOracle, CyclicBySum)):
            relators += [((r[x], 1), (r[y], 1), (r[x], -1), (r[y], -1))
                         for x, y in itertools.combinations(d.letters, 2)]
        elif isinstance(d, SurfaceWithBoundary) and d.closed_relator:
            relators.append(image(vid, d.closed_relator))
    seen, tree = {next(iter(G.vertices))}, set()
    while len(seen) < len(G.vertices):
        i = next(i for i, e in enumerate(G.edges) if (e.u in seen) != (e.v in seen))
        tree.add(i)
        seen |= {G.edges[i].u, G.edges[i].v}
    stable = []
    for i, e in enumerate(G.edges):
        u, v = image(e.u, e.image_u), image(e.v, e.image_v)
        if i in tree:
            relators.append(u + invert(v))
        else:
            stable.append(next(fresh))
            relators.append(((stable[-1], 1),) + u + ((stable[-1], -1),) + invert(v))
    gens = [l for r in rename.values() for l in r.values()] + stable
    return FinitePresentation(tuple(gens), tuple(relators))


def test_devissage_presentation_of_the_centralizer_extension():
    """<x, y, n, z | [n, z], x y n^-1>: the shipped ambient <x, y, z | [xy, z]>
    with n = xy, so b1 is 3 on both."""
    G, ambient, _ = load(centralizer_extension_gog())
    pres = devissage_presentation(G)
    assert pres.generators == ("A", "B", "C", "D")
    assert [word_str(r) for r in pres.relators] == ["CDC'D'", "ABC'"]
    assert betti1(pres) == betti1(ambient) == 3


@settings(max_examples=200, deadline=None)
@given(graphs_of_groups())
def test_betti_lower_bound_holds_on_the_devissage_presentation(G):
    """gog betti's lower bound holds with pi1 itself as the ambient, and b1
    is the generator count less the brute-force minor rank of the relators'
    exponent rows (zero rows and columns dropped: the rank is the same)."""
    pres = devissage_presentation(G)
    rep = check_betti_bounds(G, pres, MaxAbelianDeclaration(()))
    assert rep.lower_slack >= 0
    rows = [row for r in pres.relators if any(row := exponent_vector(r, pres.generators))]
    cols = [j for j in range(len(pres.generators)) if any(row[j] for row in rows)]
    rank = brute_rank([[row[j] for j in cols] for row in rows]) if rows else 0
    assert rep.b1_ambient == len(pres.generators) - rank


def test_max_abelian_declaration_requires_rank_two():
    with pytest.raises(DevissageError):
        MaxAbelianDeclaration((("A", 1),))


# construction and serialization -------------------------------------------------------


def test_trivial_edge_image_rejected():
    F = GGVertex("F", "infinitesimal", FreeGroupOracle(("x",)), None)
    A = GGVertex("A", "abelian", CyclicBySum("n", ()), None)
    with pytest.raises(DevissageError):
        GraphOfGroups([F, A], [GGEdge("F", "A", parse_word("xx'"), parse_word("n"))])


def test_descriptor_from_json():
    docs = [
        ({"kind": "free", "letters": ["x", "y"]}, FreeGroupOracle(("x", "y"))),
        ({"kind": "free-abelian", "letters": ["a"]}, FreeAbelianOracle(("a",))),
        ({"kind": "cyclic-by-sum", "n_letter": "n", "extra_letters": ["z"]},
         CyclicBySum("n", ("z",))),
        ({"kind": "surface-with-boundary", "letters": ["a", "b"], "boundaries": ["aba'b'"]},
         SurfaceWithBoundary(("a", "b"), (parse_word("aba'b'"),))),
        ({"kind": "surface-with-boundary", "letters": ["a", "b", "c"], "boundaries": [],
          "closed_relator": "aabbcc"},
         SurfaceWithBoundary(("a", "b", "c"), (), parse_word("aabbcc"))),
    ]
    for doc, d in docs:
        got = descriptor_from_json(doc)
        assert type(got) is type(d)
        assert [getattr(got, f) for f in d.__slots__] == [getattr(d, f) for f in d.__slots__]
    with pytest.raises(DevissageError):
        descriptor_from_json({"kind": "preset"})


@pytest.mark.parametrize("doc", [
    {"kind": "free", "letters": ["x", "x"]},
    {"kind": "free-abelian", "letters": ["ab"]},
    {"kind": "cyclic-by-sum", "n_letter": "n", "extra_letters": ["n"]},
    {"kind": "cyclic-by-sum", "n_letter": "'", "extra_letters": []},
    {"kind": "surface-with-boundary", "letters": ["a", " "], "boundaries": []},
])
def test_descriptor_letters_must_read_back(doc):
    with pytest.raises(WordError):
        descriptor_from_json(doc)


def test_closed_surface_has_no_boundary_and_no_edge():
    with pytest.raises(DevissageError, match="^a surface with a closed relator has no boundary words$"):
        SurfaceWithBoundary(("a", "b"), (parse_word("aba'b'"),), parse_word("aabb"))
    S = GGVertex("S", "surface", SurfaceWithBoundary(("a", "b", "c"), (), parse_word("aabbcc")),
                 None)
    F = GGVertex("F", "infinitesimal", FreeGroupOracle(("x",)), None)
    # aabbcc is trivial in the closed surface group, which a free reduction cannot see
    with pytest.raises(DevissageError, match="^edge at closed surface vertex 'S': its images"):
        GraphOfGroups([F, S], [GGEdge("F", "S", parse_word("x"), parse_word("aabbcc"))])
    assert GraphOfGroups([S], []).connected()


def test_surface_rejects_bad_boundary_words():
    with pytest.raises(DevissageError):
        SurfaceWithBoundary(("a", "b"), (parse_word("aa'"),))  # trivial
    with pytest.raises(DevissageError):
        SurfaceWithBoundary(("a", "b"), (parse_word("ba'b'"),))  # not cyclically reduced


@pytest.mark.parametrize("second", ["ba'b'a", "a'b'ab", "bab'a'", "b'a'ba", "aba'b'"])
def test_surface_rejects_conjugate_boundaries(second):
    """Two boundaries conjugate up to inversion are one boundary twice: each
    rotation of aba'b' and of its inverse is refused beside it."""
    with pytest.raises(DevissageError, match="independent"):
        SurfaceWithBoundary(("a", "b"), (parse_word("aba'b'"), parse_word(second)))
    SurfaceWithBoundary(("a", "b"), (parse_word("aba'b'"), parse_word("ab")))


def test_principal_case_amalgam_and_recurse():
    F = GGVertex("F", "infinitesimal", FreeGroupOracle(("x", "y")), None)
    A = GGVertex("A", "abelian", CyclicBySum("n", ()), None)
    G = GraphOfGroups([F, A], [GGEdge("F", "A", parse_word("xy"), parse_word("n"))])
    assert principal_splitting_case(G).case == "amalgam-maximal-abelian"
    lone = GraphOfGroups([F], [])
    assert principal_splitting_case(lone).case == "recurse"


# errors and rare branches -------------------------------------------------------------


def test_graph_refuses_a_missing_endpoint():
    A = GGVertex("A", "abelian", CyclicBySum("n", ()), None)
    with pytest.raises(DevissageError, match="^edge endpoint 'Z' missing$"):
        GraphOfGroups([A], [GGEdge("A", "Z", parse_word("n"), parse_word("a"))])


def _hung(abelian: GGVertex, image: str) -> GraphOfGroups:
    """abelian, and a free infinitesimal vertex F = <a, b> it meets at `image` = a."""
    F = GGVertex("F", "infinitesimal", FreeGroupOracle(("a", "b")), None)
    return GraphOfGroups([abelian, F], [GGEdge(abelian.id, "F", parse_word(image),
                                              parse_word("a"))])


def _star(*leaves) -> GraphOfGroups:
    """A free infinitesimal F = <a, b>, then the vertex of each leaf (vertex,
    image there, image at F), hung from F by one edge per leaf, in order."""
    F = GGVertex("F", "infinitesimal", FreeGroupOracle(("a", "b")), None)
    verts = {v.id: v for v, _i, _f in leaves}
    return GraphOfGroups([F, *verts.values()],
                         [GGEdge(v.id, "F", parse_word(i), parse_word(f)) for v, i, f in leaves])


MARKED = GGVertex("A", "abelian", CyclicBySum("n", ("m",)), None)
NOT_CYCLIC = GGVertex("B", "abelian", FreeAbelianOracle(("n",)), None)
SHARING = [GGVertex(f"A{k}", "abelian", CyclicBySum("n", ()), None) for k in range(4)]
UNBOUNDED = GGVertex("S", "surface", FreeGroupOracle(("c",)), None)
BOUNDED = GGVertex("T", "surface", SurfaceWithBoundary(("c", "d"), (parse_word("cd"),)), None)


# a clause names its first fault, in vertex order and then half-edge order;
# abelian-pairs compares every pair and names the last that shares a root
@pytest.mark.parametrize("G, clause, detail", [
    (_hung(GGVertex("A", "abelian", FreeAbelianOracle(("n",)), None), "n"), "abelian",
     "abelian vertex 'A' is not cyclic-by-sum"),
    (_hung(GGVertex("A", "abelian", CyclicBySum("n", ("m",)), None), "m"), "abelian",
     "edge image m at 'A' is not the marked generator"),
    (_hung(GGVertex("S", "surface", FreeGroupOracle(("n",)), None), "n"), "surface",
     "surface vertex 'S' lacks boundary data"),
    (_star((MARKED, "m", "a"), (NOT_CYCLIC, "n", "b")), "abelian",
     "edge image m at 'A' is not the marked generator"),
    (_star((NOT_CYCLIC, "n", "b"), (MARKED, "m", "a")), "abelian",
     "abelian vertex 'B' is not cyclic-by-sum"),
    (_star((MARKED, "n", "aa"), (MARKED, "m", "b")), "abelian",
     "edge image at 'F' is a proper power (exponent 2)"),
    (_star((MARKED, "m", "abab"), (MARKED, "n", "b")), "abelian",
     "edge image m at 'A' is not the marked generator"),
    (_star(*zip(SHARING, "nnnn", ["a", "bab'", "ab", "b'a'"])), "abelian-pairs",
     "abelian vertices 'A2', 'A3' share a root at 'F'"),
    (_star(*zip(SHARING, "nnnn", ["ab", "a", "b'a'", "a'"])), "abelian-pairs",
     "abelian vertices 'A1', 'A3' share a root at 'F'"),
    (_star((BOUNDED, "c", "a"), (UNBOUNDED, "c", "b")), "surface",
     "no edge-boundary bijection at 'T' (1 edges, 1 boundaries)"),
    (_star((UNBOUNDED, "c", "b"), (BOUNDED, "c", "a")), "surface",
     "surface vertex 'S' lacks boundary data"),
], ids=["not-cyclic-by-sum", "not-the-marked-generator", "no-boundaries", "first-vertex",
        "first-vertex-not-cyclic", "first-half-edge", "letter-before-power", "last-pair",
        "last-pair-of-two-roots", "first-surface", "first-surface-not-bounded"])
def test_structure_fails_a_vertex_that_breaks_its_clause(G, clause, detail):
    verdict = check_structure(G).clauses[clause]
    assert (verdict.verdict, verdict.detail) == ("Fail", detail)


def test_structure_passes_a_clause_with_no_fault():
    rep = check_structure(_star((SHARING[0], "n", "a"), (SHARING[1], "n'", "b")))
    assert {k: (c.verdict, c.detail) for k, c in rep.clauses.items()} == {
        "graph": ("Pass", "connected"),
        "incidence": ("Pass", "every edge meets exactly one infinitesimal vertex"),
        "abelian": ("Pass", "abelian vertices carry a marked cyclic summand"),
        "abelian-pairs": ("Pass", "no commuting abelian pair detected"),
        "surface": ("Pass", "no surface vertices"),
        "infinitesimal": ("Pass", "all infinitesimal vertices attested free"),
    }
    assert rep.remarks == []


def _closed(vid: str) -> GGVertex:
    return GGVertex(vid, "surface", SurfaceWithBoundary(("c", "d"), ()), None)


@pytest.mark.parametrize("order, verdict, remarked", [
    ("C0 C1", "Pass", ["C0", "C1"]),
    ("C0 S C1", "Fail", ["C0"]),
    ("S C0 C1", "Fail", []),
])
def test_structure_remarks_closed_surfaces_up_to_the_first_fault(order, verdict, remarked):
    """A closed surface met before the surface clause's first fault is
    remarked on; one after it is not read."""
    verts = [UNBOUNDED if vid == "S" else _closed(vid) for vid in order.split()]
    F = GGVertex("F", "infinitesimal", FreeGroupOracle(("a",)), None)
    edges = [GGEdge("F", "S", parse_word("a"), parse_word("c"))] if "S" in order else []
    rep = check_structure(GraphOfGroups([F, *verts], edges))
    assert rep.clauses["surface"].verdict == verdict
    assert rep.clauses["surface"].detail == ("boundary components matched" if verdict == "Pass"
                                             else "surface vertex 'S' lacks boundary data")
    assert rep.remarks == [f"surface vertex {vid!r} has no edges: closed-surface case"
                           for vid in remarked]


@pytest.mark.parametrize("at_f, verdict, detail", [
    (["a", "b"], "Unchecked", "non-free shared vertices ['N']"),
    (["a", "a'"], "Fail", "abelian vertices 'A0', 'A1' share a root at 'F'"),
])
def test_structure_is_unchecked_only_where_no_pair_fails(at_f, verdict, detail):
    """A0 and A1 hang from the free F at at_f and also meet at N, which is
    free abelian, so their pair there is not decided: Unchecked, unless
    their pair at F shares a root."""
    F = GGVertex("F", "infinitesimal", FreeGroupOracle(("a", "b")), None)
    N = GGVertex("N", "infinitesimal", FreeAbelianOracle(("p", "q")), "given")
    edges = [GGEdge(a.id, "F", parse_word("n"), parse_word(w)) for a, w in zip(SHARING, at_f)]
    edges += [GGEdge("N", a.id, parse_word(w), parse_word("n")) for a, w in zip(SHARING, "pq")]
    pairs = check_structure(GraphOfGroups([F, *SHARING[:2], N], edges)).clauses["abelian-pairs"]
    assert (pairs.verdict, pairs.detail) == (verdict, detail)


def test_free_abelian_b1_is_its_rank():
    G = GraphOfGroups([GGVertex("A", "abelian", FreeAbelianOracle(("x", "y", "z")), None)], [])
    rep = check_betti_bounds(G, FinitePresentation(("x",), ()), MaxAbelianDeclaration(()))
    assert rep.b1_vertices == {"A": 3}
