"""Verifier for graph-of-groups decompositions with cyclic edges and
abelian / surface / infinitesimal vertex types: structural clauses, bounded
acylindricity of the Bass-Serre tree, Betti-number inequalities, and the
principal-splitting case analysis.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Optional, Union

from .frozen import Frozen
from .groups import (
    FinitePresentation,
    FreeAbelianOracle,
    FreeGroupOracle,
    Word,
    betti1,
    check_alphabet,
    conjugator,
    cyclic_reduce,
    exponent_vector,
    free_reduce,
    invert,
    parse_word,
    parse_words,
    power,
    primitive_root,
    word_str,
)


class DevissageError(ValueError):
    pass


# vertex group descriptors -----------------------------------------------------------


class CyclicBySum(FreeAbelianOracle):
    """N + Z^k with a marked cyclic summand generated by `n_letter`."""

    __slots__ = ("n_letter", "extra_letters")

    def __init__(self, n_letter: str, extra_letters: tuple[str, ...]):
        super().__init__((n_letter,) + extra_letters, n_letter, extra_letters)


class SurfaceWithBoundary(Frozen):
    """Surface with boundary: free fundamental group plus designated boundary
    words; or a closed surface, whose relator stands with no boundary word and
    no edge.  Not a FreeGroupOracle: the structure clauses that ask for a
    free vertex group must not take a surface for one."""

    __slots__ = ("letters", "boundaries", "closed_relator")

    def __init__(self, letters: tuple[str, ...], boundaries: tuple[Word, ...],
                 closed_relator: Optional[Word] = None):
        if closed_relator is not None and boundaries:
            raise DevissageError("a surface with a closed relator has no boundary words")
        seen = []
        for b in boundaries:
            r = free_reduce(b)
            if not r:
                raise DevissageError("trivial boundary word")
            core, conj = cyclic_reduce(r)
            if core != r or conj:
                raise DevissageError(f"boundary word {word_str(b)} not cyclically reduced")
            if any(_conjugator_pm(r, s) is not None for s in seen):
                raise DevissageError("boundary words must be independent as listed")
            seen.append(r)
        super().__init__(letters, boundaries, closed_relator)

    def is_trivial(self, w: Word) -> bool:  # a closed surface takes no edge image
        return not free_reduce(w)

    @property
    def b1(self) -> int:
        if self.closed_relator is None:
            return len(self.letters)
        pres = FinitePresentation(self.letters, (self.closed_relator,))
        return betti1(pres)


Descriptor = Union[FreeGroupOracle, FreeAbelianOracle, SurfaceWithBoundary]


# the graph ---------------------------------------------------------------------------


class GGVertex(Frozen):
    __slots__ = ("id", "vtype", "desc", "attestation")  # vtype: abelian | surface | infinitesimal


class GGEdge(Frozen):
    __slots__ = ("u", "v", "image_u", "image_v")


class GraphOfGroups:
    def __init__(self, vertices: list[GGVertex], edges: list[GGEdge]):
        if not vertices:
            raise DevissageError("graph of groups has no vertices")
        self.vertices = {v.id: v for v in vertices}
        if len(self.vertices) != len(vertices):
            raise DevissageError("duplicate vertex id")
        self.edges = list(edges)
        # half-edges (edge, src, dst, image at src, image at dst): edge i
        # gives 2i from u and 2i + 1 from v, so the reverse of j is j ^ 1 and
        # a loop is two half-edges
        self.half_edges = []
        for i, e in enumerate(self.edges):
            for end, img in ((e.u, e.image_u), (e.v, e.image_v)):
                if end not in self.vertices:
                    raise DevissageError(f"edge endpoint {end!r} missing")
                desc = self.vertices[end].desc
                if isinstance(desc, SurfaceWithBoundary) and desc.closed_relator is not None:
                    raise DevissageError(f"edge at closed surface vertex {end!r}: "
                                         "its images would be read in the free group")
                if desc.is_trivial(img):
                    raise DevissageError(
                        f"edge image {word_str(img)} trivial in vertex {end!r}"
                    )
            self.half_edges += [(i, e.u, e.v, e.image_u, e.image_v),
                                (i, e.v, e.u, e.image_v, e.image_u)]

    def connected(self) -> bool:
        seen = set()
        stack = [next(iter(self.vertices))]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack += [dst for _i, src, dst, _a, _b in self.half_edges if src == v]
        return seen == set(self.vertices)

    @staticmethod
    def from_json(doc: dict) -> "GraphOfGroups":
        verts = []
        for vd in doc["vertices"]:
            if isinstance(vd["id"], bool) or not isinstance(vd["id"], (str, int)):
                raise DevissageError(f"vertex id {vd['id']!r} must be a string or an int")
            if vd["type"] not in ("abelian", "infinitesimal", "surface"):
                raise DevissageError(f"vertex {vd['id']!r}: unknown type {vd['type']!r}")
            verts.append(GGVertex(vd["id"], vd["type"], descriptor_from_json(vd["group"]),
                                  vd.get("attestation")))
        by_id = {v.id: v for v in verts}

        def letters(end) -> tuple[str, ...]:
            if end not in by_id:
                raise DevissageError(f"edge endpoint {end!r} missing")
            return by_id[end].desc.letters

        edges = [GGEdge(ed["u"], ed["v"], parse_word(ed["image_u"], letters(ed["u"])),
                        parse_word(ed["image_v"], letters(ed["v"]))) for ed in doc["edges"]]
        return GraphOfGroups(verts, edges)


def descriptor_from_json(doc: dict) -> Descriptor:
    kind = doc["kind"]
    if kind == "cyclic-by-sum":
        letters = (doc["n_letter"],) + check_alphabet(doc["extra_letters"], "vertex letter")
    elif kind in ("free", "free-abelian", "surface-with-boundary"):
        letters = doc["letters"]
    else:
        raise DevissageError(f"unknown descriptor kind {kind!r}")
    letters = check_alphabet(letters, "vertex letter")
    if kind == "free":
        return FreeGroupOracle(letters)
    if kind == "free-abelian":
        return FreeAbelianOracle(letters)
    if kind == "cyclic-by-sum":
        return CyclicBySum(letters[0], letters[1:])
    bnd = parse_words(doc["boundaries"], letters, "boundaries")
    rel = doc.get("closed_relator")
    return SurfaceWithBoundary(letters, bnd, parse_word(rel, letters) if rel else None)


# structure check ----------------------------------------------------------------------


class ClauseVerdict(Frozen):
    __slots__ = ("verdict", "detail")  # verdict: Pass | Fail | Unchecked


class StructureReport(Frozen):
    __slots__ = ("clauses", "remarks")  # clauses: name -> ClauseVerdict

    @property
    def ok(self) -> bool:
        return all(c.verdict != "Fail" for c in self.clauses.values())

    @property
    def conclusive(self) -> bool:
        return all(c.verdict == "Pass" for c in self.clauses.values())


def check_structure(G: GraphOfGroups) -> StructureReport:
    """Each clause is a rule: its detail when it passes, and its faults, the one
    it names first.  A clause fails with its first fault and passes with none;
    a generator of faults stops there, so nothing after that fault is read."""
    remarks: list[str] = []
    bad = [i for i, e in enumerate(G.edges) if e.u == e.v
           or [G.vertices[end].vtype for end in (e.u, e.v)].count("infinitesimal") != 1]
    shared, unchecked = _shared_roots(G)
    missing = [vid for vid, v in G.vertices.items() if v.vtype == "infinitesimal" and not (
        isinstance(v.desc, FreeGroupOracle) or (isinstance(v.attestation, str) and v.attestation))]
    surfaces = any(v.vtype == "surface" for v in G.vertices.values())
    rules = {
        "graph": ("connected", [] if G.connected() else ["underlying graph not connected"]),
        "incidence": ("every edge meets exactly one infinitesimal vertex",  # (i)
                      [f"edges {bad} violate the one-infinitesimal-end rule"] if bad else []),
        "abelian": ("abelian vertices carry a marked cyclic summand", _abelian_faults(G)),  # (ii)
        "abelian-pairs": ("no commuting abelian pair detected", reversed(shared)),  # the last pair
        "surface": ("boundary components matched" if surfaces else "no surface vertices",  # (iii)
                    _surface_faults(G, remarks)),
        "infinitesimal": ("all infinitesimal vertices attested free",  # (iv)
                          [f"unattested infinitesimal vertices {missing}"] if missing else []),
    }
    clauses = {}
    for key, (passed, faults) in rules.items():
        fault = next(iter(faults), None)
        clauses[key] = ClauseVerdict("Pass", passed) if fault is None else ClauseVerdict("Fail", fault)
    if unchecked and not shared:
        clauses["abelian-pairs"] = ClauseVerdict("Unchecked", f"non-free shared vertices {unchecked}")
    return StructureReport(clauses, remarks)


def _abelian_faults(G: GraphOfGroups):
    """(ii) an abelian vertex is cyclic-by-sum and meets each edge at its marked
    generator, and the edge group is maximal cyclic at a free or surface other
    end: the image there is no proper power."""
    for vid, v in G.vertices.items():
        if v.vtype == "abelian" and not isinstance(v.desc, CyclicBySum):
            yield f"abelian vertex {vid!r} is not cyclic-by-sum"
        elif v.vtype == "abelian":
            ngen = ((v.desc.n_letter, 1),)
            for _i, src, other_end, img, other_img in G.half_edges:
                if src != vid:
                    continue
                if free_reduce(img) not in (ngen, invert(ngen)):
                    yield f"edge image {word_str(img)} at {vid!r} is not the marked generator"
                if isinstance(G.vertices[other_end].desc, (FreeGroupOracle, SurfaceWithBoundary)):
                    _, k = primitive_root(other_img)
                    if k != 1:
                        yield f"edge image at {other_end!r} is a proper power (exponent {k})"


def _shared_roots(G: GraphOfGroups) -> tuple[list[str], list[str]]:
    """Abelian vertices sharing an infinitesimal neighbour must not have
    commuting conjugates.  Decidable fragment: at a free neighbour each pair
    whose images have conjugate primitive roots is a fault, in order; a shared
    neighbour that is not free is listed as unchecked."""
    hung: dict[str, list[tuple[str, Word]]] = {}
    for _i, ab, inf, _a, img in G.half_edges:
        if G.vertices[ab].vtype == "abelian" and G.vertices[inf].vtype == "infinitesimal":
            hung.setdefault(inf, []).append((ab, img))
    shared, unchecked = [], []
    for inf, ends in hung.items():
        if isinstance(G.vertices[inf].desc, FreeGroupOracle):
            shared += [f"abelian vertices {a1!r}, {a2!r} share a root at {inf!r}"
                       for (a1, w1), (a2, w2) in itertools.combinations(ends, 2) if a1 != a2
                       and _conjugator_pm(primitive_root(w1)[0], primitive_root(w2)[0]) is not None]
        elif len({a for a, _ in ends}) > 1:
            unchecked.append(inf)
    return shared, unchecked


def _surface_faults(G: GraphOfGroups, remarks: list[str]):
    """(iii) the edges at a surface vertex match its boundary words one to one,
    up to free-group conjugacy and inversion (the reversed orientation).  A
    surface vertex with neither is closed: a remark, not a fault."""
    for vid, v in G.vertices.items():
        if v.vtype == "surface" and not isinstance(v.desc, SurfaceWithBoundary):
            yield f"surface vertex {vid!r} lacks boundary data"
        elif v.vtype == "surface":
            inc = [img for _i, src, _d, img, _b in G.half_edges if src == vid]
            if not inc and not v.desc.boundaries:
                remarks.append(f"surface vertex {vid!r} has no edges: closed-surface case")
            elif not _boundary_matching(inc, list(v.desc.boundaries)):
                yield (f"no edge-boundary bijection at {vid!r} "
                       f"({len(inc)} edges, {len(v.desc.boundaries)} boundaries)")


def _boundary_matching(images: list[Word], boundaries: list[Word]) -> bool:
    """Whether edge images and boundary words match one to one under
    free-group conjugacy up to inversion.  That is an equivalence relation,
    so matching each image to any unmatched equivalent boundary decides it."""
    left = list(boundaries)
    for img in images:
        match = [b for b in left if _conjugator_pm(img, b) is not None]
        if not match:
            return False
        left.remove(match[0])
    return not left


def _conjugator_pm(u: Word, w: Word) -> Optional[Word]:
    """Some h with h w h^-1 = u or u^-1 in the free group, or None."""
    h = conjugator(u, w)
    return conjugator(invert(u), w) if h is None else h


# acylindricity ------------------------------------------------------------------------


class AcylReport(Frozen):
    __slots__ = ("verdict", "path", "element")  # verdict: Pass | Fail


def _primitive_vector(vec: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """vec is nonzero: GraphOfGroups refuses trivial edge images."""
    g = gcd(*vec)
    prim = tuple(c // g for c in vec)
    # sign-normalize by first nonzero
    lead = next(c for c in prim if c != 0)
    if lead < 0:
        prim = tuple(-c for c in prim)
        g = -g
    return g, prim


def check_acylindricity(G: GraphOfGroups, radius: int = 5, window: int = 4) -> AcylReport:
    """Search for a nontrivial element fixing a reduced Bass-Serre path of
    `radius` edges.  The pointwise stabilizer is tracked as a power of the
    current edge group, and each turn is computed exactly, so `window` bounds
    nothing: it is kept because `gog acyl --window` and the acceptance tests
    still pass it."""
    if not G.connected():  # as in check_betti_bounds: no Bass-Serre tree to search
        raise DevissageError("graph of groups is not connected")
    # state: (half-edge j, multiplier M) meaning the stabilizer so far is the
    # M-th powers of the edge group, read at the half-edge's dst vertex
    hes = G.half_edges
    states: dict[tuple[int, int], list] = {(j, 1): [(he, None)] for j, he in enumerate(hes)}

    depth = 1
    while depth < radius and states:
        nxt: dict = {}
        for (j, M), path in states.items():
            dst, arrival_img = hes[j][2], hes[j][4]
            desc = G.vertices[dst].desc
            for j2, he2 in enumerate(hes):
                if he2[1] != dst:
                    continue
                for M2, h in _turns(desc, arrival_img, M, he2[3], j2 == j ^ 1):
                    if (j2, M2) not in nxt:
                        nxt[(j2, M2)] = path + [(he2, h)]
        states = nxt
        depth += 1

    if not states:
        return AcylReport("Pass", [], None)
    # the least state by repr((edge, src, dst, M)); a tie goes to the earlier half-edge
    j, M = min(states, key=lambda s: (repr(hes[s[0]][:3] + (s[1],)), s[0]))
    desc_path = [
        {"edge": he[0], "from": he[1], "to": he[2], "turn": word_str(h) if h else ""}
        for he, h in states[(j, M)]
    ]
    return AcylReport("Fail", desc_path, word_str(power(hes[j][4], M)))


def _turns(desc: Descriptor, a: Word, M: int, b: Word, backtrack: bool):
    """Yield (new multiplier, turn witness) for continuations whose pointwise
    stabilizer stays nontrivial: <a^M> meet h<b>h^-1 in the vertex group.  On
    a backtrack (leaving by the reverse of the arrival half-edge) the turn h
    must leave the edge group for the tree path to be reduced."""
    if isinstance(desc, FreeAbelianOracle):
        letters = desc.letters
        va = exponent_vector(a, letters)
        vb = exponent_vector(b, letters)
        da, pa = _primitive_vector(va)
        db, pb = _primitive_vector(vb)
        if pa != pb:
            return
        h = _nonmember_turn(letters, vb, backtrack)
        if backtrack and h is None:
            return
        aM = abs(da) * M
        yield aM // gcd(aM, abs(db)), h
        return
    # free and surface vertices: the turns are the coset <ra> h0 (<ra> is
    # ra's centralizer), and |ra^m h0| >= |m| |core of ra| - |h0| bounds m for
    # a turn no longer than h0.  On a backtrack a = b, so h0 = () and the
    # turns inside <b> = <ra^eb> are the m = 0 mod eb.
    ra, ea = primitive_root(a)
    rb, eb = primitive_root(b)
    h0 = _conjugator_pm(ra, rb)
    if h0 is None:
        return
    k = 2 * len(h0) // len(cyclic_reduce(ra)[0]) + 1
    turns = [free_reduce(power(ra, m) + h0) for m in range(-k, k + 1)
             if not (backtrack and m % eb == 0)]
    if turns:
        # the least in ball_words order: shortest, then by sorted letter, + first
        yield ea * M // gcd(ea * M, eb), min(turns, key=lambda h: (len(h), [(l, -e) for l, e in h]))


def _nonmember_turn(letters, vb, required: bool):
    """Some single letter outside the cyclic subgroup generated by the
    exponent vector vb (that is, whose unit vector is not +-vb), or None."""
    for i, l in enumerate(letters):
        e = tuple(1 if j == i else 0 for j in range(len(letters)))
        if e != vb and tuple(-c for c in e) != vb:
            return ((l, 1),)
    return None if required else ()


# Betti bounds -------------------------------------------------------------------------


class MaxAbelianDeclaration(Frozen):
    __slots__ = ("ranks",)

    def __init__(self, ranks: Union[tuple[tuple[str, int], ...], list[list]]):
        if not isinstance(ranks, (list, tuple)) or not all(
                isinstance(p, (list, tuple)) and len(p) == 2 for p in ranks):
            raise DevissageError(f"max_abelian must be a list of [tag, rank] pairs, got {ranks!r}")
        ranks = tuple(map(tuple, ranks))  # (vertex or subgroup tag, rank >= 2)
        for tag, r in ranks:
            if isinstance(r, bool) or not isinstance(r, int) or r < 2:
                raise DevissageError(f"declared maximal abelian {tag!r} has rank {r!r}, "
                                     "not an integer >= 2")
        super().__init__(ranks)


class BettiReport(Frozen):
    __slots__ = ("b1_ambient", "b1_vertices", "b1_graph", "lower_bound", "lower_slack",
                 "abelian_sum", "abelian_slack", "noncyclic_floor_ok")

    @property
    def ok(self) -> bool:
        return self.lower_slack >= 0 and self.abelian_slack >= 0 and self.noncyclic_floor_ok


def check_betti_bounds(
    G: GraphOfGroups,
    ambient: FinitePresentation,
    decl: MaxAbelianDeclaration,
) -> BettiReport:
    if not G.connected():  # b1_graph = E - V + 1 counts a connected graph only
        raise DevissageError("graph of groups is not connected")
    b1g = betti1(ambient)
    per_vertex = {vid: v.desc.b1 if isinstance(v.desc, SurfaceWithBoundary)
                  else len(v.desc.letters) for vid, v in G.vertices.items()}
    b1_graph = len(G.edges) - len(G.vertices) + 1
    lower = sum(per_vertex.values()) + b1_graph - len(G.edges)
    ab_sum = sum(r - 1 for _t, r in decl.ranks)
    return BettiReport(b1g, per_vertex, b1_graph, lower, b1g - lower,
                       ab_sum, (b1g - 1) - ab_sum, b1g >= 2)


# principal splitting ------------------------------------------------------------------


class SplittingCase(Frozen):
    __slots__ = ("case", "detail")


def principal_splitting_case(G: GraphOfGroups) -> SplittingCase:
    rep = check_structure(G)
    if not rep.ok:
        raise DevissageError("structure check failed; refusing the case analysis")
    for vid, v in G.vertices.items():
        if v.vtype == "surface":
            return SplittingCase(
                "essential-curve",
                f"surface vertex {vid!r}: split along an essential curve, "
                "edge group maximal abelian cyclic",
            )
    for vid, v in G.vertices.items():
        if v.vtype != "abelian":
            continue
        k = len(v.desc.extra_letters)
        if k == 0:
            return SplittingCase(
                "amalgam-maximal-abelian",
                f"abelian vertex {vid!r} equals its cyclic summand: "
                "an incident edge splits with C = the vertex group, maximal abelian",
            )
        return SplittingCase(
            "centralizer-extension",
            f"abelian vertex {vid!r}: A *_C (C + Z^{k}) with k = {k}",
        )
    return SplittingCase(
        "recurse",
        "single infinitesimal piece: recurse on the action at the next lower rank",
    )
