"""Gluing trees along points and closed subtrees, graphs of actions with the
projection-folded dual distance, equivalence classes of the glue relation
and the free-gluing criterion (transverse coverings live in `cover`).

Edge subtrees are points or segments (window truncations of lines); gluing
isometries between segments are determined by the images of the two
endpoints.
"""

from __future__ import annotations

import bisect
import itertools
import math
from functools import cached_property
from typing import Callable, Iterable

from .frozen import Frozen
from .lambdatree import (
    EdgeInterior,
    MetricTree,
    SubtreeSpec,
    TreePoint,
    Vertex,
    distance,
    geodesic_legs,
    median,
    point_at,
    _id_key,
    _Rows,
)
from .ordgroup import LexValue


class GluingError(ValueError):
    pass


# subdivision with point transport ----------------------------------------------------


def _keeps_order(ids) -> bool:
    """Whether tag + (v,) for v in ids (in _id_key order) is in _id_key order:
    so when the ids are str and tuple, or all int, whose reprs no closing ")"
    reorders and where every str sorts before every tuple either way."""
    kinds = set(map(type, ids))
    return kinds <= {str, tuple} or kinds == {int}


def _union(parts: list) -> tuple[list, list]:
    """parts: (tag, ids) pairs, the ids of each in _id_key order.  Returns
    the ids tag + (v,) of all parts in _id_key order, and per part each one's
    number.  A part's tagged ids keep its order (_keeps_order) and follow one
    another in the order of their tags; otherwise all are sorted afresh."""
    blocks = [[(*tag, v) for v in ids] for tag, ids in parts]
    if not all(_keeps_order(ids) for _tag, ids in parts):
        ids = sorted((t for b in blocks for t in b), key=repr)
        index = {t: n for n, t in enumerate(ids)}
        return ids, [[index[t] for t in b] for b in blocks]
    ids, nums = [], [None] * len(blocks)
    for p in sorted(range(len(blocks)), key=lambda p: repr(blocks[p][:1])):
        nums[p] = range(len(ids), len(ids) + len(blocks[p]))
        ids += blocks[p]
    return ids, nums


def _common(trees: list, values: Iterable[LexValue] = ()) -> _Rows:
    """No edges yet, over one D for all the trees and the given values."""
    return _Rows(math.lcm(*(T._D for T in trees), *(c.denominator for x in values for c in x.coords)))


def _edges_of(rows: _Rows, T: MetricTree) -> list:
    """T's edges (a, b, row) in input order, each row scaled to rows.D."""
    s = rows.D // T._D
    return T._edges if s == 1 else [(a, b, [c * s for c in row]) for a, b, row in T._edges]


def subdivide_at(T: MetricTree, points: list[TreePoint]):
    """Subdivide T at every interior point in `points`; returns (tree, mapper)
    where mapper transports any point of T: T and the identity if none is."""
    per_edge: dict[tuple, list[LexValue]] = {}
    for p in points:
        T.check_point(p)
        if isinstance(p, EdgeInterior):
            k = T._key(p.u, p.v)
            offs = per_edge.setdefault(k, [])
            if p.offset not in offs:
                offs.append(p.offset)
    if not per_edge:
        return T, lambda p: p
    cuts = {k: [(off, ("cut", k[0], k[1], j)) for j, off in enumerate(sorted(offs))]
            for k, offs in per_edge.items()}
    # the cut ids, few, go into T's order by bisection: each one's place
    # counts the cut ids before it, and each of T's numbers those placed before
    new = sorted((c for chain in cuts.values() for _off, c in chain), key=_id_key)
    at = [bisect.bisect(T._ids, _id_key(c), key=_id_key) for c in new]
    place = {c: at[j] + j for j, c in enumerate(new)}
    ids = list(T._ids)
    for j in reversed(range(len(new))):  # the last first, so each at[j] still holds
        ids.insert(at[j], new[j])
    num = [i + bisect.bisect(at, i) for i in range(len(T._ids))]
    n, i = len(T._ids), T._index
    split = {i[k[0]] * n + i[k[1]]: k for k in per_edge}
    rows = _common([T], (off for offs in per_edge.values() for off in offs))
    for a, b, row in _edges_of(rows, T):
        k = split.get(a * n + b)
        if k is None:
            rows.append((num[a], num[b], row))
            continue
        chain = [(LexValue.zero(T.rank), num[a]), *((off, place[c]) for off, c in cuts[k]),
                 (T.edge_length(*k), num[b])]
        for (o1, x), (o2, y) in zip(chain, chain[1:]):
            rows.append((x, y, [c.numerator * (rows.D // c.denominator) for c in (o2 - o1).coords]))
    T2 = MetricTree(ids, rows, T.rank)

    def mapper(p: TreePoint) -> TreePoint:
        if isinstance(p, Vertex):
            return p
        k = T._key(p.u, p.v)
        if k not in cuts:
            return p
        prev_off, prev_v = LexValue.zero(T.rank), k[0]
        for off, vid in cuts[k]:
            if p.offset == off:
                return Vertex(vid)
            if p.offset < off:
                return T2.point(prev_v, vid, p.offset - prev_off)
            prev_off, prev_v = off, vid
        return T2.point(prev_v, k[1], p.offset - prev_off)

    return T2, mapper


# segment isometries ------------------------------------------------------------------


class SegmentIso:
    """Isometry between closed segments (or points) of two trees, given by
    the images of the ordered endpoints."""

    def __init__(self, src_tree: MetricTree, src_ends: tuple[TreePoint, TreePoint],
                 dst_tree: MetricTree, dst_ends: tuple[TreePoint, TreePoint]):
        self.src_tree = src_tree
        self.src_ends = src_ends
        self.dst_tree = dst_tree
        self.dst_ends = dst_ends
        if len(src_ends) != 2 or len(dst_ends) != 2:
            raise GluingError(f"a glued segment has two ends on each side, got "
                              f"{len(src_ends)} and {len(dst_ends)}")
        if distance(src_tree, *src_ends) != distance(dst_tree, *dst_ends):
            raise GluingError("gluing map is not an isometry: endpoint spans differ")

    @cached_property
    def src_spec(self) -> SubtreeSpec:
        return SubtreeSpec(self.src_tree, list(self.src_ends))

    @cached_property
    def dst_spec(self) -> SubtreeSpec:
        return SubtreeSpec(self.dst_tree, list(self.dst_ends))

    @cached_property
    def _dst_legs(self) -> list:
        return geodesic_legs(self.dst_tree, *self.dst_ends)

    def apply(self, x: TreePoint) -> TreePoint:
        d = distance(self.src_tree, self.src_ends[0], x)
        if d.is_zero():
            return self.dst_ends[0]
        return point_at(self.dst_tree, self._dst_legs, d)

    def inverse(self) -> "SegmentIso":
        return SegmentIso(self.dst_tree, self.dst_ends, self.src_tree, self.src_ends)


# point gluing (wedge along vertices) --------------------------------------------------


def glue_point(Y: MetricTree, attachments: list[tuple[MetricTree, object, object]]):
    """Wedge trees Y_i onto Y, identifying vertex y_i of Y_i with vertex x_i
    of Y.  Returns (tree, base_map, attachment_maps): vertex-id maps into the
    result."""
    parts = [(("base",), Y._ids)]
    for i, (Yi, xi, yi) in enumerate(attachments):
        if xi not in Y.vertices:
            raise GluingError(f"attachment point {xi!r} is not a vertex of the base")
        if yi not in Yi.vertices:
            raise GluingError(f"attachment point {yi!r} is not a vertex of tree {i}")
        if Yi.rank != Y.rank:
            raise GluingError("rank mismatch")
        j = Yi._index[yi]
        parts.append((("att", i), Yi._ids[:j] + Yi._ids[j + 1:]))
    ids, nums = _union(parts)
    base_map = {v: ids[n] for v, n in zip(Y._ids, nums[0])}
    rows = _common([Y] + [Yi for Yi, _x, _y in attachments])
    rows.extend((nums[0][a], nums[0][b], row) for a, b, row in _edges_of(rows, Y))
    att_maps = []
    for (Yi, xi, yi), num in zip(attachments, nums[1:]):
        num = list(num)
        num.insert(Yi._index[yi], nums[0][Y._index[xi]])
        rows.extend((num[a], num[b], row) for a, b, row in _edges_of(rows, Yi))
        att_maps.append({v: ids[n] for v, n in zip(Yi._ids, num)})
    return MetricTree(ids, rows, Y.rank), base_map, att_maps


# subtree gluing along identified segments ---------------------------------------------


def glue_subtree(phi: SegmentIso):
    """Glue phi.src_tree to phi.dst_tree along the segment identified by phi.
    Returns (tree, map_src, map_dst): point mappers into the result.

    The identified segment is cut at every vertex it meets on either side,
    then the two copies are merged vertex-by-vertex; the resulting path
    metric satisfies the projection formula (distance to the segment on one
    side, across it, then to the target) exactly."""
    Y1, Y2 = phi.src_tree, phi.dst_tree  # of one rank: SegmentIso compares their spans
    grid1, grid2 = phi.src_spec.grid_points(), phi.dst_spec.grid_points()
    inv = phi.inverse()
    # common cut positions, expressed in both trees
    cut_pts1 = grid1 + [inv.apply(q) for q in grid2]
    Y1s, map1 = subdivide_at(Y1, cut_pts1)
    cut_pts2 = [phi.apply(p) for p in grid1] + grid2
    Y2s, map2 = subdivide_at(Y2, cut_pts2)

    # the cut vertices of the segment, matched across phi
    glue_to_src = {}
    for p in set(cut_pts1):
        q1, q2 = map1(p), map2(phi.apply(p))
        if not isinstance(q1, Vertex) or not isinstance(q2, Vertex):
            raise GluingError("cut point did not become a vertex")
        glue_to_src[q2.id] = q1.id

    def tag1(v):
        return ("Y1", v)

    def tag2(v):
        return tag1(glue_to_src[v]) if v in glue_to_src else ("Y2", v)

    partner = {Y2s._index[v2]: Y1s._index[v1] for v2, v1 in glue_to_src.items()}
    ids, (num1, own2) = _union([(("Y1",), Y1s._ids),
                                (("Y2",), [v for j, v in enumerate(Y2s._ids) if j not in partner])])
    own2 = iter(own2)
    num2 = [num1[partner[j]] if j in partner else next(own2) for j in range(len(Y2s._ids))]
    rows = _common([Y1s, Y2s])
    rows.extend((num1[a], num1[b], row) for a, b, row in _edges_of(rows, Y1s))
    for a, b, row in _edges_of(rows, Y2s):
        if a in partner and b in partner:
            # edge inside the identified segment: already present from Y1
            if Y1s._row(partner[a], partner[b]) is None:
                raise GluingError("interface edge missing on the other side")
            continue
        rows.append((num2[a], num2[b], row))
    glued = MetricTree(ids, rows, Y1.rank)

    def map_src(p: TreePoint) -> TreePoint:
        q = map1(p)
        if isinstance(q, Vertex):
            return Vertex(tag1(q.id))
        return glued.point(tag1(q.u), tag1(q.v), q.offset)

    def map_dst(p: TreePoint) -> TreePoint:
        q = map2(p)
        if isinstance(q, Vertex):
            return Vertex(tag2(q.id))
        return glued.point(tag2(q.u), tag2(q.v), q.offset)

    return glued, map_src, map_dst


# graphs of actions ---------------------------------------------------------------------


class GluedEdge(Frozen):
    """Directed gluing datum: lam on the `src` side maps to the `dst` side."""

    __slots__ = ("src", "dst", "phi")


class GraphOfActions:
    def __init__(self, vertex_trees: dict, edges: list[GluedEdge]):
        self.vertex_trees = dict(vertex_trees)
        self.edges = list(edges)
        if not self.vertex_trees:  # nothing to check: no verdict may come of it
            raise GluingError("a graph of actions needs at least one vertex tree")
        for e in self.edges:
            if e.src not in self.vertex_trees or e.dst not in self.vertex_trees:
                raise GluingError("edge endpoint is not a skeleton vertex")
            if e.phi.src_tree is not self.vertex_trees[e.src]:
                raise GluingError("gluing map domain tree mismatch")
            if e.phi.dst_tree is not self.vertex_trees[e.dst]:
                raise GluingError("gluing map target tree mismatch")
        # connectivity of the skeleton
        seen = set()
        stack = [next(iter(self.vertex_trees))]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            for e in self.edges:
                if e.src == v:
                    stack.append(e.dst)
                if e.dst == v:
                    stack.append(e.src)
        if seen != set(self.vertex_trees):
            raise GluingError("skeleton not connected")
        # each edge in both directions, the inverse built once
        self.directed_edges: list[tuple[object, object, SegmentIso, int]] = []
        for i, e in enumerate(self.edges):
            self.directed_edges.append((e.src, e.dst, e.phi, i))
            self.directed_edges.append((e.dst, e.src, e.phi.inverse(), i))

    def skeleton_paths(self, u, v) -> list[list[tuple]]:
        """Simple paths u -> v as lists of directed edges (no repeated
        skeleton vertices)."""
        if u == v:
            return [[]]
        paths = []
        de = self.directed_edges

        def walk(cur, visited, acc):
            for (a, b, phi, i) in de:
                if a != cur or b in visited:
                    continue
                if b == v:
                    paths.append(acc + [(a, b, phi, i)])
                else:
                    walk(b, visited | {b}, acc + [(a, b, phi, i)])

        walk(u, {u}, [])
        return paths


class DualPoint(Frozen):
    __slots__ = ("vertex", "point")

    def __repr__(self):
        # free-criterion reports quote sample points in this form
        return f"DualPoint(vertex={self.vertex!r}, point={self.point!r})"


def dual_distance(G: GraphOfActions, a: DualPoint, b: DualPoint) -> LexValue:
    """Distance in the dual tree, computed by folding the projection formula
    edge-by-edge along the skeleton path; a point projects onto a glued
    segment at its median with the segment's ends."""
    paths = G.skeleton_paths(a.vertex, b.vertex)
    if not paths:
        raise GluingError("no skeleton path between carriers")
    best = None
    for path in paths:
        d = LexValue.zero(G.vertex_trees[a.vertex].rank)
        cur_v, cur_p = a.vertex, a.point
        for (src, dst, phi, _i) in path:
            T = G.vertex_trees[src]
            p = median(T, *phi.src_ends, cur_p)
            d = d + distance(T, cur_p, p)
            cur_p = phi.apply(p)
            cur_v = dst
        d = d + distance(G.vertex_trees[cur_v], cur_p, b.point)
        if best is None or d < best:
            best = d
    return best


def dual_distance_bruteforce(G: GraphOfActions, a: DualPoint, b: DualPoint) -> LexValue:
    """Independent oracle: exhaustive minimum of the through-distance over the
    subdivision candidate grid of every interface (grid points of both sides
    plus the projections of the endpoints, which are vertices after
    subdividing at them)."""
    paths = G.skeleton_paths(a.vertex, b.vertex)
    best = None
    for path in paths:
        # candidate set per interface
        cand_sets = []
        for (src, dst, phi, _i) in path:
            T = G.vertex_trees[src]
            cands = list(phi.src_spec.grid_points())
            inv = phi.inverse()
            for q in phi.dst_spec.grid_points():
                p = inv.apply(q)
                if p not in cands:
                    cands.append(p)
            extra = median(T, *phi.src_ends, a.point) if src == a.vertex else None
            if extra is not None and extra not in cands:
                cands.append(extra)
            cand_sets.append(cands)
        # also: pull the projection of b back along nothing; cover it by
        # projecting every candidate forward, so just take the full product
        for combo in itertools.product(*cand_sets):  # every candidate lies on its segment
            d = LexValue.zero(G.vertex_trees[a.vertex].rank)
            cur_v, cur_p = a.vertex, a.point
            for (src, dst, phi, _i), x_i in zip(path, combo):
                d = d + distance(G.vertex_trees[src], cur_p, x_i)
                cur_p = phi.apply(x_i)
                cur_v = dst
            d = d + distance(G.vertex_trees[cur_v], cur_p, b.point)
            if best is None or d < best:
                best = d
    return best


def fold_glued_tree(G: GraphOfActions, path: list[tuple]):
    """Explicitly glue the vertex trees along a skeleton path; returns
    (tree, mapper) with mapper(vertex, point) -> point of the glued tree.
    A second independent oracle: path metric in the constructed tree."""
    if not path:
        raise GluingError("empty path")
    maps: dict[object, Callable] = {path[0][0]: lambda p: p}
    current = G.vertex_trees[path[0][0]]
    for (src, dst, phi, _i) in path:
        src_map = maps[src]
        ends = tuple(src_map(p) for p in phi.src_ends)
        step = SegmentIso(current, ends, G.vertex_trees[dst], phi.dst_ends)
        glued, m_src, m_dst = glue_subtree(step.inverse())
        # inverse orientation: we glue the new vertex tree onto the aggregate
        maps = {v: (lambda f, g: (lambda p: f(g(p))))(m_dst, f0) for v, f0 in maps.items()}
        maps[dst] = m_src
        current = glued
    return current, maps


# equivalence classes of the glue relation ----------------------------------------------


class EquivClass(Frozen):
    __slots__ = ("nodes", "acyclic", "inconclusive")  # nodes: (vertex, point) pairs


CLASS_CAP = 64


def glue_equiv_class(G: GraphOfActions, p: DualPoint) -> EquivClass:
    nodes: list[tuple[object, TreePoint]] = [(p.vertex, p.point)]
    index = {(p.vertex, repr(p.point)): 0}
    links: list[tuple[int, int, int]] = []
    queue = [0]
    while queue:
        i = queue.pop(0)
        v, pt = nodes[i]
        for (src, dst, phi, ei) in G.directed_edges:
            if src != v or not phi.src_spec.contains(pt):
                continue
            img = phi.apply(pt)
            key = (dst, repr(img))
            if key not in index:
                if len(nodes) >= CLASS_CAP:
                    return EquivClass(nodes, False, "class exceeds window cap")
                index[key] = len(nodes)
                nodes.append((dst, img))
                queue.append(index[key])
            j = index[key]
            if i < j or (i == j):
                links.append((i, j, ei))
    # dedupe symmetric links per underlying gluing edge
    uniq = {(min(i, j), max(i, j), e) for i, j, e in links}
    return EquivClass(nodes, len(uniq) <= len(nodes) - 1, None)


# free-gluing criterion (period-doubling witness) ---------------------------------------


class FreeCriterionReport(Frozen):
    __slots__ = ("verdict", "detail")  # verdict: Pass | Fail | Inconclusive


def check_free_criterion(
    G: GraphOfActions,
    attestations: dict,
    sample_points: list[DualPoint],
) -> FreeCriterionReport:
    """Pass if every vertex action is attested "free" and every sampled glue
    class has finite diameter; Fail on a period-doubling composite translation
    or a class that outgrows the window; Inconclusive with no sample point or
    an attestation other than "free"."""
    missing = [v for v in G.vertex_trees if attestations.get(v) != "free"]
    if missing:
        return FreeCriterionReport(
            "Inconclusive", f"missing freeness attestation for vertices {missing}"
        )
    # period doubling: parallel gluings composing to a positive shift
    de = G.directed_edges
    for (s1, d1, phi1, i1), (s2, d2, phi2, i2) in itertools.product(de, repeat=2):
        if i1 == i2 or s1 != s2 or d1 != d2:
            continue
        # composite chi = phi2^-1 . phi1 maps part of Y_s1 to itself
        inv2 = phi2.inverse()
        for z in phi1.src_spec.grid_points():
            w = phi1.apply(z)
            if not phi2.dst_spec.contains(w):
                continue
            z1 = inv2.apply(w)
            T = G.vertex_trees[s1]
            delta = distance(T, z, z1)
            if delta.is_zero():
                continue
            # iterate once: a repeatable positive shift means unbounded classes
            if phi1.src_spec.contains(z1):
                w2 = phi1.apply(z1)
                if phi2.dst_spec.contains(w2):
                    z2 = inv2.apply(w2)
                    if distance(T, z, z2) == delta + delta:
                        return FreeCriterionReport(
                            "Fail", f"composite of gluings {i1} and {i2} translates by {delta!r}"
                        )
    if not sample_points:  # no class sampled, so nothing may pass
        return FreeCriterionReport("Inconclusive", "no sample point given")
    for p in sample_points:
        cls = glue_equiv_class(G, p)
        if cls.inconclusive:
            return FreeCriterionReport(
                "Fail", f"class of {p!r} grows beyond the window: {cls.inconclusive}"
            )
        if not cls.acyclic:
            return FreeCriterionReport("Fail", f"class of {p!r} is not a tree")
    return FreeCriterionReport("Pass", "all sampled classes have finite diameter")
