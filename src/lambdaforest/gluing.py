"""Gluing trees along points and closed subtrees, graphs of actions with the
projection-folded dual distance, equivalence classes of the glue relation,
the free-gluing criterion, and transverse coverings and their skeletons.

Edge subtrees are points or segments (window truncations of lines); gluing
isometries between segments are determined by the images of the two
endpoints.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Optional

from .lambdatree import (
    EdgeInterior,
    MetricTree,
    SubtreeSpec,
    TreePoint,
    Vertex,
    distance,
    geodesic_legs,
    intersect_specs,
    point_at,
    project_to_closed_subtree,
    _Rows,
)
from .ordgroup import LexValue, _frozen


class GluingError(ValueError):
    pass


# subdivision with point transport ----------------------------------------------------


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
    new_vertices = set(T.vertices)
    rows = _Rows.common([T], (off for offs in per_edge.values() for off in offs))
    cuts: dict[tuple, list[tuple[LexValue, object]]] = {}
    for k, row in rows.of(T):
        offs = sorted(per_edge.get(k, []))
        if not offs:
            rows.append((k[0], k[1], row))
            continue
        chain = [(LexValue.zero(T.rank), k[0])]
        for i, off in enumerate(offs):
            vid = ("cut", k[0], k[1], i)
            new_vertices.add(vid)
            chain.append((off, vid))
        chain.append((T.edge_length(*k), k[1]))
        cuts[k] = chain[1:-1]
        for (o1, a), (o2, b) in zip(chain, chain[1:]):
            rows.add(a, b, o2 - o1)
    T2 = MetricTree(new_vertices, rows, T.rank)

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
        if distance(src_tree, *src_ends) != distance(dst_tree, *dst_ends):
            raise GluingError("gluing map is not an isometry: endpoint spans differ")

    @cached_property
    def src_spec(self) -> SubtreeSpec:
        return SubtreeSpec.from_points(self.src_tree, list(self.src_ends))

    @cached_property
    def dst_spec(self) -> SubtreeSpec:
        return SubtreeSpec.from_points(self.dst_tree, list(self.dst_ends))

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
    base_map = {v: ("base", v) for v in Y.vertices}
    verts = set(base_map.values())
    rows = _Rows.common([Y] + [Yi for Yi, _x, _y in attachments])
    rows.extend((base_map[u], base_map[v], row) for (u, v), row in rows.of(Y))
    att_maps = []
    for i, (Yi, xi, yi) in enumerate(attachments):
        if xi not in Y.vertices:
            raise GluingError(f"attachment point {xi!r} is not a vertex of the base")
        if yi not in Yi.vertices:
            raise GluingError(f"attachment point {yi!r} is not a vertex of tree {i}")
        if Yi.rank != Y.rank:
            raise GluingError("rank mismatch")
        m = {
            v: (base_map[xi] if v == yi else ("att", i, v)) for v in Yi.vertices
        }
        verts.update(m.values())
        rows.extend((m[u], m[v], row) for (u, v), row in rows.of(Yi))
        att_maps.append(m)
    return MetricTree(verts, rows, Y.rank), base_map, att_maps


# subtree gluing along identified segments ---------------------------------------------


def glue_subtree(phi: SegmentIso):
    """Glue phi.src_tree to phi.dst_tree along the segment identified by phi.
    Returns (tree, map_src, map_dst): point mappers into the result.

    The identified segment is cut at every vertex it meets on either side,
    then the two copies are merged vertex-by-vertex; the resulting path
    metric satisfies the projection formula (distance to the segment on one
    side, across it, then to the target) exactly."""
    Y1, Y2 = phi.src_tree, phi.dst_tree
    if Y1.rank != Y2.rank:
        raise GluingError("rank mismatch")
    grid1, grid2 = phi.src_spec.grid_points(), phi.dst_spec.grid_points()
    inv = phi.inverse()
    # common cut positions, expressed in both trees
    cut_pts1 = grid1 + [inv.apply(q) for q in grid2]
    Y1s, map1 = subdivide_at(Y1, cut_pts1)
    cut_pts2 = [phi.apply(p) for p in grid1] + grid2
    Y2s, map2 = subdivide_at(Y2, cut_pts2)

    # ordered cut vertices along the segment, matched across phi
    a1 = phi.src_ends[0]
    order = sorted(set(cut_pts1), key=lambda p: distance(Y1, a1, p).coords)
    ids1 = []
    ids2 = []
    for p in order:
        q1 = map1(p)
        q2 = map2(phi.apply(p))
        if not isinstance(q1, Vertex) or not isinstance(q2, Vertex):
            raise GluingError("cut point did not become a vertex")
        if q1.id not in ids1:
            ids1.append(q1.id)
            ids2.append(q2.id)
    glue_to_src = dict(zip(ids2, ids1))

    def tag1(v):
        return ("Y1", v)

    def tag2(v):
        return tag1(glue_to_src[v]) if v in glue_to_src else ("Y2", v)

    verts = {tag1(v) for v in Y1s.vertices} | {tag2(v) for v in Y2s.vertices}
    rows = _Rows.common([Y1s, Y2s])
    rows.extend((tag1(u), tag1(v), row) for (u, v), row in rows.of(Y1s))
    for (u, v), row in rows.of(Y2s):
        tu, tv = tag2(u), tag2(v)
        if tu[0] == "Y1" and tv[0] == "Y1":
            # edge inside the identified segment: already present from Y1
            if not Y1s.has_edge(tu[1], tv[1]):
                raise GluingError("interface edge missing on the other side")
            continue
        rows.append((tu, tv, row))
    glued = MetricTree(verts, rows, Y1.rank)

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


class GluedEdge:
    """Directed gluing datum: lam on the `src` side maps to the `dst` side."""

    def __init__(self, src, dst, phi: SegmentIso):
        self.src = src
        self.dst = dst
        self.phi = phi


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


class DualPoint:
    __slots__ = ("vertex", "point")
    __setattr__ = _frozen

    def __init__(self, vertex, point: TreePoint):
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "point", point)

    def __repr__(self):
        # free-criterion reports quote sample points in this form
        return f"DualPoint(vertex={self.vertex!r}, point={self.point!r})"


def dual_distance(G: GraphOfActions, a: DualPoint, b: DualPoint) -> LexValue:
    """Distance in the dual tree, computed by folding the projection formula
    edge-by-edge along the skeleton path."""
    paths = G.skeleton_paths(a.vertex, b.vertex)
    if not paths:
        raise GluingError("no skeleton path between carriers")
    best = None
    for path in paths:
        d = LexValue.zero(G.vertex_trees[a.vertex].rank)
        cur_v, cur_p = a.vertex, a.point
        for (src, dst, phi, _i) in path:
            T = G.vertex_trees[src]
            p = project_to_closed_subtree(T, phi.src_spec, cur_p)
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
            extra = project_to_closed_subtree(T, phi.src_spec, a.point) if src == a.vertex else None
            if extra is not None and extra not in cands:
                cands.append(extra)
            cand_sets.append(cands)
        # also: pull the projection of b back along nothing; cover it by
        # projecting every candidate forward, so just take the full product
        for combo in itertools.product(*cand_sets):
            d = LexValue.zero(G.vertex_trees[a.vertex].rank)
            cur_v, cur_p = a.vertex, a.point
            valid = True
            for (src, dst, phi, _i), x_i in zip(path, combo):
                T = G.vertex_trees[src]
                if not phi.src_spec.contains(x_i):
                    valid = False
                    break
                d = d + distance(T, cur_p, x_i)
                cur_p = phi.apply(x_i)
                cur_v = dst
            if not valid:
                continue
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


class EquivClass:
    def __init__(self, nodes: list[tuple[object, TreePoint]], acyclic: bool,
                 inconclusive: Optional[str] = None):
        self.nodes = nodes
        self.acyclic = acyclic
        self.inconclusive = inconclusive


CLASS_CAP = 64


def glue_equiv_class(G: GraphOfActions, p: DualPoint, cap: int = CLASS_CAP) -> EquivClass:
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
                if len(nodes) >= cap:
                    return EquivClass(nodes, False, "class exceeds window cap")
                index[key] = len(nodes)
                nodes.append((dst, img))
                queue.append(index[key])
            j = index[key]
            if i < j or (i == j):
                links.append((i, j, ei))
    # dedupe symmetric links per underlying gluing edge
    uniq = {(min(i, j), max(i, j), e) for i, j, e in links}
    acyclic = len(uniq) <= len(nodes) - 1 or len(nodes) == 1 and not uniq
    return EquivClass(nodes, acyclic)


# free-gluing criterion (period-doubling witness) ---------------------------------------


class FreeCriterionReport:
    def __init__(self, verdict: str, detail: str = ""):
        self.verdict = verdict  # Pass | Fail | Inconclusive
        self.detail = detail


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
            if not phi1.src_spec.contains(z):
                continue
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


# transverse coverings -------------------------------------------------------------------


class TransverseCovering:
    def __init__(self, ambient: MetricTree, members: list[SubtreeSpec]):
        self.ambient = ambient
        self.members = members
        if self.ambient.rank != 1:
            raise GluingError("transverse coverings live in rank-1 trees")
        for m in self.members:
            if m.tree is not self.ambient:
                raise GluingError("member of a different tree")


class TransverseReport:
    def __init__(self, ok: bool, kind: str = "", witness: tuple = ()):
        self.ok = ok
        self.kind = kind
        self.witness = witness


def transverse_check(C: TransverseCovering) -> TransverseReport:
    for m in C.members:
        if m.is_degenerate():
            return TransverseReport(False, "degenerate-member", (C.members.index(m),))
    for i, j in itertools.combinations(range(len(C.members)), 2):
        a, b = C.members[i], C.members[j]
        if a.same_set(b):
            continue
        inter = intersect_specs(a, b)
        if inter.more_than_one_point():
            return TransverseReport(False, "transverse-intersection", (i, j))
    # coverage: every edge fully covered by member intervals
    for k, ln in C.ambient.edges.items():
        intervals = sorted(
            (m.intervals[k] for m in C.members if k in m.intervals),
            key=lambda iv: iv[0].coords,
        )
        reach = LexValue.zero(1)
        for lo, hi in intervals:
            if lo > reach:
                return TransverseReport(False, "coverage-gap", (k,))
            reach = max(reach, hi)
        if reach < ln:
            return TransverseReport(False, "coverage-gap", (k,))
    return TransverseReport(True)


class SkeletonGraph:
    def __init__(self, member_vertices: list[int], point_vertices: list[TreePoint],
                 edges: list[tuple[object, object]], connected: bool, acyclic: bool,
                 terminal_members: list[int]):
        self.member_vertices = member_vertices  # indices into members (V1)
        self.point_vertices = point_vertices  # V0
        self.edges = edges  # ("pt", i) -- ("mem", j)
        self.connected = connected
        self.acyclic = acyclic
        self.terminal_members = terminal_members


def skeleton(C: TransverseCovering) -> SkeletonGraph:
    """Bipartite skeleton: members on one side, multi-membership points on
    the other; terminal member vertices flag non-minimality."""
    chk = transverse_check(C)
    if not chk.ok:
        raise GluingError(f"not a transverse covering: {chk.kind}")
    # distinct members (equal members collapse to one skeleton vertex)
    reps: list[int] = []
    for i, m in enumerate(C.members):
        if not any(m.same_set(C.members[r]) for r in reps):
            reps.append(i)
    points: list[TreePoint] = []
    for i, j in itertools.combinations(reps, 2):
        inter = intersect_specs(C.members[i], C.members[j])
        pt = inter.single_point()
        if pt is not None and pt not in points:
            points.append(pt)
    edges = []
    for pi, pt in enumerate(points):
        for r in reps:
            if C.members[r].contains(pt):
                edges.append((("pt", pi), ("mem", r)))
    # connectivity / acyclicity of the bipartite graph
    nodes = [("mem", r) for r in reps] + [("pt", i) for i in range(len(points))]
    adj = {n: set() for n in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = set()
    stack = [nodes[0]] if nodes else []
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        stack.extend(adj[n])
    connected = seen == set(nodes)
    acyclic = len(edges) == len(nodes) - 1 if nodes else True
    terminal_members = [r for r in reps if len(adj[("mem", r)]) <= 1]
    return SkeletonGraph(reps, points, edges, connected, acyclic, terminal_members)
