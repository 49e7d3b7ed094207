"""Finite trees with lexicographic edge lengths: metric, geodesics, medians,
closed-subtree projection, axiom validation, and the kill-infinitesimals
base change.

A tree is a finite connected acyclic graph whose edges carry strictly
positive LexValue lengths of a common rank.  Points are either vertices or
edge-interior points given by an exact offset from the canonical (smaller id)
endpoint.  Everything is immutable; operations return new trees.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Optional

from .ordgroup import LexValue, _frozen


def _id_key(v):
    # deterministic order across heterogeneous id types
    return (type(v).__name__, repr(v))


def _ekey(u, v) -> tuple:
    return (u, v) if _id_key(u) <= _id_key(v) else (v, u)


class TreeError(ValueError):
    pass


def _json_rank(doc: dict) -> int:
    rank = doc["rank"]
    if type(rank) is not int or rank < 1:
        raise ValueError(f"rank must be a positive integer, got {rank!r}")
    return rank


def _scaled(values: list[LexValue]) -> tuple[int, list[list[int]]]:
    """D, the lcm of every coordinate denominator, and each value times D
    as a list of ints: sums and the lexicographic order are kept."""
    D = math.lcm(*(c.denominator for v in values for c in v.coords))
    return D, [[c.numerator * (D // c.denominator) for c in v.coords] for v in values]


def _json_value(data, rank: int, what: str) -> LexValue:
    """A JSON list of rationals as a LexValue of the given rank."""
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a list of rationals, got {data!r}")
    v = LexValue.from_json(data)
    if v.rank != rank:
        raise ValueError(f"{what} has rank {v.rank}, want {rank}")
    return v


class Vertex:
    __slots__ = ("id",)
    __setattr__ = _frozen

    def __init__(self, id):
        object.__setattr__(self, "id", id)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.id,) == (other.id,)
        return NotImplemented

    def __hash__(self):
        return hash((self.id,))

    def __repr__(self):
        return f"Vertex({self.id!r})"


class EdgeInterior:
    """Interior point of edge {u, v}; offset measured from u, the canonical
    (smaller id) anchor, with 0 < offset < length."""

    __slots__ = ("u", "v", "offset")
    __setattr__ = _frozen

    def __init__(self, u, v, offset: LexValue):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "offset", offset)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.u, self.v, self.offset) == (other.u, other.v, other.offset)
        return NotImplemented

    def __hash__(self):
        return hash((self.u, self.v, self.offset))

    def __repr__(self):
        return f"EdgeInterior({self.u!r}-{self.v!r} @ {self.offset!r})"


TreePoint = Vertex | EdgeInterior


class MetricTree:
    def __init__(self, vertices: Iterable, edges: Iterable[tuple], rank: int):
        """edges: iterable of (u, v, length) with length a LexValue."""
        self.rank = rank
        self.vertices = frozenset(vertices)
        if not self.vertices:
            raise TreeError("tree must have at least one vertex")
        self.edges: dict[tuple, LexValue] = {}
        self.adj: dict[object, list] = {v: [] for v in self.vertices}
        for u, v, ln in edges:
            if u not in self.vertices or v not in self.vertices:
                raise TreeError(f"edge endpoint not a vertex: {u!r}-{v!r}")
            if u == v:
                raise TreeError("loop edge")
            if not isinstance(ln, LexValue):
                raise TreeError("edge length must be a LexValue")
            if ln.rank != rank:
                raise TreeError(f"edge length rank {ln.rank} != tree rank {rank}")
            if not ln.is_positive():
                raise TreeError(f"edge length must be positive, got {ln!r}")
            k = _ekey(u, v)
            if k in self.edges:
                raise TreeError(f"duplicate edge {k!r}")
            self.edges[k] = ln
            self.adj[k[0]].append(k[1])
            self.adj[k[1]].append(k[0])
        if len(self.edges) != len(self.vertices) - 1:
            raise TreeError("not a tree: wrong edge count")
        # rooting walk: parent and depth per vertex, in discovery order, so a
        # parent always precedes its children; an unreached vertex means the
        # graph is not connected
        root = next(iter(self.vertices))
        self.parent: dict[object, object] = {root: None}
        self.depth: dict[object, int] = {root: 0}
        stack = [root]
        while stack:
            w = stack.pop()
            for nb in self.adj[w]:
                if nb not in self.parent:
                    self.parent[nb] = w
                    self.depth[nb] = self.depth[w] + 1
                    stack.append(nb)
        if len(self.parent) != len(self.vertices):
            raise TreeError("not connected")
        self._root_dist: tuple | None = None

    # basic queries ----------------------------------------------------------

    def edge_length(self, u, v) -> LexValue:
        return self.edges[_ekey(u, v)]

    def _meet(self, u, v):
        """The vertex where the root paths of u and v join."""
        depth, parent = self.depth, self.parent
        while depth[u] > depth[v]:
            u = parent[u]
        while depth[v] > depth[u]:
            v = parent[v]
        while u != v:
            u, v = parent[u], parent[v]
        return u

    def vertex_distance(self, u, v) -> LexValue:
        """r(u) + r(v) - 2 r(meet), with r the distance from the root.  The
        first query sums r over the tree and keeps it, scaled by D, the lcm
        of every coordinate denominator, so that the sums are over ints."""
        if self._root_dist is None:
            D, scaled = _scaled(list(self.edges.values()))
            to_parent = {a if self.parent[a] == b else b: cs
                         for (a, b), cs in zip(self.edges, scaled)}
            r: dict[object, list] = {}
            for w, p in self.parent.items():
                r[w] = [0] * self.rank if p is None else list(map(operator.add, r[p], to_parent[w]))
            self._root_dist = (D, r)
        D, r = self._root_dist
        m = r[self._meet(u, v)]
        return LexValue._of(tuple(Fraction(a + b - 2 * c, D) for a, b, c in zip(r[u], r[v], m)))

    def vertex_path(self, u, v) -> list:
        m = self._meet(u, v)
        up, down = [u], [v]
        while up[-1] != m:
            up.append(self.parent[up[-1]])
        while down[-1] != m:
            down.append(self.parent[down[-1]])
        return up + down[-2::-1]

    def point(self, u, v, offset: LexValue) -> TreePoint:
        """Point on edge {u, v} at given offset from u, canonicalized."""
        ln = self.edge_length(u, v)
        zero = LexValue.zero(self.rank)
        if offset == zero:
            return Vertex(u)
        if offset == ln:
            return Vertex(v)
        if not (zero < offset < ln):
            raise TreeError(f"offset {offset!r} outside edge of length {ln!r}")
        cu, cv = _ekey(u, v)
        return EdgeInterior(cu, cv, offset if cu == u else ln - offset)

    def check_point(self, x: TreePoint) -> None:
        if isinstance(x, Vertex):
            if x.id not in self.vertices:
                raise TreeError(f"vertex {x.id!r} not in tree")
        else:
            if _ekey(x.u, x.v) not in self.edges:
                raise TreeError(f"edge {x.u!r}-{x.v!r} not in tree")
            ln = self.edge_length(x.u, x.v)
            zero = LexValue.zero(self.rank)
            if not (zero < x.offset < ln):
                raise TreeError(f"interior offset {x.offset!r} out of range")

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "vertices": sorted((str(v) for v in self.vertices)),
            "edges": [
                {"u": str(u), "v": str(v), "len": ln.to_json()}
                for (u, v), ln in sorted(self.edges.items(), key=lambda kv: _id_key(kv[0]))
            ],
        }

    @staticmethod
    def from_json(doc: dict) -> "MetricTree":
        rank = _json_rank(doc)
        return MetricTree(
            doc["vertices"],
            [(e["u"], e["v"], _json_value(e["len"], rank, f"edge {e['u']}-{e['v']}"))
             for e in doc["edges"]],
            rank,
        )


# geodesics -------------------------------------------------------------------


class Leg:
    """Directed portion of an edge: walk edge {u, v} (canonical order) from
    offset `a` to offset `b`, offsets measured from u."""

    __slots__ = ("u", "v", "a", "b")
    __setattr__ = _frozen

    def __init__(self, u, v, a: LexValue, b: LexValue):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.u, self.v, self.a, self.b) == (other.u, other.v, other.a, other.b)
        return NotImplemented

    def __hash__(self):
        return hash((self.u, self.v, self.a, self.b))

    def length(self) -> LexValue:
        return abs(self.b - self.a)


def _exit(T: MetricTree, x: TreePoint, y: TreePoint) -> tuple[object, LexValue]:
    """The vertex through which the geodesic from x to y (a point off x's
    edge) leaves that edge, and its distance from x; a vertex is its own
    exit.  An interior point leaves through the child endpoint of its edge
    exactly when y lies below that child.  If y is interior to another edge,
    either endpoint of that edge lies below the child exactly when y does."""
    if isinstance(x, Vertex):
        return x.id, LexValue.zero(T.rank)
    child, up = (x.u, x.v) if T.parent[x.u] == x.v else (x.v, x.u)
    low = y.id if isinstance(y, Vertex) else y.u
    ex = child if T._meet(low, child) == child else up
    return ex, x.offset if ex == x.u else T.edge_length(x.u, x.v) - x.offset


def _same_edge(x: TreePoint, y: TreePoint) -> bool:
    return (isinstance(x, EdgeInterior) and isinstance(y, EdgeInterior)
            and _ekey(x.u, x.v) == _ekey(y.u, y.v))


def geodesic_legs(T: MetricTree, x: TreePoint, y: TreePoint) -> list[Leg]:
    T.check_point(x)
    T.check_point(y)
    if x == y:
        return []
    if _same_edge(x, y):
        return [Leg(x.u, x.v, x.offset, y.offset)]
    zero = LexValue.zero(T.rank)
    ex, entry = _exit(T, x, y)[0], _exit(T, y, x)[0]
    legs: list[Leg] = []
    if isinstance(x, EdgeInterior):
        legs.append(Leg(x.u, x.v, x.offset, zero if ex == x.u else T.edge_length(x.u, x.v)))
    path = T.vertex_path(ex, entry)
    for a, b in zip(path, path[1:]):
        cu, cv = _ekey(a, b)
        ln = T.edge_length(cu, cv)
        legs.append(Leg(cu, cv, zero, ln) if a == cu else Leg(cu, cv, ln, zero))
    if isinstance(y, EdgeInterior):
        legs.append(Leg(y.u, y.v, zero if entry == y.u else T.edge_length(y.u, y.v), y.offset))
    return legs


def distance(T: MetricTree, x: TreePoint, y: TreePoint) -> LexValue:
    T.check_point(x)
    T.check_point(y)
    if _same_edge(x, y):
        return abs(x.offset - y.offset)
    ex, dx = _exit(T, x, y)
    entry, dy = _exit(T, y, x)
    return dx + T.vertex_distance(ex, entry) + dy


def point_at(T: MetricTree, legs: list[Leg], s: LexValue) -> TreePoint:
    """Point at arclength s along a leg list (s from the start)."""
    zero = LexValue.zero(T.rank)
    if s < zero:
        raise TreeError("negative arclength")
    if not legs:
        if s.is_zero():
            raise TreeError("cannot locate a point on an empty geodesic")
        raise TreeError("arclength beyond geodesic end")
    acc = zero
    for leg in legs:
        ln = leg.length()
        if s <= acc + ln:
            r = s - acc
            off = leg.a + r if leg.b > leg.a else leg.a - r
            return T.point(leg.u, leg.v, off)
        acc = acc + ln
    raise TreeError("arclength beyond geodesic end")


def median(T: MetricTree, x: TreePoint, y: TreePoint, z: TreePoint) -> TreePoint:
    """The unique point on all three pairwise geodesics (2Λ = Λ over Q^n, so
    the Gromov product is an exact point of the tree)."""
    dxy = distance(T, x, y)
    dxz = distance(T, x, z)
    dyz = distance(T, y, z)
    dxm = (dxy + dxz - dyz).half()
    if dxm.is_zero():
        return x
    return point_at(T, geodesic_legs(T, x, y), dxm)


# metric-table validation -------------------------------------------------------


class FiniteLambdaMetric:
    def __init__(self, labels: list, dist: list[list[LexValue]], rank: int):
        self.labels = labels
        self.dist = dist
        self.rank = rank

    @staticmethod
    def from_tree(T: MetricTree, points: Optional[list[TreePoint]] = None, labels=None) -> "FiniteLambdaMetric":
        if points is None:
            points = [Vertex(v) for v in sorted(T.vertices, key=_id_key)]
        if labels is None:
            labels = [repr(p) for p in points]
        table = [[distance(T, p, q) for q in points] for p in points]
        return FiniteLambdaMetric(labels, table, T.rank)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "labels": list(self.labels),
            "dist": [[d.to_json() for d in row] for row in self.dist],
        }

    @staticmethod
    def from_json(doc: dict) -> "FiniteLambdaMetric":
        rank = _json_rank(doc)
        labels, rows = doc["labels"], doc["dist"]
        if not isinstance(labels, list) or not labels:
            raise ValueError("labels must be a non-empty list")
        m = len(labels)
        if not (isinstance(rows, list) and len(rows) == m
                and all(isinstance(row, list) and len(row) == m for row in rows)):
            raise ValueError(f"dist must be {m} rows of {m} entries")
        return FiniteLambdaMetric(
            labels,
            [[_json_value(d, rank, f"dist[{i}][{j}]") for j, d in enumerate(row)]
             for i, row in enumerate(rows)],
            rank,
        )


class ValidationResult:
    def __init__(self, ok: bool, kind: str = "", witness: tuple = (),
                 note: str = "2L condition vacuous over Q^n (2L = L)"):
        self.ok = ok
        self.kind = kind
        self.witness = witness
        self.note = note

    def __bool__(self):
        return self.ok


MAX_VALIDATION_POINTS = 32


def _packed_table(d: list[list[LexValue]]) -> list[list[int]]:
    """Each off-diagonal entry of a symmetric table as one int with the same
    order on the sums the four-point scans compare (the diagonal packs to 0).

    Scaling by D, the lcm of every coordinate denominator, makes the values
    integer vectors and keeps sums and the lexicographic order.  A scaled
    vector c packs to P(c) = c_0 K^(n-1) + ... + c_(n-1) with K = 4B + 1,
    where B bounds every |c_i|.  P is additive, so P(x) - P(y) = P(x - y).
    The scans compare single values and sums of two, whose coordinates are
    at most 2B in absolute value, so z = x - y has |z_i| <= 4B = K - 1.  If
    z_t is its first nonzero coordinate, the later terms of P(z) add up to
    at most (K - 1)(K^(n-2-t) + ... + 1) = K^(n-1-t) - 1 in absolute value,
    less than |z_t| K^(n-1-t); so P(z) has the sign of z_t, and comparing
    packed ints is comparing the values lexicographically."""
    m = len(d)
    pairs = list(itertools.combinations(range(m), 2))
    scaled = _scaled([d[i][j] for i, j in pairs])[1]
    K = 4 * max((abs(c) for cs in scaled for c in cs), default=0) + 1
    p = [[0] * m for _ in range(m)]
    for (i, j), cs in zip(pairs, scaled):
        v = 0
        for c in cs:
            v = v * K + c
        p[i][j] = p[j][i] = v
    return p


def validate_tree_metric(M: FiniteLambdaMetric) -> ValidationResult:
    """Metric axioms, then the triangle inequality on every triple and the
    four-point 0-hyperbolicity inequality on every quadruple (exhaustive,
    over integer-packed distances; point count capped)."""
    m = len(M.labels)
    if m == 0:
        raise TreeError("metric has no points: nothing to validate")
    if m > MAX_VALIDATION_POINTS:
        raise TreeError(f"validator capped at {MAX_VALIDATION_POINTS} points, got {m}")
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
    p = _packed_table(d)
    for i, j, k in itertools.combinations(range(m), 3):
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            if p[a][c] > p[a][b] + p[b][c]:
                return ValidationResult(
                    False, "triangle-inequality", (M.labels[a], M.labels[b], M.labels[c])
                )
    for i, j, k, l in itertools.combinations(range(m), 4):
        s1 = p[i][j] + p[k][l]
        s2 = p[i][k] + p[j][l]
        s3 = p[i][l] + p[j][k]
        sums = sorted([s1, s2, s3])
        if sums[2] > sums[1]:
            return ValidationResult(
                False, "four-point", (M.labels[i], M.labels[j], M.labels[k], M.labels[l])
            )
    return ValidationResult(True)


# closed subtrees ----------------------------------------------------------------


class SubtreeSpec:
    """Convex subset of a tree: a set of vertices plus closed clipped edge
    intervals (offsets from the canonical anchor, endpoints included).
    Half-open clips are unrepresentable, so every spec is a closed subtree."""

    def __init__(self, T: MetricTree, vertices: Iterable = (), intervals: dict | None = None):
        self.tree = T
        verts = set(vertices)
        ivals: dict[tuple, tuple[LexValue, LexValue]] = {}
        for (u, v), (lo, hi) in (intervals or {}).items():
            k = _ekey(u, v)
            ln = T.edges[k]
            if (u, v) != k:
                lo, hi = ln - hi, ln - lo
            zero = LexValue.zero(T.rank)
            if not (zero <= lo <= hi <= ln):
                raise TreeError("interval out of edge range")
            ivals[k] = (lo, hi)
            if lo == zero:
                verts.add(k[0])
            if hi == ln:
                verts.add(k[1])
        # a fully contained edge is an interval over its whole length
        for (u, v), ln in T.edges.items():
            if u in verts and v in verts and (u, v) not in ivals:
                ivals[(u, v)] = (LexValue.zero(T.rank), ln)
        for v in verts:
            if v not in T.vertices:
                raise TreeError(f"subtree vertex {v!r} not in tree")
        self.vertices = frozenset(verts)
        self.intervals = ivals
        if not self.vertices and not self.intervals:
            raise TreeError("empty subtree")

    def contains(self, x: TreePoint) -> bool:
        if isinstance(x, Vertex):
            return x.id in self.vertices
        k = _ekey(x.u, x.v)
        if k not in self.intervals:
            return False
        lo, hi = self.intervals[k]
        return lo <= x.offset <= hi

    def grid_points(self) -> list[TreePoint]:
        """Vertices plus interval endpoints: the finite skeleton of the spec."""
        pts: list[TreePoint] = [Vertex(v) for v in sorted(self.vertices, key=_id_key)]
        for (u, v), (lo, hi) in sorted(self.intervals.items(), key=lambda kv: _id_key(kv[0])):
            for off in (lo, hi):
                p = self.tree.point(u, v, off)
                if p not in pts:
                    pts.append(p)
        return pts

    def base_point(self) -> TreePoint:
        return self.grid_points()[0]

    def is_degenerate(self) -> bool:
        return len(self.grid_points()) <= 1

    def same_set(self, other: "SubtreeSpec") -> bool:
        return self.vertices == other.vertices and self.intervals == other.intervals

    @staticmethod
    def from_points(T: MetricTree, points: list[TreePoint]) -> "SubtreeSpec":
        """Convex hull of finitely many points."""
        if not points:
            raise TreeError("empty subtree")
        verts: set = set()
        ivals: dict[tuple, tuple[LexValue, LexValue]] = {}

        def add_interval(u, v, a, b):
            lo, hi = (a, b) if a <= b else (b, a)
            if (u, v) in ivals:
                plo, phi = ivals[(u, v)]
                lo, hi = min(lo, plo), max(hi, phi)
            ivals[(u, v)] = (lo, hi)

        for p in points:
            if isinstance(p, Vertex):
                verts.add(p.id)
            else:
                add_interval(p.u, p.v, p.offset, p.offset)
        for p, q in itertools.combinations(points, 2):
            for leg in geodesic_legs(T, p, q):
                add_interval(leg.u, leg.v, leg.a, leg.b)
        return SubtreeSpec(T, verts, ivals)


class SpecIntersection:
    def __init__(self, points: list, intervals: dict):
        self.points = points  # isolated intersection points
        self.intervals = intervals  # shared non-degenerate edge intervals

    def more_than_one_point(self) -> bool:
        return bool(self.intervals) or len(self.points) > 1

    def single_point(self):
        if not self.intervals and len(self.points) == 1:
            return self.points[0]
        return None


def intersect_specs(Y1: SubtreeSpec, Y2: SubtreeSpec) -> SpecIntersection:
    """Intersection of two closed subtrees of a common tree."""
    if Y1.tree is not Y2.tree:
        raise TreeError("subtrees of different trees")
    T = Y1.tree
    pts = {Vertex(v) for v in Y1.vertices & Y2.vertices}
    ivals = {}
    for k in set(Y1.intervals) & set(Y2.intervals):
        lo = max(Y1.intervals[k][0], Y2.intervals[k][0])
        hi = min(Y1.intervals[k][1], Y2.intervals[k][1])
        if lo < hi:
            ivals[k] = (lo, hi)
        elif lo == hi:
            pts.add(T.point(k[0], k[1], lo))
    # drop isolated points absorbed by an interval
    keep = []
    for p in sorted(pts, key=repr):
        absorbed = False
        for (u, v), (lo, hi) in ivals.items():
            if isinstance(p, EdgeInterior) and _ekey(p.u, p.v) == (u, v) and lo <= p.offset <= hi:
                absorbed = True
            if isinstance(p, Vertex) and (
                (p.id == u and lo.is_zero()) or (p.id == v and hi == T.edges[(u, v)])
            ):
                absorbed = True
        if not absorbed:
            keep.append(p)
    return SpecIntersection(keep, ivals)


def project_to_closed_subtree(T: MetricTree, Y: SubtreeSpec, x: TreePoint) -> TreePoint:
    """The unique p in Y with [y0, x] ∩ Y = [y0, p]; independent of y0."""
    if Y.contains(x):
        return x
    y0 = Y.base_point()
    legs = geodesic_legs(T, y0, x)
    cur = y0
    for leg in legs:
        end = T.point(leg.u, leg.v, leg.b)
        if Y.contains(end):
            cur = end
            continue
        k = (leg.u, leg.v)
        if k not in Y.intervals:
            return cur
        lo, hi = Y.intervals[k]
        cut = min(leg.b, hi) if leg.b > leg.a else max(leg.b, lo)
        return T.point(leg.u, leg.v, cut)
    return cur


# tree surgery -------------------------------------------------------------------


def kill_infinitesimals(T: MetricTree):
    """Contract every infinitesimal edge, project lengths to the leading
    coordinate; returns (rank-1 tree, vertex -> class representative map)."""
    if T.rank < 2:
        raise TreeError("kill_infinitesimals needs rank >= 2")
    parent = {v: v for v in T.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (u, v), ln in T.edges.items():
        if ln.is_infinitesimal():
            ru, rv = find(u), find(v)
            if ru != rv:
                a, b = sorted((ru, rv), key=_id_key)
                parent[b] = a
    vmap = {v: find(v) for v in T.vertices}
    new_vertices = set(vmap.values())
    new_edges = []
    for (u, v), ln in T.edges.items():
        if not ln.is_infinitesimal():
            new_edges.append((vmap[u], vmap[v], ln.project_top(1)))
    return MetricTree(new_vertices, new_edges, 1), vmap
