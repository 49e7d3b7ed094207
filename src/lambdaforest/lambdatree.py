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

from .ordgroup import LexValue, _frozen, _ratio


def _id_key(v):
    # deterministic order across heterogeneous id types
    return (type(v).__name__, repr(v))


class TreeError(ValueError):
    pass


def _json_rank(doc: dict) -> int:
    rank = doc["rank"]
    if type(rank) is not int or rank < 1:
        raise ValueError(f"rank must be a positive integer, got {rank!r}")
    return rank


def _scaled(rows: list) -> tuple[int, Iterable[list[int]]]:
    """D, the lcm of the denominators in rows of (numerator, denominator) pairs,
    and each row in turn times D as ints: sums and the lexicographic order hold."""
    D = math.lcm(*(d for row in rows for _, d in row))
    return D, ([n * (D // d) for n, d in row] for row in rows)


class _Rows(list):
    """Edges (u, v, row), each row a length times D as ints: the form a tree
    keeps its lengths in.  MetricTree takes one in place of a list of
    (u, v, LexValue), so a parsed or glued tree is built without LexValues."""

    def __init__(self, D: int, edges=()):
        super().__init__(edges)
        self.D = D

    @staticmethod
    def common(trees: list, values: Iterable[LexValue] = ()) -> "_Rows":
        """No edges yet, over one D for all the trees and the given values."""
        return _Rows(math.lcm(*(T._D for T in trees), *(c.denominator for x in values for c in x.coords)))

    def add(self, u, v, length: LexValue):
        """Edge (u, v) of a length whose denominators divide D."""
        self.append((u, v, [c.numerator * (self.D // c.denominator) for c in length.coords]))

    def of(self, T: "MetricTree"):
        """T's ((u, v), row) pairs in input order, each row scaled to D."""
        s = self.D // T._D
        return T._rows.items() if s == 1 else [(k, [c * s for c in row]) for k, row in T._rows.items()]


def _lex(row, D: int) -> LexValue:
    """The value of an int row scaled by D."""
    return LexValue._of(tuple([Fraction(c, D) for c in row]))


def _json_row(data, rank: int, what: str, *names) -> list:
    """A JSON list of `rank` rationals as (numerator, denominator) pairs."""
    if not isinstance(data, list):
        raise ValueError(f"{what.format(*names)} must be a list of rationals, got {data!r}")
    row = [_ratio(c) for c in data]
    if len(row) != rank:
        raise ValueError(f"{what.format(*names)} has rank {len(row)}, want {rank}" if row
                         else "rank must be positive")
    return row


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
    def __init__(self, vertices: Iterable, edges: Iterable[tuple] | _Rows, rank: int):
        """edges: iterable of (u, v, length) with length a LexValue, kept as
        int rows (see _Rows).  Vertex ids are numbered in _id_key order, so
        edge keys compare ints."""
        self.rank = rank
        self.vertices = frozenset(vertices)
        if not self.vertices:
            raise TreeError("tree must have at least one vertex")
        if isinstance(edges, _Rows):
            D = edges.D
        else:
            edges = list(edges)
            if not all(isinstance(ln, LexValue) for _u, _v, ln in edges):
                raise TreeError("edge length must be a LexValue")
            D, rows = _scaled([[_ratio(c) for c in ln.coords] for _u, _v, ln in edges])
            edges = [(u, v, row) for (u, v, _), row in zip(edges, rows)]
        # with one class of id, repr alone gives the _id_key order
        ids = sorted(self.vertices, key=repr if len(set(map(type, self.vertices))) == 1 else _id_key)
        self._index = index = {v: i for i, v in enumerate(ids)}
        self._D, self._rows = D, {}
        self.adj = adj = {v: [] for v in ids}
        rows, zero = self._rows, [0] * rank
        for u, v, row in edges:
            if u not in index or v not in index:
                raise TreeError(f"edge endpoint not a vertex: {u!r}-{v!r}")
            if u == v:
                raise TreeError("loop edge")
            if len(row) != rank:
                raise TreeError(f"edge length rank {len(row)} != tree rank {rank}")
            if not row > zero:  # int lists compare lexicographically
                raise TreeError(f"edge length must be positive, got {_lex(row, D)!r}")
            k = (u, v) if index[u] < index[v] else (v, u)
            if k in rows:
                raise TreeError(f"duplicate edge {k!r}")
            rows[k] = row
            adj[u].append(v)
            adj[v].append(u)
        if len(rows) != len(self.vertices) - 1:
            raise TreeError("not a tree: wrong edge count")
        # rooting walk: parent, depth and r, the distance from the root times
        # D, per vertex, in discovery order, so a parent always precedes its
        # children; an unreached vertex means the graph is not connected
        self.parent = parent = {ids[0]: None}
        self.depth = depth = {ids[0]: 0}
        self._r = r = {ids[0]: zero}
        stack = [ids[0]]
        while stack:
            w = stack.pop()
            for nb in adj[w]:
                if nb not in parent:
                    parent[nb] = w
                    depth[nb] = depth[w] + 1
                    k = (w, nb) if index[w] < index[nb] else (nb, w)
                    r[nb] = list(map(operator.add, r[w], rows[k]))
                    stack.append(nb)
        if len(self.parent) != len(self.vertices):
            raise TreeError("not connected")

    # basic queries ----------------------------------------------------------

    def _key(self, u, v) -> tuple:
        """The key of edge {u, v}: its ends in _id_key order."""
        i = self._index
        try:
            return (u, v) if i[u] < i[v] else (v, u)
        except KeyError:  # not two vertices, so no edge
            return (u, v) if _id_key(u) <= _id_key(v) else (v, u)

    def _length(self, k) -> LexValue:
        return _lex(self._rows[k], self._D)

    @property
    def edges(self) -> dict:
        """Each edge's length as a LexValue, keyed as _key orders its ends."""
        return {k: self._length(k) for k in self._rows}

    def edge_length(self, u, v) -> LexValue:
        return self._length(self._key(u, v))

    def has_edge(self, u, v) -> bool:
        return self._key(u, v) in self._rows

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
        """r(u) + r(v) - 2 r(meet), with r the distance from the root."""
        r = self._r
        return _lex([a + b - 2 * c for a, b, c in zip(r[u], r[v], r[self._meet(u, v)])], self._D)

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
        k = self._key(u, v)
        ln = self._length(k)
        zero = LexValue.zero(self.rank)
        if offset == zero:
            return Vertex(u)
        if offset == ln:
            return Vertex(v)
        if not (zero < offset < ln):
            raise TreeError(f"offset {offset!r} outside edge of length {ln!r}")
        cu, cv = k
        return EdgeInterior(cu, cv, offset if cu == u else ln - offset)

    def check_point(self, x: TreePoint) -> None:
        if isinstance(x, Vertex):
            if x.id not in self.vertices:
                raise TreeError(f"vertex {x.id!r} not in tree")
        else:
            k = self._key(x.u, x.v)
            if k not in self._rows:
                raise TreeError(f"edge {x.u!r}-{x.v!r} not in tree")
            if not (LexValue.zero(self.rank) < x.offset < self._length(k)):
                raise TreeError(f"interior offset {x.offset!r} out of range")

    def to_json(self) -> dict:
        s, r = {v: str(v) for v in self.vertices}, {v: repr(v) for v in self.vertices}
        return {
            "rank": self.rank,
            "vertices": sorted(s.values()),
            # keys are tuples: their repr, built from each id's once, sorts in _id_key order
            "edges": [{"u": s[u], "v": s[v],
                       "len": [str(c) if self._D == 1 else str(Fraction(c, self._D)) for c in row]}
                      for (u, v), row in sorted(self._rows.items(),
                                                key=lambda kv: f"({r[kv[0][0]]}, {r[kv[0][1]]})")],
        }

    @staticmethod
    def from_json(doc: dict) -> "MetricTree":
        rank = _json_rank(doc)
        vertices = doc["vertices"]
        if not isinstance(vertices, list) or len(set(vertices)) != len(vertices):
            raise ValueError("vertices must be a list of distinct ids")
        edges = [(e["u"], e["v"], _json_row(e["len"], rank, "edge {}-{}", e["u"], e["v"]))
                 for e in doc["edges"]]
        D, rows = _scaled([ln for _u, _v, ln in edges])
        return MetricTree(vertices, _Rows(D, [(u, v, row) for (u, v, _), row in zip(edges, rows)]), rank)


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


def _same_edge(T: MetricTree, x: TreePoint, y: TreePoint) -> bool:
    return (isinstance(x, EdgeInterior) and isinstance(y, EdgeInterior)
            and T._key(x.u, x.v) == T._key(y.u, y.v))


def geodesic_legs(T: MetricTree, x: TreePoint, y: TreePoint) -> list[Leg]:
    T.check_point(x)
    T.check_point(y)
    if x == y:
        return []
    if _same_edge(T, x, y):
        return [Leg(x.u, x.v, x.offset, y.offset)]
    zero = LexValue.zero(T.rank)
    ex, entry = _exit(T, x, y)[0], _exit(T, y, x)[0]
    legs: list[Leg] = []
    if isinstance(x, EdgeInterior):
        legs.append(Leg(x.u, x.v, x.offset, zero if ex == x.u else T.edge_length(x.u, x.v)))
    path = T.vertex_path(ex, entry)
    for a, b in zip(path, path[1:]):
        cu, cv = k = T._key(a, b)
        ln = T._length(k)
        legs.append(Leg(cu, cv, zero, ln) if a == cu else Leg(cu, cv, ln, zero))
    if isinstance(y, EdgeInterior):
        legs.append(Leg(y.u, y.v, zero if entry == y.u else T.edge_length(y.u, y.v), y.offset))
    return legs


def distance(T: MetricTree, x: TreePoint, y: TreePoint) -> LexValue:
    T.check_point(x)
    T.check_point(y)
    if isinstance(x, Vertex) and isinstance(y, Vertex):  # no offsets to add
        return T.vertex_distance(x.id, y.id)
    if _same_edge(T, x, y):
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
    def __init__(self, labels: list, dist: list[list], rank: int):
        """dist: rows of LexValues of the given rank."""
        if any(d.rank != rank for row in dist for d in row):
            raise TreeError(f"every distance must have rank {rank}")
        D, flat = _scaled([[_ratio(c) for c in d.coords] for row in dist for d in row])
        self.labels, self.rank, self._D, self._rows = labels, rank, D, [[next(flat) for _ in row] for row in dist]

    @staticmethod
    def _from_rows(labels: list, rows: list[list], rank: int, D: int) -> "FiniteLambdaMetric":
        """rows: each distance times D as `rank` ints, the form the validator reads."""
        M = object.__new__(FiniteLambdaMetric)
        M.labels, M.rank, M._D, M._rows = labels, rank, D, rows
        return M

    @property
    def dist(self) -> list[list[LexValue]]:
        return [[_lex(d, self._D) for d in row] for row in self._rows]

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
        D, flat = _scaled([_json_row(d, rank, "dist[{}][{}]", i, j)
                           for i, row in enumerate(rows) for j, d in enumerate(row)])
        return FiniteLambdaMetric._from_rows(labels, [[next(flat) for _ in row] for row in rows], rank, D)


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


def validate_tree_metric(M: FiniteLambdaMetric) -> ValidationResult:
    """Metric axioms, then the triangle inequality on every triple and the
    four-point 0-hyperbolicity inequality on every quadruple (exhaustive,
    over integer-packed distances; point count capped).

    The table holds each distance times D, the lcm of every coordinate
    denominator, as integer vectors, which keeps sums and the lexicographic
    order.  A vector c packs to P(c) = c_0 K^(n-1) + ... + c_(n-1) with
    K = 4B + 1, where B bounds every |c_i|.  P is additive, so
    P(x) - P(y) = P(x - y).  The scans compare single values and sums of
    two, whose coordinates are at most 2B in absolute value, so z = x - y
    has |z_i| <= 4B = K - 1.  If z_t is its first nonzero coordinate, the
    later terms of P(z) add up to at most (K - 1)(K^(n-2-t) + ... + 1) =
    K^(n-1-t) - 1 in absolute value, less than |z_t| K^(n-1-t); so P(z) has
    the sign of z_t, and comparing packed ints is comparing the values
    lexicographically."""
    m = len(M.labels)
    if m == 0:
        raise TreeError("metric has no points: nothing to validate")
    if m > MAX_VALIDATION_POINTS:
        raise TreeError(f"validator capped at {MAX_VALIDATION_POINTS} points, got {m}")
    d, zero = M._rows, [0] * M.rank
    for i in range(m):
        if d[i][i] != zero:
            return ValidationResult(False, "nonzero-diagonal", (M.labels[i],))
        for j in range(m):
            if d[i][j] != d[j][i]:
                return ValidationResult(False, "asymmetry", (M.labels[i], M.labels[j]))
            if i != j and not d[i][j] > zero:  # int lists compare lexicographically
                return ValidationResult(False, "non-separation", (M.labels[i], M.labels[j]))
    K = 4 * max(abs(c) for row in d for cs in row for c in cs) + 1
    powers = [K ** t for t in range(M.rank - 1, -1, -1)]
    p = [[sum(map(operator.mul, cs, powers)) for cs in row] for row in d]
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
            k = T._key(u, v)
            ln = T._length(k)
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
        for v in verts:
            if v not in T.vertices:
                raise TreeError(f"subtree vertex {v!r} not in tree")
        # a fully contained edge is an interval over its whole length
        for u in verts:
            for v in T.adj[u]:
                if v in verts and (k := T._key(u, v)) not in ivals:
                    ivals[k] = (LexValue.zero(T.rank), T._length(k))
        self.vertices = frozenset(verts)
        self.intervals = ivals
        if not self.vertices and not self.intervals:
            raise TreeError("empty subtree")

    def contains(self, x: TreePoint) -> bool:
        if isinstance(x, Vertex):
            return x.id in self.vertices
        k = self.tree._key(x.u, x.v)
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
            if isinstance(p, EdgeInterior) and T._key(p.u, p.v) == (u, v) and lo <= p.offset <= hi:
                absorbed = True
            if isinstance(p, Vertex) and (
                (p.id == u and lo.is_zero()) or (p.id == v and hi == T._length((u, v)))
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
