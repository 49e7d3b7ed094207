"""Finite trees with lexicographic edge lengths: metric, geodesics, medians
(the median of x, y and z is the projection of z onto [x, y]), closed
subtrees as the hulls of their points, axiom validation, and the
kill-infinitesimals base change.

A tree is a finite connected acyclic graph whose edges carry strictly
positive LexValue lengths of a common rank.  Points are either vertices or
edge-interior points given by an exact offset from the canonical (smaller id)
endpoint.  Everything is immutable; operations return new trees.

_arith binds LexValue, Fraction and _ratio, and so loads ordgroup, on the first
tree or LexValue table: validate-tree checks a plain table on ints alone.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property
from typing import Iterable, Optional

from .cli import _quote
from .frozen import Frozen, Value

LexValue = Fraction = _ratio = None  # bound by _arith


def _arith() -> None:
    global LexValue, Fraction, _ratio
    if _ratio is None:
        from fractions import Fraction
        from .ordgroup import LexValue, _ratio


def _id_key(v):
    # deterministic order across heterogeneous id types
    return (type(v).__name__, repr(v))


class TreeError(ValueError):
    pass


def _json_rank(doc: dict, what: str) -> int:
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be an object, got {doc!r}")
    rank = doc.get("rank")
    if type(rank) is not int or rank < 1:
        raise ValueError(f"rank must be a positive integer, got {rank!r}")
    return rank


def _scaled(rows: list) -> tuple[int, Iterable[list[int]]]:
    """D, the lcm of the denominators in rows of (numerator, denominator) pairs,
    and each row in turn times D as ints: sums and the lexicographic order hold."""
    D = math.lcm(*(d for row in rows for _, d in row))
    return D, ([n * (D // d) for n, d in row] for row in rows)


class _Rows(list):
    """Edges (a, b, row), each row a length times D as ints: the form a tree
    keeps its lengths in, so a parsed or glued tree is built without
    LexValues.  A `numbered` one names its ends by number in the vertex list
    given with it, which is in _id_key order; otherwise by id."""

    def __init__(self, D: int, edges=(), numbered: bool = True):
        super().__init__(edges)
        self.D, self.numbered = D, numbered


def _lex(row, D: int) -> LexValue:
    """The value of an int row scaled by D."""
    return LexValue._of(tuple([Fraction(c, D) for c in row]))


def _json_rows(data: list, rank: int, name) -> tuple[int, list]:
    """D, the lcm of the values' denominators in lowest terms (not of their
    spelling), and each item of data, a JSON list of `rank` rationals, times D
    as ints; name(k) names item k in an error.  Plain -?digits(/digits)? ASCII
    strings in lowest terms are read as one text, by int; the rest by _ratio."""
    if set(map(type, data)) == {list} and set(map(len, data)) == {rank}:
        try:
            text = "\n".join(map(",".join, data))
        except TypeError:  # a coordinate that is not a string
            text = "?"
        # only plain characters, and no separator but the join's
        if not text.encode().translate(None, b"-/0123456789,\n") and \
                text.count(",") + text.count("\n") == rank * len(data) - 1:
            flat, dens = text.replace("\n", ",").split(","), [1]
            try:  # int refuses a sign or a slash out of place
                if "/" in text:
                    flat = [c.partition("/") for c in flat]
                    dens = [int(d) if s else 1 for _n, s, d in flat]
                    flat = [int(n) for n, _s, _d in flat]
                    if max(map(math.gcd, flat, dens)) > 1:  # not in lowest terms: D would hang on the spelling
                        dens = [0]
                else:
                    flat = list(map(int, flat))
            except ValueError:
                dens = [0]
            if min(dens) > 0:  # and no zero or signed denominator
                D = math.lcm(*set(dens))
                if D > 1:
                    flat = [n * (D // d) for n, d in zip(flat, dens)]
                return D, [flat[k:k + rank] for k in range(0, len(flat), rank)]
    _arith()  # _ratio reads the rest
    rows = []
    for k, row in enumerate(data):
        if not isinstance(row, list):
            raise ValueError(f"{name(k)} must be a list of rationals, got {row!r}")
        rows.append(list(map(_ratio, row)))
        if len(row) != rank:
            raise ValueError(f"{name(k)} has rank {len(row)}, want {rank}" if row
                             else "rank must be positive")
    D, scaled = _scaled(rows)
    return D, list(scaled)


class Vertex(Value):
    __slots__ = ("id",)

    def __repr__(self):
        return f"Vertex({self.id!r})"


class EdgeInterior(Value):
    """Interior point of edge {u, v}; offset, a LexValue, measured from u, the
    canonical (smaller id) anchor, with 0 < offset < length."""

    __slots__ = ("u", "v", "offset")

    def __repr__(self):
        return f"EdgeInterior({self.u!r}-{self.v!r} @ {self.offset!r})"


TreePoint = Vertex | EdgeInterior


class MetricTree:
    def __init__(self, vertices: Iterable, edges: Iterable[tuple] | _Rows, rank: int):
        """edges: (u, v, length) with length a LexValue, or a _Rows.  Vertices
        are numbered in _id_key order; adjacency, parent, depth and the row of
        each vertex's edge to its parent are lists by number."""
        _arith()
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
        numbered = isinstance(edges, _Rows) and edges.numbered
        # with one class of id, repr alone gives the _id_key order
        ids = vertices if numbered else sorted(self.vertices, key=repr if len(
            set(map(type, self.vertices))) == 1 else _id_key)
        self._index = index = {v: i for i, v in enumerate(ids)}
        n, zero = len(ids), [0] * rank
        self._ids, self._D, self._edges, seen = ids, D, [], set()
        self._adj = adj = [[] for _ in ids]  # (neighbour, edge row) pairs
        for u, v, row in edges:
            a, b = (u, v) if numbered else (index.get(u), index.get(v))
            if a is None or b is None:
                raise TreeError(f"edge endpoint not a vertex: {u!r}-{v!r}")
            if a == b:
                raise TreeError("loop edge")
            if len(row) != rank:
                raise TreeError(f"edge length rank {len(row)} != tree rank {rank}")
            if not row > zero:  # int lists compare lexicographically
                raise TreeError(f"edge length must be positive, got {_lex(row, D)!r}")
            if a > b:
                a, b = b, a
            if a * n + b in seen:
                raise TreeError(f"duplicate edge {(ids[a], ids[b])!r}")
            seen.add(a * n + b)
            self._edges.append((a, b, row))
            adj[a].append((b, row))
            adj[b].append((a, row))
        if len(self._edges) != n - 1:
            raise TreeError("not a tree: wrong edge count")
        # rooting walk, breadth first from vertex 0, so a parent precedes its
        # children in _order; an unreached vertex means a disconnected graph
        self._parent, self._depth, self._up = parent, depth, up = [-1] * n, [-1] * n, [None] * n
        depth[0], self._order = 0, [0]
        for w in self._order:
            for x, row in adj[w]:
                if depth[x] < 0:
                    parent[x], depth[x], up[x] = w, depth[w] + 1, row
                    self._order.append(x)
        if len(self._order) != n:
            raise TreeError("not connected")

    @cached_property
    def _r(self) -> list:
        """Each vertex's distance from the root times D, by number."""
        r, parent, up = [None] * len(self._ids), self._parent, self._up
        r[0] = [0] * self.rank
        for c in itertools.islice(self._order, 1, None):
            r[c] = list(map(operator.add, r[parent[c]], up[c]))
        return r

    # basic queries ----------------------------------------------------------

    def _key(self, u, v) -> tuple:
        """The key of edge {u, v}, two vertices: its ends in _id_key order."""
        i = self._index
        return (u, v) if i[u] < i[v] else (v, u)

    def _row(self, a: int, b: int) -> Optional[list]:
        """The row of edge {a, b}, by number; None if they share no edge."""
        p = self._parent
        return self._up[a] if p[a] == b else self._up[b] if p[b] == a else None

    @property
    def edges(self) -> dict:
        """Each edge's length as a LexValue, keyed as _key orders its ends."""
        ids = self._ids
        return {(ids[a], ids[b]): _lex(row, self._D) for a, b, row in self._edges}

    def edge_length(self, u, v) -> LexValue:
        i = self._index
        if u in i and v in i and (row := self._row(i[u], i[v])) is not None:
            return _lex(row, self._D)
        raise TreeError(f"edge {u!r}-{v!r} not in tree")

    def _meet(self, a: int, b: int) -> int:
        """The vertex where the root paths of a and b join, by number."""
        depth, parent = self._depth, self._parent
        while depth[a] > depth[b]:
            a = parent[a]
        while depth[b] > depth[a]:
            b = parent[b]
        while a != b:
            a, b = parent[a], parent[b]
        return a

    def _drow(self, a: int, b: int) -> list:
        """The distance of a and b times D: r(a) + r(b) - 2 r(meet), with r
        the distance from the root."""
        r = self._r
        return [x + y - 2 * z for x, y, z in zip(r[a], r[b], r[self._meet(a, b)])]

    def _distance(self, a: int, b: int) -> LexValue:
        return _lex(self._drow(a, b), self._D)

    def _path(self, a: int, b: int) -> list:
        m, parent = self._meet(a, b), self._parent
        up, down = [a], [b]
        while up[-1] != m:
            up.append(parent[up[-1]])
        while down[-1] != m:
            down.append(parent[down[-1]])
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
        cu, cv = self._key(u, v)
        return EdgeInterior(cu, cv, offset if cu == u else ln - offset)

    def check_point(self, x: TreePoint) -> None:
        if isinstance(x, Vertex):
            if x.id not in self._index:
                raise TreeError(f"vertex {x.id!r} not in tree")
        elif not (LexValue.zero(self.rank) < x.offset < self.edge_length(x.u, x.v)):
            raise TreeError(f"interior offset {x.offset!r} out of range")

    def json_text(self) -> str:
        """The tree's document as json.dumps(sort_keys=True, indent=2) writes it: ids
        as their str, vertices sorted, lengths as str(Fraction), edges in the repr order
        of (u, v).  Each id is quoted once, each distinct length row written once."""
        ids, D = self._ids, self._D
        s = [str(v) for v in ids]
        q = list(map(_quote, s))
        kinds = set(map(type, ids))
        if len(kinds) == 1 and kinds <= {str, int, tuple}:
            # reprs that no ", " reorders: number order is the edges' repr order
            edges = sorted(self._edges)
        else:
            r = [repr(v) for v in ids]
            edges = sorted(self._edges, key=lambda e: f"({r[e[0]]}, {r[e[1]]})")
        lens = {t: '",\n        "'.join(map(str, t) if D == 1 else [str(Fraction(c, D)) for c in t])
                for t in {tuple(row) for _a, _b, row in edges}}
        items = ['\n    {\n      "len": [\n        "%s"\n      ],\n      "u": %s,\n      "v": %s\n    }'
                 % (lens[tuple(row)], q[a], q[b]) for a, b, row in edges]
        return '{\n  "edges": [%s%s],\n  "rank": %d,\n  "vertices": [\n    %s\n  ]\n}' % (
            ",".join(items), "\n  " if items else "", self.rank,
            ",\n    ".join([q[i] for i in sorted(range(len(s)), key=s.__getitem__)]))

    @staticmethod
    def from_json(doc: dict) -> "MetricTree":
        rank = _json_rank(doc, "a tree")
        vertices = doc.get("vertices")
        if not isinstance(vertices, list) or len(set(vertices)) != len(vertices):
            raise ValueError("vertices must be a list of distinct ids")
        edges = doc["edges"]
        ends = [(e["u"], e["v"]) for e in edges]
        D, rows = _json_rows([e["len"] for e in edges], rank,
                             lambda k: "edge {}-{}".format(*ends[k]))
        return MetricTree(vertices, _Rows(D, [(u, v, row) for (u, v), row in zip(ends, rows)],
                                          numbered=False), rank)


def _named(T: MetricTree, s: str):
    """The vertex that text s names: the one equal to s, else the first whose
    str is s, as reports write ids; s itself if none is."""
    return s if s in T._index else next((v for v in T._ids if str(v) == s), s)


def _parse_point(T: MetricTree, s: str, what: str = "a point") -> TreePoint:
    """A point of T: 'v' names a vertex; else 'u:v:1/2' or 'u:v:1/2,0' an
    edge-interior offset.  `what` names s in the error if s is no string."""
    if not isinstance(s, str):  # an int id is named by its str, as reports write it
        raise TreeError(f"{what} must be a string, got {s!r}")
    # a vertex first, so an id may hold ':'; a JSON id whose str holds one is a string
    if (w := s if ":" in s else _named(T, s)) in T._index:
        return Vertex(w)
    parts = s.split(":")
    if len(parts) != 3:
        raise TreeError(f"bad point syntax {s!r}" if ":" in s else f"unknown vertex {s!r}")
    u, v, off = parts
    try:
        val = LexValue(off.split(","))
    except ValueError as exc:
        raise TreeError(f"bad offset in {s!r}: {exc}")
    try:
        return T.point(_named(T, u), _named(T, v), val)
    except ValueError as exc:
        raise TreeError(f"bad point {s!r}: {exc}")


def _parse_points(T: MetricTree, points, what: str) -> list:
    """The points a document lists under `what`.  A string is refused: read
    as the list, each of its characters would name a point."""
    if not isinstance(points, list):
        raise TreeError(f"{what} must be a list of points, got {points!r}")
    return [_parse_point(T, s, f"a point of {what}") for s in points]


# geodesics -------------------------------------------------------------------


def _exit_vertex(T: MetricTree, x: TreePoint, y: TreePoint) -> int:
    """The number of the vertex through which the geodesic from x to y (a
    point off x's edge) leaves that edge; a vertex is its own exit.  It is
    the child endpoint of x's edge exactly when y, or either end of y's
    edge, lies below that child."""
    i = T._index
    if isinstance(x, Vertex):
        return i[x.id]
    a, b = i[x.u], i[x.v]
    child, up = (a, b) if T._parent[a] == b else (b, a)
    return child if T._meet(i[y.id if isinstance(y, Vertex) else y.u], child) == child else up


def _same_edge(T: MetricTree, x: TreePoint, y: TreePoint) -> bool:
    return (isinstance(x, EdgeInterior) and isinstance(y, EdgeInterior)
            and T._key(x.u, x.v) == T._key(y.u, y.v))


def geodesic_legs(T: MetricTree, x: TreePoint, y: TreePoint) -> list[tuple]:
    """Legs (u, v, a, b) from x to y, each a directed portion of an edge: walk
    edge {u, v} (canonical order) from offset a to offset b, measured from u."""
    T.check_point(x)
    T.check_point(y)
    if x == y:
        return []
    if _same_edge(T, x, y):
        return [(x.u, x.v, x.offset, y.offset)]
    zero = LexValue.zero(T.rank)
    ex, entry = _exit_vertex(T, x, y), _exit_vertex(T, y, x)
    ids, legs = T._ids, []
    if isinstance(x, EdgeInterior):
        legs.append((x.u, x.v, x.offset, zero if ids[ex] == x.u else T.edge_length(x.u, x.v)))
    path = T._path(ex, entry)
    for a, b in zip(path, path[1:]):
        ln = _lex(T._row(a, b), T._D)
        legs.append((ids[a], ids[b], zero, ln) if a < b else (ids[b], ids[a], ln, zero))
    if isinstance(y, EdgeInterior):
        legs.append((y.u, y.v, zero if ids[entry] == y.u else T.edge_length(y.u, y.v), y.offset))
    return legs


def distance(T: MetricTree, x: TreePoint, y: TreePoint) -> LexValue:
    T.check_point(x)
    T.check_point(y)
    if isinstance(x, Vertex) and isinstance(y, Vertex):  # no offsets to add
        return T._distance(T._index[x.id], T._index[y.id])
    if _same_edge(T, x, y):
        return abs(x.offset - y.offset)
    ex, entry = _exit_vertex(T, x, y), _exit_vertex(T, y, x)
    d = T._distance(ex, entry)
    for p, e in ((x, ex), (y, entry)):  # and each interior end's way to its exit
        if isinstance(p, EdgeInterior):
            d = d + (p.offset if e == T._index[p.u] else T.edge_length(p.u, p.v) - p.offset)
    return d


def point_at(T: MetricTree, legs: list[tuple], s: LexValue) -> TreePoint:
    """Point at arclength s along a leg list (s from the start)."""
    zero = LexValue.zero(T.rank)
    if s < zero:
        raise TreeError("negative arclength")
    if not legs:
        raise TreeError("cannot locate a point on an empty geodesic" if s.is_zero()
                        else "arclength beyond geodesic end")
    acc = zero
    for u, v, a, b in legs:
        ln = abs(b - a)
        if s <= acc + ln:
            r = s - acc
            return T.point(u, v, a + r if b > a else a - r)
        acc = acc + ln
    raise TreeError("arclength beyond geodesic end")


def median(T: MetricTree, x: TreePoint, y: TreePoint, z: TreePoint) -> TreePoint:
    """The unique point on all three pairwise geodesics (2Λ = Λ over Q^n, so
    the Gromov product is an exact point of the tree): the projection of z
    onto [x, y] (Chiswell, Introduction to Lambda-trees, ch. 2)."""
    dxy, dxz, dyz = distance(T, x, y), distance(T, x, z), distance(T, y, z)
    dxm = (dxy + dxz - dyz).half()
    if dxm.is_zero():
        return x
    return point_at(T, geodesic_legs(T, x, y), dxm)


# metric-table validation -------------------------------------------------------


class FiniteLambdaMetric:
    def __init__(self, labels: list, dist: list[list], rank: int):
        """dist: rows of LexValues of the given rank."""
        _arith()
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
        _arith()
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
        rank = _json_rank(doc, "a metric table")
        labels, rows = doc.get("labels"), doc.get("dist")
        if not isinstance(labels, list) or not labels:
            raise ValueError("labels must be a non-empty list")
        m, odd = len(labels), [x for x in labels if type(x) not in (str, int)]  # a bool is no int
        if not (isinstance(rows, list) and len(rows) == m
                and all(isinstance(row, list) and len(row) == m for row in rows)):
            raise ValueError(f"dist must be {m} rows of {m} entries")
        if odd or len(set(map(repr, labels))) != m:
            raise ValueError(f"label {odd[0]!r} must be a string or an int" if odd else "labels must be distinct")
        D, flat = _json_rows([d for row in rows for d in row], rank,
                             lambda k: f"dist[{k // m}][{k % m}]")
        return FiniteLambdaMetric._from_rows(labels, [flat[k:k + m] for k in range(0, m * m, m)],
                                             rank, D)


class ValidationResult(Frozen):
    __slots__ = ("ok", "kind", "witness")
    note = "2L condition vacuous over Q^n (2L = L)"


_SCAN_POINTS = 32  # the most points whose witness the exhaustive scan finds


def _insertion_failure(p: list) -> Optional[tuple]:
    """The first failure of the insertion check on packed distances, as (kind,
    point numbers), or None.  With g(x, y) = d(0, x) + d(0, y) - d(x, y), twice
    a Gromov product, the table embeds in a tree iff every pair has
    0 <= g(x, y) <= 2 min(d(0, x), d(0, y)) and, in order, each x and earlier
    z have g(x, z) = min(g(x, y), g(y, z)), y the first earlier point of
    largest g(x, y): the ultrametric inequality of g on every triple, that is
    0-hyperbolicity (Chiswell, Introduction to Lambda-trees, ch. 2).  A failure
    is a triangle through 0, or {0, y, z, x}: its pair sums are k less three g."""
    d0 = p[0]
    g = [[d0[x] + d0[y] - px[y] for y in range(len(p))] for x, px in enumerate(p)]
    for x, gx in enumerate(g):
        for y in range(1, x):
            if gx[y] < 0:
                return "triangle-inequality", (x, 0, y)
            if gx[y] > 2 * min(d0[x], d0[y]):
                return "triangle-inequality", (0, x, y) if gx[y] > 2 * d0[x] else (0, y, x)
        y = max(range(x), key=gx.__getitem__, default=0)
        for z in range(1, x):
            if gx[z] != min(gx[y], g[y][z]):
                return "four-point", tuple(sorted((0, y, z, x)))
    return None


def _scan(p: list, x: int) -> Optional[tuple]:
    """The first triangle, then four-point, violation on packed distances with a point >= x."""
    r = range(len(p))
    for i, j, k in ((i, j, k) for i, j in itertools.combinations(r, 2) for k in r[max(j + 1, x):]):
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            if p[a][c] > p[a][b] + p[b][c]:
                return "triangle-inequality", (a, b, c)
    for i, j, k, l in ((i, j, k, l) for i, j, k in itertools.combinations(r, 3) for l in r[max(k + 1, x):]):
        sums = sorted([p[i][j] + p[k][l], p[i][k] + p[j][l], p[i][l] + p[j][k]])
        if sums[2] > sums[1]:
            return "four-point", (i, j, k, l)
    return None


def validate_tree_metric(M: FiniteLambdaMetric) -> ValidationResult:
    """Metric axioms, then whether the table embeds in a Lambda-tree, by
    inserting the points in turn (_insertion_failure, O(m^2)).  A failure's
    witness is the exhaustive scan's first violation among at most
    _SCAN_POINTS points, or the insertion check's among more.  The scan skips
    the tuples of points before x, where the insertion failed: those points
    passed every test, so they embed in a Lambda-tree and no violation lies
    among them, and the first tuple it reads that breaks one is the first.

    Both read each distance times D, the lcm of every denominator, as an int
    vector c packed to P(c) = c_0 K^(n-1) + ... + c_(n-1), with K = 4B + 1
    and B the largest |c_i|.  P(x) - P(y) = P(x - y).  The scan compares an
    entry with a sum of two, or two such sums; the insertion check compares
    a g with 0 or twice an entry, or two g that share a point, whose d(0, .)
    of that point cancels.  So every difference z compared sums at most four
    entries, |z_i| <= 4B = K - 1.  If z_t is its first nonzero coordinate,
    the later terms of P(z) add up to at most (K - 1)(K^(n-2-t) + ... + 1) =
    K^(n-1-t) - 1 < |z_t| K^(n-1-t) in absolute value: P(z) has the sign of
    z_t, so packed ints compare as the values do lexicographically."""
    m = len(M.labels)
    if m == 0:
        raise TreeError("metric has no points: nothing to validate")
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
    failure = _insertion_failure(p)
    if failure is None:
        return ValidationResult(True, "", ())
    kind, witness = _scan(p, max(failure[1])) if m <= _SCAN_POINTS else failure
    return ValidationResult(False, kind, tuple(M.labels[i] for i in witness))


# closed subtrees ----------------------------------------------------------------


class SubtreeSpec:
    """The convex hull of finitely many points of a tree, a closed subtree:
    the union of the geodesics from the first point to each of the others
    (Chiswell, Introduction to Lambda-trees, ch. 2).  It is held as the
    closed interval of offsets from the canonical anchor that it covers on
    each edge it meets, and the vertices it holds: the ends of those
    intervals, or the one point if that is a vertex."""

    def __init__(self, T: MetricTree, points: list[TreePoint]):
        if not points:
            raise TreeError("empty subtree")
        self.tree = T
        p0 = points[0]
        if isinstance(p0, Vertex):
            verts, ivals = {p0.id}, {}
        else:
            verts, ivals = set(), {(p0.u, p0.v): (p0.offset, p0.offset)}
        for q in points[1:]:
            for u, v, a, b in geodesic_legs(T, p0, q):
                lo, hi = (a, b) if a <= b else (b, a)
                if (k := (u, v)) in ivals:
                    lo, hi = min(lo, ivals[k][0]), max(hi, ivals[k][1])
                ivals[k] = (lo, hi)
        for (u, v), (lo, hi) in ivals.items():
            if lo.is_zero():
                verts.add(u)
            if hi == T.edge_length(u, v):
                verts.add(v)
        self.vertices, self.intervals = frozenset(verts), ivals

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
    new_edges = [(vmap[u], vmap[v], ln.project_top(1))
                 for (u, v), ln in T.edges.items() if not ln.is_infinitesimal()]
    return MetricTree(set(vmap.values()), new_edges, 1), vmap
