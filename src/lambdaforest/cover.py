"""Transverse coverings of rank-1 trees by closed subtrees, and their
bipartite skeletons.  Only the `cover` commands load this module.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .frozen import Frozen
from .lambdatree import MetricTree, SubtreeSpec, TreeError, TreePoint, Vertex
from .ordgroup import LexValue


class CoverError(ValueError):
    pass


def is_degenerate(Y: SubtreeSpec) -> bool:
    return len(Y.grid_points()) <= 1


def same_set(Y1: SubtreeSpec, Y2: SubtreeSpec) -> bool:
    return Y1.vertices == Y2.vertices and Y1.intervals == Y2.intervals


def intersect_specs(Y1: SubtreeSpec, Y2: SubtreeSpec) -> Optional[set]:
    """The points two closed subtrees of a common tree share, or None where
    they share an interval."""
    if Y1.tree is not Y2.tree:
        raise TreeError("subtrees of different trees")
    T = Y1.tree
    pts = {Vertex(v) for v in Y1.vertices & Y2.vertices}
    for k in Y1.intervals.keys() & Y2.intervals.keys():
        lo = max(Y1.intervals[k][0], Y2.intervals[k][0])
        hi = min(Y1.intervals[k][1], Y2.intervals[k][1])
        if lo < hi:
            return None
        if lo == hi:
            pts.add(T.point(k[0], k[1], lo))
    return pts


class TransverseCovering:
    def __init__(self, ambient: MetricTree, members: list[SubtreeSpec]):
        self.ambient = ambient
        self.members = members
        if self.ambient.rank != 1:
            raise CoverError("transverse coverings live in rank-1 trees")
        if not self.members:  # no point of the tree lies in a member
            raise CoverError("a covering needs at least one member")
        for m in self.members:
            if m.tree is not self.ambient:
                raise CoverError("member of a different tree")


class TransverseReport(Frozen):
    __slots__ = ("ok", "kind", "witness")


def transverse_check(C: TransverseCovering) -> TransverseReport:
    for m in C.members:
        if is_degenerate(m):
            return TransverseReport(False, "degenerate-member", (C.members.index(m),))
    for i, j in itertools.combinations(range(len(C.members)), 2):
        a, b = C.members[i], C.members[j]
        if same_set(a, b):
            continue
        inter = intersect_specs(a, b)
        if inter is None or len(inter) > 1:
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
    return TransverseReport(True, "", ())


class SkeletonGraph(Frozen):
    # member_vertices index the members (V1), point_vertices are V0, and each
    # edge joins ("pt", i) to ("mem", j)
    __slots__ = ("member_vertices", "point_vertices", "edges", "connected", "acyclic",
                 "terminal_members")


def skeleton(C: TransverseCovering) -> SkeletonGraph:
    """Bipartite skeleton: members on one side, multi-membership points on
    the other; terminal member vertices flag non-minimality."""
    chk = transverse_check(C)
    if not chk.ok:
        raise CoverError(f"not a transverse covering: {chk.kind}")
    # distinct members (equal members collapse to one skeleton vertex)
    reps: list[int] = []
    for i, m in enumerate(C.members):
        if not any(same_set(m, C.members[r]) for r in reps):
            reps.append(i)
    points: list[TreePoint] = []
    for i, j in itertools.combinations(reps, 2):  # transverse: they share at most a point
        points += [pt for pt in intersect_specs(C.members[i], C.members[j]) if pt not in points]
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
