"""Partial isometries of tree windows, isometry classification via the
midpoint method, and exhaustive free-action certification on word balls.

Windows make everything partial: any operation that would need points
outside the window returns an explicit OutOfWindow / Inconclusive value
instead of silently extending the tree.

The window code imports the tree code it runs, so that ball certification
alone (`bt certify`) loads no `lambdatree`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional

from .frozen import Frozen
from .ordgroup import LexValue
from .groups import Word, ball_words, invert, word_str


class IsometryError(ValueError):
    pass


class OutOfWindow(Frozen):
    __slots__ = ("prefix",)


class PartialIsometry:
    """Distance-preserving partial map given by vertex images; edge interiors
    map affinely along the geodesic between endpoint images."""

    def __init__(self, window: MetricTree, vertex_map: dict):
        from .lambdatree import Vertex, _lex, distance

        self.window = window
        self.vertex_map = dict(vertex_map)
        for v in self.vertex_map:
            if v not in window.vertices:
                raise IsometryError(f"domain vertex {v!r} not in window")
        for v, img in self.vertex_map.items():
            window.check_point(img)
        T, i = window, window._index  # vertex images compare as int rows
        for a, b in itertools.combinations(sorted(self.vertex_map, key=repr), 2):
            d, fa, fb = T._drow(i[a], i[b]), self.vertex_map[a], self.vertex_map[b]
            if (d != T._drow(i[fa.id], i[fb.id]) if fa.__class__ is fb.__class__ is Vertex
                    else _lex(d, T._D) != distance(T, fa, fb)):
                raise IsometryError(f"not distance-preserving on pair ({a!r}, {b!r})")

    def defined_at(self, x: TreePoint) -> bool:
        from .lambdatree import Vertex

        if isinstance(x, Vertex):
            return x.id in self.vertex_map
        return x.u in self.vertex_map and x.v in self.vertex_map

    def apply(self, x: TreePoint) -> TreePoint:
        from .lambdatree import Vertex, geodesic_legs, point_at

        if isinstance(x, Vertex):
            return self.vertex_map[x.id]
        fu = self.vertex_map[x.u]
        fv = self.vertex_map[x.v]
        legs = geodesic_legs(self.window, fu, fv)
        return point_at(self.window, legs, x.offset)

    def inverse(self) -> "PartialIsometry":
        """The inverse of a checked map preserves distances too, so it is
        built without the all-pairs check of __init__; and as __init__ keeps
        every positive distance, distinct vertices have distinct images, so
        it is exact."""
        from .lambdatree import Vertex

        inv = {}
        for v, img in self.vertex_map.items():
            if not isinstance(img, Vertex):
                raise IsometryError(
                    "inverse needs vertex images; subdivide the window first"
                )
            inv[img.id] = Vertex(v)
        g = object.__new__(PartialIsometry)
        g.window = self.window
        g.vertex_map = inv
        return g


class ActionWindow:
    """A tree window with labeled generator isometries, closed under formal
    inverses (label' acts by the inverse map)."""

    def __init__(self, window: MetricTree, generators: dict[str, PartialIsometry]):
        if not generators:
            raise IsometryError("empty generator set")
        self.window = window
        self.generators: dict[tuple[str, int], PartialIsometry] = {}
        for label, g in generators.items():
            if g.window is not window:
                raise IsometryError("generator defined on a different window")
            self.generators[(label, 1)] = g
            self.generators[(label, -1)] = g.inverse()
        self.labels = tuple(sorted(generators))

    def apply_word(self, w: Word, x: TreePoint):
        """Left-to-right composition; OutOfWindow carries the first failing
        prefix."""
        cur = x
        done: list = []
        for letter in w:
            if (letter[0], 1) not in self.generators:
                raise IsometryError(f"unknown generator label {letter[0]!r}")
            g = self.generators[letter]
            done.append(letter)
            if not g.defined_at(cur):
                return OutOfWindow(tuple(done))
            cur = g.apply(cur)
        return cur


class Elliptic(Frozen):
    __slots__ = ("fixed_point",)


class Hyperbolic(Frozen):
    __slots__ = ("length",)


class Inconclusive(Frozen):
    __slots__ = ("reason",)


def classify(A: ActionWindow, w: Word, x: TreePoint):
    """Single midpoint step: m = midpoint of [x, w.x] lies in the
    characteristic set, so d(m, w.m) is exactly 0 (elliptic) or the
    translation length (hyperbolic).  No inversion branch exists over Q^n."""
    from .lambdatree import distance, geodesic_legs, point_at

    wx = A.apply_word(w, x)
    if isinstance(wx, OutOfWindow):
        return wx
    T = A.window
    d = distance(T, x, wx)
    if d.is_zero():
        return Elliptic(x)
    m = point_at(T, geodesic_legs(T, x, wx), d.half())
    wm = A.apply_word(w, m)
    if isinstance(wm, OutOfWindow):
        return Inconclusive(f"midpoint image leaves window at prefix {word_str(wm.prefix)}")
    l = distance(T, m, wm)
    if l.is_zero():
        return Elliptic(m)
    return Hyperbolic(l)


# ball certification -------------------------------------------------------------


class Certificate(Frozen):
    # the given fields, then the two derived ones
    __slots__ = ("ball_radius", "words_checked", "relations", "min_positive_length",
                 "counterexample", "status", "extra")

    def __init__(self, ball_radius: int, words_checked: int, relations: list[str],
                 min_positive_length: Optional[LexValue], counterexample: Optional[str]):
        super().__init__(ball_radius, words_checked, relations, min_positive_length, counterexample,
                         "free-on-ball" if counterexample is None else "counterexample", {})

    def to_json(self) -> dict:
        doc = {
            "N": self.ball_radius,
            "words_checked": self.words_checked,
            "relations": self.relations,
            "min_positive_length": self.min_positive_length.to_json()
            if self.min_positive_length is not None
            else None,
            "status": self.status,
            "counterexample": self.counterexample,
        }
        doc.update(self.extra)
        return doc


class CertificationAborted(RuntimeError):
    def __init__(self, word: Word, reason: str):
        self.word = word
        self.reason = reason
        super().__init__(f"oracle inconclusive on {word_str(word)}: {reason}")


def certify_free_on_ball(
    length_oracle: Callable[[Word], LexValue | Inconclusive],
    triviality_oracle: Callable[[Word], bool],
    labels: Iterable[str],
    ball_radius: int,
) -> Certificate:
    """Exhaustively check all freely reduced words of length <= N: each is
    either a relation (trivial per oracle) or has positive translation
    length.  A nontrivial word with zero length is a counterexample.

    A length oracle bound to an object whose `class_function` is true makes
    both oracles class functions up to inversion: each class is evaluated
    once (see `conjugacy._classes`); if all pass, so do all (2n)(2n - 1)^(k - 1)
    words of each length k <= N.  Otherwise the walk below runs, keeping
    the minimum so far: the class pass stopped at the first failure in the
    walk's order, so it evaluated no class that the walk does not, and the
    walk starts from its verdicts, filed by class, so asks about none again.

    The walk prunes inverses: l(w) = l(w^-1), so only the length-lex
    smaller of each inverse pair is evaluated.  The first letter of w^-1 is
    the inverse of the last letter of w, so unless that equals the first
    letter of w it decides the comparison without building w^-1.  The walk
    asks the oracles once per key: the class (`conjugacy._class_key`) under
    class functions, first met on a word of least length, so cyclically
    reduced; else the word.  A length object judged positive is not judged again."""
    labels = sorted(labels)
    min_pos: Optional[LexValue] = None
    judged: dict[int, LexValue] = {}  # by id; each kept, so no id is reused
    exact = getattr(getattr(length_oracle, "__self__", None), "class_function", False)
    keys, verdicts = {}, {}  # rotation -> class key; key -> (trivial, length)
    if exact:  # the walk keys by class whatever the number of labels
        from .conjugacy import _class_key, _classes
        if len(labels) <= 128:  # _classes spells words as bytes
            asked = []  # (class word, length), handed to the walk if the pass stops
            for w in _classes(labels, ball_radius):
                if triviality_oracle(w):
                    break
                l = length_oracle(w)
                asked.append((w, l))
                if id(l) not in judged:
                    if isinstance(l, Inconclusive) or l.is_zero():
                        break
                    judged[id(l)] = l
                    if min_pos is None or l < min_pos:
                        min_pos = l
            else:
                n = 2 * len(labels)
                checked = sum(n * (n - 1) ** (k - 1) for k in range(1, ball_radius + 1))
                return Certificate(ball_radius, checked, [], min_pos, None)
            verdicts = {_class_key(u, keys): (False, l) for u, l in asked}
            verdicts.setdefault(_class_key(w, keys), (True, None))  # a relation it stopped at
    relations: list[str] = []
    checked = 0
    for w in ball_words(labels, ball_radius):
        checked += 1
        last = w[-1]
        first_of_inverse = (last[0], -last[1])
        if first_of_inverse < w[0] or (first_of_inverse == w[0] and invert(w) < w):
            continue
        key = _class_key(w, keys) if exact else w
        if key not in verdicts:
            verdicts[key] = (True, None) if triviality_oracle(w) else (False, length_oracle(w))
        trivial, l = verdicts[key]
        if trivial:
            relations.append(word_str(w))
            continue
        if id(l) in judged:
            continue
        if isinstance(l, Inconclusive):
            raise CertificationAborted(w, l.reason)
        if l.is_zero():
            return Certificate(ball_radius, checked, relations, min_pos, word_str(w))
        judged[id(l)] = l
        if min_pos is None or l < min_pos:
            min_pos = l
    return Certificate(ball_radius, checked, relations, min_pos, None)


def window_length_oracle(A: ActionWindow, basepoint: TreePoint):
    """Translation-length oracle backed by the midpoint method on a window."""

    def length(w: Word):
        cls = classify(A, w, basepoint)
        if isinstance(cls, OutOfWindow):
            return Inconclusive(f"word leaves window at prefix {word_str(cls.prefix)}")
        if isinstance(cls, Inconclusive):
            return cls
        if isinstance(cls, Elliptic):
            return LexValue.zero(A.window.rank)
        return cls.length

    return length
