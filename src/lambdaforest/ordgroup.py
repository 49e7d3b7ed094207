"""Exact arithmetic in Q^n with the lexicographic (leftmost-dominant) order.

Coordinates are ints where given as ints or plain integer strings, else
`fractions.Fraction`s, imported on first need; an int and the equal Fraction
agree in ==, hash, order and str, so equality is structural and all operations
are pure.  The rank n is fixed per value and mixing ranks in a binary operation
is an error: silent mixed-rank comparisons are a classic source of wrong
verdicts in the downstream tree checkers.
"""

from __future__ import annotations

from typing import Iterable

from .frozen import Value

Fraction = None  # bound by _ratio on first need: integer values load no fractions


class RankMismatchError(ValueError):
    """Two values of different rank met in one operation."""


def _ratio(x) -> tuple[int, int]:
    """A Fraction, an int (no bool) or a string as (numerator, denominator).
    `Fraction` reads every string and reports its errors; documents of trees
    and tables read their plain coordinates faster (lambdatree._json_rows)."""
    global Fraction
    if Fraction is None:
        from fractions import Fraction
    if isinstance(x, str):
        try:
            x = Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    elif not isinstance(x, Fraction) and x.__class__ is not int:
        raise TypeError(f"cannot coerce {x!r} to a rational")
    return x.numerator, x.denominator


def _rat(x) -> Fraction:
    n, d = _ratio(x)  # which binds Fraction
    return x if isinstance(x, Fraction) else Fraction(n, d)


def _num(x):
    """_rat(x), or an equal int where x is an int or a -?digits ASCII string that
    int reads at its default limit of 4,300 digits: the same value or error."""
    if x.__class__ is int or x.__class__ is str and len(x) <= 4300 and x.isascii() \
            and x.removeprefix("-").isdigit():
        return int(x)
    return _rat(x)


class LexValue(Value):
    """Element of Q^n, leftmost coordinate dominant."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable) -> None:
        object.__setattr__(self, "coords", tuple(map(_num, coords)))
        if not self.coords:
            raise ValueError("rank must be positive")

    @classmethod
    def _of(cls, coords: tuple) -> "LexValue":
        """Wrap a nonempty tuple that already holds only ints and Fractions,
        without coercion; their arithmetic yields them, so the operations
        below build their results here."""
        v = object.__new__(cls)
        object.__setattr__(v, "coords", coords)
        return v

    @property
    def rank(self) -> int:
        return len(self.coords)

    @staticmethod
    def zero(rank: int) -> "LexValue":
        # values are frozen, so one zero per rank is shared
        z = _ZEROS.get(rank)
        if z is None:
            z = _ZEROS[rank] = LexValue([0] * rank)
        return z

    def _check_rank(self, other: "LexValue") -> None:
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} vs {other.rank}")

    # arithmetic -----------------------------------------------------------

    def __add__(self, other: "LexValue") -> "LexValue":
        self._check_rank(other)
        return LexValue._of(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "LexValue") -> "LexValue":
        self._check_rank(other)
        return LexValue._of(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "LexValue":
        return LexValue._of(tuple(-a for a in self.coords))

    def scale(self, q) -> "LexValue":
        """Coordinatewise multiplication by a rational; scale(1/2) is the
        exact half used by midpoints."""
        q = _num(q)
        return LexValue._of(tuple(a * q for a in self.coords))

    def half(self) -> "LexValue":
        return self.scale(_rat(1) / 2)  # Fraction(1, 2), once _rat has bound Fraction

    # order ----------------------------------------------------------------

    def __lt__(self, other: "LexValue") -> bool:
        self._check_rank(other)
        return self.coords < other.coords

    def __le__(self, other: "LexValue") -> bool:
        self._check_rank(other)
        return self.coords <= other.coords

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    # the sign of a value is the sign of its first nonzero coordinate, and the
    # numerator of an int or a Fraction carries its sign
    def __abs__(self) -> "LexValue":
        for c in self.coords:
            if c.numerator:
                return self if c.numerator > 0 else -self
        return self

    # magnitude / quotients --------------------------------------------------

    def magnitude(self) -> int:
        """Smallest p such that the value lies in the convex subgroup of the
        last p coordinates; 0 iff the value is zero."""
        n = self.rank
        for i, c in enumerate(self.coords):
            if c != 0:
                return n - i
        return 0

    def is_infinitesimal(self) -> bool:
        return self.magnitude() <= self.rank - 1

    def project_top(self, k: int) -> "LexValue":
        """Image in the quotient by the convex subgroup of magnitude <= n-k,
        i.e. the leading k coordinates."""
        if not 1 <= k <= self.rank:
            raise RankMismatchError(f"project_top: k={k} out of range for rank {self.rank}")
        return LexValue._of(self.coords[:k])

    # serialization ----------------------------------------------------------

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coords]

    def __repr__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


_ZEROS: dict[int, LexValue] = {}


def magnitude(a: LexValue) -> int:
    return a.magnitude()


def project_top(a: LexValue, k: int) -> LexValue:
    return a.project_top(k)
