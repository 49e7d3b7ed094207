"""Words over generator alphabets, free-group utilities, word-problem
oracles, and first Betti numbers by rank over Q.

A word is a tuple of (label, exponent) letters with exponent +1 or -1.  The
string form uses a trailing apostrophe for inverses: "ab'a" = a b^-1 a.
"""

from __future__ import annotations

from operator import add
from typing import Optional, Sequence

from .frozen import Frozen

Letter = tuple[str, int]
Word = tuple[Letter, ...]


class WordError(ValueError):
    pass


def parse_word(s: str, alphabet: Optional[Sequence[str]] = None) -> Word:
    if not isinstance(s, str):  # a list of letters would be read as its items
        raise WordError(f"a word must be a string, got {s!r}")
    letters: list[Letter] = []
    i = 0
    while i < len(s):
        c = s[i]
        if c in " .":
            i += 1
            continue
        e = 1
        if i + 1 < len(s) and s[i + 1] == "'":
            e = -1
            i += 1
        if alphabet is not None and c not in alphabet:
            raise WordError(f"letter {c!r} not in alphabet {alphabet}")
        letters.append((c, e))
        i += 1
    return tuple(letters)


def check_alphabet(letters: Sequence[str], what: str) -> tuple[str, ...]:
    """letters as a tuple.  Refuse an alphabet that parse_word could not read
    back: a string for the list (read as its characters), a letter given
    twice, or one that is not a single character or is ', space or a dot."""
    if not isinstance(letters, (list, tuple)):
        raise WordError(f"{what}s must be a list, got {letters!r}")
    if len(set(letters)) != len(letters):
        raise WordError(f"{what}s must be distinct")
    for l in letters:
        if not isinstance(l, str) or len(l) != 1 or l in "' .":
            raise WordError(f"{what} {l!r} must be one character, not ', space or .")
    return tuple(letters)


def parse_words(words, alphabet: Sequence[str], what: str) -> tuple[Word, ...]:
    """A document's list of words; a string, read as its characters, is refused."""
    if not isinstance(words, list):
        raise WordError(f"{what} must be a list of words, got {words!r}")
    return tuple(parse_word(w, alphabet) for w in words)


def word_str(w: Word) -> str:
    return "".join(l + ("'" if e < 0 else "") for l, e in w)


def free_reduce(w: Word) -> Word:
    out: list[Letter] = []
    for l, e in w:
        if out and out[-1][0] == l and out[-1][1] == -e:
            out.pop()
        else:
            out.append((l, e))
    return tuple(out)


def invert(w: Word) -> Word:
    return tuple((l, -e) for l, e in reversed(w))


def power(w: Word, k: int) -> Word:
    if k < 0:
        return power(invert(w), -k)
    return free_reduce(w * k)


class BudgetExceeded(ValueError):
    """A ball too large to walk: the command line reports it as malformed input."""


def ball_words(letters: Sequence[str], max_len: int, budget: Optional[int] = None,
               step=None, start=None):
    """Every nonempty freely reduced word of length <= max_len, shortest
    first; within a length, in the order of `letters` with each letter
    followed by its inverse.  When the words of a length would take the
    count past `budget`, BudgetExceeded is raised before any of them is
    yielded.  With `step`, (word, value) pairs are yielded instead: the
    empty word has value `start`, and w a has value step(value of w, a)."""
    alphabet = [(l, e) for l in letters for e in (1, -1)]
    after = {a: [b for b in alphabet if b != (a[0], -a[1])] for a in alphabet}
    count = 0
    frontier: list[Word] = [()]
    values = [start]
    for k in range(max_len):
        count += len(frontier) * (len(alphabet) - 1) if k else len(alphabet)
        if budget is not None and count > budget:
            raise BudgetExceeded(
                f"ball enumeration exceeds {budget} words "
                f"(n = {len(letters)}, R = {max_len})"
            )
        nexts = [after[w[-1]] if w else alphabet for w in frontier]
        last = k + 1 == max_len  # the last length is yielded as it is built, never stored
        words = (w + (a,) for w, s in zip(frontier, nexts) for a in s)
        frontier = words if last else list(words)
        if step is not None:
            new_values = (step(v, a) for v, s in zip(values, nexts) for a in s)
            values = new_values if last else list(new_values)
        yield from zip(frontier, values) if step is not None else frontier


def exponent_vector(w: Word, alphabet: Sequence[str]) -> tuple[int, ...]:
    counts = dict.fromkeys(alphabet, 0)
    for l, e in w:
        if l not in counts:
            raise WordError(f"letter {l!r} outside alphabet")
        counts[l] += e
    return tuple(counts[a] for a in alphabet)


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Return (core, conjugator) with w = conjugator * core * conjugator^-1
    and core cyclically reduced."""
    w = free_reduce(w)
    conj: list[Letter] = []
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        conj.append(w[0])
        w = w[1:-1]
    return w, tuple(conj)


def primitive_root(w: Word) -> tuple[Word, int]:
    """Maximal-exponent decomposition w = root^k via cyclic reduction and
    period detection on the cyclic core, whose length is always a period."""
    w = free_reduce(w)
    if not w:
        raise WordError("primitive root of the trivial word is undefined")
    core, conj = cyclic_reduce(w)
    n = len(core)
    p = next(p for p in range(1, n + 1) if n % p == 0 and core == core[:p] * (n // p))
    return free_reduce(conj + core[:p] + invert(conj)), n // p


def conjugator(u: Word, w: Word) -> Optional[Word]:
    """Some reduced h with h w h^-1 = u in the free group, or None.  Words are
    conjugate exactly when their cyclic cores are rotations of each other:
    with u = g c g^-1, w = f d f^-1 and c = p^-1 d p for the prefix p of d,
    h = g p^-1 f^-1, which is () when u = w."""
    cu, gu = cyclic_reduce(u)
    cw, gw = cyclic_reduce(w)
    for i in range(len(cw) or 1):
        if cw[i:] + cw[:i] == cu:
            return free_reduce(gu + invert(cw[:i]) + invert(gw))
    return None


# word-problem oracles --------------------------------------------------------------


class FreeGroupOracle(Frozen):
    """Images are reduced words."""

    __slots__ = ("letters",)

    def is_trivial(self, w: Word) -> bool:
        return not free_reduce(w)

    image = staticmethod(free_reduce)

    def product(self, u: Word, v: Word) -> Word:
        k = 0
        while k < len(u) and k < len(v) and u[-1 - k] == (v[k][0], -v[k][1]):
            k += 1
        return u[:len(u) - k] + v[k:]

    def is_identity(self, u: Word) -> bool:
        return not u


class FreeAbelianOracle(Frozen):
    """Images are exponent vectors over `letters`."""

    __slots__ = ("letters",)

    def is_trivial(self, w: Word) -> bool:
        return all(c == 0 for c in exponent_vector(w, self.letters))

    def image(self, w: Word) -> tuple[int, ...]:
        return exponent_vector(w, self.letters)

    def product(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(add, u, v))

    def is_identity(self, u: tuple[int, ...]) -> bool:
        return not any(u)


# abelianization -----------------------------------------------------------------


class FinitePresentation(Frozen):
    __slots__ = ("generators", "relators")  # tuple[str, ...], tuple[Word, ...]

    @staticmethod
    def from_json(doc: dict) -> "FinitePresentation":
        gens = check_alphabet(doc["generators"], "generator")
        return FinitePresentation(gens, parse_words(doc["relators"], gens, "relators"))


def betti1(p: FinitePresentation) -> int:
    """Free rank of the abelianization: #generators - rank of the relation
    exponent matrix (its rank over Z is its rank over Q)."""
    return len(p.generators) - rational_rank(
        [list(exponent_vector(r, p.generators)) for r in p.relators])


def rational_rank(matrix: list[list]) -> int:
    """Row rank over Q by Gaussian elimination without division: row_i <-
    a row_i - b row_r keeps ints ints and Fractions Fractions."""
    m = [list(row) for row in matrix]
    rank = 0
    cols = len(m[0]) if m else 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][j] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        a = m[rank][j]
        for i in range(rank + 1, len(m)):
            b = m[i][j]
            if b != 0:
                m[i] = [a * x - b * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank
