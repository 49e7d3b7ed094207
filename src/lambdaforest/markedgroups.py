"""Marked groups at desk scale: relation balls, ball comparison with first
divergent witness, and convergence profiles for parameterized families.

A marking is an ordered tuple of words in the oracle's alphabet; relation
words are written in abstract marking letters x1..xn (single characters
supplied by the caller, none of them ', space or .).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import Callable, Optional

from .frozen import Frozen
from .groups import (
    BudgetExceeded,
    FreeAbelianOracle,
    FreeGroupOracle,
    Word,
    WordError,
    ball_words,
    check_alphabet,
    free_reduce,
    invert,
    parse_words,
    word_str,
)

# enumeration budget: n * (2n-1)^(R-1) words must stay at desk scale
MAX_WORDS = 300_000


class MarkedGroup(Frozen):
    __slots__ = ("oracle", "marking", "letters", "images")

    def __init__(self, oracle, marking: tuple[Word, ...], letters: tuple[str, ...]):
        # abstract marking letters, one per marking word
        letters = check_alphabet(letters, "abstract marking letter")
        if len(marking) != len(letters):
            raise WordError("one abstract letter per marking word")
        for w in marking:
            for l, _e in w:
                if l not in oracle.letters:
                    raise WordError(f"marking word uses {l!r} outside the oracle alphabet")
        # oracle image of each abstract letter and its inverse
        super().__init__(oracle, marking, letters, {(l, e): oracle.image(w if e == 1 else invert(w))
                                                    for l, w in zip(letters, marking)
                                                    for e in (1, -1)})

    @property
    def n(self) -> int:
        return len(self.marking)

    def substitute(self, w: Word) -> Word:
        out: Word = ()
        table = dict(zip(self.letters, self.marking))
        for l, e in w:
            if l not in table:
                raise WordError(f"unknown marking letter {l!r}")
            out = out + (table[l] if e == 1 else invert(table[l]))
        return free_reduce(out)

    def is_relation(self, w: Word, image=None) -> bool:
        """Whether w is trivial in the group.  `image` is w's oracle image,
        as a ball walk carries it; without one, w is substituted and reduced
        from scratch, which is the slow reference."""
        if image is None:
            return self.oracle.is_trivial(self.substitute(w))
        return self.oracle.is_identity(image)


def _walk(M: MarkedGroup, R: int):
    """(word, image) for every word of the ball of radius R, in ball_words
    order; each image is its prefix's image times one letter image, from the
    image of the empty word."""
    product, images = M.oracle.product, M.images
    return ball_words(M.letters, R, MAX_WORDS, lambda v, a: product(v, images[a]),
                      M.oracle.image(()))


class RelationBall(Frozen):
    __slots__ = ("radius", "words")  # words sorted length-lexicographically


def relations_up_to(M: MarkedGroup, R: int) -> RelationBall:
    if R < 0:
        raise WordError("radius must be nonnegative")
    rels = [w for w, image in _walk(M, R) if M.is_relation(w, image)]
    rels.sort(key=lambda w: (len(w), word_str(w)))
    return RelationBall(R, tuple(rels))


def _check_alphabets(M1: MarkedGroup, M2: MarkedGroup) -> None:
    if M1.n != M2.n or M1.letters != M2.letters:
        raise WordError("markings must share the abstract alphabet")


def _cut(n: int, R: int) -> Optional[int]:
    """The least length <= R whose ball on n letters passes MAX_WORDS, where a walk
    of radius R, as the first same_ball call to get there, raises naming R; else None."""
    sizes = accumulate(2 * n * (2 * n - 1) ** (r - 1) for r in range(1, R + 1))
    return next((r for r, size in enumerate(sizes, 1) if size > MAX_WORDS), None)


@lru_cache(maxsize=64)
def _shell(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Every e in Z^n with |e|_1 = r."""
    if n == 0:
        return ((),) if r == 0 else ()
    return tuple((c,) + e for c in range(-r, r + 1) for e in _shell(n - 1, r - abs(c)))


def _flags(M: MarkedGroup, R: int, vectors: bool):
    """(word, whether a relation of M) through the ball of radius R: each word in
    walk order or, for free-abelian M, a^e1 b^e2 ... for each e != 0 by |e|_1.
    Such M maps w to A e(w) (A's columns the letter images), and a^e1 b^e2 ...
    is a shortest word of vector e: two such groups first diverge at length
    min |e|_1 over e in ker A xor ker B.  Both raise BudgetExceeded as the walk does."""
    if not vectors:
        yield from ((w, M.is_relation(w, image)) for w, image in _walk(M, R))
        return
    cut = _cut(M.n, R)
    rows = list(zip(*(M.images[(l, 1)] for l in M.letters)))
    for r in range(1, cut or R + 1):
        for e in _shell(M.n, r):
            w = tuple((l, 1 if c > 0 else -1) for l, c in zip(M.letters, e) for _ in range(abs(c)))
            yield w, M.is_relation(w, tuple(sum(map(mul, row, e)) for row in rows))
    if cut:
        raise BudgetExceeded(f"ball enumeration exceeds {MAX_WORDS} words (n = {M.n}, R = {R})")


def same_ball(M1: MarkedGroup, M2: MarkedGroup, R: int):
    """(equal?, first divergent relation or None), witness length-lex first
    in the symmetric difference."""
    _check_alphabets(M1, M2)
    L = 0  # no shorter word can diverge
    if all(isinstance(M.oracle, FreeAbelianOracle) for M in (M1, M2)):
        # decided by vector: walk for the witness at the divergence length, or not at all
        pairs = zip(_flags(M1, R, True), _flags(M2, R, True))
        R = L = next((len(w) for (w, f1), (_w, f2) in pairs if f1 != f2), 0)
    for (w, image1), (_w, image2) in zip(_walk(M1, R), _walk(M2, R)):
        if len(w) >= L and M1.is_relation(w, image1) != M2.is_relation(w, image2):
            return False, w
    return True, None


def convergence_profile(family: Callable[[int], MarkedGroup], target: MarkedGroup, r_max: int,
                        index_budget: int) -> list[tuple[int, Optional[int]]]:
    """For each radius R <= r_max, the least index i <= index_budget with
    same_ball(family(i), target, R); None marks no agreement in budget.

    Balls that agree at radius R agree at every smaller radius, so row R is
    the least i whose first divergence from the target is longer than R.
    Each family(i) is built at most once and read once, up to its first
    divergence: by exponent vector when it and the target are free-abelian,
    else by walking words.  The target's flags in each order are evaluated
    once, as far as some family member needs them."""
    radius = _cut(target.n, r_max) or r_max
    targets = {}  # per order: the target's flag source and the flags read from it
    table = []
    i, diverges_at = 0, 0  # length of family(i)'s first divergent word
    for R in range(1, r_max + 1):
        while diverges_at <= R and i < index_budget:
            i += 1
            M = family(i)
            _check_alphabets(M, target)
            vectors = all(isinstance(G.oracle, FreeAbelianOracle) for G in (M, target))
            src, target_flags = targets.setdefault(vectors, (_flags(target, radius, vectors), []))
            diverges_at = r_max + 1
            for k, (w, flag) in enumerate(_flags(M, radius, vectors)):
                if k == len(target_flags):
                    target_flags.append(next(src)[1])
                if flag != target_flags[k]:
                    diverges_at = len(w)
                    break
        table.append((R, i if diverges_at > R else None))
    return table


def marked_group_from_json(doc: dict) -> MarkedGroup:
    gdoc = doc["group"]
    kinds = {"free": FreeGroupOracle, "free-abelian": FreeAbelianOracle}
    if gdoc["kind"] not in kinds:
        raise WordError(f"unsupported marked-group oracle {gdoc['kind']!r}")
    oracle = kinds[gdoc["kind"]](check_alphabet(gdoc["letters"], "group letter"))
    return MarkedGroup(oracle, parse_words(doc["marking"], oracle.letters, "marking"),
                       doc["letters"])


def profile_text(table: list[tuple[int, Optional[int]]]) -> str:
    lines = ["R   least index"]
    for R, i in table:
        lines.append(f"{R:<3} {i if i is not None else 'inf'}")
    return "\n".join(lines)
