"""Marked groups at desk scale: relation balls, ball comparison with first
divergent witness, and convergence profiles for parameterized families.

A marking is an ordered tuple of words in the oracle's alphabet; relation
words are written in abstract marking letters x1..xn (single characters
supplied by the caller, none of them ', space or .).
"""

from __future__ import annotations

from typing import Callable, Optional

from .groups import (
    FreeAbelianOracle,
    FreeGroupOracle,
    Word,
    WordError,
    _frozen,
    ball_words,
    check_alphabet,
    free_reduce,
    invert,
    parse_word,
    word_str,
)

# enumeration budget: n * (2n-1)^(R-1) words must stay at desk scale
MAX_WORDS = 300_000


class MarkedGroup:
    __slots__ = ("oracle", "marking", "letters", "images")
    __setattr__ = _frozen

    def __init__(self, oracle, marking: tuple[Word, ...], letters: tuple[str, ...]):
        object.__setattr__(self, "oracle", oracle)
        object.__setattr__(self, "marking", marking)
        # abstract marking letters, one per marking word
        object.__setattr__(self, "letters", letters)
        if len(self.marking) != len(self.letters):
            raise WordError("one abstract letter per marking word")
        check_alphabet(self.letters, "abstract marking letter")
        for w in self.marking:
            for l, _e in w:
                if l not in self.oracle.letters:
                    raise WordError(f"marking word uses {l!r} outside the oracle alphabet")
        # oracle image of each abstract letter and its inverse
        images = {}
        for l, w in zip(self.letters, self.marking):
            images[(l, 1)] = self.oracle.image(w)
            images[(l, -1)] = self.oracle.image(invert(w))
        object.__setattr__(self, "images", images)

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


class RelationBall:
    __slots__ = ("radius", "words")
    __setattr__ = _frozen

    def __init__(self, radius: int, words: tuple[Word, ...]):
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "words", words)  # sorted length-lexicographically


def relations_up_to(M: MarkedGroup, R: int) -> RelationBall:
    if R < 0:
        raise WordError("radius must be nonnegative")
    rels = [w for w, image in _walk(M, R) if M.is_relation(w, image)]
    rels.sort(key=lambda w: (len(w), word_str(w)))
    return RelationBall(R, tuple(rels))


def _check_alphabets(M1: MarkedGroup, M2: MarkedGroup) -> None:
    if M1.n != M2.n or M1.letters != M2.letters:
        raise WordError("markings must share the abstract alphabet")


def same_ball(M1: MarkedGroup, M2: MarkedGroup, R: int):
    """(equal?, first divergent relation or None), witness length-lex first
    in the symmetric difference."""
    _check_alphabets(M1, M2)
    for (w, image1), (_w, image2) in zip(_walk(M1, R), _walk(M2, R)):
        if M1.is_relation(w, image1) != M2.is_relation(w, image2):
            return False, w
    return True, None


def _walk_radius(n: int, r_max: int) -> int:
    """The least R <= r_max whose ball on n letters passes MAX_WORDS, else
    r_max.  A walk to it raises BudgetExceeded naming that R, as the first
    same_ball call to reach it would."""
    size = 0
    for R in range(1, r_max + 1):
        size += 2 * n * (2 * n - 1) ** (R - 1)
        if size > MAX_WORDS:
            return R
    return r_max


def convergence_profile(
    family: Callable[[int], MarkedGroup],
    target: MarkedGroup,
    r_max: int,
    index_budget: int,
) -> list[tuple[int, Optional[int]]]:
    """For each radius R <= r_max, the least index i <= index_budget with
    same_ball(family(i), target, R); None marks no agreement in budget.

    Balls that agree at radius R agree at every smaller radius, so row R is
    the least i whose first divergence from the target is longer than R.
    Each family(i) is built at most once and walked once, up to its first
    divergent word; the target's flags are evaluated once, as far as some
    walk needs them."""
    radius = _walk_radius(len(target.letters), r_max)
    target_walk = _walk(target, radius)
    target_flags: list[bool] = []
    table = []
    i, diverges_at = 0, 0  # length of family(i)'s first divergent word
    for R in range(1, r_max + 1):
        while diverges_at <= R and i < index_budget:
            i += 1
            M = family(i)
            _check_alphabets(M, target)
            diverges_at = r_max + 1
            for k, (w, image) in enumerate(_walk(M, radius)):
                if k == len(target_flags):
                    tw, timage = next(target_walk)
                    target_flags.append(target.is_relation(tw, timage))
                if M.is_relation(w, image) != target_flags[k]:
                    diverges_at = len(w)
                    break
        table.append((R, i if diverges_at > R else None))
    return table


def marked_group_from_json(doc: dict) -> MarkedGroup:
    gdoc = doc["group"]
    if gdoc["kind"] == "free":
        oracle = FreeGroupOracle(tuple(gdoc["letters"]))
    elif gdoc["kind"] == "free-abelian":
        oracle = FreeAbelianOracle(tuple(gdoc["letters"]))
    else:
        raise WordError(f"unsupported marked-group oracle {gdoc['kind']!r}")
    check_alphabet(oracle.letters, "group letter")
    marking = tuple(parse_word(w, oracle.letters) for w in doc["marking"])
    return MarkedGroup(oracle, marking, tuple(doc["letters"]))


def profile_text(table: list[tuple[int, Optional[int]]]) -> str:
    lines = ["R   least index"]
    for R, i in table:
        lines.append(f"{R:<3} {i if i is not None else 'inf'}")
    return "\n".join(lines)
