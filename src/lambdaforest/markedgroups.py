"""Marked groups at desk scale: relation balls, ball comparison with first
divergent witness, and convergence profiles for parameterized families.

A marking is an ordered tuple of words in the oracle's alphabet; relation
words are written in abstract marking letters x1..xn (single characters
supplied by the caller).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .groups import Word, WordError, ball_words, free_reduce, invert, word_str

# enumeration budget: n * (2n-1)^(R-1) words must stay at desk scale
MAX_WORDS = 300_000


@dataclass(frozen=True)
class MarkedGroup:
    oracle: object
    marking: tuple[Word, ...]
    letters: tuple[str, ...]  # abstract marking letters, one per marking word

    def __post_init__(self):
        if len(self.marking) != len(self.letters):
            raise WordError("one abstract letter per marking word")
        for w in self.marking:
            for l, _e in w:
                if l not in self.oracle.letters:
                    raise WordError(f"marking word uses {l!r} outside the oracle alphabet")

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

    def is_relation(self, w: Word) -> bool:
        return self.oracle.is_trivial(self.substitute(w))


@dataclass(frozen=True)
class RelationBall:
    radius: int
    words: tuple[Word, ...]  # sorted length-lexicographically

    def __contains__(self, w: Word) -> bool:
        return free_reduce(w) in self.words


def relations_up_to(M: MarkedGroup, R: int) -> RelationBall:
    if R < 0:
        raise WordError("radius must be nonnegative")
    rels = [w for w in ball_words(M.letters, R, MAX_WORDS) if M.is_relation(w)]
    rels.sort(key=lambda w: (len(w), word_str(w)))
    return RelationBall(R, tuple(rels))


def same_ball(M1: MarkedGroup, M2: MarkedGroup, R: int):
    """(equal?, first divergent relation or None), witness length-lex first
    in the symmetric difference."""
    if M1.n != M2.n or M1.letters != M2.letters:
        raise WordError("markings must share the abstract alphabet")
    for w in ball_words(M1.letters, R, MAX_WORDS):
        if M1.is_relation(w) != M2.is_relation(w):
            return False, w
    return True, None


def convergence_profile(
    family: Callable[[int], MarkedGroup],
    target: MarkedGroup,
    r_max: int,
    index_budget: int,
) -> list[tuple[int, Optional[int]]]:
    """For each radius R <= r_max, the least index i with
    same_ball(family(i), target, R); None marks no agreement in budget."""
    table = []
    for R in range(1, r_max + 1):
        found = None
        for i in range(1, index_budget + 1):
            eq, _w = same_ball(family(i), target, R)
            if eq:
                found = i
                break
        table.append((R, found))
    return table


def marked_group_from_json(doc: dict) -> MarkedGroup:
    from .groups import FreeAbelianOracle, FreeGroupOracle, parse_word

    gdoc = doc["group"]
    if gdoc["kind"] == "free":
        oracle = FreeGroupOracle(tuple(gdoc["letters"]))
    elif gdoc["kind"] == "free-abelian":
        oracle = FreeAbelianOracle(tuple(gdoc["letters"]))
    else:
        raise WordError(f"unsupported marked-group oracle {gdoc['kind']!r}")
    marking = tuple(parse_word(w, oracle.letters) for w in doc["marking"])
    return MarkedGroup(oracle, marking, tuple(doc["letters"]))


def profile_text(table: list[tuple[int, Optional[int]]]) -> str:
    lines = ["R   least index"]
    for R, i in table:
        lines.append(f"{R:<3} {i if i is not None else 'inf'}")
    return "\n".join(lines)
