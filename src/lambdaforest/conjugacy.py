"""Conjugacy classes, up to inversion, of a free group's word ball: the
class pass of `certify_free_on_ball`, which imports this module only for
class-function oracles (`bt certify`), so the window commands compile none of it."""

from . import groups  # `groups.invert` is looked up per call, so a tracer's rebinding counts it


def _classes(labels: list[str], max_len: int):
    """The first word that the walk of `certify_free_on_ball` evaluates in
    each conjugacy class, up to inversion, of cyclic length 1..max_len in
    the free group on `labels`, in the walk's order.

    Letter i is (labels[i // 2], 1) for even i; i ^ 1 is its inverse.  The
    walk skips a cyclically reduced word whose last letter is at most the
    inverse of its first, so it meets a class at its least rotation over
    both orientations, N, led by the least letter c of the class, unless N
    is c^m, which it skips for (c + 1)^m.  The N are the necklaces with no
    letter beside its inverse, across the wrap too: the FKM prenecklace
    tree pruned at inverse pairs (Ruskey & Sawada, COCOON 2000)."""
    k = 2 * len(labels)
    found: list[list[bytes]] = [[] for _ in range(max_len + 1)]
    a = [0] * (max_len + 1)  # a[1..t] is a prenecklace of period p

    def grow(t: int, p: int):
        if t % p == 0 and a[t] != a[1] ^ 1:
            found[t].append(bytes(a[1:t + 1]))
        if t < max_len:
            for j in range(a[t + 1 - p], k):
                if j != a[t] ^ 1:
                    a[t + 1] = j
                    grow(t + 1, p if j == a[t + 1 - p] else t + 1)

    for c in range(0, k if max_len > 0 else 0, 2):  # an odd letter never leads an N
        a[1] = c
        grow(1, 1)
    swap = bytes(i ^ 1 for i in range(256))
    letters = [(label, e) for label in labels for e in (1, -1)]
    for m, necklaces in enumerate(found):
        words = []
        for s in necklaces:
            c = s[0]
            if c + 1 in s:  # N may be a rotation of the other orientation
                d = s[::-1].translate(swap) * 2
                if any(d[i:i + m] < s for i in range(m) if d[i] == c):
                    continue
            elif s.count(c) == m:
                s = bytes([c + 1]) * m
            words.append(s)
        for s in sorted(words):  # (c + 1)^m after the rest led by c
            yield tuple(map(letters.__getitem__, s))


def _class_key(w: groups.Word, keys: dict) -> groups.Word:
    """The class of w up to conjugacy and inversion: the least rotation of
    its cyclic core or of the core's inverse, kept in `keys` under each."""
    while len(w) > 1 and w[-1] == (w[0][0], -w[0][1]):
        w = w[1:-1]
    if w not in keys:
        n = len(w)
        rotations = [d[i:i + n] for d in (w * 2, groups.invert(w) * 2) for i in range(n)] or [w]
        keys.update(dict.fromkeys(rotations, min(rotations)))  # () is a class of its own
    return keys[w]
