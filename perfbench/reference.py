"""Known answers for the benchmark's jobs, derived with the standard library
from how each input was built.  Nothing here imports or runs lambdaforest.

Words are tuples of (label, exponent) letters, as in the program's JSON
syntax "ab'" = a b^-1.  Lengths and distances in Q^n are tuples of
Fractions compared lexicographically (leftmost coordinate dominant).
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd

# words ----------------------------------------------------------------------------


def word_str(w) -> str:
    return "".join(l + ("'" if e < 0 else "") for l, e in w)


def invert(w):
    return tuple((l, -e) for l, e in reversed(w))


def free_reduce(w):
    out = []
    for l, e in w:
        if out and out[-1] == (l, -e):
            out.pop()
        else:
            out.append((l, e))
    return tuple(out)


def alphabet(labels, sort=True):
    return [(l, e) for l in (sorted(labels) if sort else labels) for e in (1, -1)]


def reduced_words(letters, max_len):
    """Nonempty freely reduced words of length <= max_len, shortest first and
    in alphabet order within a length: the order every ball walker of the
    program documents.  `letters` is an ordered list of (label, exponent)."""
    frontier = [()]
    for _ in range(max_len):
        frontier = [
            w + (x,) for w in frontier for x in letters if not (w and w[-1] == (x[0], -x[1]))
        ]
        yield from frontier


def ball_size(n_labels: int, radius: int) -> int:
    """Number of nonempty reduced words of length <= radius on n labels."""
    k = 2 * n_labels
    return sum(k * (k - 1) ** (j - 1) for j in range(1, radius + 1))


def exponent_vector(w, labels):
    vec = dict.fromkeys(labels, 0)
    for l, e in w:
        vec[l] += e
    return tuple(vec[l] for l in labels)


def lex_abs(v):
    """The one of v, -v whose leading nonzero coordinate is positive."""
    for c in v:
        if c:
            return tuple(v) if c > 0 else tuple(-x for x in v)
    return tuple(v)


def certificate_walk(labels, radius, trivial, length):
    """Replay the documented ball certificate: walk the ball in order, skip a
    word whose inverse comes first, record relations, stop at the first
    nontrivial word of length zero.  `trivial` and `length` are the known
    answers for one word; lengths are tuples."""
    relations, min_pos, checked = [], None, 0
    for w in reduced_words(alphabet(labels), radius):
        checked += 1
        if invert(w) < w:
            continue
        if trivial(w):
            relations.append(word_str(w))
            continue
        ln = length(w)
        if not any(ln):
            return {"words_checked": checked, "relations": relations,
                    "min_positive_length": min_pos, "counterexample": word_str(w)}
        if min_pos is None or ln < min_pos:
            min_pos = ln
    return {"words_checked": checked, "relations": relations,
            "min_positive_length": min_pos, "counterexample": None}


def lex_json(v):
    return [str(Fraction(c)) for c in v]


def lex_repr(v):
    return "(" + ", ".join(str(Fraction(c)) for c in v) + ")"


# SL2 over Q(t), Q(s,t) and Q_p ----------------------------------------------------------


def sl2_inverse(c):
    (a, b), (cc, d) = c
    return ((d, -b), (-cc, a))


def nonunit_entries(c, p=None) -> int:
    """Entries of an integer matrix c that are not units of the residue field:
    zero entries for the t-adic valuation, multiples of p for the p-adic one."""
    return sum(1 for row in c for x in row if (x % p == 0 if p else x == 0))


def schottky_answer(c, k, p=None):
    """a = diag(t^k, t^-k) (or p^k) and b = c a c^-1 with c in SL2(Z).

    c fixes the base vertex of the Bruhat-Tits tree, so both axes pass
    through it; a's axis has ends 0 and oo, b's has c(0) and c(oo).  When
    every entry of c is a residue unit, c(0) and c(oo) reduce to points other
    than 0 and oo, the axes meet in one vertex, and ping-pong makes <a, b>
    free with every nontrivial word hyperbolic; the shortest translation is
    2k, that of a generator (Serre, Trees, II.1.3).  Returns the minimum
    positive length, or None when c has a non-unit entry and the answer
    needs the exact walk in `shared_end_answer`."""
    if nonunit_entries(c, p):
        return None
    return (2 * k,)


# Laurent polynomials with integer coefficients, as {exponent: coefficient}


def _lmul(x, y):
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ladd(x, y):
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _lneg(x):
    return {e: -c for e, c in x.items()}


def laurent_matmul(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return (
        (_ladd(_lmul(a, e), _lmul(b, g)), _ladd(_lmul(a, f), _lmul(b, h))),
        (_ladd(_lmul(c, e), _lmul(d, g)), _ladd(_lmul(c, f), _lmul(d, h))),
    )


def laurent_inverse(m):
    (a, b), (c, d) = m
    return ((d, _lneg(b)), (_lneg(c), a))


def laurent_const(x):
    return {0: x} if x else {}


def conj_diag(c, k):
    """c diag(t^k, t^-k) c^-1 as a Laurent matrix, for integer c in SL2(Z)."""
    cm = tuple(tuple(laurent_const(x) for x in row) for row in c)
    a = (({k: 1}, {}), ({}, {-k: 1}))
    return laurent_matmul(laurent_matmul(cm, a), laurent_inverse(cm))


def shared_end_answer(gens, radius):
    """Exact certificate walk for Laurent generators: a word is trivial when
    its product is the identity, and its translation length is
    max(0, -2 ord(trace))."""
    ident = (({0: 1}, {}), ({}, {0: 1}))
    cache = {(): ident}

    def product(w):
        if w not in cache:
            g = gens[w[-1][0]]
            cache[w] = laurent_matmul(product(w[:-1]), g if w[-1][1] == 1 else laurent_inverse(g))
        return cache[w]

    def length(w):
        m = product(w)
        tr = _ladd(m[0][0], m[1][1])
        return (max(0, -2 * min(tr)),) if tr else (0,)

    return certificate_walk(sorted(gens), radius, lambda w: product(w) == ident, length)


def laurent_json(x, var="t"):
    """Entry in the program's coefficient-map syntax."""
    if not x:
        return {"1": "0"}
    return {("1" if e == 0 else f"{var}^{e}"): str(c) for e, c in sorted(x.items())}


def torus_length(vec, k):
    """u = diag(s, s^-1), v = diag(t^k, t^-k): u^m v^n has trace
    s^m t^kn + s^-m t^-kn, whose rank-2 valuation (t-order first) is
    -lex_abs(kn, m); the translation length is twice lex_abs(kn, m)."""
    m, n = vec
    return tuple(2 * x for x in lex_abs((k * n, m)))


# trees ------------------------------------------------------------------------------


def lex_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def random_length(rng, rank):
    """Strictly positive value of Q^rank; the leading coordinate is zero a
    quarter of the time at rank >= 2, which makes the edge infinitesimal."""
    while True:
        lead = 0 if rank > 1 and rng.random() < 0.25 else rng.randint(1, 4)
        v = (Fraction(lead, rng.choice((1, 2))),) + tuple(
            Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(rank - 1)
        )
        if lex_abs(v) == v and any(v):
            return v


def random_tree(rng, n, rank, prefix="v"):
    """Vertices v0..v(n-1); vertex i > 0 hangs off a uniformly earlier one."""
    verts = [f"{prefix}{i}" for i in range(n)]
    edges = [(verts[i], verts[rng.randrange(i)], random_length(rng, rank)) for i in range(1, n)]
    return verts, edges


def tree_json(verts, edges, rank):
    return {
        "rank": rank,
        "vertices": list(verts),
        "edges": [{"u": u, "v": v, "len": lex_json(ln)} for u, v, ln in edges],
    }


def adjacency(verts, edges):
    adj = {v: [] for v in verts}
    for u, v, ln in edges:
        adj[u].append((v, ln))
        adj[v].append((u, ln))
    return adj


def path_sums(adj, src, rank):
    """Distance from src to every vertex, and each vertex's parent towards
    src, by summing edge lengths along the unique paths."""
    dist, parent, stack = {src: (Fraction(0),) * rank}, {src: None}, [src]
    while stack:
        w = stack.pop()
        for nb, ln in adj[w]:
            if nb not in dist:
                dist[nb] = lex_add(dist[w], ln)
                parent[nb] = w
                stack.append(nb)
    return dist, parent


def tree_median(adj, rank, x, y, z):
    """The vertex on all three geodesics: the one on [x, y] at distance
    (d(x,y) + d(x,z) - d(y,z)) / 2 from x."""
    dx, px = path_sums(adj, x, rank)
    dy, _ = path_sums(adj, y, rank)
    target = tuple((a + b - c) / 2 for a, b, c in zip(dx[y], dx[z], dy[z]))
    v = y
    while v is not None:
        if dx[v] == target:
            return v
        v = px[v]
    raise ValueError("median is not a vertex")


def metric_table(adj, rank, points):
    rows = []
    for p in points:
        dist, _ = path_sums(adj, p, rank)
        rows.append([dist[q] for q in points])
    return rows


def four_cycle_metric(rng, n_tree, rank):
    """A tree metric on n_tree sampled points plus an isometric 4-cycle
    c0 c1 c2 c3 (side L, diagonal 2L) hung off the tree by an edge at c0.

    Any other point p sees the cycle through c0, so {p, c1, c2, c3} breaks
    the four-point condition (the sums are D+2L, D+2L, D+4L) and every other
    quadruple holds except the cycle itself.  With the cycle listed last, the
    first failing quadruple in scan order is (0, c1, c2, c3)."""
    verts, edges = random_tree(rng, 2 * n_tree, rank)
    adj = adjacency(verts, edges)
    points = rng.sample(verts, n_tree)
    hang = rng.choice(verts)
    side = random_length(rng, rank)
    pend = random_length(rng, rank)
    dh, _ = path_sums(adj, hang, rank)
    base = [lex_add(dh[p], pend) for p in points]
    # offsets[j] = d(c0, cj), and d(ci, cj) = offsets[(j - i) % 4]
    offsets = [(Fraction(0),) * rank, side, lex_add(side, side), side]
    table = metric_table(adj, rank, points)
    for i in range(n_tree):
        table[i].extend(lex_add(base[i], off) for off in offsets)
    for ci in range(4):
        row = [lex_add(base[i], offsets[ci]) for i in range(n_tree)]
        row += [offsets[(cj - ci) % 4] for cj in range(4)]
        table.append(row)
    labels = [f"p{i}" for i in range(n_tree)] + ["c0", "c1", "c2", "c3"]
    return labels, table, ("p0", "c1", "c2", "c3")


def stretched_pair_metric(rng, n, rank):
    """A tree metric whose last pair (x, y) is stretched past every detour:
    only triples holding both x and y break the triangle inequality, and the
    first in scan order is (0, x, y), reported in the rotation (y, 0, x)."""
    verts, edges = random_tree(rng, 2 * n, rank)
    adj = adjacency(verts, edges)
    points = rng.sample(verts, n)
    table = metric_table(adj, rank, points)
    total = (sum(ln[0] for _u, _v, ln in edges) * 2 + 1,) + (Fraction(0),) * (rank - 1)
    table[n - 2][n - 1] = table[n - 1][n - 2] = lex_add(table[n - 2][n - 1], total)
    labels = [f"p{i}" for i in range(n)]
    return labels, table, (labels[n - 1], labels[0], labels[n - 2])


def metric_json(labels, table, rank):
    return {"rank": rank, "labels": labels, "dist": [[lex_json(d) for d in row] for row in table]}


# F2 Cayley tree windows -----------------------------------------------------------


def f2_window(radius):
    """Ball of the given radius about e in the Cayley tree of F(a, b), unit
    edges g -- gx, with a and b acting by left multiplication.  Vertex ids
    spell reduced words, capitals for inverses; e is the identity."""
    letters = ["a", "A", "b", "B"]
    inv = {"a": "A", "A": "a", "b": "B", "B": "b"}
    verts = ["e"]
    frontier = [""]
    edges = []
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for x in letters:
                if w and w[-1] == inv[x]:
                    continue
                nxt.append(w + x)
                edges.append({"u": w or "e", "v": w + x, "len": ["1"]})
        verts += nxt
        frontier = nxt

    def left(x, w):
        if w and w[0] == inv[x]:
            return w[1:]
        return x + w

    gens = {}
    for g in ("a", "b"):
        table = {}
        for v in verts:
            w = "" if v == "e" else v
            img = left(g, w)
            if len(img) <= radius:
                table[v] = img or "e"
        gens[g] = table
    return {"tree": {"rank": 1, "vertices": verts, "edges": edges}, "generators": gens}


def window_certify_free(ball, radius) -> bool:
    """Base point e.  A word of length n moves the midpoint of [e, w.e] out
    to 3n/2, and a cyclically reduced one gets there: the ball certifies iff
    every such point stays in the window, i.e. 3N <= 2R (for odd n the far
    end of the midpoint's edge reaches (3n+1)/2, the same bound)."""
    return 3 * ball <= 2 * radius


# graphs of actions on chains of path trees -----------------------------------------


def path_chain(rng, n_trees, n_verts):
    """Path trees V0..V(n-1) with integer edge lengths; V(i+1) starts with a
    copy of a segment of V(i) and is glued to it along that segment."""
    trees, glues = [], []
    lengths = [rng.randint(1, 3) for _ in range(n_verts - 1)]
    trees.append(lengths)
    for i in range(1, n_trees):
        prev = trees[-1]
        a = rng.randrange(len(prev) - 1)
        b = rng.randint(a + 1, min(len(prev), a + 3))
        seg = prev[a:b]
        lengths = seg + [rng.randint(1, 3) for _ in range(n_verts - 1 - len(seg))]
        trees.append(lengths)
        glues.append((a, b, len(seg)))
    return trees, glues


def chain_tree_json(i, lengths):
    verts = [f"v{i}_{j}" for j in range(len(lengths) + 1)]
    return tree_json(verts, [(verts[j], verts[j + 1], (l,)) for j, l in enumerate(lengths)], 1)


def chain_quotient(trees, glues):
    """The glued tree as a weighted graph: glued vertex pairs merged."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for i, (a, b, n) in enumerate(glues):
        for j in range(n + 1):
            ra, rb = find((i, a + j)), find((i + 1, j))
            if ra != rb:
                parent[rb] = ra
    adj = {}
    for i, lengths in enumerate(trees):
        for j, l in enumerate(lengths):
            u, v = find((i, j)), find((i, j + 1))
            adj.setdefault(u, set()).add((v, l))
            adj.setdefault(v, set()).add((u, l))
    return adj, find


def graph_distance(adj, src, dst):
    best, heap = {src: 0}, [(0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == dst:
            return d
        if d > best[u]:
            continue
        for v, l in adj[u]:
            if d + l < best.get(v, d + l + 1):
                best[v] = d + l
                heapq.heappush(heap, (d + l, v))
    raise ValueError("disconnected")


# marked groups and graphs of groups -------------------------------------------------


def abelian_relations(letters, images, radius):
    """Relations of a marking of a free-abelian group: words in the abstract
    letters whose image exponent vector is zero, sorted length-lex."""
    rels = []
    for w in reduced_words(alphabet(letters, sort=False), radius):
        if not any(abelian_image(w, letters, images)):
            rels.append(w)
    rels.sort(key=lambda w: (len(w), word_str(w)))
    return rels


def abelian_image(w, letters, images):
    idx = {l: i for i, l in enumerate(letters)}
    out = [0] * len(images[0])
    for l, e in w:
        for j, c in enumerate(images[idx[l]]):
            out[j] += e * c
    return out


def first_divergence(letters, images1, images2, radius):
    for w in reduced_words(alphabet(letters, sort=False), radius):
        r1 = not any(abelian_image(w, letters, images1))
        r2 = not any(abelian_image(w, letters, images2))
        if r1 != r2:
            return w
    return None


def z_profile(r_max, budget):
    """(Z, (1, i)) against (Z^2, standard): a word is a relation of the first
    iff e_a + i e_b = 0, of the second iff e_a = e_b = 0, so the shortest
    divergent word is b a^-i, of length i + 1.  The balls agree at radius R
    iff i >= R, so the least agreeing index is R while R <= budget."""
    return [[R, R if R <= budget else None] for R in range(1, r_max + 1)]


def is_proper_power_free(vec) -> bool:
    """A word whose exponent-sum vector has gcd 1 is no proper power."""
    g = 0
    for c in vec:
        g = gcd(g, abs(c))
    return g != 1
