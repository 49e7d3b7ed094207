import random
from fractions import Fraction

from lambdaforest import presets
from lambdaforest.lambdatree import MetricTree
from lambdaforest.ordgroup import LexValue


def L(*coords):
    return LexValue(list(coords))


def random_lex_positive(rng: random.Random, rank: int) -> LexValue:
    """Strictly positive random value; leading coordinate may be zero so
    infinitesimal lengths show up in random trees."""
    while True:
        coords = [Fraction(rng.randint(0, 3), rng.choice([1, 2])) for _ in range(rank)]
        v = LexValue(coords)
        if v > LexValue.zero(rank):
            return v


def random_tree(rng: random.Random, n_vertices: int, rank: int = 1, prefix: str = "v") -> MetricTree:
    verts = [f"{prefix}{i}" for i in range(n_vertices)]
    edges = []
    for i in range(1, n_vertices):
        j = rng.randrange(i)
        edges.append((verts[i], verts[j], random_lex_positive(rng, rank)))
    return MetricTree(verts, edges, rank)


def tree_json(T: MetricTree) -> dict:
    """The reference for `MetricTree.json_text`: the tree's document as a dict,
    built edge by edge (it was `MetricTree.to_json`)."""
    ids, D = T._ids, T._D
    s = [str(v) for v in ids]
    kinds = set(map(type, ids))
    if len(kinds) == 1 and kinds <= {str, int, tuple}:
        # reprs that no ", " reorders: number order is the edges' repr order
        edges = sorted(T._edges)
    else:
        r = [repr(v) for v in ids]
        edges = sorted(T._edges, key=lambda e: f"({r[e[0]]}, {r[e[1]]})")
    return {
        "rank": T.rank,
        "vertices": sorted(s),
        "edges": [{"u": s[a], "v": s[b],
                   "len": [str(c) if D == 1 else str(Fraction(c, D)) for c in row]}
                  for a, b, row in edges],
    }


# documents for the commands no preset serves (isom, glue, cover, marked ball and
# compare), shared by the import-set and fuzz tests


def _path_tree(ids):
    return {"rank": 1, "vertices": ids,
            "edges": [{"u": u, "v": v, "len": ["1"]} for u, v in zip(ids, ids[1:])]}


# the radius-1 ball of the Cayley tree of F2 = <a, b> (A, B the inverses), with
# a and b acting by left multiplication where the image stays in the ball
F2_WINDOW = {"schema": "lambda-forest/1",
             "tree": {"rank": 1, "vertices": ["e", "a", "A", "b", "B"],
                      "edges": [{"u": "e", "v": x, "len": ["1"]} for x in "aAbB"]},
             "generators": {"a": {"e": "a", "A": "e"}, "b": {"e": "b", "B": "e"}}}
TWO_TREES = {"schema": "lambda-forest/1", "base": _path_tree(["a", "b"]),
             "attachments": [{"tree": _path_tree(["p", "q"]), "x": "b", "y": "p"}]}
TREE_PAIR = {"schema": "lambda-forest/1", "tree1": _path_tree(["a", "b", "c"]),
             "tree2": _path_tree(["p", "q"]), "ends1": ["b", "c"], "ends2": ["p", "q"]}
CHAIN = {"schema": "lambda-forest/1",
         "vertex_trees": {"A": _path_tree(["a0", "a1", "a2"]), "B": _path_tree(["b0", "b1"])},
         "edges": [{"from": "A", "to": "B", "ends_from": ["a1", "a2"], "ends_to": ["b0", "b1"]}],
         "attestations": {"A": "free", "B": "free"}, "samples": [{"vertex": "A", "point": "a0"}]}
TRIPOD_COVER = {"schema": "lambda-forest/1", "tree": presets.emit("tripod"),
                "members": [["o", "p"], ["o", "q"], ["o", "r"]]}
Z2_MARKING = {"schema": "lambda-forest/1", "kind": "marked-group",
              "group": {"kind": "free-abelian", "letters": ["p", "q"]}, "marking": ["p", "q"],
              "letters": ["a", "b"]}
DOCUMENTS = {"f2-window": F2_WINDOW, "two-trees": TWO_TREES, "tree-pair": TREE_PAIR,
             "chain": CHAIN, "tripod-cover": TRIPOD_COVER, "z2-marking": Z2_MARKING}
