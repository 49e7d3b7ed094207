"""Check that a change leaves every benchmark job's output byte for byte.

Run from anywhere inside a checkout of the repository:

    python3 tools/golden_diff.py --base HEAD~1 --seeds 7 11

For each seed it builds every job of the three perfbench workloads with
perfbench/jobs.py, as many batches as a 30-second benchmark run draws
(round(30 / jobs.BATCH_SECONDS), at least one).  Each job runs as a fresh
`python3 -c "...main()"` process twice on the same input files: once on the
src/ of the working tree and once on the src/ of a `git archive` export of
the --base revision.  No benchmark job runs `cover`, so for each seed
COVER_DOCS seeded `cover` documents (cover_documents) run the same way, each
as `cover check` and as `cover skeleton`.  Every benchmark glue input is rank
1 with integer lengths and plain ids, so GLUE_DOCS seeded `glue point` and
`glue subtree` documents (glue_documents) run too: ranks 1-3, fractional
lengths, ids that JSON escapes or that mix ints and strings, one-vertex
trees.  Every benchmark `tree` query names string ids and vertex points,
apart from one interior --x, so TREE_DOCS seeded trees (tree_documents) run
too: ranks 1-3, fractional lengths, ids of every STEMS kind (ints among
strings included), each as `tree distance`, `tree median` and `tree
project` on vertex points and `u:v:off` points, off a random fraction of
the edge written from either end.  Every benchmark `validate-tree`
violation puts the point where the insertion check fails last, so
VALIDATE_DOCS seeded tables (validate_documents) run too: 9-32 points, ranks 1-3, fractional lengths,
triangle and four-point violations that the check meets at any point, and
some passes.  Every benchmark `bt` input has integer coefficients, so
MATRIX_DOCS seeded generator pairs over Q(t) and Q(s, t) with fractional
coefficients (matrix_documents) run too, each as `bt valuation` and `bt
length` of a random word and as `bt certify --ball 3`; about one in five
has a determinant that is not 1, whose error quotes the element text.  The
first DEEP_DOCS of them whose determinant is 1 (deep_matrix_documents) also
run as `bt certify --ball 7`, after every other run.  bt
reads a plain integer as an int and every other spelling through Fraction,
so the documents of spelled_documents, the same at every seed, run the same
three ways: integer coefficients spelled each way of SPELLINGS, as
entries and in coefficient maps, over Q(t) and Q(s, t), and one document per
field (Q_p with integer entries too) whose determinant is not 1.
Every benchmark `gog` input is the centralizer preset's shape or an edgeless
closed surface, so GOG_DOCS seeded graphs of groups (gog_documents) run too:
every vertex kind and type, bounded surfaces with edges, loops, parallel
edges, attested vertices that are not free and trivial edge images, and
GOG_FAULT_ROUNDS times a disconnected graph and four graphs where one clause
fails in several places (abelian vertices, pairs that share a root, a faulty
surface vertex among closed ones, and one with no closed surface, which is
connected), so the fault a clause names and the remarks it makes are compared
too; each runs as
`gog structure`, `gog acyl --radius 2-5`, `gog betti` and `gog principal`.
Every benchmark `glue check-free` passes and no `isom certify` finds a
counterexample, so the fixed documents of verdict_documents run too: `glue
check-free` Inconclusive (a vertex not attested free, no sample) and Fail (a
translating composite of parallel gluings, a class that is not a tree, a
class that outgrows CLASS_CAP), and a reflection's elliptic word as `isom
certify` and `isom classify`.  No job sends a malformed tree or metric table,
so the fixed documents of malformed_documents run too: `glue check-free` of a
tree that is a list, a string or an int or has no rank, `tree distance`
without a rank or vertices, `validate-tree` without a rank, labels or
dist, `tree distance` without edges or with an edge that is a list or has
no len, and `cover check` and `isom classify` without a tree.  The
exit code and the sha256 of stdout, stderr and the --json report are
compared.  A fixed list of command lines that no job sends (help,
usage errors, the spellings only argparse reads, `preset emit` of every
preset, single-word `bt length` and `bt valuation` queries, `bt certify
--ball 10`, empty output paths, an empty preset name, `isom`'s base, and a
`cover check` member and a `glue subtree` end that name a point by a JSON
int, and each RAW_DOCS text, which json.dump cannot write, as `validate-tree`
and `gog structure`: COMMAND_LINES) runs the same way without --json,
comparing the exit code and the sha256 of stdout and stderr.  Every process
runs with PYTHONUNBUFFERED removed from its environment, so its stdout is
block-buffered and output the program failed to flush before exit would show
as a difference.  The script
prints each job or command line that differs and exits 1 if any does, 0 if
none does.  It uses the standard library only and writes nothing inside the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
sys.dont_write_bytecode = True

import jobs as joblib  # noqa: E402
from lambdaforest import presets  # noqa: E402
from lambdaforest.bruhat import FieldError, matrix_group_from_json  # noqa: E402
from lambdaforest.cli import _COMMANDS  # noqa: E402
from lambdaforest.gluing import CLASS_CAP  # noqa: E402

ENTRY = "import sys; from lambdaforest.cli import main; sys.exit(main())"
JOB_TIMEOUT_S = 120
RUN_SECONDS = 30  # the run length of BENCHMARK.json, which sets the batch count
WORKERS = 2  # jobs run at once


def export(rev: str, dest: str) -> None:
    """Unpack the tree of `rev` into dest."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def materialize(job, inputs: str) -> list[str]:
    """Write the job's documents; return its argv with their paths."""
    argv = []
    for a in job.argv:
        if a.startswith("@"):
            path = os.path.join(inputs, f"{job.id}.{a[1:]}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(job.files[a[1:]], fh)
            a = path
        argv.append(a)
    return argv


def run(src: str, argv: list[str], report: str | None) -> tuple:
    """(exit code or "timeout", sha256 of stdout, stderr and the report);
    with no report path, no --json is passed."""
    if report and os.path.exists(report):
        os.remove(report)
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered, as a job's stdout to a file is
    try:
        proc = subprocess.run([sys.executable, "-c", ENTRY, *argv,
                               *(["--json", report] if report else [])],
                              capture_output=True, env=env, timeout=JOB_TIMEOUT_S,
                              stdin=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return ("timeout", None, None, None)
    digest = None
    if report and os.path.exists(report):
        with open(report, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    return (proc.returncode, hashlib.sha256(proc.stdout).hexdigest(),
            hashlib.sha256(proc.stderr).hexdigest(), digest)


FIELDS = ("exit", "stdout", "stderr", "report")
# no job sends these; @name is the path of that preset's document.  `preset emit`
# writes with the --json report writer, so every preset's output is held too
COMMAND_LINES = [[], ["--help"]] + [[c, "--help"] for c in _COMMANDS] + [
    ["frobnicate"],
    ["tree", "frobnicate", "--input", "@tripod", "--x", "p", "--y", "q"],
    ["validate-tree"],
    ["validate-tree", "--inp", "@square-cycle"],
    ["validate-tree", "--input=@square-cycle"],
    ["validate-tree", "--input", "@tripod", "--input", "@square-cycle"],
    ["isom", "certify", "--input", "@tripod", "--ball", "0"],
    ["gog", "acyl", "--input", "@centralizer-extension-gog", "--radius", "x"],
    ["marked", "ball", "--input", "@z-to-z2-sequence", "--radius", "-1"],
] + [["preset", "emit", "--name", name] for name in presets.names()] + [
    # one word each: a conjugate that is not cyclically reduced, a word whose
    # core is empty, unknown letters at the end and at the start, a relation
    ["bt", op, "--input", f"@{name}", "--word", word]
    for name, word in (("schottky-qt", "aba'"), ("schottky-qt", "aa'"), ("schottky-qt", "az"),
                       ("schottky-qt", "zy"), ("z2-diagonal", "uvu'v'"))
    for op in ("length", "valuation")
] + [["bt", "certify", "--input", f"@{name}", "--ball", "10"]
     for name in ("schottky-qt", "z2-diagonal")] + [
    # an empty output path names a file that cannot be created; an empty name is no preset
    ["preset", "list", "--json", ""],
    ["validate-tree", "--input", "@square-cycle", "--json", ""],
    ["preset", "emit", "--name", "tripod", "--out", ""],
    ["preset", "emit", "--name", "tripod", "--json", ""],
    ["preset", "emit", "--name", ""],
    # isom's base: named empty, and by default where ids sort and where they do not
    ["isom", "certify", "--input", "@rotation-window", "--base", ""],
    ["isom", "classify", "--input", "@rotation-window", "--word", "r"],
    ["isom", "classify", "--input", "@mixed-window", "--word", "g"],
    ["isom", "certify", "--input", "@mixed-window", "--ball", "1"],
    # a point is a string, also where the tree's ids are ints
    ["cover", "check", "--input", "@int-member"],
    ["glue", "subtree", "--input", "@int-ends"],
    # a label is a string or an int: the first table passes with labels of both
    # kinds, and the other two carry labels of neither
    ["validate-tree", "--input", "@int-labels"],
    ["validate-tree", "--input", "@odd-labels"],
    ["validate-tree", "--input", "@object-label"],
]


def _path_tree(ids: list) -> dict:
    """A rank-1 path through ids, in order, with unit edges."""
    return {"rank": 1, "vertices": ids,
            "edges": [{"u": u, "v": v, "len": ["1"]} for u, v in zip(ids, ids[1:])]}


# the documents of command lines that no preset serves: the tripod turned by
# r, a window whose vertex ids, 0 and "a", do not compare, a cover member and
# a glued segment's end that give a point as an int, and the distances of a
# star's centre q and three leaves as a table, and with r and s stretched apart
INT_PATH = _path_tree([0, 1, 2])
STAR = [[[str(d)] for d in row] for row in ([0, 1, 2, 2], [1, 0, 1, 1], [2, 1, 0, 2], [2, 1, 2, 0])]
STRETCHED = STAR[:2] + [[["2"], ["1"], ["0"], ["3"]], [["2"], ["1"], ["3"], ["0"]]]
LINE_DOCS = {
    "rotation-window": {"schema": "lambda-forest/1", "tree": presets.emit("tripod"),
                        "generators": {"r": {"o": "o", "p": "q", "q": "r", "r": "p"}}},
    "mixed-window": {"schema": "lambda-forest/1",
                     "tree": {"rank": 1, "vertices": [0, "a"],
                              "edges": [{"u": 0, "v": "a", "len": ["1"]}]},
                     "generators": {"g": {"a": "a"}}},
    "int-member": {"schema": "lambda-forest/1", "tree": INT_PATH, "members": [[0, 1], ["1", "2"]]},
    "int-ends": {"schema": "lambda-forest/1", "tree1": INT_PATH, "tree2": INT_PATH,
                 "ends1": ["0", 1], "ends2": ["1", "2"]},
    "int-labels": {"schema": "lambda-forest/1", "rank": 1, "labels": ["p", 0, "r", 1], "dist": STAR},
    "odd-labels": {"schema": "lambda-forest/1", "rank": 1, "labels": [True, 1.5, None, "s"],
                   "dist": STAR},
    "object-label": {"schema": "lambda-forest/1", "rank": 1, "labels": [{}, "q", "r", "s"],
                     "dist": STRETCHED},
}

# texts as bytes, which json.dump cannot write: the reader's failures, each of
# which json words (NaN and +-Infinity it reads), and two well-formed documents,
# one wrapped in whitespace and one pretty-printed
RAW_HEAD = b'{"schema": "lambda-forest/1"'
RAW_DOCS = {
    "empty": b"", "whitespace": b" \t\r\n ", "bom": b"\xef\xbb\xbf" + RAW_HEAD + b"}",
    "trailing": RAW_HEAD + b"} {}", "bare-brace": b"{", "unterminated": RAW_HEAD + b', "a": "b}',
    "bad-escape": RAW_HEAD + b', "a": "\\q"}', "nan": RAW_HEAD + b', "a": NaN}',
    "infinity": RAW_HEAD + b', "a": [Infinity]}', "minus-infinity": RAW_HEAD + b', "a": -Infinity}',
    "digits": RAW_HEAD + b', "a": ' + b"7" * 5000 + b"}",
    "duplicate": RAW_HEAD + b', "a": {"b": {"c": 1, "c": 2}}}',
    "deep": b"[" * 200_000 + b"]" * 200_000, "bad-utf8": RAW_HEAD + b', "a": "\xff\xfe"}',
    "padded": b" \n\t" + json.dumps(presets.emit("square-cycle")).encode() + b"\r\n ",
    "pretty": json.dumps(presets.emit("centralizer-extension-gog"), indent=4).encode(),
}
COMMAND_LINES += [[*command, "--input", f"@{name}"] for name in RAW_DOCS
                  for command in (["validate-tree"], ["gog", "structure"])]


COVER_DOCS = 50  # per seed


def cover_documents(seed: int) -> list[dict]:
    """Random rank-1 trees of 1-7 vertices, each with members that cover it:
    every edge whole or cut at an interior point, and members that meet
    merged.  A member lists its vertices and cut points in a random order, so
    any of them may come first.  Five in eleven are then spoiled, where the
    tree allows it: a member dropped, cut short, or repeated, a one-point
    member added, or one added across two edges."""
    rng = random.Random(seed)
    docs = []
    for _ in range(COVER_DOCS):
        n = rng.randint(1, 7)
        vs = [f"v{i}" for i in range(n)]
        edges = [(vs[i], vs[rng.randrange(i)], Fraction(rng.randint(1, 4), rng.randint(1, 2)))
                 for i in range(1, n)]
        members = []
        for u, v, ln in edges:
            if rng.random() < 0.3:
                cut = f"{u}:{v}:{ln * Fraction(rng.randint(1, 3), 4)}"
                members += [[u, cut], [cut, v]]
            else:
                members.append([u, v])
        for _ in range(rng.randint(0, len(members))):  # members that share a point stay a covering
            i, j = rng.sample(range(len(members)), 2) if len(members) > 1 else (0, 0)
            if i != j and set(members[i]) & set(members[j]):
                merged = sorted(set(members[i]) | set(members[j]))
                members = [m for k, m in enumerate(members) if k not in (i, j)] + [merged]
        if not members:
            members = [[vs[0]]]
        spoil = rng.choice(["none"] * 6 + ["drop", "short", "repeat", "point", "across"])
        if spoil == "drop" and len(members) > 1:
            members.pop(rng.randrange(len(members)))
        elif spoil == "short" and edges:
            u, v, ln = rng.choice(edges)
            members.append([u, f"{u}:{v}:{ln / 2}"])
            members = [m for m in members if not {u, v} <= set(m)] or members
        elif spoil == "repeat":
            members.append(list(rng.choice(members)))
        elif spoil == "point":
            members.append([rng.choice(vs)])
        elif spoil == "across" and len(edges) > 1:
            (u, v, _), (w, x, _) = rng.sample(edges, 2)
            members.append([u, v, w, x])
        for m in members:
            rng.shuffle(m)
        rng.shuffle(members)
        docs.append({"schema": "lambda-forest/1",
                     "tree": {"rank": 1, "vertices": vs,
                              "edges": [{"u": u, "v": v, "len": [str(ln)]} for u, v, ln in edges]},
                     "members": members})
    return docs


GLUE_DOCS = 40  # per seed, alternately `glue point` and `glue subtree`
# id stems: quotes and a backslash (which JSON escapes, and repr quotes its own
# way), text past ASCII, and "" for int ids among string ones
STEMS = ["v", 'q"', "b\\", "x'y", "\u00e9", "\u2603", ""]


def _length(rng, rank: int) -> list:
    """A random positive length of `rank` rationals."""
    row = [Fraction(rng.randint(0, 3), rng.choice([1, 2, 3]))] + [
        Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(rank - 1)]
    if not any(row):
        row[-1] = Fraction(1, 2)
    return row if row > [0] * rank else [-c for c in row]


def _glue_tree(rng, rank: int, n: int, ints: bool, stem: str | None = None):
    """A random tree on n vertices: its ids, its document, and each vertex's
    parent and distance from vertex 0, by number.  The ids are the stem (by
    default a random one, "" only with `ints`) and a number; a stem of ""
    makes every other id an int."""
    if stem is None:
        stem = rng.choice(STEMS if ints else STEMS[:-1])
    ids = [i if stem == "" and i % 2 else f"{stem}{i}" for i in range(n)]
    parent, r, edges = [None], [[Fraction(0)] * rank], []
    for i in range(1, n):
        parent.append(rng.randrange(i))
        ln = _length(rng, rank)
        r.append([a + b for a, b in zip(r[parent[i]], ln)])
        edges.append({"u": ids[i], "v": ids[parent[i]], "len": [str(c) for c in ln]})
    rng.shuffle(edges)
    return ids, {"rank": rank, "vertices": rng.sample(ids, n), "edges": edges}, parent, r


def _distance(parent: list, r: list, a: int, b: int) -> list:
    """The distance of vertices a and b of a tree given by each vertex's
    parent and distance from vertex 0, by number."""
    above, m = set(), a
    while m is not None:
        above.add(m)
        m = parent[m]
    m = b
    while m not in above:
        m = parent[m]
    return [x + y - 2 * z for x, y, z in zip(r[a], r[b], r[m])]


def glue_documents(seed: int) -> list[tuple[str, dict]]:
    """(op, document) pairs of random trees of rank 1-3 with fractional
    lengths and ids that JSON escapes.  `glue point` wedges 1-3 trees of 1-5
    vertices onto a base of 1-6 (a one-vertex base one time in four).
    `glue subtree` glues a segment between two vertices of a tree of 2-7
    vertices to one of the same span in a tree of 1-5 vertices, made by
    hanging a path of one or two edges from it."""
    rng = random.Random(seed)
    docs = []
    for k in range(GLUE_DOCS):
        rank = rng.randint(1, 3)
        if k % 2 == 0:
            n = 1 if rng.random() < 0.25 else rng.randint(2, 6)
            base = _glue_tree(rng, rank, n, True)[:2]
            atts = []
            for _ in range(rng.randint(1, 3)):
                ids, tree = _glue_tree(rng, rank, rng.randint(1, 5), True)[:2]
                atts.append({"tree": tree, "x": rng.choice(base[0]), "y": rng.choice(ids)})
            docs.append(("point", {"schema": "lambda-forest/1", "base": base[1],
                                   "attachments": atts}))
            continue
        ids1, tree1, parent, r = _glue_tree(rng, rank, rng.randint(2, 7), False)
        a, b = rng.sample(range(len(ids1)), 2)
        span = _distance(parent, r, a, b)
        ids2, tree2, _p, _r = _glue_tree(rng, rank, rng.randint(1, 5), False)
        x = rng.choice(ids2)
        legs = [span] if rng.random() < 0.5 else [[c / 3 for c in span], [2 * c / 3 for c in span]]
        path = [x] + [f"{x}+{j}" for j in range(len(legs))]
        tree2["vertices"] += path[1:]
        tree2["edges"] += [{"u": u, "v": v, "len": [str(c) for c in ln]}
                           for u, v, ln in zip(path, path[1:], legs)]
        ends1, ends2 = [ids1[a], ids1[b]], [x, path[-1]]
        if rng.random() < 0.5:
            ends1.reverse()
            ends2.reverse()
        docs.append(("subtree", {"schema": "lambda-forest/1", "tree1": tree1, "tree2": tree2,
                                 "ends1": ends1, "ends2": ends2}))
    return docs


TREE_DOCS = 28  # per seed, four of each STEMS kind


def tree_documents(seed: int) -> list[tuple[list, dict]]:
    """(runs, document) pairs of random trees of 1-7 vertices of rank 1-3
    with fractional lengths, document k on the ids of STEMS[k % 7], so four
    in 28 have ints among string ids.  A run is an op of `tree` (distance,
    median and project) and its point options.  A point is a vertex, or one
    time in two, where there is an edge, the `u:v:off` point a quarter, half
    or three quarters of the way along a random edge, from either end."""
    rng = random.Random(seed)
    docs = []
    for k in range(TREE_DOCS):
        tree = _glue_tree(rng, rng.randint(1, 3), rng.randint(1, 7), True, STEMS[k % len(STEMS)])[1]

        def point() -> str:
            if not tree["edges"] or rng.random() < 0.5:
                return str(rng.choice(tree["vertices"]))
            e = rng.choice(tree["edges"])
            u, v = (e["u"], e["v"]) if rng.random() < 0.5 else (e["v"], e["u"])
            q = Fraction(rng.randint(1, 3), 4)
            return f"{u}:{v}:" + ",".join(str(Fraction(c) * q) for c in e["len"])

        runs = [("distance", "--x", point(), "--y", point())] + [
            (op, "--x", point(), "--y", point(), "--z", point()) for op in ("median", "project")]
        docs.append((runs, {"schema": "lambda-forest/1", **tree}))
    return docs


VALIDATE_DOCS = 30  # per seed


def validate_documents(seed: int) -> list[dict]:
    """Distance tables of 9-32 points of random trees of rank 1-3 with
    fractional lengths, the points in a random order.  One in six is left a
    tree metric; the rest are spoiled at a random place, so the insertion
    check may fail at any point: a pair stretched or shrunk, a row shifted
    down, or a 4-cycle c0-c3 hung by an edge at c0 from a random vertex, its
    points (numbered -1 to -4) at random places among the others."""
    rng = random.Random(seed)
    docs = []
    for _ in range(VALIDATE_DOCS):
        rank, m = rng.randint(1, 3), rng.randint(9, 32)
        _ids, _tree, parent, r = _glue_tree(rng, rank, 2 * m, False)
        side, stalk, hang = _length(rng, rank), _length(rng, rank), rng.randrange(2 * m)
        spoil = rng.choice(["none", "pair", "pair", "row", "cycle", "cycle"])
        points = rng.sample(range(2 * m), m)
        if spoil == "cycle":
            for k, at in enumerate(rng.sample(range(m), 4)):
                points[at] = -1 - k

        def dist(a: int, b: int) -> list:
            if a >= 0 and b >= 0:
                return _distance(parent, r, a, b)
            if a < 0 and b < 0:
                return [min(abs(a - b), 4 - abs(a - b)) * c for c in side]
            k, v = (-1 - a, b) if a < 0 else (-1 - b, a)
            return [min(k, 4 - k) * c + s + t
                    for c, s, t in zip(side, stalk, _distance(parent, r, hang, v))]

        d = [[dist(a, b) for b in points] for a in points]
        i, j = rng.sample(range(m), 2)
        if spoil == "pair":
            sign = rng.choice((-1, 1))
            d[i][j] = d[j][i] = [c + sign * s for c, s in zip(d[i][j], side)]
        elif spoil == "row":
            for j in range(m):
                if j != i:
                    d[i][j] = d[j][i] = [c - s for c, s in zip(d[i][j], side)]
        docs.append({"schema": "lambda-forest/1", "kind": "metric", "rank": rank,
                     "labels": [f"p{k}" for k in rng.sample(range(m), m)],
                     "dist": [[[str(c) for c in e] for e in row] for row in d]})
    return docs


MATRIX_DOCS = 30  # per seed


def _times(x: dict, y: dict) -> dict:
    """The product of two Laurent polynomials in t and s, (t-exp, s-exp) -> coefficient."""
    out: dict = {}
    for (t1, s1), a in x.items():
        for (t2, s2), b in y.items():
            e = (t1 + t2, s1 + s2)
            out[e] = out.get(e, 0) + a * b
    return {e: c for e, c in out.items() if c}


def _plus(x: dict, y: dict) -> dict:
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _monomial_key(t: int, s: int) -> str:
    """The key of t^t s^s, as "1", "t^-2", "s" or "t^2s^-1": an exponent of 1 is left out."""
    return "".join(v if e == 1 else f"{v}^{e}" for v, e in (("t", t), ("s", s)) if e) or "1"


def _entry_json(x: dict):
    """A document entry: "0", a rational string for a constant, else a map of
    monomial keys to rational strings."""
    if not x or set(x) == {(0, 0)}:
        return str(x.get((0, 0), 0))
    return {_monomial_key(t, s): str(c) for (t, s), c in sorted(x.items())}


def matrix_documents(seed: int) -> list[tuple[str, dict]]:
    """(word, document) pairs of two generators over Q(t) or Q(s, t) with
    fractional coefficients: each a product of 2-3 factors [[1, f], [0, 1]],
    [[1, 0], [f, 1]] or diag(u, 1/u), where f has 1-2 terms and u = c t^i s^j,
    coefficients +-1..3 over 1..4 and exponents -2..2 (no s over Q(t)).  One
    document in five then has a term added to one entry, so its determinant is
    not 1 (unless the entry it is added to meets a zero in the determinant)
    and the error quotes its text.  The word has 1-4 letters of the generators and their inverses."""
    rng = random.Random(seed)
    docs = []
    for k in range(MATRIX_DOCS):
        field = rng.choice(["Qt", "Qst"])

        def term() -> tuple:
            e = (rng.randint(-2, 2), rng.randint(-2, 2) if field == "Qst" else 0)
            return e, Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))

        one, gens = {(0, 0): Fraction(1)}, {}
        for label in "ab":
            m = [[one, {}], [{}, one]]
            for _ in range(rng.randint(2, 3)):
                kind = rng.choice(["upper", "lower", "diag"])
                if kind == "diag":
                    (t, s), c = term()
                    f = [[{(t, s): c}, {}], [{}, {(-t, -s): 1 / c}]]
                else:
                    poly = dict(term() for _ in range(rng.randint(1, 2)))
                    f = [[one, poly], [{}, one]] if kind == "upper" else [[one, {}], [poly, one]]
                m = [[_plus(_times(m[i][0], f[0][j]), _times(m[i][1], f[1][j])) for j in (0, 1)]
                     for i in (0, 1)]
            gens[label] = m
        if k % 5 == 4:
            i, j = rng.choice([(0, 0), (0, 1), (1, 0), (1, 1)])
            m = gens[rng.choice("ab")]
            m[i][j] = _plus(m[i][j], dict([term()]))
        word = "".join(rng.choice(["a", "b", "a'", "b'"]) for _ in range(rng.randint(1, 4)))
        docs.append((word, {"schema": "lambda-forest/1", "kind": "matrix-group", "field": field,
                            "generators": {g: [[_entry_json(x) for x in row] for row in m]
                                           for g, m in gens.items()}}))
    return docs


DEEP_DOCS, DEEP_BALL = 5, "7"  # per seed


def deep_matrix_documents(seed: int) -> list[dict]:
    """The first DEEP_DOCS documents of matrix_documents(seed) whose
    generators have determinant 1, to run as `bt certify --ball DEEP_BALL`:
    every benchmark job and `bt certify --ball 10` command line has integer
    coefficients, so only these compare a scale D > 1 at depth."""
    deep = []
    for _word, doc in matrix_documents(seed):
        try:
            matrix_group_from_json(doc)  # refuses a determinant that is not 1
        except FieldError:
            continue
        deep.append(doc)
    return deep[:DEEP_DOCS]


# spellings of an integer that Fraction reads and a plain int reader might not,
# and one past int's default limit of 4,300 digits, which both refuse
SPELLINGS = ["007", "-0", "+3", " 3", "1_0", "6/3", "1.5", "1e2", "9" * 4301]
# a generator per field whose determinant is 2, not 1
BAD_DETERMINANTS = [("Qt", None, [[{"t": "2"}, "0"], ["0", {"t^-1": "1"}]]),
                    ("Qst", None, [[{"ts": "1"}, "1"], ["0", {"t^-1s^-1": "2"}]]),
                    ("Qp", 5, [["2", "0"], ["0", "1"]])]


def bt_runs(word: str) -> tuple:
    """The runs of a matrix document: bt valuation and length of word, and bt certify."""
    return ("valuation", "--word", word), ("length", "--word", word), ("certify", "--ball", "3")


def spelled_documents() -> list[tuple[str, dict]]:
    """(word, document) pairs: for each of SPELLINGS x, over Q(t) and Q(s, t),
    the generators a = [[1/m + x, 1], [-1, 0]] and b = [[1/m, x], [0, m]],
    with m = t (st over Q(s, t)), both of determinant 1 whatever x is; then
    the documents of BAD_DETERMINANTS."""
    docs = []
    for x in SPELLINGS:
        for field, m, inv in (("Qt", "t", "t^-1"), ("Qst", "st", "s^-1t^-1")):
            docs.append(("ab'a", {"schema": "lambda-forest/1", "kind": "matrix-group", "field": field,
                                  "generators": {"a": [[{inv: "1", "1": x}, "1"], ["-1", "0"]],
                                                 "b": [[{inv: "1"}, x], ["0", {m: "1"}]]}}))
    for field, p, rows in BAD_DETERMINANTS:
        docs.append(("a", {"schema": "lambda-forest/1", "kind": "matrix-group", "field": field,
                           **({"p": p} if p else {}), "generators": {"a": rows}}))
    return docs


GOG_DOCS = 30  # per seed
# the vertex type that suits each group kind
GOG_TYPES = {"free": "infinitesimal", "free-abelian": "infinitesimal", "cyclic-by-sum": "abelian",
             "surface-with-boundary": "surface"}
VERTEX_TYPES = ["abelian", "infinitesimal", "surface"]
# boundary words of a surface vertex, cyclically reduced and pairwise independent
BOUNDARIES = ["a", "b", "ab'", "abc", "aab", "bc'c'"]


def _letters(w: str) -> list:
    """The (letter, exponent) pairs of a word's text."""
    return [(c, -1 if w[i + 1:i + 2] == "'" else 1) for i, c in enumerate(w) if c != "'"]


def _text(w: list) -> str:
    return "".join(l + ("'" if e < 0 else "") for l, e in w)


def _inverse(w: list) -> list:
    return [(l, -e) for l, e in reversed(w)]


def _reduced_word(rng, letters: list, n: int) -> list:
    """A random freely reduced word of n letters."""
    w = []
    while len(w) < n:
        a = (rng.choice(letters), rng.choice((1, -1)))
        if not w or w[-1] != (a[0], -a[1]):
            w.append(a)
    return w


def gog_documents(seed: int) -> list[tuple[str, dict]]:
    """(radius, document) pairs of graphs of 1-4 vertices of the four group
    kinds (free twice as often as each other), each on 1-3 of the letters a,
    b, c, and of the type that suits its kind four times in five (else of any
    type; a vertex that is infinitesimal but not free is attested one time in
    two).  A surface vertex has 0-2 boundary words and, one time in three, a
    closed relator.  A random spanning tree joins the vertices, nine times in
    ten across the infinitesimal divide where it can, and up to two more
    edges, loops and parallel edges among them, bring the edges to at most
    five.  An image at a cyclic-by-sum vertex is its marked letter or the
    inverse four times in five, and at a surface vertex with boundaries a
    conjugate of a boundary word or of its inverse two times in three; the
    rest are reduced words of 1-3 letters, or, one time in 33, the trivial
    word x x', so some documents are refused (exit 65).  The ambient group has
    1-5 generators and 0-2 relators, and 0-2 maximal abelian subgroups are
    declared, of rank 1 (refused), 2 or 3; the acyl radius is 2-5."""
    rng = random.Random(seed)
    docs = []
    for _ in range(GOG_DOCS):
        verts, ids = [], [f"V{i}" for i in range(rng.randint(1, 4))]
        for vid in ids:
            kind = rng.choice(["free", *GOG_TYPES])
            letters = list("abc"[:rng.randint(1, 3)])
            vtype = GOG_TYPES[kind] if rng.random() < 0.8 else rng.choice(VERTEX_TYPES)
            if kind == "cyclic-by-sum":
                group = {"kind": kind, "n_letter": letters[0], "extra_letters": letters[1:]}
            else:
                group = {"kind": kind, "letters": letters}
            if kind == "surface-with-boundary":
                fits = [b for b in BOUNDARIES if set(b) - {"'"} <= set(letters)]
                group["boundaries"] = rng.sample(fits, min(len(fits), rng.randint(0, 2)))
                if rng.random() < 1 / 3:
                    group["closed_relator"] = _text(_reduced_word(rng, letters, rng.randint(2, 6)))
            vert = {"id": vid, "type": vtype, "group": group}
            if vtype == "infinitesimal" and kind != "free" and rng.random() < 0.5:
                vert["attestation"] = "free by construction"
            verts.append(vert)
        groups = {v["id"]: v["group"] for v in verts}
        inf = {v["id"] for v in verts if v["type"] == "infinitesimal"}

        def partner(vid: str, choices: list) -> str:
            across = [c for c in choices if (c in inf) != (vid in inf)]
            return rng.choice(across if across and rng.random() < 0.9 else choices)

        ends = [(partner(ids[i], ids[:i]), ids[i]) for i in range(1, len(ids))]
        for u in rng.choices(ids, k=rng.randint(0, min(2, 5 - len(ends)))):
            ends.append((u, partner(u, ids)))
        rng.shuffle(ends)

        def image(vid: str) -> str:
            group = groups[vid]
            letters = group.get("letters") or [group["n_letter"], *group["extra_letters"]]
            if rng.random() < 0.8 and group["kind"] == "cyclic-by-sum":
                return group["n_letter"] + rng.choice(["", "'"])
            if rng.random() < 2 / 3 and group.get("boundaries"):
                b = _letters(rng.choice(group["boundaries"]))
                h = _reduced_word(rng, letters, rng.randint(0, 2))
                return _text(h + (b if rng.random() < 0.5 else _inverse(b)) + _inverse(h))
            if rng.random() < 0.03:
                return rng.choice(letters) * 2 + "'"  # trivial
            return _text(_reduced_word(rng, letters, rng.randint(1, 3)))

        gens = list("abcde"[:rng.randint(1, 5)])
        docs.append((str(rng.randint(2, 5)), {
            "schema": "lambda-forest/1", "kind": "graph-of-groups", "vertices": verts,
            "edges": [{"u": u, "v": v, "image_u": image(u), "image_v": image(v)} for u, v in ends],
            "ambient": {"generators": gens,
                        "relators": [_text(_reduced_word(rng, gens, rng.randint(1, 6)))
                                     for _ in range(rng.randint(0, 2))]},
            "max_abelian": [[f"M{k}", rng.choice([1, 2, 2, 2, 3, 3, 3])]
                            for k in range(rng.randint(0, 2))],
        }))
    return docs + _gog_fault_graphs(rng)


GOG_FAULT_ROUNDS = 4  # per seed, one graph of each shape a round
PRIMITIVE = ["a", "b", "ab", "ab'", "aab"]  # over a and b: no proper powers


def _gog_fault_graphs(rng) -> list[tuple[str, dict]]:
    """(radius, document) pairs of the graphs that gog_documents seldom or
    never draws, GOG_FAULT_ROUNDS of each shape:
    - disconnected: 2-3 components, each a free infinitesimal vertex on a and b
      with 0-2 cyclic-by-sum neighbours hung at their marked letter;
    - abelian: 2-4 abelian vertices hung from a free F by 1-2 edges each, the
      first two faulty: not cyclic-by-sum, or an edge glued at a letter that
      is not the marked one, or to a proper power at F, or both;
    - pairs: 2-4 cyclic-by-sum vertices hung from a free F at conjugates of a
      or ab (or of their inverses), so several pairs may share a root, and
      0-3 edges from some of them to an attested free-abelian N;
    - surface: a faulty surface vertex (its boundary word does not match its
      edge, or it is not a surface group), a closed surface with no edge, and
      0-2 more of either kind or of surfaces that match, hung from a free F;
    - open-surface: the same without a closed surface, so the graph is
      connected and gog acyl searches it; drawn after the other shapes, so
      that theirs stay the documents they were.
    Vertices, edges and the two ends of each edge come in random order."""
    docs = []
    shapes = ["disconnected", "abelian", "pairs", "surface"] * GOG_FAULT_ROUNDS
    for shape in shapes + ["open-surface"] * GOG_FAULT_ROUNDS:
        verts, edges = [], []

        def vertex(vid: str, vtype: str, kind: str, letters: list, **group) -> None:
            group = {"kind": kind, **({"n_letter": letters[0], "extra_letters": letters[1:]}
                                      if kind == "cyclic-by-sum" else {"letters": letters}), **group}
            verts.append({"id": vid, "type": vtype, "group": group})

        def edge(u: str, v: str, image_u: str, image_v: str) -> None:
            if rng.random() < 0.5:
                u, v, image_u, image_v = v, u, image_v, image_u
            edges.append({"u": u, "v": v, "image_u": image_u, "image_v": image_v})

        def conjugate(w: str) -> str:
            h, w = _reduced_word(rng, ["a", "b"], rng.randint(0, 2)), _letters(w)
            return _text(h + (w if rng.random() < 0.5 else _inverse(w)) + _inverse(h))

        if shape == "disconnected":
            for c in range(rng.randint(2, 3)):
                vertex(f"F{c}", "infinitesimal", "free", ["a", "b"])
                for k in range(rng.randint(0, 2)):
                    vertex(f"A{c}{k}", "abelian", "cyclic-by-sum", ["n"])
                    edge(f"F{c}", f"A{c}{k}", rng.choice(PRIMITIVE), "n")
        elif shape == "abelian":
            vertex("F", "infinitesimal", "free", ["a", "b"])
            for k in range(rng.randint(2, 4)):
                how = rng.choice(["cyclic", "letter", "power", "both"] + ["none"] * (k >= 2))
                vertex(f"A{k}", "abelian", "free-abelian" if how == "cyclic" else "cyclic-by-sum",
                       ["n", "m"])
                faults = [how] + rng.choices(["letter", "power", "none"], k=rng.randint(0, 1))
                for fault in rng.sample(faults, len(faults)):
                    edge("F", f"A{k}", rng.choice(["aa", "abab", "b'b'"]) if fault in ("power", "both")
                         else rng.choice(PRIMITIVE), "m" if fault in ("letter", "both") else "n")
        elif shape == "pairs":
            vertex("F", "infinitesimal", "free", ["a", "b"])
            hung = [f"A{k}" for k in range(rng.randint(2, 4))]
            for vid in hung:
                vertex(vid, "abelian", "cyclic-by-sum", ["n"])
                edge("F", vid, conjugate(rng.choice(["a", "ab"])), "n")
            if n := rng.randint(0, 3):
                verts.append({"id": "N", "type": "infinitesimal", "attestation": "free by construction",
                              "group": {"kind": "free-abelian", "letters": ["a", "b"]}})
                for vid in rng.sample(hung, min(n, len(hung))):
                    edge("N", vid, rng.choice(["a", "b", "ab"]), "n")
        else:
            closed = ["closed"] if shape == "surface" else []
            vertex("F", "infinitesimal", "free", ["a", "b"])
            kinds = [rng.choice(["mismatch", "lacks"])] + closed
            kinds += rng.choices(closed + ["match", "mismatch", "lacks"], k=rng.randint(0, 2))
            for k, how in enumerate(rng.sample(kinds, len(kinds))):
                if how == "lacks":
                    vertex(f"S{k}", "surface", "free", ["a", "b"])
                    edge("F", f"S{k}", rng.choice(PRIMITIVE), rng.choice(PRIMITIVE))
                elif how == "closed":
                    vertex(f"S{k}", "surface", "surface-with-boundary", ["a", "b"], boundaries=[],
                           **({"closed_relator": "aba'b'"} if rng.random() < 0.5 else {}))
                else:
                    b, other = rng.sample(PRIMITIVE, 2)
                    vertex(f"S{k}", "surface", "surface-with-boundary", ["a", "b"], boundaries=[b])
                    edge("F", f"S{k}", rng.choice(PRIMITIVE), conjugate(b if how == "match" else other))
        rng.shuffle(verts)
        rng.shuffle(edges)
        docs.append((str(rng.randint(2, 5)), {
            "schema": "lambda-forest/1", "kind": "graph-of-groups", "vertices": verts, "edges": edges,
            "ambient": {"generators": ["a", "b", "c"][:rng.randint(1, 3)], "relators": []},
            "max_abelian": [["M0", 2]] if rng.random() < 0.5 else []}))
    return docs


def verdict_documents() -> list[tuple[str, tuple, dict]]:
    """(name, runs, document) of the verdicts no benchmark job and no seeded
    document reaches, the same at every seed.  `glue check-free` on gluings of
    two 5-vertex paths U and V: a vertex not attested free and no sample
    (Inconclusive), two parallel gluings whose composite translates (Fail),
    the same gluing twice (a class that is not a tree: Fail); and a chain of
    CLASS_CAP + 2 one-vertex trees glued at their point, whose class outgrows
    the cap (Fail).  `isom certify` and `classify` of g, the reflection of the
    path a-b-c about b: g is elliptic, so certify finds a counterexample."""
    trees = {"U": _path_tree([0, 1, 2, 3, 4]), "V": _path_tree([0, 1, 2, 3, 4])}
    free = {"U": "free", "V": "free"}

    def glue(*ends_from: list) -> list:
        return [{"from": "U", "to": "V", "ends_from": e, "ends_to": ["0", "2"]} for e in ends_from]

    chain = [f"C{i}" for i in range(CLASS_CAP + 2)]
    check_free = [
        {"vertex_trees": trees, "edges": glue(["0", "2"]), "attestations": {"U": "free"},
         "samples": [{"vertex": "U", "point": "1"}]},
        {"vertex_trees": trees, "edges": glue(["0", "2"]), "attestations": free},
        {"vertex_trees": trees, "edges": glue(["0", "2"], ["1", "3"]), "attestations": free,
         "samples": [{"vertex": "U", "point": "0"}]},
        {"vertex_trees": trees, "edges": glue(["0", "2"], ["0", "2"]), "attestations": free,
         "samples": [{"vertex": "U", "point": "1"}]},
        {"vertex_trees": {c: _path_tree(["p"]) for c in chain},
         "edges": [{"from": a, "to": b, "ends_from": ["p", "p"], "ends_to": ["p", "p"]}
                   for a, b in zip(chain, chain[1:])],
         "attestations": {c: "free" for c in chain}, "samples": [{"vertex": "C0", "point": "p"}]},
    ]
    reflection = {"tree": _path_tree(["a", "b", "c"]),
                  "generators": {"g": {"a": "c", "b": "b", "c": "a"}}}
    return [(f"glue/verdicts/{k}", (("check-free",),), {"schema": "lambda-forest/1", **doc})
            for k, doc in enumerate(check_free)] + [
        ("isom/verdicts/reflection", (("certify", "--ball", "2"), ("classify", "--word", "g")),
         {"schema": "lambda-forest/1", **reflection})]


def malformed_documents() -> list[tuple[str, tuple, dict]]:
    """(name, runs, document) of the malformed trees and metric tables that no
    job sends, the same at every seed: `glue check-free` whose tree is a list,
    a string or an int, or lacks its rank; `tree distance` on the tripod
    without its rank or its vertices; `validate-tree` on a table without
    its rank, labels or dist; `tree distance` on the tripod without its
    edges, with an edge given as a list and with an edge without its len;
    and `cover check` and `isom classify` on a document without a tree."""
    tripod = presets.emit("tripod")
    table = {"schema": "lambda-forest/1", "rank": 1, "labels": ["a", "b"],
             "dist": [[["0"], ["1"]], [["1"], ["0"]]]}
    trees = [[1], "x", 5, {"vertices": ["a"], "edges": []}]
    distance = (("distance", "--x", "p", "--y", "q"),)
    bad_edges = {"edge-list": [["o", "p", ["1"]]],
                 "edge-no-len": [{"u": "o", "v": "p", "len": ["1"]}, {"u": "o", "v": "q"}]}
    return [(f"glue/malformed/{k}", (("check-free",),),
             {"schema": "lambda-forest/1", "vertex_trees": {"A": tree}, "edges": []})
            for k, tree in enumerate(trees)] + [
        (f"tree/malformed/{key}", distance,
         {k: v for k, v in tripod.items() if k != key}) for key in ("rank", "vertices")] + [
        (f"validate-tree/malformed/{key}", ((),), {k: v for k, v in table.items() if k != key})
        for key in ("rank", "labels", "dist")] + [
        ("tree/malformed/no-edges", distance, {k: v for k, v in tripod.items() if k != "edges"})] + [
        (f"tree/malformed/{name}", distance, {**tripod, "edges": e}) for name, e in bad_edges.items()] + [
        ("cover/malformed/no-tree", (("check",),), {"schema": "lambda-forest/1", "members": []}),
        ("isom/malformed/no-tree", (("classify", "--word", "r"),),
         {"schema": "lambda-forest/1", "generators": {}})]


def preset_paths(line: list[str], inputs: str) -> list[str]:
    """line with each @name replaced by the path of that preset, or of that
    LINE_DOCS document or RAW_DOCS text, written once."""
    out = []
    for a in line:
        if "@" in a:
            head, name = a.split("@", 1)
            path = os.path.join(inputs, f"preset.{name}.json")
            if not os.path.exists(path):
                with open(path, "wb") as fh:
                    fh.write(RAW_DOCS[name] if name in RAW_DOCS else json.dumps(
                        LINE_DOCS[name] if name in LINE_DOCS else presets.emit(name)).encode())
            a = head + path
        out.append(a)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--seeds", required=True, type=int, nargs="+")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="golden_diff.") as tmp:
        base = os.path.join(tmp, "base")
        try:
            export(args.base, base)
        except subprocess.CalledProcessError as exc:
            print(f"golden_diff: cannot export {args.base!r}: "
                  f"{exc.stderr.decode(errors='replace').strip()}", file=sys.stderr)
            return 2
        sides = {"base": os.path.join(base, "src"), "tree": os.path.join(ROOT, "src")}
        inputs = os.path.join(tmp, "inputs")
        work = []
        for workload in joblib.WORKLOADS:
            batches = max(1, round(RUN_SECONDS / joblib.BATCH_SECONDS[workload]))
            for seed in args.seeds:
                where = os.path.join(inputs, f"{workload}-{seed}")  # job ids repeat across seeds
                os.makedirs(where)
                for b in range(batches):
                    for job in joblib.build(workload, seed, "full", b):
                        name = f"{workload}/{seed}/{job.id}"
                        work.append((name, job.kind, materialize(job, where)))
        # per document: name, and per run its op (none for validate-tree) and the
        # options after --input
        seeded = [(f"bt/spelled/{k}", bt_runs(word), doc)
                  for k, (word, doc) in enumerate(spelled_documents())]
        for seed in args.seeds:
            seeded += [(f"cover/{seed}/{k}", (("check",), ("skeleton",)), doc)
                       for k, doc in enumerate(cover_documents(seed))]
            seeded += [(f"glue/{seed}/{k}", ((op,),), doc)
                       for k, (op, doc) in enumerate(glue_documents(seed))]
            seeded += [(f"tree/{seed}/{k}", runs, doc)
                       for k, (runs, doc) in enumerate(tree_documents(seed))]
            seeded += [(f"validate-tree/{seed}/{k}", ((),), doc)
                       for k, doc in enumerate(validate_documents(seed))]
            seeded += [(f"bt/{seed}/{k}", bt_runs(word), doc)
                       for k, (word, doc) in enumerate(matrix_documents(seed))]
            seeded += [(f"gog/{seed}/{k}", (("structure",), ("acyl", "--radius", radius),
                                            ("betti",), ("principal",)), doc)
                       for k, (radius, doc) in enumerate(gog_documents(seed))]
        seeded += verdict_documents()
        seeded += malformed_documents()
        for seed in args.seeds:  # after every other run, which keeps its place
            seeded += [(f"bt/{seed}/deep/{k}", (("certify", "--ball", DEEP_BALL),), doc)
                       for k, doc in enumerate(deep_matrix_documents(seed))]
        for name, runs, doc in seeded:
            path = os.path.join(inputs, name.replace("/", "-") + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            command = name.split("/")[0]
            work += [(name, " ".join([command, *run[:1]]),
                      [command, *run[:1], "--input", path, *run[1:]]) for run in runs]
        lines = [(" ".join(line) or "(no arguments)", "command line", preset_paths(line, inputs))
                 for line in COMMAND_LINES]

        def compare(i: int, item: tuple):
            name, kind, job_argv = item
            # one report path for both sides; none for a command line
            report = os.path.join(tmp, f"report-{i}.json") if i < len(work) else None
            got = {side: run(src, job_argv, report) for side, src in sides.items()}
            differ = [f for f, a, b in zip(FIELDS, got["base"], got["tree"]) if a != b]
            return name, kind, differ, got

        with ThreadPoolExecutor(WORKERS) as pool:
            results = list(pool.map(compare, range(len(work) + len(lines)), work + lines))

    bad = [r for r in results if r[2]]
    for name, kind, differ, got in bad:
        print(f"DIFF {name} ({kind}): {', '.join(differ)} "
              f"(exit {got['base'][0]} -> {got['tree'][0]})")
    bad_lines = sum(kind == "command line" for _name, kind, _d, _g in bad)
    print(f"{len(work)} jobs and {len(lines)} command lines compared against {args.base}: "
          f"{len(bad) - bad_lines} jobs and {bad_lines} command lines differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
