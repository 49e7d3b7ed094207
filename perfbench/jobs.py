"""Seeded job lists for the three workloads, each job with its known answer.

A job is one CLI invocation: its arguments, the JSON documents it reads and
what a correct run must show.  Arguments that start with "@" name one of the
job's documents; the runner turns them into paths.  Every --ball, --radius
and --window is passed explicitly and is positive.  Malformed input is out of
scope here (the fuzz test of ROADMAP item 5 covers it).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from reference import (
    ball_size,
    certificate_walk,
    chain_quotient,
    chain_tree_json,
    conj_diag,
    exponent_vector,
    f2_window,
    first_divergence,
    four_cycle_metric,
    free_reduce,
    graph_distance,
    abelian_relations,
    invert,
    is_proper_power_free,
    laurent_json,
    lex_add,
    lex_json,
    lex_repr,
    metric_json,
    metric_table,
    adjacency,
    path_chain,
    path_sums,
    random_tree,
    schottky_answer,
    shared_end_answer,
    sl2_inverse,
    stretched_pair_metric,
    torus_length,
    tree_json,
    tree_median,
    window_certify_free,
    word_str,
    z_profile,
)

SCHEMA = "lambda-forest/1"
WORKLOADS = ("bt-ball", "tree-geometry", "group-words")


@dataclass
class Job:
    id: str
    kind: str
    argv: list
    files: dict
    exit: int
    status: str
    fields: dict = field(default_factory=dict)  # dotted path -> value; "path#" -> length
    stdout: list = field(default_factory=list)  # lines the verdict must print


class Prefix(str):
    """An expected stdout entry that a printed line need only start with."""


def _doc(body: dict) -> dict:
    return {"schema": SCHEMA, **body}


# bt-ball ----------------------------------------------------------------------------


def _sl2(rng, ok, bound=4):
    """Random c in SL2(Z) with entries in [-bound, bound] satisfying ok(c)."""
    while True:
        a, b, c = (rng.randint(-bound, bound) for _ in range(3))
        if a == 0 or (1 + b * c) % a:
            continue
        m = ((a, b), (c, (1 + b * c) // a))
        if abs(m[1][1]) <= bound + 2 and ok(m):
            return m


def _one_zero(rng):
    while True:
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        flat = [x for row in m for x in row]
        if flat.count(0) == 1 and m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1:
            return m


def _units(p=None):
    return lambda m: all(x % p if p else x for row in m for x in row)


def _qt_entries(m, var="t"):
    return [[laurent_json(x, var) for x in row] for row in m]


def _bt_job(jid, kind, field_name, gens_json, ball, cert, rank, p=None):
    """A bt certify job whose certificate is `cert` (see certificate_walk)."""
    doc = _doc({"kind": "matrix-group", "field": field_name, "generators": gens_json})
    if p:
        doc["p"] = p
    fields = {
        "certificate.N": ball,
        "certificate.words_checked": cert["words_checked"],
        "certificate.relations": cert["relations"],
        "certificate.counterexample": cert["counterexample"],
        "certificate.min_positive_length": lex_json(cert["min_positive_length"])
        if cert["min_positive_length"] is not None else None,
    }
    if cert["counterexample"] is None:
        fields["certificate.status"] = "free-on-ball"
        fields["certificate.value_group_rank"] = rank
        line = (f"free on ball N = {ball} ({cert['words_checked']} words, "
                f"min positive length {lex_repr(cert['min_positive_length'])})")
        ex, st = 0, "pass"
    else:
        fields["certificate.status"] = "counterexample"
        line = f"counterexample at N = {ball}: {cert['counterexample']}"
        ex, st = 2, "violation"
    return Job(jid, kind, ["bt", "certify", "--input", "@in", "--ball", str(ball)],
               {"in": doc}, ex, st, fields, [line])


def _diag_qt(k):
    return _qt_entries((({k: 1}, {}), ({}, {-k: 1})))


def qt_schottky(rng, jid, ball):
    k = 1
    c = _sl2(rng, _units())
    gens = {"a": _diag_qt(k), "b": _qt_entries(conj_diag(c, k))}
    cert = {"words_checked": ball_size(2, ball), "relations": [],
            "counterexample": None, "min_positive_length": schottky_answer(c, k)}
    return _bt_job(jid, "qt-schottky", "Qt", gens, ball, cert, 1)


def qt_shared_end(rng, jid, ball, k):
    c = _one_zero(rng)
    a = (({k: 1}, {}), ({}, {-k: 1}))
    b = conj_diag(c, k)
    cert = shared_end_answer({"a": a, "b": b}, ball)
    if cert["counterexample"] is None:
        raise ValueError(f"shared-end pair {c} certified free")
    return _bt_job(jid, "qt-shared-end", "Qt", {"a": _qt_entries(a), "b": _qt_entries(b)},
                   ball, cert, 1)


def qst_torus(rng, jid, ball, k, conjugate):
    c = _sl2(rng, _units(), bound=2) if conjugate else ((1, 0), (0, 1))
    u = conj_diag(c, 1)
    v = conj_diag(c, k)
    gens = {"u": _qt_entries(u, "s"), "v": _qt_entries(v, "t")}
    cert = certificate_walk(
        ["u", "v"], ball,
        lambda w: not any(exponent_vector(w, ("u", "v"))),
        lambda w: torus_length(exponent_vector(w, ("u", "v")), k),
    )
    return _bt_job(jid, "qst-torus" + ("-conj" if conjugate else ""), "Qst", gens, ball, cert, 2)


def qp_schottky(rng, jid, ball, p):
    k = 1
    c = _sl2(rng, _units(p))
    a = ((Fraction(p**k), Fraction(0)), (Fraction(0), Fraction(1, p**k)))
    ci = sl2_inverse(c)

    def mul(x, y):
        return tuple(tuple(sum(x[i][j] * y[j][l] for j in range(2)) for l in range(2))
                     for i in range(2))

    b = mul(mul(c, a), ci)
    gens = {"a": [[str(x) for x in row] for row in a], "b": [[str(x) for x in row] for row in b]}
    cert = {"words_checked": ball_size(2, ball), "relations": [],
            "counterexample": None, "min_positive_length": schottky_answer(c, k, p)}
    return _bt_job(jid, "qp-schottky", "Qp", gens, ball, cert, 1, p)


# tree-geometry ---------------------------------------------------------------------------


def validate_pass(rng, jid, m, rank):
    verts, edges = random_tree(rng, 2 * m, rank)
    adj = adjacency(verts, edges)
    points = rng.sample(verts, m)
    doc = _doc({"kind": "metric", **metric_json(points, metric_table(adj, rank, points), rank)})
    return Job(jid, f"validate-pass-{m}-r{rank}", ["validate-tree", "--input", "@in"], {"in": doc},
               0, "pass", {"kind": "", "witness": []}, ["validate-tree: pass"])


def validate_violation(rng, jid, m, rank, kind):
    if kind == "four-point":
        labels, table, witness = four_cycle_metric(rng, m - 4, rank)
    else:
        labels, table, witness = stretched_pair_metric(rng, m, rank)
    doc = _doc({"kind": "metric", **metric_json(labels, table, rank)})
    return Job(jid, f"validate-{kind}-{m}-r{rank}", ["validate-tree", "--input", "@in"], {"in": doc},
               2, "violation", {"kind": kind, "witness": list(witness)},
               [f"validate-tree: violation ({kind}) witness {tuple(witness)!r}"])


def window_certify(rng, jid, radius, ball):
    doc = _doc({"kind": "action-window", **f2_window(radius)})
    argv = ["isom", "certify", "--input", "@in", "--base", "e", "--ball", str(ball)]
    if window_certify_free(ball, radius):
        words = ball_size(2, ball)
        return Job(jid, f"isom-certify-R{radius}", argv, {"in": doc}, 0, "pass",
                   {"certificate.status": "free-on-ball", "certificate.words_checked": words,
                    "certificate.relations": [], "certificate.min_positive_length": ["1"]},
                   [f"free on ball N = {ball} ({words} words)"])
    return Job(jid, f"isom-certify-R{radius}", argv, {"in": doc}, 3, "inconclusive",
               {}, [Prefix("inconclusive: oracle inconclusive on ")])


def _cyclic_word(rng, n):
    """Random cyclically reduced word of length n on a, b."""
    letters = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
    while True:
        w = tuple(rng.choice(letters) for _ in range(n))
        if len(free_reduce(w)) == n and (n == 1 or w[0] != (w[-1][0], -w[-1][1])):
            return w


def window_classify(rng, jid, radius, n):
    doc = _doc({"kind": "action-window", **f2_window(radius)})
    w = _cyclic_word(rng, n)
    argv = ["isom", "classify", "--input", "@in", "--base", "e", "--word", word_str(w)]
    # a cyclically reduced word of length n translates by n along its axis
    if window_certify_free(n, radius):
        return Job(jid, f"isom-classify-R{radius}", argv, {"in": doc}, 0, "pass",
                   {"class": "hyperbolic", "length": [str(n)]},
                   [f"hyperbolic, translation length ({n})"])
    return Job(jid, f"isom-classify-R{radius}", argv, {"in": doc}, 3, "inconclusive",
               {"class": "inconclusive"}, [Prefix("inconclusive: ")])


def tree_query(rng, jid, op, n, rank):
    verts, edges = random_tree(rng, n, rank)
    adj = adjacency(verts, edges)
    doc = _doc({"kind": "tree", **tree_json(verts, edges, rank)})
    x, y, z = rng.sample(verts, 3)
    if op == "distance":
        # x sits in the middle of one of its edges
        u, v, ln = next(e for e in edges if x in e[:2])
        other = v if u == x else u
        half = tuple(c / 2 for c in ln)
        du, _ = path_sums(adj, x, rank)
        dv, _ = path_sums(adj, other, rank)
        d = min(lex_add(half, du[y]), lex_add(half, dv[y]))
        xs = f"{x}:{other}:" + ",".join(str(c) for c in half)
        return Job(jid, "tree-distance", ["tree", "distance", "--input", "@in", "--x", xs,
                                          "--y", y], {"in": doc}, 0, "pass",
                   {"distance": lex_json(d)}, [f"distance: {lex_repr(d)}"])
    m = tree_median(adj, rank, x, y, z)
    key = "median" if op == "median" else "projection"
    # the projection of z to the segment [x, y] is the median of x, y, z
    return Job(jid, f"tree-{op}", ["tree", op, "--input", "@in", "--x", x, "--y", y, "--z", z],
               {"in": doc}, 0, "pass", {key: f"Vertex({m!r})"}, [f"{key}: Vertex({m!r})"])


def _chain_doc(trees, glues):
    vt = {f"V{i}": chain_tree_json(i, t) for i, t in enumerate(trees)}
    edges = [
        {"from": f"V{i}", "to": f"V{i + 1}", "ends_from": [f"v{i}_{a}", f"v{i}_{b}"],
         "ends_to": [f"v{i + 1}_0", f"v{i + 1}_{n}"]}
        for i, (a, b, n) in enumerate(glues)
    ]
    return vt, edges


def glue_job(rng, jid, op, n_trees, n_verts):
    trees, glues = path_chain(rng, n_trees, n_verts)
    vt, edges = _chain_doc(trees, glues)
    if op == "dual":
        last = n_trees - 1
        i, j = rng.randrange(n_verts), rng.randrange(n_verts)
        adj, find = chain_quotient(trees, glues)
        d = graph_distance(adj, find((0, i)), find((last, j)))
        doc = _doc({"vertex_trees": vt, "edges": edges})
        return Job(jid, "glue-dual", ["glue", "dual", "--input", "@in", "--a", f"V0/v0_{i}",
                                      "--b", f"V{last}/v{last}_{j}"], {"in": doc}, 0, "pass",
                   {"distance": [str(d)]}, [f"dual distance: ({d})"])
    if op == "check-free":
        samples = [{"vertex": f"V{i}", "point": f"v{i}_{rng.randrange(n_verts)}"}
                   for i in range(n_trees)]
        doc = _doc({"vertex_trees": vt, "edges": edges, "samples": samples,
                    "attestations": {f"V{i}": "free" for i in range(n_trees)}})
        # a chain has no parallel gluings, and each glue class is a path
        detail = "all sampled classes have finite diameter"
        return Job(jid, "glue-check-free", ["glue", "check-free", "--input", "@in"],
                   {"in": doc}, 0, "pass", {"verdict": "Pass", "detail": detail},
                   [f"free criterion: Pass ({detail})"])
    if op == "subtree":
        a, b, n = glues[0]
        doc = _doc({"tree1": vt["V0"], "tree2": vt["V1"], "ends1": [f"v0_{a}", f"v0_{b}"],
                    "ends2": ["v1_0", f"v1_{n}"]})
        count = 2 * n_verts - (n + 1)
        total = sum(trees[0]) + sum(trees[1]) - sum(trees[0][a:b])
    else:  # point: wedge every later tree onto V0
        atts = [{"tree": vt[f"V{i}"], "x": f"v0_{rng.randrange(n_verts)}",
                 "y": f"v{i}_{rng.randrange(n_verts)}"} for i in range(1, n_trees)]
        doc = _doc({"base": vt["V0"], "attachments": atts})
        count = n_verts + (n_trees - 1) * (n_verts - 1)
        total = sum(sum(t) for t in trees)
    return Job(jid, f"glue-{op}", ["glue", op, "--input", "@in"], {"in": doc}, 0, "pass",
               {"tree.vertices#": count, "tree.edges#": count - 1, "tree.edges+": total},
               [f"glued tree: {count} vertices"])


# group-words -------------------------------------------------------------------------------


def _nielsen_basis(rng, letters, moves):
    basis = [((l, 1),) for l in letters]
    for _ in range(moves):
        i, j = rng.sample(range(len(basis)), 2)
        e = rng.choice((1, -1))
        g = basis[j] if e == 1 else invert(basis[j])
        cand = free_reduce(basis[i] + g if rng.random() < 0.5 else g + basis[i])
        if 0 < len(cand) <= 4:
            basis[i] = cand
    return basis


def _abelian_images(rng, n, dim, injective):
    while True:
        imgs = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(n)]
        if any(not any(v) for v in imgs):
            continue
        det = imgs[0][0] * imgs[1][1] - imgs[0][1] * imgs[1][0] if n == 2 and dim == 2 else None
        if injective is None or (det != 0) == injective:
            return imgs


def _image_word(v, letters):
    return "".join((l if c > 0 else l + "'") * abs(c) for l, c in zip(letters, v))


def _marked_doc(group_kind, group_letters, marking, abstract):
    return _doc({"kind": "marked-group", "group": {"kind": group_kind, "letters": group_letters},
                 "marking": marking, "letters": abstract})


def marked_ball(rng, jid, abelian, n, radius):
    abstract = ["a", "b", "c"][:n]
    if abelian:
        imgs = _abelian_images(rng, n, 2, None)
        doc = _marked_doc("free-abelian", ["p", "q"], [_image_word(v, "pq") for v in imgs], abstract)
        rels = [word_str(w) for w in abelian_relations(abstract, imgs, radius)]
    else:
        basis = _nielsen_basis(rng, ["x", "y", "z"][:n], 2 * n)
        doc = _marked_doc("free", ["x", "y", "z"][:n], [word_str(w) for w in basis], abstract)
        rels = []  # a free basis satisfies no relation
    return Job(jid, "marked-ball-" + ("abelian" if abelian else "free"),
               ["marked", "ball", "--input", "@in", "--radius", str(radius)], {"in": doc},
               0, "pass", {"relations": rels, "radius": radius},
               [f"{len(rels)} relations at radius {radius}"])


def marked_compare(rng, jid, radius, equal):
    abstract = ["a", "b"]
    imgs1 = _abelian_images(rng, 2, 2, True)
    if equal:  # two injective markings of Z^2 share their relations
        imgs2 = _abelian_images(rng, 2, 2, True)
        dim2 = 2
    else:
        i = rng.randint(1, radius - 1)
        imgs2, dim2 = [(1,), (i,)], 1
    letters2 = ["p", "q"][:dim2]
    d1 = _marked_doc("free-abelian", ["p", "q"], [_image_word(v, "pq") for v in imgs1], abstract)
    d2 = _marked_doc("free-abelian", letters2, [_image_word(v, letters2) for v in imgs2], abstract)
    w = first_divergence(abstract, imgs1, imgs2, radius)
    eq = w is None
    line = f"same ball at R = {radius}: {eq}" + ("" if eq else f", witness {word_str(w)}")
    return Job(jid, "marked-compare-" + ("equal" if eq else "diverge"),
               ["marked", "compare", "--a", "@a", "--b", "@b", "--radius", str(radius)],
               {"a": d1, "b": d2}, 0 if eq else 2, "pass" if eq else "violation",
               {"equal": eq, "witness": None if eq else word_str(w), "radius": radius}, [line])


def marked_profile(jid, r_max, budget):
    doc = _doc({"kind": "marked-profile", "family": {"kind": "z-marked"},
                "index_budget": budget, "r_max": r_max,
                "marked_target": {"group": {"kind": "free-abelian", "letters": ["p", "q"]},
                                  "marking": ["p", "q"], "letters": ["a", "b"]}})
    table = z_profile(r_max, budget)
    lines = [f"{R:<3} {i if i is not None else 'inf'}" for R, i in table]
    return Job(jid, "marked-profile", ["marked", "profile", "--input", "@in"], {"in": doc},
               0, "pass", {"profile": table}, lines)


def _centralizer_gog(rng, preset, pos):
    """F = free on f letters, A = <n> + Z^k, one edge gluing w in F (no
    proper power) to n, ambient relators [w, z] for the extra letters."""
    if preset:
        f, k, w = 2, 1, (("x", 1), ("y", 1))
    else:
        f, k = 2 + pos // 4 % 2, 1 + pos // 8 % 2
        letters = [(l, e) for l in "xyw"[:f] for e in (1, -1)]
        while True:
            w = free_reduce(tuple(rng.choice(letters) for _ in range(rng.randint(2, 4))))
            if len(w) >= 2 and w[0] != (w[-1][0], -w[-1][1]) and not is_proper_power_free(
                    exponent_vector(w, "xyw"[:f])):
                break
    flet, extra = list("xyw"[:f]), list("zu"[:k])
    rel = [word_str(w) + z + word_str(invert(w)) + z + "'" for z in extra]
    doc = _doc({
        "kind": "graph-of-groups",
        "vertices": [
            {"id": "F", "type": "infinitesimal", "group": {"kind": "free", "letters": flet}},
            {"id": "A", "type": "abelian",
             "group": {"kind": "cyclic-by-sum", "n_letter": "n", "extra_letters": extra}},
        ],
        "edges": [{"u": "F", "v": "A", "image_u": word_str(w), "image_v": "n"}],
        "ambient": {"generators": flet + extra, "relators": rel},
        "max_abelian": [["A", k + 1]],
    })
    b1 = f + k  # commutator relators abelianize to zero
    betti = {"b1": b1, "b1_vertices": {"F": f, "A": 1 + k}, "b1_graph": 0,
             "lower_slack": 0, "abelian_slack": b1 - 1 - k}
    detail = f"abelian vertex 'A': A *_C (C + Z^{k}) with k = {k}"
    return doc, betti, (b1, b1, k, b1 - 1 - k), ("centralizer-extension", detail)


def _surface_gog(rng, preset, pos):
    """One closed-surface vertex, no edges: a1^2 ... ag^2 (b1 = g - 1) or
    [a1, b1] ... [ag, bg] (b1 = 2g)."""
    orientable = False if preset else pos // 4 % 2 == 0
    g = 3 if preset else 2 + pos // 4 % 3
    if orientable:
        letters = list("abcdefgh"[:2 * g])
        rel = "".join(x + y + x + "'" + y + "'" for x, y in zip(letters[::2], letters[1::2]))
        b1 = 2 * g
    else:
        letters = list("abcdefgh"[:g])
        rel = "".join(x + x for x in letters)
        b1 = g - 1
    doc = _doc({
        "kind": "graph-of-groups",
        "vertices": [{"id": "S", "type": "surface",
                      "group": {"kind": "surface-with-boundary", "letters": letters,
                                "boundaries": [], "closed_relator": rel}}],
        "edges": [],
        "ambient": {"generators": letters, "relators": [rel]},
        "max_abelian": [],
    })
    betti = {"b1": b1, "b1_vertices": {"S": b1}, "b1_graph": 0, "lower_slack": 0,
             "abelian_slack": b1 - 1}
    detail = "surface vertex 'S': split along an essential curve, edge group maximal abelian cyclic"
    return doc, betti, (b1, b1, 0, b1 - 1), ("essential-curve", detail)


def gog_job(rng, jid, op, surface, preset, pos):
    """A gog job on a preset-shaped (preset) or seeded document; `pos` fixes
    the sizes of a seeded one and the acyl radius and window."""
    doc, betti, (b1, lower, ab_sum, ab_slack), (case, detail) = (
        _surface_gog if surface else _centralizer_gog)(rng, preset, pos)
    argv = ["gog", op, "--input", "@in"]
    kind = f"gog-{op}-" + ("surface" if surface else "centralizer")
    if op == "structure":
        return Job(jid, kind, argv, {"in": doc}, 0, "pass",
                   {f"clauses.{c}.verdict": "Pass" for c in
                    ("graph", "incidence", "abelian", "abelian-pairs", "surface", "infinitesimal")},
                   [Prefix("graph: Pass (")])
    if op == "acyl":
        # the centralizer of w in F is <w>, so a reduced path of three edges
        # has trivial stabilizer; a graph without edges has no paths at all
        argv += ["--radius", str(3 + pos % 4), "--window", str(3 + pos // 4 % 2)]
        return Job(jid, kind, argv, {"in": doc}, 0, "pass", {"verdict": "Pass", "path": []},
                   ["acylindricity: Pass"])
    if op == "betti":
        ok = b1 >= 2
        return Job(jid, kind, argv, {"in": doc}, 0 if ok else 2, "pass" if ok else "violation",
                   betti, [f"b1 = {b1}; lower bound {lower} (slack 0); "
                           f"abelian sum {ab_sum} (slack {ab_slack})"])
    return Job(jid, kind, argv, {"in": doc}, 0, "pass", {"case": case, "detail": detail},
               [f"principal splitting: {case} ({detail})"])


# the mixes ---------------------------------------------------------------------------------

# One batch of each workload: (count in a full batch, count in a smoke batch,
# factory of (rng, job id, position, size)).  No record of real traffic
# exists, so every job kind the workload is defined by gets the same number of
# jobs in a batch: the four bt certify kinds, the five tree-geometry kinds
# (validator passes, validator violations, action windows, tree queries,
# gluings) and the seven group-words commands.  Every size (ball, radius,
# point count, rank, budget, gluing operation) is fixed by the job's
# position, counted across the batches of a run, so the seed moves only the
# inputs, never the mix or the sizes.  A run draws several batches;
# BATCH_SECONDS is the time of a full batch, calibrations and start-up probes
# included, at the reference speed of run.py (measured on a 2-vCPU x86_64 VM
# with Python 3.11).
BATCH_SECONDS = {"bt-ball": 10.0, "tree-geometry": 8.0, "group-words": 9.0}
TORI = ((6, 1, False), (6, 2, False), (4, 1, True))  # (ball, k, conjugated)
VIOLATIONS = (("triangle-inequality", 32, 3), ("four-point", 32, 2), ("four-point", 32, 3))
VALIDATE_PASS = ((30, 1), (28, 2), (26, 3))  # (points, rank)
# (command, radius, ball or word length): every outcome of both commands.
# Radius 4 is left out: building its window alone takes about 3.5 s, half a
# batch, so a 30-second run would hold too few other jobs to time steadily.
WINDOWS = (("certify", 3, 2), ("classify", 3, 3), ("certify", 3, 3), ("classify", 3, 2))
QUERIES = ("distance", "median", "project")
# (operation, trees, vertices per tree): chains big enough that building the
# glued trees, not start-up, takes most of a job, so that a cost moved into
# tree building shows on these jobs
GLUES = (("dual", 30, 300), ("check-free", 30, 300), ("subtree", 2, 1500), ("point", 20, 300))


def _window(r, j, n, s):
    if s == "smoke":
        return window_certify(r, j, 3, 1)
    op, radius, size = WINDOWS[n % len(WINDOWS)]
    return (window_certify if op == "certify" else window_classify)(r, j, radius, size)


def _gog(op):
    return lambda r, j, n, s: gog_job(r, j, op, n % 2 == 1, n % 4 < 2, n)


MIXES = {
    "bt-ball": [
        (3, 1, lambda r, j, n, s: qt_schottky(r, j, 6 if s == "full" else 3)),
        (3, 3, lambda r, j, n, s: qst_torus(r, j, TORI[n % 3][0] if s == "full" else 3,
                                            *TORI[n % 3][1:])),
        (3, 1, lambda r, j, n, s: qp_schottky(r, j, 8 if s == "full" else 3, (3, 5, 7)[n % 3])),
        (3, 1, lambda r, j, n, s: qt_shared_end(r, j, 6, 1 + n % 2)),
    ],
    "tree-geometry": [
        (3, 1, lambda r, j, n, s: validate_pass(r, j, *(VALIDATE_PASS[n % 3] if s == "full"
                                                        else (8, 1)))),
        (3, 1, lambda r, j, n, s: validate_violation(r, j, VIOLATIONS[n % 3][1] if s == "full"
                                                     else 8, VIOLATIONS[n % 3][2],
                                                     VIOLATIONS[n % 3][0])),
        (3, 1, _window),
        (3, 1, lambda r, j, n, s: tree_query(r, j, QUERIES[n % 3], 200 if s == "full" else 20,
                                             1 + (n + n // 3) % 3)),
        (3, 1, lambda r, j, n, s: glue_job(r, j, *GLUES[n % len(GLUES)])),
    ],
    "group-words": [
        (4, 1, lambda r, j, n, s: marked_ball(r, j, n % 4 < 2, 3 if n % 4 == 1 else 2,
                                              (5 if n % 4 == 1 else 7) if s == "full" else 2)),
        (4, 1, lambda r, j, n, s: marked_compare(r, j, 7 if s == "full" else 3, n % 2 == 0)),
        # budgets below and above r_max, so that some radii read "inf".  The
        # profile inputs hold no seeded part, and two budgets rather than four
        # give blocks of identical jobs for job_s.tail to fall in
        (4, 1, lambda r, j, n, s: marked_profile(j, *((8, 7 + 2 * (n % 2)) if s == "full"
                                                      else (3, 2)))),
        *[(4, 2, _gog(op)) for op in ("structure", "acyl", "betti", "principal")],
    ],
}


def build(workload: str, seed: int, size: str = "full", batch: int = 0) -> list[Job]:
    """One batch: fixed composition and sizes, inputs drawn from (seed,
    batch), in a seeded order."""
    rng = random.Random(f"{workload}/{seed}/{batch}")
    jobs = []
    for idx, (full, smoke, make) in enumerate(MIXES[workload]):
        count = full if size == "full" else smoke
        for n in range(count):
            jobs.append(make(rng, f"b{batch}-{idx:02d}-{n}", batch * count + n, size))
    rng.shuffle(jobs)
    return jobs
