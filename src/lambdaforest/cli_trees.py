"""Handlers of the tree commands: validate-tree, tree, isom, glue and cover.

As in every handler module, a handler imports the library names it calls
when it runs, never at module level: a profiler that rebinds library
functions after this module is imported still sees every call.
"""

from .cli import Malformed, _digest, _load, _report


def _parse_point(T, s: str):
    """A point of the MetricTree T: 'v' names a vertex; 'u:v:1/2' or
    'u:v:1/2,0' an edge-interior offset."""
    from .lambdatree import Vertex
    from .ordgroup import LexValue

    if ":" not in s:
        if s not in T.vertices:
            raise Malformed(f"unknown vertex {s!r}")
        return Vertex(s)
    parts = s.split(":")
    if len(parts) != 3:
        raise Malformed(f"bad point syntax {s!r}")
    u, v, off = parts
    try:
        val = LexValue(off.split(","))
    except ValueError as exc:
        raise Malformed(f"bad offset in {s!r}: {exc}")
    try:
        return T.point(u, v, val)
    except (KeyError, ValueError) as exc:
        raise Malformed(f"bad point {s!r}: {exc}")


def _parse_points(T, points, what: str) -> list:
    """The points a document lists under `what`.  A string is refused: read
    as the list, each of its characters would name a point."""
    if not isinstance(points, list):
        raise Malformed(f"{what} must be a list of points, got {points!r}")
    return [_parse_point(T, s) for s in points]


def cmd_validate_tree(args) -> int:
    from .lambdatree import FiniteLambdaMetric, validate_tree_metric

    doc = _load(args.input)
    res = validate_tree_metric(FiniteLambdaMetric.from_json(doc))
    body = {
        "command": "validate-tree",
        "input_digest": _digest(doc),
        "witness": [str(w) for w in res.witness],
        "kind": res.kind,
        "note": res.note,
    }
    if res.ok:
        print("validate-tree: pass")
        return _report(args, "pass", body)
    print(f"validate-tree: violation ({res.kind}) witness {res.witness}")
    return _report(args, "violation", body)


def cmd_tree(args) -> int:
    from .lambdatree import MetricTree, SubtreeSpec, distance, median, project_to_closed_subtree

    doc = _load(args.input)
    T = MetricTree.from_json(doc)
    x = _parse_point(T, args.x)
    y = _parse_point(T, args.y)
    body = {"command": f"tree {args.op}", "input_digest": _digest(doc)}
    if args.op == "distance":
        d = distance(T, x, y)
        print(f"distance: {d!r}")
        body["distance"] = d.to_json()
    elif args.op == "median":
        if not args.z:
            raise Malformed("median needs --z")
        z = _parse_point(T, args.z)
        m = median(T, x, y, z)
        print(f"median: {m!r}")
        body["median"] = repr(m)
    else:  # project
        spec = SubtreeSpec.from_points(T, [x, y])
        if not args.z:
            raise Malformed("project needs --z (the point to project)")
        z = _parse_point(T, args.z)
        p = project_to_closed_subtree(T, spec, z)
        print(f"projection: {p!r}")
        body["projection"] = repr(p)
    return _report(args, "pass", body)


def _action_window(doc: dict):
    from .isometry import ActionWindow, PartialIsometry
    from .lambdatree import MetricTree

    T = MetricTree.from_json(doc["tree"])
    if not isinstance(doc["generators"], dict):
        raise Malformed("generators must be an object of label -> vertex map")
    gens = {}
    for label, table in doc["generators"].items():
        if not isinstance(table, dict):
            raise Malformed(f"generator {label!r} must map vertices to points")
        vmap = {v: _parse_point(T, img) for v, img in table.items()}
        gens[label] = PartialIsometry(T, vmap)
    return T, ActionWindow(T, gens)


def cmd_isom(args) -> int:
    from .groups import FreeGroupOracle, parse_word, word_str
    from .isometry import (
        CertificationAborted,
        Elliptic,
        Hyperbolic,
        Inconclusive,
        OutOfWindow,
        certify_free_on_ball,
        classify,
        window_length_oracle,
    )
    from .lambdatree import Vertex

    doc = _load(args.input)
    T, A = _action_window(doc)
    base = _parse_point(T, args.base) if args.base else Vertex(sorted(T.vertices)[0])
    body = {"command": f"isom {args.op}", "input_digest": _digest(doc)}
    if args.op == "classify":
        if not args.word:
            raise Malformed("classify needs --word")
        w = parse_word(args.word)
        cls = classify(A, w, base)
        if isinstance(cls, Hyperbolic):
            print(f"hyperbolic, translation length {cls.length!r}")
            body.update({"class": "hyperbolic", "length": cls.length.to_json()})
            return _report(args, "pass", body)
        if isinstance(cls, Elliptic):
            print(f"elliptic, fixed point {cls.fixed_point!r}")
            body.update({"class": "elliptic", "fixed_point": repr(cls.fixed_point)})
            return _report(args, "pass", body)
        reason = cls.reason if isinstance(cls, Inconclusive) else f"leaves window at {word_str(cls.prefix)}"
        print(f"inconclusive: {reason}")
        body.update({"class": "inconclusive", "reason": reason})
        return _report(args, "inconclusive", body)
    # certify
    oracle = FreeGroupOracle(tuple(sorted(A.labels)))
    try:
        cert = certify_free_on_ball(
            window_length_oracle(A, base), oracle.is_trivial, A.labels, args.ball
        )
    except CertificationAborted as exc:
        print(f"inconclusive: {exc}")
        body["reason"] = str(exc)
        return _report(args, "inconclusive", body)
    body["certificate"] = cert.to_json()
    if cert.status == "free-on-ball":
        print(f"free on ball N = {cert.ball_radius} ({cert.words_checked} words)")
        return _report(args, "pass", body)
    print(f"counterexample: {cert.counterexample}")
    return _report(args, "violation", body)


def _graph_of_actions(doc: dict):
    from .gluing import GluedEdge, GraphOfActions, SegmentIso
    from .lambdatree import MetricTree

    if not isinstance(doc["vertex_trees"], dict):
        raise Malformed("vertex_trees must be an object of vertex -> tree")
    trees = {vid: MetricTree.from_json(td) for vid, td in doc["vertex_trees"].items()}
    edges = []
    for ed in doc["edges"]:
        src, dst = ed["from"], ed["to"]
        e_from = tuple(_parse_point(trees[src], s) for s in ed["ends_from"])
        e_to = tuple(_parse_point(trees[dst], s) for s in ed["ends_to"])
        phi = SegmentIso(trees[src], e_from, trees[dst], e_to)
        edges.append(GluedEdge(src, dst, phi))
    return trees, GraphOfActions(trees, edges)


def cmd_glue(args) -> int:
    from .gluing import (
        DualPoint,
        SegmentIso,
        check_free_criterion,
        dual_distance,
        glue_point,
        glue_subtree,
    )
    from .lambdatree import MetricTree

    doc = _load(args.input)
    body = {"command": f"glue {args.op}", "input_digest": _digest(doc)}
    if args.op == "point":
        Y = MetricTree.from_json(doc["base"])
        atts = [(MetricTree.from_json(ad["tree"]), ad["x"], ad["y"]) for ad in doc["attachments"]]
        glued = glue_point(Y, atts)[0]
    elif args.op == "subtree":
        T1 = MetricTree.from_json(doc["tree1"])
        T2 = MetricTree.from_json(doc["tree2"])
        e1 = _parse_points(T1, doc["ends1"], "ends1")
        e2 = _parse_points(T2, doc["ends2"], "ends2")
        glued = glue_subtree(SegmentIso(T1, tuple(e1), T2, tuple(e2)))[0]
    if args.op in ("point", "subtree"):  # both report the glued tree
        body["tree"] = glued.to_json()
        print(f"glued tree: {len(glued.vertices)} vertices")
        return _report(args, "pass", body)
    trees, G = _graph_of_actions(doc)
    if args.op == "dual":
        if not (args.a and args.b):
            raise Malformed("glue dual needs --a and --b as 'vertex/point'")
        av, ap = args.a.split("/", 1)
        bv, bp = args.b.split("/", 1)
        a = DualPoint(av, _parse_point(trees[av], ap))
        b = DualPoint(bv, _parse_point(trees[bv], bp))
        d = dual_distance(G, a, b)
        print(f"dual distance: {d!r}")
        body["distance"] = d.to_json()
        return _report(args, "pass", body)
    # check-free
    attestations = doc.get("attestations", {})
    if not isinstance(attestations, dict):
        raise Malformed("attestations must be an object of vertex -> \"free\"")
    samples = []
    for sd in doc.get("samples", []):
        v, p = sd["vertex"], sd["point"]
        samples.append(DualPoint(v, _parse_point(trees[v], p)))
    rep = check_free_criterion(G, attestations, samples)
    body.update({"verdict": rep.verdict, "detail": rep.detail})
    print(f"free criterion: {rep.verdict} ({rep.detail})")
    status = {"Pass": "pass", "Fail": "violation", "Inconclusive": "inconclusive"}[rep.verdict]
    return _report(args, status, body)


def cmd_cover(args) -> int:
    from .gluing import TransverseCovering, skeleton, transverse_check
    from .lambdatree import MetricTree, SubtreeSpec

    doc = _load(args.input)
    T = MetricTree.from_json(doc["tree"])
    members = [SubtreeSpec.from_points(T, _parse_points(T, pts, "a member"))
               for pts in doc["members"]]
    C = TransverseCovering(T, members)
    body = {"command": f"cover {args.op}", "input_digest": _digest(doc)}
    chk = transverse_check(C)
    if args.op == "check":
        if chk.ok:
            print("transverse covering: ok")
            return _report(args, "pass", body)
        body.update({"kind": chk.kind, "witness": [str(w) for w in chk.witness]})
        print(f"violation: {chk.kind} at {chk.witness}")
        return _report(args, "violation", body)
    if not chk.ok:
        body.update({"kind": chk.kind})
        print(f"violation: not a transverse covering ({chk.kind})")
        return _report(args, "violation", body)
    sk = skeleton(C)
    body.update(
        {
            "members": len(sk.member_vertices),
            "points": len(sk.point_vertices),
            "edges": len(sk.edges),
            "connected": sk.connected,
            "acyclic": sk.acyclic,
            "terminal_members": sk.terminal_members,
        }
    )
    print(
        f"skeleton: {len(sk.member_vertices)} members, {len(sk.point_vertices)} points, "
        f"connected={sk.connected}, acyclic={sk.acyclic}"
    )
    return _report(args, "pass" if sk.connected and sk.acyclic else "violation", body)
