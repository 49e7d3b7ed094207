"""Handler of the `glue` commands: point, subtree, dual and check-free."""

from .cli import JSONText, Malformed


def _tree_of(trees: dict, v, what: str):
    """The vertex tree that `what` names."""
    if v not in trees:
        raise Malformed(f"{what} names no vertex tree: {v!r}")
    return trees[v]


def _split(arg: str, flag: str) -> tuple[str, str]:
    v, slash, p = arg.partition("/")
    if not slash:
        raise Malformed(f"{flag} must be 'vertex/point', got {arg!r}")
    return v, p


def _graph_of_actions(doc: dict):
    from .gluing import GluedEdge, GraphOfActions, SegmentIso
    from .lambdatree import MetricTree, _parse_points

    if not isinstance(doc["vertex_trees"], dict):
        raise Malformed("vertex_trees must be an object of vertex -> tree")
    trees = {vid: MetricTree.from_json(td) for vid, td in doc["vertex_trees"].items()}
    edges = []
    for ed in doc["edges"]:
        src, dst = ed["from"], ed["to"]
        T1, T2 = _tree_of(trees, src, "edge 'from'"), _tree_of(trees, dst, "edge 'to'")
        e_from = tuple(_parse_points(T1, ed["ends_from"], "ends_from"))
        e_to = tuple(_parse_points(T2, ed["ends_to"], "ends_to"))
        edges.append(GluedEdge(src, dst, SegmentIso(T1, e_from, T2, e_to)))
    return trees, GraphOfActions(trees, edges)


def cmd_glue(args, doc):
    from .gluing import (
        DualPoint,
        SegmentIso,
        check_free_criterion,
        dual_distance,
        glue_point,
        glue_subtree,
    )
    from .lambdatree import MetricTree, _parse_point, _parse_points

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
        return ("pass", {"tree": JSONText(glued.json_text())},
                f"glued tree: {len(glued.vertices)} vertices")
    trees, G = _graph_of_actions(doc)
    if args.op == "dual":
        if not (args.a and args.b):
            raise Malformed("glue dual needs --a and --b as 'vertex/point'")
        (av, ap), (bv, bp) = _split(args.a, "--a"), _split(args.b, "--b")
        a = DualPoint(av, _parse_point(_tree_of(trees, av, "--a"), ap))
        b = DualPoint(bv, _parse_point(_tree_of(trees, bv, "--b"), bp))
        d = dual_distance(G, a, b)
        return "pass", {"distance": d.to_json()}, f"dual distance: {d!r}"
    # check-free
    attestations = doc.get("attestations", {})
    if not isinstance(attestations, dict):
        raise Malformed("attestations must be an object of vertex -> \"free\"")
    samples = []
    for sd in doc.get("samples", []):
        v, p = sd["vertex"], sd["point"]
        samples.append(DualPoint(v, _parse_point(_tree_of(trees, v, "sample 'vertex'"), p)))
    rep = check_free_criterion(G, attestations, samples)
    status = {"Pass": "pass", "Fail": "violation", "Inconclusive": "inconclusive"}[rep.verdict]
    return (status, {"verdict": rep.verdict, "detail": rep.detail},
            f"free criterion: {rep.verdict} ({rep.detail})")
