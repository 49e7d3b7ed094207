"""Handler of the `cover` commands: check and skeleton."""


def cmd_cover(args, doc):
    from .cover import TransverseCovering, skeleton, transverse_check
    from .lambdatree import MetricTree, SubtreeSpec, _parse_points

    T = MetricTree.from_json(doc.get("tree"))
    members = [SubtreeSpec(T, _parse_points(T, pts, "a member"))
               for pts in doc["members"]]
    C = TransverseCovering(T, members)
    chk = transverse_check(C)
    if args.op == "check":
        if chk.ok:
            return "pass", {}, "transverse covering: ok"
        return ("violation", {"kind": chk.kind, "witness": [str(w) for w in chk.witness]},
                f"violation: {chk.kind} at {chk.witness}")
    if not chk.ok:
        return "violation", {"kind": chk.kind}, f"violation: not a transverse covering ({chk.kind})"
    sk = skeleton(C)
    body = {
        "members": len(sk.member_vertices),
        "points": len(sk.point_vertices),
        "edges": len(sk.edges),
        "connected": sk.connected,
        "acyclic": sk.acyclic,
        "terminal_members": sk.terminal_members,
    }
    text = (f"skeleton: {len(sk.member_vertices)} members, {len(sk.point_vertices)} points, "
            f"connected={sk.connected}, acyclic={sk.acyclic}")
    return "pass" if sk.connected and sk.acyclic else "violation", body, text
