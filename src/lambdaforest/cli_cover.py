"""Handler of the `cover` commands: check and skeleton."""

from .cli import _digest, _load, _report


def cmd_cover(args) -> int:
    from .cover import TransverseCovering, skeleton, transverse_check
    from .lambdatree import MetricTree, SubtreeSpec, _parse_points

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
