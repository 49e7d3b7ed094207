"""Handler of the `tree` commands: distance, median and project."""

from .cli import Malformed, _digest, _load, _report


def cmd_tree(args) -> int:
    from .lambdatree import (MetricTree, SubtreeSpec, _parse_point, distance, median,
                             project_to_closed_subtree)

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
