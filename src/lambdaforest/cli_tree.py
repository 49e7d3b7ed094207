"""Handler of the `tree` commands: distance, median and project."""

from .cli import Malformed


def cmd_tree(args, doc):
    from .lambdatree import (MetricTree, SubtreeSpec, _parse_point, distance, median,
                             project_to_closed_subtree)

    T = MetricTree.from_json(doc)
    x = _parse_point(T, args.x)
    y = _parse_point(T, args.y)
    if args.op == "distance":
        d = distance(T, x, y)
        return "pass", {"distance": d.to_json()}, f"distance: {d!r}"
    if args.op == "median":
        if not args.z:
            raise Malformed("median needs --z")
        m = median(T, x, y, _parse_point(T, args.z))
        return "pass", {"median": repr(m)}, f"median: {m!r}"
    spec = SubtreeSpec.from_points(T, [x, y])
    if not args.z:
        raise Malformed("project needs --z (the point to project)")
    p = project_to_closed_subtree(T, spec, _parse_point(T, args.z))
    return "pass", {"projection": repr(p)}, f"projection: {p!r}"
