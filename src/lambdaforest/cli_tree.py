"""Handler of the `tree` commands: distance, median and project (the median
of x, y and z is the projection of z onto [x, y])."""

from .cli import Malformed


def cmd_tree(args, doc):
    from .lambdatree import MetricTree, _parse_point, distance, median

    T = MetricTree.from_json(doc)
    x = _parse_point(T, args.x)
    y = _parse_point(T, args.y)
    if args.op == "distance":
        d = distance(T, x, y)
        return "pass", {"distance": d.to_json()}, f"distance: {d!r}"
    key, missing = (("median", "median needs --z") if args.op == "median"
                    else ("projection", "project needs --z (the point to project)"))
    if not args.z:
        raise Malformed(missing)
    m = median(T, x, y, _parse_point(T, args.z))
    return "pass", {key: repr(m)}, f"{key}: {m!r}"
