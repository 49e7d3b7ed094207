"""Handler of the `marked` commands: ball, compare and profile."""

from .cli import EXIT_USAGE, SCHEMA, Malformed, _fail, _load, _positive_field


def z_marked(n: int) -> dict:
    """Marked group (Z, (1, n)) over abstract letters a, b: member n of the
    z-marked family that `marked profile` runs."""
    return {
        "schema": SCHEMA,
        "kind": "marked-group",
        "group": {"kind": "free-abelian", "letters": ["g"]},
        "marking": ["g", "g" * n],
        "letters": ["a", "b"],
    }


def _usage(args):
    """The usage error of a line the grammar lets through, or None."""
    if args.op != "compare" and not args.input:
        return "marked ball/profile need --input"
    if args.op == "compare" and (args.input or not (args.a and args.b)):
        return "marked compare needs --a and --b, and takes no --input"
    if args.op == "profile" and args.radius is not None:
        return "marked profile takes no --radius: the document's r_max sets the radii"


def cmd_marked(args, doc):
    if usage := _usage(args):
        return _fail(EXIT_USAGE, usage)
    from .groups import word_str
    from .markedgroups import (
        convergence_profile,
        marked_group_from_json,
        profile_text,
        relations_up_to,
        same_ball,
    )

    radius = 3 if args.radius is None else args.radius
    if args.op == "ball":
        words = [word_str(w) for w in relations_up_to(marked_group_from_json(doc), radius).words]
        return "pass", {"radius": radius, "relations": words}, "\n".join(
            [f"{len(words)} relations at radius {radius}"] + [f"  {w}" for w in words])
    if args.op == "compare":
        da, db = _load(args.a), _load(args.b)
        eq, w = same_ball(marked_group_from_json(da), marked_group_from_json(db), radius)
        body = {"equal": eq, "witness": word_str(w) if w else None, "radius": radius}
        return ("pass" if eq else "violation", body,
                f"same ball at R = {radius}: {eq}" + (f", witness {word_str(w)}" if w else ""))
    # profile
    family_doc = doc.get("family", {})
    if not isinstance(family_doc, dict) or family_doc.get("kind") != "z-marked":
        raise Malformed("only the z-marked family is shipped")
    target = marked_group_from_json({"schema": SCHEMA, **doc["marked_target"]})

    def family(i: int):
        return marked_group_from_json(z_marked(i))

    r_max = _positive_field(doc, "r_max", 5)
    budget = _positive_field(doc, "index_budget", 8)
    table = convergence_profile(family, target, r_max, budget)
    return "pass", {"profile": [[R, i] for R, i in table]}, profile_text(table)
