"""Handler of the `marked` commands: ball, compare and profile."""

from .cli import SCHEMA, Malformed, _digest, _load, _positive_field, _report


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


def cmd_marked(args) -> int:
    from .groups import BudgetExceeded, word_str
    from .markedgroups import (
        convergence_profile,
        marked_group_from_json,
        profile_text,
        relations_up_to,
        same_ball,
    )

    body = {"command": f"marked {args.op}"}
    radius = 3 if args.radius is None else args.radius
    try:
        if args.op == "ball":
            doc = _load(args.input)
            M = marked_group_from_json(doc)
            ball = relations_up_to(M, radius)
            body.update({"input_digest": _digest(doc), "radius": radius,
                         "relations": [word_str(w) for w in ball.words]})
            print(f"{len(ball.words)} relations at radius {radius}")
            for w in ball.words:
                print(f"  {word_str(w)}")
            return _report(args, "pass", body)
        if args.op == "compare":
            da, db = _load(args.a), _load(args.b)
            Ma, Mb = marked_group_from_json(da), marked_group_from_json(db)
            eq, w = same_ball(Ma, Mb, radius)
            body.update({"equal": eq, "witness": word_str(w) if w else None,
                         "radius": radius})
            print(f"same ball at R = {radius}: {eq}" + (f", witness {word_str(w)}" if w else ""))
            return _report(args, "pass" if eq else "violation", body)
        # profile
        doc = _load(args.input)
        family_doc = doc.get("family", {})
        if not isinstance(family_doc, dict) or family_doc.get("kind") != "z-marked":
            raise Malformed("only the z-marked family is shipped")
        target = marked_group_from_json({"schema": SCHEMA, **doc["marked_target"]})

        def family(i: int):
            return marked_group_from_json(z_marked(i))

        r_max = _positive_field(doc, "r_max", 5)
        budget = _positive_field(doc, "index_budget", 8)
        table = convergence_profile(family, target, r_max, budget)
        body.update({"input_digest": _digest(doc),
                     "profile": [[R, i] for R, i in table]})
        print(profile_text(table))
        return _report(args, "pass", body)
    except BudgetExceeded as exc:
        raise Malformed(str(exc))
