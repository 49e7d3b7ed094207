"""Handler of the `gog` commands: structure, acyl, betti and principal."""


def cmd_gog(args, doc):
    from .devissage import (
        DevissageError,
        GraphOfGroups,
        MaxAbelianDeclaration,
        check_acylindricity,
        check_betti_bounds,
        check_structure,
        principal_splitting_case,
    )
    from .groups import FinitePresentation

    G = GraphOfGroups.from_json(doc)
    if args.op == "structure":
        rep = check_structure(G)
        body = {"clauses": {k: {"verdict": c.verdict, "detail": c.detail}
                            for k, c in rep.clauses.items()},
                "remarks": rep.remarks}
        status = "violation" if not rep.ok else "pass" if rep.conclusive else "inconclusive"
        return status, body, "\n".join(f"{k}: {c.verdict} ({c.detail})"
                                        for k, c in rep.clauses.items())
    if args.op == "acyl":
        rep = check_acylindricity(G, radius=args.radius, window=args.window)
        body = {"verdict": rep.verdict, "path": rep.path, "element": rep.element}
        return ("pass" if rep.verdict == "Pass" else "violation", body,
                f"acylindricity: {rep.verdict}" + (f", fixed by {rep.element}" if rep.element else ""))
    if args.op == "betti":
        ambient = FinitePresentation.from_json(doc["ambient"])
        rep = check_betti_bounds(G, ambient, MaxAbelianDeclaration(doc.get("max_abelian", [])))
        body = {
            "b1": rep.b1_ambient,
            "b1_vertices": rep.b1_vertices,
            "b1_graph": rep.b1_graph,
            "lower_slack": rep.lower_slack,
            "abelian_slack": rep.abelian_slack,
        }
        return "pass" if rep.ok else "violation", body, (
            f"b1 = {rep.b1_ambient}; lower bound {rep.lower_bound} (slack {rep.lower_slack}); "
            f"abelian sum {rep.abelian_sum} (slack {rep.abelian_slack})"
        )
    # principal
    try:
        case = principal_splitting_case(G)
    except DevissageError as exc:
        return "violation", {"reason": str(exc)}, f"violation: {exc}"
    return ("pass", {"case": case.case, "detail": case.detail},
            f"principal splitting: {case.case} ({case.detail})")
