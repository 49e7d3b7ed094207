"""Handler of the `gog` commands: structure, acyl, betti and principal."""

from .cli import _digest, _load, _report


def cmd_gog(args) -> int:
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

    doc = _load(args.input)
    G = GraphOfGroups.from_json(doc)
    body = {"command": f"gog {args.op}", "input_digest": _digest(doc)}
    if args.op == "structure":
        rep = check_structure(G)
        body["clauses"] = {k: {"verdict": c.verdict, "detail": c.detail} for k, c in rep.clauses.items()}
        body["remarks"] = rep.remarks
        for k, c in rep.clauses.items():
            print(f"{k}: {c.verdict} ({c.detail})")
        if not rep.ok:
            return _report(args, "violation", body)
        return _report(args, "pass" if rep.conclusive else "inconclusive", body)
    if args.op == "acyl":
        rep = check_acylindricity(G, radius=args.radius, window=args.window)
        body.update({"verdict": rep.verdict, "path": rep.path, "element": rep.element,
                     "inconclusive_at": []})
        print(f"acylindricity: {rep.verdict}" + (f", fixed by {rep.element}" if rep.element else ""))
        return _report(args, "pass" if rep.verdict == "Pass" else "violation", body)
    if args.op == "betti":
        ambient = FinitePresentation.from_json(doc["ambient"])
        decl = MaxAbelianDeclaration(tuple((t, r) for t, r in doc.get("max_abelian", [])))
        rep = check_betti_bounds(G, ambient, decl)
        body.update(
            {
                "b1": rep.b1_ambient,
                "b1_vertices": rep.b1_vertices,
                "b1_graph": rep.b1_graph,
                "lower_slack": rep.lower_slack,
                "abelian_slack": rep.abelian_slack,
            }
        )
        print(
            f"b1 = {rep.b1_ambient}; lower bound {rep.lower_bound} (slack {rep.lower_slack}); "
            f"abelian sum {rep.abelian_sum} (slack {rep.abelian_slack})"
        )
        return _report(args, "pass" if rep.ok else "violation", body)
    # principal
    try:
        case = principal_splitting_case(G)
    except DevissageError as exc:
        body["reason"] = str(exc)
        print(f"violation: {exc}")
        return _report(args, "violation", body)
    body.update({"case": case.case, "detail": case.detail})
    print(f"principal splitting: {case.case} ({case.detail})")
    return _report(args, "pass", body)
