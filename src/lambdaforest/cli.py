"""Batch command-line front end.

Exit codes: 0 all checks pass, 2 violation or counterexample, 3 inconclusive,
64 usage error, 65 malformed input (also any ValueError, KeyError or TypeError
a handler raises).  With --json PATH the machine-readable report is written
there as deterministic (sorted, timestamp-free) JSON.

Each handler imports the library modules it runs, so that a process loads
(and, without bytecode caches, compiles) only what its command needs.
"""

from __future__ import annotations

import argparse
import json
import sys

SCHEMA = "lambda-forest/1"

EXIT_PASS = 0
EXIT_VIOLATION = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64
EXIT_MALFORMED = 65


class Malformed(Exception):
    pass


def _load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise Malformed(f"{path}: {exc}")
    if not isinstance(doc, dict):
        raise Malformed(f"{path}: top level must be an object")
    if doc.get("schema") != SCHEMA:
        raise Malformed(f"{path}: missing or wrong schema field (want {SCHEMA!r})")
    return doc


def _positive_field(doc: dict, key: str, default: int) -> int:
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise Malformed(f"{key} must be a positive integer, got {value!r}")
    return value


def _digest(doc: dict) -> str:
    import hashlib

    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _parse_point(T, s: str):
    """A point of the MetricTree T: 'v' names a vertex; 'u:v:1/2' or
    'u:v:1/2,0' an edge-interior offset."""
    from .lambdatree import Vertex
    from .ordgroup import LexValue

    if ":" not in s:
        if s not in T.vertices:
            raise Malformed(f"unknown vertex {s!r}")
        return Vertex(s)
    parts = s.split(":")
    if len(parts) != 3:
        raise Malformed(f"bad point syntax {s!r}")
    u, v, off = parts
    try:
        val = LexValue(off.split(","))
    except ValueError as exc:
        raise Malformed(f"bad offset in {s!r}: {exc}")
    try:
        return T.point(u, v, val)
    except (KeyError, ValueError) as exc:
        raise Malformed(f"bad point {s!r}: {exc}")


def _report(args, status: str, body: dict) -> int:
    body = dict(body)
    body["status"] = status
    body["schema"] = SCHEMA
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(body, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return {"pass": EXIT_PASS, "violation": EXIT_VIOLATION, "inconclusive": EXIT_INCONCLUSIVE}[status]


# subcommand handlers -------------------------------------------------------------


def cmd_validate_tree(args) -> int:
    from .lambdatree import FiniteLambdaMetric, validate_tree_metric

    doc = _load(args.input)
    res = validate_tree_metric(FiniteLambdaMetric.from_json(doc))
    body = {
        "command": "validate-tree",
        "input_digest": _digest(doc),
        "witness": [str(w) for w in res.witness],
        "kind": res.kind,
        "note": res.note,
    }
    if res.ok:
        print("validate-tree: pass")
        return _report(args, "pass", body)
    print(f"validate-tree: violation ({res.kind}) witness {res.witness}")
    return _report(args, "violation", body)


def cmd_tree(args) -> int:
    from .lambdatree import MetricTree, SubtreeSpec, distance, median, project_to_closed_subtree

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


def _action_window(doc: dict):
    from .isometry import ActionWindow, PartialIsometry
    from .lambdatree import MetricTree

    T = MetricTree.from_json(doc["tree"])
    if not isinstance(doc["generators"], dict):
        raise Malformed("generators must be an object of label -> vertex map")
    gens = {}
    for label, table in doc["generators"].items():
        if not isinstance(table, dict):
            raise Malformed(f"generator {label!r} must map vertices to points")
        vmap = {v: _parse_point(T, img) for v, img in table.items()}
        gens[label] = PartialIsometry(T, vmap)
    return T, ActionWindow(T, gens)


def cmd_isom(args) -> int:
    from .groups import FreeGroupOracle, parse_word, word_str
    from .isometry import (
        CertificationAborted,
        Elliptic,
        Hyperbolic,
        Inconclusive,
        OutOfWindow,
        certify_free_on_ball,
        classify,
        window_length_oracle,
    )
    from .lambdatree import Vertex

    doc = _load(args.input)
    T, A = _action_window(doc)
    base = _parse_point(T, args.base) if args.base else Vertex(sorted(T.vertices)[0])
    body = {"command": f"isom {args.op}", "input_digest": _digest(doc)}
    if args.op == "classify":
        if not args.word:
            raise Malformed("classify needs --word")
        w = parse_word(args.word)
        cls = classify(A, w, base)
        if isinstance(cls, Hyperbolic):
            print(f"hyperbolic, translation length {cls.length!r}")
            body.update({"class": "hyperbolic", "length": cls.length.to_json()})
            return _report(args, "pass", body)
        if isinstance(cls, Elliptic):
            print(f"elliptic, fixed point {cls.fixed_point!r}")
            body.update({"class": "elliptic", "fixed_point": repr(cls.fixed_point)})
            return _report(args, "pass", body)
        reason = cls.reason if isinstance(cls, Inconclusive) else f"leaves window at {word_str(cls.prefix)}"
        print(f"inconclusive: {reason}")
        body.update({"class": "inconclusive", "reason": reason})
        return _report(args, "inconclusive", body)
    # certify
    oracle = FreeGroupOracle(tuple(sorted(A.labels)))
    try:
        cert = certify_free_on_ball(
            window_length_oracle(A, base), oracle.is_trivial, A.labels, args.ball
        )
    except CertificationAborted as exc:
        print(f"inconclusive: {exc}")
        body["reason"] = str(exc)
        return _report(args, "inconclusive", body)
    body["certificate"] = cert.to_json()
    if cert.status == "free-on-ball":
        print(f"free on ball N = {cert.ball_radius} ({cert.words_checked} words)")
        return _report(args, "pass", body)
    print(f"counterexample: {cert.counterexample}")
    return _report(args, "violation", body)


def cmd_bt(args) -> int:
    from .bruhat import INFINITY, MatrixLengthOracle, matrix_group_from_json
    from .groups import parse_word

    doc = _load(args.input)
    gens = matrix_group_from_json(doc)
    oracle = MatrixLengthOracle(gens)
    body = {"command": f"bt {args.op}", "input_digest": _digest(doc)}
    if args.op in ("valuation", "length"):
        if not args.word:
            raise Malformed(f"bt {args.op} needs --word")
        w = parse_word(args.word)
        value = oracle.trace_valuation(w) if args.op == "valuation" else oracle.length(w)
        if args.op == "valuation":
            out = "infinity" if value is INFINITY else value.to_json()
            print(f"v(Tr {args.word}) = {out}")
            body["valuation"] = out
        else:
            print(f"l({args.word}) = {value!r}")
            body["length"] = value.to_json()
        return _report(args, "pass", body)
    # certify
    from .bruhat import certify_free_bt
    from .isometry import CertificationAborted

    ball = args.ball if args.ball is not None else _positive_field(doc, "ball", 3)
    try:
        cert = certify_free_bt(gens, ball)
    except CertificationAborted as exc:
        print(f"inconclusive: {exc}")
        body["reason"] = str(exc)
        return _report(args, "inconclusive", body)
    body["certificate"] = cert.to_json()
    if cert.status == "free-on-ball":
        print(f"free on ball N = {ball} ({cert.words_checked} words, "
              f"min positive length {cert.min_positive_length!r})")
        return _report(args, "pass", body)
    print(f"counterexample at N = {ball}: {cert.counterexample}")
    return _report(args, "violation", body)


def _graph_of_actions(doc: dict):
    from .gluing import GluedEdge, GraphOfActions, SegmentIso
    from .lambdatree import MetricTree

    trees = {vid: MetricTree.from_json(td) for vid, td in doc["vertex_trees"].items()}
    edges = []
    for ed in doc["edges"]:
        src, dst = ed["from"], ed["to"]
        e_from = tuple(_parse_point(trees[src], s) for s in ed["ends_from"])
        e_to = tuple(_parse_point(trees[dst], s) for s in ed["ends_to"])
        phi = SegmentIso(trees[src], e_from, trees[dst], e_to)
        edges.append(GluedEdge(src, dst, phi, ed.get("label", "")))
    return trees, GraphOfActions(trees, edges)


def cmd_glue(args) -> int:
    from .gluing import (
        DualPoint,
        SegmentIso,
        check_free_criterion,
        dual_distance,
        glue_point,
        glue_subtree,
    )
    from .lambdatree import MetricTree

    doc = _load(args.input)
    body = {"command": f"glue {args.op}", "input_digest": _digest(doc)}
    if args.op == "point":
        Y = MetricTree.from_json(doc["base"])
        atts = []
        for ad in doc["attachments"]:
            atts.append((MetricTree.from_json(ad["tree"]), ad["x"], ad["y"]))
        glued, _bm, _ams = glue_point(Y, atts)
        body["tree"] = glued.to_json()
        print(f"glued tree: {len(glued.vertices)} vertices")
        return _report(args, "pass", body)
    if args.op == "subtree":
        T1 = MetricTree.from_json(doc["tree1"])
        T2 = MetricTree.from_json(doc["tree2"])
        e1 = tuple(_parse_point(T1, s) for s in doc["ends1"])
        e2 = tuple(_parse_point(T2, s) for s in doc["ends2"])
        glued, _m1, _m2 = glue_subtree(SegmentIso(T1, e1, T2, e2))
        body["tree"] = glued.to_json()
        print(f"glued tree: {len(glued.vertices)} vertices")
        return _report(args, "pass", body)
    trees, G = _graph_of_actions(doc)
    if args.op == "dual":
        if not (args.a and args.b):
            raise Malformed("glue dual needs --a and --b as 'vertex/point'")
        av, ap = args.a.split("/", 1)
        bv, bp = args.b.split("/", 1)
        a = DualPoint(av, _parse_point(trees[av], ap))
        b = DualPoint(bv, _parse_point(trees[bv], bp))
        d = dual_distance(G, a, b)
        print(f"dual distance: {d!r}")
        body["distance"] = d.to_json()
        return _report(args, "pass", body)
    # check-free
    attestations = doc.get("attestations", {})
    samples = []
    for sd in doc.get("samples", []):
        v, p = sd["vertex"], sd["point"]
        samples.append(DualPoint(v, _parse_point(trees[v], p)))
    rep = check_free_criterion(G, attestations, samples)
    body.update({"verdict": rep.verdict, "detail": rep.detail})
    print(f"free criterion: {rep.verdict} ({rep.detail})")
    status = {"Pass": "pass", "Fail": "violation", "Inconclusive": "inconclusive"}[rep.verdict]
    return _report(args, status, body)


def cmd_cover(args) -> int:
    from .gluing import TransverseCovering, skeleton, transverse_check
    from .lambdatree import MetricTree, SubtreeSpec

    doc = _load(args.input)
    T = MetricTree.from_json(doc["tree"])
    members = [
        SubtreeSpec.from_points(T, [_parse_point(T, s) for s in pts]) for pts in doc["members"]
    ]
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
                     "inconclusive_at": rep.inconclusive_at})
        print(f"acylindricity: {rep.verdict}" + (f", fixed by {rep.element}" if rep.element else ""))
        status = {"Pass": "pass", "Fail": "violation", "Inconclusive": "inconclusive"}[rep.verdict]
        return _report(args, status, body)
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
            from .presets import z_marked

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


def cmd_preset(args) -> int:
    from . import presets

    if args.op == "list":
        for n in presets.names():
            print(n)
        return _report(args, "pass", {"command": "preset list", "names": presets.names()})
    try:
        doc = presets.emit(args.name)
    except KeyError:
        print(f"unknown preset {args.name!r}", file=sys.stderr)
        return EXIT_USAGE
    text = json.dumps(doc, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_PASS


# argument parsing -----------------------------------------------------------------


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {n}")
    return n


def _nonnegative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lambdaforest")
    sub = p.add_subparsers(dest="command")

    def common(sp, input_required=True):
        if input_required:
            sp.add_argument("--input", required=True)
        sp.add_argument("--json")

    sp = sub.add_parser("validate-tree")
    common(sp)
    sp.set_defaults(func=cmd_validate_tree)

    sp = sub.add_parser("tree")
    sp.add_argument("op", choices=["distance", "median", "project"])
    common(sp)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--z")
    sp.set_defaults(func=cmd_tree)

    sp = sub.add_parser("isom")
    sp.add_argument("op", choices=["classify", "certify"])
    common(sp)
    sp.add_argument("--word")
    sp.add_argument("--base")
    sp.add_argument("--ball", type=_positive, default=3)
    sp.set_defaults(func=cmd_isom)

    sp = sub.add_parser("bt")
    sp.add_argument("op", choices=["valuation", "length", "certify"])
    common(sp)
    sp.add_argument("--word")
    sp.add_argument("--ball", type=_positive)
    sp.set_defaults(func=cmd_bt)

    sp = sub.add_parser("glue")
    sp.add_argument("op", choices=["point", "subtree", "dual", "check-free"])
    common(sp)
    sp.add_argument("--a")
    sp.add_argument("--b")
    sp.set_defaults(func=cmd_glue)

    sp = sub.add_parser("cover")
    sp.add_argument("op", choices=["check", "skeleton"])
    common(sp)
    sp.set_defaults(func=cmd_cover)

    sp = sub.add_parser("gog")
    sp.add_argument("op", choices=["structure", "acyl", "betti", "principal"])
    common(sp)
    sp.add_argument("--radius", type=_positive, default=5)
    sp.add_argument("--window", type=_positive, default=4)
    sp.set_defaults(func=cmd_gog)

    sp = sub.add_parser("marked")
    sp.add_argument("op", choices=["ball", "compare", "profile"])
    sp.add_argument("--input")
    sp.add_argument("--a")
    sp.add_argument("--b")
    sp.add_argument("--radius", type=_nonnegative)  # ball and compare: 3 when absent
    sp.add_argument("--json")
    sp.set_defaults(func=cmd_marked)

    sp = sub.add_parser("preset")
    sp.add_argument("op", choices=["list", "emit"])
    sp.add_argument("--name")
    sp.add_argument("--out")
    sp.add_argument("--json")
    sp.set_defaults(func=cmd_preset)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if args.command == "marked" and args.op in ("ball", "profile") and not args.input:
        print("marked ball/profile need --input", file=sys.stderr)
        return EXIT_USAGE
    if args.command == "marked" and args.op == "compare" and not (args.a and args.b):
        print("marked compare needs --a and --b", file=sys.stderr)
        return EXIT_USAGE
    if args.command == "marked" and args.op == "profile" and args.radius is not None:
        print("marked profile takes no --radius: the document's r_max sets the radii",
              file=sys.stderr)
        return EXIT_USAGE
    if args.command == "preset" and args.op == "emit" and not args.name:
        print("preset emit needs --name", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (Malformed, ValueError, KeyError, TypeError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
