"""Handler of the `isom` commands: classify and certify."""

from .cli import Malformed, _digest, _load, _report


def _action_window(doc: dict):
    from .isometry import ActionWindow, PartialIsometry
    from .lambdatree import MetricTree, _parse_point

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
        certify_free_on_ball,
        classify,
        window_length_oracle,
    )
    from .lambdatree import Vertex, _parse_point

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
