"""Handler of the `isom` commands: classify and certify."""

from .cli import Malformed


def _action_window(doc: dict):
    from .isometry import ActionWindow, PartialIsometry
    from .lambdatree import MetricTree, _named, _parse_point

    T = MetricTree.from_json(doc.get("tree"))
    if not isinstance(doc["generators"], dict):
        raise Malformed("generators must be an object of label -> vertex map")
    gens = {}
    for label, table in doc["generators"].items():
        if not isinstance(table, dict):
            raise Malformed(f"generator {label!r} must map vertices to points")
        vmap = {_named(T, v): _parse_point(T, w, f"the image of {v!r}") for v, w in table.items()}
        gens[label] = PartialIsometry(T, vmap)
    return T, ActionWindow(T, gens)


def cmd_isom(args, doc):
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
    from .lambdatree import Vertex, _id_key, _parse_point

    T, A = _action_window(doc)
    try:  # by default the least vertex, or where ids do not compare the first in _id_key order
        first = min(T.vertices) if args.base is None else None
    except TypeError:
        first = min(T.vertices, key=_id_key)
    base = Vertex(first) if args.base is None else _parse_point(T, args.base)
    if args.op == "classify":
        if not args.word:
            raise Malformed("classify needs --word")
        cls = classify(A, parse_word(args.word), base)
        if isinstance(cls, Hyperbolic):
            return ("pass", {"class": "hyperbolic", "length": cls.length.to_json()},
                    f"hyperbolic, translation length {cls.length!r}")
        if isinstance(cls, Elliptic):
            return ("pass", {"class": "elliptic", "fixed_point": repr(cls.fixed_point)},
                    f"elliptic, fixed point {cls.fixed_point!r}")
        reason = cls.reason if isinstance(cls, Inconclusive) else f"leaves window at {word_str(cls.prefix)}"
        return "inconclusive", {"class": "inconclusive", "reason": reason}, f"inconclusive: {reason}"
    # certify
    oracle = FreeGroupOracle(tuple(sorted(A.labels)))
    try:
        cert = certify_free_on_ball(
            window_length_oracle(A, base), oracle.is_trivial, A.labels, args.ball
        )
    except CertificationAborted as exc:
        return "inconclusive", {"reason": str(exc)}, f"inconclusive: {exc}"
    body = {"certificate": cert.to_json()}
    if cert.status == "free-on-ball":
        return "pass", body, f"free on ball N = {cert.ball_radius} ({cert.words_checked} words)"
    return "violation", body, f"counterexample: {cert.counterexample}"
