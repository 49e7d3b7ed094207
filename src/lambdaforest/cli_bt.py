"""Handler of the `bt` commands: valuation, length and certify."""

from .cli import Malformed, _digest, _load, _positive_field, _report


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
