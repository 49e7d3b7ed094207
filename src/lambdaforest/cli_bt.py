"""Handler of the `bt` commands: valuation, length and certify."""

from .cli import Malformed, _positive_field


def cmd_bt(args, doc):
    from .bruhat import INFINITY, MatrixLengthOracle, matrix_group_from_json
    from .groups import parse_word

    gens = matrix_group_from_json(doc)
    if args.op == "certify":
        from .bruhat import certify_free_bt

        ball = args.ball if args.ball is not None else _positive_field(doc, "ball", 3)
        cert = certify_free_bt(gens, ball)
        body = {"certificate": cert.to_json()}
        if cert.status == "free-on-ball":
            return "pass", body, (f"free on ball N = {ball} ({cert.words_checked} words, "
                                  f"min positive length {cert.min_positive_length!r})")
        return "violation", body, f"counterexample at N = {ball}: {cert.counterexample}"
    oracle = MatrixLengthOracle(gens)
    if not args.word:
        raise Malformed(f"bt {args.op} needs --word")
    w = parse_word(args.word)
    if args.op == "valuation":
        value = oracle.trace_valuation(w)
        out = "infinity" if value is INFINITY else value.to_json()
        return "pass", {"valuation": out}, f"v(Tr {args.word}) = {out}"
    value = oracle.length(w)
    return "pass", {"length": value.to_json()}, f"l({args.word}) = {value!r}"
