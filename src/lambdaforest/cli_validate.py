"""Handler of `validate-tree`.

As in every handler module, the handler imports the library names it calls
when it runs, never at module level: a profiler that rebinds library
functions after this module is imported still sees every call.
"""

from .cli import _digest, _load, _report


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
