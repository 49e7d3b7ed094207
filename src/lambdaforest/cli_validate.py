"""Handler of `validate-tree`.

Like every handler, it takes the --input document `cli.main` read and returns
(status, body, text) to `cli._report`.  It imports the library names it calls
when it runs, never at module level: a profiler that rebinds library
functions after this module is imported still sees every call.
"""


def cmd_validate_tree(args, doc):
    from .lambdatree import FiniteLambdaMetric, validate_tree_metric

    res = validate_tree_metric(FiniteLambdaMetric.from_json(doc))
    body = {"witness": [str(w) for w in res.witness], "kind": res.kind, "note": res.note}
    if res.ok:
        return "pass", body, "validate-tree: pass"
    return "violation", body, f"validate-tree: violation ({res.kind}) witness {res.witness}"
