"""Batch command-line front end.

Exit codes: 0 all checks pass, 2 violation or counterexample, 3 inconclusive,
64 usage error, 65 malformed input (also any ValueError, KeyError or TypeError
a handler raises).  With --json PATH the machine-readable report is written
there as deterministic (sorted, timestamp-free) JSON.

The handlers of each command family live in their own module (`cli_trees`,
`cli_bt`, `cli_gog`, `cli_marked`), which `main` imports for the chosen
command only, and each handler imports the library modules it runs.  So a
process loads (and, without bytecode caches, compiles) only what its command
needs.
"""

from __future__ import annotations

import argparse
import importlib
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
    try:  # a built-in module, as random does: hashlib loads OpenSSL, about 2 ms a job
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def _report(args, status: str, body: dict) -> int:
    body = dict(body)
    body["status"] = status
    body["schema"] = SCHEMA
    if getattr(args, "json", None):
        text = json.dumps(body, sort_keys=True, indent=2)
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return {"pass": EXIT_PASS, "violation": EXIT_VIOLATION, "inconclusive": EXIT_INCONCLUSIVE}[status]


# subcommand handlers: `preset` here, every other family in its module ------------


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
    sp.set_defaults(family="trees")

    sp = sub.add_parser("tree")
    sp.add_argument("op", choices=["distance", "median", "project"])
    common(sp)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--z")
    sp.set_defaults(family="trees")

    sp = sub.add_parser("isom")
    sp.add_argument("op", choices=["classify", "certify"])
    common(sp)
    sp.add_argument("--word")
    sp.add_argument("--base")
    sp.add_argument("--ball", type=_positive, default=3)
    sp.set_defaults(family="trees")

    sp = sub.add_parser("bt")
    sp.add_argument("op", choices=["valuation", "length", "certify"])
    common(sp)
    sp.add_argument("--word")
    sp.add_argument("--ball", type=_positive)
    sp.set_defaults(family="bt")

    sp = sub.add_parser("glue")
    sp.add_argument("op", choices=["point", "subtree", "dual", "check-free"])
    common(sp)
    sp.add_argument("--a")
    sp.add_argument("--b")
    sp.set_defaults(family="trees")

    sp = sub.add_parser("cover")
    sp.add_argument("op", choices=["check", "skeleton"])
    common(sp)
    sp.set_defaults(family="trees")

    sp = sub.add_parser("gog")
    sp.add_argument("op", choices=["structure", "acyl", "betti", "principal"])
    common(sp)
    sp.add_argument("--radius", type=_positive, default=5)
    sp.add_argument("--window", type=_positive, default=4)
    sp.set_defaults(family="gog")

    sp = sub.add_parser("marked")
    sp.add_argument("op", choices=["ball", "compare", "profile"])
    sp.add_argument("--input")
    sp.add_argument("--a")
    sp.add_argument("--b")
    sp.add_argument("--radius", type=_nonnegative)  # ball and compare: 3 when absent
    sp.add_argument("--json")
    sp.set_defaults(family="marked")

    sp = sub.add_parser("preset")
    sp.add_argument("op", choices=["list", "emit"])
    sp.add_argument("--name")
    sp.add_argument("--out")
    sp.add_argument("--json")

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
    if args.command == "preset":
        handler = cmd_preset
    else:
        module = importlib.import_module(f"lambdaforest.cli_{args.family}")
        handler = getattr(module, "cmd_" + args.command.replace("-", "_"))
    try:
        return handler(args)
    except (Malformed, ValueError, KeyError, TypeError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    # the handler modules import lambdaforest.cli: under `python -m` that has
    # to be this module, or the Malformed they raise is not the one main catches
    sys.modules["lambdaforest.cli"] = sys.modules[__name__]
    sys.exit(main())
