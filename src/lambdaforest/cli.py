"""Batch command-line front end.

Exit codes: 0 all checks pass, 2 violation or counterexample, 3 inconclusive, 64
usage error, 65 malformed input (also any ValueError, KeyError or TypeError a
handler raises, and a document nested too deeply to read), 73 an output that
cannot be written (after the verdict is printed); a closed or full stderr
changes none of them.  With --json PATH the machine-readable report is written
there as deterministic (sorted, timestamp-free) JSON.

`main` reads a well-formed line by the grammar `_COMMANDS` and builds argparse's
parser (in `cli_usage`) only for --help, usage errors and spellings only
argparse reads.  A command's handler `cmd_x(args, doc)` lives in a module
imported for it alone (`cli_tree`, ...), which imports only what it runs; it
gets the --input document (None if none) and returns (status, body, text):
`_report` prints text, writes --json and maps status to the exit code.  A handler that refuses a line the
grammar lets through (exit 64), and `preset emit`, return an exit code.

`main()` with no argv reads the process's own command line and never returns: the
collector is off while the command runs, then the atexit callbacks run, stdout and
stderr are flushed and `os._exit` skips the interpreter's teardown.  Under a profiler
or tracer it returns the exit code.  `main(argv)` leaves the collector as it finds it.
"""

from __future__ import annotations

import atexit
import gc
import importlib
import os
import sys
from types import SimpleNamespace

SCHEMA = "lambda-forest/1"

EXIT_PASS = 0
EXIT_VIOLATION = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64
EXIT_MALFORMED = 65
EXIT_CANTCREAT = 73


class Malformed(Exception):
    pass


def _object(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):  # json.load alone would keep the last of two equal keys
        keys = [k for k, _ in pairs]
        raise Malformed(f"duplicate key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return obj


# Documents are read, digested and written by json's C accelerator alone: importing
# the json package compiles six regexes, 1-2 ms a process.  On 3.11 the C
# scanner's error path looks json.decoder up in sys.modules without importing it, so
# where json is not loaded a malformed text ends in SystemError; `_load` therefore
# hands every failed scan to json.loads, which raises json's own error.
try:
    import _json

    def _default(o):  # what json.dumps raises for a value it cannot write
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
    # the scanner json.JSONDecoder(object_pairs_hook=_object) makes (float reads NaN and
    # +-Infinity as json's table does), and the encoder json.dumps(sort_keys=True,
    # check_circular=False) makes: a loaded document holds no cycle
    _scan = _json.make_scanner(SimpleNamespace(
        strict=True, object_hook=None, object_pairs_hook=_object, parse_float=float,
        parse_int=int, parse_constant=float))
    _quote = _json.encode_basestring_ascii
    _encode = _json.make_encoder(None, _default, _quote, None, ": ", ", ", True, False, True)
except ImportError:  # no accelerator: json's Python scanner and encoder, as json falls back
    import json
    _quote = json.encoder.encode_basestring_ascii
    _scan = json.JSONDecoder(object_pairs_hook=_object).scan_once
    _encode = json.JSONEncoder(sort_keys=True, check_circular=False).iterencode


def _load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:  # the document and the whitespace around it, as json.loads reads them
            doc, end = _scan(text, len(text) - len(text.lstrip(" \t\n\r")))
        except Exception:  # SystemError too: see the codec
            end = None
        if end != len(text.rstrip(" \t\n\r")):  # a failure or trailing data: json words it
            doc = importlib.import_module("json").loads(text, object_pairs_hook=_object)
    except (OSError, ValueError, Malformed) as exc:  # ValueError: JSON, UTF-8, digit limit
        raise Malformed(f"{path}: {exc}")
    except RecursionError:
        raise Malformed(f"{path}: nested too deeply")
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
    try:  # built-in, as random's; hashlib loads OpenSSL (2 ms). A failed import is redone per call
        sha = importlib.import_module("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
    except ImportError:
        from hashlib import sha256 as sha
    return sha("".join(_encode(doc, 0)).encode()).hexdigest()[:16]


class JSONText(str):
    """A value already written in `_dumps`' layout: sorted keys, indent 2, from column 0."""


def _dumps(x, pad: str = "\n") -> str:
    """json.dumps(x, sort_keys=True, indent=2) in the same bytes, about twice as fast:
    with an indent json writes through its pure-Python encoder.  A JSONText is indented
    to its place: a JSON string holds no raw newline, so each newline in it is layout."""
    inner = pad + "  "
    if isinstance(x, dict) and x:
        items, ends = [_quote(k if isinstance(k, str) else "".join(_encode(k, 0)))
                       + ": " + (_quote(v) if v.__class__ is str else _dumps(v, inner))
                       for k, v in sorted(x.items())], "{}"
    elif isinstance(x, (list, tuple)) and x:
        items, ends = [_quote(v) if v.__class__ is str else _dumps(v, inner) for v in x], "[]"
    elif x.__class__ is JSONText:
        return x.replace("\n", pad)
    else:  # a scalar or an empty container
        return _quote(x) if isinstance(x, str) else "".join(_encode(x, 0))
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1]


def _report(args, digest, status: str, body: dict, text: str) -> int:
    print(text)
    if args.json is not None:
        command = f"{args.command} {args.op}" if _COMMANDS[args.command][1] else args.command
        body = {**body, "command": command, "status": status, "schema": SCHEMA,
                **({} if digest is None else {"input_digest": digest})}
        _write(args.json, _dumps(body))
    return {"pass": EXIT_PASS, "violation": EXIT_VIOLATION, "inconclusive": EXIT_INCONCLUSIVE}[status]


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:  # a failed write or close names no file: name it, as open does
        raise OSError(exc.errno, exc.strerror, path) from None


def _fail(code: int, line: str) -> int:
    """Write line to stderr as argparse writes usage: a None or unwritable stderr is passed over."""
    try:
        sys.stderr.write(line + "\n")
    except (AttributeError, OSError):  # AttributeError: stderr is None
        pass
    return code


def _nonnegative(text: str, least: int = 0, word: str = "nonnegative") -> int:
    n = int(text)
    if n < least:
        import argparse
        raise argparse.ArgumentTypeError(f"must be a {word} integer, got {n}")
    return n


def _positive(text: str) -> int:
    return _nonnegative(text, 1, "positive")


# command -> (family, ops, options in their --help order); an option maps its
# name to (converter, default, required).
_REQ, _OPT = (None, None, True), (None, None, False)
_IO = {"input": _REQ, "json": _OPT}  # the first options of every checker but `marked`
_COMMANDS = {
    "validate-tree": ("validate", (), _IO),
    "tree": ("tree", ("distance", "median", "project"), {**_IO, "x": _REQ, "y": _REQ, "z": _OPT}),
    "isom": ("isom", ("classify", "certify"),
             {**_IO, "word": _OPT, "base": _OPT, "ball": (_positive, 3, False)}),
    "bt": ("bt", ("valuation", "length", "certify"),
           {**_IO, "word": _OPT, "ball": (_positive, None, False)}),
    "glue": ("glue", ("point", "subtree", "dual", "check-free"), {**_IO, "a": _OPT, "b": _OPT}),
    "cover": ("cover", ("check", "skeleton"), _IO),
    "gog": ("gog", ("structure", "acyl", "betti", "principal"),
            {**_IO, "radius": (_positive, 5, False), "window": (_positive, 4, False)}),
    "marked": ("marked", ("ball", "compare", "profile"), {
        "input": _OPT, "a": _OPT, "b": _OPT, "radius": (_nonnegative, None, False), "json": _OPT}),
    "preset": ("preset", ("list", "emit"), {"name": _OPT, "out": _OPT, "json": _OPT}),
}


def _read(argv):
    """argparse's namespace for `command [op] (--name value)*` with full names, no
    value starting '-', good values and the required options; None otherwise."""
    command, *rest = argv or [None]
    if command not in _COMMANDS:
        return None
    family, ops, options = _COMMANDS[command]
    args = {"command": command, "family": family}
    if ops:
        if not rest or rest[0] not in ops:
            return None
        args["op"] = rest.pop(0)
    args.update((name, default) for name, (_c, default, _r) in options.items())
    for flag, value in zip(rest[::2], rest[1::2]):
        name = flag[2:]
        if flag[:2] != "--" or name not in options or value[:1] == "-":
            return None
        convert = options[name][0]
        try:
            args[name] = convert(value) if convert else value
        except Exception:  # int's ValueError, or an ArgumentTypeError: argparse words it
            return None
    if len(rest) % 2 or any(spec[2] and args[name] is None for name, spec in options.items()):
        return None
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    if argv is None:  # the process's own command line: one document, then exit
        gc.disable()
        code = main(sys.argv[1:])
        if sys.getprofile() or sys.gettrace():  # a profiler or debugger reads on after main
            return code
        atexit._run_exitfuncs()  # what exit runs before teardown: coverage's save, say
        for stream in filter(None, (sys.stdout, sys.stderr)):  # None if started closed
            try:
                stream.flush()
            except OSError as exc:  # what print left in the buffer; a full stderr changes no code
                if stream is sys.stdout:  # named as the report's below
                    code = _fail(EXIT_CANTCREAT, f"cannot write {stream.name!r}: {exc.strerror}")
        os._exit(code)  # teardown would free the heap object by object, module by module
    args = _read(argv) or importlib.import_module("lambdaforest.cli_usage").parse(argv)
    if isinstance(args, int):  # argparse wrote --help or a usage error
        return args
    module = importlib.import_module(f"lambdaforest.cli_{args.family}")
    handler = getattr(module, "cmd_" + args.command.replace("-", "_"))
    try:
        doc = _load(args.input) if getattr(args, "input", None) is not None else None
        digest = None if doc is None else _digest(doc)
        verdict = handler(args, doc)
        return verdict if isinstance(verdict, int) else _report(args, digest, *verdict)
    except (Malformed, ValueError, KeyError, TypeError) as exc:
        return _fail(EXIT_MALFORMED, f"malformed input: {exc}")
    except OSError as exc:  # stdout, the --json report, or preset emit's --out
        name = sys.stdout.name if exc.filename is None else exc.filename  # _write names its file
        return _fail(EXIT_CANTCREAT, f"cannot write {name!r}: {exc.strerror}")


if __name__ == "__main__":
    # the handler modules import lambdaforest.cli: under `python -m` that has
    # to be this module, or the Malformed they raise is not the one main catches
    sys.modules["lambdaforest.cli"] = sys.modules[__name__]
    sys.exit(main())
