"""Handler of the `preset` commands: list and emit."""

import sys

from .cli import EXIT_PASS, EXIT_USAGE, _dumps, _report


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
    text = _dumps(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_PASS
