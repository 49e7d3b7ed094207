"""Handler of the `preset` commands: list and emit."""

from .cli import EXIT_PASS, EXIT_USAGE, _dumps, _fail, _write


def cmd_preset(args, doc):
    """The verdict of `list`; `emit` writes a document and returns its exit code."""
    from . import presets

    if args.op == "list":
        return "pass", {"names": presets.names()}, "\n".join(presets.names())
    usage = ("preset emit needs --name" if args.name is None else
             "preset emit takes no --json: it writes a document" if args.json is not None else
             None if args.name in presets.names() else f"unknown preset {args.name!r}")
    if usage:
        return _fail(EXIT_USAGE, usage)
    text = _dumps(presets.emit(args.name))
    if args.out is not None:
        _write(args.out, text)
    else:
        print(text)
    return EXIT_PASS
