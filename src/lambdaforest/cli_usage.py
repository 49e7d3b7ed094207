"""The argparse parser of `cli._COMMANDS`: it words --help and every usage
error, so only those lines, and the spellings only argparse reads, import it."""

import argparse
import sys

from .cli import _COMMANDS, EXIT_USAGE


class _Parser(argparse.ArgumentParser):
    def print_usage(self, file=None):
        """Usage goes to stderr, passed over when that is None: argparse's own
        writes a None file to stdout, and error() hands it sys.stderr."""
        self._print_message(self.format_usage(), file or sys.stderr)


def build_parser():
    p = _Parser(prog="lambdaforest")
    sub = p.add_subparsers(dest="command")
    for command, (family, ops, options) in _COMMANDS.items():
        sp = sub.add_parser(command)
        if ops:
            sp.add_argument("op", choices=ops)
        for name, (convert, default, required) in options.items():
            sp.add_argument("--" + name, type=convert, default=default, required=required)
        sp.set_defaults(family=family)
    return p


def parse(argv):
    """argparse's namespace for argv, or the exit code once argparse has written
    --help (0) or a usage error (64)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if not args.command:
        parser.print_usage()
        return EXIT_USAGE
    return args
