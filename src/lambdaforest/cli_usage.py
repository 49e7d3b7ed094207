"""The argparse parser of `cli._COMMANDS`: it words --help and every usage
error, so only those lines, and the spellings only argparse reads, import it."""

import argparse

from .cli import _COMMANDS


def build_parser():
    p = argparse.ArgumentParser(prog="lambdaforest")
    sub = p.add_subparsers(dest="command")
    for command, (family, ops, options) in _COMMANDS.items():
        sp = sub.add_parser(command)
        if ops:
            sp.add_argument("op", choices=ops)
        for name, (convert, default, required) in options.items():
            sp.add_argument("--" + name, type=convert, default=default, required=required)
        sp.set_defaults(family=family)
    return p
