"""Exact-arithmetic toolkit for group actions on trees with lexicographic
rational lengths: ordered-group arithmetic, finite tree metrics, isometry
classification, SL2 translation lengths over valued fields, gluing and
graphs of actions, graph-of-groups verification, and marked-group balls.

Importing the package loads no submodule.  Each command imports the modules
it runs, and the names below are resolved on first access.
"""

import importlib

__all__ = ["LexValue"]
__version__ = "0.1.0"

_SUBMODULES = frozenset({"bruhat", "cli", "conjugacy", "cover", "devissage", "gluing", "groups",
                         "isometry", "lambdatree", "markedgroups", "ordgroup", "presets"})


def __getattr__(name):
    if name in __all__:
        return getattr(importlib.import_module(".ordgroup", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
