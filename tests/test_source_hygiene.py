"""Every name a library module imports at module level is used in that
module.  A name whose last caller was deleted shows up here, so a deletion
takes its imports with it.  And the rule that a record is frozen is written
once, in the `frozen` base, which every record derives from; so is the rule
that a value record compares and hashes by its fields, in `frozen.Value`."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lambdaforest"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_scanner_finds_unused_names():
    src = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Optional\n"
        "from .x import a, b as c\n"
        "def f(p: Optional[int]) -> None:\n"
        "    return sys.argv, a\n"
    )
    assert unused_imports(src) == ["os", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _functions(tree: ast.Module, prefix: str = ""):
    """(qualified name, node) of each function and class, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            yield from _functions(node, prefix + node.name + ".")


def test_only_the_frozen_base_sets_fields_past_setattr():
    setters, frozen = set(), []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, node in _functions(tree, path.stem + "."):
            if name.endswith("._frozen"):
                frozen.append(name)
            if name.endswith(".__setattr__") and name != "frozen.Frozen.__setattr__":
                setters.add(name)
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(t, ast.Name) and t.id == "__setattr__"
                    for stmt in node.body if isinstance(stmt, ast.Assign) for t in stmt.targets):
                setters.add(name + ".__setattr__ =")
            if isinstance(node, ast.FunctionDef) and any(
                    ast.unparse(call.func) == "object.__setattr__"
                    for call in ast.walk(node) if isinstance(call, ast.Call)):
                setters.add(name)
    assert frozen == []
    assert setters == {"frozen.Frozen.__init__", "ordgroup.LexValue.__init__",
                       "ordgroup.LexValue._of"}


def _plain_constructors(source: str, stem: str) -> list[str]:
    """Each class whose __init__ only stores its arguments: every statement is
    `self.<name> = ...` of a value that calls nothing.  Such a record declares
    its __slots__ on the frozen base instead.  A constructor that coerces its
    values (a call on the right) or checks them is not plain."""
    plain = []
    for name, node in _functions(ast.parse(source), stem + "."):
        if isinstance(node, ast.FunctionDef) and name.endswith(".__init__") and all(
                isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Attribute)
                and ast.unparse(stmt.targets[0].value) == "self"
                and not any(isinstance(n, ast.Call) for n in ast.walk(stmt.value))
                for stmt in node.body):
            plain.append(name)
    return plain


def test_scanner_finds_plain_constructors():
    src = (
        "class Plain:\n"
        "    def __init__(self, a, b=None):\n"
        "        self.a = a\n"
        "        self.b = [] if b is None else b\n"
        "class Checked:\n"
        "    def __init__(self, a):\n"
        "        self.a = a\n"
        "        if a < 0:\n"
        "            raise ValueError(a)\n"
        "class Coerced:\n"
        "    def __init__(self, a):\n"
        "        self.a = int(a)\n"
    )
    assert _plain_constructors(src, "m") == ["m.Plain.__init__"]


def test_no_class_is_a_plain_record_outside_the_frozen_base():
    plain = [name for path in MODULES
             for name in _plain_constructors(path.read_text(encoding="utf-8"), path.stem)]
    assert plain == []


# the classes outside the Value base that compare by their fields, each a
# mutable record that `bt certify` builds per product, where the base's field
# loop would cost time
OWN_EQUALITY = {
    "bruhat._Laurent.__eq__": "a polynomial: one per entry of each product; its term dict is unhashable",
    "bruhat.Mat2.__eq__": "a matrix: one per product, compared to any Mat2 subclass by its entries",
}


def test_only_the_value_base_defines_equality_and_hashing():
    """A method or a class-level assignment (`__hash__ = None`) counts."""
    defined = set()
    for path in MODULES:
        for name, node in _functions(ast.parse(path.read_text(encoding="utf-8")), path.stem + "."):
            defined.add(name)
            if isinstance(node, ast.ClassDef):
                defined.update(f"{name}.{t.id}" for stmt in node.body if isinstance(stmt, ast.Assign)
                               for t in stmt.targets if isinstance(t, ast.Name))
    assert {n for n in defined if n.endswith((".__eq__", ".__hash__"))} == \
        {"frozen.Value.__eq__", "frozen.Value.__hash__"} | OWN_EQUALITY.keys()
