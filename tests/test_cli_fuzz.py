"""Every preset, run through its target command with each top-level key
dropped and with each top-level value replaced by 7 and by [], ends in an
exit code and never in an exception out of `main`; so does every preset and
every document of the commands no preset serves (`isom`, `glue`, `cover`)
with the key or item at any nested path dropped or its value replaced.  A
nested mutation that empties a nonempty list or object never passes (exit
0) unless ALLOW_EMPTY names that path with the reason an empty value is
well-formed there."""

import json
from fnmatch import fnmatchcase

import pytest

from conftest import DOCUMENTS
from lambdaforest import presets
from lambdaforest.cli import main

EXIT_CODES = {0, 2, 3, 64, 65}

# argv around the --input of each preset's target command, with the smallest
# --ball: the fuzz tests parsing, not walking
TARGETS = {
    "schottky-qt": ["bt", "certify", "--ball", "1"],
    "z2-diagonal": ["bt", "length", "--word", "uv'"],
    "unipotent-fail": ["bt", "certify", "--ball", "1"],
    "centralizer-extension-gog": ["gog", "structure"],
    "n3-surface-gog": ["gog", "structure"],
    "z-to-z2-sequence": ["marked", "profile"],
    "square-cycle": ["validate-tree"],
    "tripod": ["tree", "distance", "--x", "p", "--y", "q"],
}


def mutations(doc):
    for key in doc:
        yield f"drop {key}", {k: v for k, v in doc.items() if k != key}
        for bad in (7, []):
            yield f"{key} = {bad!r}", {**doc, key: bad}


def test_every_preset_has_a_target():
    assert sorted(TARGETS) == presets.names()


def run(path, argv, doc):
    path.write_text(json.dumps(doc))
    try:
        return main(argv[:2] + ["--input", str(path)] + argv[2:])
    except Exception as exc:  # an escaped exception is the fault these tests look for
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_top_level_mutations_end_in_an_exit_code(tmp_path, capsys, name):
    argv = TARGETS[name]
    bad = []
    for label, doc in mutations(presets.emit(name)):
        rc = run(tmp_path / "doc.json", argv, doc)
        if rc not in EXIT_CODES:
            bad.append((label, rc))
    capsys.readouterr()
    assert bad == []


# argv around the --input of each command no preset serves, with the smallest --ball
DOCUMENT_TARGETS = {
    "isom classify": ("f2-window", ["isom", "classify", "--base", "e", "--word", "a"]),
    "isom certify": ("f2-window", ["isom", "certify", "--ball", "1"]),
    "glue point": ("two-trees", ["glue", "point"]),
    "glue subtree": ("tree-pair", ["glue", "subtree"]),
    "glue dual": ("chain", ["glue", "dual", "--a", "A/a0", "--b", "B/b1"]),
    "glue check-free": ("chain", ["glue", "check-free"]),
    "cover check": ("tripod-cover", ["cover", "check"]),
    "cover skeleton": ("tripod-cover", ["cover", "skeleton"]),
}
DROP = object()

# (command, glob over the path joined by "/"): why an empty list or object
# there is well-formed, so that the command may still pass
ALLOW_EMPTY = {
    ("*", "*provenance"): "a record of where a document came from; no command reads it",
    ("gog structure", "ambient*"): "read only by gog betti",
    ("gog structure", "max_abelian*"): "read only by gog betti",
    ("glue dual", "attestations*"): "read only by glue check-free",
    ("glue dual", "samples*"): "read only by glue check-free",
    ("glue point", "attachments"): "a wedge with nothing attached is the base tree",
    ("*", "*/extra_letters"): "a cyclic-by-sum vertex with no extra summand is cyclic",
    ("bt *", "generators/*/*/*"): "a Q(t) or Q(s,t) coefficient map with no monomial is 0",
}


def paths(node, prefix=()):
    """The path of every key and list item below node, outermost first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def nested_mutations(doc):
    """(label, path, mutated copy, whether the mutation empties a nonempty
    list or object) for every path and replacement."""
    for path in paths(doc):
        for bad in (DROP, 7, [], {}, "x", None, True):
            copy = json.loads(json.dumps(doc))
            parent = copy
            for key in path[:-1]:
                parent = parent[key]
            old = parent[path[-1]]
            if bad is DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = bad
            emptied = isinstance(old, (list, dict)) and bool(old) and type(bad) is type(old)
            yield f"{'drop' if bad is DROP else repr(bad)} at {list(path)}", path, copy, emptied


def allowed_empty(command, path):
    where = "/".join(map(str, path))
    return any(fnmatchcase(command, c) and fnmatchcase(where, p) for c, p in ALLOW_EMPTY)


def fuzz_nested(tmp_path, argv, doc):
    """The nested mutations of doc that end in no exit code, or that empty a
    collection and still pass where ALLOW_EMPTY does not allow it."""
    command = " ".join(argv[:2])
    bad = []
    for label, path, copy, emptied in nested_mutations(doc):
        rc = run(tmp_path / "doc.json", argv, copy)
        if rc not in EXIT_CODES:
            bad.append((label, rc))
        elif emptied and rc == 0 and not allowed_empty(command, path):
            bad.append((label, "passed on an emptied collection"))
    return bad


def test_every_document_command_has_a_target():
    assert {doc for doc, _argv in DOCUMENT_TARGETS.values()} == set(DOCUMENTS)


@pytest.mark.parametrize("command", sorted(DOCUMENT_TARGETS))
def test_nested_mutations_end_in_an_exit_code(tmp_path, capsys, command):
    name, argv = DOCUMENT_TARGETS[command]
    bad = fuzz_nested(tmp_path, argv, DOCUMENTS[name])
    capsys.readouterr()
    assert bad == []


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_preset_nested_mutations_end_in_an_exit_code(tmp_path, capsys, name):
    bad = fuzz_nested(tmp_path, TARGETS[name], presets.emit(name))
    capsys.readouterr()
    assert bad == []
