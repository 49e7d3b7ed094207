"""Every preset, run through its target command with each top-level key
dropped and with each top-level value replaced by 7 and by [], ends in an
exit code and never in an exception out of `main`; so does every document of
the commands no preset serves (`isom`, `glue`, `cover`) with the key or item
at any nested path dropped or its value replaced."""

import json

import pytest

from conftest import DOCUMENTS
from lambdaforest import presets
from lambdaforest.cli import main

EXIT_CODES = {0, 2, 3, 64, 65}

# argv around the --input of each preset's target command
TARGETS = {
    "schottky-qt": ["bt", "certify"],
    "z2-diagonal": ["bt", "length", "--word", "uv'"],
    "unipotent-fail": ["bt", "certify"],
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


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_top_level_mutations_end_in_an_exit_code(tmp_path, capsys, name):
    argv = TARGETS[name]
    path = tmp_path / "doc.json"
    bad = []
    for label, doc in mutations(presets.emit(name)):
        path.write_text(json.dumps(doc))
        try:
            rc = main(argv[:2] + ["--input", str(path)] + argv[2:])
        except Exception as exc:  # an escaped exception is the fault this test looks for
            rc = f"{type(exc).__name__}: {exc}"
        if rc not in EXIT_CODES:
            bad.append((label, rc))
    capsys.readouterr()
    assert bad == []


# argv around the --input of each command no preset serves, with the smallest
# --ball: the fuzz tests parsing, not walking
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
    for path in paths(doc):
        for bad in (DROP, 7, [], {}, "x", None, True):
            copy = json.loads(json.dumps(doc))
            parent = copy
            for key in path[:-1]:
                parent = parent[key]
            if bad is DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = bad
            yield f"{'drop' if bad is DROP else repr(bad)} at {list(path)}", copy


def test_every_document_command_has_a_target():
    assert {doc for doc, _argv in DOCUMENT_TARGETS.values()} == set(DOCUMENTS)


@pytest.mark.parametrize("command", sorted(DOCUMENT_TARGETS))
def test_nested_mutations_end_in_an_exit_code(tmp_path, capsys, command):
    name, argv = DOCUMENT_TARGETS[command]
    path = tmp_path / "doc.json"
    bad = []
    for label, doc in nested_mutations(DOCUMENTS[name]):
        path.write_text(json.dumps(doc))
        try:
            rc = main(argv[:2] + ["--input", str(path)] + argv[2:])
        except Exception as exc:  # an escaped exception is the fault this test looks for
            rc = f"{type(exc).__name__}: {exc}"
        if rc not in EXIT_CODES:
            bad.append((label, rc))
    capsys.readouterr()
    assert bad == []
