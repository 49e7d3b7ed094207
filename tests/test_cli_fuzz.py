"""Every preset, run through its target commands (each `gog` preset through
all four `gog` ops) with each top-level key dropped and with each top-level
value replaced by 7 and by [], ends in an exit code and never in an
exception out of `main`; so does every preset and every document of the
commands no preset serves (`isom`, `glue`, `cover`, `marked ball` and
`marked compare`) under each nested mutation: the key or item at any path
dropped or its value replaced, a list item repeated in place, a name
replaced by a label the document does not define, a vector of rationals
made one coordinate too long, a list of one-character strings joined into
one string, and `rank` raised by one.  A mutation that empties a nonempty
list or object, repeats an item or names an unknown label never passes
(exit 0) unless ALLOW_EMPTY, ALLOW_REPEAT or ALLOW_UNKNOWN names that path
with the reason it is well-formed there; a wrong rank never passes, and a
joined list passes only where UNREAD names it.

Command lines drawn from `cli._COMMANDS` and bent the ways a user bends
one (unknown commands, ops and flags, repeated flags, a flag with no value,
values that start with '-', empty, 10,000 characters long or holding bytes
that are not UTF-8) end in a documented exit code, in process and, for a
few of them, as a process that prints no traceback."""

import json
import os
import random
import subprocess
import sys
from fnmatch import fnmatchcase

import pytest

from conftest import DOCUMENTS
from lambdaforest import presets
from lambdaforest.cli import _COMMANDS, main

EXIT_CODES = {0, 2, 3, 64, 65}

# argv around the --input of each preset's target commands, with the smallest
# --ball, --radius and --window: the fuzz tests parsing, not walking
GOG = [["gog", "structure"], ["gog", "acyl", "--radius", "1", "--window", "1"],
       ["gog", "betti"], ["gog", "principal"]]
TARGETS = {
    "schottky-qt": [["bt", "certify", "--ball", "1"]],
    "z2-diagonal": [["bt", "length", "--word", "uv'"]],
    "unipotent-fail": [["bt", "certify", "--ball", "1"]],
    "centralizer-extension-gog": GOG,
    "n3-surface-gog": GOG,
    "z-to-z2-sequence": [["marked", "profile"]],
    "square-cycle": [["validate-tree"]],
    "tripod": [["tree", "distance", "--x", "p", "--y", "q"]],
}


def mutations(doc):
    for key in doc:
        yield f"drop {key}", {k: v for k, v in doc.items() if k != key}
        for bad in (7, []):
            yield f"{key} = {bad!r}", {**doc, key: bad}


def test_every_preset_has_a_target():
    assert sorted(TARGETS) == presets.names()


def run(path, argv, doc=None):
    """main's exit code on argv with each "@" replaced by path, or with
    --input path if argv has no "@", after writing doc there."""
    if doc is not None:
        path.write_text(json.dumps(doc))
    if "@" in argv:
        argv = [str(path) if a == "@" else a for a in argv]
    else:
        argv = argv[:2] + ["--input", str(path)] + argv[2:]
    try:
        return main(argv)
    except Exception as exc:  # an escaped exception is the fault these tests look for
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_top_level_mutations_end_in_an_exit_code(tmp_path, capsys, name):
    bad = []
    for argv in TARGETS[name]:
        for label, doc in mutations(presets.emit(name)):
            rc = run(tmp_path / "doc.json", argv, doc)
            if rc not in EXIT_CODES:
                bad.append((argv[:2], label, rc))
    capsys.readouterr()
    assert bad == []


# argv around the --input of each command no preset serves (or with the document at
# each "@"), with the smallest --ball and --radius
DOCUMENT_TARGETS = {
    "isom classify": ("f2-window", ["isom", "classify", "--base", "e", "--word", "a"]),
    "isom certify": ("f2-window", ["isom", "certify", "--ball", "1"]),
    "glue point": ("two-trees", ["glue", "point"]),
    "glue subtree": ("tree-pair", ["glue", "subtree"]),
    "glue dual": ("chain", ["glue", "dual", "--a", "A/a0", "--b", "B/b1"]),
    "glue check-free": ("chain", ["glue", "check-free"]),
    "cover check": ("tripod-cover", ["cover", "check"]),
    "cover skeleton": ("tripod-cover", ["cover", "skeleton"]),
    "marked ball": ("z2-marking", ["marked", "ball", "--radius", "1"]),
    "marked compare": ("z2-marking", ["marked", "compare", "--a", "@", "--b", "@",
                                      "--radius", "1"]),
}
DROP = object()

# (command, glob over the path joined by "/"): why a mutation there may pass.
# UNREAD names what a command never reads, and joins each list below.
UNREAD = {
    ("*", "*provenance"): "a record of where a document came from; no command reads it",
    ("gog [!b]*", "ambient*"): "read only by gog betti",
    ("gog [!b]*", "max_abelian*"): "read only by gog betti",
    ("glue dual", "attestations*"): "read only by glue check-free",
    ("glue dual", "samples*"): "read only by glue check-free",
    ("cover *", "tree/kind"): "cover reads a tree's rank, vertices and edges",
    ("cover *", "tree/target"): "cover reads a tree's rank, vertices and edges",
}
# why an empty list or object there is well-formed
ALLOW_EMPTY = {
    **UNREAD,
    ("glue point", "attachments"): "a wedge with nothing attached is the base tree",
    ("*", "*/extra_letters"): "a cyclic-by-sum vertex with no extra summand is cyclic",
    ("bt *", "generators/*/*/*"): "a Q(t) or Q(s,t) coefficient map with no monomial is 0",
    ("gog acyl", "edges"): "with no edge no tree path is fixed; gog structure judges connectedness",
    ("gog betti", "ambient/relators"): "a presentation with no relator presents a free group",
    ("gog betti", "max_abelian"): "declaring no maximal abelian subgroup makes the sum 0",
}
# why a list item given twice is well-formed
ALLOW_REPEAT = {
    **UNREAD,
    ("gog *", "edges/?"): "parallel edges are a graph of groups; acyl fails two with one image",
    ("gog betti", "ambient/relators/?"): "a relator given twice presents the same group",
    ("gog betti", "max_abelian/?"): "a repeated entry only raises the abelian sum it bounds",
    ("glue *", "edges/?"): "an edge given twice glues the same ends by the same map again",
    ("glue point", "attachments/?"): "a tree attached twice at one point is a wedge of both",
    ("glue check-free", "samples/?"): "a point sampled twice is checked twice",
    ("cover *", "members/*"): "a point given twice spans the same member, and equal members "
                               "collapse to one skeleton vertex",
}
# why a label no document defines is well-formed there
ALLOW_UNKNOWN = {
    **UNREAD,
    ("gog *", "vertices/?/id"): "a vertex no edge names may have any id",
    ("gog betti", "max_abelian/?/0"): "a tag names a vertex or a subgroup: any string is one",
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


# a label no document defines
UNKNOWN = "Q9"


def labels(node):
    """The strings node defines as names: its keys, its ids and the string
    items of its lists (vertices, letters, generators, labels)."""
    found = set()
    for path in paths(node):
        parent = node
        for key in path[:-1]:
            parent = parent[key]
        value = parent[path[-1]]
        if isinstance(path[-1], str):
            found.add(path[-1])
        if isinstance(value, str) and (isinstance(path[-1], int) or path[-1] == "id"):
            found.add(value)
    return found


def replacements(old, names):
    """(label, new value, rule) for each mutation of a value; a mutation
    under a rule must not pass unless that rule's allowlist names its path."""
    for bad in (DROP, 7, [], {}, "x", None, True):
        emptied = isinstance(old, (list, dict)) and bool(old) and type(bad) is type(old)
        yield "drop" if bad is DROP else repr(bad), bad, ALLOW_EMPTY if emptied else None
    if isinstance(old, str) and old in names:
        yield "unknown label", UNKNOWN, ALLOW_UNKNOWN
    if isinstance(old, list) and old and all(isinstance(c, str) for c in old) \
            and all(c.lstrip("-").replace("/", "").isdigit() for c in old):
        yield "wrong rank", old + ["0"], {}  # a vector of rationals one too long
    if isinstance(old, list) and old and all(isinstance(c, str) and len(c) == 1 for c in old):
        yield "joined", "".join(old), UNREAD  # read as a list, a string is its characters


def nested_mutations(doc):
    """(label, path, mutated copy, rule) for every path and replacement, and
    for every list item repeated in place."""
    names = labels(doc)
    for path in paths(doc):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        if path[-1] == "rank" and type(old) is int:
            yield f"rank {old + 1} at {list(path)}", path, rebuilt(doc, path, old + 1), {}
        for label, bad, rule in replacements(old, names):
            yield f"{label} at {list(path)}", path, rebuilt(doc, path, bad), rule
        if isinstance(path[-1], int):
            copy = rebuilt(doc, path[:-1], parent[:path[-1] + 1] + parent[path[-1]:])
            yield f"repeat at {list(path)}", path, copy, ALLOW_REPEAT


def rebuilt(doc, path, value):
    """A copy of doc with the value at path replaced, or dropped for DROP."""
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return copy


def allowed(rule, command, path):
    where = "/".join(map(str, path))
    return any(fnmatchcase(command, c) and fnmatchcase(where, p) for c, p in rule)


def fuzz_nested(tmp_path, argvs, doc):
    """The nested mutations of doc that end in no exit code under one of
    argvs, or that pass under a rule whose allowlist does not name their path."""
    bad = []
    for label, path, copy, rule in nested_mutations(doc):
        (tmp_path / "doc.json").write_text(json.dumps(copy))
        for argv in argvs:
            command = " ".join(argv[:2])
            rc = run(tmp_path / "doc.json", argv)
            if rc not in EXIT_CODES:
                bad.append((command, label, rc))
            elif rule is not None and rc == 0 and not allowed(rule, command, path):
                bad.append((command, label, "passed"))
    return bad


def test_every_document_command_has_a_target():
    assert {doc for doc, _argv in DOCUMENT_TARGETS.values()} == set(DOCUMENTS)


@pytest.mark.parametrize("command", sorted(DOCUMENT_TARGETS))
def test_nested_mutations_end_in_an_exit_code(tmp_path, capsys, command):
    name, argv = DOCUMENT_TARGETS[command]
    bad = fuzz_nested(tmp_path, [argv], DOCUMENTS[name])
    capsys.readouterr()
    assert bad == []


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_preset_nested_mutations_end_in_an_exit_code(tmp_path, capsys, name):
    bad = fuzz_nested(tmp_path, TARGETS[name], presets.emit(name))
    capsys.readouterr()
    assert bad == []


# drawn command lines ------------------------------------------------------------------

LINES = 1200  # about 1 s in process
LINE_EXIT_CODES = EXIT_CODES | {73}
NOT_UTF8 = os.fsdecode(b"p\xff\xfe")  # how Python hands a program bytes that are not UTF-8
LONG = "ab'\u00e9/x -" * 1250  # 10,000 characters
ODD = ["", "-1", "-x", "--json", NOT_UTF8, LONG]  # values any option may be given
UNKNOWN = ["frobnicate", "Tree", "-x", "--nope", "--input=x", "---input", "--", "-", NOT_UTF8]
TEXT = {"word": ["a", "ab'", "a'b'ab", "uv", "uvu'v'", "u'", "aa'", "'", "r", "g"],
        "base": ["e", "a", "A", "p", "nope"], "x": ["p", "q", "o", "a0"], "y": ["q", "r", "p"],
        "z": ["r", "o", "q"], "name": presets.names() + ["nope"],
        "a": ["A/a0", "A/a2", "B/b1", "A/zz", "a0", "/"], "b": ["B/b1", "B/b0", "A/a1", "B"]}
SMALL = ["0", "1", "2", "3", "03", " 2", "+1", "\u0663", "1.0", "x", "-1"]  # at most 3
ENTRY = "import sys; from lambdaforest.cli import main; sys.exit(main())"


def fitting_documents():
    """command -> the documents the fuzz targets above run it on"""
    fits = {}
    for name, argvs in [*TARGETS.items(), *((n, [a]) for n, a in DOCUMENT_TARGETS.values())]:
        for argv in argvs:
            fits.setdefault(argv[0], set()).add(name)
    return {command: sorted(names) for command, names in fits.items()}


FITS = fitting_documents()


def drawn_value(rng, command, name, paths):
    if rng.random() < 0.15:
        return rng.choice(ODD)
    if name == "input" or (command == "marked" and name in "ab"):
        fits = FITS.get(command, [])
        return paths[rng.choice(fits) if fits and rng.random() < 0.7 else rng.choice(list(paths))]
    if name in ("json", "out"):
        return rng.choice([paths["report"], paths["missing-dir"], paths["directory"], ""])
    if name in ("ball", "radius", "window"):
        return rng.choice(SMALL)
    return rng.choice(TEXT[name])


def drawn_line(rng, paths):
    """A command line of _COMMANDS' grammar, bent at random."""
    command = rng.choice(list(_COMMANDS)) if rng.random() < 0.9 else rng.choice(UNKNOWN)
    _family, ops, options = _COMMANDS.get(command, (None, (), {}))
    line = [command]
    if ops:
        roll = rng.random()
        line += [rng.choice(ops)] if roll < 0.85 else [rng.choice(UNKNOWN)] if roll < 0.95 else []
    pairs = [[f"--{name}", drawn_value(rng, command, name, paths)]
             for name, (_c, _d, required) in options.items()
             if rng.random() < (0.9 if required else 0.35)]
    if pairs and rng.random() < 0.2:  # a flag given twice
        pairs.append([pairs[-1][0], drawn_value(rng, command, pairs[-1][0][2:], paths)])
    if rng.random() < 0.2:
        pairs.append([rng.choice(UNKNOWN), rng.choice(ODD)])
    rng.shuffle(pairs)
    line += [token for pair in pairs for token in pair]
    if len(line) > 1 and rng.random() < 0.15:  # a flag left with no value, or a value with no flag
        del line[rng.randrange(1, len(line))]
    return line


@pytest.fixture
def drawn_lines(tmp_path, monkeypatch):
    """LINES drawn lines, run in tmp_path, which holds every path they name
    (each document, a report, a directory) and every relative path an odd
    value names."""
    monkeypatch.chdir(tmp_path)
    paths = {"report": str(tmp_path / "report.json"),
             "missing-dir": str(tmp_path / "missing-dir" / "x.json"),
             "directory": str(tmp_path), "not-utf8": str(tmp_path / NOT_UTF8), "empty": ""}
    for name, doc in [*((n, presets.emit(n)) for n in presets.names()), *DOCUMENTS.items()]:
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    rng = random.Random(31)
    return [drawn_line(rng, paths) for _ in range(LINES)]


def test_drawn_command_lines_end_in_an_exit_code(drawn_lines, capfd):
    bad, seen = [], set()
    for line in drawn_lines:
        try:
            rc = main(line)
        except (Exception, SystemExit) as exc:  # main returns its codes
            rc = f"{type(exc).__name__}: {exc}"
        seen.add(rc)
        if rc not in LINE_EXIT_CODES or rc == 73 and not {"--json", "--out"} & set(line):
            bad.append((line, rc))  # 73 is an output that cannot be written
        capfd.readouterr()
    assert [(line[:3], rc) for line, rc in bad] == []
    assert seen == LINE_EXIT_CODES  # the draw reaches every outcome


def test_drawn_command_lines_print_no_traceback(drawn_lines, tmp_path, capfd):
    """Bytes that are not UTF-8 reach a process through its own argv: the
    first line with such a value or a long one to reach each exit code in
    process runs as a process too."""
    first = {}
    for line in drawn_lines:
        if any(NOT_UTF8 in a or a == LONG for a in line):
            first.setdefault(main(line), line)
    capfd.readouterr()
    assert len(first) >= 4, sorted(first)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    for line in first.values():
        proc = subprocess.run([sys.executable, "-c", ENTRY, *line], capture_output=True,
                              timeout=60, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode in LINE_EXIT_CODES, (line[:3], proc.stderr[-300:])
        assert b"Traceback" not in proc.stderr, (line[:3], proc.stderr[-300:])
