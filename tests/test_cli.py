import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import CHAIN, F2_WINDOW
from lambdaforest import presets
from lambdaforest.cli import (_COMMANDS, JSONText, Malformed, _digest, _dumps, _load, _object,
                              _read, main)
from lambdaforest.cli_usage import build_parser
from lambdaforest.lambdatree import FiniteLambdaMetric, MetricTree, Vertex, distance
from lambdaforest.ordgroup import LexValue

SCHEMA = "lambda-forest/1"


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def emit(tmp_path, preset_name):
    return write(tmp_path, preset_name + ".json", presets.emit(preset_name))


@pytest.fixture
def tripod_file(tmp_path):
    return emit(tmp_path, "tripod")


# input handling -------------------------------------------------------------------


def test_missing_schema_is_malformed(tmp_path):
    path = write(tmp_path, "bad.json", {"kind": "tree"})
    assert main(["tree", "distance", "--input", path, "--x", "p", "--y", "q"]) == 65


def test_invalid_json_is_malformed(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["validate-tree", "--input", str(p)]) == 65


def test_usage_errors():
    assert main([]) == 64
    assert main(["preset", "emit"]) == 64
    assert main(["preset", "emit", "--name", "no-such-preset"]) == 64
    assert main(["marked", "compare"]) == 64


# a flag an op needs but the grammar leaves optional: the handler refuses the
# line (exit 65) and prints no verdict
@pytest.mark.parametrize("doc, argv, message", [
    ("tripod", ["tree", "median", "--x", "p", "--y", "q"], "median needs --z"),
    ("tripod", ["tree", "project", "--x", "p", "--y", "q"],
     "project needs --z (the point to project)"),
    (F2_WINDOW, ["isom", "classify"], "classify needs --word"),
    ("z2-diagonal", ["bt", "valuation"], "bt valuation needs --word"),
    ("z2-diagonal", ["bt", "length"], "bt length needs --word"),
    (CHAIN, ["glue", "dual"], "glue dual needs --a and --b as 'vertex/point'"),
    (CHAIN, ["glue", "dual", "--a", "A/a0"], "glue dual needs --a and --b as 'vertex/point'"),
], ids=["median", "project", "classify", "valuation", "length", "dual", "dual-a"])
def test_handler_refuses_a_missing_flag(tmp_path, capsys, doc, argv, message):
    path = emit(tmp_path, doc) if isinstance(doc, str) else write(tmp_path, "in.json", doc)
    assert main(argv + ["--input", path]) == 65
    assert capsys.readouterr() == ("", f"malformed input: {message}\n")


@pytest.mark.parametrize("op", ["ball", "profile"])
def test_marked_needs_input(capsys, op):
    assert main(["marked", op, "--radius", "2"] if op == "ball" else ["marked", op]) == 64
    assert capsys.readouterr() == ("", "marked ball/profile need --input\n")


# marked compare reads --a and --b; an --input beside them was once ignored
def test_marked_compare_takes_no_input(tmp_path, capsys):
    path = write(tmp_path, "m.json", z2_doc())
    assert main(["marked", "compare", "--a", path, "--b", path, "--input", path]) == 64
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "takes no --input" in err


# main reads --input before the handler, which refuses what the grammar lets
# through: a line with both faults is malformed input first
def test_an_unreadable_input_comes_before_a_handler_usage_error(tmp_path, capsys):
    m, missing = write(tmp_path, "m.json", z2_doc()), str(tmp_path / "missing.json")
    assert main(["marked", "compare", "--input", missing, "--a", m, "--b", m]) == 65
    assert main(["marked", "profile", "--input", missing, "--radius", "2"]) == 65
    assert capsys.readouterr().out == ""


def test_preset_emit_takes_no_json(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["preset", "emit", "--name", "tripod", "--json", str(report)]) == 64
    assert capsys.readouterr() == ("", "preset emit takes no --json: it writes a document\n")
    assert not report.exists()


def test_preset_emit_takes_no_empty_json(capsys):
    """An empty --json is still a --json."""
    assert main(["preset", "emit", "--name", "tripod", "--json", ""]) == 64
    assert capsys.readouterr() == ("", "preset emit takes no --json: it writes a document\n")


def test_preset_emit_empty_name_is_an_unknown_preset(capsys):
    """An empty --name is still a --name."""
    assert main(["preset", "emit", "--name", ""]) == 64
    assert capsys.readouterr() == ("", "unknown preset ''\n")


def test_top_level_must_be_an_object(tmp_path, capsys):
    path = write(tmp_path, "list.json", [])
    assert main(["validate-tree", "--input", path]) == 65
    assert capsys.readouterr() == ("", f"malformed input: {path}: top level must be an object\n")


DEEP = "[" * 200_000 + "]" * 200_000  # past json.load's nesting limit


def test_a_document_nested_too_deeply_is_malformed(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    assert main(["validate-tree", "--input", str(path)]) == 65
    assert capsys.readouterr() == ("", f"malformed input: {path}: nested too deeply\n")


# an output that cannot be created exits 73 (sysexits' EX_CANTCREAT) with one
# line that names it; a report's verdict is printed before the write
@pytest.mark.parametrize("argv, target, out, reason", [
    (["preset", "list", "--json"], "missing-dir/x.json", "\n".join(presets.names()) + "\n",
     "No such file or directory"),
    (["tree", "distance", "--input", "@tripod", "--x", "p", "--y", "q", "--json"], "",
     "distance: (2)\n", "Is a directory"),
    (["preset", "emit", "--name", "tripod", "--out"], "missing-dir/x.json", "",
     "No such file or directory"),
    # a full device opens, and the write or the close that fails names no file
    (["preset", "list", "--json"], "/dev/full", "\n".join(presets.names()) + "\n",
     "No space left on device"),
    (["preset", "emit", "--name", "tripod", "--out"], "/dev/full", "", "No space left on device"),
], ids=["preset-list", "tree-distance", "preset-emit", "preset-list-full", "preset-emit-full"])
def test_an_output_that_cannot_be_written_exits_73(tmp_path, capsys, argv, target, out, reason):
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full")
    argv = [emit(tmp_path, a[1:]) if a[:1] == "@" else a for a in argv]
    target = str(tmp_path / target) if target else str(tmp_path)  # an absolute target stays
    assert main(argv + [target]) == 73
    assert capsys.readouterr() == (out, f"cannot write {target!r}: {reason}\n")


@pytest.mark.parametrize("argv, out", [
    (["preset", "list", "--json", ""], "\n".join(presets.names()) + "\n"),
    (["validate-tree", "--input", "@square-cycle", "--json", ""],
     "validate-tree: violation (four-point) witness ('p', 'q', 'r', 's')\n"),
    (["preset", "emit", "--name", "tripod", "--out", ""], ""),
], ids=["preset-list", "validate-tree", "preset-emit"])
def test_an_empty_output_path_is_a_path_that_cannot_be_written(tmp_path, capsys, argv, out):
    """--json '' and --out '' name a file that cannot be created: exit 73,
    where the report was skipped, or the document printed, and exit 0 or 2."""
    argv = [emit(tmp_path, a[1:]) if a[:1] == "@" else a for a in argv]
    assert main(argv) == 73
    assert capsys.readouterr() == (out, "cannot write '': No such file or directory\n")


def test_the_process_boundary_ends_without_a_traceback(tmp_path):
    deep, missing = tmp_path / "deep.json", str(tmp_path / "missing-dir" / "x.json")
    deep.write_text(DEEP)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    for argv, rc in [(["preset", "list", "--json", missing], 73),
                     (["preset", "emit", "--name", "tripod", "--out", missing], 73),
                     (["validate-tree", "--input", str(deep)], 65)]:
        proc = subprocess.run([sys.executable, "-m", "lambdaforest.cli", *argv],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == rc, proc.stderr
        assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) == 1


# one command of each family that reads a document; @ is the unreadable file
READERS = {
    "validate-tree": ["validate-tree", "--input", "@"],
    "tree": ["tree", "distance", "--input", "@", "--x", "p", "--y", "q"],
    "isom": ["isom", "certify", "--input", "@"],
    "bt": ["bt", "certify", "--input", "@"],
    "glue": ["glue", "check-free", "--input", "@"],
    "cover": ["cover", "check", "--input", "@"],
    "gog": ["gog", "structure", "--input", "@"],
    "marked-ball": ["marked", "ball", "--input", "@", "--radius", "2"],
    "marked-compare": ["marked", "compare", "--a", "@", "--b", "@z2"],
}
# None: no such file; a str: a directory; bytes: the file's contents
UNREADABLE = {
    "missing": None,
    "directory": "",
    "empty": b"",
    "not-utf-8": b'\xff{"schema": "lambda-forest/1"}',
    "bom": b'\xef\xbb\xbf{"schema": "lambda-forest/1"}',
    "nested": DEEP.encode(),
    "long-integer": b'{"schema": "lambda-forest/1", "n": ' + b"9" * 5000 + b"}",
}


@pytest.mark.parametrize("kind", UNREADABLE)
@pytest.mark.parametrize("command", READERS)
def test_every_read_error_names_its_file(tmp_path, capsys, command, kind):
    path, contents = tmp_path / f"{kind}.json", UNREADABLE[kind]
    if isinstance(contents, str):
        path.mkdir()
    elif contents is not None:
        path.write_bytes(contents)
    z2 = write(tmp_path, "z2.json", z2_doc())
    assert main([{"@": str(path), "@z2": z2}.get(a, a) for a in READERS[command]]) == 65
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith(f"malformed input: {path}: ")


# argv bytes the locale cannot decode reach main as surrogate escapes; each
# line still ends with its documented exit code, and no traceback
@pytest.mark.parametrize("argv, rc", [
    ([b"tree", b"distance", b"--input", b"@", b"--x", b"\xff", b"--y", b"q"], 65),
    ([b"tree", b"\xff", b"--input", b"@", b"--x", b"p", b"--y", b"q"], 64),
    ([b"validate-tree", b"--input", b"\xff.json"], 65),
    ([b"tree", b"distance", b"--input", b"@", b"--x", b"p", b"--y", b"q",
      b"--json", b"missing-\xff/x.json"], 73),
], ids=["x", "op", "input", "json"])
def test_undecodable_argv_ends_without_a_traceback(tmp_path, tripod_file, argv, rc):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    argv = [os.fsencode(tripod_file) if a == b"@" else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "lambdaforest.cli", *argv], cwd=tmp_path,
                          capture_output=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == rc, proc.stderr
    assert proc.stderr and b"Traceback" not in proc.stderr


# the command-line reader ---------------------------------------------------------

OPS = sorted({op for _family, ops, _options in _COMMANDS.values() for op in ops})
FLAGS = sorted({f"--{n}" for _family, _ops, options in _COMMANDS.values() for n in options})
VALUES = ["0", "1", "3", "-1", "", "a b", " 2", "+2", "x", "p", "A/a0"]
# what argparse reads, or refuses, other than `command [op] (--name value)*`:
# abbreviations (--b and --ba are ambiguous on isom), --name=value, help, --
ODD = sorted({f[:k] for f in FLAGS for k in (3, 4)} - set(FLAGS)) + [
    "--input=x", "--ball=2", "--x=p", "-h", "--help", "--", "-x", "frob"]


@st.composite
def command_lines(draw):
    """A well-formed line of one command with up to two tokens replaced,
    inserted or deleted."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    _family, ops, options = _COMMANDS[command]
    line = [command] + ([draw(st.sampled_from(ops))] if ops else [])
    names = [n for n, (_c, _d, required) in options.items() if required]
    names += draw(st.lists(st.sampled_from(list(options)), max_size=3))
    for name in draw(st.permutations(names)):
        line += [f"--{name}", draw(st.sampled_from(VALUES))]
    tokens = st.sampled_from(sorted(_COMMANDS) + OPS + FLAGS + VALUES + ODD)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(line)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert":
            line.insert(i, draw(tokens))
        elif i < len(line):
            line[i:i + 1] = [draw(tokens)] if edit == "replace" else []
    return line


@settings(max_examples=500, deadline=None)
@example(["validate-tree", "--inp", "x"])
@example(["isom", "certify", "--input", "x", "--ba", "2"])
@example(["validate-tree", "--input", "-h"])
@example(["tree", "distance", "--input", "--", "--x", "p", "--y", "q"])
@given(command_lines())
def test_reader_agrees_with_argparse(line):
    """The reader returns None or argparse's namespace, and None wherever
    argparse exits (help or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            expected = vars(build_parser().parse_args(line))
        except SystemExit:
            expected = None
    got = _read(line)
    assert got is None or vars(got) == expected


@pytest.mark.parametrize("line", [
    ["validate-tree", "--input", "t.json", "--json", "r.json"],
    ["tree", "median", "--input", "t.json", "--x", "p", "--y", "", "--z", "a b"],
    ["isom", "certify", "--input", "w.json", "--ball", "1", "--ball", "2"],
    ["gog", "acyl", "--radius", "3", "--window", "+4", "--input", "g.json"],
    ["marked", "compare", "--a", "m.json", "--b", "m.json", "--radius", "0"],
    ["preset", "list"],
])
def test_reader_reads_well_formed_lines(line):
    assert vars(_read(line)) == vars(build_parser().parse_args(line))


# tree commands ---------------------------------------------------------------------


def test_tree_distance(tripod_file, capsys):
    assert main(["tree", "distance", "--input", tripod_file, "--x", "p", "--y", "q"]) == 0
    assert "(2)" in capsys.readouterr().out


def test_tree_distance_interior_point(tripod_file, capsys):
    rc = main(["tree", "distance", "--input", tripod_file, "--x", "o:p:1/2", "--y", "q"])
    assert rc == 0
    assert "(3/2)" in capsys.readouterr().out


def test_tree_median_and_project(tripod_file, capsys):
    assert main(["tree", "median", "--input", tripod_file, "--x", "p", "--y", "q", "--z", "r"]) == 0
    assert "o" in capsys.readouterr().out
    assert main(["tree", "project", "--input", tripod_file, "--x", "p", "--y", "q", "--z", "r"]) == 0


def test_tree_bad_point_is_malformed(tripod_file):
    assert main(["tree", "distance", "--input", tripod_file, "--x", "nope", "--y", "q"]) == 65


# a point text names a vertex first, so an id may hold ':'; only a text that
# names no vertex reads as u:v:off.  "a:b:1/2" is both a vertex and the point
# halfway along a - b: the vertex wins
COLON_IDS = {"schema": SCHEMA, "rank": 1, "vertices": ["a:b", "c", "a", "b", "a:b:1/2"],
             "edges": [{"u": u, "v": v, "len": [n]} for u, v, n in (
                 ("a:b", "c", "2"), ("c", "a", "1"), ("a", "b", "1"), ("b", "a:b:1/2", "3"))]}


@pytest.mark.parametrize("x, out", [("a:b", "distance: (2)\n"), ("a:b:1/2", "distance: (5)\n"),
                                    ("a:b:1/4", "distance: (5/4)\n")])
def test_tree_point_names_a_vertex_before_an_edge_offset(tmp_path, capsys, x, out):
    path = write(tmp_path, "colon.json", COLON_IDS)
    assert main(["tree", "distance", "--input", path, "--x", x, "--y", "c"]) == 0
    assert capsys.readouterr() == (out, "")


def test_validate_tree_pass_and_violation(tmp_path, tripod_file):
    metric = {
        "schema": SCHEMA,
        "rank": 1,
        "labels": ["a", "b"],
        "dist": [[["0"], ["1"]], [["1"], ["0"]]],
    }
    assert main(["validate-tree", "--input", write(tmp_path, "m.json", metric)]) == 0
    square = emit(tmp_path, "square-cycle")
    assert main(["validate-tree", "--input", square]) == 2



def test_validate_tree_refuses_repeated_labels(tmp_path, capsys):
    """A table that is a tree metric, but names two points "a": its witness
    could not say which point it means."""
    doc = {"schema": SCHEMA, "rank": 1, "labels": ["a", "a"],
           "dist": [[["0"], ["1"]], [["1"], ["0"]]]}
    assert main(["validate-tree", "--input", write(tmp_path, "m.json", doc)]) == 65
    out, err = capsys.readouterr()
    assert out == "" and err == "malformed input: labels must be distinct\n"


# a label is written into the witness as it reads: one that is neither a
# string nor an int (a bool is no int) once passed, or named a point in
# Python's repr
@pytest.mark.parametrize("labels, bad", [([{}, "b", "c"], {}), ([True, 1.5, None], True),
                                         (["a", 1.5, None], 1.5), (["a", "b", None], None),
                                         ([0, "b", [2]], [2])])
def test_validate_tree_refuses_a_label_that_is_no_string_or_int(tmp_path, capsys, labels, bad):
    ints = write(tmp_path, "ints.json", _rank1_metric(labels=[0, "b", 1]))
    assert main(["validate-tree", "--input", ints]) == 0
    odd = write(tmp_path, "odd.json", _rank1_metric(labels=labels))
    assert main(["validate-tree", "--input", odd]) == 65
    assert capsys.readouterr() == ("validate-tree: pass\n",
                                   f"malformed input: label {bad!r} must be a string or an int\n")


def _rank1_metric(**edits):
    doc = {"schema": SCHEMA, "rank": 1, "labels": ["a", "b", "c"],
           "dist": [[["0"], ["1"], ["2"]], [["1"], ["0"], ["1"]], [["2"], ["1"], ["0"]]]}
    doc.update(edits)
    return doc


BAD_METRICS = {
    "short-row": _rank1_metric(dist=[[["0"], ["1"], ["2"]], [["1"], ["0"]],
                                     [["2"], ["1"], ["0"]]]),
    "missing-row": _rank1_metric(dist=[[["0"], ["1"], ["2"]], [["1"], ["0"], ["1"]]]),
    "string-rank": _rank1_metric(rank="1"),
    "bool-rank": _rank1_metric(rank=True),
    "zero-rank": _rank1_metric(rank=0),
    "empty": _rank1_metric(labels=[], dist=[]),
    "rank-2-zero-on-diagonal": _rank1_metric(dist=[[["0", "0"], ["1"], ["2"]],
                                                   [["1"], ["0"], ["1"]],
                                                   [["2"], ["1"], ["0"]]]),
    "entry-not-a-list": _rank1_metric(dist=[[["0"], "1", ["2"]], [["1"], ["0"], ["1"]],
                                            [["2"], ["1"], ["0"]]]),
}


@pytest.mark.parametrize("name", sorted(BAD_METRICS))
def test_validate_tree_badly_shaped_metric_is_malformed(tmp_path, capsys, name):
    assert main(["validate-tree", "--input", write(tmp_path, "m.json", BAD_METRICS[name])]) == 65
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("malformed input: ") and "Traceback" not in err


@pytest.mark.parametrize("rank", ["1", True, 0])
def test_tree_rank_must_be_a_positive_int(tmp_path, capsys, rank):
    doc = dict(presets.emit("tripod"), rank=rank)
    assert main(["tree", "distance", "--input", write(tmp_path, "t.json", doc),
                 "--x", "p", "--y", "q"]) == 65
    err = capsys.readouterr().err
    assert f"rank must be a positive integer, got {rank!r}" in err
    assert "edge length rank" not in err


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


TREE_DISTANCE = ["tree", "distance", "--x", "p", "--y", "q"]
EDGELESS = {"vertices": ["a"], "edges": []}


# a tree or metric table that is no object, or that lacks a field, is refused by
# name: a nested list once gave "list indices must be integers or slices, not
# str" and a missing field its bare key, such as 'rank'
@pytest.mark.parametrize("argv, doc, message", [
    (["glue", "check-free"], {"vertex_trees": {"A": [1]}, "edges": []},
     "a tree must be an object, got [1]"),
    (["glue", "check-free"], {"vertex_trees": {"A": {"rank": 1, **EDGELESS}, "B": "x"}, "edges": []},
     "a tree must be an object, got 'x'"),
    (["glue", "check-free"], {"vertex_trees": {"A": 5}, "edges": []},
     "a tree must be an object, got 5"),
    (["glue", "check-free"], {"vertex_trees": {"A": EDGELESS}, "edges": []},
     "rank must be a positive integer, got None"),
    (TREE_DISTANCE, _without(presets.emit("tripod"), "rank"),
     "rank must be a positive integer, got None"),
    (TREE_DISTANCE, _without(presets.emit("tripod"), "vertices"),
     "vertices must be a list of distinct ids"),
    (["validate-tree"], _without(_rank1_metric(), "rank"), "rank must be a positive integer, got None"),
    (["validate-tree"], _without(_rank1_metric(), "labels"), "labels must be a non-empty list"),
    (["validate-tree"], _without(_rank1_metric(), "dist"), "dist must be 3 rows of 3 entries"),
], ids=["tree-list", "tree-string", "tree-int", "glued-tree-no-rank", "tree-no-rank",
        "tree-no-vertices", "table-no-rank", "table-no-labels", "table-no-dist"])
def test_a_malformed_tree_or_table_is_refused_by_field(tmp_path, capsys, argv, doc, message):
    path = write(tmp_path, "bad.json", {"schema": SCHEMA, **doc})
    assert main([*argv[:2], "--input", path, *argv[2:]]) == 65
    assert capsys.readouterr() == ("", f"malformed input: {message}\n")


@pytest.mark.parametrize("argv", [
    ["tree", "distance", "--x", "p", "--y", "o:q:1/2,0"],  # a rank-2 offset on a rank-1 tree
    ["marked", "ball", "--radius", "2"],  # not a marked-group document
])
def test_library_errors_are_malformed(tripod_file, capsys, argv):
    assert main(argv + ["--input", tripod_file]) == 65
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("malformed input: ") and "Traceback" not in err


# isometry commands -------------------------------------------------------------------


def _rotation_doc(**edits):
    return {"schema": SCHEMA, "tree": presets.emit("tripod"),
            "generators": {"r": {"o": "o", "p": "q", "q": "r", "r": "p"}}, **edits}


@pytest.fixture
def rotation_file(tmp_path, tripod_file):
    return write(tmp_path, "rot.json", _rotation_doc())


def test_isom_classify_elliptic(rotation_file, capsys):
    rc = main(["isom", "classify", "--input", rotation_file, "--word", "r", "--base", "p"])
    assert rc == 0
    assert "elliptic" in capsys.readouterr().out


def test_isom_classify_inconclusive(tmp_path, capsys):
    tree = {
        "rank": 1,
        "vertices": ["n0", "n1", "n2"],
        "edges": [
            {"u": "n0", "v": "n1", "len": ["1"]},
            {"u": "n1", "v": "n2", "len": ["1"]},
        ],
    }
    doc = {"schema": SCHEMA, "tree": tree, "generators": {"a": {"n0": "n1", "n1": "n2"}}}
    path = write(tmp_path, "shift.json", doc)
    rc = main(["isom", "classify", "--input", path, "--word", "aa", "--base", "n0"])
    assert rc == 3
    assert "inconclusive" in capsys.readouterr().out


def test_isom_empty_base_is_an_unknown_vertex(rotation_file, capsys):
    assert main(["isom", "certify", "--input", rotation_file, "--base", ""]) == 65
    assert capsys.readouterr() == ("", "malformed input: unknown vertex ''\n")


def test_isom_default_base_where_ids_do_not_compare(tmp_path, capsys):
    """Ids 0 and "a" do not sort: the default base is the first in _id_key
    order, vertex 0, which g leaves, where g fixes the base a."""
    tree = {"rank": 1, "vertices": [0, "a"], "edges": [{"u": 0, "v": "a", "len": ["1"]}]}
    path = write(tmp_path, "mixed.json", {"schema": SCHEMA, "tree": tree,
                                          "generators": {"g": {"a": "a"}}})
    assert main(["isom", "classify", "--input", path, "--word", "g"]) == 3
    assert capsys.readouterr() == ("inconclusive: leaves window at g\n", "")
    assert main(["isom", "classify", "--input", path, "--word", "g", "--base", "a"]) == 0
    assert capsys.readouterr() == ("elliptic, fixed point Vertex('a')\n", "")
    assert main(["isom", "certify", "--input", path, "--ball", "1"]) == 3


INT_TREE = {"rank": 1, "vertices": [0, 1, 2, "a"], "edges": [
    {"u": 0, "v": 1, "len": ["1"]}, {"u": 1, "v": 2, "len": ["1"]}, {"u": 1, "v": "a", "len": ["2"]}]}


@pytest.mark.parametrize("argv, line", [
    (["distance", "--x", "0", "--y", "a"], "distance: (3)"),
    (["distance", "--x", "a:1:1/2", "--y", "0"], "distance: (5/2)"),
    (["median", "--x", "0", "--y", "2", "--z", "1:a:1"], "median: Vertex(1)"),
    (["project", "--x", "0:1:1/4", "--y", "a", "--z", "2"], "projection: Vertex(1)"),
], ids=["vertices", "interior", "median", "project"])
def test_tree_points_name_int_ids_by_their_str(tmp_path, capsys, argv, line):
    path = write(tmp_path, "ints.json", {"schema": SCHEMA, **INT_TREE})
    assert main(["tree", argv[0], "--input", path, *argv[1:]]) == 0
    assert capsys.readouterr() == (line + "\n", "")


def test_isom_window_names_int_ids_by_their_str(tmp_path, capsys):
    """The generator swaps 0 and 2 about 1; the default base is the least id, 0."""
    path = write(tmp_path, "ints.json", {"schema": SCHEMA, "tree": INT_TREE,
                                         "generators": {"g": {"0": "2", "1": "1", "2": "0"}}})
    assert main(["isom", "classify", "--input", path, "--word", "g"]) == 0
    assert capsys.readouterr() == ("elliptic, fixed point Vertex(1)\n", "")
    assert main(["isom", "classify", "--input", path, "--word", "g", "--base", "1:2:1/2"]) == 0
    assert capsys.readouterr() == ("elliptic, fixed point Vertex(1)\n", "")


# a point is text, also where the tree's ids are ints: a JSON int is refused by
# the list (or field) that gives it, where `in` once met an int (exit 65 with
# "argument of type 'int' is not iterable"); its str names the vertex
@pytest.mark.parametrize("argv, doc, fixed, message", [
    (["cover", "check"], {"tree": INT_TREE, "members": [[0, "1"], ["1", "2"], ["1", "a"]]},
     ("members", 0, 0), "a point of a member must be a string, got 0"),
    (["glue", "subtree"], {"tree1": INT_TREE, "tree2": INT_TREE, "ends1": ["0", 1],
                           "ends2": ["1", "2"]},
     ("ends1", 1), "a point of ends1 must be a string, got 1"),
    (["glue", "check-free"], {"vertex_trees": {"A": INT_TREE, "B": INT_TREE}, "edges": [
        {"from": "A", "to": "B", "ends_from": [0, "1"], "ends_to": ["0", "1"]}]},
     ("edges", 0, "ends_from", 0), "a point of ends_from must be a string, got 0"),
    (["glue", "check-free"], {"vertex_trees": {"A": INT_TREE}, "edges": [],
                              "samples": [{"vertex": "A", "point": 2}]},
     ("samples", 0, "point"), "a point must be a string, got 2"),
    (["isom", "classify", "--word", "g"], {"tree": INT_TREE,
                                           "generators": {"g": {"0": 2, "1": "1", "2": "0"}}},
     ("generators", "g", "0"), "the image of '0' must be a string, got 2"),
], ids=["cover-member", "glue-ends1", "glue-ends-from", "check-free-sample", "isom-image"])
def test_a_point_given_as_an_int_is_refused_by_name(tmp_path, capsys, argv, doc, fixed,
                                                    message):
    path = write(tmp_path, "int.json", {"schema": SCHEMA, **doc})
    assert main([argv[0], argv[1], "--input", path, *argv[2:]]) == 65
    assert capsys.readouterr() == ("", f"malformed input: {message}\n")
    *keys, last = fixed
    item = doc = json.loads(json.dumps(doc))
    for k in keys:
        item = item[k]
    item[last] = str(item[last])  # the same point as text
    path = write(tmp_path, "text.json", {"schema": SCHEMA, **doc})
    assert main([argv[0], argv[1], "--input", path, *argv[2:]]) in (0, 3)


def test_isom_certify_counterexample(rotation_file, capsys):
    rc = main(["isom", "certify", "--input", rotation_file, "--base", "p", "--ball", "1"])
    assert rc == 2
    assert "counterexample" in capsys.readouterr().out


# bt commands --------------------------------------------------------------------------


def test_bt_length_rank2(tmp_path, capsys):
    path = emit(tmp_path, "z2-diagonal")
    assert main(["bt", "length", "--input", path, "--word", "uuuv'"]) == 0
    assert "(2, -6)" in capsys.readouterr().out


def test_bt_valuation(tmp_path, capsys):
    path = emit(tmp_path, "schottky-qt")
    assert main(["bt", "valuation", "--input", path, "--word", "a"]) == 0
    assert "-1" in capsys.readouterr().out


def test_bt_certify_pass_and_fail(tmp_path, capsys):
    schottky = emit(tmp_path, "schottky-qt")
    assert main(["bt", "certify", "--input", schottky, "--ball", "3"]) == 0
    assert "free on ball" in capsys.readouterr().out
    unipotent = emit(tmp_path, "unipotent-fail")
    assert main(["bt", "certify", "--input", unipotent]) == 2
    assert "counterexample" in capsys.readouterr().out


@pytest.mark.parametrize(
    "preset_name, rc, status",
    [("schottky-qt", 0, "free-on-ball"), ("unipotent-fail", 2, "counterexample")],
)
def test_bt_certify_json_report(tmp_path, preset_name, rc, status):
    report = tmp_path / "report.json"
    path = emit(tmp_path, preset_name)
    assert main(["bt", "certify", "--input", path, "--ball", "3", "--json", str(report)]) == rc
    cert = json.loads(report.read_text())["certificate"]
    assert cert["N"] == 3 and cert["status"] == status
    assert cert["trace_valuations"] and all(
        isinstance(c, str) for v in cert["trace_valuations"] for c in v
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["bt", "certify", "--ball", "0"],
        ["bt", "certify", "--ball", "-1"],
        ["isom", "certify", "--ball", "0"],
        ["gog", "acyl", "--radius", "0"],
        ["gog", "acyl", "--window", "0"],
    ],
)
def test_nonpositive_size_is_usage_error(tmp_path, rotation_file, capsys, argv):
    inputs = {
        "bt": emit(tmp_path, "schottky-qt"),
        "isom": rotation_file,
        "gog": emit(tmp_path, "centralizer-extension-gog"),
    }
    assert main(argv + ["--input", inputs[argv[0]]]) == 64
    assert "must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("op", ["length", "valuation"])
def test_bt_unknown_generator_is_malformed(tmp_path, capsys, op):
    path = emit(tmp_path, "z2-diagonal")
    assert main(["bt", op, "--input", path, "--word", "xz"]) == 65
    assert "unknown generator label 'z'" in capsys.readouterr().err


def _matrix_doc(field, generators, **extra):
    return {"schema": SCHEMA, "kind": "matrix-group", "field": field,
            "generators": generators, **extra}


@pytest.mark.parametrize("doc, det", [
    (_matrix_doc("Qt", {"g": [[{"t^-1": "1", "1": "2"}, "0"], ["0", {"t": "1"}]]}),
     "(1*t^0 + 2*t^1)/(1*t^0)"),
    (_matrix_doc("Qst", {"g": [[{"s^-1t": "1", "s^2": "3"}, "0"], ["0", {"t^-1": "1/2"}]]}),
     "(3/2*t^0*s^2 + 1/2*t^1*s^-1)/(1*t^1*s^0)"),
    (_matrix_doc("Qt", {"g": [[{"t": "1"}, {"t^2": "1"}], ["1", {"t": "1"}]]}), "(0)/(1*t^0)"),
    (_matrix_doc("Qst", {"g": [["0", "1"], ["0", "1"]]}), "(0)/(1*t^0*s^0)"),
    (_matrix_doc("Qp", {"g": [["2", "0"], ["0", "1"]]}, p=3),
     "QpElement(value=Fraction(2, 1), p=3)"),
], ids=["qt", "qst", "qt-zero", "qst-zero", "qp"])
def test_bt_determinant_error_quotes_the_determinant(tmp_path, capsys, doc, det):
    assert main(["bt", "certify", "--input", write(tmp_path, "det.json", doc)]) == 65
    out, err = capsys.readouterr()
    assert out == "" and err == f"malformed input: determinant is not 1: {det}\n"


# with the label ab, certification printed the witness ab', which bt length
# read back as the letters a and b'
@pytest.mark.parametrize("label", ["ab", "a'", "", " ", "."])
def test_bt_labels_that_cannot_be_read_back_are_malformed(tmp_path, capsys, label):
    doc = _matrix_doc("Qt", {label: [["1", "1"], ["0", "1"]]})
    assert main(["bt", "certify", "--ball", "1", "--input", write(tmp_path, "l.json", doc)]) == 65
    out, err = capsys.readouterr()
    assert out == "" and err == (f"malformed input: generator label {label!r} must be one "
                                 "character, not ', space or .\n")


@pytest.mark.parametrize("field, entry, key", [
    ("Qt", {"t": "1", "t^1": "-1", "1": "1"}, "t^1"),
    ("Qt", {"1": "1", "": "2"}, ""),
    ("Qt", {"t^0": "1", "1": "2"}, "1"),
    ("Qst", {"st": "1", "ts": "2"}, "ts"),
], ids=["t-t^1", "1-empty", "t^0-1", "st-ts"])
def test_bt_monomial_spelled_twice_is_malformed(tmp_path, capsys, field, entry, key):
    # the upper right entry: the determinant is 1 whatever it is read as
    doc = _matrix_doc(field, {"a": [["1", entry], ["0", "1"]]})
    assert main(["bt", "valuation", "--word", "a", "--input", write(tmp_path, "m.json", doc)]) == 65
    out, err = capsys.readouterr()
    assert out == "" and err == f"malformed input: two keys of one entry name the monomial {key!r}\n"


# a JSON float once read through its str, its shortest round-trip spelling and not
# the document's digits: {"t^-1": 1.0} as 1, and 0.10000000000000001 over Q_p as 1/10
@pytest.mark.parametrize("field, entry, bad", [
    ("Qt", {"t^-1": 1.0}, "1.0"), ("Qst", {"s": 0.5}, "0.5"), ("Qp", 0.10000000000000001, "0.1"),
    ("Qt", True, "True"),
], ids=["qt-float", "qst-float", "qp-float", "qt-bool"])
def test_bt_float_or_boolean_entry_is_malformed(tmp_path, capsys, field, entry, bad):
    doc = _matrix_doc(field, {"a": [["1", entry], ["0", "1"]]}, **({"p": 3} if field == "Qp" else {}))
    assert main(["bt", "valuation", "--word", "a", "--input", write(tmp_path, "m.json", doc)]) == 65
    assert capsys.readouterr() == ("", f"malformed input: cannot coerce {bad} to a rational\n")


# an exponent needs a decimal digit after an optional '-': each of these once
# reached int() and exited with "invalid literal for int()", naming no key
@pytest.mark.parametrize("field, key", [("Qt", "t^"), ("Qt", "t^-"), ("Qt", "t^\u00b2"),
                                        ("Qt", "t^+1"), ("Qst", "s^t")])
def test_bt_monomial_exponent_needs_digits(tmp_path, capsys, field, key):
    doc = _matrix_doc(field, {"a": [["1", {key: "1"}], ["0", "1"]]})
    assert main(["bt", "valuation", "--word", "a", "--input", write(tmp_path, "m.json", doc)]) == 65
    out, err = capsys.readouterr()
    assert out == "" and err == f"malformed input: bad monomial key {key!r}\n"


# json.load keeps the last of two equal keys, so {"t": "1", "t": "5"} once read
# as 5t and the tree below as the edge a - c
@pytest.mark.parametrize("argv, text", [
    (["bt", "valuation", "--word", "a"],
     '{"schema": "lambda-forest/1", "field": "Qt", '
     '"generators": {"a": [["1", {"t": "1", "t": "5"}], ["0", "1"]]}}'),
    (["tree", "distance", "--x", "a", "--y", "c"],
     '{"schema": "lambda-forest/1", "rank": 1, "vertices": ["a", "b", "c"], '
     '"edges": [{"u": "a", "v": "b", "len": ["1"]}, {"u": "a", "v": "b", "v": "c", "len": ["1"]}]}'),
], ids=["qt-monomial", "tree-edge"])
def test_duplicate_json_key_is_malformed(tmp_path, capsys, argv, text):
    path = tmp_path / "dup.json"
    path.write_text(text)
    assert main(argv[:2] + ["--input", str(path)] + argv[2:]) == 65
    out, err = capsys.readouterr()
    key = "t" if argv[0] == "bt" else "v"
    assert out == "" and err == f"malformed input: {path}: duplicate key {key!r}\n"


# xax' is conjugate to a by a letter the group does not have: it must not
# cancel away into l(a)
@pytest.mark.parametrize("word", ["xax'", "x"])
@pytest.mark.parametrize("op", ["length", "valuation"])
def test_bt_unknown_letter_is_malformed_even_where_it_cancels(tmp_path, capsys, op, word):
    path = emit(tmp_path, "schottky-qt")
    assert main(["bt", op, "--input", path, "--word", word]) == 65
    out, err = capsys.readouterr()
    assert out == "" and err == "malformed input: unknown generator label 'x'\n"


# A Q_p document's p must be a prime int.  Before that was checked, p = 1,
# -1 or true made the p-adic valuation loop forever, so each case runs in a
# process of its own under a timeout: a regression fails instead of hanging.
QP_COMMANDS = """
import sys
from lambdaforest.cli import main
print([main(["bt", op, "--input", sys.argv[1], *extra]) for op, extra in
       (("length", ["--word", "a"]), ("valuation", ["--word", "a"]), ("certify", ["--ball", "2"]))])
"""


@pytest.mark.parametrize("p", [1, -1, True, 0, 4, -3, 2.5, "3", 3317044064679887385961981])
def test_bt_qp_prime_must_be_a_prime_int(tmp_path, p):
    doc = {"schema": SCHEMA, "kind": "matrix-group", "field": "Qp", "p": p,
           "generators": {"a": [["2", "0"], ["0", "1/2"]], "b": [["1", "2"], ["0", "1"]]}}
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", QP_COMMANDS, write(tmp_path, "qp.json", doc)],
                          capture_output=True, text=True, timeout=30,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout == "[65, 65, 65]\n"
    lines = proc.stderr.splitlines()
    assert len(lines) == 3 and len(set(lines)) == 1
    assert lines[0] in (f"malformed input: Qp context needs a prime p, got {p!r}",
                        f"malformed input: p = {p} is too large: primality is decided "
                        f"below {p}")


def test_bt_qp_prime_is_used_as_given(tmp_path, capsys):
    p = 2 ** 61 - 1
    doc = {"schema": SCHEMA, "kind": "matrix-group", "field": "Qp", "p": p,
           "generators": {"a": [[str(p), "0"], ["0", f"1/{p}"]]}}
    assert main(["bt", "length", "--input", write(tmp_path, "qp.json", doc), "--word", "a"]) == 0
    assert capsys.readouterr().out == "l(a) = (2)\n"


def _preset_with(name, **edits):
    return {**presets.emit(name), **edits}


def _schottky_empty_entry():
    doc = presets.emit("schottky-qt")
    doc["generators"]["a"][0][1] = []
    return doc


EMPTY_GOG = {"schema": SCHEMA, "kind": "graph-of-groups", "vertices": [], "edges": []}


# main's boundary catches no AttributeError, so a wrong type must be caught where it is parsed
@pytest.mark.parametrize("argv, doc, message", [
    (["bt", "certify"], _preset_with("schottky-qt", generators=7), "generators must be an object"),
    (["bt", "certify"], _schottky_empty_entry(), "entry must be a rational string or a"),
    (["isom", "certify"], _rotation_doc(generators=7), "generators must be an object"),
    (["isom", "classify", "--word", "r"], _rotation_doc(generators={"r": []}),
     "generator 'r' must map vertices to points"),
    (["marked", "profile"], _preset_with("z-to-z2-sequence", family=7), "only the z-marked family"),
    (["glue", "dual", "--a", "A/a0", "--b", "A/a0"], {"schema": SCHEMA, "vertex_trees": [],
                                                      "edges": []}, "vertex_trees must be an object"),
    (["glue", "check-free"], {"schema": SCHEMA, "vertex_trees": [], "edges": []},
     "vertex_trees must be an object"),
    # an empty graph of actions would pass check-free having checked nothing
    (["glue", "check-free"], {"schema": SCHEMA, "vertex_trees": {}, "edges": []},
     "needs at least one vertex tree"),
    (["glue", "check-free"], {**CHAIN, "attestations": "AB"}, "attestations must be an object"),
    (["glue", "check-free"], {**CHAIN, "attestations": ["A", "B"]},
     "attestations must be an object"),
    # no generator: a ball of words would pass having walked nothing
    (["isom", "certify"], _rotation_doc(generators={}), "empty generator set"),
    (["isom", "classify", "--word", "r"], _rotation_doc(generators={}), "empty generator set"),
    # no vertex: every clause, acylindricity and the case analysis would pass vacuously
    (["gog", "structure"], EMPTY_GOG, "graph of groups has no vertices"),
    (["gog", "acyl"], EMPTY_GOG, "graph of groups has no vertices"),
    (["gog", "principal"], EMPTY_GOG, "graph of groups has no vertices"),
    (["gog", "betti"], {**EMPTY_GOG, "ambient": {"generators": ["x"], "relators": []}},
     "graph of groups has no vertices"),
], ids=["bt-generators", "bt-entry", "isom-certify", "isom-classify", "marked-family",
        "glue-dual-vertex-trees", "glue-check-free-vertex-trees", "glue-check-free-empty",
        "glue-attestations-string", "glue-attestations-list", "isom-certify-empty",
        "isom-classify-empty", "gog-structure-empty", "gog-acyl-empty", "gog-principal-empty",
        "gog-betti-empty"])
def test_wrongly_typed_input_is_malformed(tmp_path, capsys, argv, doc, message):
    assert main(argv + ["--input", write(tmp_path, "doc.json", doc)]) == 65
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("malformed input: ") and message in err


# each of these once printed a bare Python error that named nothing
@pytest.mark.parametrize("argv, doc, message", [
    (["glue", "dual", "--a", "A", "--b", "B/b0"], CHAIN, "--a must be 'vertex/point', got 'A'"),
    (["glue", "dual", "--a", "A/a0", "--b", "Z/b0"], CHAIN, "--b names no vertex tree: 'Z'"),
    (["glue", "check-free"], {**CHAIN, "samples": [{"vertex": "Z", "point": "a0"}]},
     "sample 'vertex' names no vertex tree: 'Z'"),
    (["glue", "check-free"], {**CHAIN, "edges": [{**CHAIN["edges"][0], "from": "Z"}]},
     "edge 'from' names no vertex tree: 'Z'"),
    (["glue", "dual", "--a", "A/a0", "--b", "B/b0"],
     {**CHAIN, "edges": [{**CHAIN["edges"][0], "to": "Z"}]}, "edge 'to' names no vertex tree: 'Z'"),
    (["glue", "dual", "--a", "A/a0:a2:1/2", "--b", "B/b0"], CHAIN,
     "bad point 'a0:a2:1/2': edge 'a0'-'a2' not in tree"),
    (["tree", "distance", "--x", "o", "--y", "p:q:1/2"], presets.emit("tripod"),
     "bad point 'p:q:1/2': edge 'p'-'q' not in tree"),
    (["isom", "classify", "--word", "a", "--base", "a:A:1/2"], F2_WINDOW,
     "bad point 'a:A:1/2': edge 'a'-'A' not in tree"),
], ids=["no-slash", "no-tree", "sample", "edge-from", "edge-to", "glue-point", "tree-point",
        "isom-point"])
def test_errors_name_what_is_missing(tmp_path, capsys, argv, doc, message):
    path = write(tmp_path, "doc.json", doc)
    assert main(argv[:2] + ["--input", path] + argv[2:]) == 65
    out, err = capsys.readouterr()
    assert out == "" and err == f"malformed input: {message}\n"


def _two_vertex_tree(**edits):
    doc = {"schema": SCHEMA, "rank": 1, "vertices": ["a", "b"],
           "edges": [{"u": "a", "v": "b", "len": ["1"]}]}
    doc.update(edits)
    return doc


# each of these once read as the tree a - b and printed "distance: (1)"
@pytest.mark.parametrize("doc, message", [
    (_two_vertex_tree(vertices="ab"), "vertices must be a list of distinct ids"),
    (_two_vertex_tree(vertices=["a", "a", "b"]), "vertices must be a list of distinct ids"),
    (_two_vertex_tree(edges=[{"u": "a", "v": "b", "len": [True]}]),
     "cannot coerce True to a rational"),
], ids=["string-vertices", "duplicate-vertex", "bool-length"])
def test_malformed_tree_document_is_refused(tmp_path, capsys, doc, message):
    argv = ["tree", "distance", "--input", write(tmp_path, "t.json", doc), "--x", "a", "--y", "b"]
    assert main(argv) == 65
    out, err = capsys.readouterr()
    assert out == "" and err == f"malformed input: {message}\n"


@pytest.mark.parametrize("doc", [{}, {"b": [1, "2/3"], "a": {"x": None}}, presets.emit("tripod"),
                                 {"s": "\u00e9\\\"", "n": -10**30}])
def test_digest_is_the_sha256_prefix(doc):
    want = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]
    assert _digest(doc) == want


# what a document or a report holds, and tuples, which json writes as lists; text
# and keys reach past ASCII, integers past 64 bits
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=30)


def _nested(depth):
    x = []
    for i in range(depth):
        x = {"k": x, "t": ("\u2603", i)} if i % 2 else [x, {}, ()]
    return x


def _texted(x, marks: set):
    """x with each value whose number in preorder is in marks written ahead as a JSONText."""
    count = itertools.count()

    def walk(v):
        if next(count) in marks:
            return JSONText(json.dumps(v, sort_keys=True, indent=2))
        if isinstance(v, dict):
            return {k: walk(w) for k, w in v.items()}
        return [walk(w) for w in v] if isinstance(v, (list, tuple)) else v

    return walk(x)


@given(JSON_VALUES, st.sets(st.integers(0, 40), max_size=6))
@example({}, {0})
@example([[], {}, ()], {1, 3})
@example({"\u00e9": [10 ** 40, -2 ** 70, True, False, None, 0.1], "": "\ud834\n\"'"}, {2, 9})
@example({2: "two", True: "one", -1.5: None}, {2})  # json writes these keys as strings
@example(_nested(60), {7, 30, 61})
@settings(max_examples=300, deadline=None)
def test_report_writer_matches_json_dumps(x, marks):
    """Also where values at any depth come written ahead, as JSONText."""
    want = json.dumps(x, sort_keys=True, indent=2)
    assert _dumps(x) == want
    assert _dumps(_texted(x, marks)) == want


def test_report_writer_refuses_what_json_refuses():
    for bad in ({"a": Fraction(1, 2)}, [object()], {"a": {1, 2}}):
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            _dumps(bad)


# the reader: json's C scanner, and json itself wherever that scan fails, so a
# document reads as json.load reads it, in value and in key order at every depth
# (repr writes a dict's items in order, and NaN as nan)
@given(st.dictionaries(st.text(), JSON_VALUES, max_size=4), st.data())
@example({"\u00e9": [float("nan"), float("-inf"), -0.0, 10 ** 40]}, None)
@settings(max_examples=200, deadline=None)
def test_reader_matches_json_load(tmp_path_factory, doc, data):
    layout = {} if data is None else {
        "indent": data.draw(st.sampled_from([None, 0, 2, "\t"])),
        "separators": data.draw(st.sampled_from([None, (",", ":"), (" ,\n", " :\r")])),
        "ensure_ascii": data.draw(st.booleans())}
    pad = ("", "") if data is None else (data.draw(st.text(" \t\n\r", max_size=3)),
                                         data.draw(st.text(" \t\n\r", max_size=3)))
    path = tmp_path_factory.getbasetemp() / "reader.json"
    path.write_text(pad[0] + json.dumps({**doc, "schema": SCHEMA}, **layout) + pad[1],
                    encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        want = json.load(fh, object_pairs_hook=_object)
    assert repr(_load(str(path))) == repr(want)


# texts the reader refuses, or reads only as json does: each fails with json's
# own exception and text, which _load words after the path
DOC = '{"schema": "lambda-forest/1"'
READER_TEXTS = {
    "empty": b"", "whitespace": b" \t\r\n ", "bom": b"\xef\xbb\xbf" + DOC.encode() + b"}",
    "trailing": DOC.encode() + b"} {}", "bare-brace": b"{",
    "unterminated": DOC.encode() + b', "a": "b}', "bad-escape": DOC.encode() + b', "a": "\\q"}',
    "nan": DOC.encode() + b', "a": NaN}', "infinity": DOC.encode() + b', "a": [Infinity]}',
    "minus-infinity": DOC.encode() + b', "a": {"b": -Infinity}}',
    "digits": DOC.encode() + b', "a": ' + b"7" * 5000 + b"}",
    "duplicate": DOC.encode() + b', "a": {"b": {"c": 1, "c": 2}}}',
    "deep": DEEP.encode(), "bad-utf8": DOC.encode() + b', "a": "\xff\xfe"}',
}


@pytest.mark.parametrize("name", READER_TEXTS)
def test_reader_fails_as_json_loads_does(tmp_path, name):
    raw = READER_TEXTS[name]
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    try:
        want = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_object)
    except (ValueError, Malformed, RecursionError) as exc:  # ValueError: JSON, UTF-8, digits
        with pytest.raises(Malformed) as got:
            _load(str(path))
        assert type(got.value.__context__) is type(exc) and str(got.value.__context__) == str(exc)
        assert str(got.value) == f"{path}: " + (
            "nested too deeply" if isinstance(exc, RecursionError) else str(exc))
    else:
        assert name in ("nan", "infinity", "minus-infinity")
        assert repr(_load(str(path))) == repr(want)


# a fresh process has not imported json, whose decoder module the C scanner's
# error path looks up on 3.11: json still words the error, with no traceback
@pytest.mark.parametrize("name", ["bare-brace", "duplicate"])
def test_reader_fails_as_json_does_in_a_fresh_process(tmp_path, name):
    path = tmp_path / "doc.json"
    path.write_bytes(READER_TEXTS[name])
    try:
        json.loads(READER_TEXTS[name], object_pairs_hook=_object)
    except (ValueError, Malformed) as exc:
        message = f"malformed input: {path}: {exc}\n"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", "import sys; from lambdaforest.cli import main; "
                           "sys.exit(main())", "gog", "structure", "--input", str(path)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (65, "", message)


def _tripod_with_length(length):
    doc = presets.emit("tripod")
    doc["edges"][0]["len"] = length
    return doc


def _schottky_coefficient(value):
    doc = presets.emit("schottky-qt")
    doc["generators"]["a"][0][0] = {"t^1": value}
    return doc


# Fraction("1/0") raises ZeroDivisionError, which main's boundary does not
# catch (that would hide arithmetic bugs), so the parsers turn it into a ValueError
@pytest.mark.parametrize("argv, doc", [
    (["tree", "distance", "--x", "o:p:1/0", "--y", "q"], presets.emit("tripod")),
    (["validate-tree"], {"schema": SCHEMA, "rank": 2, "labels": ["a", "b"],
                         "dist": [[["0", "0"], ["1/0", "0"]], [["1", "0"], ["0", "0"]]]}),
    (["tree", "distance", "--x", "p", "--y", "q"], _tripod_with_length(["1/0"])),
    (["tree", "distance", "--x", "p", "--y", "q"], _tripod_with_length(["1/\u0660"])),
    (["validate-tree"], {"schema": SCHEMA, "rank": 1, "labels": ["a", "b"],
                         "dist": [[["0"], ["1/\u0660"]], [["1/\u0660"], ["0"]]]}),
    (["bt", "certify"], {"schema": SCHEMA, "kind": "matrix-group", "field": "Qp", "p": 3,
                         "generators": {"a": [["1/0", "0"], ["0", "1"]]}}),
    (["bt", "certify"], _schottky_coefficient("1/0")),
], ids=["point-offset", "metric-entry", "edge-length", "edge-length-arabic-zero",
        "metric-entry-arabic-zero", "qp-entry", "qt-coefficient"])
def test_zero_denominator_is_malformed(tmp_path, capsys, argv, doc):
    assert main(argv + ["--input", write(tmp_path, "doc.json", doc)]) == 65
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("malformed input: ") and "zero denominator" in err


def test_bt_certify_document_ball_must_be_positive(tmp_path, capsys):
    doc = presets.emit("schottky-qt")
    for ball in (0, True):  # a bool is an int to isinstance
        doc["ball"] = ball
        assert main(["bt", "certify", "--input", write(tmp_path, "b.json", doc)]) == 65
        out, err = capsys.readouterr()
        assert out == "" and f"ball must be a positive integer, got {ball!r}" in err


# glue commands --------------------------------------------------------------------------


def _path_tree(ids):
    return {
        "rank": 1,
        "vertices": list(ids),
        "edges": [{"u": ids[i], "v": ids[i + 1], "len": ["1"]} for i in range(len(ids) - 1)],
    }


@pytest.fixture
def chain_goa_file(tmp_path):
    doc = {
        "schema": SCHEMA,
        "vertex_trees": {
            "A": _path_tree(["a0", "a1", "a2", "a3"]),
            "B": _path_tree(["b0", "b1", "b2", "b3"]),
        },
        "edges": [
            {"from": "A", "to": "B", "ends_from": ["a2", "a3"], "ends_to": ["b0", "b1"]}
        ],
        "attestations": {"A": "free", "B": "free"},
        "samples": [{"vertex": "A", "point": "a2"}],
    }
    return write(tmp_path, "goa.json", doc)


def test_glue_dual(chain_goa_file, capsys):
    rc = main(["glue", "dual", "--input", chain_goa_file, "--a", "A/a0", "--b", "B/b3"])
    assert rc == 0
    assert "(5)" in capsys.readouterr().out  # a0..a2 (2) + b0..b3 (3)


def test_glue_check_free_pass(chain_goa_file, capsys):
    assert main(["glue", "check-free", "--input", chain_goa_file]) == 0
    assert "Pass" in capsys.readouterr().out


def test_glue_check_free_fail_quotes_the_sample(tmp_path, capsys):
    # the same gluing twice closes a cycle through the class of a0
    edge = {"from": "A", "to": "B", "ends_from": ["a0", "a1"], "ends_to": ["b0", "b1"]}
    doc = {"schema": SCHEMA, "vertex_trees": {"A": _path_tree(["a0", "a1"]),
                                              "B": _path_tree(["b0", "b1"])},
           "edges": [edge, edge], "attestations": {"A": "free", "B": "free"},
           "samples": [{"vertex": "A", "point": "a0"}]}
    report = tmp_path / "r.json"
    assert main(["glue", "check-free", "--input", write(tmp_path, "cyc.json", doc),
                 "--json", str(report)]) == 2
    detail = "class of DualPoint(vertex='A', point=Vertex('a0')) is not a tree"
    assert capsys.readouterr().out == f"free criterion: Fail ({detail})\n"
    assert json.loads(report.read_text())["detail"] == detail


def test_glue_check_free_inconclusive(tmp_path, chain_goa_file):
    doc = json.loads(open(chain_goa_file).read())
    del doc["attestations"]["B"]
    path = write(tmp_path, "goa2.json", doc)
    assert main(["glue", "check-free", "--input", path]) == 3


# only the string "free" attests a vertex; any other value leaves it unattested
def test_glue_check_free_attestation_must_say_free(tmp_path, capsys):
    doc = {**CHAIN, "attestations": {"A": False, "B": "not free"}}
    assert main(["glue", "check-free", "--input", write(tmp_path, "att.json", doc)]) == 3
    assert capsys.readouterr().out == (
        "free criterion: Inconclusive (missing freeness attestation for vertices ['A', 'B'])\n")
    for value in (7, [], None, {}, "", "Free"):
        doc = {**CHAIN, "attestations": {"A": "free", "B": value}}
        assert main(["glue", "check-free", "--input", write(tmp_path, "att.json", doc)]) == 3


def test_glue_check_free_without_samples_is_inconclusive(tmp_path, capsys):
    # no glue class sampled: the period-doubling scan alone may not pass
    tree = {"rank": 1, "vertices": ["A"], "edges": []}
    doc = {"schema": SCHEMA, "vertex_trees": {"A": tree}, "edges": [],
           "attestations": {"A": "free"}, "samples": []}
    report = tmp_path / "r.json"
    assert main(["glue", "check-free", "--input", write(tmp_path, "one.json", doc),
                 "--json", str(report)]) == 3
    assert capsys.readouterr().out == "free criterion: Inconclusive (no sample point given)\n"
    assert json.loads(report.read_text())["status"] == "inconclusive"


def test_glue_subtree(tmp_path, capsys):
    doc = {
        "schema": SCHEMA,
        "tree1": _path_tree(["a", "b", "c"]),
        "tree2": _path_tree(["x", "y", "z"]),
        "ends1": ["b", "c"],
        "ends2": ["x", "y"],
    }
    assert main(["glue", "subtree", "--input", write(tmp_path, "gs.json", doc)]) == 0
    assert "4 vertices" in capsys.readouterr().out


def test_glue_point(tmp_path, capsys):
    doc = {
        "schema": SCHEMA,
        "base": _path_tree(["a", "b"]),
        "attachments": [{"tree": _path_tree(["p", "q"]), "x": "b", "y": "p"}],
    }
    assert main(["glue", "point", "--input", write(tmp_path, "gp.json", doc)]) == 0
    assert "3 vertices" in capsys.readouterr().out


def _segment_doc(op, ends_a, ends_b):
    """Trees a - b - c and x - y - z glued along ends_a and ends_b: as the
    subtree document, or as the one edge of a graph of actions."""
    one, two = _path_tree(["a", "b", "c"]), _path_tree(["x", "y", "z"])
    if op == "subtree":
        return {"schema": SCHEMA, "tree1": one, "tree2": two, "ends1": ends_a, "ends2": ends_b}
    return {"schema": SCHEMA, "vertex_trees": {"A": one, "B": two},
            "edges": [{"from": "A", "to": "B", "ends_from": ends_a, "ends_to": ends_b}],
            "attestations": {"A": "free", "B": "free"}, "samples": [{"vertex": "A", "point": "a"}]}


# a glued segment is a list of exactly two ends: a string was read as its
# characters, and a third end once ended in distance()'s TypeError
@pytest.mark.parametrize("op", ["subtree", "dual", "check-free"])
@pytest.mark.parametrize("ends_a, ends_b, message", [
    ("ab", ["x", "y"], "{a} must be a list of points, got 'ab'"),
    (["a", "b"], "xy", "{b} must be a list of points, got 'xy'"),
    (["a", "b", "c"], ["x", "y"], "a glued segment has two ends on each side, got 3 and 2"),
    (["a", "b"], ["x"], "a glued segment has two ends on each side, got 2 and 1"),
], ids=["string-from", "string-to", "three-ends", "one-end"])
def test_glued_segment_is_a_list_of_two_ends(tmp_path, capsys, op, ends_a, ends_b, message):
    a, b = ("ends1", "ends2") if op == "subtree" else ("ends_from", "ends_to")
    extra = ["--a", "A/a", "--b", "B/z"] if op == "dual" else []
    path = write(tmp_path, "seg.json", _segment_doc(op, ends_a, ends_b))
    assert main(["glue", op, "--input", path, *extra]) == 65
    out, err = capsys.readouterr()
    assert out == "" and err == f"malformed input: {message.format(a=a, b=b)}\n"
    ok = write(tmp_path, "ok.json", _segment_doc(op, ["a", "b"], ["x", "y"]))
    assert main(["glue", op, "--input", ok, *extra]) == 0


# cover commands ---------------------------------------------------------------------


def test_cover_check_and_skeleton(tmp_path, capsys):
    doc = {
        "schema": SCHEMA,
        "tree": presets.emit("tripod"),
        "members": [["o", "p"], ["o", "q"], ["o", "r"]],
    }
    path = write(tmp_path, "cover.json", doc)
    assert main(["cover", "check", "--input", path]) == 0
    assert main(["cover", "skeleton", "--input", path]) == 0
    assert "3 members, 1 points" in capsys.readouterr().out
    doc["members"] = [["o", "p"], ["o", "q"]]
    gap = write(tmp_path, "gap.json", doc)
    assert main(["cover", "check", "--input", gap]) == 2


# no member covers any point, not even of a tree with one vertex: no verdict
@pytest.mark.parametrize("tree", [presets.emit("tripod"), {"rank": 1, "vertices": ["o"], "edges": []}],
                         ids=["tripod", "one-vertex"])
@pytest.mark.parametrize("op", ["check", "skeleton"])
def test_cover_with_no_member_is_malformed(tmp_path, capsys, tree, op):
    path = write(tmp_path, "empty.json", {"schema": SCHEMA, "tree": tree, "members": []})
    assert main(["cover", op, "--input", path]) == 65
    out, err = capsys.readouterr()
    assert out == "" and err == "malformed input: a covering needs at least one member\n"


# gog commands ------------------------------------------------------------------------


def test_gog_pipeline(tmp_path, capsys):
    path = emit(tmp_path, "centralizer-extension-gog")
    assert main(["gog", "structure", "--input", path]) == 0
    assert main(["gog", "acyl", "--input", path]) == 0
    assert main(["gog", "betti", "--input", path]) == 0
    assert main(["gog", "principal", "--input", path]) == 0
    assert "centralizer-extension" in capsys.readouterr().out


def test_gog_structure_violation(tmp_path):
    doc = presets.emit("centralizer-extension-gog")
    doc["edges"][0]["image_u"] = "xyxy"
    path = write(tmp_path, "badgog.json", doc)
    assert main(["gog", "structure", "--input", path]) == 2
    assert main(["gog", "principal", "--input", path]) == 2


# an infinitesimal vertex whose group is not free needs an attestation, and
# only a nonempty string is one
@pytest.mark.parametrize("attestation, rc", [("window-certified", 0), (False, 2), ("", 2), (7, 2),
                                             ([], 2), (None, 2)])
def test_gog_attestation_must_be_a_nonempty_string(tmp_path, capsys, attestation, rc):
    doc = presets.emit("centralizer-extension-gog")
    doc["vertices"][0]["group"] = {"kind": "free-abelian", "letters": ["x", "y"]}
    doc["vertices"][0]["attestation"] = attestation
    assert main(["gog", "structure", "--input", write(tmp_path, "att.json", doc)]) == rc
    verdict = "Pass" if rc == 0 else "Fail"
    assert f"infinitesimal: {verdict} (" in capsys.readouterr().out


def test_gog_acyl_reads_both_ends_of_a_loop(tmp_path, capsys):
    # F(x, y) with a loop t x t^-1 = x: x fixes a line of the Bass-Serre tree
    doc = {**EMPTY_GOG,
           "vertices": [{"id": "F", "type": "infinitesimal",
                         "group": {"kind": "free", "letters": ["x", "y"]}}],
           "edges": [{"u": "F", "v": "F", "image_u": "x", "image_v": "x"}]}
    report = tmp_path / "acyl.json"
    argv = ["gog", "acyl", "--input", write(tmp_path, "loop.json", doc), "--json", str(report)]
    assert main(argv) == 2
    assert capsys.readouterr().out.startswith("acylindricity: Fail, fixed by x\n")
    body = json.loads(report.read_text())
    assert body["status"] == "violation" and "inconclusive_at" not in body
    assert len(body["path"]) == 5


def test_gog_acyl_finds_a_turn_longer_than_the_window(tmp_path, capsys):
    # F(x, y) with a loop t x t^-1 = y^5 x y^-5: the turn y^5 is longer than
    # --window, and the path it turns on is still found
    doc = {**EMPTY_GOG,
           "vertices": [{"id": "F", "type": "infinitesimal",
                         "group": {"kind": "free", "letters": ["x", "y"]}}],
           "edges": [{"u": "F", "v": "F", "image_u": "x", "image_v": "yyyyyxy'y'y'y'y'"}]}
    argv = ["gog", "acyl", "--input", write(tmp_path, "loop.json", doc),
            "--radius", "5", "--window", "4"]
    assert main(argv) == 2
    assert capsys.readouterr().out == "acylindricity: Fail, fixed by yyyyyxy'y'y'y'y'\n"


def _gog_with(edit):
    doc = presets.emit("centralizer-extension-gog")
    edit(doc)
    return doc


# with its edges emptied the centralizer graph falls apart into its two
# vertices: gog acyl once printed "acylindricity: Pass" for it and exited 0;
# it refuses the graph as gog betti does, and gog structure fails its clause
def test_gog_refuses_a_disconnected_graph(tmp_path, capsys):
    path = write(tmp_path, "gog.json", _gog_with(lambda d: d.update(edges=[])))
    assert [main(["gog", op, "--input", path]) for op in ("acyl", "betti")] == [65, 65]
    assert capsys.readouterr() == ("", "malformed input: graph of groups is not connected\n" * 2)
    assert main(["gog", "structure", "--input", path]) == 2
    assert "graph: Fail (underlying graph not connected)" in capsys.readouterr().out


# a vertex's type is one of the three the structure check knows, its id a
# string or an int, and an edge's ends are vertex ids: type "x" once read as an
# incidence failure, id true (an edge's u too) as a pass on every clause, and
# an end that is no vertex as a bare KeyError ("malformed input: 'Z'")
@pytest.mark.parametrize("edit, message", [
    (lambda d: d["vertices"][0].update(type="x"), "vertex 'F': unknown type 'x'"),
    (lambda d: (d["vertices"][0].update(id=True), d["edges"][0].update(u=True)),
     "vertex id True must be a string or an int"),
    (lambda d: (d["vertices"][0].update(id=1.5), d["edges"][0].update(u=1.5)),
     "vertex id 1.5 must be a string or an int"),
    (lambda d: d["edges"][0].update(v="Z"), "edge endpoint 'Z' missing"),
], ids=["type", "id-true", "id-float", "endpoint"])
def test_gog_vertex_type_and_id_are_checked(tmp_path, capsys, edit, message):
    path = write(tmp_path, "gog.json", _gog_with(edit))
    assert [main(["gog", op, "--input", path]) for op in ("structure", "acyl", "principal")] == [
        65] * 3
    assert capsys.readouterr() == ("", f"malformed input: {message}\n" * 3)


def test_gog_vertex_id_may_be_an_int(tmp_path, capsys):
    doc = _gog_with(lambda d: (d["vertices"][0].update(id=7), d["edges"][0].update(u=7)))
    assert main(["gog", "structure", "--input", write(tmp_path, "gog.json", doc)]) == 0


def _marked_group_letters(letters):
    return {"schema": SCHEMA, "kind": "marked-group",
            "group": {"kind": "free", "letters": letters}, "marking": ["p", "p"],
            "letters": ["a", "b"]}


# every alphabet a document names is one of distinct one-character letters,
# none of them ', space or .: a repeated generator once counted twice in b1
@pytest.mark.parametrize("argv, doc, message", [
    (["gog", "betti"], _gog_with(lambda d: d["ambient"].update(generators=["x", "y", "z", "z"])),
     "generators must be distinct"),
    (["gog", "structure"], _gog_with(lambda d: d["vertices"][0]["group"].update(
        letters=["x", "x"])), "vertex letters must be distinct"),
    (["gog", "acyl"], _gog_with(lambda d: d["vertices"][1]["group"].update(
        extra_letters=["n"])), "vertex letters must be distinct"),
    (["gog", "structure"], _gog_with(lambda d: d["vertices"][1]["group"].update(
        n_letter="nn")), "vertex letter 'nn' must be one character"),
    (["gog", "structure"], {**presets.emit("n3-surface-gog"), "vertices": [
        {"id": "S", "type": "surface", "group": {"kind": "surface-with-boundary",
                                                 "letters": ["a", "."], "boundaries": []}}]},
     "vertex letter '.' must be one character"),
    (["marked", "ball"], _marked_group_letters(["p", "p"]), "group letters must be distinct"),
    (["marked", "ball"], _marked_group_letters(["p", "'"]),
     "group letter \"'\" must be one character"),
], ids=["ambient-repeat", "free-repeat", "extra-repeats-n", "n-letter-long", "surface-dot",
        "marked-group-repeat", "marked-group-quote"])
def test_unreadable_alphabets_are_malformed(tmp_path, capsys, argv, doc, message):
    assert main(argv + ["--input", write(tmp_path, "doc.json", doc)]) == 65
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("malformed input: ") and message in err


def test_conjugate_surface_boundaries_are_malformed(tmp_path, capsys):
    # ba'b'a is a rotation of aba'b', so the two name one boundary
    doc = {**presets.emit("n3-surface-gog"), "vertices": [
        {"id": "S", "type": "surface", "group": {"kind": "surface-with-boundary",
                                                 "letters": ["a", "b"],
                                                 "boundaries": ["aba'b'", "ba'b'a"]}}]}
    assert main(["gog", "structure", "--input", write(tmp_path, "doc.json", doc)]) == 65
    out, err = capsys.readouterr()
    assert out == "" and "boundary words must be independent" in err


@pytest.mark.parametrize("rank", [2.5, "3", True, None, 1])
def test_gog_betti_max_abelian_rank_must_be_an_int(tmp_path, capsys, rank):
    doc = {**presets.emit("centralizer-extension-gog"), "max_abelian": [["A", rank]]}
    assert main(["gog", "betti", "--input", write(tmp_path, "doc.json", doc)]) == 65
    out, err = capsys.readouterr()
    assert out == "" and err == (f"malformed input: declared maximal abelian 'A' has rank "
                                 f"{rank!r}, not an integer >= 2\n")


# each of these once exited 65 with "not enough values to unpack", which names no field
@pytest.mark.parametrize("pairs", [[["A"]], "AB", [["A", 2, 3]], [("A", 2), "B2"], {"A": 2}])
def test_gog_betti_max_abelian_must_be_a_list_of_pairs(tmp_path, capsys, pairs):
    doc = {**presets.emit("centralizer-extension-gog"), "max_abelian": pairs}
    assert main(["gog", "betti", "--input", write(tmp_path, "doc.json", doc)]) == 65
    loaded = json.loads(json.dumps(pairs))  # as the document reads it: a tuple is a list
    assert capsys.readouterr() == ("", "malformed input: max_abelian must be a list of [tag, rank] "
                                       f"pairs, got {loaded!r}\n")


def test_gog_surface_case(tmp_path, capsys):
    path = emit(tmp_path, "n3-surface-gog")
    assert main(["gog", "principal", "--input", path]) == 0
    assert "essential-curve" in capsys.readouterr().out


# marked commands ---------------------------------------------------------------------


def z2_doc():
    return {
        "schema": SCHEMA,
        "group": {"kind": "free-abelian", "letters": ["p", "q"]},
        "marking": ["p", "q"],
        "letters": ["a", "b"],
    }


def test_marked_ball(tmp_path, capsys):
    path = write(tmp_path, "z2.json", z2_doc())
    assert main(["marked", "ball", "--input", path, "--radius", "4"]) == 0
    out = capsys.readouterr().out
    assert "8 relations" in out and "a'b'ab" in out


def test_marked_compare(tmp_path, capsys):
    from lambdaforest.cli_marked import z_marked

    a = write(tmp_path, "z1.json", z_marked(1))
    b = write(tmp_path, "z2t.json", z2_doc())
    assert main(["marked", "compare", "--a", a, "--b", b, "--radius", "1"]) == 0
    assert main(["marked", "compare", "--a", a, "--b", b, "--radius", "2"]) == 2
    assert "ab'" in capsys.readouterr().out


def test_marked_profile(tmp_path, capsys):
    path = emit(tmp_path, "z-to-z2-sequence")
    assert main(["marked", "profile", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "least index" in out


@pytest.mark.parametrize("op", ["ball", "compare", "profile"])
def test_marked_negative_radius_is_usage_error(tmp_path, capsys, op):
    z2 = write(tmp_path, "z2.json", z2_doc())
    inputs = {"ball": ["--input", z2], "compare": ["--a", z2, "--b", z2],
              "profile": ["--input", emit(tmp_path, "z-to-z2-sequence")]}
    assert main(["marked", op, "--radius", "-1"] + inputs[op]) == 64
    assert "must be a nonnegative integer" in capsys.readouterr().err


def test_marked_default_radius(tmp_path, capsys):
    z2 = write(tmp_path, "z2.json", z2_doc())
    assert main(["marked", "ball", "--input", z2]) == 0
    assert main(["marked", "compare", "--a", z2, "--b", z2]) == 0
    out = capsys.readouterr().out
    assert out == "0 relations at radius 3\nsame ball at R = 3: True\n"


@pytest.mark.parametrize("key,value", [("r_max", 0), ("r_max", -2), ("r_max", True),
                                       ("index_budget", 0), ("index_budget", False),
                                       ("index_budget", "8")])
def test_marked_profile_needs_positive_int(tmp_path, capsys, key, value):
    doc = presets.emit("z-to-z2-sequence")
    doc[key] = value
    assert main(["marked", "profile", "--input", write(tmp_path, "p.json", doc)]) == 65
    out, err = capsys.readouterr()
    assert out == "" and f"{key} must be a positive integer, got {value!r}" in err


def test_marked_profile_refuses_radius(tmp_path, capsys):
    path = emit(tmp_path, "z-to-z2-sequence")
    assert main(["marked", "profile", "--input", path, "--radius", "5"]) == 64
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "r_max" in err


def test_marked_profile_budget_cut_off(tmp_path, capsys):
    """The ball of radius 11 on two letters holds 354,292 words, past
    MAX_WORDS.  With 12 indices, index 10 agrees with the target up to
    length 10, so the profile reaches length 11 and is refused; with 9 no
    index gets there, and rows 10 and 11 find no agreeing index."""
    doc = presets.emit("z-to-z2-sequence")
    path = write(tmp_path, "p.json", {**doc, "r_max": 12, "index_budget": 12})
    assert main(["marked", "profile", "--input", path]) == 65
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "malformed input: ball enumeration exceeds 300000 words (n = 2, R = 11)\n"
    path = write(tmp_path, "p.json", {**doc, "r_max": 11, "index_budget": 9})
    assert main(["marked", "profile", "--input", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [f"{R:<3} {R}" for R in range(1, 10)] + ["10  inf", "11  inf"]


def test_marked_compare_equal_abelian_pair(tmp_path, capsys):
    a = write(tmp_path, "a.json", z2_doc())
    b = write(tmp_path, "b.json", {**z2_doc(), "marking": ["pq", "pqq"]})  # another basis
    assert main(["marked", "compare", "--a", a, "--b", b, "--radius", "7"]) == 0
    assert capsys.readouterr().out == "same ball at R = 7: True\n"


def test_marked_radius_zero(tmp_path, capsys):
    z2 = write(tmp_path, "z2.json", z2_doc())
    assert main(["marked", "ball", "--input", z2, "--radius", "0"]) == 0
    assert main(["marked", "compare", "--a", z2, "--b", z2, "--radius", "0"]) == 0
    assert capsys.readouterr().out == "0 relations at radius 0\nsame ball at R = 0: True\n"


def test_marked_duplicate_letters_are_malformed(tmp_path, capsys):
    # two marking words under one abstract letter leave its image ambiguous
    doc = {"schema": SCHEMA, "kind": "marked-group", "group": {"kind": "free", "letters": ["p"]},
           "marking": ["p", ""], "letters": ["a", "a"]}
    assert main(["marked", "ball", "--input", write(tmp_path, "dup.json", doc),
                 "--radius", "1"]) == 65
    out, err = capsys.readouterr()
    assert out == "" and "abstract marking letters must be distinct" in err


@pytest.mark.parametrize("letters", [["ab", "c"], ["a", "'"], ["a", " "], ["a", "."]])
def test_marked_letters_that_cannot_be_read_back_are_malformed(tmp_path, capsys, letters):
    # with letters ab and c, the relation ab'c would be read back as a b' c
    doc = {"schema": SCHEMA, "kind": "marked-group", "group": {"kind": "free", "letters": ["p"]},
           "marking": ["p", "p"], "letters": letters}
    assert main(["marked", "ball", "--input", write(tmp_path, "long.json", doc),
                 "--radius", "2"]) == 65
    out, err = capsys.readouterr()
    assert out == "" and "must be one character" in err


# a word is a string: a list of letters was once read as that word (exit 0), and an
# object failed with the bare message "malformed input: 0"
@pytest.mark.parametrize("word", [["p", "q"], {"p": 1}], ids=["list", "object"])
def test_marked_word_that_is_not_a_string_is_malformed(tmp_path, capsys, word):
    doc = {**z2_doc(), "marking": [word, "q"]}
    assert main(["marked", "ball", "--input", write(tmp_path, "w.json", doc),
                 "--radius", "2"]) == 65
    out, err = capsys.readouterr()
    assert out == "" and err == f"malformed input: a word must be a string, got {word!r}\n"


# marked ball, compare and profile on inline documents, pinned like the reports below:
# exit code and the sha256 of stdout, of stderr and of the --json report (None: none
# written)
def _marked_doc(kind, letters, marking, abstract):
    return {"schema": SCHEMA, "kind": "marked-group", "group": {"kind": kind, "letters": letters},
            "marking": marking, "letters": abstract}


def _profile_doc(r_max, budget):
    return {"schema": SCHEMA, "kind": "marked-profile", "family": {"kind": "z-marked"},
            "r_max": r_max, "index_budget": budget,
            "marked_target": {"group": {"kind": "free-abelian", "letters": ["p", "q"]},
                              "marking": ["p", "q"], "letters": ["a", "b"]}}


EMPTY_SHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
PINNED_MARKED = [
    ("ball-free-5", ["ball", "--input", "@in", "--radius", "5"],
     {"in": _marked_doc("free", ["x", "y"], ["x", "y'x", "xy'x'"], ["a", "c", "b"])}, 0,
     "492b255519c33b3386b32c986a9a3e892744bb7735c7d6ebd7428ac9de1a11e5", EMPTY_SHA,
     "cb3c65fa6195ef3eb9ab87a274c5c17043b3b5678c76a2a9f4209078e7d83f1e"),
    ("ball-abelian-7", ["ball", "--input", "@in", "--radius", "7"],
     {"in": _marked_doc("free-abelian", ["p", "q"], ["pp", "q'p"], ["b", "a"])}, 0,
     "53fffa1cd7db9a8c4e04621bbec14f0955849491c2e3e19a222da62601b1a9a3", EMPTY_SHA,
     "b18d623ed5abe5a19be0f0981e8900578448a5335aa458ed9c0a66b2b1aeb440"),
    ("compare-equal-7", ["compare", "--a", "@a", "--b", "@b", "--radius", "7"],
     {"a": z2_doc(), "b": _marked_doc("free-abelian", ["p", "q"], ["pq", "q"], ["a", "b"])}, 0,
     "317820e0123b3762557095bf5330ca7ce4059da98fcc5ab71bb1d5c24a37a8d4", EMPTY_SHA,
     "c10f0dd7e520a73fa46db1a7f3c3016c1ecdbfe3f9b6d80ab520d6d25cd06c13"),
    ("compare-diverge-7", ["compare", "--a", "@a", "--b", "@b", "--radius", "7"],
     {"a": z2_doc(), "b": _marked_doc("free-abelian", ["g"], ["g", "ggggg"], ["a", "b"])}, 2,
     "7fc3a164c2aef8bf17e9bb5492edce9325cefa760942d30d10a309d78b3aa974", EMPTY_SHA,
     "d44b77f6dfae47a073fd280a75721219234be34e2715a6c2c1c7d24884efe53c"),
    ("profile-8-7", ["profile", "--input", "@in"], {"in": _profile_doc(8, 7)}, 0,
     "2d661a09bba96b4f4949fc3da426071893e0aa2cfa427d8c97df6746346d4241", EMPTY_SHA,
     "ac0001980571bfd405706ea25b10b171001bb6a3aad7a55041849746228d6815"),
    ("profile-8-9", ["profile", "--input", "@in"], {"in": _profile_doc(8, 9)}, 0,
     "4f82a6aeee7fdc03ff907ee3373786be9b2306960326197ed85edf2c8a54e278", EMPTY_SHA,
     "832f1d5c2457c6dfba2d2158dbe199547b30e6505b358b0392b09703acd7de07"),
    # family member 10 first diverges at length 11, where the ball passes MAX_WORDS
    ("profile-budget-exceeded", ["profile", "--input", "@in"], {"in": _profile_doc(11, 10)}, 65,
     EMPTY_SHA, "dfcd3c338c5e875a6f87a5e1d443ea5f39c48ed2867719861fca8ee205a7b71a", None),
]


@pytest.mark.parametrize("name, argv, docs, rc, stdout_sha, stderr_sha, report_sha",
                         PINNED_MARKED, ids=[c[0] for c in PINNED_MARKED])
def test_pinned_marked_outputs(tmp_path, capsys, name, argv, docs, rc, stdout_sha, stderr_sha,
                               report_sha):
    argv = [write(tmp_path, a[1:] + ".json", docs[a[1:]]) if a.startswith("@") else a
            for a in argv]
    report = tmp_path / "report.json"
    assert main(["marked"] + argv + ["--json", str(report)]) == rc
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(err.encode()).hexdigest() == stderr_sha
    got = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
    assert got == report_sha


# presets ------------------------------------------------------------------------------


def test_preset_list_and_emit(tmp_path, capsys):
    assert main(["preset", "list"]) == 0
    out = capsys.readouterr().out
    for name in presets.names():
        assert name in out
    target = tmp_path / "out.json"
    assert main(["preset", "emit", "--name", "tripod", "--out", str(target)]) == 0
    doc = json.loads(target.read_text())
    assert doc["schema"] == SCHEMA
    assert main(["preset", "emit", "--name", "tripod"]) == 0  # without --out, to stdout
    assert capsys.readouterr().out == target.read_text()


def test_every_preset_carries_schema():
    for name in presets.names():
        assert presets.emit(name)["schema"] == SCHEMA


# deterministic reports ----------------------------------------------------------------


def test_json_report_is_deterministic(tmp_path):
    square = emit(tmp_path, "square-cycle")
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["validate-tree", "--input", square, "--json", str(r1)]) == 2
    assert main(["validate-tree", "--input", square, "--json", str(r2)]) == 2
    assert r1.read_bytes() == r2.read_bytes()
    body = json.loads(r1.read_text())
    assert body["status"] == "violation" and body["kind"] == "four-point"
    assert "input_digest" in body


# pinned outputs: sha256 of the --json report and of stdout ---------------------------

PINNED = [
    ("schottky-qt", ["bt", "certify"], 0,
     "d96060d19b9dae887cea72df242e9c28308bc44d88525a42c348e58f62c9bc45",
     "a7d7f0b703fd196ceb94c23df91700c62d356b5df9a693247cf3af1dc2af0652"),
    ("unipotent-fail", ["bt", "certify"], 2,
     "6e958c1ae56439a21930a6b2c6dd34bf9c4a5d3fa305cf83a29862666a913958",
     "acb3464da9e421440efbfa4ac415b18e9c26d16e76362a1d39ea10543c155be9"),
    ("z2-diagonal", ["bt", "certify"], 0,
     "6f9d7cece116f7fff72ec8bd45db83214016d6b5baf876cb7f8a09a0aa0dc805",
     "eb568dd33bec8c9845aa3db72628daf54cf2bf3aca17047962bacfb51ce602ac"),
    ("centralizer-extension-gog", ["gog", "acyl", "--radius", "5", "--window", "4"], 0,
     "3e515a8cae342514f9cc68d10a2cd86e55a8f5b5cd4eef9a0eef8cc1cf7cd503",
     "71eba6c7903da3703a015e40ee5fd0556f7b038f296843e2536c9e958bd84ee7"),
    ("n3-surface-gog", ["gog", "acyl", "--radius", "5", "--window", "4"], 0,
     "40e61200f356999bb0a646c5e8892a132ab638b3aaa99a85b6558e7ecc6497e8",
     "71eba6c7903da3703a015e40ee5fd0556f7b038f296843e2536c9e958bd84ee7"),
    ("z-to-z2-sequence", ["marked", "profile"], 0,
     "ebdc4d8fc79754a85e83885c43f8279674671a369690e532461574f9ddfd6df0",
     "e395317c591ef229bd8d235b267b64b961acad2d24604c29fd74ecacc8f36789"),
]


@pytest.mark.parametrize(
    "preset_name, argv, rc, report_sha, stdout_sha", PINNED, ids=[c[0] for c in PINNED]
)
def test_pinned_outputs(tmp_path, capsys, preset_name, argv, rc, report_sha, stdout_sha):
    report = tmp_path / "report.json"
    path = emit(tmp_path, preset_name)
    assert main(argv + ["--input", path, "--json", str(report)]) == rc
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha


# the bt word commands and a Q_p certificate with rational entries (D = 6, p = 3),
# pinned like the reports above
QP_DOC = {"schema": SCHEMA, "kind": "matrix-group", "field": "Qp", "p": 3,
          "generators": {"a": [["3/2", "0"], ["0", "2/3"]],
                         "b": [["7/3", "-5/6"], ["5/3", "-1/6"]]}}
PINNED_BT = [
    ("z2-diagonal", ["bt", "length", "--word", "uuuv'"],
     "d2937988cda5602514d6c6f6733b583e7fefa8d26899826a4b3d0874ceded855",
     "53da278c7a700eed5a6ad3d4eec1fe05c3a09354f2a71468e551c89ca49fa86e"),
    ("z2-diagonal", ["bt", "valuation", "--word", "uv'"],
     "6e44835b34ad8cbbe7e77cf12e356b052e1e97b4be1bfa8c5006d709348f02c5",
     "958c8994144aa04648a66c0fe3726bdee0d8b4e92c7132d5a21c8516d82620ca"),
    ("schottky-qt", ["bt", "length", "--word", "ab'"],
     "42a01b8191d272ea170573ddfa8d2499066eacdb39e9b07d338b643ac2428396",
     "b2abffe99e7af4ef7525b22e00b7fcfaacea51e89c08822d2ed3707b026d8c93"),
    ("schottky-qt", ["bt", "valuation", "--word", "ab"],
     "6b896fdc83b9e902dfde8e80fe9789fa627e170c5063cd0194d452e743358ede",
     "31604a6bf688124c4bfdd13f7caea76a20edbfa74c508412d7153c90088ccff6"),
    ("qp-rational", ["bt", "certify", "--ball", "5"],
     "26f3abc5f25a84ca44938cd77bc6a446f7e9346fa0dda3daae2f224b6ce1c5ac",
     "eed51aa02d159c056d1b52eb963f945b3ea905f32b925c8dac52b205d0f9a4ba"),
]


@pytest.mark.parametrize("name, argv, report_sha, stdout_sha", PINNED_BT,
                         ids=[f"{c[0]}-{c[1][1]}" for c in PINNED_BT])
def test_pinned_bt_outputs(tmp_path, capsys, name, argv, report_sha, stdout_sha):
    report = tmp_path / "report.json"
    path = write(tmp_path, "qp.json", QP_DOC) if name == "qp-rational" else emit(tmp_path, name)
    assert main(argv + ["--input", path, "--json", str(report)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha


# validate-tree on the square-cycle preset, a 32-point pass (the most points
# whose violations the exhaustive scan reports), a pass and a violation on 40
# points, and one document per violation kind, pinned like the reports above
def _metric_doc(labels, rows, rank):
    return {"schema": SCHEMA, "kind": "metric", "rank": rank, "labels": labels,
            "dist": [[[str(c) for c in d] for d in row] for row in rows]}


def _tree_metric(n, stretch=()):
    """Rank-2 distances between the n vertices of a fixed tree, with
    infinitesimal edges, rational and negative lower coordinates; the
    distance of each pair of vertex numbers in `stretch` grows by (0, 1/2)."""
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        top = i % 3
        low = Fraction(i % 4 + 1, 1 + i % 2) if top == 0 else Fraction(-(i % 5), 1 + i % 3)
        edges.append((names[i], names[(i * i + 3) % i], LexValue([top, low])))
    T = MetricTree(names, edges, 2)
    d = [[distance(T, Vertex(a), Vertex(b)) for b in names] for a in names]
    for i, j in stretch:
        d[i][j] = d[j][i] = d[i][j] + LexValue([0, Fraction(1, 2)])
    return {"schema": SCHEMA, "kind": "metric", **FiniteLambdaMetric(names, d, 2).to_json()}


def _violation(kind):
    # a quartet tree ab|cd with leaves at (1, 0) from x (a, b) and y (c, d, e),
    # x-y of length (1, 0); each kind edits one entry or a symmetric pair
    labels = ["a", "b", "c", "d", "e"]
    side = {"a": 0, "b": 0, "c": 1, "d": 1, "e": 1}
    rows = [[(0, 0) if p == q else (2, 0) if side[p] == side[q] else (3, 0) for q in labels]
            for p in labels]
    if kind == "nonzero-diagonal":
        rows[2][2] = (0, "1/2")
    elif kind == "asymmetry":
        rows[1][3] = (3, "1/3")
    elif kind == "non-separation":
        rows[3][4] = rows[4][3] = (0, 0)
    elif kind == "triangle-inequality":
        rows[0][4] = rows[4][0] = (5, 1)
    else:  # four-point: d(b, d) stretched by an infinitesimal
        rows[1][3] = rows[3][1] = (3, "1/2")
    return _metric_doc(labels, rows, 2)


VALIDATE_KINDS = ["nonzero-diagonal", "asymmetry", "non-separation", "triangle-inequality",
                  "four-point"]
PINNED_VALIDATE = [
    ("square-cycle", 2,
     "bcb0fc2d1ecb69443bfae7e9d737d74ad01f7307e81d1beb453e443d895345ec",
     "09c1cc60da225d2cbfb0b22f1c7769d79261f0cbf67e7044489f7cde34919b02"),
    ("pass-32", 0,
     "e3e4578b82964cf6ce3fb4a58d90885d3da1b2e7971659a26fdbe749c2037b45",
     "bd230b0516865fd4ecccd042abda93af5816b533dac3483cd63738381d42a6a2"),
    ("pass-40", 0,
     "b6c1371e4862cb9f09e0ee2d73843e2adf390502da8619f7f6c8be11d36f5f85",
     "bd230b0516865fd4ecccd042abda93af5816b533dac3483cd63738381d42a6a2"),
    ("violation-40", 2,
     "b1e079806c7875737bb59d70eea2d0be7d32d4eb3a9a1d365cc1759ad63e97d1",
     "f4cac91ee59cfdd3c0cb180c44cef2b0e5ecb8100101c25e3b8eace3cd0c5884"),
    ("nonzero-diagonal", 2,
     "4662635586ee66e8e8bfd1eff72533ff203854dcea5c13a4388f850d242a1509",
     "bc34f1f9317358b6043a6930dd8bc7adaddd47f2600e4b5f312e92ba4057cf5f"),
    ("asymmetry", 2,
     "3855c5532ac77232d73ab6120cff8b9d4677367cb83fcf544a7c35092b121b3d",
     "b5508259af0ae02ce5d2f2bc723fdc09bf72ccdaddd36a1f7bd1928ec14f3a3f"),
    ("non-separation", 2,
     "dd1cd1e0f5841e01b6bfc8f6c116735fcf3293cd3b60895602ec2b3d65d5667f",
     "c3648160fe8ff32febc79ba625cc444af182684b8fff284580fbdb733d4ff026"),
    ("triangle-inequality", 2,
     "ec148b0f2b7cf213d6b08e0361f5a52cb84e9d6f7dda0327663f65f6fd3dbf2e",
     "27296b59ebfba7de7515836ad052b9cc92527f6afe999e35447d8d57745c04ed"),
    ("four-point", 2,
     "d3a1b7af063fcd8e8e92d1774a2a3806cdf6b77eb7d11531e8175fd8eb0c0075",
     "92edbb0402d303e2ba4e25b9567d8d76a212d50b869b3cea0b6b73f21ad54637"),
]


@pytest.mark.parametrize("name, rc, report_sha, stdout_sha", PINNED_VALIDATE,
                         ids=[c[0] for c in PINNED_VALIDATE])
def test_pinned_validate_outputs(tmp_path, capsys, name, rc, report_sha, stdout_sha):
    docs = {"square-cycle": lambda: presets.emit("square-cycle"), "pass-32": lambda: _tree_metric(32),
            "pass-40": lambda: _tree_metric(40),
            "violation-40": lambda: _tree_metric(40, [(17, 36)])}
    doc = docs[name]() if name in docs else _violation(name)
    report = tmp_path / "report.json"
    assert main(["validate-tree", "--input", write(tmp_path, "m.json", doc),
                 "--json", str(report)]) == rc
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha


# tree queries, F2 window jobs, gluings of a 3-tree chain and coverings, pinned
# like the reports above; the documents are inline, so no preset edit moves them
def _tree_doc(rank, edges):
    verts = sorted({v for e in edges for v in e[:2]})
    return {"schema": SCHEMA, "kind": "tree", "rank": rank, "vertices": verts,
            "edges": [{"u": u, "v": v, "len": list(ln)} for u, v, ln in edges]}


def _tripod():
    return _tree_doc(1, [("o", "p", ["1"]), ("o", "q", ["1"]), ("o", "r", ["1"])])


def _rank2():
    """A rank-2 tree with infinitesimal edges and negative lower coordinates."""
    return _tree_doc(2, [("r", "a", ["1", "0"]), ("a", "b", ["0", "1/2"]),
                         ("a", "c", ["1", "-2"]), ("r", "d", ["0", "3"]),
                         ("d", "e", ["2", "1/3"]), ("d", "f", ["0", "1"]),
                         ("f", "g", ["1/2", "0"])])


def _f2_window(radius):
    """Ball about e in the Cayley tree of F(a, b), a and b acting on the left;
    vertex ids spell reduced words, capitals for inverses."""
    inv = {"a": "A", "A": "a", "b": "B", "B": "b"}
    words, edges, frontier = [""], [], [""]
    for _ in range(radius):
        nxt = [w + x for w in frontier for x in "aAbB" if not (w and w[-1] == inv[x])]
        edges += [(w[:-1] or "e", w, ["1"]) for w in nxt]
        words += nxt
        frontier = nxt
    gens = {}
    for g in "ab":
        imgs = {w: w[1:] if w and w[0] == inv[g] else g + w for w in words}
        gens[g] = {w or "e": imgs[w] or "e" for w in words if len(imgs[w]) <= radius}
    return {"schema": SCHEMA, "kind": "action-window", "tree": _tree_doc(1, edges),
            "generators": gens}


def _chain3():
    def branched(p):
        # a path p0 - p1 - p2 - p3 - p4 with a side arm p2 - px
        return _tree_doc(1, [(f"{p}{i}", f"{p}{i + 1}", ["1"]) for i in range(4)]
                         + [(f"{p}2", f"{p}x", ["1/2"])])

    trees = {"A": branched("a"), "B": branched("b"), "C": branched("c")}
    edges = [{"from": "A", "to": "B", "ends_from": ["a2", "a4"], "ends_to": ["b0", "b2"]},
             {"from": "B", "to": "C", "ends_from": ["b3:b4:1/2", "b4"],
              "ends_to": ["c0", "c0:c1:1/2"]}]
    return {"schema": SCHEMA, "vertex_trees": trees, "edges": edges,
            "attestations": {"A": "free", "B": "free", "C": "free"},
            "samples": [{"vertex": "A", "point": "a3"}, {"vertex": "B", "point": "b1:b2:1/4"},
                        {"vertex": "C", "point": "c0"}]}


def _glue_pair():
    chain = _chain3()["vertex_trees"]
    return {"schema": SCHEMA, "tree1": chain["A"], "tree2": chain["B"],
            "ends1": ["a1:a2:1/2", "a3"], "ends2": ["b0", "b1:b2:1/2"]}


def _wedge():
    chain = _chain3()["vertex_trees"]
    return {"schema": SCHEMA, "base": chain["A"],
            "attachments": [{"tree": chain["B"], "x": "a2", "y": "b4"},
                            {"tree": chain["C"], "x": "ax", "y": "c1"}]}


def _cover(members):
    return lambda: {"schema": SCHEMA, "tree": _tripod(), "members": members}


def _mixed_wedge():
    """A base with int and string ids (10 and "10" both), an attachment of
    ints at int 10 and one of strings, some spelled as in the base, at "a"."""
    def tree(ids, edges):
        return {"rank": 1, "vertices": ids,
                "edges": [{"u": u, "v": v, "len": [ln]} for u, v, ln in edges]}

    base = tree([2, 10, 1, "a", "b", "10"], [(1, 2, "1"), (2, 10, "1/2"), (10, "a", "2"),
                                             ("a", "b", "1"), (1, "10", "3/2")])
    ints = tree([0, 1, 2, 11], [(0, 1, "1"), (1, 2, "1/3"), (1, 11, "2")])
    strs = tree(["a", "b", "c"], [("a", "b", "1"), ("b", "c", "1/2")])
    return {"schema": SCHEMA, "base": base,
            "attachments": [{"tree": ints, "x": 10, "y": 1}, {"tree": strs, "x": "a", "y": "c"}]}


def _rank2_pair(ends1, ends2):
    """The rank-2 tree and a copy with every id prefixed z, glued along
    segments with interior ends."""
    t1 = _rank2()
    t2 = {**t1, "vertices": ["z" + v for v in t1["vertices"]],
          "edges": [{**e, "u": "z" + e["u"], "v": "z" + e["v"]} for e in t1["edges"]]}
    return lambda: {"schema": SCHEMA, "tree1": t1, "tree2": t2, "ends1": ends1, "ends2": ends2}


GEOMETRY_DOCS = {
    "tripod": _tripod, "rank2": _rank2, "f2-window": lambda: _f2_window(3),
    "chain3": _chain3, "glue-pair": _glue_pair, "wedge": _wedge,
    "cover": _cover([["o", "p"], ["o", "q"], ["o", "r"]]),
    "cover-interior": _cover([["p", "o:q:1/2"], ["o:q:1/2", "q"], ["o", "r"]]),
    "mixed-wedge": _mixed_wedge,
    "rank2-pair": _rank2_pair(["a:b:0,1/4", "d:e:1,0"], ["zd:ze:1,0", "za:zb:0,1/4"]),
    "rank2-pair-skew": _rank2_pair(["a:b:0,1/4", "r:d:0,1"], ["zd:zf:0,1/4", "zd:ze:1,1"]),
}
PINNED_GEOMETRY = [
    ("tripod-distance", "tripod", ["tree", "distance", "--x", "o:p:1/2", "--y", "q"], 0,
     "0c747c942319062c6b6629ce5cf0c02fe1c609767ae069b4ec1177b5d823715c",
     "3c4f2146abb29d19688bf376dc81caf87fc27d279fb4f76bef7904a6320d7a91"),
    ("tripod-distance-same-edge", "tripod",
     ["tree", "distance", "--x", "o:p:1/4", "--y", "p:o:1/4"], 0,
     "faffc5794a8e352c97e0c4549f34e3011fd05ed3805d0ab0005c7f19d8d0b708",
     "483ae13d24b6c1436f5acdfd3d8678a3c389667ce6f4a462a99adfff3c0e0ff5"),
    ("tripod-median", "tripod",
     ["tree", "median", "--x", "o:p:1/2", "--y", "q", "--z", "r"], 0,
     "cdc8ea8b6da794913dd7ac573c56a0918078087eb620467dd0fda50e198e2de1",
     "e6dd39e276f8c20837e514465c2200cb3a2c1cbdcd9bf85219cd098f0ad8d129"),
    ("tripod-median-interior", "tripod",
     ["tree", "median", "--x", "q", "--y", "p", "--z", "o:p:1/2"], 0,
     "c079d633c43483e1dfa03b689b4979f30471e3b8ff71eda346832c341fbb25d9",
     "c0d96b6294a50ab623d400f16cfb09d8063f24eac439027c0ca7f1dee9b7ac99"),
    ("tripod-project", "tripod",
     ["tree", "project", "--x", "p", "--y", "o:q:1/2", "--z", "o:r:1/3"], 0,
     "b4395284df062f3da292ebed028f991f0f404ffb46f722d48208488d95dc1602",
     "441be6bda5affacdc3e8c0d2c0592dc0f10822c88c69b006f7a36bf0338a30d0"),
    ("tripod-project-interior", "tripod",
     ["tree", "project", "--x", "p", "--y", "o:q:1/2", "--z", "q"], 0,
     "33e60fd6ed96417060b03eb47be9603535eaff54d24c7d19e74641c0f24ec62c",
     "7a0dada65a30218c7f81a9067b081f859b8bb31d30b805e9287c7d67788463df"),
    ("rank2-distance", "rank2", ["tree", "distance", "--x", "a:b:0,1/4", "--y", "d:e:1,0"], 0,
     "59f52560fa9653c019bc556046facc7b4fe35b7dde6b1d8fed85ddb886945820",
     "85339d2a64dda2f260925f80c2643e20a8c7a176e1552936829ef0b50a3c2c14"),
    ("rank2-median", "rank2",
     ["tree", "median", "--x", "b", "--y", "a:c:1/2,0", "--z", "f:g:1/4,0"], 0,
     "4e4ec1a14ccbbf943145b609a3b8cfc0816c530f6e6a9f326302ce731b40a13f",
     "4b16b79d0d03894913ff5018ec12781b979d5a5706db41ffa6f2d77e00a847b3"),
    ("rank2-median-interior", "rank2",
     ["tree", "median", "--x", "c", "--y", "f:g:1/4,0", "--z", "a:c:1/2,0"], 0,
     "5ce6f73caabafbccc72b78961a606bf578eba2a50a4e5541e0eafbc50314c354",
     "385b56db30b3c313f57f1d32f17e387b8e80b9311d0e4162554312c7c187cb82"),
    ("rank2-project", "rank2",
     ["tree", "project", "--x", "c", "--y", "d:f:0,1/2", "--z", "e"], 0,
     "9f7987ed675d8e4d35b5c8772a3adca9cc370b5873aff162f32443bd9d6d2de4",
     "397b9e2bb17c686024cfa826a51f8a87234b474e38141adf83d54fe71b28f25b"),
    ("isom-classify", "f2-window", ["isom", "classify", "--base", "e", "--word", "ab"], 0,
     "bfac45613c28415eecf31af7eb8d6e750ada85747261e8ca6e4abc4f32235e12",
     "76d8e7c9903ddcec9c8fcea17f64b6acf68ee15e04866c0002128f05ade22e44"),
    ("isom-classify-interior", "f2-window",
     ["isom", "classify", "--base", "e:a:1/2", "--word", "ba'"], 0,
     "bfac45613c28415eecf31af7eb8d6e750ada85747261e8ca6e4abc4f32235e12",
     "76d8e7c9903ddcec9c8fcea17f64b6acf68ee15e04866c0002128f05ade22e44"),
    ("isom-classify-inconclusive", "f2-window",
     ["isom", "classify", "--base", "e", "--word", "abab"], 3,
     "f5bd8250ac6ff900da01a88fe38fbc7864a9bc85023b01532d70a7bb7abd06cd",
     "87e914d4cb08d1ffb51855738a368a0abdab5513088158cb697406eda27baab0"),
    ("isom-certify", "f2-window", ["isom", "certify", "--base", "e", "--ball", "2"], 0,
     "a46464f9a50163b9ea587da3a9d337e9988f8c755a44abbd6af7ff0f2c07a41a",
     "8d1dedaa648898fac0571ced479625d5478d6fdb1c901540c052999ec0bd9d9e"),
    ("isom-certify-inconclusive", "f2-window",
     ["isom", "certify", "--base", "e", "--ball", "3"], 3,
     "76fdfe395eec4f43b989ffa3855647426b09a4627611cebb8f33a415880f95d9",
     "be7c89dbbd8f7dd2055c3a4c8fdff497f1a73ab6edf90e68f56a83665352ba9e"),
    ("glue-point", "wedge", ["glue", "point"], 0,
     "b541e035338566155f7870648c86a8e7c3a1d52eecef37968b6a95bd94d58603",
     "491387c8a53685d36429a0c5a0512cbbae43f0c5b9dd36a9821dc662fe114d17"),
    ("glue-subtree", "glue-pair", ["glue", "subtree"], 0,
     "8267c0269a74f365b6901fcf17a66fb5a353760ee6d06cc234f5e81a0dff3e91",
     "61525623642ee11b7d863b8af789e6d6fb7cf1f956a411a2ad82f072b2234111"),
    ("glue-dual", "chain3", ["glue", "dual", "--a", "A/a0", "--b", "C/c3:c4:1/2"], 0,
     "6bfeec07ae38b40a4e5985756c9068bdeebacad055975c6de980c84a60703b71",
     "f67cab3f708da518e3e12e3ad4249340d8395c8629f7b89feb38c9edd91897fe"),
    ("glue-check-free", "chain3", ["glue", "check-free"], 0,
     "286c67da9309dd4355f4ff55255323779b20ce0a3744294549a99f066a4dd85a",
     "9a406dcce506be2ea3b01b72846827a31c88f95d787f687160b447f04142810f"),
    ("glue-point-mixed-ids", "mixed-wedge", ["glue", "point"], 0,
     "a4f4660d6e1c3d527e4d9183234a0abfcca6ff2b4f6d9919d606a62c802133ca",
     "a5f020615f7360e1b20e3dd89d1da4e586a3596bc769b6b8720fd327906152dc"),
    ("glue-subtree-rank2", "rank2-pair", ["glue", "subtree"], 0,
     "a576a9e4df88ec9bf7cbca2420905736f1ac46383d8f25980e7ae95da666f64a",
     "484a9ff0906702a8ff2dbc3ff356a6ab9a5d681ee265f0f09da20d6296fd4df8"),
    ("glue-subtree-rank2-skew", "rank2-pair-skew", ["glue", "subtree"], 0,
     "7b5db15e6f11495ad62dd9def0748750650ef3d00638c16578bdce1960c78f51",
     "3a7a85af5dc85b4c7207a059d746f515f4fc3eebcc0a1487624563bc69845a58"),
    ("cover-check", "cover", ["cover", "check"], 0,
     "07cb3cacc7811022d3fcf8139ac53d45ff8907eca6f0d2e88e179409544526e4",
     "fc5ed0197d19a1f8f9e6a616bc6026662477a9195a82eae939ea8c84695cdd6c"),
    ("cover-skeleton", "cover", ["cover", "skeleton"], 0,
     "9573bf44dfefb5c025c3f075bc43a83452bf68ffd291af2338e3cc678fa0a674",
     "f55e3d0b88bea9567e29b7e8ddf0b8eed0e0e7577c73bb1a35eba1efe4b2ee7f"),
    ("cover-check-interior", "cover-interior", ["cover", "check"], 0,
     "6faa227de9cf1cce12f6f17502e200cb34a088ea9b772c49513bd7ace21b99fe",
     "fc5ed0197d19a1f8f9e6a616bc6026662477a9195a82eae939ea8c84695cdd6c"),
    ("cover-skeleton-interior", "cover-interior", ["cover", "skeleton"], 0,
     "94b99d9246d4439bcd91ae418096a46df817b525a0a126691bb8bd57e8fa8f31",
     "944c01ed574d547f13c4dca841501dc4218aafa7b0f0d01d449d5043740b2c7f"),
]


@pytest.mark.parametrize("name, doc, argv, rc, report_sha, stdout_sha", PINNED_GEOMETRY,
                         ids=[c[0] for c in PINNED_GEOMETRY])
def test_pinned_geometry_outputs(tmp_path, capsys, name, doc, argv, rc, report_sha, stdout_sha):
    report = tmp_path / "report.json"
    path = write(tmp_path, "in.json", GEOMETRY_DOCS[doc]())
    assert main(argv[:2] + ["--input", path] + argv[2:] + ["--json", str(report)]) == rc
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha


# isom certify walks the ball through the same inverse filter as bt certify:
# its verdict lines on F2 windows, passes and aborts, spelled out
F2_WINDOW_CERTIFY = [
    (3, "e", 2, 0, "free on ball N = 2 (16 words)"),
    (3, "e:a:1/2", 2, 0, "free on ball N = 2 (16 words)"),
    (2, "e", 1, 0, "free on ball N = 1 (4 words)"),
    (3, "e", 3, 3,
     "inconclusive: oracle inconclusive on aab: midpoint image leaves window at prefix aa"),
    (2, "e", 2, 3,
     "inconclusive: oracle inconclusive on ab: midpoint image leaves window at prefix ab"),
    (2, "a", 2, 3, "inconclusive: oracle inconclusive on ab: word leaves window at prefix ab"),
]


@pytest.mark.parametrize("radius, base, ball, rc, line", F2_WINDOW_CERTIFY)
def test_isom_certify_lines_on_f2_windows(tmp_path, capsys, radius, base, ball, rc, line):
    path = write(tmp_path, "f2.json", _f2_window(radius))
    assert main(["isom", "certify", "--input", path, "--base", base, "--ball", str(ball)]) == rc
    assert capsys.readouterr().out == line + "\n"
