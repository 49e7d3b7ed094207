"""Each command loads exactly the library modules it runs and the handler
module of its own family, importing the package loads none, and no command
loads `dataclasses` (or the `inspect` it imports), whose import alone costs a
short job about 10 ms, nor `_hashlib`, which loads OpenSSL for the input
digest, about 2 ms, nor `argparse` (and the `gettext` and `locale` it pulls
in), which only --help and usage errors need, nor the `json` package, whose
import compiles six regular expressions, 1-2 ms, where cli reads and
writes through json's C accelerator alone; and only the commands that
compute with rationals load `fractions` (and the `decimal` and `numbers` it
imports), about 2 ms: `bt` on a document of integer coefficients does not.
Every case runs in a fresh interpreter, because the test process has
imported the whole library already.  Without bytecode
caches every job compiles the source it loads, so the lines each command
family loads are held to their figure here."""

import gc
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from conftest import DOCUMENTS
from lambdaforest import presets

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# run main on argv, then print its exit code, the loaded lambdaforest modules
# and which of the stdlib modules named here the import of cli and main loaded;
# it imports json to print only after reading that set
RUN_MAIN = """
import sys
before = set(sys.modules)
from lambdaforest.cli import main
rc = main(sys.argv[1:])
mods = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("lambdaforest."))
new = [m for m in ("dataclasses", "inspect", "_hashlib", "argparse", "gettext", "locale",
                   "fractions", "decimal", "numbers", "json", "json.decoder")
       if m in sys.modules and m not in before]
import json
print(json.dumps([rc, mods, new]))
"""
RATIONAL = ["fractions", "decimal", "numbers"]
# the digest takes sha256 from hashlib, and so loads _hashlib, only where the
# interpreter has neither built-in module: _sha2 (3.12 on) or _sha256
BUILTIN_SHA = any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256"))


def _env():
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def fresh(code, *argv):
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


MARKED = {"schema": "lambda-forest/1", "kind": "marked-group",
          "group": {"kind": "free", "letters": ["p", "q"]}, "marking": ["p", "pq"],
          "letters": ["a", "b"]}


INLINE = {"marked": MARKED, **DOCUMENTS}

# every command but preset builds records, so loads frozen, their base
TREE = {"cli", "frozen", "lambdatree", "ordgroup"}
VALIDATE, QUERY = {"cli", "cli_validate", "frozen", "lambdatree"}, TREE | {"cli_tree"}
ISOM = TREE | {"cli_isom", "groups", "isometry"}
GLUE, COVER = TREE | {"cli_glue", "gluing"}, TREE | {"cli_cover", "cover"}
BT = {"cli", "cli_bt", "bruhat", "frozen", "groups", "ordgroup"}
GOG = {"cli", "cli_gog", "devissage", "frozen", "groups"}
MARKED_BALL = {"cli", "cli_marked", "frozen", "groups", "markedgroups"}
PRESET = {"cli", "cli_preset", "presets"}

# argv (an @name is replaced by the path of that preset, or of that INLINE
# document), exit code, and the lambdaforest modules the command loads
CASES = {
    "validate-tree": (["validate-tree", "--input", "@square-cycle"], 2, VALIDATE),
    "tree distance": (["tree", "distance", "--input", "@tripod", "--x", "p", "--y", "q"], 0,
                      QUERY),
    "tree median": (["tree", "median", "--input", "@tripod", "--x", "p", "--y", "q",
                     "--z", "r"], 0, QUERY),
    "tree project": (["tree", "project", "--input", "@tripod", "--x", "p", "--y", "q",
                      "--z", "r"], 0, QUERY),
    "isom classify": (["isom", "classify", "--input", "@f2-window", "--base", "e",
                       "--word", "a"], 3, ISOM),
    "isom certify": (["isom", "certify", "--input", "@f2-window", "--ball", "1"], 3, ISOM),
    "glue point": (["glue", "point", "--input", "@two-trees"], 0, GLUE),
    "glue subtree": (["glue", "subtree", "--input", "@tree-pair"], 0, GLUE),
    "glue dual": (["glue", "dual", "--input", "@chain", "--a", "A/a0", "--b", "B/b1"], 0,
                  GLUE),
    "glue check-free": (["glue", "check-free", "--input", "@chain"], 0, GLUE),
    "cover check": (["cover", "check", "--input", "@tripod-cover"], 0, COVER),
    "cover skeleton": (["cover", "skeleton", "--input", "@tripod-cover"], 0,
                       COVER),
    "bt valuation": (["bt", "valuation", "--input", "@z2-diagonal", "--word", "uv"], 0, BT),
    "bt length": (["bt", "length", "--input", "@z2-diagonal", "--word", "uv"], 0, BT),
    # ball certification needs isometry and its class pass, but none of the tree code
    "bt certify": (["bt", "certify", "--input", "@unipotent-fail"], 2,
                   BT | {"isometry", "conjugacy"}),
    "gog structure": (["gog", "structure", "--input", "@centralizer-extension-gog"], 0, GOG),
    "gog acyl": (["gog", "acyl", "--input", "@centralizer-extension-gog"], 0, GOG),
    "gog betti": (["gog", "betti", "--input", "@centralizer-extension-gog"], 0, GOG),
    "gog principal": (["gog", "principal", "--input", "@n3-surface-gog"], 0, GOG),
    "marked ball": (["marked", "ball", "--input", "@marked", "--radius", "2"], 0, MARKED_BALL),
    "marked compare": (["marked", "compare", "--a", "@marked", "--b", "@marked"], 0,
                       MARKED_BALL),
    "marked profile": (["marked", "profile", "--input", "@z-to-z2-sequence"], 0, MARKED_BALL),
    "preset list": (["preset", "list"], 0, PRESET),
    "preset emit": (["preset", "emit", "--name", "tripod"], 0, PRESET),
}
# the families that compute with no rational, so load neither fractions nor
# decimal: validate-tree reads a plain table on int rows, the rank behind gog
# betti eliminates without dividing, and bt keeps the integer entries of its
# cases' documents as ints
NO_RATIONAL = {"validate-tree", "gog", "marked", "preset", "bt"}
HANDLERS = {"cli_validate", "cli_tree", "cli_isom", "cli_glue", "cli_cover", "cli_bt", "cli_gog",
            "cli_marked", "cli_preset"}


def _paths(tmp_path, argv):
    out = []
    for a in argv:
        if a.startswith("@"):
            doc = INLINE[a[1:]] if a[1:] in INLINE else presets.emit(a[1:])
            path = tmp_path / f"{a[1:]}.json"
            path.write_text(json.dumps(doc))
            a = str(path)
        out.append(a)
    return out


# every --json report opens with one header: the command and op, the digest
# of the --input document exactly where there is one, and the exit code's status
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_header(tmp_path, capsys, case):
    from lambdaforest.cli import _digest, main

    argv, rc, _modules = CASES[case]
    argv = _paths(tmp_path, argv)
    report = tmp_path / "report.json"
    if case == "preset emit":  # it writes a document, not a report: a usage error
        assert main(argv + ["--json", str(report)]) == 64
        assert not report.exists()
        return
    assert main(argv + ["--json", str(report)]) == rc
    body = json.loads(report.read_text())
    assert body["command"] == case and body["schema"] == "lambda-forest/1"
    assert body["status"] == {0: "pass", 2: "violation", 3: "inconclusive"}[rc]
    if "--input" in argv:
        with open(argv[argv.index("--input") + 1], encoding="utf-8") as fh:
            assert body["input_digest"] == _digest(json.load(fh))
    else:
        assert "input_digest" not in body


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_loads_only_what_it_runs(tmp_path, case):
    argv, rc, expected = CASES[case]
    got_rc, loaded, stdlib = fresh(RUN_MAIN, *_paths(tmp_path, argv))
    assert got_rc == rc
    assert stdlib == ([] if BUILTIN_SHA else ["_hashlib"]) + (
        [] if argv[0] in NO_RATIONAL else RATIONAL)
    assert set(loaded) == expected
    assert len(HANDLERS & set(loaded)) <= 1  # never another family's handler module


# argparse words --help and usage errors, so those alone load it
@pytest.mark.parametrize("argv, rc", [(["--help"], 0), (["tree", "--help"], 0), ([], 64),
                                      (["validate-tree", "--inp", "x", "--json"], 64),
                                      (["gog", "acyl", "--input", "x", "--radius", "0"], 64)])
def test_only_help_and_usage_errors_load_argparse(argv, rc):
    got_rc, loaded, stdlib = fresh(RUN_MAIN, *argv)
    assert got_rc == rc
    assert "argparse" in stdlib and set(loaded) == {"cli", "cli_usage"}


# the rank behind gog betti eliminates without dividing, so no gog command
# pays for importing fractions (about 2.6 ms), on a document other than the
# load-set cases' too
@pytest.mark.parametrize("op", ["structure", "acyl", "betti", "principal"])
def test_gog_commands_do_not_load_fractions(tmp_path, op):
    argv = ["gog", op, "--input", "@centralizer-extension-gog"]
    got_rc, _loaded, stdlib = fresh(RUN_MAIN, *_paths(tmp_path, argv))
    assert got_rc == 0 and not set(RATIONAL) & set(stdlib)


def _bench_documents():
    """One bt-ball benchmark document of each kind, by kind."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import jobs
    finally:
        sys.path.remove(os.path.join(ROOT, "perfbench"))
    return {job.kind: job.files["in"] for job in jobs.build("bt-ball", 1)}


# a Q_p document of integer entries
QP_INTEGRAL = {"schema": "lambda-forest/1", "kind": "matrix-group", "field": "Qp", "p": 3,
               "generators": {"a": [["3", "1"], ["2", "1"]], "b": [["1", "3"], ["0", "1"]]}}


# bt certify on the benchmark's integer documents (3 of its 4 kinds) and on a
# Q_p document of integer entries loads no rational arithmetic; a Q_p document
# whose entries include 1/p does
@pytest.mark.parametrize("kind, rational", [("qt-schottky", False), ("qt-shared-end", False),
                                            ("qst-torus", False), ("qp-schottky", True),
                                            ("qp-integral", False)])
def test_bt_certify_loads_fractions_only_for_a_fraction(tmp_path, kind, rational):
    path = tmp_path / "bt.json"
    path.write_text(json.dumps(QP_INTEGRAL if kind == "qp-integral" else _bench_documents()[kind]))
    got_rc, loaded, stdlib = fresh(RUN_MAIN, "bt", "certify", "--input", str(path), "--ball", "2")
    assert got_rc in (0, 2) and set(loaded) == BT | {"isometry", "conjugacy"}
    assert [m for m in stdlib if m in RATIONAL] == (RATIONAL if rational else [])


# ordgroup and bruhat bind Fraction on its first need: each of these, the first
# call in an interpreter that imported ordgroup or bruhat alone, ends without a
# NameError, and loads fractions exactly where its value holds a Fraction
ARITH_FIRST_CALL = """
import json, sys
from lambdaforest import ordgroup
from lambdaforest.%s import %s
assert ordgroup.Fraction is None and "fractions" not in sys.modules
print(json.dumps([repr(%s), "fractions" in sys.modules]))
"""
QP = "{'field': 'Qp', 'p': 3, 'generators': {'a': [['3', '0'], ['0', '1/3']]}}"
ARITH_FIRST_CALLS = {
    "lexvalue-of-a-fraction": ("ordgroup", "LexValue", "LexValue(['1/2'])", "(1/2)", True),
    "half": ("ordgroup", "LexValue", "LexValue([1]).half()", "(1/2)", True),
    "ratfunc-t": ("bruhat", "RatFunc", "RatFunc.t(1)", "(1*t^1)/(1*t^0)", False),
    "qp-group": ("bruhat", "matrix_group_from_json", f"matrix_group_from_json({QP})['a']",
                 "[[QpElement(value=Fraction(3, 1), p=3), QpElement(value=Fraction(0, 1), p=3)], "
                 "[QpElement(value=Fraction(0, 1), p=3), QpElement(value=Fraction(1, 3), p=3)]]",
                 True),
}


@pytest.mark.parametrize("case", sorted(ARITH_FIRST_CALLS))
def test_ordgroup_and_bruhat_bind_fraction_on_the_first_call(case):
    module, name, call, text, rational = ARITH_FIRST_CALLS[case]
    assert fresh(ARITH_FIRST_CALL % (module, name, call)) == [text, rational]


# where json's C accelerator cannot be imported, cli reads and writes through the
# json package: the same exit code, stdout and report, and json loaded on that
# side alone (stderr says whether it was)
NO_ACCELERATOR = """
import sys
if sys.argv.pop(1) == "off":
    sys.modules["_json"] = None
from lambdaforest.cli import main
rc = main(sys.argv[1:])
sys.stderr.write(str("json" in sys.modules))
sys.exit(rc)
"""


@pytest.mark.parametrize("case", ["tree distance", "bt certify", "gog structure", "marked ball"])
def test_commands_read_and_write_alike_without_the_accelerator(tmp_path, case):
    argv, rc, _modules = CASES[case]
    argv, report = _paths(tmp_path, argv), tmp_path / "report.json"
    runs = {}
    for accelerator in ("on", "off"):
        proc = subprocess.run([sys.executable, "-c", NO_ACCELERATOR, accelerator, *argv,
                               "--json", str(report)], capture_output=True, text=True,
                              env=_env(), timeout=60)
        runs[accelerator] = (proc.returncode, proc.stdout, report.read_text(), proc.stderr)
    assert runs["on"][:3] == runs["off"][:3] and runs["on"][0] == rc
    assert (runs["on"][3], runs["off"][3]) == ("False", "True")


# lambdatree binds LexValue, Fraction and _ratio on the first tree or LexValue
# table: each of these, the first call in an interpreter that imported
# lambdatree alone, ends without a NameError.  The LexValue cases import
# ordgroup to make their values, which binds nothing in lambdatree
FIRST_CALL = """
import json
from lambdaforest import lambdatree
from lambdaforest.lambdatree import FiniteLambdaMetric, MetricTree, _parse_point, kill_infinitesimals
assert lambdatree.LexValue is lambdatree.Fraction is lambdatree._ratio is None


def lex(*coords):  # imports ordgroup only where a case makes a LexValue
    from lambdaforest.ordgroup import LexValue
    return LexValue(coords)


doc = {"rank": 2, "vertices": ["a", "b", "c"], "edges": [
    {"u": "a", "v": "b", "len": ["1", "0"]}, {"u": "b", "v": "c", "len": ["0", "1/2"]}]}
print(json.dumps(repr(%s)))
"""
FIRST_CALLS = {
    "tree-of-lexvalues": ("MetricTree(['a', 'b'], [('a', 'b', lex(1, '1/2'))], 2).edges",
                          "{('a', 'b'): (1, 1/2)}"),
    "table-of-lexvalues": ("FiniteLambdaMetric(['x', 'y'], [[lex(0), lex(3)], [lex(3), lex(0)]],"
                           " 1).dist", "[[(0), (3)], [(3), (0)]]"),
    "table-read-by-ratio": ("(lambda M: (M._D, M._rows))(FiniteLambdaMetric.from_json({'rank': 1,"
                            " 'labels': ['x', 'y'], 'dist': [[['0'], ['2/4']], [['2/4'], ['0']]]}))",
                            "(2, [[[0], [1]], [[1], [0]]])"),
    "table-from-tree": ("FiniteLambdaMetric.from_tree(MetricTree.from_json(doc)).to_json()['dist']",
                        "[[['0', '0'], ['1', '0'], ['1', '1/2']], [['1', '0'], ['0', '0'], "
                        "['0', '1/2']], [['1', '1/2'], ['0', '1/2'], ['0', '0']]]"),
    "kill-infinitesimals": ("kill_infinitesimals(MetricTree.from_json(doc))[0].edges",
                            "{('a', 'b'): (1)}"),
    "interior-point": ("_parse_point(MetricTree.from_json(doc), 'c:b:0,1/4')",
                       "EdgeInterior('b'-'c' @ (0, 1/4))"),
}


@pytest.mark.parametrize("case", sorted(FIRST_CALLS))
def test_lambdatree_binds_its_arithmetic_on_the_first_call(case):
    call, expected = FIRST_CALLS[case]
    assert fresh(FIRST_CALL % call) == expected


def test_validating_a_plain_table_loads_no_rational_arithmetic():
    code = """
import json, sys
from lambdaforest.lambdatree import FiniteLambdaMetric, validate_tree_metric
M = FiniteLambdaMetric.from_json({"rank": 2, "labels": ["x", "y", "z"], "dist": [
    [["0", "0"], ["1", "0"], ["1", "1/2"]], [["1", "0"], ["0", "0"], ["0", "1/2"]],
    [["1", "1/2"], ["0", "1/2"], ["0", "0"]]]})
ok = validate_tree_metric(M).ok
print(json.dumps([ok, [m for m in ("lambdaforest.ordgroup", "fractions", "decimal", "numbers")
                       if m in sys.modules]]))
"""
    assert fresh(code) == [True, []]


# lines of lambdaforest source (package __init__ included) that the commands of
# each family load between them, measured at the change that computed turns
# exactly with one conjugator routine and gave alphabets one check; marked's
# at the change that moved z_marked out of presets into cli_marked; the tree
# commands', one handler module each, at the change that split them (all five
# were one "tree" family of 2,619 lines), and raised by 60-61 where the
# validator gained the insertion check and coordinates a one-pass reader; at
# the change where cli took over the report path of every handler, lowered
# where a family fell (all but preset, whose handler had nothing to shed); and
# where the median became the one projection and the marked and preset usage
# checks left cli for their handlers (marked grew by those checks: not raised);
# and where a closed subtree became only the hull of its points (preset fell
# too, but stays above its figure: not raised); bt where certification, not
# the matrix oracle, came to decide conjugacy classes; and where the argparse
# parser left cli for a module of its own and a tree came to write its own
# document (isom and marked fell too, but stay above their figures: not raised);
# and isom, bt and gog where the class pass left isometry for a module that
# only bt certify loads, bt's value-group rank became one rational_rank call
# and gog acyl's report lost a key that was always empty; and bt where Q(t)
# became the s-free part of Q(s, t), one Laurent implementation for both; and
# bt and gog where a free or free-abelian vertex group became its groups oracle,
# one pattern came to read a monomial key and primitive_root lost its
# unreachable raise (isom and marked fell too, but stay above their figures:
# not raised); and validate-tree, where lambdatree came to bind ordgroup on its
# first tree and validate-tree stopped loading it (the other tree families grew
# by that binder: not raised); and tree, isom, glue, cover, gog, marked and
# preset by the 18 lines cli grew where it came to read, digest and write
# documents through json's C accelerator, so that no command imports the json
# package, 1-2 ms a process (validate-tree and bt grew by them too, but stay
# within 20 of their figures: not raised); and tree, isom, glue and cover by
# the 16 lines ordgroup grew where integral values came to stay ints and
# Fraction to be imported on first need, so that bt on a Q(t) or Q(s, t)
# document of integer coefficients loads no fractions, decimal or numbers
# (1.9 ms of -X importtime; a Q(t) or Q(s, t) benchmark job fell 2.2-2.9 ms of
# 53-57 raw, medians of 21 interleaved fresh processes; a Q_p one, whose
# entries hold 1/p, did not move).  bt grew by them too, but bruhat shed 14
# lines and the family stays within 20 of its figure: not raised; nor gog, 2
# lines more where gog acyl came to refuse a disconnected graph; and isom, bt and
# gog where the immutable records came to derive from one frozen base, which
# every command but preset loads, and to declare only their fields (tree, glue,
# cover and marked fell too, and validate-tree grew by 2, but each stays within
# 20 of its figure: not raised); and isom and gog where the verdict records came
# to derive from that base too (validate-tree, tree, glue and cover fell but stay
# above their figures, marked grew by the base's 3-line __delattr__ and stays
# within 20 of its figure: not raised); and isom, glue, cover and bt where the
# value records came to take equality and hashing from the frozen base's Value
# (validate-tree and tree fell but stay above their figures; gog and marked,
# which load the base but none of those records, grew by 3 and 12 and stay
# within 20 of their figures: not raised)
FAMILY_LINES = {"validate-tree": 977, "tree": 1165, "isom": 1738, "glue": 1744, "cover": 1310,
                "bt": 1574, "gog": 1094, "marked": 798, "preset": 497}


def test_compiled_source_per_family_stays_put():
    """A family may grow by 20 lines; beyond that, move code out of what its
    commands load, or raise the figure with the reason in CHANGES.md."""
    loaded = {}
    for argv, _rc, modules in CASES.values():
        family = argv[0]
        loaded.setdefault(family, {"__init__"}).update(modules)
    pkg = os.path.join(ROOT, "src", "lambdaforest")
    lines = {}
    for family, modules in loaded.items():
        lines[family] = 0
        for m in modules:
            with open(os.path.join(pkg, m + ".py"), encoding="utf-8") as fh:
                lines[family] += len(fh.readlines())
    assert lines.keys() == FAMILY_LINES.keys()
    for family, n in lines.items():
        assert n <= FAMILY_LINES[family] + 20, (family, n, FAMILY_LINES[family])


def test_module_entry_point_reports_malformed_input(tmp_path):
    """Under `python -m lambdaforest.cli` the handler modules import
    lambdaforest.cli by name; the Malformed they raise must still be the one
    main catches (exit 65, no traceback)."""
    glue = tmp_path / "glue.json"
    glue.write_text(json.dumps({"schema": "lambda-forest/1", "vertex_trees": [], "edges": []}))
    bt = tmp_path / "bt.json"
    bt.write_text(json.dumps({**presets.emit("schottky-qt"), "ball": 0}))
    for argv in (["glue", "check-free", "--input", str(glue)],
                 ["bt", "certify", "--input", str(bt)]):
        proc = subprocess.run([sys.executable, "-m", "lambdaforest.cli", *argv],
                              capture_output=True, text=True, env=_env(), timeout=60)
        assert proc.returncode == 65, proc.stderr
        assert proc.stdout == "" and proc.stderr.startswith("malformed input: ")
        assert "Traceback" not in proc.stderr


# the console script's path: main() reads the process's own command line.  The
# prelude's atexit hook prints the collector's state; its object's __del__ prints
# only if the interpreter tears itself down, which the entry skips
ENTRY = "import sys; from lambdaforest.cli import main; sys.exit(main())"
PRELUDE = """import atexit, gc, sys
atexit.register(lambda: print("collector", gc.isenabled()))
class Teardown:
    def __del__(self):
        print("teardown")
kept = Teardown()
"""
# a profile or trace function whose globals are not __main__'s, which would keep
# `kept` alive through teardown
PROFILED = {"profile": "sys.setprofile(eval('lambda *a: None', {}))\n",
            "trace": "sys.settrace(eval('lambda *a: None', {}))\n"}
MAIN_ARGV = "import sys; from lambdaforest.cli import main; sys.exit(main(sys.argv[1:]))"
ENTRY_CASES = {"pass": (["tree", "distance", "--input", "@tripod", "--x", "p", "--y", "q"], 0),
               "malformed": (["tree", "distance", "--input", "BAD", "--x", "p", "--y", "q"], 65),
               "usage": (["tree", "distance", "--input", "@tripod"], 64)}


def _entry_and_main_argv(tmp_path, case, prelude):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    argv, rc = ENTRY_CASES[case]
    argv = [str(bad) if a == "BAD" else a for a in _paths(tmp_path, argv)]
    entry, listed = [subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                                    text=True, env=_env(), timeout=60)
                     for code in (prelude + ENTRY, MAIN_ARGV)]
    assert entry.returncode == listed.returncode == rc, entry.stderr
    assert entry.stderr == listed.stderr
    return entry.stdout, listed.stdout


@pytest.mark.parametrize("case", ENTRY_CASES)
def test_process_entry_runs_without_collector_and_ends_without_teardown(tmp_path, case):
    out, listed = _entry_and_main_argv(tmp_path, case, PRELUDE)
    assert out == listed + "collector False\n"  # the hook ran; no teardown line after it


@pytest.mark.parametrize("hook", PROFILED)
def test_process_entry_returns_to_a_profiler_and_tears_down(tmp_path, hook):
    out, listed = _entry_and_main_argv(tmp_path, "pass", PRELUDE + PROFILED[hook])
    assert out == listed + "collector False\nteardown\n"


# one command of each family, and an output of 58 KiB: the entry's stdout to a
# file, block-buffered, holds what main(argv) prints, byte for byte.  No preset's
# document reaches 1 KiB, so the large output is the ball of Z marked by three
# letters, 5,004 relations up to radius 6
Z_THREE = {"schema": "lambda-forest/1", "group": {"kind": "free-abelian", "letters": ["p"]},
           "marking": ["p", "p", "p"], "letters": ["a", "b", "c"]}
LARGE = ["marked", "ball", "--input", "@z-three", "--radius", "6"]
BUFFERED = {argv[0]: argv for argv, _rc, _m in reversed(CASES.values())}
BUFFERED["large"] = LARGE


def _block_buffered():
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.mark.parametrize("family", sorted(BUFFERED))
def test_buffered_output_arrives_in_full(tmp_path, capsys, monkeypatch, family):
    from lambdaforest.cli import main

    monkeypatch.setitem(INLINE, "z-three", Z_THREE)
    argv = _paths(tmp_path, BUFFERED[family])
    main(argv)
    printed = capsys.readouterr().out.encode()
    assert len(printed) > 8192 if family == "large" else printed
    with open(tmp_path / "out.txt", "wb") as out:
        subprocess.run([sys.executable, "-c", ENTRY, *argv], stdout=out,
                       stderr=subprocess.DEVNULL, env=_block_buffered(), timeout=60)
    assert (tmp_path / "out.txt").read_bytes() == printed


def _closed_pipe():
    read, write = os.pipe()
    os.close(read)
    return write


# stdout that cannot be written: one line on stderr and exit 73, whether print
# fails (unbuffered) or the flush before os._exit does; a closed stdout
# (sys.stdout None) prints nothing and exits 0
@pytest.mark.parametrize("buffering", ["block", "unbuffered"])
@pytest.mark.parametrize("target, rc, reason", [
    ("/dev/full", 73, "No space left on device"), ("pipe", 73, "Broken pipe"), ("closed", 0, None),
], ids=["full", "closed-pipe", "closed"])
@pytest.mark.parametrize("argv", [["preset", "list"], LARGE], ids=["preset-list", "large"])
def test_unwritable_stdout_ends_in_one_line(tmp_path, monkeypatch, argv, target, rc, reason,
                                            buffering):
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full")
    monkeypatch.setitem(INLINE, "z-three", Z_THREE)
    env = _block_buffered() if buffering == "block" else dict(_env(), PYTHONUNBUFFERED="1")
    stdout = (open(target, "wb") if target == "/dev/full" else
              _closed_pipe() if target == "pipe" else None)
    try:
        proc = subprocess.run([sys.executable, "-c", ENTRY, *_paths(tmp_path, argv)],
                              stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
                              timeout=60, preexec_fn=(lambda: os.close(1)) if stdout is None
                              else None)
    finally:
        if isinstance(stdout, int):
            os.close(stdout)
        elif stdout is not None:
            stdout.close()
    assert proc.returncode == rc, proc.stderr
    assert proc.stderr == ("" if reason is None else f"cannot write '<stdout>': {reason}\n")


# a stderr that is full, closed at the start or None changes no exit code: the
# lines of malformed input, of an output that cannot be written and of a usage
# error a handler finds are passed over, as argparse passes over its usage
@pytest.mark.parametrize("target", ["full", "closed", "none"])
@pytest.mark.parametrize("argv, rc", [
    (["tree", "distance", "--input", "{tmp}/missing.json", "--x", "p", "--y", "q"], 65),
    (["preset", "list", "--json", "{tmp}/missing/report.json"], 73),
    (["marked", "ball"], 64)], ids=["malformed", "cannot-write", "usage"])
def test_unwritable_stderr_keeps_the_exit_code(tmp_path, argv, rc, target):
    if target == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    argv = [a.format(tmp=tmp_path) for a in argv]
    prelude = "import sys; sys.stderr = None\n" if target == "none" else ""
    stderr = open("/dev/full", "wb") if target == "full" else subprocess.PIPE
    try:
        proc = subprocess.run([sys.executable, "-c", prelude + ENTRY, *argv],
                              stdout=subprocess.PIPE, stderr=stderr, text=True, env=_env(),
                              timeout=60, preexec_fn=(lambda: os.close(2)) if target == "closed"
                              else None)
    finally:
        if target == "full":
            stderr.close()
    assert proc.returncode == rc, proc.stderr
    assert proc.stderr in (None, "")
    assert proc.stdout == ("\n".join(presets.names()) + "\n" if rc == 73 else "")


def test_main_with_argv_passes_over_a_none_stderr(monkeypatch, capsys):
    from lambdaforest.cli import main

    monkeypatch.setattr(sys, "stderr", None)
    assert main(["marked", "ball"]) == 64
    assert capsys.readouterr().out == ""


# argparse's print_usage writes to stdout when handed a None file
@pytest.mark.parametrize("argv", [[], ["tree", "distance"], ["bogus"]],
                         ids=["no-command", "no-op", "unknown-command"])
def test_argparse_usage_passes_over_a_none_stderr(monkeypatch, capsys, argv):
    from lambdaforest.cli import main

    monkeypatch.setattr(sys, "stderr", None)
    assert main(argv) == 64
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("enabled", [True, False])
def test_main_with_argv_leaves_the_collector_alone(tmp_path, capsys, enabled):
    from lambdaforest.cli import main

    argv = _paths(tmp_path, ["tree", "distance", "--input", "@tripod", "--x", "p", "--y", "q"])
    frozen = gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == 0
        assert gc.isenabled() is enabled and gc.get_freeze_count() == frozen
    finally:
        gc.enable()


def test_package_resolves_names_on_first_access():
    code = """
import json, sys
import lambdaforest
before = sorted(m for m in sys.modules if m.startswith("lambdaforest."))
from lambdaforest import LexValue
ok = [lambdaforest.LexValue is LexValue, str(LexValue([1, 2])) == "(1, 2)",
      getattr(lambdaforest, "bruhat").__name__ == "lambdaforest.bruhat",
      not hasattr(lambdaforest, "nope")]
for m in ("ordgroup", "lambdatree", "groups", "isometry", "bruhat", "gluing",
          "devissage", "markedgroups", "presets", "cli"):
    ok.append(getattr(lambdaforest, m).__name__ == "lambdaforest." + m)
print(json.dumps([before, ok]))
"""
    before, ok = fresh(code)
    assert before == [] and all(ok), ok


def test_package_names_resolve_in_process():
    import lambdaforest
    from lambdaforest.ordgroup import LexValue

    assert lambdaforest.LexValue is LexValue and lambdaforest.ordgroup.LexValue is LexValue
    with pytest.raises(AttributeError, match="^module 'lambdaforest' has no attribute 'nope'$"):
        lambdaforest.nope
