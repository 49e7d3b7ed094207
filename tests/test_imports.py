"""Each command loads only the library modules it runs, importing the
package loads none, and no command loads `dataclasses` (or the `inspect`
it imports), whose import alone costs a short job about 10 ms.  Every case
runs in a fresh interpreter, because the test process has imported the
whole library already."""

import json
import os
import subprocess
import sys

import pytest

from lambdaforest import presets

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# run main on argv, then print its exit code, the loaded lambdaforest modules
# and which of dataclasses and inspect are loaded
RUN_MAIN = """
import json, sys
from lambdaforest.cli import main
rc = main(sys.argv[1:])
mods = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("lambdaforest."))
print(json.dumps([rc, mods, [m for m in ("dataclasses", "inspect") if m in sys.modules]]))
"""


def fresh(code, *argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


MARKED = {"schema": "lambda-forest/1", "kind": "marked-group",
          "group": {"kind": "free", "letters": ["p", "q"]}, "marking": ["p", "pq"],
          "letters": ["a", "b"]}


def _path_tree(ids):
    return {"rank": 1, "vertices": ids,
            "edges": [{"u": u, "v": v, "len": ["1"]} for u, v in zip(ids, ids[1:])]}


# the radius-1 ball of the Cayley tree of F2 = <a, b> (A, B the inverses), with
# a and b acting by left multiplication where the image stays in the ball
F2_WINDOW = {"schema": "lambda-forest/1",
             "tree": {"rank": 1, "vertices": ["e", "a", "A", "b", "B"],
                      "edges": [{"u": "e", "v": x, "len": ["1"]} for x in "aAbB"]},
             "generators": {"a": {"e": "a", "A": "e"}, "b": {"e": "b", "B": "e"}}}
TWO_TREES = {"schema": "lambda-forest/1", "base": _path_tree(["a", "b"]),
             "attachments": [{"tree": _path_tree(["p", "q"]), "x": "b", "y": "p"}]}
TRIPOD_COVER = {"schema": "lambda-forest/1", "tree": presets.emit("tripod"),
                "members": [["o", "p"], ["o", "q"], ["o", "r"]]}
INLINE = {"marked": MARKED, "f2-window": F2_WINDOW, "two-trees": TWO_TREES,
          "tripod-cover": TRIPOD_COVER}

# argv (an @name is replaced by the path of that preset, or of that INLINE
# document), exit code, and the modules that must not be loaded (None: only
# cli and presets)
CASES = {
    "marked ball": (["marked", "ball", "--input", "@marked", "--radius", "2"], 0,
                    {"bruhat", "lambdatree", "presets", "ordgroup"}),
    "marked profile": (["marked", "profile", "--input", "@z-to-z2-sequence"], 0,
                       {"bruhat", "lambdatree", "ordgroup"}),
    "gog structure": (["gog", "structure", "--input", "@centralizer-extension-gog"], 0,
                      {"bruhat", "lambdatree", "presets", "ordgroup"}),
    "gog betti": (["gog", "betti", "--input", "@centralizer-extension-gog"], 0,
                  {"bruhat", "lambdatree", "presets", "ordgroup"}),
    "isom certify": (["isom", "certify", "--input", "@f2-window", "--ball", "1"], 3,
                     {"bruhat", "presets", "gluing", "devissage", "markedgroups"}),
    "glue point": (["glue", "point", "--input", "@two-trees"], 0,
                   {"bruhat", "presets", "groups", "isometry"}),
    "cover skeleton": (["cover", "skeleton", "--input", "@tripod-cover"], 0,
                       {"bruhat", "presets", "groups", "isometry"}),
    "validate-tree": (["validate-tree", "--input", "@square-cycle"], 2,
                      {"bruhat", "presets", "groups"}),
    "tree distance": (["tree", "distance", "--input", "@tripod", "--x", "p", "--y", "q"], 0,
                      {"bruhat", "presets", "groups"}),
    "bt certify": (["bt", "certify", "--input", "@unipotent-fail"], 2, {"presets"}),
    "bt length": (["bt", "length", "--input", "@z2-diagonal", "--word", "uv"], 0,
                  {"presets", "isometry", "lambdatree"}),
    "preset list": (["preset", "list"], 0, None),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_loads_only_what_it_runs(tmp_path, case):
    argv, rc, absent = CASES[case]
    paths = []
    for a in argv:
        if a.startswith("@"):
            doc = INLINE[a[1:]] if a[1:] in INLINE else presets.emit(a[1:])
            path = tmp_path / f"{a[1:]}.json"
            path.write_text(json.dumps(doc))
            a = str(path)
        paths.append(a)
    got_rc, loaded, stdlib = fresh(RUN_MAIN, *paths)
    assert got_rc == rc
    assert stdlib == []
    if absent is None:
        assert loaded == ["cli", "presets"]
    else:
        assert "cli" in loaded and not absent & set(loaded)


def test_package_resolves_names_on_first_access():
    code = """
import json, sys
import lambdaforest
before = sorted(m for m in sys.modules if m.startswith("lambdaforest."))
from lambdaforest import LexValue
ok = [lambdaforest.LexValue is LexValue, str(LexValue([1, 2])) == "(1, 2)",
      lambdaforest.lex_compare(LexValue([1]), LexValue([2])) < 0,
      getattr(lambdaforest, "bruhat").__name__ == "lambdaforest.bruhat",
      not hasattr(lambdaforest, "nope")]
for m in ("ordgroup", "lambdatree", "groups", "isometry", "bruhat", "gluing",
          "devissage", "markedgroups", "presets", "cli"):
    ok.append(getattr(lambdaforest, m).__name__ == "lambdaforest." + m)
print(json.dumps([before, ok]))
"""
    before, ok = fresh(code)
    assert before == [] and all(ok), ok
