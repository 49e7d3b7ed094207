"""List the executable lines of src/lambdaforest that tier-1 never runs.

Run from anywhere inside a checkout of the repository:

    python3 tools/unrun_lines.py --rev HEAD

It unpacks the tree of --rev (a `git archive` export) into a temporary
directory and runs that copy's tier-1 tests in one child process, as ROADMAP.md
gives them (pytest from the export's root), under a `sys.settrace` tracer that
records each line run in the export's src/lambdaforest.  A module's executable
lines are the line numbers of its compiled code objects.  It prints each one
that no test ran, with its text, then the count, and exits 1 if a test failed.
Lines that run only in a subprocess a test starts are not seen, so they are
listed too.  It uses the standard library only and writes nothing inside the
checkout: pytest's and Hypothesis's files go to the export, which is removed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import types

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from golden_diff import export  # noqa: E402

# the child: trace the lines of every frame whose code lives under argv[1]
# (others get no local tracer), run tier-1, write the lines run to argv[2]
CHILD = """
import json, sys, threading
pkg, out, seen = sys.argv[1], sys.argv[2], set()

def local(frame, event, arg):
    if event == "line":
        seen.add((frame.f_code.co_filename, frame.f_lineno))
    return local

def calls(frame, event, arg):
    return local if frame.f_code.co_filename.startswith(pkg) else None

import pytest
sys.settrace(calls)
threading.settrace(calls)
rc = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
sys.settrace(None)
with open(out, "w") as fh:
    json.dump({"rc": int(rc), "seen": sorted(seen)}, fh)
"""


def executable(path: str) -> set[int]:
    """The line numbers of every code object compiled from path."""
    with open(path, encoding="utf-8") as fh:
        todo, lines = [compile(fh.read(), path, "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _s, _e, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--rev", default="HEAD", help="git revision to export and trace")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="unrun_lines.") as tmp:
        root = os.path.join(tmp, "tree")
        try:
            export(args.rev, root)
        except subprocess.CalledProcessError as exc:
            print(f"unrun_lines: cannot export {args.rev!r}: "
                  f"{exc.stderr.decode(errors='replace').strip()}", file=sys.stderr)
            return 2
        pkg, out = os.path.join(root, "src", "lambdaforest"), os.path.join(tmp, "seen.json")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
        child = subprocess.run([sys.executable, "-c", CHILD, pkg + os.sep, out], cwd=root,
                               env=env, stdin=subprocess.DEVNULL, check=False)
        if not os.path.exists(out):
            print(f"unrun_lines: the traced test run ended with {child.returncode} and wrote "
                  "no lines", file=sys.stderr)
            return 2
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        seen = set(map(tuple, result["seen"]))
        total = 0
        for name in sorted(os.listdir(pkg)):
            if not name.endswith(".py"):
                continue
            path = os.path.join(pkg, name)
            with open(path, encoding="utf-8") as fh:
                text = fh.read().splitlines()
            unrun = sorted(n for n in executable(path) if (path, n) not in seen)
            for n in unrun:
                print(f"{name}:{n}: {text[n - 1].strip()}")
            total += len(unrun)
    print(f"{total} executable lines of src/lambdaforest unrun by tier-1 at {args.rev}"
          f" (pytest exit {result['rc']})")
    return 1 if result["rc"] else 0


if __name__ == "__main__":
    sys.exit(main())
