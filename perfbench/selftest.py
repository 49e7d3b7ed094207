"""Checks of the benchmark itself; run from the root of the repository:

    python3 perfbench/selftest.py

1. The reference answers agree with values worked out by hand on small
   inputs, and the constructed violations have the witness they claim
   (found here by a plain scan).
2. The smoke size of every workload runs with --trace 0 and 1, prints a
   well-formed result line with exactly the metrics BENCHMARK.json names,
   and gives no wrong verdict.
3. The verdict check flags a wrong printed verdict even when the process
   then dies with exit 1 and leaves a truncated --json report, and the
   scaling to reference speed divides by the calibrations on either side.
4. Two traced runs of the same seed report the same deterministic counts.
5. A directory that holds only BENCHMARK.json and perfbench/ makes the
   benchmark fail without a result line.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
from jobs import WORKLOADS, Job  # noqa: E402
from run import CAL, CAL_REF_S, PROBE, at_reference_speed, check  # noqa: E402

FAILURES = []


def expect(what, got, want):
    if got != want:
        FAILURES.append(f"{what}: got {got!r}, want {want!r}")


def check_reference():
    expect("ball of radius 2 on two labels", ref.ball_size(2, 2), 16)
    words = [ref.word_str(w) for w in ref.reduced_words(ref.alphabet("ab"), 2)]
    expect("word order", words[:7], ["a", "a'", "b", "b'", "aa", "ab", "ab'"])
    expect("u^3 v^-1 length on the Z^2 torus", ref.torus_length((3, -1), 1), (2, -6))

    # a path p - o - q - r with lengths 1, 2, 3/2 and a leaf s off o of length 5
    one = lambda x: (F(x),)  # noqa: E731
    edges = [("p", "o", one(1)), ("o", "q", one(2)), ("q", "r", one("3/2")), ("o", "s", one(5))]
    adj = ref.adjacency("opqrs", edges)
    dist, _ = ref.path_sums(adj, "p", 1)
    expect("d(p, r)", dist["r"], one("9/2"))
    expect("median(p, r, s)", ref.tree_median(adj, 1, "p", "r", "s"), "o")
    expect("median(p, q, r)", ref.tree_median(adj, 1, "p", "q", "r"), "q")

    # chain: V0 = 0-1-2-3 (unit), V1 glued along [1, 3] at its start, then 2 more
    trees, glues = [[1, 1, 1], [1, 1, 4]], [(1, 3, 2)]
    adj, find = ref.chain_quotient(trees, glues)
    expect("dual distance v0_0 to v1_3", ref.graph_distance(adj, find((0, 0)), find((1, 3))), 7)

    # a = diag(t, 1/t), b = c a c^-1 with c = [[1, 1], [0, 1]]: a b^-1 is
    # [[1, t^2 - 1], [0, 1]], unipotent, the 7th word of the ball
    a = (({1: 1}, {}), ({}, {-1: 1}))
    cert = ref.shared_end_answer({"a": a, "b": ref.conj_diag(((1, 1), (0, 1)), 1)}, 3)
    expect("shared-end certificate", cert, {"words_checked": 7, "relations": [],
                                             "min_positive_length": (2,),
                                             "counterexample": "ab'"})
    expect("Schottky with a unit matrix", ref.schottky_answer(((2, 3), (1, 2)), 1), (2,))
    expect("Schottky needing the walk", ref.schottky_answer(((3, 5), (1, 2)), 1, 3), None)

    expect("window R=3 N=2", ref.window_certify_free(2, 3), True)
    expect("window R=4 N=3", ref.window_certify_free(3, 4), False)
    expect("commutators of length 4 in Z^2",
           len(ref.abelian_relations(["a", "b"], [(1, 0), (0, 1)], 4)), 8)
    expect("profile", ref.z_profile(4, 3), [[1, 1], [2, 2], [3, 3], [4, None]])
    expect("proper power test", (ref.is_proper_power_free((2, -4)),
                                 ref.is_proper_power_free((1, 2))), (True, False))

    rng = random.Random(7)
    for rank in (1, 2, 3):
        labels, table, witness = ref.four_cycle_metric(rng, 5, rank)
        expect(f"four-cycle witness, rank {rank}", _first_four_point(labels, table), witness)
        labels, table, witness = ref.stretched_pair_metric(rng, 7, rank)
        expect(f"stretched-pair witness, rank {rank}", _first_triangle(labels, table), witness)


def _first_four_point(labels, d):
    for i, j, k, l in itertools.combinations(range(len(labels)), 4):
        sums = sorted([ref.lex_add(d[i][j], d[k][l]), ref.lex_add(d[i][k], d[j][l]),
                       ref.lex_add(d[i][l], d[j][k])])
        if sums[2] > sums[1]:
            return (labels[i], labels[j], labels[k], labels[l])
    return None


def _first_triangle(labels, d):
    for i, j, k in itertools.combinations(range(len(labels)), 3):
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            if d[a][c] > ref.lex_add(d[a][b], d[b][c]):
                return (labels[a], labels[b], labels[c])
    return None


def check_checker():
    job = Job("b0-00-0", "qt-shared-end", [], {}, 2, "violation",
              {"certificate.counterexample": "ab'"}, ["counterexample at N = 3: ab'"])
    truncated = b'{"status": "violation", "certif'
    crash = "Traceback (most recent call last):\nTypeError: Fraction is not JSON serializable\n"
    for what, out, want_wrong in (
        ("wrong verdict, then exit 1", "free on ball N = 3 (53 words, min positive length (2))\n",
         True),
        ("counterexample longer than the known one", "counterexample at N = 3: ab'a\n", True),
        ("right verdict, then exit 1", "counterexample at N = 3: ab'\n", False),
        ("no verdict printed", "", False),
    ):
        wrong, problems = check(job, 1, out, crash, truncated)
        expect(f"check: {what}: wrong", wrong, want_wrong)
        expect(f"check: {what}: failed", bool(problems), True)
    wrong, problems = check(job, 2, "counterexample at N = 3: ab'\n", "",
                            b'{"status": "violation", "certificate": {"counterexample": "ab\'"}}')
    expect("check: right verdict and report", (wrong, problems), (False, []))


def check_scaling():
    # j2 sees the calibrations 0.2, 0.4 before it and 0.5, 3.0 after it
    timeline = [(CAL, 0.2), ("j1", 0.4), (PROBE, 0.1), (CAL, 0.4), ("j2", 0.8), (CAL, 0.5),
                (CAL, 3.0), ("j3", 0.9)]
    got = at_reference_speed(timeline)
    want = [("j1", 0.4 / 0.4), (PROBE, 0.1 / 0.4), ("j2", 0.8 / 0.45), ("j3", 0.9 / 1.75)]
    expect("scaled entries", [w for w, _ in got], [w for w, _ in want])
    for (what, g), (_, w) in zip(got, want):
        expect(f"{what} at reference speed", round(g / CAL_REF_S, 12), round(w, 12))


def _run(args, cwd="."):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_smoke():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = {0: {m["name"] for m in bench["end_to_end"]}, 1: {m["name"] for m in bench["per_layer"]}}
    for w in WORKLOADS:
        counts = []
        for trace in (0, 1, 1):
            args = ["--workload", w, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                    "--size", "smoke"]
            proc = _run(args)
            if proc.returncode:
                FAILURES.append(f"{w} trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(f"{w} trace {trace} keys", sorted(res), ["attempted", "correct", "failed",
                                                           "metrics"])
            expect(f"{w} trace {trace} metrics", set(res["metrics"]), names[trace])
            expect(f"{w} trace {trace} correct", res["correct"], True)
            if trace:
                with open(os.path.join(".perfbench_runs", f"{w}-trace1", "report.json")) as fh:
                    counts.append(json.load(fh)["counts"])
        if len(counts) == 2:
            expect(f"{w} counts of two traced runs", counts[0], counts[1])


def check_bare_directory():
    bare = os.path.abspath(os.path.join(".perfbench_runs", "bare"))
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bt-ball", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    expect("exit code without the program", proc.returncode != 0, True)
    expect("result line without the program", '"correct"' in proc.stdout, False)
    shutil.rmtree(bare)


def main():
    check_reference()
    check_checker()
    check_scaling()
    check_smoke()
    check_bare_directory()
    for f in FAILURES:
        print("FAIL", f)
    print("selftest:", "ok" if not FAILURES else f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
