"""The benchmark script runs every workload at smoke size, untraced and
traced, and judges every job correct.  The traced half reads its per-layer
metrics from wrappers around library names; a metric that reads 0 here means
the name it wraps was renamed or is no longer called, or that a command
handler bound it at import, before the wrappers were installed."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WRAPPED = {
    "bt-ball": ["isometry.words.enumerated", "bruhat.length.calls",
                "bruhat.is_trivial.calls", "bruhat.product_reuse_ratio",
                "bruhat.mat2_mul.calls", "bruhat.degree_max", "bruhat.coeff_bits_max"],
    "tree-geometry": ["isometry.words.enumerated", "isometry.classify.calls",
                      "lambdatree.validate.calls", "lambdatree.distance.calls",
                      "gluing.dual_distance.calls"],
    "group-words": ["markedgroups.is_relation.calls", "markedgroups.same_ball.calls",
                    "markedgroups.relations_up_to_s", "devissage.structure_s",
                    "devissage.acyl_s", "devissage.betti_s", "devissage.principal_s"],
}


@pytest.mark.parametrize("workload", sorted(WRAPPED))
def test_bench_smoke(workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", "1", "--size", "smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    for name in WRAPPED[workload]:
        assert result["metrics"][name]["value"] > 0, name
