"""Time to verdict for lambdaforest CLI jobs, end to end and per layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload bt-ball --seed 1 --seconds 30 --trace 0

--trace 0 runs the seeded job list of the workload in a closed loop with one
client: each job is a fresh process of the `lambdaforest` entry point
(`python3 -c "from lambdaforest.cli import main ..."` on ./src, which is what
the installed console script runs), and the next starts when it has exited.
A run draws round(--seconds / B) batches of the workload's job mix from the
seed, where B is the time of a batch at reference speed (see below and
jobs.BATCH_SECONDS), so that the job count, and with it the percentiles,
does not move with machine noise.  Every sixth job is preceded by a
`preset list` process, which checks nothing and samples the start-up cost.

Times are reported at reference speed.  On a small shared VM the time of the
same work moves by a third from one run to the next, and by more from one
second to the next, so every third job is preceded by a calibration process:
a fixed stdlib-only Python job (CAL_CODE) that never touches lambdaforest.
Each job and start-up probe is scaled by CAL_REF_S over the median of the
two calibrations before and the two after it, which is its time on a machine
where the calibration takes CAL_REF_S.  A change to the program cannot move the
calibration, so it moves the scaled times as it moves the measured ones; the
measured times are printed too and kept in the report.

--trace 1 runs the first half of the batches in-process, once untraced and
once traced (see tracer.py), and reports per-layer numbers.

Every job's verdict is checked against an answer derived in reference.py from
how the input was built.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
print every metric with its unit.  Runs write under .perfbench_runs/ in the
checkout: job inputs, --json reports, a full report and, for --trace 1, the
spans.  --size smoke runs a tiny list of each workload in a few seconds.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs as joblib  # noqa: E402

ENTRY = "import sys; from lambdaforest.cli import main; sys.exit(main())"
JOB_TIMEOUT_S = 60
CAL_EVERY = 3  # jobs between two calibrations
CAL_REF_S = 0.1  # calibration time that defines the reference speed
PROBE_EVERY = 6  # jobs between two start-up probes
TAIL_BEYOND = 10  # jobs that must lie beyond the tail percentile
VERDICT_EXITS = (0, 2, 3)


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "smoke"))
    a = p.parse_args(argv)
    if a.seconds <= 0:
        p.error("--seconds must be positive")
    return a


# checking -------------------------------------------------------------------------------


def _field(report, path):
    """Value at a dotted path; 'p#' is the length of the list at p and 'p+'
    the sum of the first length coordinate over the edge list at p."""
    op = path[-1] if path[-1] in "#+" else ""
    cur = report
    for key in (path[:-1] if op else path).split("."):
        if not isinstance(cur, dict) or key not in cur:
            return KeyError
        cur = cur[key]
    if op == "#":
        return len(cur)
    if op == "+":
        return sum(Fraction(e["len"][0]) for e in cur)
    return cur


def _printed(want, lines):
    if isinstance(want, joblib.Prefix):
        return any(line.startswith(want) for line in lines)
    return want in lines


def check(job, rc, out, err, report_bytes):
    """(wrong, problems): wrong is True when the printed or reported verdict
    disagrees with the known answer; problems lists every way the job
    failed, wrong verdicts included."""
    problems, wrong = [], False
    if rc is None:
        problems.append("timed out")
    elif rc != job.exit:
        problems.append(f"exit {rc}, want {job.exit}")
        wrong |= rc in VERDICT_EXITS
    if "Traceback" in out or "Traceback" in err:
        problems.append("printed a traceback")
    lines = [line.rstrip() for line in out.splitlines()]
    for want in job.stdout:
        if not _printed(want, lines):
            problems.append(f"stdout lacks {want!r}")
            # the CLI prints its verdict, and nothing else, on stdout before
            # it writes the --json report, so other output there is a wrong
            # verdict even when the process then dies (exit 1)
            wrong |= any(lines)
    try:
        report = json.loads(report_bytes)
    except ValueError:
        problems.append("no parseable --json report")
        return wrong, problems
    if report.get("status") != job.status:
        problems.append(f"status {report.get('status')!r}, want {job.status!r}")
        wrong = True
    for path, want in job.fields.items():
        got = _field(report, path)
        if got != want:
            problems.append(f"{path} = {got!r}, want {want!r}")
            wrong = True
    return wrong, problems


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.wrong = 0
        self.problems = {}

    def add(self, job, wrong, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.setdefault(f"{job.id} {job.kind}", problems)
        self.wrong += bool(wrong)


# set-up ---------------------------------------------------------------------------------


def _context(args, n_jobs):
    src = os.path.join("src", "lambdaforest")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    commit = None
    if os.path.isdir(".git"):  # an exported tree has none; never search parent directories
        try:
            commit = subprocess.run(["git", "--git-dir=.git", "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "jobs_per_batch": n_jobs,
        "clients": 1,
        "loop": "closed",
    }


def _materialize(job_list, workdir):
    """Write every input document; return each job's argv with paths."""
    argvs = []
    for job in job_list:
        argv = []
        for a in job.argv:
            if a.startswith("@"):
                path = os.path.join(workdir, f"{job.id}.{a[1:]}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(job.files[a[1:]], fh)
                argv.append(path)
            else:
                argv.append(a)
        argvs.append(argv)
    return argvs


# end to end -----------------------------------------------------------------------------


def _spawn(argv, env, out_path, err_path, timeout=JOB_TIMEOUT_S, code=ENTRY):
    """Run `python3 -c code argv` to completion: (seconds, exit code or None
    on timeout, max RSS in KiB).  os.wait4 blocks until the exit, where a
    wait with a timeout would poll and round the time up to its interval."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *argv], stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        dt = perf_counter() - t0
    rc = os.waitstatus_to_exitcode(status)
    proc.returncode = rc
    return dt, (None if rc < 0 else rc), usage.ru_maxrss


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


# a fixed stdlib-only job: interpreter start, the imports lambdaforest makes
# and Fraction, dict and sort work, in about the start-up/compute split of a
# short job.  It never touches the program, so no change to it can move it.
CAL_CODE = """
import argparse, dataclasses, hashlib, itertools, json, typing
from fractions import Fraction
acc, table = Fraction(0), {}
for i in range(1, 3000):
    acc += Fraction(i % 97, 1 + i % 89)
    table[(i % 50, i % 7)] = sorted((acc.numerator % 1000, i, -i))
print(json.dumps(len(table)))
"""
CAL = "calibration"
PROBE = "start-up probe"


def _calibrate(env, out, err):
    dt, rc, _ = _spawn([], env, out, err, code=CAL_CODE)
    if rc != 0:
        raise SystemExit(f"calibration exited with {rc}")
    return dt


def at_reference_speed(timeline):
    """[(what, seconds at reference speed)] for every entry of the timeline
    but the calibrations: each time is scaled by CAL_REF_S over the median of
    the two calibration times before it and the two after it, so that one
    disturbed calibration moves no job."""
    cal_at = [i for i, (what, _dt) in enumerate(timeline) if what == CAL]
    scaled = []
    for i, (what, dt) in enumerate(timeline):
        if what == CAL:
            continue
        k = bisect.bisect(cal_at, i)
        near = [timeline[j][1] for j in cal_at[max(0, k - 2):k + 2]]
        scaled.append((what, dt * CAL_REF_S / statistics.median(near)))
    return scaled


def run_e2e(batches, workdir):
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    probe_argv = ["preset", "list"]
    out, err = os.path.join(workdir, "out.txt"), os.path.join(workdir, "err.txt")
    # untimed: compile every module once, as an installed package would have
    warm = subprocess.run([sys.executable, "-c", "import lambdaforest.cli, lambdaforest.isometry,"
                           " lambdaforest.gluing, lambdaforest.devissage, lambdaforest.markedgroups"],
                          env=env, capture_output=True, timeout=JOB_TIMEOUT_S)
    if warm.returncode:
        raise SystemExit(f"cannot import lambdaforest: {warm.stderr.decode()[-500:]}")
    _spawn(probe_argv, env, out, err)
    _calibrate(env, out, err)

    tally = Tally()
    timeline, kind, rss = [], {}, 0  # timeline: (job id, CAL or PROBE, seconds) in run order
    for i, (job, argv) in enumerate(x for batch in batches for x in batch):
        if i % CAL_EVERY == 0:
            timeline.append((CAL, _calibrate(env, out, err)))
        if i % PROBE_EVERY == 0:
            dt, rc, _ = _spawn(probe_argv, env, out, err)
            if rc == 0:
                timeline.append((PROBE, dt))
        report = os.path.join(workdir, f"{job.id}.report.json")
        dt, rc, maxrss = _spawn(argv + ["--json", report], env, out, err)
        timeline.append((job.id, dt))
        kind[job.id] = job.kind
        rss = max(rss, maxrss)
        text_out, text_err = _read(out).decode(errors="replace"), _read(err).decode(errors="replace")
        rep = _read(report) if os.path.exists(report) else b""
        tally.add(job, *check(job, rc, text_out, text_err, rep))
    timeline.append((CAL, _calibrate(env, out, err)))

    scaled = at_reference_speed(timeline)
    job_s = [dt for what, dt in scaled if what in kind]
    probes = [dt for what, dt in scaled if what == PROBE]
    ranked = sorted(job_s)
    n = len(ranked)
    idx = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    tail = {"percentile": round(100.0 * (idx + 1) / n, 2), "jobs_beyond": n - idx - 1,
            "jobs": n}
    by_kind = {}
    for what, dt in scaled:
        if what in kind:
            by_kind.setdefault(kind[what], []).append(dt)
    metrics = {
        "wall_s": (sum(job_s), "s"),
        "job_s.p50": (statistics.median(job_s), "s"),
        "job_s.tail": (ranked[idx], "s"),
        "peak_rss_mb": (rss / 1024.0, "MB"),
        "setup_s": (statistics.median(probes), "s"),
    }
    raw_jobs = [dt for what, dt in timeline if what in kind]
    raw_ranked = sorted(raw_jobs)
    cal_s = [dt for what, dt in timeline if what == CAL]
    details = {"batches": len(batches), "jobs_timed": n, "setup_samples": len(probes),
               "tail": tail, "calibrations": len(cal_s),
               "calibration_s": {"median": statistics.median(cal_s), "min": min(cal_s),
                                 "max": max(cal_s)},
               "measured_s": {"wall_s": sum(raw_jobs), "job_s.p50": statistics.median(raw_jobs),
                              "job_s.tail": raw_ranked[idx],
                              "setup_s": statistics.median(
                                  [dt for what, dt in timeline if what == PROBE])},
               "timeline": timeline,
               "kind_median_s": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
               "error_rate": tally.failed / tally.attempted}
    return tally, metrics, details


# traced, in process -----------------------------------------------------------------------


def _inprocess(cli, argv, report):
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv + ["--json", report])
        except Exception:  # the CLI has no error boundary yet: record, go on
            rc = 1
            err.write(traceback.format_exc())
    return perf_counter() - t0, rc, out.getvalue(), err.getvalue()


def run_traced(batches, workdir):
    sys.path.insert(0, os.path.abspath("src"))
    import lambdaforest
    from lambdaforest import cli  # noqa: F401  (the modules the tracer wraps)
    from lambdaforest import devissage, gluing, isometry, markedgroups  # noqa: F401
    from tracer import Tracer, time_per_call

    tracer = Tracer(lambdaforest)
    tally = Tally()
    walls, untraced = {}, {}
    for phase in ("untraced", "traced"):
        if phase == "traced":
            tracer.install()
        total = 0.0
        try:
            for job, argv in (x for batch in batches for x in batch):
                tracer.job = job.id
                path = os.path.join(workdir, f"{job.id}.{phase}.json")
                dt, rc, out, err = _inprocess(cli, argv, path)
                total += dt
                rep = _read(path) if os.path.exists(path) else b""
                wrong, problems = check(job, rc, out, err, rep)
                if phase == "untraced":
                    untraced[job.id] = (rep, wrong, problems)
                    continue
                rep0, wrong0, problems0 = untraced[job.id]
                if rep != rep0:
                    problems.append("--json report differs between untraced and traced runs")
                tally.add(job, wrong0 or wrong, problems0 + problems)
        finally:
            tracer.uninstall()
        walls[phase] = total
    spans_path = os.path.join(workdir, "spans.jsonl")
    tracer.dump(spans_path)

    pool = tracer.operands
    note = "operands sampled from the workload"
    if len(pool) < 2:
        LexValue = lambdaforest.LexValue
        pool = [LexValue([Fraction(i, 3), Fraction(-i, 2)]) for i in range(1, 17)]
        note = "the workload makes no LexValue; fixed rank-2 operands"
    by_rank = {}
    for v in pool:
        by_rank.setdefault(v.rank, []).append(v)
    pairs = [(vs[i], vs[(i + 1) % len(vs)]) for vs in by_rank.values() for i in range(len(vs))]
    add_ns = time_per_call(lambda a, b: a + b, pairs)
    cmp_ns = time_per_call(lambda a, b: a < b, pairs)
    return tally, layer_metrics(tracer, walls, add_ns, cmp_ns), {
        "operands": note, "operand_pairs": len(pairs), "spans": tracer.next_id,
        "spans_kept": len(tracer.spans), "spans_dropped": tracer.spans_dropped,
        "spans_file": spans_path, "module_self_s": dict(tracer.module_self),
        "inprocess_s": walls,
    }


def layer_metrics(tr, walls, add_ns, cmp_ns):
    c, g, gs, s, x = tr.calls, tr.group_calls, tr.group_s, tr.self_s, tr.extra
    products = c["bruhat.MatrixLengthOracle.product"]
    fresh = tr.pairs[("bruhat.MatrixLengthOracle.product", "bruhat.Mat2.__mul__")]
    enumerated, evaluated = x["isometry.words.enumerated"], x["isometry.words.evaluated"]
    count = "count"
    m = {
        "ordgroup.lexvalue.created": (c["ordgroup.LexValue.__init__"], count),
        "ordgroup.add.calls": (c["ordgroup.LexValue.__add__"], count),
        "ordgroup.compare.calls": (c["ordgroup.LexValue.__lt__"] + c["ordgroup.LexValue.__le__"]
                                   + c["ordgroup.lex_compare"], count),
        "ordgroup.add_ns": (add_ns, "ns"),
        "ordgroup.compare_ns": (cmp_ns, "ns"),
        "lambdatree.build.calls": (g["lambdatree.build"], count),
        "lambdatree.build_s": (gs["lambdatree.build"], "s"),
        "lambdatree.distance.calls": (g["lambdatree.distance"], count),
        "lambdatree.distance_s": (gs["lambdatree.distance"], "s"),
        "lambdatree.geodesic_legs.calls": (g["lambdatree.geodesic_legs"], count),
        "lambdatree.geodesic_legs_s": (gs["lambdatree.geodesic_legs"], "s"),
        "lambdatree.median_s": (gs["lambdatree.median"], "s"),
        "lambdatree.project_s": (gs["lambdatree.project_to_closed_subtree"], "s"),
        "lambdatree.validate.calls": (g["lambdatree.validate_tree_metric"], count),
        "lambdatree.validate_s": (gs["lambdatree.validate_tree_metric"], "s"),
        "groups.is_trivial.calls": (g["groups.is_trivial"], count),
        "groups.is_trivial_s": (gs["groups.is_trivial"], "s"),
        "groups.free_reduce.calls": (c["groups.free_reduce"], count),
        "groups.invert.calls": (c["groups.invert"], count),
        "groups.betti1_s": (gs["groups.betti1"], "s"),
        "groups.rational_rank_s": (gs["groups.rational_rank"], "s"),
        "isometry.words.enumerated": (enumerated, count),
        "isometry.words.evaluated": (evaluated, count),
        "isometry.words.evaluated_ratio": (evaluated / enumerated if enumerated else 0.0, "ratio"),
        "isometry.certify_self_s": (s["isometry.certify_free_on_ball"], "s"),
        "isometry.window_build_s": (gs["isometry.window_build"], "s"),
        "isometry.classify.calls": (g["isometry.classify"], count),
        "isometry.classify_s": (gs["isometry.classify"], "s"),
        "isometry.inconclusive": (x["isometry.inconclusive"], count),
        "bruhat.parse_s": (gs["bruhat.matrix_group_from_json"], "s"),
        "bruhat.mat2_mul.calls": (c["bruhat.Mat2.__mul__"], count),
        "bruhat.mat2_mul_s": (gs["bruhat.Mat2.__mul__"], "s"),
        "bruhat.length.calls": (g["bruhat.MatrixLengthOracle.length"], count),
        "bruhat.length_s": (gs["bruhat.MatrixLengthOracle.length"], "s"),
        "bruhat.is_trivial.calls": (g["bruhat.MatrixLengthOracle.is_trivial"], count),
        "bruhat.is_trivial_s": (gs["bruhat.MatrixLengthOracle.is_trivial"], "s"),
        "bruhat.product_reuse_ratio": ((products - fresh) / products if products else 0.0, "ratio"),
        "bruhat.coeff_bits_max": (tr.maxima["coeff_bits"], "bits"),
        "bruhat.degree_max": (tr.maxima["degree"], "degree"),
        "gluing.dual_distance.calls": (g["gluing.dual_distance"], count),
        "gluing.dual_distance_s": (gs["gluing.dual_distance"], "s"),
        "gluing.skeleton_paths.paths": (x["gluing.skeleton_paths.paths"], count),
        "gluing.check_free_s": (gs["gluing.check_free_criterion"], "s"),
        "gluing.equiv_class.nodes": (x["gluing.equiv_class.nodes"], count),
        "gluing.glue_s": (gs["gluing.glue"], "s"),
        "devissage.structure_s": (gs["devissage.check_structure"], "s"),
        "devissage.acyl_s": (gs["devissage.check_acylindricity"], "s"),
        "devissage.betti_s": (gs["devissage.check_betti_bounds"], "s"),
        "devissage.principal_s": (gs["devissage.principal_splitting_case"], "s"),
        "markedgroups.relations_up_to_s": (gs["markedgroups.relations_up_to"], "s"),
        "markedgroups.same_ball.calls": (g["markedgroups.same_ball"], count),
        "markedgroups.same_ball_s": (gs["markedgroups.same_ball"], "s"),
        "markedgroups.is_relation.calls": (c["markedgroups.MarkedGroup.is_relation"], count),
        "markedgroups.budget_exceeded": (x["markedgroups.budget_exceeded"], count),
        "cli.main_s": (gs["cli.main"], "s"),
        "cli.main_self_s": (tr.module_self["cli"], "s"),
    }
    for mod in ("lambdatree", "groups", "isometry", "bruhat", "gluing", "devissage",
                "markedgroups"):
        m[f"{mod}.self_s"] = (tr.module_self[mod], "s")
    m["trace.overhead_s"] = (walls["traced"] - walls["untraced"], "s")
    return m


# output ---------------------------------------------------------------------------------

DROPPED = {
    "error_rate": "kept out of metrics because it is 0 when all is well and the benchmark "
                  "format forbids metrics that can read 0; it equals failed / attempted "
                  "in the result line",
}


def main(argv=None):
    args = _args(argv)
    if not os.path.isfile(os.path.join("src", "lambdaforest", "cli.py")):
        print("perfbench: run from the root of a lambdaforest checkout "
              "(src/lambdaforest/cli.py not found)", file=sys.stderr)
        return 2
    t_setup = perf_counter()
    workdir = os.path.join(".perfbench_runs", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    n_batches = max(1, round(args.seconds / (joblib.BATCH_SECONDS[args.workload])))
    if args.trace:  # half the batches: the layer split needs no more, and the run stays short
        n_batches = max(1, n_batches // 2)
    batches = [joblib.build(args.workload, args.seed, args.size, b) for b in range(n_batches)]
    batches = [list(zip(batch, _materialize(batch, workdir))) for batch in batches]
    job_list = [job for batch in batches for job, _argv in batch]
    context = _context(args, len(batches[0]))
    context["batches"] = n_batches
    context["benchmark_setup_s"] = perf_counter() - t_setup

    if args.trace:
        tally, metrics, details = run_traced(batches, workdir)
    else:
        tally, metrics, details = run_e2e(batches, workdir)
        context["tail_percentile"] = details["tail"]

    counts = {k: v for k, (v, unit) in metrics.items() if unit not in ("s", "ns", "MB")}
    timings = {k: v for k, (v, unit) in metrics.items() if unit in ("s", "ns", "MB")}
    full = {"context": context, "counts": counts, "timings": timings, "details": details,
            "units": {k: u for k, (_v, u) in metrics.items()},
            "dropped_metrics": DROPPED, "attempted": tally.attempted, "failed": tally.failed,
            "wrong_verdicts": tally.wrong, "failures": tally.problems,
            "job_kinds": sorted({j.kind for j in job_list})}
    with open(os.path.join(workdir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=2, sort_keys=True, default=str)

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{n_batches} batches of {len(batches[0])} jobs; python {context['python']} on "
          f"{context['machine']}, nproc {context['nproc']}, commit {context['commit']}, "
          f"source {context['source_sha256']}")
    if not args.trace:
        t = details["tail"]
        c = details["calibration_s"]
        print(f"  {t['jobs']} jobs timed; wall_s is the sum of their times; job_s.tail is the "
              f"p{t['percentile']} ({t['jobs_beyond']} jobs beyond); "
              f"{details['setup_samples']} start-up samples")
        print(f"  times in s at reference speed (calibration = {CAL_REF_S} s); the "
              f"{details['calibrations']} calibrations took {c['min']:.4f} to {c['max']:.4f} s, "
              f"median {c['median']:.4f} s; as measured:")
        for name, value in details["measured_s"].items():
            print(f"    {name:34s} {value:>14.6g} s")
    else:
        print(f"  {details['spans']} spans ({details['spans_dropped']} not kept), "
              f"ordgroup timing on {details['operands']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>14.6g} {unit}")
    print(f"  {'error_rate':36s} {tally.failed / tally.attempted:>14.6g} ratio  (not in metrics: "
          f"{DROPPED['error_rate']})")
    for job, problems in sorted(tally.problems.items()):
        print(f"  FAILED {job}: {'; '.join(problems)}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
