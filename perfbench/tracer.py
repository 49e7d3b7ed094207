"""In-process tracing of lambdaforest from the outside.

`Tracer.install` replaces the public functions and methods of every module
with wrappers, everywhere the same object is bound (a `from .x import f`
binds it again), and `uninstall` puts the originals back.  Three kinds of
wrapper:

* span: name, start, end, parent and job are kept in memory; calls, self
  time (duration minus the time of child spans) and, per metric group, the
  time of outermost calls are summed as the spans close;
* count: calls only, for functions called per letter or per arithmetic
  operation, where a span would cost more than the call.  Their time lands
  in the self time of the span that called them;
* untouched: the field arithmetic of bruhat (Laurent1, Laurent2, RatFunc,
  BiRatFunc, QpElement) and small lambdatree helpers, whose callers are in
  the same module, so module self times are unchanged.

Ordered-group arithmetic is counted, never spanned, so its time shows in the
self time of the caller: "lambdatree" self time includes the LexValue
arithmetic it does.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import random
from collections import Counter
from fractions import Fraction
from time import perf_counter

MODULES = ("ordgroup", "lambdatree", "groups", "isometry", "bruhat", "gluing",
           "devissage", "markedgroups", "presets", "cli")

COUNT_ONLY = {
    "ordgroup.LexValue.__init__", "ordgroup.LexValue.__add__", "ordgroup.LexValue.__lt__",
    "ordgroup.LexValue.__le__", "ordgroup.lex_compare",
    "groups.free_reduce", "groups.invert", "groups.word_str", "groups.parse_word",
    "groups.exponent_vector", "groups.concat", "groups.power", "groups.cyclic_reduce",
    "groups.cyclic_word", "markedgroups.MarkedGroup.is_relation",
    "markedgroups.MarkedGroup.substitute",
}
UNTOUCHED_CLASSES = {"ordgroup.LexValue", "bruhat.Laurent1", "bruhat.Laurent2", "bruhat.RatFunc",
                     "bruhat.BiRatFunc", "bruhat.QpElement"}
UNTOUCHED = {"lambdatree.MetricTree.edge_length", "lambdatree.MetricTree.has_edge",
             "lambdatree.MetricTree.vertex_distance", "lambdatree.MetricTree.check_point",
             "lambdatree.Leg.length", "lambdatree.SubtreeSpec.contains"}
EXTRA_DUNDERS = {"bruhat.Mat2.__mul__"}

# metric groups: spans whose calls and outermost time are reported together
GROUPS = {
    "lambdatree.MetricTree.__init__": "lambdatree.build",
    "lambdatree.MetricTree.from_json": "lambdatree.build",
    "isometry.PartialIsometry.__init__": "isometry.window_build",
    "isometry.ActionWindow.__init__": "isometry.window_build",
    "gluing.glue_point": "gluing.glue",
    "gluing.glue_subtree": "gluing.glue",
}
for _cls in ("FreeGroupOracle", "FreeAbelianOracle", "HNNOracle", "DirectSumCyclicOracle",
             "MatrixGroupOracle"):
    GROUPS[f"groups.{_cls}.is_trivial"] = "groups.is_trivial"

SPAN_CAP = 200_000  # spans kept for the dump; the sums above stay exact
OPERAND_POOL = 256


class Tracer:
    def __init__(self, package):
        self.mods = {m: getattr(package, m) for m in MODULES}
        self.patches = []
        self.job = ""
        self.stack = []  # open spans: [span id, name, child time]
        self.next_id = 0
        self.spans = []  # (id, name, start, end, parent id, job)
        self.spans_dropped = 0
        self.calls = Counter()  # per name, every call
        self.self_s = Counter()  # per name
        self.group_calls = Counter()  # per group, outermost calls
        self.group_s = Counter()  # per group, outermost time
        self.group_depth = Counter()
        self.module_self = Counter()
        self.pairs = Counter()  # (parent name, child name) -> calls
        self.extra = Counter()  # counts read from results
        self.maxima = {"coeff_bits": 0, "degree": 0}
        self.operands = []
        self._rng = random.Random(0)
        self._seen = 0

    # installation ---------------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, qualified name, raw attribute) per wrapped callable."""
        for mname, mod in self.mods.items():
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if not inspect.isgeneratorfunction(obj):
                        yield mod, attr, f"{mname}.{attr}", obj
                elif inspect.isclass(obj):
                    yield from self._methods(mname, obj)

    def _methods(self, mname, cls):
        cname = f"{mname}.{cls.__name__}"
        for attr, raw in sorted(vars(cls).items()):
            name = f"{cname}.{attr}"
            wanted = (
                (not attr.startswith("_") and cname not in UNTOUCHED_CLASSES)
                or name in COUNT_ONLY or name in EXTRA_DUNDERS
                or (attr == "__init__" and not dataclasses.is_dataclass(cls)
                    and cname not in UNTOUCHED_CLASSES)
            )
            if not wanted or name in UNTOUCHED:
                continue
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                yield cls, attr, name, raw

    def install(self):
        for owner, attr, name, raw in list(self._targets()):
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            if inspect.isclass(owner):
                self.patches.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            for mod in self.mods.values():  # every binding of the same function
                if vars(mod).get(attr) is raw:
                    self.patches.append((mod, attr, raw))
                    setattr(mod, attr, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self.patches):
            setattr(owner, attr, raw)
        self.patches.clear()

    # wrappers -------------------------------------------------------------------------

    def _wrap(self, name, fn):
        if name in COUNT_ONLY:
            return self._count(name, fn)
        module = name.split(".", 1)[0]
        group = GROUPS.get(name, name)
        post = POST.get(name)
        tr = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = tr.next_id
            tr.next_id += 1
            parent = tr.stack[-1] if tr.stack else None
            frame = [sid, name, 0.0]
            tr.stack.append(frame)
            tr.group_depth[group] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tr._close(frame, parent, module, group, t0, perf_counter())
                if post:
                    post(tr, args, None, exc)
                raise
            tr._close(frame, parent, module, group, t0, perf_counter())
            if post:
                post(tr, args, result, None)
            return result

        if name == "isometry.certify_free_on_ball":
            return self._certify(span)
        return span

    def _close(self, frame, parent, module, group, t0, t1):
        self.stack.pop()
        dur = t1 - t0
        name = frame[1]
        own = dur - frame[2]
        self.calls[name] += 1
        self.self_s[name] += own
        self.module_self[module] += own
        self.group_depth[group] -= 1
        if not self.group_depth[group]:
            self.group_calls[group] += 1
            self.group_s[group] += dur
        if parent is not None:
            parent[2] += dur
            self.pairs[(parent[1], name)] += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], name, t0, t1, parent[0] if parent else None, self.job))
        else:
            self.spans_dropped += 1

    def _count(self, name, fn):
        tr = self
        if name == "ordgroup.LexValue.__init__":
            @functools.wraps(fn)
            def created(self_, *args, **kwargs):
                tr.calls[name] += 1
                fn(self_, *args, **kwargs)
                tr._sample(self_)

            return created

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tr.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _sample(self, value):
        """Reservoir sample of the LexValues the workload creates."""
        self._seen += 1
        if len(self.operands) < OPERAND_POOL:
            self.operands.append(value)
        else:
            j = self._rng.randrange(self._seen)
            if j < OPERAND_POOL:
                self.operands[j] = value

    def _certify(self, span):
        """Count the words a certificate enumerated and the ones it evaluated
        (handed to the triviality oracle after inverse pruning)."""
        tr = self

        @functools.wraps(span)
        def certify(length_oracle, triviality_oracle, labels, ball_radius):
            seen = [0]

            def trivial(w):
                seen[0] += 1
                return triviality_oracle(w)

            cert = span(length_oracle, trivial, labels, ball_radius)
            tr.extra["isometry.words.enumerated"] += cert.words_checked
            tr.extra["isometry.words.evaluated"] += seen[0]
            return cert

        return certify

    # reporting ------------------------------------------------------------------------

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps([sid, name, t0, t1, parent, job]) + "\n")


def _post_mul(tr, args, result, exc):
    """Largest Laurent degree and coefficient size in Mat2 products."""
    if exc is None:
        for entry in (result.a, result.b, result.c, result.d):
            _inspect(tr, entry)


def _inspect(tr, x):
    if isinstance(x, (int, Fraction)):
        q = Fraction(x)
        bits = max(q.numerator.bit_length(), q.denominator.bit_length())
        tr.maxima["coeff_bits"] = max(tr.maxima["coeff_bits"], bits)
        return
    coeffs = getattr(x, "coeffs", None)
    if coeffs is not None:
        for exp, c in coeffs.items():
            deg = max(abs(e) for e in exp) if isinstance(exp, tuple) else abs(exp)
            tr.maxima["degree"] = max(tr.maxima["degree"], deg)
            _inspect(tr, c)
        return
    for part in ("num", "den", "value"):
        if hasattr(x, part):
            _inspect(tr, getattr(x, part))


def _post_classify(tr, args, result, exc):
    if exc is None and type(result).__name__ in ("Inconclusive", "OutOfWindow"):
        tr.extra["isometry.inconclusive"] += 1


def _post_paths(tr, args, result, exc):
    if exc is None:
        tr.extra["gluing.skeleton_paths.paths"] += len(result)


def _post_class(tr, args, result, exc):
    if exc is None:
        tr.extra["gluing.equiv_class.nodes"] += len(result.nodes)


def _post_budget(tr, args, result, exc):
    if type(exc).__name__ == "BudgetExceeded" and not any(
            f[1].startswith("markedgroups.") for f in tr.stack):
        tr.extra["markedgroups.budget_exceeded"] += 1


POST = {
    "bruhat.Mat2.__mul__": _post_mul,
    "isometry.classify": _post_classify,
    "gluing.GraphOfActions.skeleton_paths": _post_paths,
    "gluing.glue_equiv_class": _post_class,
    "markedgroups.relations_up_to": _post_budget,
    "markedgroups.same_ball": _post_budget,
    "markedgroups.convergence_profile": _post_budget,
}


def time_per_call(op, pairs, repeats=3, loops=200):
    """Median over repeats of the mean time of op(a, b), in ns."""
    runs = []
    for _ in range(repeats):
        t0 = perf_counter()
        for a, b in pairs:
            for _ in range(loops):
                op(a, b)
        runs.append((perf_counter() - t0) / (loops * len(pairs)) * 1e9)
    runs.sort()
    return runs[len(runs) // 2]
