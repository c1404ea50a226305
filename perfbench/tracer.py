"""Spans around the calls into each `gackit` module, for the traced run.

`Tracer.install()` replaces public functions of `gackit` with wrappers that
record a span per call: name, start, end, parent span and op id. A name is
replaced in every `gackit` module namespace that holds it, since modules
import each other's functions by name (`gac_filter` lives in `propagation`
and is called from `gac_check` too). The generator of
`enumerate_knowledge_states` is wrapped so that each `next()` is a span.
`Constraint.accepts` is only counted: it runs millions of times in the
brute-force solver, and a span per call would swamp what it measures.

`install()` puts the wrappers in place; `enable(False)` puts the original
functions back and `enable(True)` the wrappers again, so one process can
alternate untraced and traced rounds. Wrap checker calls from outside (the
worker's `Capture`) before `install()`, and look them up in `gac_check` at
call time, so that switching the wrappers never removes the outer layer.

Spans are kept in memory in flat arrays and written out once, at the end,
by `write()`: one JSON header line (names, count, field layout), then the
arrays `name`, `parent`, `op` (int32) and `start`, `end` (float64,
`time.perf_counter` seconds) in native byte order, one after the other.

A span's self time is its duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter, defaultdict

FILTER_KINDS = ("card", "clause", "neq", "alldiff", "xor")

# (module, function, span name) for every wrapped function.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cnet", "parse_cnet", "cnet.parse_cnet"),
    ("dimacs", "write_dimacs", "dimacs.write_dimacs"),
    ("encoders", "build_encoding", "encoders.build_encoding"),
    ("encoders", "compile_network", "encoders.compile_network"),
    ("classify", "run_class_suite", "classify.run_class_suite"),
    ("classify", "render_report", "classify.render_report"),
    ("gac_check", "check_gac_reduction", "gac_check.check_gac_reduction"),
    ("gac_check", "check_equiconsistency", "gac_check.check_equiconsistency"),
    ("gac_check", "map_knowledge", "gac_check.map_knowledge"),
    ("gac_check", "_target_box", "gac_check.target_box"),
    ("gac_check", "map_back", "gac_check.map_back"),
    ("propagation", "gac_closure", "propagation.gac_closure"),
    ("propagation", "sat_solve", "propagation.sat_solve"),
    ("propagation", "solve_brute_force", "propagation.solve_brute_force"),
)
ENUMERATE = "gac_check.enumerate"
PROPAGATE = "propagation.unit_propagate"
FILTER = "propagation.gac_filter"

# Per-layer metrics: name -> unit. Values are per round of the workload.
METRICS = {
    f"{PROPAGATE}.calls": "count/round",
    f"{PROPAGATE}.self_s": "s/round",
    f"{PROPAGATE}.conflicts": "count/round",
    "propagation.sat_solve.calls": "count/round",
    "propagation.sat_solve.self_s": "s/round",
    "propagation.sat_solve.nodes": "count/round",
    "propagation.solve_brute_force.calls": "count/round",
    "propagation.solve_brute_force.self_s": "s/round",
    "model.accepts.calls": "count/round",
    "propagation.gac_closure.calls": "count/round",
    "propagation.gac_closure.self_s": "s/round",
    f"{FILTER}.calls": "count/round",
    f"{FILTER}.self_s": "s/round",
    f"{FILTER}.prune_ratio": "ratio",
    **{f"{FILTER}.{kind}.self_s": "s/round" for kind in FILTER_KINDS},
    f"{ENUMERATE}.self_s": "s/round",
    "gac_check.map_knowledge.calls": "count/round",
    "gac_check.map_knowledge.self_s": "s/round",
    "gac_check.target_box.self_s": "s/round",
    "gac_check.map_back.self_s": "s/round",
    "gac_check.states": "count/round",
    "gac_check.counterexamples": "count/round",
    "gac_check.check_gac_reduction.calls": "count/round",
    "gac_check.check_gac_reduction.self_s": "s/round",
    "gac_check.check_equiconsistency.calls": "count/round",
    "gac_check.check_equiconsistency.self_s": "s/round",
    "encoders.build_encoding.calls": "count/round",
    "encoders.build_encoding.self_s": "s/round",
    "encoders.compile_network.calls": "count/round",
    "encoders.compile_network.self_s": "s/round",
    "encoders.target_vars": "count/round",
    "encoders.target_clauses": "count/round",
    "classify.run_class_suite.self_s": "s/round",
    "classify.render_report.self_s": "s/round",
    "cli.main.calls": "count/round",
    "cli.main.self_s": "s/round",
    "cnet.parse_cnet.calls": "count/round",
    "cnet.parse_cnet.self_s": "s/round",
    "cnet.parse_cnet.bytes": "bytes/round",
    "dimacs.write_dimacs.calls": "count/round",
    "dimacs.write_dimacs.self_s": "s/round",
    "dimacs.write_dimacs.bytes": "bytes/round",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.opid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _timed(self, name_of, fn, after=None):
        """Wrap `fn` in a span; `name_of` maps the call's arguments to the
        span name id. `after(args, result)` updates counters."""
        clock = time.perf_counter
        stack, names, parents, ops = self.stack, self.name, self.parent, self.opid
        starts, ends = self.start, self.end
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_of(args))
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _span(self, name: str, fn, after=None):
        nid = self._id(name)
        return self._timed(lambda args: nid, fn, after)

    def install(self):
        import gackit.classify  # noqa: F401  (these two load every gackit module)
        import gackit.cli  # noqa: F401
        from gackit import model, propagation
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gackit" or n.startswith("gackit."))]

        def replace(orig, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._patch(module, attr, wrapper)

        counts = self.counts
        after = {
            "cnet.parse_cnet": lambda a, r: counts.update({"cnet.parse_cnet.bytes": len(a[0])}),
            "dimacs.write_dimacs": lambda a, r: counts.update({"dimacs.write_dimacs.bytes": len(r)}),
            "encoders.build_encoding": self._count_encoding,
            "encoders.compile_network": self._count_encoding,
            "gac_check.check_gac_reduction": self._count_verdict,
            "gac_check.check_equiconsistency": self._count_verdict,
        }
        for module_name, attr, name in SPANS:
            orig = getattr(sys.modules[f"gackit.{module_name}"], attr)
            replace(orig, self._span(name, orig, after.get(name)))

        kind_ids = {}

        def filter_name(args):
            kind = type(args[0]).__name__.lower()
            if kind not in kind_ids:
                kind_ids[kind] = self._id(f"{FILTER}.{kind}")
            return kind_ids[kind]

        def count_prune(args, result):
            if result.inconsistent or result.box is not args[1]:
                counts["prune"] += 1
        replace(propagation.gac_filter,
                self._timed(filter_name, propagation.gac_filter, count_prune))

        def count_conflict(args, result):
            if result is None:
                counts[f"{PROPAGATE}.conflicts"] += 1
        self._patch(propagation.UnitPropagator, "propagate", self._span(
            PROPAGATE, propagation.UnitPropagator.propagate, count_conflict))

        orig_enumerate = sys.modules["gackit.gac_check"].enumerate_knowledge_states
        replace(orig_enumerate, self._timed_generator(ENUMERATE, orig_enumerate))

        for cls in (model.Clause, model.Card, model.Xor, model.AllDiff,
                    model.Neq, model.Table):
            self._patch(cls, "accepts", self._counted(cls.accepts))

    def _patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr), wrapper))
        setattr(owner, attr, wrapper)

    def enable(self, on: bool):
        """Put the wrappers (`on`) or the original functions in place."""
        for owner, attr, orig, wrapper in self._patches:
            setattr(owner, attr, wrapper if on else orig)

    def _counted(self, accepts):
        counts = self.counts

        def counted(constraint, values):
            counts["model.accepts.calls"] += 1
            return accepts(constraint, values)
        return counted

    def _timed_generator(self, name: str, gen_fn):
        """Wrap a generator function so that every `next()` is a span."""
        step = self._span(name, next)

        class TimedIterator:
            __slots__ = ("inner",)

            def __init__(self, inner):
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                return step(self.inner)

        return lambda *args, **kwargs: TimedIterator(gen_fn(*args, **kwargs))

    def _count_encoding(self, args, enc):
        self.counts["encoders.target_vars"] += enc.stats.variables
        self.counts["encoders.target_clauses"] += enc.stats.clauses

    def _count_verdict(self, args, verdict):
        self.counts["gac_check.states"] += verdict.states_checked
        self.counts["gac_check.counterexamples"] += len(verdict.counterexamples)

    def layer_metrics(self, rounds: int) -> dict:
        """Every metric of METRICS, per round, from the recorded spans."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end, name = self.parent, self.start, self.end, self.name
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s = defaultdict(float)
        calls = Counter()
        nodes = 0
        prop = self._ids.get(PROPAGATE)
        sat = self._ids.get("propagation.sat_solve")
        for i in range(n):
            nid = name[i]
            self_s[nid] += end[i] - start[i] - child[i]
            calls[nid] += 1
            if nid == prop and parent[i] >= 0 and name[parent[i]] == sat:
                nodes += 1

        totals = Counter(self.counts)
        totals["propagation.sat_solve.nodes"] = nodes
        for nid, span_name in enumerate(self.names):
            totals[f"{span_name}.calls"] += calls[nid]
            totals[f"{span_name}.self_s"] += self_s[nid]
            if span_name.startswith(FILTER + "."):
                totals[f"{FILTER}.calls"] += calls[nid]
                totals[f"{FILTER}.self_s"] += self_s[nid]
        values = {}
        for metric, unit in METRICS.items():
            if metric == f"{FILTER}.prune_ratio":
                filtered = totals[f"{FILTER}.calls"]
                value = totals["prune"] / filtered if filtered else 0.0
            else:
                value = totals[metric] / rounds
            values[metric] = {"value": value, "unit": unit}
        return values

    def write(self, path):
        header = {"names": self.names, "count": len(self.start),
                  "fields": ["name:int32", "parent:int32", "op:int32",
                             "start:float64", "end:float64"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.opid, self.start, self.end):
                arr.tofile(fh)
