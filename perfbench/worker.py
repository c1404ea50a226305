"""One measuring process of the benchmark.

`run.py` starts this file in a fresh interpreter for every measurement, so
that set-up time and peak memory belong to one run. The process imports
`gackit` from the checkout's `src/`, writes the workload's inputs, and then,
depending on `--mode`:

* `setup`: stops at the first timed op and reports the set-up time;
* `measure`: runs rounds of the workload untraced until `--seconds` is
  used up, and checks every output against its expected answer;
* `trace`: the same, in pairs of one untraced and one traced round (the
  span wrappers of `tracer.py` switched off and on), the order swapped
  from pair to pair; per-layer metrics come from the traced rounds.

The result is written as JSON to `--result`. Each op's standard output is
captured, so nothing the program prints reaches the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"
CHECKERS = ("check_gac_reduction", "check_equiconsistency")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Capture:
    """Timer pair around every checker call made from the CLI or the suite.

    Keeps each call's latency and verdict; the verdicts of the suite's
    checks are its ops' outputs. The checker is looked up in `source`
    (`gackit.gac_check`) at each call, so span wrappers installed there
    later are used while they are switched on.
    """

    def __init__(self, modules, source):
        self.calls = []
        for module in modules:
            for name in CHECKERS:
                if hasattr(module, name):
                    setattr(module, name, self._wrap(source, name))

    def _wrap(self, source, name):
        calls = self.calls
        clock = time.perf_counter

        def timed(*args, **kwargs):
            fn = getattr(source, name)
            t = clock()
            verdict = fn(*args, **kwargs)
            calls.append((clock() - t, verdict))
            return verdict
        return timed

    def take(self):
        calls = list(self.calls)
        self.calls.clear()
        return calls


def verdict_answer(data: bytes) -> dict:
    doc = json.loads(data)
    return {"outcome": doc["outcome"], "states": doc["states_checked"],
            "gaps": len(doc["counterexamples"]), "sha256": sha256(data)}


def observe(plan, outcomes, calls) -> dict:
    """The answers a round produced: per op its exit code and output, and for
    the suite per checker call its verdict."""
    ops = {}
    for op, code, error in outcomes:
        answer = {"exit": code}
        if error is not None:
            answer["error"] = error
        elif op.out.is_file():
            data = op.out.read_bytes()
            if op.kind in ("check-gac", "equiconsistency") and code in (0, 1):
                answer.update(verdict_answer(data))
            else:
                answer["sha256"] = sha256(data)
        ops[op.name] = answer
    observed = {"ops": ops}
    if plan.workload == "suite":
        observed["calls"] = [verdict_answer(v.to_json().encode()) for _, v in calls]
    return observed


def verify(expected: dict, observed: dict) -> tuple[int, int, list[str]]:
    """(ops attempted, ops failed, messages). An op fails when it raised,
    exited with another code than expected, or its output differs from the
    expected answer in outcome, states, gap count or bytes."""
    attempted = failed = 0
    messages = []
    for name, want in expected["ops"].items():
        attempted += 1
        got = observed["ops"].get(name)
        if got != want:
            failed += 1
            messages.append(f"{name}: expected {want}, got {got}")
    if "calls" in expected:
        want_calls, got_calls = expected["calls"], observed.get("calls", [])
        attempted += len(want_calls)
        for i, want in enumerate(want_calls):
            got = got_calls[i] if i < len(got_calls) else None
            if got != {k: v for k, v in want.items() if k != "name"}:
                failed += 1
                messages.append(f"call {want.get('name', i)}: expected {want}, got {got}")
        if len(got_calls) > len(want_calls):
            failed += 1
            messages.append(f"{len(got_calls) - len(want_calls)} unexpected checker calls")
    return attempted, failed, messages


def load_expected(workload: str, index: int) -> dict:
    doc = json.loads((EXPECTED / f"{workload}.json").read_text())
    entry = doc["pool"][index]
    if entry["index"] != index:
        raise ValueError(f"expected/{workload}.json: pool entry {index} is out of order")
    return entry


def run_round(cli, plan, tracer=None):
    """Run every op of one round through `cli.main`; (wall seconds, outcomes)."""
    outcomes = []
    sink = io.StringIO()
    start = time.perf_counter()
    for op in plan.ops:
        if tracer is not None:
            tracer.op += 1
        error = None
        code = None
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(op.argv)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        outcomes.append((op, code, error))
    return time.perf_counter() - start, outcomes


def measure_round(cli, plan, expected, capture, tracer) -> dict:
    """Run and check one round. Only its summary outlives the call, so the
    verdicts of one round are freed before the next starts and peak memory
    does not depend on the number of rounds."""
    wall, outcomes = run_round(cli, plan, tracer)
    calls = capture.take()
    observed = observe(plan, outcomes, calls)
    attempted, failed, messages = verify(expected, observed)
    return {"wall_s": wall, "states": sum(v.states_checked for _, v in calls),
            "latencies": [t for t, _ in calls], "attempted": attempted,
            "failed": failed, "messages": messages, "observed": observed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process started")
    parser.add_argument("--work", required=True, help="directory for inputs and outputs")
    parser.add_argument("--result", required=True, help="file the result JSON goes to")
    parser.add_argument("--trace-out", help="file the spans go to (trace mode)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances, expected answers from the naive reference")
    parser.add_argument("--corrupt", action="store_true",
                        help="smoke check: make one expected answer wrong")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import gackit.classify
    import gackit.cli
    import gackit.gac_check
    import workloads

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    index = workloads.pool_index(args.workload, args.seed)
    plan = workloads.plan(args.workload, index, work, smoke=args.smoke)
    for name, text in plan.files.items():
        (work / name).write_text(text)
    if args.smoke:
        import answers
        expected = answers.reference_answers(plan)
    else:
        expected = load_expected(args.workload, index)
    if args.corrupt:
        name = next(iter(expected["ops"]))
        expected["ops"][name] = dict(expected["ops"][name], exit=-1)

    capture = Capture([gackit.cli, gackit.classify], gackit.gac_check)
    tracer = None
    if args.mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0

    result = {"setup_s": setup_s, "pool_index": index}
    if args.mode != "setup":
        rounds = []
        measured = time.perf_counter()
        while True:
            # A unit is one round, or in trace mode a pair: untraced then
            # traced, swapped in every other pair so that drift of the host
            # within a pair does not always fall on the same side.
            order = (False,) if tracer is None else \
                ((False, True) if len(rounds) % 4 == 0 else (True, False))
            for traced in order:
                if tracer is not None:
                    tracer.enable(traced)
                rounds.append(dict(measure_round(gackit.cli, plan, expected, capture,
                                                 tracer if traced else None),
                                   traced=traced))
            elapsed = time.perf_counter() - measured
            typical = statistics.median(r["wall_s"] for r in rounds) * len(order)
            if elapsed + typical / 2 > args.seconds:
                break
        result.update(
            rounds=[{"wall_s": r["wall_s"], "states": r["states"], "traced": r["traced"]}
                    for r in rounds],
            latencies=[r["latencies"] for r in rounds],
            attempted=sum(r["attempted"] for r in rounds),
            failed=sum(r["failed"] for r in rounds),
            messages=list(dict.fromkeys(m for r in rounds for m in r["messages"]))[:20],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            result["agree"] = all(r["observed"] == rounds[0]["observed"] for r in rounds)
            result["layers"] = tracer.layer_metrics(sum(r["traced"] for r in rounds))
            if args.trace_out:
                tracer.write(Path(args.trace_out))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
