"""Benchmark of `gackit`, the propagation-strength checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the program is imported from `src/`.
Workloads (see `workloads.py` and NOTES.md): suite, cnf-large, closure,
solve. Every measurement runs in a fresh interpreter (`worker.py`), one at a
time, single-threaded.

With `--trace 0` the end-to-end metrics are measured untraced:

* setup_s: interpreter start to the first timed op, median over nine
  fresh interpreters (four before the measuring one, four after);
* wall_s: wall time of one round of the workload, median over the rounds
  that fit in `--seconds`;
* us_per_state: round wall time per knowledge state (check-gac) or per
  complete assignment (equiconsistency), median over rounds;
* check_p50_ms, check_p90_ms: latency of each checker call, over all
  calls of the run;
* peak_rss_mb: peak resident memory of the measuring process.

With `--trace 1` one process runs pairs of rounds, one untraced and one
traced, until `--seconds` is used up. The per-layer metrics come from the
spans of the traced rounds; `trace.overhead_ratio` is the median over pairs
of traced round ÷ untraced round, so both sides of a ratio are taken back
to back. Traced and untraced verdicts must agree.

Every op's output is checked against its expected answer; the last line
of standard output is the JSON result. `--smoke` runs every workload on
tiny instances, with expected answers from the naive reference, and checks
that every metric of BENCHMARK.json is reported with its unit and that a
wrong expected answer is counted as a failed op.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4          # set-up-only interpreters before and again after the measuring one
# A worker ends its last round, and in trace mode its last pair of rounds,
# after `--seconds`; the margin covers a few of the longest rounds
# (`cnf-large`, about 10 s) at the host's slowest.
WORKER_MARGIN_S = 120

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    pass


def spawn(work: Path, workload: str, seed: int, mode: str, seconds: float,
          smoke: bool = False, corrupt: bool = False, trace_out: Path | None = None) -> dict:
    """Run one worker process to completion and return its result."""
    result = work / f"result-{mode}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds),
           "--work", str(work / "io"), "--result", str(result)]
    if smoke:
        cmd.append("--smoke")
    if corrupt:
        cmd.append("--corrupt")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True,
                          text=True, timeout=seconds + WORKER_MARGIN_S)
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(result.read_text())


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool = False, corrupt: bool = False) -> dict:
    work = ROOT / ".perfbench" / f"run-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        def run(mode, s, **kw):
            return spawn(work, workload, seed, mode, s, smoke=smoke, corrupt=corrupt, **kw)

        if trace:
            trace_dir = ROOT / ".perfbench" / "trace"
            trace_dir.mkdir(parents=True, exist_ok=True)
            traced = run("trace", seconds, trace_out=trace_dir / f"spans-{workload}.bin")
            parts = [traced]
            metrics = dict(traced["layers"])
            rounds = traced["rounds"]
            pairs = (sorted(pair, key=lambda r: r["traced"])
                     for pair in zip(rounds[0::2], rounds[1::2]))
            overhead = statistics.median(t["wall_s"] / u["wall_s"] for u, t in pairs)
            metrics["trace.overhead_ratio"] = _metric(overhead, "ratio")
            if overhead < 1:
                print(f"  trace.overhead_ratio {overhead:.3f} is below 1: the host's "
                      "drift within a pair exceeded the tracing cost", file=sys.stderr)
            same = traced["agree"]
        else:
            # Probes on both sides of the measuring process sample the host
            # over the whole run, not only at its start.
            setups = [run("setup", 0)["setup_s"] for _ in range(SETUP_PROBES)]
            main = run("measure", seconds)
            setups += [run("setup", 0)["setup_s"] for _ in range(SETUP_PROBES)]
            parts = [main]
            rounds = main["rounds"]
            latencies = [t * 1e3 for r in main["latencies"] for t in r] or [0.0]
            per_state = [r["wall_s"] * 1e6 / r["states"] for r in rounds if r["states"]]
            metrics = {
                "setup_s": _metric(statistics.median(setups + [main["setup_s"]]), "s"),
                "wall_s": _metric(statistics.median(r["wall_s"] for r in rounds), "s"),
                "us_per_state": _metric(statistics.median(per_state or [0.0]), "us"),
                "check_p50_ms": _metric(statistics.median(latencies), "ms"),
                "check_p90_ms": _metric(_p90(latencies), "ms"),
                "peak_rss_mb": _metric(main["peak_rss_mb"], "MB"),
            }
            same = True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    messages = list(dict.fromkeys(m for p in parts for m in p["messages"]))
    if not same:
        failed += 1
        messages.append("traced and untraced runs gave different verdicts")
    print(f"{workload}: seed {seed} -> pool entry {parts[0]['pool_index']}; "
          + "; ".join(f"{len(p['rounds'])} rounds of {len(p['latencies'][0])} checker calls"
                      for p in parts), file=sys.stderr)
    for m in messages:
        print(f"  {m}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def smoke() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            r = measure(workload, 1, 0.2, trace, smoke=True)
            got = {name: m["unit"] for name, m in r["metrics"].items()}
            where = f"{workload} --trace {trace}"
            if got != wanted[trace]:
                problems.append(f"{where}: metrics {sorted(got.items())} "
                                f"!= BENCHMARK.json {sorted(wanted[trace].items())}")
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                problems.append(f"{where}: program and naive reference disagree "
                                f"({r['failed']} of {r['attempted']} ops failed)")
    r = measure("cnf-large", 1, 0.2, 0, smoke=True, corrupt=True)
    if r["correct"] or r["failed"] < 1:
        problems.append("a wrong expected answer was not counted as a failed op")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(f"smoke: {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gackit" / "__init__.py").is_file():
        print(f"error: no gackit sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
