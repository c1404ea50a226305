"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --runs 10 [--workload NAME ...] [--trace 0|1]
                                [--first-seed 1] [--out FILE]

Runs `run.py` once per seed, one run at a time, and prints for every metric
the median, the quartiles (`statistics.quantiles(values, n=4)`) and the
spread, which is the distance between the quartiles as a share of the
median. For an end-to-end metric the spread is compared with the bound in
BENCHMARK.json. `--out` writes all values and the summary as JSON, with
the machine it ran on; `baseline.json` was written this way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def environment() -> dict:
    """Python version, CPU model, CPU count and `src/` line count, which
    the ROADMAP tracks next to the bench numbers."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(), "src_lines": src_lines}


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    status = 0
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                status = 1
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                if k in bounds or args.trace), flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = dict(summarise(values), values=values,
                                 unit=runs[0]["metrics"][name]["unit"])
            if name in bounds:
                s = summary[name]
                flag = "" if s["spread"] <= bounds[name] / 3 else \
                    ("  > bound/3" if s["spread"] <= bounds[name] else "  > BOUND")
                print(f"  {name}: median {s['median']:.4g} {s['unit']}, "
                      f"quartiles {s['q1']:.4g}..{s['q3']:.4g}, "
                      f"spread {s['spread']:.3f} (bound {bounds[name]}){flag}")
        report[workload] = {"runs": len(runs),
                            "ops_failed": sum(r["failed"] for r in runs),
                            "ops_attempted": sum(r["attempted"] for r in runs),
                            "metrics": summary}
    if args.out:
        doc = {"environment": environment(), "run_seconds": bench["run_seconds"],
               "trace": args.trace, "seeds": [args.first_seed, args.first_seed + args.runs - 1],
               "workloads": report}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
