"""Make or check the committed expected answers.

    python3 perfbench/answers.py [--workload NAME]

For every entry of every workload's seed pool this runs one round of the
workload through `gackit`, rebuilds each checker verdict with the naive
reference in `reference.py`, and requires the two to agree byte for byte.
For the `suite` workload it also requires the gap counts pinned below.

A missing `expected/<workload>.json` is written from the agreed answers.
An existing one is never rewritten: it is compared with what the program
gives now, and any difference is reported and fails the command. The
naive reference is slow (minutes for `cnf-large`), so it runs only where
a file is written: a committed file was checked against it then.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gackit.classify  # noqa: E402
import gackit.cli  # noqa: E402
import gackit.gac_check  # noqa: E402
from gackit.classify import _instances  # noqa: E402
from gackit.cnet import parse_cnet  # noqa: E402
from gackit.encoders import build_encoding  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from worker import EXPECTED, Capture, observe, run_round, verdict_answer, verify  # noqa: E402

# Gap counts per size of the bundled suite, known before this benchmark.
PINNED_GAPS = {
    "binary-adder": {2: 1, 3: 24, 4: 154, 5: 882, 6: 4386},
    "alldiff-pairwise": {3: 4, 4: 1046},
    "clause-to-neq:non-gac": {3: 4},
}


def _reference_op(plan, op) -> dict:
    doc = parse_cnet(plan.files[op.source])
    constraint, variables = doc.network.constraints[0], doc.network.variables
    enc = build_encoding(op.encoding, constraint, variables)
    build = (reference.gac_reduction_verdict if op.kind == "check-gac"
             else reference.equiconsistency_verdict)
    answer = verdict_answer(build(constraint, enc).encode())
    return {"exit": 0 if answer["outcome"] == "pass" else 1, **answer}


def suite_instances(config: dict):
    """(name, constraint, encoding) of every check the suite config runs,
    in the order `run_class_suite` runs them."""
    for job in config["jobs"]:
        for size in job["sizes"]:
            for k, (constraint, variables) in enumerate(_instances(job["family"], size)):
                yield (f"{job['family']}/{job['encoding']}/n={size}/{k}", constraint,
                       build_encoding(job["encoding"], constraint, variables))


def reference_answers(plan) -> dict:
    """Expected answers from the naive reference alone: every checker
    verdict of the plan. Encodings and reports have no reference and are
    left out."""
    ops = {op.name: _reference_op(plan, op) for op in plan.ops
           if op.kind in ("check-gac", "equiconsistency")}
    answers = {"index": plan.pool_index, "ops": ops}
    if plan.workload == "suite":
        answers["calls"] = [
            verdict_answer(reference.gac_reduction_verdict(constraint, enc).encode())
            for _, constraint, enc in suite_instances(_suite_config(plan))]
    return answers


def _suite_config(plan) -> dict:
    return plan.suite_config or gackit.classify.default_config()


def program_answers(plan, work: Path, capture) -> dict:
    for name, text in plan.files.items():
        (work / name).write_text(text)
    _, outcomes = run_round(gackit.cli, plan)
    observed = observe(plan, outcomes, capture.take())
    return {"index": plan.pool_index, "inputs": dict(plan.files), **observed}


def _pinned_gap_errors(report: dict) -> list[str]:
    errors = []
    for row in report["rows"]:
        for size, gaps in PINNED_GAPS.get(row["encoding"], {}).items():
            got = next(v["gaps"] for v in row["verdicts"] if v["size"] == size)
            if got != gaps:
                errors.append(f"{row['encoding']} n={size}: {got} gaps, pinned {gaps}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    args = parser.parse_args(argv)

    work = HERE.parent / ".perfbench" / "answers"
    capture = Capture([gackit.cli, gackit.classify], gackit.gac_check)
    errors = []
    for workload in args.workload or workloads.WORKLOADS:
        path = EXPECTED / f"{workload}.json"
        committed = json.loads(path.read_text()) if path.exists() else None
        pool = []
        for index in range(workloads.pool_size(workload)):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            plan = workloads.plan(workload, index, work)
            entry = program_answers(plan, work, capture)
            found = []
            if committed is None:
                found += verify(reference_answers(plan), entry)[2]
            else:
                want = committed["pool"][index]
                found += verify(want, entry)[2]
                if want["inputs"] != entry["inputs"]:
                    found.append(f"inputs differ from {path.name}")
            if "calls" in entry:
                names = [name for name, _, _ in suite_instances(_suite_config(plan))]
                entry["calls"] = [dict(c, name=n) for n, c in zip(names, entry["calls"])]
            if workload == "suite":
                report = plan.ops[0].out.read_bytes()
                found += _pinned_gap_errors(json.loads(report))
                golden = EXPECTED / "suite_report.json"
                if not golden.exists() and not found:
                    golden.write_bytes(report)
                elif golden.exists() and golden.read_bytes() != report:
                    found.append("report differs from suite_report.json")
            print(f"{workload}[{index}]: {'ok' if not found else 'MISMATCH'}", flush=True)
            errors += [f"{workload}[{index}] {e}" for e in found]
            pool.append(entry)
        if committed is None and not errors:
            path.write_text(json.dumps({"workload": workload, "pool": pool},
                                       indent=1, sort_keys=True) + "\n")
            print(f"wrote {path.relative_to(HERE.parent)}")
    shutil.rmtree(work, ignore_errors=True)
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
