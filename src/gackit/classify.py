"""Experiment harness: assemble checker verdicts into class-evidence rows.

Three classes organize the picture: MPC (Constraints with a deduction-
preserving translation to CNF), PPC (Constraints with polynomial-time
domain-consistency propagators) and PVC (Constraints whose satisfaction is
polynomially checkable). Rows never claim memberships as proven: a failing
check is a definitive propagation-loss witness for that encoding at that
size, while a passing check is evidence bounded by the sizes tested.
PPC-without-MPC evidence is limited to such encoding-failure witnesses,
since non-existence of every good encoding is not testable.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from . import __version__
from .model import (
    AllDiff, Card, Clause, Neq, ResourceError, UsageError, Xor, bool_variable,
    range_variable,
)
from .encoders import build_encoding
from .gac_check import auto_policy, check_gac_reduction

CONSISTENT_WITH_MPC = "consistent-with-MPC-membership"
GAC_LOSS_WITNESSED = "GAC-loss-witnessed"
NOT_APPLICABLE = "not-applicable"

FOOTNOTES = (
    "A Fail at size n is a definitive propagation-loss witness for that "
    "encoding at that size; a Pass is evidence bounded by the sizes tested, "
    "never a membership proof.",
    "Every shipped constraint family carries a polynomial-time satisfaction "
    "check (the PVC capability column); PVC is occasionally spelled VPC "
    "elsewhere, these reports standardize on PVC.",
)


@dataclass
class EvidenceRow:
    family: str
    encoding: str
    sizes_tested: list[int]
    verdicts: list[dict]
    class_note: str
    pvc_checkable: bool = True
    counterexample: dict | None = None


@dataclass
class EvidenceReport:
    rows: list[EvidenceRow]
    environment: dict = field(default_factory=dict)


def default_config() -> dict:
    """Bundled suite covering the cardinality, difference, parity and clause
    families with their strong and weak encodings."""
    return {
        "seed": 42,
        "max_states": 1_000_000,
        "jobs": [
            {"family": "card", "encoding": "totalizer", "sizes": [1, 2, 3, 4, 5, 6]},
            {"family": "card", "encoding": "binary-adder", "sizes": [1, 2, 3, 4, 5, 6]},
            {"family": "exactly-one", "encoding": "exactly-one:pairwise", "sizes": [1, 2, 3, 4, 5, 6]},
            {"family": "exactly-one", "encoding": "exactly-one:sequential", "sizes": [1, 2, 3, 4, 5, 6]},
            {"family": "neq", "encoding": "neq:pairwise", "sizes": [2, 3, 4, 5]},
            {"family": "neq", "encoding": "neq:sequential", "sizes": [2, 3, 4, 5]},
            {"family": "alldiff", "encoding": "alldiff-pairwise", "sizes": [2, 3, 4]},
            {"family": "xor", "encoding": "xor-direct", "sizes": [1, 2, 3, 4, 5]},
            {"family": "clause", "encoding": "clause-to-neq:gac", "sizes": [1, 2, 3, 4]},
            {"family": "clause", "encoding": "clause-to-neq:non-gac", "sizes": [3]},
        ],
    }


def _instances(family: str, size: int):
    """Deterministic (constraint, variables) test instances per family/size."""
    if family == "card":
        variables = [bool_variable(i, f"x{i}") for i in range(1, size + 1)]
        return [(Card(list(range(1, size + 1)), lo, hi), variables)
                for lo in range(size + 1) for hi in range(lo, size + 1)]
    if family == "exactly-one":
        variables = [bool_variable(i, f"x{i}") for i in range(1, size + 1)]
        return [(Card(list(range(1, size + 1)), 1, 1), variables)]
    if family == "neq":
        a = range_variable(1, "A", 1, size)
        b = range_variable(2, "B", 1, size)
        return [(Neq(1, 2), [a, b])]
    if family == "alldiff":
        if size < 2:
            raise UsageError("alldiff Hall instances need size >= 2")
        # Hall instance: the first size-1 variables exhaust values 1..size-1,
        # so the last variable should lose everything but `size`.
        variables = [range_variable(i, f"X{i}", 1, size - 1) for i in range(1, size)]
        variables.append(range_variable(size, f"X{size}", 1, size))
        return [(AllDiff(list(range(1, size + 1))), variables)]
    if family == "xor":
        variables = [bool_variable(i, f"x{i}") for i in range(1, size + 1)]
        return [(Xor(list(range(1, size + 1)), parity), variables) for parity in (0, 1)]
    if family == "clause":
        variables = [bool_variable(i, f"x{i}") for i in range(1, size + 1)]
        lits = [i if i % 2 == 1 else -i for i in range(1, size + 1)]
        return [(Clause(lits), variables)]
    raise UsageError(f"unknown constraint family {family!r}")


def run_class_suite(config: dict | None = None) -> EvidenceReport:
    """One evidence row per (family, encoding, sizes) job; deterministic under
    a fixed seed. Budget overruns are recorded in the affected size entry,
    never fatal."""
    if config is None:
        config = default_config()
    _validate_config(config)
    seed = config.get("seed", 42)
    max_states = config.get("max_states", 1_000_000)
    rows = []
    for job in config["jobs"]:
        rows.append(_run_job(job, seed, max_states))
    environment = {
        "seed": seed,
        "max_states": max_states,
        "tool_version": __version__,
    }
    return EvidenceReport(rows, environment)


def _validate_config(config) -> None:
    jobs = config.get("jobs") if isinstance(config, dict) else None
    if not isinstance(jobs, list) or not all(
            isinstance(job, dict) and isinstance(job.get("family"), str)
            and isinstance(job.get("encoding"), str) and isinstance(job.get("sizes"), list)
            and all(type(size) is int and size >= 1 for size in job["sizes"])
            for job in jobs):
        raise UsageError('suite config needs a "jobs" list of '
                         '{"family", "encoding", "sizes": [positive int, ...]} objects')
    if any(type(config.get(key, 0)) is not int for key in ("seed", "max_states")):
        raise UsageError('suite config "seed" and "max_states" must be integers')


def _run_job(job: dict, seed: int, max_states: int) -> EvidenceRow:
    family, encoding = job["family"], job["encoding"]
    sizes = list(job["sizes"])
    verdicts = []
    first_ce = None
    saw_gap = False
    target_kinds = set()
    for size in sizes:
        entry = {"size": size, "instances": 0, "states": 0, "pass": True, "gaps": 0}
        try:
            for constraint, variables in _instances(family, size):
                enc = build_encoding(encoding, constraint, variables)
                target_kinds.add(enc.channel.kind)
                verdict = check_gac_reduction(
                    constraint, enc, policy=auto_policy(variables, seed, max_states))
                entry["instances"] += 1
                entry["states"] += verdict.states_checked
                if not verdict.passed:
                    entry["pass"] = False
                    entry["gaps"] += len(verdict.counterexamples)
                    saw_gap = True
                    if first_ce is None:
                        first_ce = verdict.counterexample_json(verdict.counterexamples[0])
        except ResourceError as exc:
            entry = {"size": size, "error": str(exc)}
        verdicts.append(entry)
    if saw_gap:
        note = GAC_LOSS_WITNESSED
    elif target_kinds == {"cnf"} and all("error" not in v for v in verdicts):
        note = CONSISTENT_WITH_MPC
    else:
        note = NOT_APPLICABLE
    return EvidenceRow(family, encoding, sizes, verdicts, note,
                       counterexample=first_ce)


# --- rendering ----------------------------------------------------------------

def report_to_json_dict(report: EvidenceReport) -> dict:
    return {
        "environment": dict(report.environment),
        "rows": [asdict(row) for row in report.rows],
        "footnotes": list(FOOTNOTES),
    }


def _verdict_cell(row: EvidenceRow) -> str:
    parts = []
    for v in row.verdicts:
        if "error" in v:
            parts.append("n={}:error".format(v["size"]))
        elif v["pass"]:
            parts.append("n={}:pass".format(v["size"]))
        else:
            parts.append("n={}:{}gaps".format(v["size"], v["gaps"]))
    return " ".join(parts)


def render_report(report: EvidenceReport, format: str = "text") -> str:
    """Render to json (lossless), text, or a markdown table."""
    if format == "json":
        return json.dumps(report_to_json_dict(report), indent=2, sort_keys=True) + "\n"
    if format == "markdown-table":
        lines = ["| family | encoding | sizes | verdicts | class note | PVC check |",
                 "|---|---|---|---|---|---|"]
        for row in report.rows:
            lines.append(
                f"| {row.family} | {row.encoding} | "
                f"{','.join(str(s) for s in row.sizes_tested)} | "
                f"{_verdict_cell(row)} | {row.class_note} | "
                f"{'yes' if row.pvc_checkable else 'no'} |")
        lines.append("")
        for i, note in enumerate(FOOTNOTES, 1):
            lines.append(f"[^{i}]: {note}")
        lines.append("")
        return "\n".join(lines)
    if format == "text":
        lines = ["class evidence report",
                 f"environment: {json.dumps(report.environment, sort_keys=True)}",
                 ""]
        for row in report.rows:
            lines.append(f"{row.family} via {row.encoding}: {row.class_note}")
            lines.append(f"  sizes: {_verdict_cell(row)}")
            if row.counterexample is not None:
                lines.append(f"  witness K: {json.dumps(row.counterexample['knowledge'], sort_keys=True)}")
                lines.append(f"    source deduction: "
                             f"{json.dumps(row.counterexample['source_deduction'], sort_keys=True)}")
                lines.append(f"    target gives:     "
                             f"{json.dumps(row.counterexample['target_deduction_mapped_back'], sort_keys=True)}")
        lines.append("")
        for note in FOOTNOTES:
            lines.append(f"note: {note}")
        lines.append("")
        return "\n".join(lines)
    raise UsageError(f"unknown report format {format!r}")
