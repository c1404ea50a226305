"""DIMACS CNF writer. Output is byte-deterministic for a given formula;
channel maps ride along as `c map <name> <value> <lit>` comments."""

from __future__ import annotations

from .model import ChannelMap, UsageError
from .propagation import CnfFormula


def write_dimacs(formula: CnfFormula, channel: ChannelMap | None = None) -> str:
    lines = []
    if channel is not None:
        if channel.kind != ChannelMap.CNF:
            raise UsageError("only CNF channels serialize into DIMACS comments")
        for var in channel.source_vars:
            for value in var.domain:
                lit = channel.forward[(var.id, value)]
                lines.append(f"c map {var.name} {var.label(value)} {lit}")
    lines.append(f"p cnf {formula.num_vars} {len(formula.clauses)}")
    for clause in formula.clauses:
        lines.append(" ".join(map(str, [*clause, 0])))
    return "\n".join(lines) + "\n"

