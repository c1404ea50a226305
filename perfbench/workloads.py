"""Workload plans: which inputs each workload writes and which `gackit`
commands one round of it runs.

Every workload's seed picks one entry of a fixed pool of instances, so
that each input the benchmark can generate has a committed expected answer
(`expected/<workload>.json`). Pool entries differ only in literal
polarities, which leaves every encoding the same size and every check the
same amount of work: the seed changes the data, not the cost.

This module imports nothing from `gackit`, so plans can be built before
the program is imported.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("suite", "cnf-large", "closure", "solve")

POOL_SIZE = 8

# Polarity masks: bit i set means literal i+1 is negated.
CARD10_MASKS = (0b0000000000, 0b1010101010, 0b0110011001, 0b1111100000,
                0b0001110111, 0b1100001101, 0b0101111010, 0b1011000110)
CLAUSE9_MASKS = (0b010101010, 0b000000000, 0b111000111, 0b001101100,
                 0b110010011, 0b011110000, 0b100100101, 0b111111110)
CARD12_MASKS = (0b000000000000, 0b100100100100, 0b011011000110, 0b111000111000,
                0b010101010101, 0b001111001100, 0b110000011011, 0b101110100001)

CARD10_BOUNDS = (3, 6)
CARD12_BOUNDS = (4, 8)
HALL_N = 6

# Tiny instances for the smoke mode; every check takes milliseconds.
SMOKE_CARD = (4, 1, 2)
SMOKE_CLAUSE = 3
SMOKE_HALL = 3
SMOKE_SUITE_CONFIG = {
    "seed": 42,
    "max_states": 1_000_000,
    "jobs": [
        {"family": "card", "encoding": "totalizer", "sizes": [1, 2, 3]},
        {"family": "card", "encoding": "binary-adder", "sizes": [2, 3]},
        {"family": "exactly-one", "encoding": "exactly-one:sequential", "sizes": [3]},
        {"family": "neq", "encoding": "neq:pairwise", "sizes": [2, 3]},
        {"family": "alldiff", "encoding": "alldiff-pairwise", "sizes": [3]},
        {"family": "xor", "encoding": "xor-direct", "sizes": [2]},
        {"family": "clause", "encoding": "clause-to-neq:non-gac", "sizes": [3]},
    ],
}


@dataclass
class Op:
    """One `gackit` command line; its output is checked against `name`'s
    expected answer. `source` and `encoding` let the naive reference
    rebuild the same check."""
    name: str
    kind: str                 # "check-gac", "equiconsistency", "encode" or "report"
    argv: list[str]
    out: Path
    source: str | None = None
    encoding: str | None = None


@dataclass
class Plan:
    workload: str
    pool_index: int
    files: dict[str, str] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)
    suite_config: dict | None = None


def pool_size(workload: str) -> int:
    """The suite's config is fixed, so its pool has one entry."""
    return 1 if workload == "suite" else POOL_SIZE


def pool_index(workload: str, seed: int) -> int:
    return random.Random(seed).randrange(pool_size(workload))


def _lits(names, mask):
    return " ".join(f"-{n}" if mask >> i & 1 else n for i, n in enumerate(names))


def card_cnet(n: int, lo: int, hi: int, mask: int) -> str:
    names = [f"x{i}" for i in range(1, n + 1)]
    lines = [f"var {name} bool" for name in names]
    lines.append(f"card {lo} {hi} {_lits(names, mask)}")
    return "\n".join(lines) + "\n"


def clause_cnet(n: int, mask: int) -> str:
    names = [f"x{i}" for i in range(1, n + 1)]
    lines = [f"var {name} bool" for name in names]
    lines.append(f"clause {_lits(names, mask)}")
    return "\n".join(lines) + "\n"


def hall_cnet(n: int) -> str:
    """The alldiff Hall instance: X1..X(n-1) share the values 1..n-1, so
    X(n) can only take n."""
    lines = [f"var X{i} 1..{n - 1}" for i in range(1, n)]
    lines.append(f"var X{n} 1..{n}")
    lines.append("alldiff " + " ".join(f"X{i}" for i in range(1, n + 1)))
    return "\n".join(lines) + "\n"


def _check(kind, name, work, source, encoding):
    out = work / f"{name}.json"
    argv = [kind, "--source", str(work / source), "--encoding", encoding,
            "--out", str(out)]
    return Op(name, kind, argv, out, source, encoding)


def _encode(name, work, source, scheme):
    out = work / f"{name}.cnf"
    argv = ["encode", "--in", str(work / source), "--scheme", scheme, "--out", str(out)]
    return Op(name, "encode", argv, out, source, scheme)


def plan(workload: str, index: int, work: Path, smoke: bool = False) -> Plan:
    """The inputs and the commands of one round of `workload`, for pool
    entry `index`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    p = Plan(workload, index)
    if workload == "suite":
        argv = ["report", "--format", "json", "--out", str(work / "report.json")]
        if smoke:
            p.suite_config = SMOKE_SUITE_CONFIG
            p.files["suite.json"] = json.dumps(SMOKE_SUITE_CONFIG)
            argv += ["--config", str(work / "suite.json")]
        p.ops = [Op("report", "report", argv, work / "report.json")]
    elif workload == "cnf-large":
        n, lo, hi = SMOKE_CARD if smoke else (10,) + CARD10_BOUNDS
        p.files["card.cnet"] = card_cnet(n, lo, hi, CARD10_MASKS[index] % (1 << n))
        for scheme in ("totalizer", "binary-adder"):
            p.ops.append(_encode(f"encode-{scheme}", work, "card.cnet", scheme))
            p.ops.append(_check("check-gac", f"check-gac-{scheme}", work,
                                "card.cnet", scheme))
    elif workload == "closure":
        n = SMOKE_CLAUSE if smoke else 9
        p.files["clause.cnet"] = clause_cnet(n, CLAUSE9_MASKS[index] % (1 << n))
        p.files["hall.cnet"] = hall_cnet(SMOKE_HALL if smoke else HALL_N)
        p.ops = [_check("check-gac", "check-gac-clause-to-neq", work, "clause.cnet",
                        "clause-to-neq:gac"),
                 _check("check-gac", "check-gac-hall-identity", work, "hall.cnet",
                        "identity")]
    else:
        n, lo, hi = (5, 1, 3) if smoke else (12,) + CARD12_BOUNDS
        m = SMOKE_CLAUSE if smoke else 9
        p.files["card.cnet"] = card_cnet(n, lo, hi, CARD12_MASKS[index] % (1 << n))
        p.files["clause.cnet"] = clause_cnet(m, CLAUSE9_MASKS[index] % (1 << m))
        p.files["hall.cnet"] = hall_cnet(SMOKE_HALL if smoke else HALL_N)
        p.ops = [_check("equiconsistency", "equiconsistency-totalizer", work,
                        "card.cnet", "totalizer"),
                 _check("equiconsistency", "equiconsistency-clause-to-neq", work,
                        "clause.cnet", "clause-to-neq:gac"),
                 _check("equiconsistency", "equiconsistency-alldiff-pairwise", work,
                        "hall.cnet", "alldiff-pairwise")]
    return p

