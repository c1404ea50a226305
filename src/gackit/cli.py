"""Command-line front end.

Subcommands: encode, propagate, check-gac, check-sound, equiconsistency,
solve, report. Exit codes everywhere: 0 pass/sat/ok, 1 fail/unsat, 2 usage
or resource error. Identical inputs, flags and seeds produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Iterable

from .model import Network, ResourceError, UsageError
from .propagation import gac_closure, solve_brute_force, DEFAULT_BRUTE_FORCE_BUDGET
from .encoders import CARD_SCHEMES, ENCODING_NAMES, build_encoding, compile_network, lookup_encoding
from .gac_check import (
    ASSIGNMENT_STYLE, FULL_SUBDOMAINS, RANDOM_SAMPLE, EnumerationPolicy, auto_policy,
    check_equiconsistency, check_gac_reduction, check_soundness,
)
from .classify import default_config, render_report, run_class_suite
from .cnet import CnetDocument, parse_cnet, write_cnet
from .dimacs import write_dimacs

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str | Iterable[str]):
    """Write `text`, or each string of an iterable of them in turn."""
    parts = (text,) if isinstance(text, str) else text
    if path is None or path == "-":
        sys.stdout.writelines(parts)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(parts)


def _parse_policy(spec: str, seed: int):
    """The policy `spec` names, as a function of the source variables."""
    if spec == "auto":
        return lambda variables: auto_policy(variables, seed=seed)
    if spec == "full":
        policy = EnumerationPolicy(FULL_SUBDOMAINS, seed=seed)
    elif spec == "assignment":
        policy = EnumerationPolicy(ASSIGNMENT_STYLE, seed=seed)
    elif spec.startswith("sample:"):
        try:
            count = int(spec.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad sample count in policy {spec!r}") from None
        policy = EnumerationPolicy(RANDOM_SAMPLE, sample_count=count, seed=seed)
    else:
        raise UsageError(
            f"bad policy {spec!r}; expected auto, full, assignment or sample:<count>")
    return lambda variables: policy


def _single_source(doc: CnetDocument):
    net = doc.network
    if len(net.constraints) != 1:
        raise UsageError(
            f"this command needs a source file with exactly one constraint, "
            f"found {len(net.constraints)}")
    if doc.box != net.initial_box():
        raise UsageError("restrict lines are not supported here; "
                         "declare the domains you mean")
    return net.constraints[0], net.variables


def _cmd_encode(args) -> int:
    doc = parse_cnet(_read(args.infile))
    if args.scheme in CARD_SCHEMES:
        enc = compile_network(doc.network, doc.box, card_scheme=args.scheme)
    else:
        lookup_encoding(args.scheme)  # an unknown name before a wrong file
        enc = build_encoding(args.scheme, *_single_source(doc))
    if isinstance(enc.target, Network):
        out = write_cnet(CnetDocument(enc.target, enc.target.initial_box()))
    else:
        out = write_dimacs(enc.target, enc.channel)
    _write(args.out, out)
    return EXIT_PASS


def _cmd_propagate(args) -> int:
    doc = parse_cnet(_read(args.infile))
    result = gac_closure(doc.network, doc.box)
    if result.inconsistent:
        _write(args.out, "INCONSISTENT\n")
        return EXIT_FAIL
    lines = []
    for var in doc.network.variables:
        vals = ",".join(var.label(v) for v in sorted(result.box.domain(var.id)))
        lines.append(f"{var.name} = {{{vals}}}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_PASS


def _run_check(args, checker, option) -> int:
    """Run `checker` on the source and encoding that `args` name, with
    `option(variables)` of the source variables as its third argument."""
    doc = parse_cnet(_read(args.source))
    lookup_encoding(args.encoding)  # an unknown name before a wrong file
    constraint, variables = _single_source(doc)
    enc = build_encoding(args.encoding, constraint, variables)
    verdict = checker(constraint, enc, option(variables))
    if args.out:
        _write(args.out, verdict.json_chunks())
    sys.stdout.write(verdict.digest() + "\n")
    return EXIT_PASS if verdict.passed else EXIT_FAIL


def _cmd_check_gac(args) -> int:
    return _run_check(args, check_gac_reduction, _parse_policy(args.policy, args.seed))


def _cmd_check_sound(args) -> int:
    return _run_check(args, check_soundness, _parse_policy(args.policy, args.seed))


def _cmd_equiconsistency(args) -> int:
    sampler = None
    if args.sample is not None:
        sampler = EnumerationPolicy(RANDOM_SAMPLE, sample_count=args.sample, seed=args.seed)
    return _run_check(args, check_equiconsistency, lambda variables: sampler)


def _cmd_solve(args) -> int:
    doc = parse_cnet(_read(args.infile))
    # Closure keeps every solution, so the search on the closed box finds
    # the same first model; an inconsistent closure is the bottom box.
    closed = gac_closure(doc.network, doc.box).box
    result = solve_brute_force(doc.network, closed, budget=args.budget)
    if not result.sat:
        sys.stdout.write("UNSAT\n")
        return EXIT_FAIL
    lines = ["SAT"]
    for var in doc.network.variables:
        lines.append(f"{var.name} = {var.label(result.model[var.id])}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_PASS


def _cmd_report(args) -> int:
    config = default_config()
    if args.config is not None:
        try:
            config = json.loads(_read(args.config))
        except json.JSONDecodeError as exc:
            raise UsageError(f"suite config {args.config}: {exc}") from None
    report = run_class_suite(config)
    _write(args.out, render_report(report, args.format))
    return EXIT_PASS


class _HelpFormatter(argparse.HelpFormatter):
    """Wraps help text at blanks only, so no encoding name splits at its hyphen."""

    def _split_lines(self, text, width):
        import textwrap  # only help output needs it, as in argparse itself
        return textwrap.wrap(text, width, break_on_hyphens=False)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every `main`
    call, so it must not be changed. A parser is a web of reference cycles
    that only the cyclic collector frees, and building one per call piles
    them up across many short calls."""
    parser = argparse.ArgumentParser(
        prog="gackit",
        description="encode constraint networks, propagate, and check "
                    "whether translations preserve propagation strength")
    sub = parser.add_subparsers(dest="command", required=True)
    encoding_names = ", ".join(ENCODING_NAMES)

    p = sub.add_parser("encode", help="translate a CNET file to DIMACS or CNET")
    p.add_argument("--in", dest="infile", required=True, help="input CNET file")
    p.add_argument("--scheme", default="totalizer",
                   help="a card scheme that compiles the whole network ("
                        + ", ".join(CARD_SCHEMES) + "), or an encoding of a "
                        "one-constraint file (" + encoding_names + ")")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("propagate", help="print the GAC closure of a network")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_propagate)

    for name, help_text, func in (
            ("check-gac", "verify that target propagation is at least as "
                          "strong as source domain consistency", _cmd_check_gac),
            ("check-sound", "verify that the target never over-prunes",
             _cmd_check_sound)):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--source", required=True, help="CNET file with one constraint")
        p.add_argument("--encoding", required=True, help="one of: " + encoding_names)
        p.add_argument("--policy", default="auto",
                       help="auto | full | assignment | sample:<count>")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out", default=None, help="write the verdict as JSON")
        p.set_defaults(func=func)

    p = sub.add_parser("equiconsistency",
                       help="compare satisfiability over complete assignments")
    p.add_argument("--source", required=True)
    p.add_argument("--encoding", required=True, help="one of: " + encoding_names)
    p.add_argument("--sample", type=int,
                   help="sample this many assignments instead of exhausting")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_equiconsistency)

    p = sub.add_parser("solve", help="exact satisfiability: GAC closure, then "
                                      "backtracking search on the closed domains")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BRUTE_FORCE_BUDGET,
                   help="largest product of the domains after closure that "
                        "the search may face")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("report", help="run the classification evidence suite")
    p.add_argument("--config", default=None,
                   help="suite config JSON (default: the bundled suite)")
    p.add_argument("--format", default="text",
                   choices=["text", "json", "markdown-table"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)
    for p in sub.choices.values():
        p.formatter_class = _HelpFormatter
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ResourceError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
