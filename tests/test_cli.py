"""CLI contract: exit codes 0/1/2, `error: ...` on bad input (never a
traceback), byte-identical output for identical inputs, and the golden
answers in `perfbench/expected/` (read here, never written)."""

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from gackit import cli
from gackit.cli import main
from gackit.cnet import CnetParseError, parse_cnet
from gackit.encoders import ENCODING_NAMES
from gackit.gac_check import RANDOM_SAMPLE
from gackit.propagation import solve_brute_force

CARD = "var x1 bool\nvar x2 bool\nvar x3 bool\ncard 1 2 x1 -x2 x3\n"
CLAUSE = "var x1 bool\nvar x2 bool\nvar x3 bool\nclause x1 -x2 x3\n"
NETWORK = ("var a bool\nvar b bool\nvar X 1..3\nvar Y 1..3\n"
           "clause a -b\nneq X Y\ncard 1 2 a b\nrestrict X {1,2}\n")
NO_CARD = "var a bool\nvar b bool\nvar X 1..3\nvar Y 1..3\nclause a -b\nneq X Y\n"


@pytest.fixture
def files(tmp_path):
    for name, text in (("card.cnet", CARD), ("clause.cnet", CLAUSE),
                       ("net.cnet", NETWORK), ("no-card.cnet", NO_CARD)):
        (tmp_path / name).write_text(text)
    return tmp_path


def expect_usage_error(argv, capsys):
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("policy", ["sample:abc", "sample:0", "sample:-3"])
def test_check_gac_bad_sample_policy(files, capsys, policy):
    expect_usage_error(["check-gac", "--source", files / "card.cnet",
                        "--encoding", "totalizer", "--policy", policy], capsys)


def test_equiconsistency_negative_sample(files, capsys):
    expect_usage_error(["equiconsistency", "--source", files / "card.cnet",
                        "--encoding", "totalizer", "--sample", "-2"], capsys)


def test_equiconsistency_zero_sample(files, capsys):
    # a zero count is refused, not read as "exhaust"
    expect_usage_error(["equiconsistency", "--source", files / "card.cnet",
                        "--encoding", "totalizer", "--sample", "0"], capsys)


@pytest.mark.parametrize("text", ["{not json", json.dumps({"seed": 1}),
                                  json.dumps({"jobs": [{"family": "card"}]})])
def test_report_bad_config(files, capsys, text):
    (files / "suite.json").write_text(text)
    expect_usage_error(["report", "--config", files / "suite.json"], capsys)


def test_input_that_is_not_utf8(files, capsys):
    (files / "bad.cnet").write_bytes(b"var a bool\nclause a\n\xff\xfe\n")
    expect_usage_error(["propagate", "--in", files / "bad.cnet"], capsys)


# one malformed text per parse error that CNET text can reach
PARSE_ERRORS = {
    "var-too-short": ("var x\n", 1, 5, "var needs a name and a domain"),
    "var-bad-name": ("var 1x bool\n", 1, 5, "bad variable name '1x'"),
    "var-bad-range": ("var x 1..y\n", 1, 7, "bad range '1..y'"),
    "var-empty-range": ("var x 3..1\n", 1, 7, "bad range '3..1'"),
    "var-oversized-range": ("var x 1..99999999999\n", 1, 7,
                            "range domain 1..99999999999 for 'x' has more than 1048576 values"),
    "var-bad-domain": ("var x int\n", 1, 7, "bad domain 'int'"),
    "set-without-opener": ("var x bool\nrestrict x T\n", 2, 12, "expected '{'"),
    "set-missing-value": ("var x {,}\n", 1, 8, "expected a value"),
    "set-cut-short": ("var x {1,\n", 1, 9, "expected a value"),
    "set-without-comma": ("var x {1 2}\n", 1, 10, "expected ',' or '}'"),
    "set-empty": ("var x {}\n", 1, 8, "empty value set"),
    "words-after-set": ("var x {1} extra\n", 1, 11, "unexpected 'extra' after the value set"),
    "bad-value": ("var x {a}\n", 1, 8, "bad value 'a'"),
    "value-outside-domain": ("var x 1..3\nrestrict x {5}\n", 2, 13,
                             "value 5 outside the domain of 'x'"),
    "words-after-restrict": ("var x bool\nrestrict x {T} extra\n", 2, 16,
                             "unexpected 'extra' after the value set"),
    "restrict-too-short": ("var x bool\nrestrict x\n", 2, 1,
                           "restrict needs a variable and a value set"),
    "unknown-variable": ("var x 1..2\nneq x y\n", 2, 7, "unknown variable 'y'"),
    "literal-on-range": ("var x 1..2\nclause x\n", 2, 8, "literal on non-Boolean variable 'x'"),
    "clause-empty": ("clause\n", 1, 1, "clause needs at least one literal"),
    "card-too-short": ("var a bool\ncard 1 2\n", 2, 1, "card needs bounds and literals"),
    "card-bounds-not-integers": ("var a bool\ncard x 1 a\n", 2, 6,
                                 "card bounds must be integers"),
    "alldiff-empty": ("alldiff\n", 1, 1, "alldiff needs variables"),
    "neq-one-variable": ("var a 1..2\nneq a\n", 2, 1, "neq needs exactly two variables"),
    "xor-without-parity": ("var a bool\nxor a\n", 2, 1, "xor needs '= 0' or '= 1' at the end"),
    "xor-bad-parity": ("var a bool\nxor a = 2\n", 2, 9, "xor parity must be 0 or 1"),
    "xor-empty": ("xor = 1\n", 1, 1, "xor needs at least one literal"),
    "table-without-colon": ("var a bool\ntable a\n", 2, 1,
                            "table needs 'table <vars> : (tuples)'"),
    "tuple-without-comma": ("var x 1..2\nvar y 1..2\ntable x y : (1 2)\n", 3, 16,
                            "expected ',' or ')'"),
    "trailing-comma": ("var x 1..2\ntable x : (2,)\n", 2, 14, "expected a value"),
    "tuple-too-long": ("var a 1..2\ntable a : (1,2)\n", 2, 14,
                       "tuple longer than the variable list"),
    "tuple-too-short": ("var a 1..2\nvar b 1..2\ntable a b : (1)\n", 3, 15,
                        "tuple arity 1 does not match 2 variables"),
    "unknown-statement": ("var x bool\nfoo x\n", 2, 1, "unknown statement 'foo'"),
    "declared-twice": ("var x bool\n\nvar x 1..2\n", 3, 1, "variable 'x' declared twice"),
}


@pytest.mark.parametrize("text, line, column, message", PARSE_ERRORS.values(), ids=PARSE_ERRORS)
def test_cnet_parse_errors_are_located(files, capsys, text, line, column, message):
    with pytest.raises(CnetParseError) as info:
        parse_cnet(text)
    assert (info.value.line, info.value.column) == (line, column)
    (files / "bad.cnet").write_text(text)
    assert main(["propagate", "--in", str(files / "bad.cnet")]) == 2
    assert capsys.readouterr().err == f"error: line {line}, column {column}: {message}\n"


def test_blank_and_comment_lines_parse(files, capsys):
    (files / "notes.cnet").write_text(
        "# a network\n\nvar a bool   # first\n   \n\t# indented comment\nclause a\n\n")
    assert main(["propagate", "--in", str(files / "notes.cnet")]) == 0
    assert capsys.readouterr().out == "a = {T}\n"


@pytest.mark.parametrize("statement, message", [
    ("neq a a", "neq needs two distinct variables"),
    ("alldiff b a b", "alldiff scope variables must be distinct"),
    ("table a a : (1,1)", "table scope variables must be distinct"),
    ("card 2 1 x", "card bounds must satisfy 0 <= 2 <= 1 <= 1"),
], ids=["neq", "alldiff", "table", "card-bounds"])
def test_constructor_errors_are_located(files, capsys, statement, message):
    # the constructor's own check, located at the statement's head
    (files / "bad.cnet").write_text(f"var a 1..2\nvar b 1..2\nvar x bool\n  {statement}\n")
    assert main(["propagate", "--in", str(files / "bad.cnet")]) == 2
    assert capsys.readouterr().err == f"error: line 4, column 3: {message}\n"


@pytest.mark.parametrize("source", ["clause.cnet", "no-card.cnet", "card.cnet"])
def test_encode_unknown_scheme(files, capsys, source):
    expect_usage_error(["encode", "--in", files / source, "--scheme", "nonsense",
                        "--out", files / "out.cnf"], capsys)


@pytest.mark.parametrize("source, scheme", [
    ("net.cnet", "totalizer"), ("card.cnet", "binary-adder"),
    ("no-card.cnet", "binary-adder"), ("clause.cnet", "clause-to-neq:gac"),
    ("clause.cnet", "identity"),
])
def test_encode_is_byte_deterministic(files, source, scheme):
    outputs = []
    for run in (1, 2):
        out = files / f"run{run}.out"
        assert main(["encode", "--in", str(files / source), "--scheme", scheme,
                     "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] and outputs[0]


# sha256 of the DIMACS text, taken while the one-hot channels' exactly-one
# scheme was still a parameter (pairwise by default): fixing it kept the bytes
@pytest.mark.parametrize("source, scheme, digest", [
    ("net.cnet", "totalizer",
     "ecba2ad7ab3f60b3dcf923e7515fa11a58f237cfa86acbe73a148c1298e76e2e"),
    ("net.cnet", "binary-adder",
     "5fc66655720ba442c3a801adcc1436108f20879f9230ae994180182ee0fe5883"),
    ("no-card.cnet", "totalizer",
     "17fa95d7e5af47f2fe5b20c45a7efec0198b2451b2e27b0baa136ee070ad810c"),
    ("no-card.cnet", "binary-adder",
     "17fa95d7e5af47f2fe5b20c45a7efec0198b2451b2e27b0baa136ee070ad810c"),
])
def test_encode_network_bytes_are_pinned(files, source, scheme, digest):
    out = files / "out.cnf"
    assert main(["encode", "--in", str(files / source), "--scheme", scheme,
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_encode_writes_a_restricted_boolean_as_one_unit(files):
    # a Boolean restricted to {F} removes T and pins F: both assert -x
    (files / "restrict.cnet").write_text(
        "var x bool\nvar y bool\nclause x y\nrestrict x {F}\n")
    out = files / "out.cnf"
    assert main(["encode", "--in", str(files / "restrict.cnet"), "--scheme", "totalizer",
                 "--out", str(out)]) == 0
    assert out.read_text() == ("c map x F -1\nc map x T 1\nc map y F -2\nc map y T 2\n"
                               "p cnf 2 2\n1 2 0\n-1 0\n")


def test_encode_has_no_eo_option(files, capsys):
    # the exactly-one scheme is chosen by encoding name only
    with pytest.raises(SystemExit) as exit_info:
        main(["encode", "--in", str(files / "net.cnet"), "--eo", "pairwise"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --eo pairwise" in err and "Traceback" not in err


def test_policy_takes_only_its_documented_forms(files, capsys):
    argv = ["check-gac", "--source", str(files / "card.cnet"), "--encoding", "totalizer"]
    assert main(argv + ["--policy", "assign"]) == 2
    assert capsys.readouterr().err.startswith("error: bad policy 'assign'; expected ")
    assert main(argv + ["--policy", "assignment"]) == 0
    assert "assignment-style" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["encode", "check-gac", "check-sound", "equiconsistency"])
def test_help_lists_every_encoding_name(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    # whole words: no name may be split across lines at its hyphen
    words = set(re.split(r"[\s,()]+", capsys.readouterr().out))
    assert set(ENCODING_NAMES) <= words


@pytest.mark.parametrize("encoding, code", [("totalizer", 0), ("binary-adder", 1)])
def test_check_gac_exit_code_is_the_verdict(files, capsys, encoding, code):
    assert main(["check-gac", "--source", str(files / "card.cnet"),
                 "--encoding", encoding]) == code
    assert capsys.readouterr().out.startswith(
        "gac-reduction: " + ("PASS" if code == 0 else "FAIL"))


def write_chain(files, n=1500):
    # x1 in {1}, xi in {i-1, i}: the matching and pruning paths are n long
    lines = ["var x1 1..1"] + [f"var x{i} {i - 1}..{i}" for i in range(2, n + 1)]
    lines.append("alldiff " + " ".join(f"x{i}" for i in range(1, n + 1)))
    (files / "chain.cnet").write_text("\n".join(lines) + "\n")
    return n


def test_propagate_long_alldiff_chain(files, capsys):
    n = write_chain(files)
    assert main(["propagate", "--in", str(files / "chain.cnet")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [f"x{i} = {{{i}}}" for i in range(1, n + 1)]


def test_solve_long_alldiff_chain(files, capsys):
    # the raw product has 2**1499 tuples; closure settles every variable
    n = write_chain(files)
    assert main(["solve", "--in", str(files / "chain.cnet")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == ["SAT"] + [f"x{i} = {i}" for i in range(1, n + 1)]


@pytest.mark.parametrize("command", ["solve"])
def test_closure_refuses_an_unaffordable_support_enumeration(files, capsys, command):
    # closure prunes nothing, so the search faces 2**25 tuples, over its
    # budget of 2**24
    names = [f"x{i}" for i in range(1, 26)]
    (files / "wide.cnet").write_text("".join(f"var {v} bool\n" for v in names)
                                     + "card 1 2 x1 " + " ".join(names) + "\n")
    expect_usage_error([command, "--in", files / "wide.cnet"], capsys)


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_solve_budget_below_one_is_a_usage_error(files, capsys, budget):
    assert main(["solve", "--in", str(files / "card.cnet"), "--budget", budget]) == 2
    assert capsys.readouterr().err == \
        f"error: brute-force budget must be at least 1, got {budget}\n"


def test_check_gac_names_an_unknown_encoding(files, capsys):
    # a name that starts like a known one is still unknown
    (files / "neq.cnet").write_text("var X 1..3\nvar Y 1..3\nneq X Y\n")
    assert main(["check-gac", "--source", str(files / "neq.cnet"),
                 "--encoding", "neq:foo"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown encoding 'neq:foo'; known: ")


@pytest.mark.parametrize("command, flag", [
    ("encode", "--scheme"), ("check-gac", "--encoding"), ("check-sound", "--encoding"),
    ("equiconsistency", "--encoding")])
def test_an_unknown_encoding_is_named_before_the_constraint_count(files, capsys, command, flag):
    (files / "two.cnet").write_text("var a bool\nvar b bool\nclause a b\nclause -a b\n")
    infile = "--in" if command == "encode" else "--source"
    assert main([command, infile, str(files / "two.cnet"), flag, "totalizr"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: unknown encoding 'totalizr'; known: {', '.join(ENCODING_NAMES)}\n"


def random_cnet(rng):
    """A small network over Booleans b* and ranges v*, with restrict lines."""
    bools = [f"b{i}" for i in range(rng.randint(0, 3))]
    ints = {f"v{i}": range(lo, lo + rng.randint(1, 3))
            for i, lo in enumerate(rng.choices((0, 1, 2), k=rng.randint(1, 4)))}
    lines = [f"var {b} bool" for b in bools]
    lines += [f"var {name} {dom[0]}..{dom[-1]}" for name, dom in ints.items()]
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(("clause", "card", "xor", "neq", "alldiff", "table"))
        if kind in ("clause", "card", "xor") and bools:
            chosen = rng.sample(bools, rng.randint(1, len(bools)))
            lits = " ".join(rng.choice(("", "-")) + b for b in chosen)
            lo = rng.randint(0, len(chosen))
            lines.append({"clause": f"clause {lits}",
                          "card": f"card {lo} {rng.randint(lo, len(chosen))} {lits}",
                          "xor": f"xor {lits} = {rng.randint(0, 1)}"}[kind])
        elif kind in ("neq", "alldiff", "table") and len(ints) >= 2:
            chosen = rng.sample(sorted(ints), 2 if kind != "alldiff"
                                else rng.randint(2, len(ints)))
            if kind == "table":
                rows = {(rng.choice(ints[chosen[0]]), rng.choice(ints[chosen[1]]))
                        for _ in range(rng.randint(1, 4))}
                chosen.append(": " + "".join(f"({x},{y})" for x, y in sorted(rows)))
            lines.append(f"{kind} " + " ".join(chosen))
    for name, dom in ints.items():
        if rng.random() < 0.3:
            keep = rng.sample(dom, rng.randint(1, len(dom)))
            lines.append(f"restrict {name} {{{','.join(map(str, keep))}}}")
    return "\n".join(lines) + "\n"


def test_solve_equals_search_on_the_raw_box(tmp_path, capsys):
    # closure first must not change the answer or the first model
    rng = random.Random(2024)
    source = tmp_path / "net.cnet"
    seen = set()
    for _ in range(300):
        text = random_cnet(rng)
        source.write_text(text)
        doc = parse_cnet(text)
        want = solve_brute_force(doc.network, doc.box)
        out = "UNSAT\n" if not want.sat else "SAT\n" + "".join(
            f"{var.name} = {var.label(want.model[var.id])}\n"
            for var in doc.network.variables)
        assert main(["solve", "--in", str(source)]) == (0 if want.sat else 1), text
        assert capsys.readouterr().out == out, text
        seen.add(want.sat)
    assert seen == {True, False}


# sha256 of the verdict JSON as the checker wrote it before the direct renderer
@pytest.mark.parametrize("command, encoding, code, digest", [
    ("check-gac", "binary-adder", 1,  # 14 completeness gaps
     "fa29641869bcebb233158502d231f6d5beb57a5b8916875b992c696019fcc7a0"),
    ("equiconsistency", "totalizer", 0,
     "b66b4b53d6ee35e8208f2654d2aa03dbf7c51a17e5b2cddbf60008b83f764c72"),
])
def test_verdict_json_bytes_are_pinned(tmp_path, command, encoding, code, digest):
    source, out = tmp_path / "card4.cnet", tmp_path / "verdict.json"
    source.write_text("".join(f"var x{i} bool\n" for i in range(1, 5))
                      + "card 1 2 x1 x2 x3 x4\n")
    assert main([command, "--source", str(source), "--encoding", encoding,
                 "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_propagate_xor_with_a_repeated_variable(files, capsys):
    # x1 ⊕ x1 cancels: the filter reduces the literals instead of
    # enumerating 2**40 tuples
    names = [f"x{i}" for i in range(1, 41)]
    (files / "xor.cnet").write_text("".join(f"var {v} bool\n" for v in names)
                                    + "xor x1 " + " ".join(names) + " = 0\n")
    assert main(["propagate", "--in", str(files / "xor.cnet")]) == 0
    assert capsys.readouterr().out == "".join(f"{v} = {{F,T}}\n" for v in names)


def test_propagate_card_with_a_repeated_variable(files, capsys):
    # x1 counts twice: the filter passes over reachable counts instead of
    # enumerating 2**40 tuples
    names = [f"x{i}" for i in range(1, 41)]
    (files / "card.cnet").write_text("".join(f"var {v} bool\n" for v in names)
                                     + "card 1 2 x1 " + " ".join(names) + "\n")
    assert main(["propagate", "--in", str(files / "card.cnet")]) == 0
    assert capsys.readouterr().out == "".join(f"{v} = {{F,T}}\n" for v in names)


@pytest.mark.parametrize("text, policy", [
    # 3**13 full-subdomain states exceed the 1,000,000-state budget
    ("".join(f"var x{i} bool\n" for i in range(1, 14))
     + "card 1 2 " + " ".join(f"x{i}" for i in range(1, 14)) + "\n", "full"),
    # a 21-value domain exceeds the per-variable cap of 20, in every mode
    ("var A 1..21\nvar B 1..2\nneq A B\n", "sample:5"),
    ("var A 1..21\nvar B 1..2\nneq A B\n", "assignment"),
])
@pytest.mark.parametrize("command", ["check-gac", "check-sound"])
def test_check_over_budget_is_a_resource_error(files, capsys, command, text, policy):
    (files / "big.cnet").write_text(text)
    encoding = "totalizer" if text.startswith("var x1") else "identity"
    expect_usage_error([command, "--source", files / "big.cnet", "--encoding", encoding,
                        "--policy", policy], capsys)


def test_equiconsistency_over_budget_is_a_resource_error(files, capsys):
    # 2**21 complete assignments exceed the budget of 2**20: refused before
    # the walk starts, so the command returns at once
    names = [f"x{i}" for i in range(1, 22)]
    (files / "big.cnet").write_text("".join(f"var {v} bool\n" for v in names)
                                    + "card 1 2 " + " ".join(names) + "\n")
    assert main(["equiconsistency", "--source", str(files / "big.cnet"),
                 "--encoding", "totalizer"]) == 2
    assert capsys.readouterr().err == \
        "error: 2097152 complete assignments exceed the budget of 1048576\n"


EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected"


def test_report_json_is_the_golden_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["report", "--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == (EXPECTED / "suite_report.json").read_bytes()


@pytest.mark.parametrize("encoding", ["totalizer", "binary-adder"])
def test_check_gac_on_the_cnf_large_instance(tmp_path, capsys, encoding):
    entry = json.loads((EXPECTED / "cnf-large.json").read_text())["pool"][0]
    want = entry["ops"][f"check-gac-{encoding}"]
    source, out = tmp_path / "card.cnet", tmp_path / "verdict.json"
    source.write_text(entry["inputs"]["card.cnet"])
    assert main(["check-gac", "--source", str(source), "--encoding", encoding,
                 "--out", str(out)]) == want["exit"]
    verdict = json.loads(out.read_text())
    assert (verdict["outcome"], verdict["states_checked"], len(verdict["counterexamples"])) \
        == (want["outcome"], want["states"], want["gaps"])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want["sha256"]


def test_auto_policy_samples_with_the_given_seed(tmp_path, monkeypatch):
    # 3**13 assignment-style states exceed the 1,000,000-state budget, so
    # auto samples 10,000 states, seeded with --seed
    names = [f"x{i}" for i in range(1, 14)]
    source = tmp_path / "clause13.cnet"
    source.write_text("".join(f"var {v} bool\n" for v in names)
                      + "clause " + " ".join(names) + "\n")

    def run(command, policy, seed):
        out = tmp_path / f"{command}-{policy}-{seed}.json"
        code = main([command, "--source", str(source), "--encoding", "clause-to-neq:non-gac",
                     "--policy", policy, "--seed", str(seed), "--out", str(out)])
        return code, out.read_bytes()
    auto = run("check-gac", "auto", 2)
    assert auto == run("check-gac", "sample:10000", 2) and auto != run("check-gac", "auto", 42)
    # every sampled soundness verdict passes here, so ask the checker for its policy
    policies, real = [], cli.check_soundness
    monkeypatch.setattr(cli, "check_soundness",
                        lambda *args: policies.append(args[2]) or real(*args))
    assert run("check-sound", "auto", 2)[0] == 0
    assert [(p.mode, p.sample_count, p.seed) for p in policies] == [(RANDOM_SAMPLE, 10_000, 2)]


def test_a_one_hot_check_walks_every_declared_variable(tmp_path):
    # Z is outside the scope: every encoding walks its 3 subdomains too
    source = tmp_path / "neq.cnet"
    source.write_text("var X 1..2\nvar Y 1..2\nvar Z 1..2\nneq X Y\n")
    states = {}
    for encoding in ("neq:pairwise", "neq:sequential", "identity"):
        out = tmp_path / f"{encoding}.json"
        assert main(["check-gac", "--source", str(source), "--encoding", encoding,
                     "--out", str(out)]) == 0
        states[encoding] = json.loads(out.read_text())["states_checked"]
    assert states == {"neq:pairwise": 27, "neq:sequential": 27, "identity": 27}


CONTRADICTING = "var X 1..3\nvar Y 1..3\nneq X Y\nrestrict X {1}\nrestrict X {2}\n"


def test_propagate_on_contradicting_restricts_is_inconsistent(files, capsys):
    (files / "bad.cnet").write_text(CONTRADICTING)
    assert main(["propagate", "--in", str(files / "bad.cnet")]) == 1
    assert capsys.readouterr().out == "INCONSISTENT\n"


def test_encode_on_contradicting_restricts_writes_the_empty_clause(files):
    (files / "bad.cnet").write_text(CONTRADICTING)
    out = files / "out.cnf"
    assert main(["encode", "--in", str(files / "bad.cnet"), "--scheme", "totalizer",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1] == "0"


@pytest.mark.parametrize("text, message", [
    ("var a bool\nvar b bool\nclause a b\nclause -a b\n",
     "this command needs a source file with exactly one constraint, found 2"),
    ("var a bool\nvar b bool\nclause a b\nrestrict a {T}\n",
     "restrict lines are not supported here; declare the domains you mean"),
], ids=["two-constraints", "restrict"])
@pytest.mark.parametrize("command", ["check-gac", "check-sound", "equiconsistency"])
def test_checks_need_one_constraint_and_no_restrict(files, capsys, command, text, message):
    (files / "source.cnet").write_text(text)
    assert main([command, "--source", str(files / "source.cnet"),
                 "--encoding", "identity"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_report_records_an_encoder_over_its_limit_in_the_size_entry(files):
    # xor-direct refuses arity 13; the report keeps going and exits 0
    (files / "suite.json").write_text(json.dumps(
        {"jobs": [{"family": "xor", "encoding": "xor-direct", "sizes": [13]}]}))
    out = files / "report.json"
    assert main(["report", "--config", str(files / "suite.json"), "--format", "json",
                 "--out", str(out)]) == 0
    row, = json.loads(out.read_text())["rows"]
    assert row["verdicts"] == [
        {"size": 13, "error": "xor arity 13 exceeds the direct-expansion limit 12"}]
    assert row["class_note"] == "not-applicable"
    assert main(["report", "--config", str(files / "suite.json"), "--format", "markdown-table",
                 "--out", str(out)]) == 0
    assert "| xor | xor-direct | 13 | n=13:error | not-applicable | yes |" in out.read_text()
