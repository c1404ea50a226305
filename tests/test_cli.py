"""CLI contract: exit codes 0/1/2, `error: ...` on bad input (never a
traceback), byte-identical output for identical inputs, and the golden
answers in `perfbench/expected/` (read here, never written)."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from gackit.cli import main
from gackit.cnet import parse_cnet
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


@pytest.mark.parametrize("text", ["{not json", json.dumps({"seed": 1}),
                                  json.dumps({"jobs": [{"family": "card"}]})])
def test_report_bad_config(files, capsys, text):
    (files / "suite.json").write_text(text)
    expect_usage_error(["report", "--config", files / "suite.json"], capsys)


def test_input_that_is_not_utf8(files, capsys):
    (files / "bad.cnet").write_bytes(b"var a bool\nclause a\n\xff\xfe\n")
    expect_usage_error(["propagate", "--in", files / "bad.cnet"], capsys)


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


@pytest.mark.parametrize("command", ["solve", "propagate"])
def test_closure_refuses_an_unaffordable_support_enumeration(files, capsys, command):
    # a repeated literal sends card to the enumerating filter: 2**25 tuples
    names = [f"x{i}" for i in range(1, 26)]
    (files / "wide.cnet").write_text("".join(f"var {v} bool\n" for v in names)
                                     + "card 1 2 x1 " + " ".join(names) + "\n")
    expect_usage_error([command, "--in", files / "wide.cnet"], capsys)


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
