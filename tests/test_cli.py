"""CLI contract: exit codes 0/1/2, `error: ...` on bad input (never a
traceback), and byte-identical output for identical inputs."""

import json

import pytest

from gackit.cli import main

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
