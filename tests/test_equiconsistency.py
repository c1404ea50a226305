"""Equiconsistency: the incremental walk against the benchmark's naive
reference and against a plain per-assignment loop, on shipped and on
hand-broken encodings, exhaustive and sampled, plus its edge cases.
`perfbench/` is read, never written."""

import hashlib
import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

import gackit.cli
from gackit.cli import main
from gackit.classify import _instances
from gackit.cnet import parse_cnet
from gackit.encoders import ENCODING_NAMES, Encoding, build_encoding
from gackit.gac_check import (
    ASSIGNMENT_STYLE, CONSISTENCY_MISMATCH, FULL_SUBDOMAINS, RANDOM_SAMPLE,
    Counterexample, EnumerationPolicy, check_equiconsistency, check_gac_reduction,
    check_soundness, replay,
)
from gackit.model import (
    FALSE, TRUE, AllDiff, Card, ChannelMap, Constraint, DomainBox, Network, Table,
    UsageError, Xor, bool_variable, map_knowledge, range_variable,
)
from gackit.propagation import CnfFormula, sat_solve
from textdiff import assert_same_text

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
FAMILIES = ("card", "exactly-one", "neq", "alldiff", "xor", "clause")


@pytest.fixture
def reference(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def drop_clause(enc, index):
    f = enc.target
    return Encoding(CnfFormula(f.num_vars, f.clauses[:index] + f.clauses[index + 1:]),
                    enc.channel)


def add_clause(enc, clause):
    f = enc.target
    return Encoding(CnfFormula(f.num_vars, f.clauses + [tuple(clause)]), enc.channel)


def broken_totalizers(size):
    """(constraint, encoding) for every totalizer over `size` Booleans, once
    with each clause dropped and once with each added unit clause over a
    channel literal."""
    for constraint, variables in _instances("card", size):
        enc = build_encoding("totalizer", constraint, variables)
        for index in range(len(enc.target.clauses)):
            yield constraint, drop_clause(enc, index)
        for lit in enc.channel.forward.values():
            yield constraint, add_clause(enc, [lit])


def test_shipped_encodings_match_the_reference(reference):
    built = set()
    for encoding, family in itertools.product(ENCODING_NAMES, FAMILIES):
        for size in range(2 if family == "alldiff" else 1, 4):
            for constraint, variables in _instances(family, size):
                try:
                    enc = build_encoding(encoding, constraint, variables)
                except UsageError:
                    continue  # encoding made for another family
                built.add(encoding)
                assert_same_text(check_equiconsistency(constraint, enc).to_json(),
                                 reference.equiconsistency_verdict(constraint, enc),
                                 (encoding, size))
    assert built == set(ENCODING_NAMES)


# sources whose declared variables are not exactly the scope in scope order
WIDER_SOURCES = {
    "unconstrained": "var X 1..2\nvar Y 1..2\nvar Z 1..2\nneq X Y\n",
    "reordered": "var X 1..3\nvar Y 2..3\nneq Y X\n",
    "boolean-neq": "var a bool\nvar b bool\nneq b a\n",
    "boolean-alldiff": "var a bool\nvar b bool\nvar c bool\nalldiff a c\n",
    "card-beside-range": "var a bool\nvar b bool\nvar Z 1..3\ncard 1 1 a b\n",
    "hall-reordered": "var W bool\nvar X 1..3\nvar Y 1..2\nvar Z 1..2\nalldiff Z X Y\n",
}


@pytest.mark.parametrize("text", WIDER_SOURCES.values(), ids=WIDER_SOURCES)
def test_every_declared_variable_is_checked_as_the_reference_checks_it(reference, text):
    network = parse_cnet(text).network
    constraint, variables = network.constraints[0], network.variables
    subdomains = 1
    for var in variables:
        subdomains *= 2 ** len(var.domain) - 1
    built = 0
    for encoding in ENCODING_NAMES:
        try:
            enc = build_encoding(encoding, constraint, variables)
        except UsageError:
            continue  # encoding made for another kind, or clause-to-neq on a range
        built += 1
        assert enc.channel.source_vars == tuple(variables), encoding
        gac = check_gac_reduction(constraint, enc)
        assert gac.states_checked == subdomains, encoding
        assert_same_text(gac.to_json(), reference.gac_reduction_verdict(constraint, enc),
                         encoding)
        assert_same_text(check_equiconsistency(constraint, enc).to_json(),
                         reference.equiconsistency_verdict(constraint, enc), encoding)
    assert built >= 3


def test_broken_totalizers_match_the_reference(reference):
    failed = {"equiconsistency": 0, "gac-reduction": 0}
    checked = 0
    for size in (1, 2, 3):
        for constraint, enc in broken_totalizers(size):
            for check, got, want in (
                    ("equiconsistency", check_equiconsistency(constraint, enc).to_json(),
                     reference.equiconsistency_verdict(constraint, enc)),
                    ("gac-reduction", check_gac_reduction(constraint, enc).to_json(),
                     reference.gac_reduction_verdict(constraint, enc))):
                assert got == want, (check, constraint)
                failed[check] += '"outcome": "fail"' in got
            checked += 1
    assert all(0 < n < checked for n in failed.values()), failed


def broken_channels(enc):
    """`enc` without each one of its clauses, then with each added unit
    clause over a channel literal."""
    for index in range(len(enc.target.clauses)):
        yield drop_clause(enc, index)
    for lit in enc.channel.forward.values():
        yield add_clause(enc, [lit])


CUT_CASES = [pytest.param(*_instances("alldiff", n)[0], "alldiff-pairwise", id=f"hall{n}")
             for n in (3, 4)] + [
    pytest.param(*_instances("exactly-one", 4)[0], name, id=name)
    for name in ("exactly-one:pairwise", "exactly-one:sequential")]


@pytest.mark.parametrize("constraint, variables, encoding", CUT_CASES)
def test_skipped_subtrees_match_the_reference_and_the_plain_loop(
        reference, constraint, variables, encoding):
    # Where a prefix refutes both sides the walk skips its extensions.
    # Every mutant's verdict must still be the naive reference's and the
    # plain loop's, over every assignment.
    enc = build_encoding(encoding, constraint, variables)
    assignments = list(itertools.product(*(var.domain for var in variables)))
    failed = 0
    for broken in [enc, *broken_channels(enc)]:
        verdict = check_equiconsistency(constraint, broken)
        assert_same_text(verdict.to_json(), reference.equiconsistency_verdict(constraint, broken),
                         broken.target.clauses)
        assert verdict.counterexamples == plain_loop(constraint.accepts, broken, assignments)
        failed += not verdict.passed
    assert failed > 0


def test_a_skipped_subtree_is_not_tested_but_counted(monkeypatch):
    # Under alldiff-pairwise two equal values refute both sides at once, at
    # the depth of the second one, so the source is tested only where the
    # first three values differ: 3 * 2 * 1 prefixes times 4 values of X4.
    constraint, variables = _instances("alldiff", 4)[0]
    enc = build_encoding("alldiff-pairwise", constraint, variables)
    calls = []
    accepts = AllDiff.accepts
    monkeypatch.setattr(AllDiff, "accepts", lambda self, values: (
        calls.append(values), accepts(self, values))[1])
    verdict = check_equiconsistency(constraint, enc)
    total = 3 * 3 * 3 * 4
    assert verdict.passed and verdict.states_checked == total
    assert len(calls) == 24
    sampler = EnumerationPolicy(RANDOM_SAMPLE, sample_count=50, seed=2)
    calls.clear()
    assert check_equiconsistency(constraint, enc, sampler).states_checked == len(calls) == 50


def plain_loop(source_sat, enc, assignments):
    """Counterexamples of an equiconsistency check, one assignment at a
    time: a fresh propagator and DPLL search for each."""
    svars = enc.channel.source_vars
    counterexamples = []
    for values in assignments:
        box = DomainBox({var.id: [val] for var, val in zip(svars, values)})
        s = source_sat(values)
        t = sat_solve(enc.target, map_knowledge(enc.channel, box)).sat
        if s != t:
            counterexamples.append(Counterexample(
                CONSISTENCY_MISMATCH, box, box if s else DomainBox.bottom(),
                box if t else DomainBox.bottom()))
    return counterexamples


def sampled(variables, count, seed):
    rng = random.Random(seed)
    return [tuple(rng.choice(var.domain) for var in variables) for _ in range(count)]


@pytest.mark.parametrize("seed", [7, 8])
def test_sampled_walk_equals_a_plain_loop_over_the_same_stream(seed):
    sampler = EnumerationPolicy(RANDOM_SAMPLE, sample_count=40, seed=seed)
    failed = 0
    for constraint, enc in broken_totalizers(3):
        svars = enc.channel.source_vars
        stream = sampled(svars, 40, seed)
        assert len(set(stream)) < len(stream)  # repeated assignments included
        verdict = check_equiconsistency(constraint, enc, sampler)
        assert verdict.policy_mode == RANDOM_SAMPLE and verdict.states_checked == 40
        assert verdict.counterexamples == plain_loop(
            constraint.accepts, enc, stream)
        failed += not verdict.passed
    assert failed > 0


@pytest.mark.parametrize("mode", [FULL_SUBDOMAINS, ASSIGNMENT_STYLE])
def test_a_sampler_must_be_in_random_sample_mode(mode):
    constraint, variables = _instances("card", 3)[4]
    enc = build_encoding("totalizer", constraint, variables)
    with pytest.raises(UsageError):
        check_equiconsistency(constraint, enc, EnumerationPolicy(mode, sample_count=5))


CARD5 = "".join(f"var x{i} bool\n" for i in range(1, 6)) + "card 2 3 x1 -x2 x3 x4 -x5\n"


# sha256 of the sampled verdict JSON as the per-assignment checker wrote it
@pytest.mark.parametrize("breakage, digest", [
    ("drop", "b98d13e44dedd911ace8428e8fa9ff25d27e0d61399d1328cc0f0b73a124e44d"),
    ("unit", "bcd9de8ff4cc67b2b91ca02a587285d12bcd937b4986a20868cf565b2bde2fec"),
])
def test_sampled_verdict_bytes_are_pinned(tmp_path, monkeypatch, breakage, digest):
    build = gackit.cli.build_encoding

    def broken(name, constraint, variables):
        enc = build(name, constraint, variables)
        if breakage == "drop":
            return drop_clause(enc, 1)
        return add_clause(enc, [enc.channel.forward[(1, TRUE)]])  # x1 must hold
    monkeypatch.setattr(gackit.cli, "build_encoding", broken)
    source, out = tmp_path / "card5.cnet", tmp_path / "verdict.json"
    source.write_text(CARD5)
    assert main(["equiconsistency", "--source", str(source), "--encoding", "totalizer",
                 "--sample", "300", "--seed", "7", "--out", str(out)]) == 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_a_target_with_an_empty_clause_refutes_every_assignment(reference):
    constraint, variables = _instances("card", 3)[3]  # card 0..3: always holds
    enc = add_clause(build_encoding("totalizer", constraint, variables), [])
    verdict = check_equiconsistency(constraint, enc)
    assert_same_text(verdict.to_json(), reference.equiconsistency_verdict(constraint, enc))
    assert len(verdict.counterexamples) == verdict.states_checked == 8
    assert all(ce.deduced_back.inconsistent for ce in verdict.counterexamples)
    sampler = EnumerationPolicy(RANDOM_SAMPLE, sample_count=20, seed=1)
    assert len(check_equiconsistency(constraint, enc, sampler).counterexamples) == 20


def test_a_target_that_unit_propagation_leaves_open(reference):
    # Two fresh variables y, z with all four clauses over them, each guarded
    # by -x1: under x1 = T propagation assigns neither, and only search
    # refutes the target; under x1 = F search finds a model.
    constraint, variables = _instances("card", 3)[3]  # card 0..3: always holds
    enc = build_encoding("totalizer", constraint, variables)
    f, x1 = enc.target, enc.channel.forward[(1, TRUE)]
    y, z = f.num_vars + 1, f.num_vars + 2
    guarded = [(-x1, sy * y, sz * z) for sy in (1, -1) for sz in (1, -1)]
    enc = Encoding(CnfFormula(z, f.clauses + guarded), enc.channel)
    verdict = check_equiconsistency(constraint, enc)
    assert_same_text(verdict.to_json(), reference.equiconsistency_verdict(constraint, enc))
    assert [ce.knowledge.value_of(1) for ce in verdict.counterexamples] == [TRUE] * 4
    sampler = EnumerationPolicy(RANDOM_SAMPLE, sample_count=30, seed=5)
    assert check_equiconsistency(constraint, enc, sampler).counterexamples == plain_loop(
        constraint.accepts, enc, sampled(variables, 30, 5))


def test_a_source_refuted_on_a_prefix_of_the_channel():
    # The source's scope is the first two of the channel's four variables,
    # so a source refutation on that prefix must show at every extension
    # of it.
    variables = [bool_variable(i, f"x{i}") for i in range(1, 5)]
    source = Card([1, 2], 0, 1)
    enc = build_encoding("totalizer", source, variables)
    assert enc.channel.source_vars == tuple(variables)
    x4 = enc.channel.forward[(4, TRUE)]

    def source_sat(values):
        return source.accepts(values[:2])
    sampler = EnumerationPolicy(RANDOM_SAMPLE, sample_count=40, seed=3)
    mutants = [drop_clause(enc, i) for i in range(len(enc.target.clauses))]
    refuted = set()  # the sides that refute an assignment the other accepts
    for target in [enc, *mutants, add_clause(enc, [-x4])]:
        verdict = check_equiconsistency(source, target)
        assert verdict.counterexamples == plain_loop(
            source_sat, target, itertools.product(*(var.domain for var in variables)))
        assert check_equiconsistency(source, target, sampler).counterexamples == plain_loop(
            source_sat, target, sampled(variables, 40, 3))
        refuted.update("source" if ce.deduced_source.inconsistent else "target"
                       for ce in verdict.counterexamples)
    assert refuted == {"source", "target"}


def test_a_source_scope_out_of_channel_order():
    # The source is tested on every assignment, wherever its scope lies in
    # channel order, an empty scope included.
    variables = [bool_variable(i, f"x{i}") for i in range(1, 5)]
    every = list(itertools.product(*(var.domain for var in variables)))
    cases = [
        (Card([3, 1], 1, 1), build_encoding("totalizer", Card([1, 2, 3, 4], 1, 1), variables),
         lambda values: values[2] + values[0] == 1),
        (Xor([], 1), build_encoding("xor-direct", Xor([], 0), variables), lambda values: False),
        (Xor([], 0), build_encoding("xor-direct", Xor([4], 1), variables), lambda values: True),
    ]
    for source, enc, source_sat in cases:
        want = plain_loop(source_sat, enc, every)
        assert want and check_equiconsistency(source, enc).counterexamples == want
        sampler = EnumerationPolicy(RANDOM_SAMPLE, sample_count=40, seed=3)
        assert check_equiconsistency(source, enc, sampler).counterexamples == plain_loop(
            source_sat, enc, sampled(variables, 40, 3))


def test_a_source_variable_outside_the_channel_is_a_usage_error():
    variables = [bool_variable(i, f"x{i}") for i in range(1, 3)]
    enc = build_encoding("totalizer", Card([1, 2], 1, 1), variables)
    with pytest.raises(UsageError, match="references undeclared variable id 3"):
        check_equiconsistency(Card([1, 3], 1, 1), enc)


def test_a_network_source_is_a_usage_error():
    variables = [bool_variable(i, f"x{i}") for i in range(1, 4)]
    constraint = Card([1, 2, 3], 1, 2)
    enc = build_encoding("totalizer", constraint, variables)
    source = Network(variables, [constraint])
    for check in (check_gac_reduction, check_soundness, check_equiconsistency):
        with pytest.raises(UsageError, match="one Constraint"):
            check(source, enc)
    with pytest.raises(UsageError, match="one Constraint"):
        replay(source, enc, DomainBox.from_variables(variables))


class Twice(Constraint):
    """A constraint whose scope names x1 twice."""
    scope = (1, 1)

    def accepts(self, values):
        return True


def bad_sources():
    variables = [bool_variable(i, f"x{i}") for i in range(1, 3)]
    enc = build_encoding("totalizer", Card([1, 2], 1, 1), variables)
    x = range_variable(1, "X", 0, 2)  # a Card over X would count the value 1 as true
    yield (Network(variables, [Card([1, 2], 1, 1)]), enc,
           "the source must be one Constraint, got Network")
    yield (Card([1, 3], 1, 1), enc,
           "constraint Card([1, 3], 1, 1) references undeclared variable id 3")
    yield (Card([1], 1, 1), build_encoding("alldiff-pairwise", AllDiff([1]), [x]),
           "card constraint needs Boolean variables, 'X' is not")
    twins = [bool_variable(1, "a"), bool_variable(1, "b")]
    yield (Card([1], 1, 1), Encoding(CnfFormula(1, []), ChannelMap(
        ChannelMap.CNF, twins, {(1, TRUE): 1, (1, FALSE): -1})), "duplicate variable id 1")
    yield Table([1], [(5,)]), enc, "table value 5 outside domain of 'x1'"
    yield Twice(), enc, "twice constraint repeats a variable in its scope"


@pytest.mark.parametrize("source, enc, message", bad_sources())
def test_every_entry_point_rejects_a_bad_source_with_one_message(source, enc, message):
    box = DomainBox.from_variables(enc.channel.source_vars)
    for check in (check_gac_reduction, check_soundness, check_equiconsistency,
                  lambda source, enc: replay(source, enc, box)):
        with pytest.raises(UsageError) as raised:
            check(source, enc)
        assert str(raised.value) == message
