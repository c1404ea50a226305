"""Checker layer: map-back on both target kinds, counterexample replay,
the policy chooser, the pinned verdicts of the bundled report, and the
verdict JSON renderer against `json.dumps`."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from gackit.model import (
    FALSE, TRUE, Card, ChannelMap, Clause, DomainBox, Network, UsageError,
    Variable, bool_variable, is_restriction, range_variable,
)
from gackit.propagation import UnitPropagator, gac_closure, gac_oracle
from gackit.encoders import ENCODING_NAMES, build_encoding
from gackit.gac_check import (
    ASSIGNMENT_STYLE, COMPLETENESS_GAP, FULL_SUBDOMAINS, RANDOM_SAMPLE,
    Counterexample, EnumerationPolicy, Verdict, auto_policy,
    check_equiconsistency, check_gac_reduction, check_soundness,
    _target_box, enumerate_knowledge_states, map_back, map_knowledge, replay,
)
from gackit.classify import _instances, default_config, render_report, run_class_suite
from textdiff import assert_same_text

BUNDLED_JOBS = [pytest.param(job["family"], job["encoding"], job["sizes"],
                             id=job["encoding"])
                for job in default_config()["jobs"]]


def bools(*names):
    return [bool_variable(i, n) for i, n in enumerate(names, 1)]


def subdomains(box):
    """A box over x1..x3 as the state list `map_back` reads."""
    return [box.domain(vid) for vid in (1, 2, 3)]


class TestMapBack:
    def setup_method(self):
        self.variables = bools("x1", "x2", "x3")
        self.enc = build_encoding("totalizer", Card([1, 2, 3], 1, 2), self.variables)
        self.prop = UnitPropagator(self.enc.target)
        self.full = DomainBox.from_variables(self.variables)

    def payload(self, lits):
        """`map_back`'s CNF payload for one state that assumes `lits`: the
        truth masks of a batch of one and its bit, None on a conflict."""
        true, conflict = self.prop.propagate_batch({lit: 1 for lit in lits}, 1)
        return None if conflict else (true, 1)

    def test_cnf_unassigned_channel_literals_keep_their_values(self):
        assert self.prop.propagate([])[1] is None  # x1's channel literal is left unassigned
        assert map_back(self.enc.channel, self.payload([]), subdomains(self.full)) == self.full

    def test_cnf_refuted_literal_removes_the_value(self):
        x1, x2 = (self.enc.channel.forward[(vid, TRUE)] for vid in (1, 2))
        back = map_back(self.enc.channel, self.payload([x1, x2]), subdomains(self.full))
        assert back == DomainBox({1: [TRUE], 2: [TRUE], 3: [FALSE]})

    def test_base_limits_the_candidates(self):
        base = DomainBox({1: [FALSE], 2: [FALSE, TRUE], 3: [FALSE, TRUE]})
        payload = self.payload(map_knowledge(self.enc.channel, base))
        assert map_back(self.enc.channel, payload, subdomains(base)) == base

    def test_target_inconsistency_maps_to_bottom(self):
        assert map_back(self.enc.channel, None, subdomains(self.full)).inconsistent
        lits = [self.enc.channel.forward[(vid, FALSE)] for vid in (1, 2, 3)]
        assert self.payload(lits) is None

    def test_a_state_reads_only_its_own_bit(self):
        # the masks of a batch of two: x1 := T refutes x3 := T in the second
        # state only, and the first state keeps everything
        x1, x2 = (self.enc.channel.forward[(vid, TRUE)] for vid in (1, 2))
        true, conflict = self.prop.propagate_batch({x1: 2, x2: 2}, 2)
        assert not conflict
        assert map_back(self.enc.channel, (true, 1), subdomains(self.full)) == self.full
        assert map_back(self.enc.channel, (true, 2), subdomains(self.full)) == \
            DomainBox({1: [TRUE], 2: [TRUE], 3: [FALSE]})

    def test_network_target(self):
        variables = bools("a", "b")
        enc = build_encoding("clause-to-neq:gac", Clause([1, -2]), variables)
        start = enc.target.initial_box()
        tvid, tval = enc.channel.forward[(2, TRUE)]
        result = gac_closure(enc.target, start.assign(tvid, tval))  # b = T
        back = map_back(enc.channel, result.box, [frozenset(var.domain) for var in variables])
        assert back == DomainBox({1: [TRUE], 2: [TRUE]})
        base = DomainBox({1: [TRUE], 2: [FALSE, TRUE]})
        assert map_back(enc.channel, enc.target.initial_box(), [base.domain(1), base.domain(2)]) == base


@pytest.mark.parametrize("family, encoding, size", [
    ("card", "binary-adder", 3),
    ("alldiff", "alldiff-pairwise", 3),
    ("clause", "clause-to-neq:non-gac", 3),
])
def test_replay_reproduces_every_counterexample(family, encoding, size):
    seen = 0
    for constraint, variables in _instances(family, size):
        enc = build_encoding(encoding, constraint, variables)
        verdict = check_gac_reduction(constraint, enc)
        for ce in verdict.counterexamples:
            assert ce.kind == COMPLETENESS_GAP
            assert replay(constraint, enc, ce.knowledge) == \
                (ce.deduced_source, ce.deduced_back)
            oracle = gac_oracle(constraint, ce.knowledge)
            assert ce.deduced_source == (
                DomainBox.bottom() if oracle.inconsistent else oracle.box)
            seen += 1
    assert seen > 0


@pytest.mark.parametrize("family, encoding, sizes", BUNDLED_JOBS)
def test_skipping_the_target_keeps_every_counterexample(family, encoding, sizes):
    # the check skips the target side where the source deduces nothing;
    # replay always runs both sides
    for size in (s for s in sizes if s <= 4):
        for constraint, variables in _instances(family, size):
            enc = build_encoding(encoding, constraint, variables)
            got = [(ce.knowledge, ce.deduced_source, ce.deduced_back)
                   for ce in check_gac_reduction(constraint, enc).counterexamples]
            want = []
            for knowledge in enumerate_knowledge_states(enc.channel.source_vars):
                src, back = replay(constraint, enc, knowledge)
                if not is_restriction(back, src):
                    want.append((knowledge, src, back))
            assert got == want, (encoding, size)


@pytest.mark.parametrize("family, encoding, sizes", BUNDLED_JOBS)
def test_every_shipped_encoding_is_sound_and_equiconsistent(family, encoding, sizes):
    for size in sizes:
        for constraint, variables in _instances(family, size):
            enc = build_encoding(encoding, constraint, variables)
            for verdict in (check_soundness(constraint, enc),
                            check_equiconsistency(constraint, enc)):
                assert verdict.passed, (verdict.check, encoding, size)
                assert verdict.states_checked > 0


@pytest.mark.parametrize("encoding", ["totalizer", "exactly-one:pairwise"])
def test_a_repeated_literal_loses_no_deduction(encoding):
    # These encoders emit (1, 1, -3) and (-1, -1) for x counted twice; as a
    # set of literals, each clause still propagates once one literal is left
    source, variables = Card([1, 1, 2], 1, 1), bools("x", "y")
    verdict = check_gac_reduction(source, build_encoding(encoding, source, variables))
    assert verdict.passed and verdict.states_checked == 9


def reference_map_knowledge(channel, knowledge):
    """`map_knowledge` as a plain loop over every source value, unmemoized."""
    if channel.kind == ChannelMap.CNF:
        assumptions = []
        for var in channel.source_vars:
            kdom = knowledge.domain(var.id)
            lits = []
            for value in var.domain:
                if value not in kdom:
                    lits.append(-channel.forward[(var.id, value)])
            if len(kdom) == 1:
                lits.append(channel.forward[(var.id, next(iter(kdom)))])
            for i, lit in enumerate(lits):  # each once: a Boolean's pin repeats its removal
                if lit not in lits[:i]:
                    assumptions.append(lit)
        return assumptions
    triples = []
    for var in channel.source_vars:
        kdom = knowledge.domain(var.id)
        by_target = {}  # tvid -> (removed, pinned), in order of first image
        for value in var.domain:
            tvid, tval = channel.forward[(var.id, value)]
            removed, pinned = by_target.setdefault(tvid, (set(), set()))
            if value not in kdom:
                removed.add(tval)
            elif len(kdom) == 1:
                pinned.add(tval)
        for tvid, (removed, pinned) in by_target.items():
            if removed or pinned:
                triples.append((tvid, frozenset(removed), frozenset(pinned)))
    return triples


ENCODING_FAMILIES = {
    "totalizer": ["card"], "binary-adder": ["card"],
    "exactly-one:pairwise": ["exactly-one"], "exactly-one:sequential": ["exactly-one"],
    "neq:pairwise": ["neq"], "neq:sequential": ["neq"],
    "alldiff-pairwise": ["alldiff"], "alldiff-pairwise:sequential": ["alldiff"],
    "xor-direct": ["xor"],
    "clause-to-neq:gac": ["clause"], "clause-to-neq:non-gac": ["clause"],
    "identity": ["card", "neq", "alldiff", "xor", "clause"],
}


@pytest.mark.parametrize("encoding", ENCODING_NAMES)
def test_memoized_map_knowledge_equals_the_plain_loop(encoding):
    # Every subdomain of every source variable (full enumeration), then
    # random-sample boxes, whose frozensets are fresh objects that must hit
    # the memo by value; and the inconsistent box.
    kinds = set()
    for family in ENCODING_FAMILIES[encoding]:
        for size in range(2 if family == "alldiff" else 1, 4):
            for constraint, variables in _instances(family, size):
                channel = build_encoding(encoding, constraint, variables).channel
                kinds.add(channel.kind)
                states = [*enumerate_knowledge_states(variables, EnumerationPolicy()),
                          *enumerate_knowledge_states(variables, EnumerationPolicy(
                              RANDOM_SAMPLE, sample_count=50, seed=size)),
                          DomainBox.bottom()]
                for knowledge in states + states:  # second pass: memo hits only
                    want = reference_map_knowledge(channel, knowledge)
                    assert map_knowledge(channel, knowledge) == want, knowledge
    network = encoding.startswith(("clause-to-neq", "identity"))
    assert kinds == {ChannelMap.NETWORK if network else ChannelMap.CNF}


def test_network_channel_triples_are_a_conjunction():
    # source variables a and b both map into target variable t: a's values
    # to 0/1, b's to 0/2; target variable w carries no image
    a, b = bools("a", "b")
    target = Network([Variable(3, "t", (0, 1, 2)), Variable(4, "w", (5, 6))], [])
    channel = ChannelMap(ChannelMap.NETWORK, [a, b], {
        (1, FALSE): (3, 0), (1, TRUE): (3, 1), (2, FALSE): (3, 0), (2, TRUE): (3, 2)})

    def start(da, db):
        mapped = map_knowledge(channel, DomainBox({1: da, 2: db}))
        return mapped, _target_box(target, mapped)

    both = [FALSE, TRUE]
    assert start(both, both) == ([], target.initial_box())  # nothing asserted
    mapped, box = start([TRUE], both)  # b asserts nothing and is left out
    assert mapped == [(3, frozenset({0}), frozenset({1}))]
    assert box == DomainBox({3: [1], 4: [5, 6]})
    assert start(both, [TRUE])[1] == DomainBox({3: [2], 4: [5, 6]})
    assert start([FALSE], [FALSE])[1] == DomainBox({3: [0], 4: [5, 6]})
    # a = T pins t to 1 and b = T pins it to 2; both hold, so t empties
    mapped, box = start([TRUE], [TRUE])
    assert mapped == [(3, frozenset({0}), frozenset({1})),
                      (3, frozenset({0}), frozenset({2}))]
    assert box is DomainBox.bottom()
    assert start([TRUE], [FALSE])[1] is DomainBox.bottom()


class TestAutoPolicy:
    # two variables of domain size 3: 7 * 7 = 49 full subdomain states,
    # 4 * 4 = 16 assignment-style states
    variables = [range_variable(1, "A", 1, 3), range_variable(2, "B", 1, 3)]

    @pytest.mark.parametrize("budget, mode", [
        (49, FULL_SUBDOMAINS), (48, ASSIGNMENT_STYLE), (16, ASSIGNMENT_STYLE),
        (15, RANDOM_SAMPLE),
    ])
    def test_steps_down_at_the_budget_edges(self, budget, mode):
        policy = auto_policy(self.variables, seed=7, max_states=budget)
        assert (policy.mode, policy.seed, policy.max_states) == (mode, 7, budget)

    def test_defaults(self):
        policy = auto_policy(self.variables)
        assert policy == EnumerationPolicy(FULL_SUBDOMAINS)

    @pytest.mark.parametrize("count", [0, -3])
    def test_sample_count_must_be_positive(self, count):
        with pytest.raises(UsageError):
            EnumerationPolicy(RANDOM_SAMPLE, sample_count=count)


def test_bundled_report_verdicts():
    gaps = {"binary-adder": [0, 1, 24, 154, 882, 4386],
            "alldiff-pairwise": [0, 4, 1046],
            "clause-to-neq:non-gac": [4]}
    report = run_class_suite()
    for row in report.rows:
        assert all("error" not in v for v in row.verdicts), row.encoding
        want = gaps.get(row.encoding, [0] * len(row.sizes_tested))
        assert [v["gaps"] for v in row.verdicts] == want, row.encoding
        assert [v["pass"] for v in row.verdicts] == [g == 0 for g in want]
    assert {row.encoding for row in report.rows} >= set(gaps)
    assert render_report(report, "json") == render_report(run_class_suite(), "json")


def test_text_and_markdown_reports_agree_with_the_json_report():
    report, again = run_class_suite(), run_class_suite()
    data = json.loads(render_report(report, "json"))
    rows, notes = data["rows"], data["footnotes"]
    assert all("error" not in v for row in rows for v in row["verdicts"])
    cells = [" ".join(f"n={v['size']}:pass" if v["pass"] else f"n={v['size']}:{v['gaps']}gaps"
                      for v in row["verdicts"]) for row in rows]
    assert any("gaps" in cell for cell in cells) and any("pass" in cell for cell in cells)

    text = render_report(report, "text")
    assert text == render_report(again, "text")
    lines = text.split("\n")
    assert lines[:3] == ["class evidence report",
                         f"environment: {json.dumps(data['environment'], sort_keys=True)}", ""]
    headers = [line for line in lines if " via " in line]
    assert headers == [f"{row['family']} via {row['encoding']}: {row['class_note']}"
                       for row in rows]
    assert [line for line in lines if line.startswith("  sizes: ")] == \
        [f"  sizes: {cell}" for cell in cells]
    witnesses = [row["counterexample"]["knowledge"] for row in rows if row["counterexample"]]
    assert [line for line in lines if line.startswith("  witness K: ")] == \
        [f"  witness K: {json.dumps(k, sort_keys=True)}" for k in witnesses]
    assert lines[-len(notes) - 2:] == ["", *(f"note: {note}" for note in notes), ""]

    table = render_report(report, "markdown-table")
    assert table == render_report(again, "markdown-table")
    lines = table.split("\n")
    assert lines[:2] == ["| family | encoding | sizes | verdicts | class note | PVC check |",
                         "|---|---|---|---|---|---|"]
    assert lines[2:2 + len(rows)] == [
        f"| {row['family']} | {row['encoding']} | {','.join(map(str, row['sizes_tested']))} "
        f"| {cell} | {row['class_note']} | {'yes' if row['pvc_checkable'] else 'no'} |"
        for row, cell in zip(rows, cells)]
    assert lines[2 + len(rows):] == ["", *(f"[^{i}]: {note}" for i, note in enumerate(notes, 1)),
                                     ""]


def verdict_json_dict(verdict):
    """The verdict as the dict that `Verdict.to_json` renders."""
    return {
        "check": verdict.check,
        "outcome": "pass" if verdict.passed else "fail",
        "states_checked": verdict.states_checked,
        "policy": verdict.policy_mode,
        "counterexamples": [verdict.counterexample_json(ce) for ce in verdict.counterexamples],
    }


def assert_renders_as_json_dumps(verdict):
    assert_same_text(verdict.to_json(),
                     json.dumps(verdict_json_dict(verdict), indent=2, sort_keys=True) + "\n")
    # The CLI writes these pieces one by one: one per counterexample.
    assert len(list(verdict.json_chunks())) == len(verdict.counterexamples) + 3


def test_renderer_matches_json_dumps_on_the_bundled_suite():
    config = default_config()
    seen = 0
    for job in config["jobs"]:
        for size in job["sizes"]:
            for constraint, variables in _instances(job["family"], size):
                enc = build_encoding(job["encoding"], constraint, variables)
                assert_renders_as_json_dumps(check_gac_reduction(
                    constraint, enc, auto_policy(variables, config["seed"],
                                                 config["max_states"])))
                seen += 1
    assert seen == 204


@pytest.mark.parametrize("encoding", ENCODING_NAMES)
def test_renderer_matches_json_dumps_on_soundness_and_equiconsistency(encoding):
    for family in ENCODING_FAMILIES[encoding]:
        for size in range(2 if family == "alldiff" else 1, 4):
            for constraint, variables in _instances(family, size):
                enc = build_encoding(encoding, constraint, variables)
                assert_renders_as_json_dumps(check_soundness(constraint, enc))
                assert_renders_as_json_dumps(check_equiconsistency(constraint, enc))


# names and labels that need JSON escapes, non-ASCII ones, and names whose
# string order differs from their id order
AWKWARD = ["x10", "x2", "x1", 'q"uote', "back\\slash", "tab\tnl\n", "\x00\x1f",
           "ümlaut", "雪", "\U0001f600", ""]
TEXT = st.one_of(st.sampled_from(AWKWARD), st.text(max_size=5))


@st.composite
def api_verdicts(draw):
    """Verdicts built through the API: 0-4 source variables (names may
    repeat), 0-4 counterexamples, boxes inconsistent or over subdomains."""
    ids = draw(st.permutations(range(1, 5)))
    variables = []
    for vid in ids[:draw(st.integers(0, 4))]:
        domain = sorted(draw(st.sets(st.integers(-2, 3), min_size=1, max_size=3)))
        labels = draw(st.dictionaries(st.sampled_from(domain), TEXT, max_size=3))
        variables.append(Variable(vid, draw(TEXT), domain, labels))

    def box():
        if draw(st.booleans()):
            return DomainBox.bottom()
        return DomainBox({var.id: draw(st.sets(st.sampled_from(var.domain), min_size=1))
                          for var in variables})
    counterexamples = [Counterexample(draw(TEXT), box(), box(), box())
                       for _ in range(draw(st.integers(0, 4)))]
    return Verdict(draw(st.integers(0, 10 ** 7)), counterexamples, draw(TEXT),
                   draw(TEXT), tuple(variables))


@settings(max_examples=300, deadline=None)
@given(api_verdicts())
def test_renderer_matches_json_dumps_on_api_built_verdicts(verdict):
    assert_renders_as_json_dumps(verdict)


def test_renderer_on_hand_built_edge_cases():
    x2, x10 = bool_variable(1, "x2"), bool_variable(2, "x10")
    twin = Variable(3, "x10", (1, 2, 3), {2: 'two "2"'})  # same name as id 2
    escaped = Variable(4, "\u00e9\\\x07", (5,))
    knowledge = DomainBox({1: [TRUE], 2: [FALSE, TRUE], 3: [2, 3], 4: [5]})
    ce = Counterexample(COMPLETENESS_GAP, knowledge, DomainBox.bottom(), knowledge)
    for verdict in (Verdict(9, [ce, ce], source_vars=(x2, x10, twin, escaped)),
                    Verdict(1, [Counterexample(COMPLETENESS_GAP, DomainBox({}),
                                               DomainBox.bottom(), DomainBox({}))]),
                    Verdict(0), Verdict(5, source_vars=(x10, x2))):
        assert_renders_as_json_dumps(verdict)
    rendered = json.loads(Verdict(9, [ce], source_vars=(x2, x10, twin)).to_json())
    assert list(rendered["counterexamples"][0]["knowledge"]) == ["x10", "x2"]
    assert rendered["counterexamples"][0]["knowledge"]["x10"] == ['two "2"', "3"]


def test_text_comparison_names_the_first_differing_line():
    assert_same_text("a\nb\n", "a\nb\n")
    for got, want, line in [("a\nb\nc\n", "a\nB\nc\n", 2), ("a\nb\n", "a\nb", 2),
                            ("a\n", "a\nb\n", 2), ("", "x", 1)]:
        with pytest.raises(pytest.fail.Exception, match=f"differ first at line {line}\n"):
            assert_same_text(got, want)
