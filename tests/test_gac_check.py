"""Checker layer: map-back on both target kinds, counterexample replay,
the policy chooser, and the pinned verdicts of the bundled report."""

import pytest

from gackit.model import (
    FALSE, TRUE, Card, Clause, DomainBox, UsageError, bool_variable,
    range_variable,
)
from gackit.propagation import UnitPropagator, gac_closure, gac_oracle
from gackit.encoders import build_encoding, encode_card_totalizer
from gackit.gac_check import (
    ASSIGNMENT_STYLE, COMPLETENESS_GAP, FULL_SUBDOMAINS, RANDOM_SAMPLE,
    EnumerationPolicy, auto_policy, check_gac_reduction, map_back,
    map_knowledge, replay,
)
from gackit.classify import _instances, render_report, run_class_suite


def bools(*names):
    return [bool_variable(i, n) for i, n in enumerate(names, 1)]


class TestMapBack:
    def setup_method(self):
        self.variables = bools("x1", "x2", "x3")
        self.enc = encode_card_totalizer(Card([1, 2, 3], 1, 2), self.variables)
        self.prop = UnitPropagator(self.enc.target)

    def test_cnf_unassigned_channel_literals_keep_their_values(self):
        values = self.prop.propagate([])
        assert values[1] is None  # x1's channel literal is left unassigned
        assert map_back(self.enc.channel, values) == \
            DomainBox.from_variables(self.variables)

    def test_cnf_refuted_literal_removes_the_value(self):
        x1, x2 = (self.enc.channel.forward[(vid, TRUE)] for vid in (1, 2))
        back = map_back(self.enc.channel, self.prop.propagate([x1, x2]))
        assert back == DomainBox({1: [TRUE], 2: [TRUE], 3: [FALSE]})

    def test_base_limits_the_candidates(self):
        base = DomainBox({1: [FALSE], 2: [FALSE, TRUE], 3: [FALSE, TRUE]})
        values = self.prop.propagate(map_knowledge(self.enc.channel, base))
        assert map_back(self.enc.channel, values, base=base) == base

    def test_target_inconsistency_maps_to_bottom(self):
        assert map_back(self.enc.channel, None).inconsistent
        lits = [self.enc.channel.forward[(vid, FALSE)] for vid in (1, 2, 3)]
        assert map_back(self.enc.channel, self.prop.propagate(lits)).inconsistent

    def test_network_target(self):
        variables = bools("a", "b")
        enc = build_encoding("clause-to-neq:gac", Clause([1, -2]), variables)
        start = enc.target.initial_box()
        tvid, tval = enc.channel.forward[(2, TRUE)]
        result = gac_closure(enc.target, start.assign(tvid, tval))  # b = T
        assert map_back(enc.channel, result.box) == DomainBox({1: [TRUE], 2: [TRUE]})
        base = DomainBox({1: [TRUE], 2: [FALSE, TRUE]})
        assert map_back(enc.channel, enc.target.initial_box(), base=base) == base


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
