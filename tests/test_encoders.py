"""Encoders: emitted sizes, channel totality, propagation behavior of the
produced targets, and equisatisfiability spot checks."""

import itertools

import pytest

from gackit.model import (
    FALSE, TRUE, AllDiff, Card, ChannelMap, Clause, DomainBox, Neq, Network,
    ResourceError, UsageError, Xor, bool_variable, range_variable, satisfies,
)
from gackit.propagation import (
    CnfFormula, UnitPropagator, gac_closure, sat_solve, solve_brute_force,
)
from gackit.encoders import (
    PAIRWISE, SEQUENTIAL, build_encoding, compile_network,
    encode_alldiff_pairwise, encode_card_binary_adder, encode_card_totalizer,
    encode_clause_to_neq, encode_exactly_one, encode_exactly_one_constraint,
    encode_neq, encode_xor_direct, one_hot_vars,
)
from gackit.gac_check import check_equiconsistency, check_gac_reduction


def bools(*names):
    return [bool_variable(i, n) for i, n in enumerate(names, 1)]


def up_values(enc, assumptions):
    """Unit propagation's value list: True/False/None per CNF variable."""
    return UnitPropagator(enc.target).propagate(assumptions)


class TestExactlyOne:
    def test_single_literal_either_scheme(self):
        for scheme in (PAIRWISE, SEQUENTIAL):
            f = CnfFormula()
            x = f.new_var()
            aux = encode_exactly_one(f, [x], scheme)
            assert aux == [] and f.clauses == [(x,)]

    def test_pairwise_counts(self):
        for n in range(2, 7):
            f = CnfFormula()
            lits = [f.new_var() for _ in range(n)]
            aux = encode_exactly_one(f, lits, PAIRWISE)
            assert len(aux) == 0
            assert len(f.clauses) == 1 + n * (n - 1) // 2

    def test_pairwise_three_exact_clause_set(self):
        f = CnfFormula()
        a1, a2, a3 = (f.new_var() for _ in range(3))
        encode_exactly_one(f, [a1, a2, a3], PAIRWISE)
        assert f.clauses == [(a1, a2, a3), (-a1, -a2), (-a1, -a3), (-a2, -a3)]

    def test_sequential_counts(self):
        f = CnfFormula()
        lits = [f.new_var() for _ in range(3)]
        aux = encode_exactly_one(f, lits, SEQUENTIAL)
        assert len(aux) == 2
        assert len(f.clauses) == 8

    def test_sequential_up_forces_all_others_false(self):
        variables = bools("x1", "x2", "x3", "x4")
        enc = encode_exactly_one_constraint(Card([1, 2, 3, 4], 1, 1),
                                            variables, SEQUENTIAL)
        out = up_values(enc, [enc.channel.forward[(2, TRUE)]])
        got = {v: out[abs(enc.channel.forward[(v, TRUE)])]
               for v in (1, 3, 4)}
        assert got == {1: False, 3: False, 4: False}

    def test_unknown_scheme_rejected(self):
        f = CnfFormula()
        with pytest.raises(UsageError):
            encode_exactly_one(f, [f.new_var()], "commander")


class TestOneHot:
    def test_single_value_forced(self):
        v = range_variable(1, "X", 1, 1)
        enc = one_hot_vars(v)
        assert enc.stats.variables == 1 and enc.stats.clauses == 1
        assert enc.target.clauses == [(1,)]

    def test_three_values_pairwise(self):
        v = range_variable(1, "X", 1, 3)
        enc = one_hot_vars(v, PAIRWISE)
        assert (enc.stats.variables, enc.stats.aux, enc.stats.clauses) == (3, 0, 4)

    def test_three_values_sequential(self):
        v = range_variable(1, "X", 1, 3)
        enc = one_hot_vars(v, SEQUENTIAL)
        assert enc.stats.aux == 2 and enc.stats.clauses == 8

    def test_channel_totality(self):
        v = range_variable(1, "X", 1, 4)
        enc = one_hot_vars(v)
        assert set(enc.channel.forward) == {(1, i) for i in (1, 2, 3, 4)}


class TestEncodeNeq:
    def test_size_three_pairwise_counts(self):
        a = range_variable(1, "A", 1, 3)
        b = range_variable(2, "B", 1, 3)
        enc = encode_neq(a, b, PAIRWISE)
        assert enc.stats.variables == 6
        assert enc.stats.aux == 0
        assert enc.stats.clauses == 11  # 2 exactly-one blocks + 3 difference

    def test_up_removes_assigned_value_from_other_side(self):
        a = range_variable(1, "A", 1, 3)
        b = range_variable(2, "B", 1, 3)
        enc = encode_neq(a, b)
        out = up_values(enc, [enc.channel.forward[(1, 2)]])  # A = 2
        b2 = enc.channel.forward[(2, 2)]
        assert out[abs(b2)] is False

    def test_singleton_domains_unsat(self):
        a = range_variable(1, "A", 1, 1)
        b = range_variable(2, "B", 1, 1)
        enc = encode_neq(a, b)
        assert sat_solve(enc.target).sat is False


class TestTotalizer:
    def test_forces_rest_false_when_hi_reached(self):
        variables = bools("x1", "x2", "x3", "x4")
        enc = encode_card_totalizer(Card([1, 2, 3, 4], 2, 2), variables)
        out = up_values(enc, [enc.channel.forward[(1, TRUE)],
                              enc.channel.forward[(2, TRUE)]])
        assert out[3] is False and out[4] is False

    def test_vacuous_bounds_emit_no_units_and_up_derives_nothing(self):
        variables = bools("x1", "x2", "x3")
        enc = encode_card_totalizer(Card([1, 2, 3], 0, 3), variables)
        assert all(len(cl) > 1 for cl in enc.target.clauses)
        out = up_values(enc, [enc.channel.forward[(1, TRUE)]])
        assigned_inputs = {v for v in (2, 3) if out[v] is not None}
        assert not assigned_inputs

    def test_at_most_one_forces_others_false(self):
        variables = bools("x1", "x2", "x3")
        enc = encode_card_totalizer(Card([1, 2, 3], 0, 1), variables)
        out = up_values(enc, [enc.channel.forward[(1, TRUE)]])
        assert out[2] is False and out[3] is False

    def test_clause_count_monotone_and_subcubic(self):
        counts = []
        for n in range(1, 17):
            variables = [bool_variable(i, f"x{i}") for i in range(1, n + 1)]
            enc = encode_card_totalizer(Card(list(range(1, n + 1)), 1, 1), variables)
            counts.append(enc.stats.clauses)
        assert counts == sorted(counts)
        for n, count in enumerate(counts, 1):
            assert count <= 6 * n * n + 2, (n, count)


@pytest.mark.parametrize("encoding", ["totalizer", "binary-adder"])
@pytest.mark.parametrize("variables", [[], bools("x1")], ids=["no-variables", "unscoped"])
def test_a_card_without_literals_builds_and_checks(encoding, variables):
    # an empty sum is 0: the counter and the adder tree are empty
    source = Card([], 0, 0)
    enc = build_encoding(encoding, source, variables)
    assert check_gac_reduction(source, enc).passed
    assert check_equiconsistency(source, enc).passed


class TestBinaryAdder:
    def test_degenerate_single_input_forced(self):
        variables = bools("x1")
        enc = encode_card_binary_adder(Card([1], 1, 1), variables)
        out = up_values(enc, [])
        assert out[1] is True

    def test_equiconsistent_with_card_on_complete_assignments(self):
        for n in (3, 5):
            variables = [bool_variable(i, f"x{i}") for i in range(1, n + 1)]
            card = Card(list(range(1, n + 1)), 1, n - 1)
            enc = encode_card_binary_adder(card, variables)
            for values in itertools.product((FALSE, TRUE), repeat=n):
                box = DomainBox({i + 1: [v] for i, v in enumerate(values)})
                assumptions = [enc.channel.forward[(i + 1, v)]
                               for i, v in enumerate(values)]
                assert sat_solve(enc.target, assumptions).sat == satisfies(card, box)


class TestXorDirect:
    def test_arity_one(self):
        variables = bools("x1")
        enc = encode_xor_direct(Xor([1], 1), variables)
        assert enc.target.clauses == [(1,)]

    def test_arity_three_clause_count(self):
        variables = bools("x1", "x2", "x3")
        enc = encode_xor_direct(Xor([1, 2, 3], 1), variables)
        assert enc.stats.clauses == 4

    def test_up_forces_parity(self):
        variables = bools("x1", "x2", "x3")
        enc = encode_xor_direct(Xor([1, 2, 3], 1), variables)
        out = up_values(enc, [1, 2])
        assert out[3] is True

    def test_arity_limit(self):
        variables = [bool_variable(i, f"x{i}") for i in range(1, 14)]
        with pytest.raises(ResourceError):
            encode_xor_direct(Xor(list(range(1, 14)), 0), variables)

    def test_negative_literals_fold_into_parity(self):
        variables = bools("x1", "x2")
        enc = encode_xor_direct(Xor([1, -2], 0), variables)  # x1 xor -x2 = 0 means x1 != x2... check semantics
        source = Xor([1, -2], 0)
        for v1, v2 in itertools.product((FALSE, TRUE), repeat=2):
            box = DomainBox({1: [v1], 2: [v2]})
            assumptions = [enc.channel.forward[(1, v1)], enc.channel.forward[(2, v2)]]
            assert sat_solve(enc.target, assumptions).sat == satisfies(source, box)


class TestAlldiffPairwise:
    def test_hall_instance_up_prunes_nothing_on_z(self):
        variables = [range_variable(1, "X", 1, 2), range_variable(2, "Y", 1, 2),
                     range_variable(3, "Z", 1, 3)]
        enc = encode_alldiff_pairwise(variables)
        out = up_values(enc, [])
        z_lits = [enc.channel.forward[(3, v)] for v in (1, 2, 3)]
        assert all(out[abs(l)] is None for l in z_lits)

    def test_two_variables_matches_encode_neq(self):
        a = range_variable(1, "A", 1, 3)
        b = range_variable(2, "B", 1, 3)
        via_alldiff = encode_alldiff_pairwise([a, b])
        via_neq = encode_neq(a, b)
        assert via_alldiff.target.clauses == via_neq.target.clauses
        assert via_alldiff.channel.forward == via_neq.channel.forward

    def test_pigeonhole_unsat(self):
        variables = [range_variable(i, f"X{i}", 1, 2) for i in (1, 2, 3)]
        enc = encode_alldiff_pairwise(variables)
        assert sat_solve(enc.target).sat is False


class TestClauseGadgets:
    def setup_method(self):
        self.variables = bools("a", "b", "c")
        self.clause = Clause([1, -2, 3])

    def knowledge(self, **named):
        ids = {"a": 1, "b": 2, "c": 3}
        box = DomainBox.from_variables(self.variables)
        for name, value in named.items():
            box = box.assign(ids[name], value)
        return box

    def closure_domains(self, enc, box_named):
        net = enc.target
        start = net.initial_box()
        for var in self.variables:
            tvid, _ = enc.channel.forward[(var.id, TRUE)]
            dom = box_named.domain(var.id)
            start = DomainBox({**start.domains(),
                               tvid: frozenset(dom)})
        return gac_closure(net, start)

    def test_non_gac_misses_the_forced_assignment(self):
        enc = encode_clause_to_neq(self.clause, self.variables, "non-gac")
        out = self.closure_domains(enc, self.knowledge(b=TRUE, c=FALSE))
        a_target = enc.channel.forward[(1, TRUE)][0]
        assert out.box.domain(a_target) == {FALSE, TRUE}

    def test_gac_variant_forces_the_assignment(self):
        enc = encode_clause_to_neq(self.clause, self.variables, "gac")
        out = self.closure_domains(enc, self.knowledge(b=TRUE, c=FALSE))
        a_target = enc.channel.forward[(1, TRUE)][0]
        assert out.box.domain(a_target) == {TRUE}

    def test_gac_variant_detects_falsified_clause(self):
        enc = encode_clause_to_neq(self.clause, self.variables, "gac")
        out = self.closure_domains(enc, self.knowledge(a=FALSE, b=TRUE, c=FALSE))
        assert out.inconsistent

    def test_both_variants_equisatisfiable_on_all_assignments(self):
        for variant in ("non-gac", "gac"):
            enc = encode_clause_to_neq(self.clause, self.variables, variant)
            for values in itertools.product((FALSE, TRUE), repeat=3):
                box = DomainBox({i + 1: [v] for i, v in enumerate(values)})
                expected = satisfies(self.clause, box)
                got = solve_brute_force(enc.target, self.closure_start(enc, values)).sat
                assert got == expected, (variant, values)

    def closure_start(self, enc, values):
        start = enc.target.initial_box()
        for vid, value in enumerate(values, 1):
            tvid, tval = enc.channel.forward[(vid, value)]
            start = start.assign(tvid, tval)
        return start

    def test_generalizes_to_other_arities(self):
        for arity in (1, 2, 4, 5):
            variables = [bool_variable(i, f"x{i}") for i in range(1, arity + 1)]
            lits = [i if i % 2 else -i for i in range(1, arity + 1)]
            clause = Clause(lits)
            for variant in ("non-gac", "gac"):
                enc = encode_clause_to_neq(clause, variables, variant)
                for values in itertools.product((FALSE, TRUE), repeat=arity):
                    box = DomainBox({i + 1: [v] for i, v in enumerate(values)})
                    start = enc.target.initial_box()
                    for vid, value in enumerate(values, 1):
                        tvid, tval = enc.channel.forward[(vid, value)]
                        start = start.assign(tvid, tval)
                    assert solve_brute_force(enc.target, start).sat == \
                        satisfies(clause, box), (variant, arity, values)

    def test_aux_variables_marked(self):
        enc = encode_clause_to_neq(self.clause, self.variables, "gac")
        image_vars = {enc.channel.forward[(v.id, TRUE)][0] for v in self.variables}
        assert image_vars.isdisjoint(enc.channel.aux)
        assert len(enc.channel.aux) == enc.stats.aux


class TestChannelValidation:
    def test_partial_channel_rejected(self):
        a, = bools("a")
        with pytest.raises(UsageError):
            ChannelMap(ChannelMap.CNF, [a], {(1, TRUE): 1})  # FALSE missing

    def test_aux_overlap_rejected(self):
        a, = bools("a")
        with pytest.raises(UsageError):
            ChannelMap(ChannelMap.CNF, [a],
                       {(1, TRUE): 1, (1, FALSE): -1}, aux=[1])

    def test_two_source_variables_with_one_name_rejected(self):
        # verdict JSON keys boxes by name, so one of the two would vanish
        variables = [bool_variable(1, "x"), bool_variable(2, "x"), bool_variable(3, "y")]
        with pytest.raises(UsageError, match="two source variables named 'x'"):
            build_encoding("binary-adder", Card([1, 2, 3], 1, 2), variables)


class TestBackMapping:
    def test_full_target_model_maps_to_satisfying_source_assignment(self):
        # channel totality in the solution direction
        a = range_variable(1, "A", 1, 3)
        b = range_variable(2, "B", 1, 3)
        enc = encode_neq(a, b)
        result = sat_solve(enc.target)
        assert result.sat
        picked = {}
        for var in (a, b):
            chosen = [v for v in var.domain
                      if result.model[enc.channel.forward[(var.id, v)]]]
            assert len(chosen) == 1
            picked[var.id] = chosen[0]
        assert picked[1] != picked[2]


class TestCompileNetwork:
    def test_mixed_network_compiles_and_matches_brute_force(self):
        variables = [bool_variable(1, "a"), bool_variable(2, "b"),
                     range_variable(3, "X", 1, 2), range_variable(4, "Y", 1, 2)]
        net = Network(variables, [Clause([1, -2]), Neq(3, 4),
                                  Card([1, 2], 1, 2)])
        enc = compile_network(net, net.initial_box())
        assert sat_solve(enc.target).sat == solve_brute_force(net).sat

    def test_restrictions_become_units(self):
        variables = [bool_variable(1, "a")]
        net = Network(variables, [])
        box = net.initial_box().assign(1, TRUE)
        enc = compile_network(net, box)
        assert (1,) in enc.target.clauses

    def test_table_has_no_cnf_encoder(self):
        from gackit.model import Table
        x = range_variable(1, "X", 1, 2)
        net = Network([x], [Table([1], [(1,)])])
        with pytest.raises(UsageError):
            compile_network(net)


class TestBuildEncodingRegistry:
    def test_type_mismatch_rejected(self):
        variables = bools("a", "b")
        with pytest.raises(UsageError):
            build_encoding("totalizer", Clause([1, 2]), variables)

    def test_unknown_name_rejected(self):
        variables = bools("a")
        with pytest.raises(UsageError):
            build_encoding("nacre", Clause([1]), variables)

    def test_every_name_builds_on_a_fitting_source(self):
        # (variables, aux, clauses) per encoding; clauses count constraints
        # for network targets
        a3 = range_variable(1, "A", 1, 3)
        b3 = range_variable(2, "B", 1, 3)
        cases = {
            "totalizer": (Card([1, 2], 1, 1), bools("a", "b"), (4, 2, 9)),
            "binary-adder": (Card([1, 2], 1, 1), bools("a", "b"), (5, 3, 12)),
            "exactly-one:pairwise": (Card([1, 2], 1, 1), bools("a", "b"), (2, 0, 2)),
            "exactly-one:sequential": (Card([1, 2], 1, 1), bools("a", "b"), (3, 1, 4)),
            "neq:pairwise": (Neq(1, 2), [a3, b3], (6, 0, 11)),
            "neq:sequential": (Neq(1, 2), [a3, b3], (10, 4, 19)),
            "alldiff-pairwise": (AllDiff([1, 2]), [a3, b3], (6, 0, 11)),
            "xor-direct": (Xor([1, 2], 1), bools("a", "b"), (2, 0, 2)),
            "clause-to-neq:gac": (Clause([1, -2]), bools("a", "b"), (5, 3, 4)),
            "clause-to-neq:non-gac": (Clause([1, -2]), bools("a", "b"), (8, 6, 8)),
            "identity": (Clause([1, -2]), bools("a", "b"), (2, 0, 1)),
        }
        for name, (constraint, variables, sizes) in cases.items():
            stats = build_encoding(name, constraint, variables).stats
            assert (stats.variables, stats.aux, stats.clauses) == sizes, name
