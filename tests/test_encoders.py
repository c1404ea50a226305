"""Encoders: emitted sizes, channel totality, propagation behavior of the
produced targets, and equisatisfiability spot checks."""

import hashlib
import itertools

import pytest

from gackit.model import (
    FALSE, TRUE, AllDiff, Card, ChannelMap, Clause, DomainBox, Neq, Network,
    ResourceError, Table, UsageError, Variable, Xor, bool_variable, range_variable,
    satisfies,
)
from gackit.propagation import (
    CnfFormula, UnitPropagator, gac_closure, sat_solve, solve_brute_force,
)
from gackit.encoders import (
    ENCODING_NAMES, PAIRWISE, SEQUENTIAL, build_encoding, compile_network,
    encode_clause_to_neq, encode_exactly_one,
)
from gackit.classify import _instances
from gackit.cnet import CnetDocument, write_cnet
from gackit.dimacs import write_dimacs
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
            encode_exactly_one(f, [x], scheme)
            assert f.num_vars == 1 and f.clauses == [(x,)]

    def test_pairwise_counts(self):
        for n in range(2, 7):
            f = CnfFormula()
            lits = [f.new_var() for _ in range(n)]
            encode_exactly_one(f, lits, PAIRWISE)
            assert f.num_vars == n
            assert len(f.clauses) == 1 + n * (n - 1) // 2

    def test_pairwise_three_exact_clause_set(self):
        f = CnfFormula()
        a1, a2, a3 = (f.new_var() for _ in range(3))
        encode_exactly_one(f, [a1, a2, a3], PAIRWISE)
        assert f.clauses == [(a1, a2, a3), (-a1, -a2), (-a1, -a3), (-a2, -a3)]

    def test_sequential_counts(self):
        f = CnfFormula()
        lits = [f.new_var() for _ in range(3)]
        encode_exactly_one(f, lits, SEQUENTIAL)
        assert f.num_vars == 3 + 2
        assert len(f.clauses) == 8

    def test_sequential_up_forces_all_others_false(self):
        variables = bools("x1", "x2", "x3", "x4")
        enc = build_encoding("exactly-one:sequential", Card([1, 2, 3, 4], 1, 1),
                             variables)
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
        enc = compile_network(Network([v], []))
        assert enc.stats.variables == 1 and enc.stats.clauses == 1
        assert enc.target.clauses == [(1,)]

    def test_three_values_pairwise(self):
        v = range_variable(1, "X", 1, 3)
        enc = compile_network(Network([v], []), one_hot=PAIRWISE)
        assert (enc.stats.variables, enc.stats.aux, enc.stats.clauses) == (3, 0, 4)

    def test_three_values_sequential(self):
        v = range_variable(1, "X", 1, 3)
        enc = compile_network(Network([v], []), one_hot=SEQUENTIAL)
        assert enc.stats.aux == 2 and enc.stats.clauses == 8

    def test_channel_totality(self):
        v = range_variable(1, "X", 1, 4)
        enc = compile_network(Network([v], []))
        assert set(enc.channel.forward) == {(1, i) for i in (1, 2, 3, 4)}

    @pytest.mark.parametrize("option, message", [
        ({"card_scheme": "ladder"}, "^unknown cardinality scheme 'ladder'$"),
        ({"one_hot": "ladder"}, "^unknown exactly-one scheme 'ladder'$")],
        ids=["card_scheme", "one_hot"])
    def test_unknown_scheme_names_are_refused_on_entry(self, option, message):
        # a Clause over one Boolean needs neither scheme
        with pytest.raises(UsageError, match=message):
            compile_network(Network([bool_variable(1, "a")], [Clause([1])]), **option)


class TestEncodeNeq:
    def test_size_three_pairwise_counts(self):
        a = range_variable(1, "A", 1, 3)
        b = range_variable(2, "B", 1, 3)
        enc = build_encoding("neq:pairwise", Neq(1, 2), [a, b])
        assert enc.stats.variables == 6
        assert enc.stats.aux == 0
        assert enc.stats.clauses == 11  # 2 exactly-one blocks + 3 difference

    def test_up_removes_assigned_value_from_other_side(self):
        a = range_variable(1, "A", 1, 3)
        b = range_variable(2, "B", 1, 3)
        enc = build_encoding("neq:pairwise", Neq(1, 2), [a, b])
        out = up_values(enc, [enc.channel.forward[(1, 2)]])  # A = 2
        b2 = enc.channel.forward[(2, 2)]
        assert out[abs(b2)] is False

    def test_singleton_domains_unsat(self):
        a = range_variable(1, "A", 1, 1)
        b = range_variable(2, "B", 1, 1)
        enc = build_encoding("neq:pairwise", Neq(1, 2), [a, b])
        assert sat_solve(enc.target).sat is False


class TestTotalizer:
    def test_forces_rest_false_when_hi_reached(self):
        variables = bools("x1", "x2", "x3", "x4")
        enc = build_encoding("totalizer", Card([1, 2, 3, 4], 2, 2), variables)
        out = up_values(enc, [enc.channel.forward[(1, TRUE)],
                              enc.channel.forward[(2, TRUE)]])
        assert out[3] is False and out[4] is False

    def test_vacuous_bounds_emit_no_units_and_up_derives_nothing(self):
        variables = bools("x1", "x2", "x3")
        enc = build_encoding("totalizer", Card([1, 2, 3], 0, 3), variables)
        assert all(len(cl) > 1 for cl in enc.target.clauses)
        out = up_values(enc, [enc.channel.forward[(1, TRUE)]])
        assigned_inputs = {v for v in (2, 3) if out[v] is not None}
        assert not assigned_inputs

    def test_at_most_one_forces_others_false(self):
        variables = bools("x1", "x2", "x3")
        enc = build_encoding("totalizer", Card([1, 2, 3], 0, 1), variables)
        out = up_values(enc, [enc.channel.forward[(1, TRUE)]])
        assert out[2] is False and out[3] is False

    def test_clause_count_monotone_and_subcubic(self):
        counts = []
        for n in range(1, 17):
            variables = [bool_variable(i, f"x{i}") for i in range(1, n + 1)]
            enc = build_encoding("totalizer", Card(list(range(1, n + 1)), 1, 1),
                                 variables)
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
        enc = build_encoding("binary-adder", Card([1], 1, 1), variables)
        out = up_values(enc, [])
        assert out[1] is True

    def test_equiconsistent_with_card_on_complete_assignments(self):
        for n in (3, 5):
            variables = [bool_variable(i, f"x{i}") for i in range(1, n + 1)]
            card = Card(list(range(1, n + 1)), 1, n - 1)
            enc = build_encoding("binary-adder", card, variables)
            for values in itertools.product((FALSE, TRUE), repeat=n):
                box = DomainBox({i + 1: [v] for i, v in enumerate(values)})
                assumptions = [enc.channel.forward[(i + 1, v)]
                               for i, v in enumerate(values)]
                assert sat_solve(enc.target, assumptions).sat == satisfies(card, box)


class TestXorDirect:
    def test_arity_one(self):
        variables = bools("x1")
        enc = build_encoding("xor-direct", Xor([1], 1), variables)
        assert enc.target.clauses == [(1,)]

    def test_arity_three_clause_count(self):
        variables = bools("x1", "x2", "x3")
        enc = build_encoding("xor-direct", Xor([1, 2, 3], 1), variables)
        assert enc.stats.clauses == 4

    def test_up_forces_parity(self):
        variables = bools("x1", "x2", "x3")
        enc = build_encoding("xor-direct", Xor([1, 2, 3], 1), variables)
        out = up_values(enc, [1, 2])
        assert out[3] is True

    def test_arity_limit(self):
        variables = [bool_variable(i, f"x{i}") for i in range(1, 14)]
        with pytest.raises(ResourceError):
            build_encoding("xor-direct", Xor(list(range(1, 14)), 0), variables)

    def test_negative_literals_fold_into_parity(self):
        variables = bools("x1", "x2")
        source = Xor([1, -2], 0)  # x1 xor not-x2 = 0 holds exactly where x1 != x2
        enc = build_encoding("xor-direct", source, variables)
        for v1, v2 in itertools.product((FALSE, TRUE), repeat=2):
            box = DomainBox({1: [v1], 2: [v2]})
            assumptions = [enc.channel.forward[(1, v1)], enc.channel.forward[(2, v2)]]
            sat = sat_solve(enc.target, assumptions).sat
            assert sat == (v1 != v2) == satisfies(source, box)


class TestAlldiffPairwise:
    def test_hall_instance_up_prunes_nothing_on_z(self):
        variables = [range_variable(1, "X", 1, 2), range_variable(2, "Y", 1, 2),
                     range_variable(3, "Z", 1, 3)]
        enc = build_encoding("alldiff-pairwise", AllDiff([1, 2, 3]), variables)
        out = up_values(enc, [])
        z_lits = [enc.channel.forward[(3, v)] for v in (1, 2, 3)]
        assert all(out[abs(l)] is None for l in z_lits)

    def test_two_variables_matches_neq_pairwise(self):
        a = range_variable(1, "A", 1, 3)
        b = range_variable(2, "B", 1, 3)
        via_alldiff = build_encoding("alldiff-pairwise", AllDiff([1, 2]), [a, b])
        via_neq = build_encoding("neq:pairwise", Neq(1, 2), [a, b])
        assert via_alldiff.target.clauses == via_neq.target.clauses
        assert via_alldiff.channel.forward == via_neq.channel.forward

    def test_pigeonhole_unsat(self):
        variables = [range_variable(i, f"X{i}", 1, 2) for i in (1, 2, 3)]
        enc = build_encoding("alldiff-pairwise", AllDiff([1, 2, 3]), variables)
        assert sat_solve(enc.target).sat is False


def test_one_hot_encodings_channel_the_declared_variables_in_their_order():
    x, y, z = (range_variable(1, "X", 1, 3), range_variable(2, "Y", 2, 3),
               range_variable(3, "Z", 1, 2))
    for name in ("neq:pairwise", "neq:sequential"):
        enc = build_encoding(name, Neq(2, 1), [x, y, z])
        assert [var.name for var in enc.channel.source_vars] == ["X", "Y", "Z"]
        assert set(enc.channel.forward) == {(var.id, value) for var in (x, y, z)
                                            for value in var.domain}


@pytest.mark.parametrize("name", ["totalizer", "binary-adder", "exactly-one:pairwise",
                                  "exactly-one:sequential"])
def test_a_card_builds_beside_a_range_variable_outside_its_scope(name):
    variables = bools("a", "b") + [range_variable(3, "Z", 1, 3)]
    enc = build_encoding(name, Card([1, 2], 1, 1), variables)
    z_lits = [enc.channel.forward[(3, value)] for value in (1, 2, 3)]
    assert all(lit > 0 for lit in z_lits)  # one selector per value
    for value, lit in zip((1, 2, 3), z_lits):
        assert sat_solve(enc.target, [lit]).sat
        assert not sat_solve(enc.target, [lit, z_lits[value % 3]]).sat


def test_the_benchmarked_one_hot_builds_are_pinned():
    # sha256 over the DIMACS text with its channel comments of the neq
    # family n=2..5 and the alldiff Hall family n=2..6 (the report's jobs,
    # and the Hall n=6 instance of the `solve` workload): the same bytes as
    # when these encodings compiled apart from `compile_network`
    digest = hashlib.sha256()
    for names, family, sizes in (
            (("neq:pairwise", "neq:sequential"), "neq", range(2, 6)),
            (("alldiff-pairwise", "alldiff-pairwise:sequential"), "alldiff", range(2, 7))):
        for name, size in itertools.product(names, sizes):
            for source, variables in _instances(family, size):
                enc = build_encoding(name, source, variables)
                digest.update(write_dimacs(enc.target, enc.channel).encode())
    assert digest.hexdigest() == \
        "a8c8f2447f61aabce5d8a334d33b621032d20793449ff90312d421830d6241b8"


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
        gadget = [v.name for v in enc.target.variables if v.id not in image_vars]
        assert gadget == ["h1", "h2", "h3", "d"]
        assert enc.stats.aux == len(gadget)


class TestChannelValidation:
    def test_partial_channel_rejected(self):
        a, = bools("a")
        with pytest.raises(UsageError):
            ChannelMap(ChannelMap.CNF, [a], {(1, TRUE): 1})  # FALSE missing

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
        enc = build_encoding("neq:pairwise", Neq(1, 2), [a, b])
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
        x = range_variable(1, "X", 1, 2)
        net = Network([x], [Table([1], [(1,)])])
        with pytest.raises(UsageError):
            compile_network(net)


A3 = range_variable(1, "A", 1, 3)
B3 = range_variable(2, "B", 1, 3)

# name -> (source, variables, (variables, aux, clauses)); clauses count
# constraints for network targets
FITTING = {
    "totalizer": (Card([1, 2], 1, 1), bools("a", "b"), (4, 2, 9)),
    "binary-adder": (Card([1, 2], 1, 1), bools("a", "b"), (5, 3, 12)),
    "exactly-one:pairwise": (Card([1, 2], 1, 1), bools("a", "b"), (2, 0, 2)),
    "exactly-one:sequential": (Card([1, 2], 1, 1), bools("a", "b"), (3, 1, 4)),
    "neq:pairwise": (Neq(1, 2), [A3, B3], (6, 0, 11)),
    "neq:sequential": (Neq(1, 2), [A3, B3], (10, 4, 19)),
    "alldiff-pairwise": (AllDiff([1, 2]), [A3, B3], (6, 0, 11)),
    "alldiff-pairwise:sequential": (AllDiff([1, 2]), [A3, B3], (10, 4, 19)),
    "xor-direct": (Xor([1, 2], 1), bools("a", "b"), (2, 0, 2)),
    "clause-to-neq:gac": (Clause([1, -2]), bools("a", "b"), (5, 3, 4)),
    "clause-to-neq:non-gac": (Clause([1, -2]), bools("a", "b"), (8, 6, 8)),
    "identity": (Clause([1, -2]), bools("a", "b"), (2, 0, 1)),
}

# the same source kinds with variable id 5 in the scope but not declared
UNDECLARED = {Card: Card([1, 5], 1, 1), Neq: Neq(1, 5), AllDiff: AllDiff([1, 5]),
              Xor: Xor([1, 5], 1), Clause: Clause([1, -5])}


class TestBuildEncodingRegistry:
    def test_type_mismatch_rejected(self):
        variables = bools("a", "b")
        with pytest.raises(UsageError):
            build_encoding("totalizer", Clause([1, 2]), variables)

    def test_unknown_name_rejected(self):
        # a source that fits the known name `sibling` does not make `name` known
        for name, sibling in [
                ("nacre", "identity"), ("neq:foo", "neq:pairwise"),
                ("alldiff-pairwise:foo", "alldiff-pairwise"),
                ("alldiff-pairwise:pairwise", "alldiff-pairwise"),
                ("clause-to-neq:foo", "clause-to-neq:gac"),
                ("exactly-one:foo", "exactly-one:pairwise"),
                ("exactly-one", "exactly-one:pairwise"), ("totalizer:gac", "totalizer")]:
            source, variables, _ = FITTING[sibling]
            with pytest.raises(UsageError, match=f"^unknown encoding '{name}'; known: "):
                build_encoding(name, source, variables)

    def test_every_name_builds_on_a_fitting_source(self):
        assert set(FITTING) == set(ENCODING_NAMES)
        for name, (constraint, variables, sizes) in FITTING.items():
            stats = build_encoding(name, constraint, variables).stats
            assert (stats.variables, stats.aux, stats.clauses) == sizes, name

    @pytest.mark.parametrize("name", ENCODING_NAMES)
    def test_a_scope_variable_missing_from_the_variables_is_a_usage_error(self, name):
        source, variables, _ = FITTING[name]
        undeclared = UNDECLARED[type(source)]
        with pytest.raises(UsageError, match="references undeclared variable id 5"):
            build_encoding(name, undeclared, variables)

    @pytest.mark.parametrize("name", ENCODING_NAMES)
    def test_two_variables_with_one_id_are_a_usage_error(self, name):
        # clause-to-neq:gac used to build over them and then fail
        # equiconsistency; alldiff-pairwise dropped one of the two
        source, variables, _ = FITTING[name]
        first = variables[0]
        twin = Variable(first.id, "twin", first.domain, first.labels)
        with pytest.raises(UsageError, match=f"^duplicate variable id {first.id}$"):
            build_encoding(name, source, variables + [twin])


def pin_sources():
    """A small fixed source set; every name is built on every source."""
    x, y, z = (range_variable(1, "X", 1, 2), range_variable(2, "Y", 1, 2),
               range_variable(3, "Z", 1, 3))
    return [
        (Card([1, -2, 3], 1, 2), bools("a", "b", "c")),
        (Card([1, 2, -3, 4], 1, 1), bools("a", "b", "c", "d", "e")),
        (Card([1, 1, -2], 1, 2), bools("a", "b")),
        (Card([], 0, 0), bools("a")),
        (Xor([1, -2, 3], 1), bools("a", "b", "c")),
        (Xor([1, 1, 2], 0), bools("a", "b")),
        (Clause([1, -2, 3]), bools("a", "b", "c")),
        (Clause([-2]), bools("a", "b")),
        (Neq(1, 2), [x, range_variable(2, "Y", 2, 4)]),
        (Neq(2, 1), bools("a", "b")),
        (AllDiff([1, 2, 3]), [x, y, z]),
        (AllDiff([1, 2]), bools("a", "b")),
        (Table([1, 2], [(1, 2), (2, 1)]), [x, y]),
    ]


def pin_digest(name):
    """sha256 over, per pin source, the target's DIMACS or CNET text, the
    channel and the stats, or the error text where the name rejects the
    source; and how many sources built."""
    digest, built = hashlib.sha256(), 0
    for source, variables in pin_sources():
        try:
            enc = build_encoding(name, source, variables)
        except UsageError as exc:
            digest.update(f"error: {exc}\n".encode())
            continue
        built += 1
        if isinstance(enc.target, Network):
            text = write_cnet(CnetDocument(enc.target, enc.target.initial_box()))
        else:
            text = write_dimacs(enc.target, enc.channel)
        digest.update(text.encode())
        digest.update(f"{sorted(enc.channel.forward.items())}\n{enc.stats}\n".encode())
    return digest.hexdigest(), built


# name -> (digest, sources built); a new digest means an encoder's output,
# or the text of an error it raises, changed
PINNED = {
    "totalizer": ("9811667c0969c2046606b663ba0dfa3850aefc9aff86b83e0855673ec427eb77", 4),
    "binary-adder": ("194d3ded392a2f0ec5489e6f4b9bd40d8e5e9c954d620cf231b594c3a2645cb2", 4),
    "exactly-one:pairwise": ("b76b297dc4358796b426fc5ff782c72f6bc668d73a98e246dac278cbd06c639e", 1),
    "exactly-one:sequential": ("b38cdf257ba67651918244015423efe1b688b5e4a9161b0e8bee3db8726ddfd4", 1),
    "neq:pairwise": ("77aa3e200542e547586c0157da77e9418399acd04f279bead30fdf9ebf1d6986", 2),
    "neq:sequential": ("29c78da07f767dff3e8c23a3e79a48230f38fa11e50b06cafc4416269ce7fabe", 2),
    "alldiff-pairwise": ("f62c9117ed0fe0950aee148543b452e896eb5cc911ea551c699416eb4ecd243e", 2),
    "alldiff-pairwise:sequential": ("c6e68c290c9b477b7046705d42161a3bec07896e3eb935427f669a420aadc1c7", 2),
    "xor-direct": ("1c5e615abc81ff70b0a38b0691e5d5b5dabfcabd36e08348b2c5169a31896eec", 2),
    "clause-to-neq:gac": ("6acf8205f2814064ab3e32e35f86313f35117d477fe0f38a572d3f79c4f67789", 2),
    "clause-to-neq:non-gac": ("dd4016384dfeac8f4fa355ee31a60e4fa6f5f9dc8127f5265f71330498cceaf3", 2),
    "identity": ("7541788efebc2f7c7bcf7e2b11108917925f3ccda3e5cd3bb699702b146663b0", 13),
}


@pytest.mark.parametrize("name", ENCODING_NAMES)
def test_encoder_output_is_pinned(name):
    assert pin_digest(name) == PINNED[name]
