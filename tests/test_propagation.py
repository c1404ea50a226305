"""Propagation engines: oracle, per-variant filters, closure, UP, solvers."""

import itertools
import random

import pytest

from gackit.model import (
    FALSE, TRUE, AllDiff, Card, Clause, DomainBox, Neq, Network, ResourceError,
    Table, UsageError, Xor, bool_variable, range_variable,
)
from gackit.propagation import (
    CnfFormula, UnitPropagator, _filter_alldiff, _filter_literals, gac_closure,
    gac_filter, gac_oracle, sat_solve, solve_brute_force,
)
from gackit.gac_check import (
    ASSIGNMENT_STYLE, EnumerationPolicy, enumerate_knowledge_states,
)
from gackit.classify import _instances


def bools(*names):
    return [bool_variable(i, n) for i, n in enumerate(names, 1)]


def hall_instance():
    variables = [range_variable(1, "X", 1, 2), range_variable(2, "Y", 1, 2),
                 range_variable(3, "Z", 1, 3)]
    return variables, DomainBox.from_variables(variables)


class TestGacOracle:
    def test_clause_assigns_last_support(self):
        box = DomainBox({1: [FALSE, TRUE], 2: [TRUE], 3: [FALSE]})
        out = gac_oracle(Clause([1, -2, 3]), box)
        assert out.box.domain(1) == {TRUE}
        assert out.box.domain(2) == {TRUE}
        assert out.box.domain(3) == {FALSE}

    def test_alldiff_hall_set_prunes_third(self):
        _, box = hall_instance()
        out = gac_oracle(AllDiff([1, 2, 3]), box)
        assert out.box.domain(3) == {3}
        assert out.box.domain(1) == {1, 2} and out.box.domain(2) == {1, 2}

    def test_neq_with_supports_everywhere(self):
        box = DomainBox({1: [1, 2], 2: [1, 2]})
        out = gac_oracle(Neq(1, 2), box)
        assert out.box == box

    def test_leaves_unscoped_variables_alone(self):
        box = DomainBox({1: [TRUE, FALSE], 2: [TRUE, FALSE], 9: [5, 6]})
        out = gac_oracle(Clause([1]), box)
        assert out.box.domain(9) == {5, 6}
        assert out.box.domain(1) == {TRUE}

    @pytest.mark.parametrize("c, sat", [(Clause([]), False), (Xor([], 1), False),
                                        (Xor([], 0), True), (Card([], 0, 0), True),
                                        (Table([], []), False), (Table([], [()]), True)],
                             ids=repr)
    def test_empty_scope_holds_iff_it_accepts_the_empty_tuple(self, c, sat):
        # one tuple, (), and no scope variable whose support set could run empty
        variables = bools("a")
        box = DomainBox.from_variables(variables)
        assert c.accepts(()) is sat
        for out in (gac_oracle(c, box), gac_filter(c, box)):
            assert out.inconsistent is not sat
            assert out.box is (box if sat else DomainBox.bottom())
        assert solve_brute_force(Network(variables, [c]), box).sat is sat

    def test_refuses_a_product_over_the_budget(self):
        # no filter sends a literal constraint here, so no CLI input reaches
        # this guard; 2**25 tuples are refused before the first one is tried
        variables = bools(*(f"x{i}" for i in range(1, 26)))
        with pytest.raises(ResourceError):
            gac_oracle(Card([v.id for v in variables], 1, 2),
                       DomainBox.from_variables(variables))


class TestGacFilter:
    def test_card_exactly_one_two_falsified(self):
        box = DomainBox({1: [FALSE], 2: [FALSE], 3: [FALSE, TRUE]})
        out = gac_filter(Card([1, 2, 3], 1, 1), box)
        assert out.box.domain(3) == {TRUE}

    def test_xor_parity_forcing(self):
        box = DomainBox({1: [TRUE], 2: [TRUE], 3: [FALSE, TRUE]})
        out = gac_filter(Xor([1, 2, 3], 1), box)
        assert out.box.domain(3) == {TRUE}

    def test_alldiff_matches_oracle_on_hall_set(self):
        _, box = hall_instance()
        c = AllDiff([1, 2, 3])
        assert gac_filter(c, box).box == gac_oracle(c, box).box

    def test_inconsistent_passthrough(self):
        out = gac_filter(Clause([1]), DomainBox.bottom())
        assert out.inconsistent


def random_constraint(rng, variables):
    kind = rng.choice(["clause", "card", "xor", "alldiff", "neq", "table"])
    arity = rng.randint(1, min(3, len(variables)))
    chosen = rng.sample(variables, arity)
    if kind in ("clause", "card", "xor"):
        lits = [v.id if rng.random() < 0.5 else -v.id for v in chosen]
        if kind == "clause":
            return Clause(lits)
        if kind == "xor":
            return Xor(lits, rng.randint(0, 1))
        lo = rng.randint(0, len(lits))
        return Card(lits, lo, rng.randint(lo, len(lits)))
    if kind == "neq" and arity >= 2:
        return Neq(chosen[0].id, chosen[1].id)
    if kind == "alldiff":
        return AllDiff([v.id for v in chosen])
    doms = [v.domain for v in chosen]
    universe = list(itertools.product(*doms))
    rows = rng.sample(universe, rng.randint(0, min(len(universe), 6)))
    return Table([v.id for v in chosen], rows)


def plain_truth(c, k):
    """Whether k true literals satisfy c, by the textbook definition."""
    if isinstance(c, Clause):
        return k >= 1
    if isinstance(c, Xor):
        return k % 2 == c.parity
    return c.lo <= k <= c.hi


def random_box(rng, variables):
    return DomainBox({
        v.id: rng.sample(v.domain, rng.randint(1, len(v.domain)))
        for v in variables})


class TestOracleEquivalence:
    def test_filter_equals_oracle_randomized(self):
        rng = random.Random(7)
        booleans = bools("a", "b", "c")
        ints = [range_variable(i, f"X{i}", 1, rng.randint(2, 4)) for i in (1, 2, 3)]
        for trial in range(300):
            variables = booleans if trial % 2 == 0 else ints
            c = random_constraint(rng, variables)
            if isinstance(c, (Clause, Card, Xor)) and variables is ints:
                continue  # literal constraints need Boolean scopes
            box = random_box(rng, variables)
            a = gac_filter(c, box)
            b = gac_oracle(c, box)
            assert a.inconsistent == b.inconsistent, (c, box)
            if not a.inconsistent:
                assert a.box == b.box, (c, box)

    def test_alldiff_filter_equals_oracle_on_wide_scopes(self):
        # the matching, SCC and free-value search past the arity-3 cases above
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(2, 6)
            variables = [range_variable(i, f"X{i}", 1, rng.randint(1, n + 1))
                         for i in range(1, n + 1)]
            c = AllDiff(rng.sample([v.id for v in variables], rng.randint(2, n)))
            box = random_box(rng, variables)
            a, b = gac_filter(c, box), gac_oracle(c, box)
            assert a.inconsistent == b.inconsistent, (c, box)
            if not a.inconsistent:
                assert a.box == b.box, (c, box)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_alldiff_filter_equals_oracle_on_hall_states(self, n):
        # every assignment-style state, each box built twice with its domains
        # and values inserted in opposite orders: the filter walks domains in
        # whatever order the frozensets give, and GAC output must not care
        (c, variables), = _instances("alldiff", n)
        for state in enumerate_knowledge_states(
                variables, EnumerationPolicy(ASSIGNMENT_STYLE)):
            doms = state.domains()
            boxes = (DomainBox({vid: frozenset(sorted(doms[vid])) for vid in sorted(doms)}),
                     DomainBox({vid: frozenset(sorted(doms[vid], reverse=True))
                                for vid in sorted(doms, reverse=True)}))
            want = gac_oracle(c, boxes[0])
            for box in boxes:
                got = _filter_alldiff(c, box)
                assert got.inconsistent == want.inconsistent, box
                if not got.inconsistent:
                    assert got.box == want.box, box

    @pytest.mark.parametrize("lits", [[1, -1], [1, 1, 2], [-2, 1, -2], [1, -1, 2], [2, 2]])
    def test_clause_filter_equals_oracle_with_repeated_variables(self, lits):
        c = Clause(lits)
        subdomains = ([FALSE], [TRUE], [FALSE, TRUE])
        for d1, d2 in itertools.product(subdomains, repeat=2):
            box = DomainBox({1: d1, 2: d2})
            got, want = _filter_literals(c, box), gac_oracle(c, box)
            assert got.inconsistent == want.inconsistent, box
            if not got.inconsistent:
                assert got.box == want.box, box
                assert (got.box is box) == (want.box is box), box

    def test_literal_constraints_on_every_small_case(self):
        # every literal list over +-x1..x3 of length <= 3, with every kind and
        # bound: accepts against the plain definition on every assignment
        # (the oracle is built on accepts, so it cannot catch a wrong one),
        # then the filter against the oracle on every box
        subdomains = ([FALSE], [TRUE], [FALSE, TRUE])
        boxes = [DomainBox(dict(zip((1, 2, 3), doms)))
                 for doms in itertools.product(subdomains, repeat=3)]
        for n in range(4):
            for lits in itertools.product((1, -1, 2, -2, 3, -3), repeat=n):
                cases = [Clause(lits), Xor(lits, 0), Xor(lits, 1)]
                cases += [Card(lits, lo, hi) for lo in range(n + 1) for hi in range(lo, n + 1)]
                for c in cases:
                    for values in itertools.product((FALSE, TRUE), repeat=len(c.scope)):
                        value_of = dict(zip(c.scope, values))
                        k = sum(value_of[abs(lit)] == (TRUE if lit > 0 else FALSE)
                                for lit in lits)
                        assert c.accepts(values) is plain_truth(c, k), (c, values)
                    for box in boxes:
                        got, want = gac_filter(c, box), gac_oracle(c, box)
                        assert (got.inconsistent, got.box, got.box is box) == \
                            (want.inconsistent, want.box, want.box is box), (c, box)

    def test_no_pruning_hands_back_the_input_box(self):
        # check_gac_reduction skips the target side on exactly this identity
        rng = random.Random(5)
        booleans = bools("a", "b", "c")
        ints = [range_variable(i, f"X{i}", 1, 3) for i in (1, 2, 3)]
        unpruned = set()
        for trial in range(2000):
            variables = booleans if trial % 2 == 0 else ints
            c = random_constraint(rng, variables)
            if isinstance(c, (Clause, Card, Xor)) and variables is ints:
                continue
            box = random_box(rng, variables)
            for out in (gac_filter(c, box), gac_closure(Network(variables, [c]), box)):
                if not out.inconsistent and out.box == box:
                    assert out.box is box, (c, box)
                    unpruned.add(c.kind())
        assert unpruned == {"clause", "card", "xor", "alldiff", "neq", "table"}


class TestGacClosure:
    def test_gac_gadget_network_chains_to_assignment(self):
        from gackit.encoders import encode_clause_to_neq
        a, b, c = bools("a", "b", "c")
        enc = encode_clause_to_neq(Clause([1, -2, 3]), [a, b, c], "gac")
        net = enc.target
        box = net.initial_box().assign(2, TRUE).assign(3, FALSE)
        out = gac_closure(net, box)
        assert out.box.domain(1) == {TRUE}

    def test_zero_constraints_is_identity(self):
        variables, box = hall_instance()
        out = gac_closure(Network(variables, []), box)
        assert out.box == box

    def test_pairwise_decomposition_misses_hall_pruning(self):
        variables, box = hall_instance()
        net = Network(variables, [Neq(1, 2), Neq(1, 3), Neq(2, 3)])
        out = gac_closure(net, box)
        assert out.box.domain(3) == {1, 2, 3}

    def test_closure_goes_inconsistent_on_pigeonhole_chain(self):
        x = range_variable(1, "x", 1, 1)
        y = range_variable(2, "y", 1, 2)
        z = range_variable(3, "z", 2, 2)
        net = Network([x, y, z], [Neq(1, 2), Neq(2, 3)])
        out = gac_closure(net, net.initial_box())
        assert out.inconsistent


class TestUnitPropagation:
    def test_clause_becomes_unit(self):
        f = CnfFormula(3, [[1, -2, 3]])
        assert UnitPropagator(f).propagate([2, -3])[1] is True

    def test_direct_contradiction(self):
        f = CnfFormula(1, [[1], [-1]])
        assert UnitPropagator(f).propagate() is None

    def test_empty_formula_identity(self):
        assert UnitPropagator(CnfFormula(0, [])).propagate() == [None]

    def test_contradictory_assumptions_not_an_error(self):
        f = CnfFormula(1, [])
        assert UnitPropagator(f).propagate([1, -1]) is None

    def test_chained_units(self):
        f = CnfFormula(4, [[1], [-1, 2], [-2, 3], [-3, -4]])
        assert UnitPropagator(f).propagate() == [None, True, True, True, False]

    def test_trail_reuse_equals_fresh_propagation(self):
        # One propagator fed sequences of assumption lists that share
        # prefixes must answer every list as a fresh one and as a naive
        # clause-scan fixpoint do. Clauses of two literals take the
        # implication lists and longer ones the occurrence lists, so both
        # meet tautologies. Each call keeps the prefix the list shares with
        # `assumed`, found here by value, and passes only the rest.
        # `assumed` is the longest prefix of the list that propagates
        # without conflict, which `refuted_depth` reads.
        rng = random.Random(17)
        for _ in range(300):
            nv = rng.randint(1, 8)
            formula = random_formula(rng, nv)
            clauses = formula.clauses
            shared = UnitPropagator(formula)
            lits: list[int] = []
            for _ in range(12):
                lits = self.next_assumptions(rng, nv, lits)
                keep = shared_prefix(shared.assumed, lits)
                got = shared.propagate(lits[keep:], keep)
                assert got == UnitPropagator(formula).propagate(lits) == \
                    naive_unit_closure(formula, lits), (clauses, lits)
                longest = max((k for k in range(len(lits) + 1)
                               if naive_unit_closure(formula, lits[:k]) is not None), default=0)
                assert shared.assumed == lits[:longest], (clauses, lits)
                if got is not None:
                    got[1:] = [True] * nv  # the caller owns the returned list

    def test_a_batch_equals_a_fresh_propagation_per_list(self):
        # Bit i of every mask is list i. Per list the batch must conflict
        # exactly where a fresh `propagate` does, and otherwise give every
        # variable the value of `propagate` and of the naive fixpoint. The
        # lists repeat and contradict literals, and a batch over zero
        # variables holds only empty lists. The propagator's trail is left
        # where a call on another list put it, and the batch leaves it there.
        rng = random.Random(23)
        for _ in range(300):
            nv = rng.randint(0, 8)
            formula = random_formula(rng, nv)
            lists = [self.batch_list(rng, nv) for _ in range(rng.randint(1, 130))]
            prop = UnitPropagator(formula)
            prop.propagate(lists[-1])
            trail, assumed = list(prop.trail), list(prop.assumed)
            assume = {}
            for i, lits in enumerate(lists):
                for lit in lits:
                    assume[lit] = assume.get(lit, 0) | 1 << i
            true, conflict = prop.propagate_batch(assume, len(lists))
            assert (prop.trail, prop.assumed) == (trail, assumed)
            assert conflict >> len(lists) == 0
            for i, lits in enumerate(lists):
                want = UnitPropagator(formula).propagate(lits)
                assert want == naive_unit_closure(formula, lits), (formula.clauses, lits)
                if want is None:
                    assert conflict >> i & 1, (formula.clauses, lits)
                    continue
                assert not conflict >> i & 1, (formula.clauses, lits)
                got = [None] + [True if true[v] >> i & 1 else False if true[-v] >> i & 1
                                else None for v in range(1, nv + 1)]
                assert got == want, (formula.clauses, lits)

    @staticmethod
    def batch_list(rng, nv):
        if not nv:
            return []
        lits = [rng.choice((1, -1)) * rng.randint(1, nv) for _ in range(rng.randint(0, nv))]
        if lits and rng.random() < 0.3:
            lits.insert(rng.randint(0, len(lits)), rng.choice(lits))  # repeated
        if lits and rng.random() < 0.3:
            lits.insert(rng.randint(0, len(lits)), -rng.choice(lits))  # contradictory
        return lits

    def test_a_stale_keep_is_refused(self):
        # A conflict leaves `assumed` short of the list, so keeping the
        # whole list after it would keep literals that were never asserted.
        prop = UnitPropagator(CnfFormula(3, [[-1, -2]]))
        assert prop.propagate([1, 3, 2], 0) is None
        assert prop.assumed == [1, 3]
        with pytest.raises(UsageError):
            prop.propagate([], 3)
        with pytest.raises(UsageError):
            prop.propagate([], -1)
        assert prop.propagate([-2], 2) == [None, True, False, True]
        with pytest.raises(UsageError):  # even where the formula is false
            UnitPropagator(CnfFormula(1, [[]])).propagate([], 1)

    @staticmethod
    def next_assumptions(rng, nv, lits):
        def lit():
            return rng.choice((1, -1)) * rng.randint(1, nv)
        move = rng.choice(("extend", "truncate", "flip", "repeat", "contradict",
                           "fresh"))
        if move == "extend":
            return lits + [lit() for _ in range(rng.randint(1, 3))]
        if move == "truncate":
            return lits[:rng.randint(0, len(lits))]
        if move == "flip" and lits:
            return lits[:-1] + [-lits[-1]]
        if move == "repeat" and lits:
            return lits + [rng.choice(lits)]
        if move == "contradict" and lits:  # conflicts mid-list, then goes on
            at = rng.randint(0, len(lits))
            return lits[:at] + [-rng.choice(lits)] + lits[at:] + [lit()]
        return [lit() for _ in range(rng.randint(0, nv))]


def shared_prefix(old, new):
    """The length of the longest common prefix of two literal lists."""
    return next((k for k, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))


def random_formula(rng, nv):
    """A seeded random formula over `nv` variables: units, binary, ternary
    and longer clauses, some tautologies, and one time in twenty an empty
    clause. Over zero variables only the empty clause can be drawn."""
    def lit():
        return rng.choice((1, -1)) * rng.randint(1, nv)
    clauses = []
    if nv:
        clauses = [[lit() for _ in range(rng.choice((1, 1, 2, 2, 3, 4, 5, 6)))]
                   for _ in range(rng.randint(0, 14))]
        for _ in range(rng.choice((0, 0, 1, 2))):
            a = lit()
            clauses.append([a, -a] + [lit() for _ in range(rng.choice((0, 0, 1, 3)))])
    if rng.random() < 0.05:
        clauses.append([])
    return CnfFormula(nv, clauses)


def naive_unit_closure(formula, assumptions):
    """Unit-rule fixpoint by rescanning every clause until nothing changes."""
    val = [None] * (formula.num_vars + 1)
    for lit in [cl[0] for cl in formula.clauses if len(cl) == 1] + list(assumptions):
        if val[abs(lit)] == (lit < 0):
            return None
        val[abs(lit)] = lit > 0
    changed = True
    while changed:
        changed = False
        for cl in formula.clauses:
            if any(val[abs(l)] == (l > 0) for l in cl):
                continue
            free = [l for l in cl if val[abs(l)] is None]
            if not free:
                return None
            if len(free) == 1:
                val[abs(free[0])] = free[0] > 0
                changed = True
    return val


class TestSolvers:
    def test_brute_force_falsified_clause(self):
        variables = bools("a", "b", "c")
        net = Network(variables, [Clause([1, -2, 3])])
        box = DomainBox({1: [FALSE], 2: [TRUE], 3: [FALSE]})
        assert solve_brute_force(net, box).sat is False

    def test_brute_force_unconstrained(self):
        net = Network(bools("a"), [])
        result = solve_brute_force(net)
        assert result.sat and result.model[1] in (FALSE, TRUE)

    def test_brute_force_pigeonhole(self):
        variables = [range_variable(i, f"X{i}", 1, 2) for i in (1, 2, 3)]
        net = Network(variables, [AllDiff([1, 2, 3])])
        assert solve_brute_force(net).sat is False

    def test_brute_force_budget(self):
        variables = [range_variable(i, f"X{i}", 1, 10) for i in range(1, 10)]
        net = Network(variables, [])
        with pytest.raises(ResourceError):
            solve_brute_force(net, budget=1000)

    def test_brute_force_budget_below_one_is_a_usage_error(self):
        # even where the box is bottom or there is nothing to enumerate
        for net, box in ((Network([], []), None),
                         (Network([range_variable(1, "X", 1, 2)], []), DomainBox.bottom())):
            with pytest.raises(UsageError, match="budget must be at least 1, got 0"):
                solve_brute_force(net, box, budget=0)

    def test_sat_solve_unit(self):
        result = sat_solve(CnfFormula(1, [[1]]))
        assert result.sat and result.model[1] is True

    def test_sat_solve_unsat(self):
        assert sat_solve(CnfFormula(2, [[1, 2], [-1], [-2]])).sat is False

    def test_sat_solve_prefers_false(self):
        result = sat_solve(CnfFormula(2, [[1, 2]]))
        assert result.model == {1: False, 2: True}

    def test_totalizer_overfull_is_unsat_and_matches_enumeration(self):
        from gackit.encoders import build_encoding
        variables = bools("x1", "x2", "x3", "x4")
        card = Card([1, 2, 3, 4], 2, 2)
        enc = build_encoding("totalizer", card, variables)
        assumptions = [enc.channel.forward[(i, TRUE)] for i in (1, 2, 3)]
        assert sat_solve(enc.target, assumptions).sat is False
        # independent oracle: no completion of x1=x2=x3=T satisfies card[2..2]
        completions = [DomainBox({1: [TRUE], 2: [TRUE], 3: [TRUE], 4: [v]})
                       for v in (FALSE, TRUE)]
        from gackit.model import satisfies
        assert not any(satisfies(card, box) for box in completions)

    def test_sat_solve_deep_search_is_not_recursive(self):
        # 1,199 decisions deep: x1..x1199 False, then x1200 is forced True
        result = sat_solve(CnfFormula(1200, [tuple(range(1, 1201))]))
        assert result.sat
        assert result.model == {**{v: False for v in range(1, 1200)}, 1200: True}

    def test_brute_force_matches_product_enumeration(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(1, 4)
            variables = [range_variable(i, f"X{i}", 1, rng.randint(1, 3))
                         for i in range(1, n + 1)]
            rng.shuffle(variables)  # search order is network order, not id order
            constraints = [random_constraint(rng, variables)
                           for _ in range(rng.randint(0, 4))]
            constraints = [c for c in constraints
                           if not isinstance(c, (Clause, Card, Xor))]
            net = Network(variables, constraints)
            box = random_box(rng, variables)
            vids = [v.id for v in variables]
            first = next((dict(zip(vids, tup)) for tup in itertools.product(
                *(sorted(box.domain(v)) for v in vids))
                if all(c.accepts([dict(zip(vids, tup))[v] for v in c.scope])
                       for c in constraints)), None)
            result = solve_brute_force(net, box)
            assert (result.sat, result.model) == (first is not None, first)

    def test_dpll_on_a_used_propagator_equals_a_fresh_one(self):
        rng = random.Random(9)
        for _ in range(200):
            nv = rng.randint(1, 8)
            clauses = [[rng.choice((1, -1)) * rng.randint(1, nv)
                        for _ in range(rng.randint(1, 3))]
                       for _ in range(rng.randint(0, 20))]
            formula = CnfFormula(nv, clauses)
            shared = UnitPropagator(formula)
            lits: list[int] = []
            for _ in range(4):
                lits = TestUnitPropagation.next_assumptions(rng, nv, lits)
                keep = shared_prefix(shared.assumed, lits)
                assert shared.propagate(lits[keep:], keep) == \
                    UnitPropagator(formula).propagate(lits), (clauses, lits)
                assumptions = [rng.choice((1, -1)) * rng.randint(1, nv)
                               for _ in range(rng.randint(0, 2))]
                assert sat_solve(shared, assumptions) == \
                    sat_solve(formula, assumptions), (clauses, assumptions)


class TestClosureLaws:
    def random_net(self, rng):
        variables = [bool_variable(i, f"x{i}") for i in range(1, 5)]
        constraints = [random_constraint(rng, variables)
                       for _ in range(rng.randint(1, 3))]
        return Network(variables, constraints)

    def test_idempotence_and_monotonicity(self):
        rng = random.Random(11)
        for _ in range(150):
            net = self.random_net(rng)
            box2 = random_box(rng, net.variables)
            box1 = DomainBox({
                vid: rng.sample(sorted(dom), rng.randint(1, len(dom)))
                for vid, dom in box2.domains().items()})
            out2 = gac_closure(net, box2)
            out1 = gac_closure(net, box1)
            from gackit.model import is_restriction
            if not out1.inconsistent and not out2.inconsistent:
                assert is_restriction(out1.box, out2.box)
                again = gac_closure(net, out2.box)
                assert again.box == out2.box
            elif out2.inconsistent:
                assert out1.inconsistent  # monotone: smaller box also dies

    def test_up_equals_clause_network_closure(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(2, 6)
            variables = [bool_variable(i, f"x{i}") for i in range(1, n + 1)]
            clauses = []
            for _ in range(rng.randint(1, 5)):
                arity = rng.randint(1, min(3, n))
                vs = rng.sample(range(1, n + 1), arity)
                clauses.append([v if rng.random() < 0.5 else -v for v in vs])
            assumptions = [v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, n + 1), rng.randint(0, n))]
            f = CnfFormula(n, clauses)
            up = UnitPropagator(f).propagate(assumptions)

            net = Network(variables, [Clause(cl) for cl in clauses])
            box = net.initial_box()
            for lit in assumptions:
                box = box.assign(abs(lit), TRUE if lit > 0 else FALSE)
            closure = gac_closure(net, box)

            if up is None or closure.inconsistent:
                assert up is None and closure.inconsistent
                continue
            for v in range(1, n + 1):
                dom = closure.box.domain(v)
                if up[v] is not None:
                    assert dom == {TRUE if up[v] else FALSE}
                else:
                    assert dom == {FALSE, TRUE}
