"""Model layer: variables, boxes, the restriction order, satisfaction."""

import itertools

import pytest
from hypothesis import given, strategies as st

from gackit.model import (
    FALSE, RANGE_LIMIT, TRUE, AllDiff, Card, Clause, DomainBox, Neq, Network,
    ResourceError, Table, UsageError, Variable, Xor, bool_variable, is_restriction,
    range_variable, restrict, satisfies,
)


def bools(*names):
    return [bool_variable(i, n) for i, n in enumerate(names, 1)]


class TestVariables:
    def test_domain_sorted_and_deduped(self):
        v = Variable(1, "v", [3, 1, 2, 1])
        assert v.domain == (1, 2, 3)

    def test_empty_domain_rejected(self):
        with pytest.raises(UsageError):
            Variable(1, "v", [])

    def test_boolean_labels(self):
        a = bool_variable(1, "a")
        assert a.is_boolean
        assert a.label(FALSE) == "F" and a.label(TRUE) == "T"
        assert FALSE < TRUE

    def test_range_variable(self):
        x = range_variable(1, "X", 1, 3)
        assert x.domain == (1, 2, 3)
        with pytest.raises(UsageError):
            range_variable(2, "Y", 5, 4)

    def test_an_oversized_range_is_refused_before_it_is_built(self):
        with pytest.raises(ResourceError, match="^range domain 1..100000000000 for 'X' "
                                               "has more than 1048576 values$"):
            range_variable(1, "X", 1, 10**11)
        with pytest.raises(ResourceError):
            range_variable(1, "X", 0, RANGE_LIMIT)  # one value over the limit


class TestDomainBox:
    def test_empty_domain_normalizes_to_canonical_inconsistent(self):
        one = DomainBox({1: [], 2: [1, 2]})
        other = DomainBox({7: []})
        assert one.inconsistent and other.inconsistent
        assert one == other == DomainBox.bottom()

    def test_restrict_intersects(self):
        a, = bools("a")
        box = DomainBox.from_variables([a])
        out = restrict(box, 1, [TRUE])
        assert out.domain(1) == {TRUE}
        assert box.domain(1) == {FALSE, TRUE}  # input untouched

    def test_restrict_to_empty_goes_inconsistent(self):
        a, = bools("a")
        box = restrict(DomainBox.from_variables([a]), 1, [TRUE])
        out = restrict(box, 1, [FALSE])
        assert out.inconsistent

    def test_restrict_int_domain(self):
        x = range_variable(1, "A", 1, 3)
        out = restrict(DomainBox.from_variables([x]), 1, [1, 2])
        assert out.domain(1) == {1, 2}

    def test_restrict_unknown_var(self):
        a, = bools("a")
        with pytest.raises(UsageError):
            restrict(DomainBox.from_variables([a]), 9, [TRUE])


class TestIsRestriction:
    def test_reflexive(self):
        box = DomainBox({1: [FALSE, TRUE], 2: [TRUE]})
        assert is_restriction(box, box)

    def test_singleton_under_full(self):
        d = DomainBox({1: [TRUE]})
        k = DomainBox({1: [TRUE, FALSE]})
        assert is_restriction(d, k)
        assert not is_restriction(k, d)

    def test_mismatched_vars_is_usage_error(self):
        with pytest.raises(UsageError):
            is_restriction(DomainBox({1: [1]}), DomainBox({2: [1]}))

    def test_bottom_is_unique_minimum(self):
        box = DomainBox({1: [TRUE]})
        assert is_restriction(DomainBox.bottom(), box)
        assert not is_restriction(box, DomainBox.bottom())
        assert is_restriction(DomainBox.bottom(), DomainBox.bottom())


# random boxes over a fixed three-variable universe
_DOMAINS = {1: (0, 1), 2: (1, 2, 3), 3: (0, 1, 2)}


@st.composite
def boxes(draw):
    doms = {}
    for vid, dom in _DOMAINS.items():
        subset = draw(st.sets(st.sampled_from(dom), min_size=1))
        doms[vid] = subset
    return DomainBox(doms)


class TestRestrictionOrderLaws:
    @given(boxes())
    def test_reflexivity(self, b):
        assert is_restriction(b, b)

    @given(boxes(), boxes())
    def test_antisymmetry(self, b1, b2):
        if is_restriction(b1, b2) and is_restriction(b2, b1):
            assert b1 == b2

    @given(boxes(), boxes(), boxes())
    def test_transitivity(self, b1, b2, b3):
        if is_restriction(b1, b2) and is_restriction(b2, b3):
            assert is_restriction(b1, b3)

    @given(boxes(), st.sampled_from(sorted(_DOMAINS)), st.data())
    def test_restrict_is_monotone(self, b, vid, data):
        values = data.draw(st.sets(st.sampled_from(_DOMAINS[vid])))
        out = restrict(b, vid, values)
        assert is_restriction(out, b)


class TestSatisfies:
    def test_clause_false_under_falsifying_assignment(self):
        a, b, c = bools("a", "b", "c")
        clause = Clause([1, -2, 3])
        box = DomainBox({1: [FALSE], 2: [TRUE], 3: [FALSE]})
        assert satisfies(clause, box) is False

    def test_alldiff_equal_values(self):
        box = DomainBox({1: [1], 2: [1]})
        assert satisfies(AllDiff([1, 2]), box) is False

    def test_card_within_bounds(self):
        box = DomainBox({1: [TRUE], 2: [FALSE], 3: [TRUE]})
        assert satisfies(Card([1, 2, 3], 1, 2), box) is True

    def test_requires_singletons(self):
        a, b = bools("a", "b")
        box = DomainBox.from_variables([a, b])
        with pytest.raises(UsageError):
            satisfies(Clause([1, 2]), box)

    def test_xor_parity(self):
        box = DomainBox({1: [TRUE], 2: [TRUE], 3: [FALSE]})
        assert satisfies(Xor([1, 2, 3], 0), box) is True
        assert satisfies(Xor([1, 2, 3], 1), box) is False

    def test_neq_and_table(self):
        box = DomainBox({1: [1], 2: [2]})
        assert satisfies(Neq(1, 2), box) is True
        assert satisfies(Table([1, 2], [(1, 1), (2, 2)]), box) is False


    def test_literal_accepts_counts_as_the_literal_by_literal_sum(self):
        # Every literal list of up to 4 literals over 3 variables, negations
        # and repeated variables included (`card 1 1 x x y`), under every
        # exact count, both parities and the clause, on every assignment of
        # the scope, against the count taken one literal at a time.
        lits_of = [l for v in (1, 2, 3) for l in (v, -v)]
        for size in range(5):
            for lits in itertools.product(lits_of, repeat=size):
                constraints = [Card(lits, k, k) for k in range(size + 1)]
                constraints += [Xor(lits, 0), Xor(lits, 1)] + ([Clause(lits)] if lits else [])
                scope = constraints[0].scope
                for values in itertools.product((FALSE, TRUE), repeat=len(scope)):
                    at = dict(zip(scope, values))
                    k = sum(at[abs(l)] == (TRUE if l > 0 else FALSE) for l in lits)
                    for c in constraints:
                        assert c.accepts(values) == bool(c.allowed >> k & 1), (c, values)
                        assert c.accepts(list(values)) == c.accepts(values)


def scanned_solutions(c, doms):
    return [s for s in itertools.product(*doms) if c.accepts(s)]


# each position's domain: distinct values of 0..5, ascending
_doms = st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True).map(sorted),
                 max_size=5)


class TestSolutions:
    """`solutions` is the scan over the domain product, in its order."""

    @given(_doms)
    def test_alldiff_builds_the_scan(self, doms):
        c = AllDiff(range(1, len(doms) + 1))
        assert c.solutions(doms) == scanned_solutions(c, doms)

    @given(_doms, st.data())
    def test_table_lists_the_scan(self, doms, data):
        # rows may hold values outside the domains
        row = st.tuples(*(st.integers(0, 6) for _ in doms))
        c = Table(range(1, len(doms) + 1), data.draw(st.lists(row, max_size=8)))
        assert c.solutions(doms) == scanned_solutions(c, doms)

    def test_shapes(self):
        hall = [range(1, 6)] * 5 + [range(1, 7)]
        for c, doms in [
                (AllDiff([]), []), (Table([], []), []), (Table([], [()]), []),
                (AllDiff([1, 2, 3]), [(4,), (2,), (4,)]),  # singletons, one clash
                (AllDiff([1, 2, 3]), [(1,), (2,), (3,)]),
                (AllDiff(range(1, 5)), [range(3 * i, 3 * i + 3) for i in range(4)]),  # disjoint
                (AllDiff(range(1, 5)), [range(1, 5)] * 4),  # equal: the 24 permutations
                (AllDiff(range(1, 5)), [range(1, 4)] * 4),  # pigeonhole: none
                (AllDiff(range(1, 7)), hall),
                (Table([1, 2], []), [(1, 2), (1, 2)]),
                (Table([1, 2], [(3, 1), (2, 1), (1, 9), (1, 2)]), [(1, 2, 3), (1, 2)]),
                (Neq(1, 2), [(1, 2, 3), (1, 2, 3)]), (Neq(1, 2), [(1,), (1,)])]:
            assert c.solutions(doms) == scanned_solutions(c, doms), (c, doms)
        assert len(AllDiff(range(1, 7)).solutions(hall)) == 120

    def test_repeated_variables_keep_the_scan(self):
        lits_of = [l for v in (1, 2) for l in (v, -v)]
        for size in range(2, 5):
            for lits in itertools.product(lits_of, repeat=size):
                doms = [(FALSE, TRUE)] * len({abs(l) for l in lits})
                for c in [Card(lits, k, k) for k in range(size + 1)] + [
                        Xor(lits, 0), Xor(lits, 1), Clause(lits)]:
                    assert c.solutions(doms) == scanned_solutions(c, doms), c


class TestNetworkValidation:
    def test_undeclared_scope_rejected(self):
        a, = bools("a")
        with pytest.raises(UsageError):
            Network([a], [Clause([1, 2])])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(UsageError):
            Network([bool_variable(1, "a"), bool_variable(1, "b")], [])

    def test_clause_needs_boolean_scope(self):
        x = range_variable(1, "X", 1, 3)
        with pytest.raises(UsageError):
            Network([x], [Clause([1])])

    def test_card_bounds_validated(self):
        with pytest.raises(UsageError):
            Card([1, 2], 2, 1)
        with pytest.raises(UsageError):
            Card([1, 2], 0, 3)

    def test_table_values_must_be_in_domain(self):
        x = range_variable(1, "X", 1, 2)
        y = range_variable(2, "Y", 1, 2)
        with pytest.raises(UsageError):
            Network([x, y], [Table([1, 2], [(1, 9)])])
