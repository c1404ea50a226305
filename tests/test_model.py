"""Model layer: variables, boxes, the restriction order, satisfaction."""

import pytest
from hypothesis import given, strategies as st

from gackit.model import (
    FALSE, TRUE, AllDiff, Card, Clause, DomainBox, Neq, Network, Table,
    UsageError, Variable, Xor, bool_variable, is_restriction,
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
