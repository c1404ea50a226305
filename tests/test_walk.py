"""The knowledge-state walk of `check_gac_reduction` and `check_soundness`:
the constant-time count test that stands in for the source filter, the
target engine's reuse of the prefix it shares with its last call, and the
verdicts of the walk against a plain copy of the state-by-state loop."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gackit.model import (
    FALSE, TRUE, AllDiff, Card, ChannelMap, Clause, DomainBox, Neq, Network,
    ResourceError, Xor, bool_variable, is_restriction, map_knowledge,
    range_variable,
)
from gackit.propagation import (
    UnitPropagator, fixpoint_counts, gac_closure, gac_filter, gac_oracle,
    solve_brute_force,
)
from gackit.encoders import build_encoding
from gackit.gac_check import (
    ASSIGNMENT_STYLE, COMPLETENESS_GAP, FULL_SUBDOMAINS, RANDOM_SAMPLE,
    SOUNDNESS_VIOLATION, Counterexample, EnumerationPolicy, Verdict,
    _Target, _knowledge_walk, _target_box, _unchanged_test, auto_policy,
    check_gac_reduction, check_soundness, enumerate_knowledge_states,
)
from gackit.classify import _instances, default_config


def filter_hands_back(c, box):
    r = gac_filter(c, box)
    return not r.inconsistent and r.box is box


def polarities(c):
    """c with all literals positive, all negated, and every other negated."""
    lits = [abs(lit) for lit in c.lits]
    for signs in ([1] * len(lits), [-1] * len(lits), [(-1) ** i for i in range(len(lits))]):
        flipped = [s * lit for s, lit in zip(signs, lits)]
        yield (Card(flipped, c.lo, c.hi) if isinstance(c, Card)
               else Xor(flipped, c.parity) if isinstance(c, Xor) else Clause(flipped))


def bundled_instances():
    config = default_config()
    for job in config["jobs"]:
        for size in job["sizes"]:
            for c, variables in _instances(job["family"], size):
                yield c, variables, auto_policy(variables, config["seed"], config["max_states"])
    for size in range(1, 7):  # card under every polarity, every (lo, hi)
        for c, variables in _instances("card", size):
            for flipped in polarities(c):
                yield flipped, variables, auto_policy(variables)


def test_count_test_equals_the_filter_on_every_bundled_state():
    kinds = set()
    for c, variables, policy in bundled_instances():
        unchanged = _unchanged_test(c, variables)
        assert (unchanged is None) == (not isinstance(c, (Card, Xor, Clause))), c
        if unchanged is None:
            continue
        kinds.add(c.kind())
        vids = [var.id for var in variables]
        for p, state in _knowledge_walk(variables, policy):
            knowledge = DomainBox._raw(dict(zip(vids, state)))
            assert unchanged(p, state) == filter_hands_back(c, knowledge), (c, knowledge)
    assert kinds == {"card", "xor", "clause"}


def test_count_test_on_sampled_states_with_unscoped_variables():
    # samples build fresh subdomains, and x5 lies outside every scope
    variables = [bool_variable(i, f"x{i}") for i in range(1, 6)]
    policy = EnumerationPolicy(RANDOM_SAMPLE, sample_count=400, seed=3)
    vids = [var.id for var in variables]
    for c in (Card([1, -2, 3, -4], 1, 2), Xor([-1, 2, 4], 0), Clause([2, -3])):
        unchanged = _unchanged_test(c, variables)
        for p, state in _knowledge_walk(variables, policy):
            knowledge = DomainBox._raw(dict(zip(vids, state)))
            assert unchanged(p, state) == filter_hands_back(c, knowledge), (c, knowledge)


@st.composite
def literal_constraints(draw, distinct):
    n = draw(st.integers(1 if distinct else 2, 8))
    if distinct:
        vars_ = draw(st.permutations(range(1, n + 1)))[:draw(st.integers(0, n))]
    else:  # at least one variable twice, with either sign
        vars_ = draw(st.lists(st.integers(1, n), min_size=2, max_size=8))
        vars_.append(vars_[draw(st.integers(0, len(vars_) - 1))])
    lits = [v if draw(st.booleans()) else -v for v in vars_]
    kind = draw(st.sampled_from(["card", "xor", "clause"]))
    if kind == "card":
        lo = draw(st.integers(0, len(lits)))
        return Card(lits, lo, draw(st.integers(lo, len(lits)))), n
    return (Xor(lits, draw(st.integers(0, 1))) if kind == "xor" else Clause(lits)), n


def boxes(n):
    return st.fixed_dictionaries({vid: st.sampled_from([[FALSE], [TRUE], [FALSE, TRUE]])
                                  for vid in range(1, n + 1)}).map(DomainBox)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_count_test_equals_the_filter_on_random_boxes(data):
    c, n = data.draw(literal_constraints(distinct=True))
    box = data.draw(boxes(n))
    count, holds = fixpoint_counts(c)
    total = sum(count(lit, box.domain(abs(lit))) for lit in c.lits)
    assert holds(total) == filter_hands_back(c, box)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_repeated_variables_take_the_generic_path(data):
    c, n = data.draw(literal_constraints(distinct=False))
    variables = [bool_variable(i, f"x{i}") for i in range(1, n + 1)]
    assert fixpoint_counts(c) is None and _unchanged_test(c, variables) is None
    box = data.draw(boxes(n))
    got, want = gac_filter(c, box), gac_oracle(c, box)
    assert got.inconsistent == want.inconsistent
    if not got.inconsistent:
        assert got.box == want.box
        assert (got.box is box) == (want.box is box)


# --- the walk against the state-by-state loop --------------------------------

def plain_states(variables, policy):
    """Knowledge states as `enumerate_knowledge_states` made them before the
    walk: `itertools.product` of the subdomain lists, or one box per sample."""
    vids = [v.id for v in variables]
    if policy.mode == RANDOM_SAMPLE:
        rng = random.Random(policy.seed)
        for _ in range(policy.sample_count):
            yield DomainBox({vid: _sampled(rng, var.domain)
                             for vid, var in zip(vids, variables)})
        return
    options = []
    for var in variables:
        dom = var.domain
        if policy.mode == FULL_SUBDOMAINS:
            options.append([frozenset(val for i, val in enumerate(dom) if mask >> i & 1)
                            for mask in range(1, 2 ** len(dom))])
        else:
            options.append([frozenset(dom)] + [frozenset((val,)) for val in dom])
    for combo in itertools.product(*options):
        yield DomainBox(dict(zip(vids, combo)))


def _sampled(rng, dom):
    mask = rng.randrange(1, 2 ** len(dom))
    return frozenset(val for i, val in enumerate(dom) if mask >> i & 1)


def plain_map_back(channel, payload, knowledge):
    if payload is None:
        return DomainBox.bottom()
    domains = {}
    for var in channel.source_vars:
        keep = set()
        for value in knowledge.domain(var.id):
            image = channel.forward[(var.id, value)]
            if channel.kind == ChannelMap.CNF:
                if payload[abs(image)] in (None, image > 0):
                    keep.add(value)
            elif image[1] in payload.domain(image[0]):
                keep.add(value)
        domains[var.id] = keep
    return DomainBox(domains)


def plain_verdict(check, source, enc, policy):
    """Every state: filter the source, propagate the mapped knowledge from
    scratch on the target, map back and judge."""
    svars, channel, target = enc.channel.source_vars, enc.channel, enc.target
    network = isinstance(source, Network)

    def deduce_source(box):
        return gac_closure(source, box) if network else gac_filter(source, box)

    def deduce_back(k):
        mapped = map_knowledge(channel, k)
        if isinstance(target, Network):
            res = gac_closure(target, _target_box(target, mapped))
            return plain_map_back(channel, None if res.inconsistent else res.box, k)
        return plain_map_back(channel, UnitPropagator(target).propagate(mapped), k)

    def extends(k):
        return not network or solve_brute_force(source, k).sat

    ces, count = [], 0
    for k in plain_states(svars, policy):
        count += 1
        res = deduce_source(k)
        if check == "gac-reduction":
            src = DomainBox.bottom() if res.inconsistent else res.box
            back = deduce_back(k)
            if not is_restriction(back, src):
                ces.append(Counterexample(COMPLETENESS_GAP, k, src, back))
        elif not res.inconsistent:
            back = deduce_back(k)
            if back.inconsistent:
                violated = extends(k)
            else:
                violated = any(extends(k.assign(var.id, value)) for var in svars
                               for value in res.box.domain(var.id) - back.domain(var.id))
            if violated:
                ces.append(Counterexample(SOUNDNESS_VIOLATION, k, res.box, back))
    return Verdict(count, ces, policy.mode, check, svars)


def bools(n):
    return [bool_variable(i, f"x{i}") for i in range(1, n + 1)]


WALK_CASES = [
    pytest.param(Card([1, 2, 3, 4], 1, 2), bools(4), "totalizer", id="card-totalizer"),
    pytest.param(Card([1, -2, 3, -4], 1, 2), bools(4), "binary-adder", id="card-binary-adder"),
    pytest.param(Card([1, 2], 1, 1), bools(3), "totalizer", id="card-unscoped-variable"),
    pytest.param(Card([1, 1, -2], 1, 2), bools(2), "totalizer", id="card-repeated"),
    pytest.param(Xor([1, -2, 3], 1), bools(3), "xor-direct", id="xor"),
    pytest.param(Xor([1, 1, 2, -3], 0), bools(3), "xor-direct", id="xor-repeated"),
    pytest.param(Clause([1, -2, 3]), bools(3), "clause-to-neq:non-gac", id="clause-network"),
    pytest.param(*_instances("alldiff", 3)[0], "alldiff-pairwise", id="alldiff"),
    pytest.param(Neq(1, 2), [range_variable(1, "A", 1, 1), range_variable(2, "B", 1, 2)],
                 "neq:pairwise", id="single-value-domain"),
    pytest.param(AllDiff([1, 2, 3]), [range_variable(1, "A", 1, 1), range_variable(2, "B", 1, 2),
                                      range_variable(3, "C", 2, 2)],
                 "identity", id="single-value-identity"),
    pytest.param(Xor([], 1), [], "xor-direct", id="no-source-variables"),
    pytest.param(Clause([]), [], "identity", id="no-source-variables-network"),
]

POLICIES = [
    pytest.param(EnumerationPolicy(FULL_SUBDOMAINS), id="full"),
    pytest.param(EnumerationPolicy(ASSIGNMENT_STYLE), id="assignment"),
    pytest.param(EnumerationPolicy(RANDOM_SAMPLE, sample_count=500, seed=42), id="sample500"),
]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("source, variables, encoding", WALK_CASES)
@pytest.mark.parametrize("checker", [check_gac_reduction, check_soundness])
def test_walk_equals_the_plain_loop(checker, source, variables, encoding, policy):
    enc = build_encoding(encoding, source, variables)
    want = plain_verdict("gac-reduction" if checker is check_gac_reduction else "soundness",
                         source, enc, policy)
    assert checker(source, enc, policy).to_json() == want.to_json()


@pytest.mark.parametrize("checker", [check_gac_reduction, check_soundness])
def test_walk_equals_the_plain_loop_when_samples_repeat(checker):
    # two Booleans have 9 states, so 60 samples repeat some state back to
    # back: the walk then redoes no depth at all
    source, variables = Card([1, -2], 1, 1), bools(2)
    policy = EnumerationPolicy(RANDOM_SAMPLE, sample_count=60, seed=1)
    repeats = sum(p == 2 for p, _ in _knowledge_walk(variables, policy))
    assert repeats > 0
    for encoding in ("totalizer", "binary-adder"):
        enc = build_encoding(encoding, source, variables)
        want = plain_verdict("gac-reduction" if checker is check_gac_reduction
                             else "soundness", source, enc, policy)
        assert checker(source, enc, policy).to_json() == want.to_json()


def test_walk_order_is_the_product_order():
    variables = [bool_variable(1, "a"), range_variable(2, "B", 1, 3), bool_variable(3, "c")]
    for mode in (FULL_SUBDOMAINS, ASSIGNMENT_STYLE):
        policy = EnumerationPolicy(mode)
        steps = [(p, list(state)) for p, state in _knowledge_walk(variables, policy)]
        want = [DomainBox(box.domains()) for box in plain_states(variables, policy)]
        assert [DomainBox(dict(zip((1, 2, 3), s))) for _, s in steps] == want
        assert list(enumerate_knowledge_states(variables, policy)) == want
        prev = None  # p is the first position that changed
        for p, state in steps:
            if prev is not None:
                assert prev[:p] == state[:p] and prev[p] != state[p]
            prev = state


@pytest.mark.parametrize("checker", [check_gac_reduction, check_soundness])
def test_too_small_a_budget_raises(checker):
    source, variables = Card([1, 2, 3, 4], 1, 2), bools(4)
    policy = EnumerationPolicy(FULL_SUBDOMAINS, max_states=80)  # 3**4 = 81 states
    with pytest.raises(ResourceError):
        checker(source, build_encoding("totalizer", source, variables), policy)


# --- the target engine against a fresh engine per state ----------------------

ENGINE_CASES = [
    pytest.param(Card([1, -2, 3], 1, 2), bools(3), "totalizer", id="cnf-totalizer"),
    pytest.param(Card([1, 2, 3], 1, 1), bools(3), "binary-adder", id="cnf-binary-adder"),
    pytest.param(*_instances("alldiff", 3)[0], "alldiff-pairwise", id="cnf-one-hot"),
    pytest.param(Clause([1, -2, 3]), bools(3), "clause-to-neq:non-gac", id="network-clause"),
    pytest.param(*_instances("alldiff", 3)[0], "identity", id="network-identity"),
]


@pytest.mark.parametrize("source, variables, encoding", ENGINE_CASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_target_reuse_equals_a_fresh_target_per_state(source, variables, encoding, data):
    # One engine sees a sequence of states in one list changed in place, as
    # the walk passes them: a suffix or every position redrawn (jumping back
    # or forward), the same objects again, or equal subdomains that are
    # other objects. Each answer must be a fresh engine's on that state.
    enc = build_encoding(encoding, source, variables)
    options = [[frozenset(sub) for r in range(1, len(var.domain) + 1)
                for sub in itertools.combinations(var.domain, r)] for var in variables]
    vids, n = [var.id for var in variables], len(variables)
    engine, state = _Target(enc), [opts[-1] for opts in options]
    for _ in range(data.draw(st.integers(1, 12))):
        move = data.draw(st.sampled_from(["redraw", "repeat", "copies"]))
        if move == "redraw":
            for d in range(data.draw(st.integers(0, n - 1)), n):
                state[d] = data.draw(st.sampled_from(options[d]))
        elif move == "copies":
            for d in range(n):
                if data.draw(st.booleans()):
                    state[d] = frozenset(list(state[d]))
        if data.draw(st.booleans()):
            knowledge = DomainBox._raw(dict(zip(vids, state)))
            assert engine.deduce_back(knowledge) == _Target(enc).deduce_back(knowledge)
        else:
            assert engine.refuted_depth(state) == _Target(enc).refuted_depth(state)
