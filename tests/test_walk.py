"""The knowledge-state walk of `check_gac_reduction` and `check_soundness`:
the odometer and the masks that confine it, the target engine's reuse of
the prefix it shares with its last call, the verdicts of the walk against
a plain copy of the state-by-state loop, the certificate of maximal states
against an enumeration oracle and, on broken encodings, against the plain
loop, the confined walk that a failing certificate leaves, and the
soundness certificate on the walk over complete assignments against the
whole judge of every accepted assignment."""

import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from gackit import gac_check
from gackit.model import (
    FALSE, TRUE, AllDiff, Card, ChannelMap, Clause, DomainBox, Neq, Network,
    ResourceError, Table, UsageError, Xor, bool_variable, is_restriction, map_knowledge,
    range_variable,
)
from gackit.propagation import (
    CnfFormula, UnitPropagator, gac_closure, gac_filter, gac_oracle,
)
from gackit.encoders import ENCODING_NAMES, Encoding, build_encoding
from gackit.gac_check import (
    ASSIGNMENT_STYLE, COMPLETENESS_GAP, FULL_SUBDOMAINS, RANDOM_SAMPLE,
    SOUNDNESS_VIOLATION, Counterexample, EnumerationPolicy, Verdict,
    _Target, _knowledge_walk, _maximal_states, _odometer, _target_box,
    check_gac_reduction, check_soundness, enumerate_knowledge_states,
)
from gackit.classify import _instances
from textdiff import assert_same_text


@st.composite
def repeated_literal_constraints(draw):
    n = draw(st.integers(2, 8))
    # at least one variable twice, with either sign
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
def test_repeated_variables_take_the_generic_path(data):
    c, n = data.draw(repeated_literal_constraints())
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
    scratch on the target, map back and judge. Soundness is judged value by
    value: a violation is a value the target removes that still extends to
    a source solution inside the state, as `gac_oracle` finds it."""
    svars, channel, target = enc.channel.source_vars, enc.channel, enc.target

    def deduce_back(k):
        mapped = map_knowledge(channel, k)
        if isinstance(target, Network):
            res = gac_closure(target, _target_box(target, mapped))
            return plain_map_back(channel, None if res.inconsistent else res.box, k)
        return plain_map_back(channel, UnitPropagator(target).propagate(mapped), k)

    def extends(k):
        return not gac_oracle(source, k).inconsistent

    ces, count = [], 0
    for k in plain_states(svars, policy):
        count += 1
        res = gac_filter(source, k)
        if check == "gac-reduction":
            back = deduce_back(k)
            if not is_restriction(back, res.box):
                ces.append(Counterexample(COMPLETENESS_GAP, k, res.box, back))
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
    assert_same_text(checker(source, enc, policy).to_json(), want.to_json())


@pytest.mark.parametrize("policy", POLICIES)
def test_soundness_walk_equals_the_plain_loop_on_unsound_targets(policy):
    # the totalizer with a unit clause added over each channel literal: the
    # target then removes values that extend to source solutions, or
    # refutes a state the source does not
    source, variables = Card([1, -2, 3], 1, 2), bools(3)
    enc = build_encoding("totalizer", source, variables)
    kinds = set()  # whether a violation's mapped-back deduction is bottom
    for lit in enc.channel.forward.values():
        unsound = Encoding(CnfFormula(enc.target.num_vars, enc.target.clauses + [(lit,)]),
                           enc.channel)
        want = plain_verdict("soundness", source, unsound, policy)
        assert_same_text(check_soundness(source, unsound, policy).to_json(), want.to_json())
        kinds.update(ce.deduced_back.inconsistent for ce in want.counterexamples)
    assert kinds == {False, True}


@pytest.mark.parametrize("checker", [check_gac_reduction, check_soundness])
def test_walk_equals_the_plain_loop_when_samples_repeat(checker):
    # two Booleans have 9 states, so 60 samples repeat some state back to
    # back; the target engine then meets equal subdomains that are other
    # objects
    source, variables = Card([1, -2], 1, 1), bools(2)
    policy = EnumerationPolicy(RANDOM_SAMPLE, sample_count=60, seed=1)
    states = [state for _, state in _knowledge_walk(variables, policy)]
    assert sum(a == b for a, b in zip(states, states[1:])) > 0
    for encoding in ("totalizer", "binary-adder"):
        enc = build_encoding(encoding, source, variables)
        want = plain_verdict("gac-reduction" if checker is check_gac_reduction
                             else "soundness", source, enc, policy)
        assert_same_text(checker(source, enc, policy).to_json(), want.to_json())


def test_samples_are_new_lists_at_depth_zero():
    # the seeded stream of states is the one `plain_states` draws; each
    # sample is a list of its own, and no sample reports a shared prefix
    variables = [bool_variable(1, "a"), range_variable(2, "B", 1, 3), bool_variable(3, "c")]
    policy = EnumerationPolicy(RANDOM_SAMPLE, sample_count=50, seed=3)
    steps = list(_knowledge_walk(variables, policy))
    assert all(p == 0 for p, _ in steps)
    assert len({id(state) for _, state in steps}) == len(steps)
    assert [DomainBox(dict(zip((1, 2, 3), state))) for _, state in steps] == \
        list(plain_states(variables, policy))


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


def bundled_encodings():
    """Every named encoding over the first bundled instance at size 3 of
    each family it fits."""
    families = ("card", "exactly-one", "neq", "alldiff", "xor", "clause")
    for name in ENCODING_NAMES:
        for family in families:
            source, variables = _instances(family, 3)[0]
            try:
                yield name, build_encoding(name, source, variables)
            except UsageError:
                continue


def random_payload(rng, enc):
    """A target deduction that need not follow from any state: each CNF
    variable True, False or open, each network domain a random subset."""
    target = enc.target
    if isinstance(target, CnfFormula):
        return [None] + [rng.choice((True, False, None)) for _ in range(target.num_vars)]
    return DomainBox({var.id: [val for val in var.domain if rng.random() < 0.7]
                      or [var.domain[0]] for var in target.variables})


def as_masks(rng, values):
    """`map_back`'s CNF payload for the values list of `propagate`: the
    state is a random bit i of 8, and the other bits of every literal's
    mask are random, since a state must read only its own bit."""
    if values is None:
        return None
    bit = 1 << rng.randrange(8)
    true = [rng.getrandbits(8) & ~bit for _ in range(2 * len(values) - 1)]
    for v, value in enumerate(values[1:], 1):
        if value is not None:
            true[v if value else -v] |= bit
    return true, bit


def test_map_back_reads_the_channel_tables_as_the_plain_map_back():
    # map_back reads each value's image from `ChannelMap.backs`, built
    # once per channel; plain_map_back reads `forward` image by image
    rng = random.Random(11)
    names, kinds, negative, refuted = set(), set(), False, 0
    for name, enc in bundled_encodings():
        channel, target = enc.channel, enc.target
        names.add(name)
        kinds.add(channel.kind)
        negative |= channel.kind == ChannelMap.CNF and any(
            image < 0 for image in channel.forward.values())
        for _ in range(40):
            doms = [frozenset(rng.sample(var.domain, rng.randint(1, len(var.domain))))
                    for var in channel.source_vars]
            knowledge = DomainBox(dict(zip((var.id for var in channel.source_vars), doms)))
            mapped = map_knowledge(channel, knowledge)
            if isinstance(target, Network):
                res = gac_closure(target, _target_box(target, mapped))
                deduced = None if res.inconsistent else res.box
            else:
                deduced = UnitPropagator(target).propagate(mapped)
            for payload in (deduced, random_payload(rng, enc)):
                got = gac_check.map_back(channel, payload if isinstance(target, Network)
                                         else as_masks(rng, payload), doms)
                assert got == plain_map_back(channel, payload, knowledge), (name, doms)
                refuted += got != knowledge
    assert names == set(ENCODING_NAMES)
    assert kinds == {ChannelMap.CNF, ChannelMap.NETWORK} and negative and refuted


def carry_odometer(options):
    """The odometer before masks: one carry over mixed-radix digits."""
    n = len(options)
    last = [len(opts) - 1 for opts in options]
    digits = [0] * n
    state = [opts[0] for opts in options]
    p = 0
    while True:
        yield p, state
        p = n - 1
        while p >= 0 and digits[p] == last[p]:
            digits[p] = 0
            state[p] = options[p][0]
            p -= 1
        if p < 0:
            return
        digits[p] += 1
        state[p] = options[p][digits[p]]


def filtered_product(options, masks):
    """`(p, state)` for each state of `itertools.product` whose options'
    masks AND to non-zero, p the first position where it differs from the
    state before it in this list."""
    steps, prev = [], None
    for combo in itertools.product(*(range(len(opts)) for opts in options)):
        if functools.reduce(operator.and_, (ms[i] for ms, i in zip(masks, combo)), -1):
            state = [opts[i] for opts, i in zip(options, combo)]
            p = 0 if prev is None else next(d for d, (a, b) in enumerate(zip(prev, state))
                                             if a != b)
            steps.append((p, state))
            prev = state
    return steps


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_masked_odometer_is_the_filtered_product(data):
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    options = [[f"{d}:{i}" for i in range(size)] for d, size in enumerate(sizes)]
    masks = [[data.draw(st.integers(0, 15)) for _ in opts] for opts in options]
    got = [(p, list(state)) for p, state in _odometer(options, masks)]
    assert got == filtered_product(options, masks)
    unmasked = [(p, list(state)) for p, state in _odometer(options)]
    assert unmasked == [(p, list(state)) for p, state in carry_odometer(options)]
    assert unmasked == filtered_product(options, [[-1] * size for size in sizes])


def test_the_odometer_over_no_positions_yields_one_empty_state():
    assert list(_odometer([])) == list(_odometer([], [])) == [(0, [])]
    assert list(carry_odometer([])) == [(0, [])]


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
    # other objects. Each `refuted_depth` call is given a depth p before
    # which no position was redrawn since the last such call, anywhere from
    # 0 to the first redrawn one; `deduce_back` follows no walk, and judges
    # a copy of the state. Each answer must be a fresh engine's on that
    # state.
    enc = build_encoding(encoding, source, variables)
    options = [[frozenset(sub) for r in range(1, len(var.domain) + 1)
                for sub in itertools.combinations(var.domain, r)] for var in variables]
    n = len(variables)
    engine, state = _Target(enc), [opts[-1] for opts in options]
    redrawn = 0  # the first position redrawn since the last `refuted_depth` call
    for _ in range(data.draw(st.integers(1, 12))):
        move = data.draw(st.sampled_from(["redraw", "repeat", "copies"]))
        if move == "redraw":
            start = data.draw(st.integers(0, n - 1))
            redrawn = min(redrawn, start)
            for d in range(start, n):
                state[d] = data.draw(st.sampled_from(options[d]))
        elif move == "copies":
            for d in range(n):
                if data.draw(st.booleans()):
                    state[d] = frozenset(list(state[d]))
        if data.draw(st.booleans()):
            assert engine.deduce_back([list(state)]) == _Target(enc).deduce_back([list(state)])
        else:
            p = data.draw(st.integers(0, redrawn))
            assert engine.refuted_depth(p, state) == _Target(enc).refuted_depth(0, state)
            redrawn = n


def test_a_conflict_inside_a_depth_is_forgotten_before_a_longer_shared_prefix():
    # Hall n=4 under alldiff-pairwise: X1 := 1 makes literal 4 false, and
    # X2 := 1 maps to (-5, -6, 4), whose second literal conflicts, inside
    # depth 1. The next state changes X4 only, so it shares three
    # subdomains with the last, one more than the literals that held.
    source, variables = _instances("alldiff", 4)[0]
    enc = build_encoding("alldiff-pairwise", source, variables)
    one, full = frozenset((1,)), [frozenset(var.domain) for var in variables]
    engine = _Target(enc)
    state = [one, one, full[2], full[3]]
    assert engine.deduce_back([state])[0].inconsistent
    assert engine.refuted_depth(0, state) == 2
    assert enc.channel.image(1, one) == (-5, -6, 4) and engine.prop.assumed == [-2, -3, 1, -5]
    state[3] = frozenset((4,))
    assert engine.refuted_depth(3, state) == _Target(enc).refuted_depth(0, state) == 2
    state[0] = state[1] = frozenset((2,))
    assert engine.refuted_depth(0, state) == _Target(enc).refuted_depth(0, state)
    assert engine.deduce_back([state]) == _Target(enc).deduce_back([state])
    policy = EnumerationPolicy(ASSIGNMENT_STYLE)
    assert_same_text(check_gac_reduction(source, enc, policy).to_json(),
                     plain_verdict("gac-reduction", source, enc, policy).to_json())


# --- the certificate against its oracle and against the walk -----------------

def distinct_literal_sources(vids):
    """Every Card bound, both Xor parities and the Clause over every list of
    distinct literals on `vids`, one list per subset and sign pattern."""
    for k in range(len(vids) + 1):
        for chosen in itertools.combinations(vids, k):
            for signs in itertools.product((1, -1), repeat=k):
                lits = [s * v for s, v in zip(signs, chosen)]
                yield from (Card(lits, lo, hi) for lo in range(k + 1) for hi in range(lo, k + 1))
                yield from (Xor(lits, 0), Xor(lits, 1), Clause(lits))


def true_maximal_states(source, variables, mode):
    """By enumeration over the walk of the exhaustive policy `mode`: every
    state that is maximal for some channel value (x, v) having no support,
    i.e. v lies in K(x), the source removes it, and every one-step
    enlargement gives it support; where the channel holds a variable
    outside the scope, or the scope is empty, every inconsistent state
    whose one-step enlargements are all consistent as well; and the set of
    walk states where the source deduces something. A one-step enlargement
    frees one assigned variable in assignment style and adds back one value
    over full subdomains."""
    vids = [var.id for var in variables]
    full = [frozenset(var.domain) for var in variables]
    states = {tuple(state) for _, state in _knowledge_walk(variables, EnumerationPolicy(mode))}

    def enlargements(state):
        for d, dom in enumerate(state):
            grown = ([full[d]] if dom != full[d] else []) if mode == ASSIGNMENT_STYLE \
                else [dom | {v} for v in full[d] - dom]
            yield from (state[:d] + (g,) + state[d + 1:] for g in grown)

    unsupported, deducing, inconsistent = {}, set(), set()
    for state in states:
        knowledge = DomainBox._raw(dict(zip(vids, state)))
        src = gac_filter(source, knowledge).box
        if src is not knowledge:
            deducing.add(state)
        if src.inconsistent:
            inconsistent.add(state)
        unsupported[state] = {(d, v) for d, dom in enumerate(state) for v in dom
                              if src.inconsistent or v not in src.domain(vids[d])}
    outside = not source.scope or not set(vids) <= set(source.scope)
    maximal = set()
    for state in states:
        grown = list(enlargements(state))
        if any(all(xv not in unsupported[e] for e in grown) for xv in unsupported[state]):
            maximal.add(state)
        if outside and state in inconsistent and inconsistent.isdisjoint(grown):
            maximal.add(state)
    return maximal, deducing


def assert_certificate_is_exact(source, variables, mode):
    """The certificate of `source` over `variables` under `mode` is the
    true maximal set, without repeats, as walk states where the source
    deduces something; returns its size."""
    maximal, deducing = true_maximal_states(source, variables, mode)
    certificate = [tuple(state) for state in _maximal_states(source, variables, mode)]
    assert len(set(certificate)) == len(certificate), (source, variables, mode)
    assert set(certificate) <= deducing, (source, variables, mode)
    assert set(certificate) == maximal, (source, variables, mode)
    return len(certificate)


def test_the_certificate_holds_every_maximal_state():
    all4 = bools(4)
    sizes = []
    for source in distinct_literal_sources([1, 2, 3, 4]):
        # the channel with and without variables outside the scope
        for variables in ([var for var in all4 if var.id in source.scope], all4):
            sizes.append(assert_certificate_is_exact(source, variables, FULL_SUBDOMAINS))
    assert len(sizes) == 2 * 972 and max(sizes) == 32


def repeated_literal_sources(vids, length):
    """Every Card bound, both Xor parities and the Clause over every
    multiset of 2..`length` literals on `vids` that repeats a variable."""
    literals = [sign * vid for vid in vids for sign in (1, -1)]
    for k in range(2, length + 1):
        for lits in itertools.combinations_with_replacement(literals, k):
            if len({abs(lit) for lit in lits}) < k:
                yield from (Card(lits, lo, hi) for lo in range(k + 1) for hi in range(lo, k + 1))
                yield from (Xor(lits, 0), Xor(lits, 1), Clause(lits))


@pytest.mark.parametrize("mode", [FULL_SUBDOMAINS, ASSIGNMENT_STYLE])
def test_the_certificate_holds_every_maximal_state_with_repeated_literals(mode):
    # these take the hitting-set generator, which reads the scope, not the literals
    all3 = bools(3)
    sizes = []
    for source in repeated_literal_sources([1, 2], 3):
        for variables in ([var for var in all3 if var.id in source.scope], all3):
            sizes.append(assert_certificate_is_exact(source, variables, mode))
    assert (len(sizes), sum(sizes)) == (2 * 314, 940)


def non_literal_sources(variables):
    """AllDiff over every subset of `variables`, Neq over every ordered
    pair, seeded random tables over every scope of up to three of them,
    and the two tables over the empty scope."""
    rng = random.Random(17)
    vids = [var.id for var in variables]
    dom = {var.id: var.domain for var in variables}
    for k in range(len(vids) + 1):
        for scope in itertools.combinations(vids, k):
            yield AllDiff(scope)
            if 0 < k <= 3:
                tuples = list(itertools.product(*(dom[vid] for vid in scope)))
                for _ in range(3):
                    yield Table(scope, rng.sample(tuples, rng.randrange(len(tuples) + 1)))
    yield from (Neq(a, b) for a, b in itertools.permutations(vids, 2))
    yield from (Table([], []), Table([], [()]))


@pytest.mark.parametrize("mode", [FULL_SUBDOMAINS, ASSIGNMENT_STYLE])
def test_the_hitting_set_certificate_holds_every_maximal_state(mode):
    # domains of one, two and three values; X3 and X4 overlap X2 in part
    all4 = [range_variable(1, "X1", 1, 1), range_variable(2, "X2", 1, 2),
            range_variable(3, "X3", 1, 3), range_variable(4, "X4", 2, 3)]
    sizes = []
    for source in non_literal_sources(all4):
        for variables in ([var for var in all4 if var.id in source.scope], all4):
            sizes.append(assert_certificate_is_exact(source, variables, mode))
    assert (len(sizes), sum(sizes)) == (2 * 72, {FULL_SUBDOMAINS: 321,
                                                 ASSIGNMENT_STYLE: 329}[mode])


def hall(n):
    return _instances("alldiff", n)[0]


def test_certificate_sizes():
    for source, n, size in [(Card(range(1, 11), 3, 6), 10, 495),
                            (Card(range(1, 13), 4, 8), 12, 1430),
                            (Clause(range(1, 10)), 9, 9)]:
        assert sum(1 for _ in _maximal_states(source, bools(n), FULL_SUBDOMAINS)) == size
    # the Hall instances: X1..X(n-1) share 1..n-1, X(n) has 1..n
    for n, mode, size in [(4, ASSIGNMENT_STYLE, 22), (4, FULL_SUBDOMAINS, 32),
                          (5, ASSIGNMENT_STYLE, 45), (6, ASSIGNMENT_STYLE, 81)]:
        assert sum(1 for _ in _maximal_states(*hall(n), mode)) == size
    assert sum(1 for _ in _maximal_states(AllDiff([1, 2]), bools(2), FULL_SUBDOMAINS)) == 4
    # a repeated literal certifies from hitting sets; a repeated channel id
    # never reaches the certificate, since the precondition refuses it
    assert assert_certificate_is_exact(Card([1, 1, 2], 1, 2), bools(2), FULL_SUBDOMAINS) == 4
    twins = bools(2) + [bool_variable(1, "y1")]
    enc = Encoding(CnfFormula(2, []), ChannelMap(ChannelMap.CNF, twins, {
        (1, TRUE): 1, (1, FALSE): -1, (2, TRUE): 2, (2, FALSE): -2}))
    for source in (AllDiff([1, 2]), Neq(1, 2), Table([1], [(0,)])):
        with pytest.raises(UsageError, match="^duplicate variable id 1$"):
            check_gac_reduction(source, enc, EnumerationPolicy(ASSIGNMENT_STYLE))


def assignment_certificate(source, variables):
    return {tuple(tuple(sorted(dom)) for dom in state)
            for state in _maximal_states(source, variables, ASSIGNMENT_STYLE)}


def test_the_assignment_certificate_comes_from_the_minimal_nogoods():
    # Each minimal nogood N gives N - e for every e in N, and N itself only
    # where it is maximal for a value that it leaves free.
    # Hall n = 6: {X6 := a} (a < 6) is a minimal nogood, maximal for X1 = 1 say
    source, variables = hall(6)
    free = tuple(tuple(sorted(var.domain)) for var in variables)
    certificate = assignment_certificate(source, variables)
    assert all(free[:5] + ((a,),) in certificate for a in range(1, 6))
    # {x1 := T} and {X3 := 2}, {X3 := 3} are minimal nogoods on the only
    # scope variable, so maximal for no value; with a variable outside the
    # scope they join in as maximal inconsistent states
    x1, x2 = bools(2)
    x3 = range_variable(3, "X3", 1, 3)
    for source, var in [(Card([1, 1], 0, 0), x1), (Table([3], [(1,)]), x3)]:
        dom, other = tuple(sorted(var.domain)), tuple(sorted(x2.domain))
        refuted = [(v,) for v in dom if not source.accepts((v,))]
        assert refuted and assignment_certificate(source, [var]) == {(dom,)}
        assert assignment_certificate(source, [var, x2]) == {(d, other) for d in [dom] + refuted}
    assert_certificate_is_exact(*hall(5), ASSIGNMENT_STYLE)


def random_sources(mode, count):
    """`count` seeded Table, AllDiff and Neq sources, each over a channel
    that holds variables outside its scope: at most five variables in
    assignment style, four over full subdomains (the oracle enumerates the
    walk)."""
    rng = random.Random(29)
    most = 5 if mode == ASSIGNMENT_STYLE else 4
    checked = 0
    while checked < count:
        variables = [range_variable(i, f"V{i}", lo, lo + rng.randint(0, 3))
                     for i, lo in enumerate(rng.choices(range(1, 4), k=rng.randint(2, most)), 1)]
        vids = [var.id for var in variables]
        scope = rng.sample(vids, rng.randint(1, len(vids) - 1))
        kind = rng.choice(["table", "table", "alldiff", "neq"])
        if kind == "table":
            tuples = list(itertools.product(*(variables[vid - 1].domain for vid in scope)))
            source = Table(scope, rng.sample(tuples, rng.randrange(len(tuples) + 1)))
        elif kind == "alldiff":
            source = AllDiff(scope)
        elif len(scope) == 2:
            source = Neq(*scope)
        else:
            continue
        yield source, variables
        checked += 1


@pytest.mark.parametrize("mode", [FULL_SUBDOMAINS, ASSIGNMENT_STYLE])
def test_the_certificate_is_exact_on_random_sources(mode):
    for source, variables in random_sources(mode, 100):
        assert_certificate_is_exact(source, variables, mode)


class GrownSets:
    """Wraps `_mmcs`, whose recursion resolves the module global, and
    records the set of every call: the root's empty set, then each set
    grown."""

    def __init__(self, monkeypatch):
        self.sets = []
        real = gac_check._mmcs

        def recorded(uncov, cand, chosen, *rest):
            self.sets.append(chosen)
            return real(uncov, cand, chosen, *rest)
        monkeypatch.setattr(gac_check, "_mmcs", recorded)


@pytest.mark.parametrize("mode", [FULL_SUBDOMAINS, ASSIGNMENT_STYLE])
def test_one_search_grows_each_set_once_and_no_more_than_the_walk_has_states(
        monkeypatch, mode):
    # every grown set is a walk state on the scope, so the search needs no limit
    spy = GrownSets(monkeypatch)
    policy = EnumerationPolicy(mode)
    cases = [hall(n) for n in range(2, 7)] + _instances("neq", 4) + list(random_sources(mode, 30))
    grown = []
    for source, variables in cases:
        spy.sets.clear()
        list(_maximal_states(source, variables, mode))
        assert spy.sets.count(0) == 1, source  # one search per certificate
        assert len(set(spy.sets)) == len(spy.sets) <= gac_check.count_states(variables, policy)
        grown.append(len(spy.sets) - 1)
    if mode == ASSIGNMENT_STYLE:
        assert grown[4] == 555  # Hall n = 6


def test_alldiff_and_table_certificates_call_no_accepts(monkeypatch):
    # their solutions come from `solutions`, never from a scan of the
    # domain product; the oracle runs first, since it may call `accepts`
    x = [range_variable(i, f"T{i}", 1, 3) for i in range(1, 5)]
    table = Table([1, 2, 3], [(1, 2, 3), (2, 2, 1), (3, 1, 1), (1, 3, 2)])
    cases = [(*hall(6), ASSIGNMENT_STYLE), (*hall(4), FULL_SUBDOMAINS)]
    cases += [(table, variables, mode) for variables in (x[:3], x)
              for mode in (ASSIGNMENT_STYLE, FULL_SUBDOMAINS)]
    oracles = [true_maximal_states(*case)[0] for case in cases]

    def refuse(self, values):
        raise AssertionError(f"{self!r}.accepts called")
    monkeypatch.setattr(AllDiff, "accepts", refuse)
    monkeypatch.setattr(Table, "accepts", refuse)
    for case, oracle in zip(cases, oracles):
        assert {tuple(state) for state in _maximal_states(*case)} == oracle, case
    assert len(oracles[0]) == 81
    # too large a walk for the oracle
    assert sum(1 for _ in _maximal_states(*hall(6), FULL_SUBDOMAINS)) == 457


def clause_list(target):
    return target.clauses if isinstance(target, CnfFormula) else target.constraints


def with_clauses(enc, clauses):
    target = enc.target
    if isinstance(target, CnfFormula):
        return Encoding(CnfFormula(target.num_vars, clauses), enc.channel)
    return Encoding(Network(target.variables, clauses), enc.channel)


def broken_encodings(enc):
    """`enc`, then `enc` without each one of its clauses or constraints, then
    `enc` with a unit clause on each target literal (a unary table on each
    target value for a network)."""
    clauses = clause_list(enc.target)
    yield enc
    for i in range(len(clauses)):
        yield with_clauses(enc, clauses[:i] + clauses[i + 1:])
    if isinstance(enc.target, CnfFormula):
        units = [(lit,) for v in range(1, enc.target.num_vars + 1) for lit in (v, -v)]
    else:
        units = [Table([var.id], [(val,)]) for var in enc.target.variables for val in var.domain]
    for unit in units:
        yield with_clauses(enc, clauses + [unit])


def literal_sweep():
    """Every shipped encoding of the bundled Card, Xor and Clause instances
    at n <= 3 and of four sources over three variables that repeat a
    literal's variable, and identity over one variable outside the scope."""
    bundled = [(c, n) for n in range(1, 4) for family in ("card", "xor", "clause")
               for c, _ in _instances(family, n)]
    repeated = [(c, 3) for c in (Card([1, 1, -2], 1, 2), Card([1, -2, 1], 1, 1),
                                 Xor([1, -1, 2, 3], 1), Clause([1, -2, 1]))]
    for c, n in bundled + repeated:
        names = {Card: ["totalizer", "binary-adder"], Xor: ["xor-direct"],
                 Clause: ["clause-to-neq:gac", "clause-to-neq:non-gac"]}[type(c)]
        if isinstance(c, Card) and c.lo == c.hi == 1:
            names += ["exactly-one:pairwise", "exactly-one:sequential"]
        for name in names:
            yield c, build_encoding(name, c, bools(n))
    for c in (Card([1, -2], 1, 1), Xor([1, 2], 1), Clause([-1, 2])):
        yield c, build_encoding("identity", c, bools(3))


@pytest.mark.parametrize("policy", POLICIES[:2])
def test_certified_verdicts_equal_the_plain_loop_on_broken_encodings(policy):
    outcomes = []
    for source, enc in literal_sweep():
        for broken in broken_encodings(enc):
            got = check_gac_reduction(source, broken, policy)
            want = plain_verdict("gac-reduction", source, broken, policy)
            assert_same_text(got.to_json(), want.to_json(), (source, broken.target))
            outcomes.append(got.passed)
    assert (len(outcomes), outcomes.count(True)) == (1678, 1044)


def non_literal_sweep():
    """identity, alldiff-pairwise and alldiff-pairwise:sequential on the
    Hall instances at n = 2, 3; identity, neq:pairwise and neq:sequential
    on the Neq instances at n <= 3; and identity on a small Table, over its
    scope alone and with a variable outside it."""
    for family, sizes, names in [
            ("alldiff", (2, 3), ("identity", "alldiff-pairwise", "alldiff-pairwise:sequential")),
            ("neq", (1, 2, 3), ("identity", "neq:pairwise", "neq:sequential"))]:
        for n in sizes:
            c, variables = _instances(family, n)[0]
            for name in names:
                yield c, build_encoding(name, c, variables)
    table = Table([1, 2], [(1, 2), (2, 1), (2, 3)])
    variables = [range_variable(1, "A", 1, 2), range_variable(2, "B", 1, 3),
                 range_variable(3, "C", 1, 2)]
    for channel in (variables[:2], variables):
        yield table, build_encoding("identity", table, channel)


@pytest.mark.parametrize("policy", POLICIES[:2])
def test_hitting_set_certified_verdicts_equal_the_plain_loop_on_broken_encodings(policy):
    outcomes = []
    for source, enc in non_literal_sweep():
        for broken in broken_encodings(enc):
            got = check_gac_reduction(source, broken, policy)
            want = plain_verdict("gac-reduction", source, broken, policy)
            assert_same_text(got.to_json(), want.to_json(), (source, broken.target))
            outcomes.append(got.passed)
    assert (len(outcomes), outcomes.count(True)) == (266, 199)


@pytest.mark.parametrize("policy", POLICIES[:2])
def test_certified_soundness_equals_the_plain_loop_on_broken_encodings(policy):
    outcomes = []
    for source, enc in itertools.chain(literal_sweep(), non_literal_sweep()):
        for broken in broken_encodings(enc):
            got = check_soundness(source, broken, policy)
            want = plain_verdict("soundness", source, broken, policy)
            assert_same_text(got.to_json(), want.to_json(), (source, broken.target))
            outcomes.append(got.passed)
    assert (len(outcomes), outcomes.count(True)) == (1944, 1216)


def test_a_failing_soundness_certificate_sends_the_check_to_the_walk(monkeypatch):
    walk = JudgedWalk(monkeypatch)
    source, variables = Card([1, -2, 3], 1, 2), bools(3)
    enc = build_encoding("totalizer", source, variables)
    policy = EnumerationPolicy(FULL_SUBDOMAINS)
    got = check_soundness(source, enc, policy)
    # the certificate walks the 8 complete assignments; the knowledge walk is empty
    assert got.passed and got.states_checked == 27 and walk.counts == [8, 0]
    # a unit clause on x1's channel literal refutes the accepted x1 = F, x2 = F, x3 = T
    unsound = Encoding(CnfFormula(enc.target.num_vars, enc.target.clauses
                                  + [(enc.channel.forward[(1, TRUE)],)]), enc.channel)
    got = check_soundness(source, unsound, policy)
    assert walk.counts[-1] > 0 and not got.passed and got.states_checked == 27
    assert_same_text(got.to_json(), plain_verdict("soundness", source, unsound, policy).to_json())


class ConsumedCertificate:
    """Wraps `_maximal_states` and counts the certificate states judged."""

    def __init__(self, monkeypatch):
        self.consumed = 0
        real = gac_check._maximal_states

        def counted(source, svars, mode):
            for state in real(source, svars, mode):
                self.consumed += 1
                yield state
        monkeypatch.setattr(gac_check, "_maximal_states", counted)


def test_a_random_sample_policy_never_certifies(monkeypatch):
    spy = ConsumedCertificate(monkeypatch)
    source, variables = Card([1, -2, 3, -4], 1, 2), bools(4)
    enc = build_encoding("totalizer", source, variables)
    policy = EnumerationPolicy(RANDOM_SAMPLE, sample_count=200, seed=5)
    got = check_gac_reduction(source, enc, policy)
    assert spy.consumed == 0 and got.passed and got.states_checked == 200
    assert_same_text(got.to_json(), plain_verdict("gac-reduction", source, enc, policy).to_json())
    exhaustive = check_gac_reduction(source, enc, EnumerationPolicy(ASSIGNMENT_STYLE))
    assert spy.consumed > 0 and exhaustive.passed and exhaustive.states_checked == 81


def test_a_failing_certificate_still_lists_every_gap(monkeypatch):
    # binary-adder fails on its certificate and walks: the gap counts of
    # the bundled report (n = 2..4 here; the report test pins n = 2..6)
    spy = ConsumedCertificate(monkeypatch)
    for n, gaps in [(2, 1), (3, 24), (4, 154)]:
        before = spy.consumed
        total = 0
        for c, variables in _instances("card", n):
            verdict = check_gac_reduction(c, build_encoding("binary-adder", c, variables))
            assert verdict.states_checked == 3 ** n
            total += len(verdict.counterexamples)
        assert total == gaps and spy.consumed > before


def test_the_check_trusts_its_certificate(monkeypatch):
    # A certificate of only the states that pass reads as a pass, so the
    # certificate must hold every maximal state.
    source, variables = hall(3)
    enc = build_encoding("alldiff-pairwise", source, variables)
    policy = EnumerationPolicy(FULL_SUBDOMAINS)
    real = gac_check._maximal_states
    vids = [var.id for var in variables]

    def passing(mode):
        for state in real(source, variables, mode):
            knowledge = DomainBox(dict(zip(vids, state)))
            src, back = gac_check.replay(source, enc, knowledge)
            if is_restriction(back, src):
                yield state

    assert not check_gac_reduction(source, enc, policy).passed
    monkeypatch.setattr(gac_check, "_maximal_states", lambda c, svars, mode: passing(mode))
    assert check_gac_reduction(source, enc, policy).passed  # the hazard


class JudgedWalk:
    """Wraps `_drive` and counts, per call, the walk states it judges."""

    def __init__(self, monkeypatch):
        self.counts = []
        real = gac_check._drive

        def counted(walk, *args):
            self.counts.append(0)
            return real(self._count(walk), *args)
        monkeypatch.setattr(gac_check, "_drive", counted)

    def _count(self, walk):
        for step in walk:
            self.counts[-1] += 1
            yield step


def test_a_failing_certificate_confines_the_walk(monkeypatch):
    # The walk judges only the states inside a failing maximal state (gac)
    # or around a failing accepted assignment (soundness), yet the verdict
    # counts every state and lists every counterexample of the full walk.
    clause, nine = _instances("clause", 9)[0]
    card, eight = Card(range(1, 9), 2, 5), bools(8)
    small, three = Card([1, -2, 3], 1, 2), bools(3)
    enc = build_encoding("totalizer", small, three)
    unsound = Encoding(CnfFormula(enc.target.num_vars, enc.target.clauses
                                  + [(enc.channel.forward[(1, TRUE)],)]), enc.channel)
    walk = JudgedWalk(monkeypatch)
    for check, source, enc, judged, total, found in [
            (check_gac_reduction, clause,
             build_encoding("clause-to-neq:non-gac", clause, nine), 19, 3 ** 9, 10),
            (check_gac_reduction, card, build_encoding("binary-adder", card, eight),
             577, 3 ** 8, 408),
            (check_soundness, small, unsound, 16, 3 ** 3, 16)]:
        got = check(source, enc)
        assert walk.counts[-1] == judged, (source, enc.target)
        assert (got.states_checked, len(got.counterexamples)) == (total, found)


class BuiltWalks:
    """Wraps `_knowledge_walk` and counts the walks built."""

    def __init__(self, monkeypatch):
        self.built = 0
        real = gac_check._knowledge_walk

        def counted(*args):
            self.built += 1
            return real(*args)
        monkeypatch.setattr(gac_check, "_knowledge_walk", counted)


def test_a_certified_pass_builds_no_walk(monkeypatch):
    # A passing certificate decides the check, so no walk's options are
    # built: over 19 values they are 524,287 subdomains. A failing one
    # builds the confined walk.
    walks = BuiltWalks(monkeypatch)
    wide = [range_variable(1, "A", 1, 19), range_variable(2, "B", 1, 1)]
    small, three = Card([1, -2, 3], 1, 2), bools(3)
    for source, variables, encoding in [(Neq(1, 2), wide, "identity"),
                                        (small, three, "totalizer")]:
        enc = build_encoding(encoding, source, variables)
        for checker in (check_gac_reduction, check_soundness):
            got = checker(source, enc)
            assert got.passed and walks.built == 0, (checker, encoding)
    clause, variables = _instances("clause", 3)[0]
    got = check_gac_reduction(clause, build_encoding("clause-to-neq:non-gac", clause, variables))
    assert not got.passed and walks.built == 1


# --- judging in chunks -------------------------------------------------------

def chunk_cases():
    """`(source, encoding, policy)` cases whose walks cross many chunk
    boundaries at a small chunk size: binary-adder over every card n=4
    instance, which fails, alldiff-pairwise on the Hall instance n=4, a
    sample of 200, and the unsound totalizer of
    `test_a_failing_certificate_confines_the_walk`."""
    full = EnumerationPolicy(FULL_SUBDOMAINS)
    for source, variables in _instances("card", 4):
        yield source, build_encoding("binary-adder", source, variables), full
    source, variables = hall(4)
    yield source, build_encoding("alldiff-pairwise", source, variables), full
    source, variables = Card([1, -2, 3, -4], 1, 2), bools(4)
    yield (source, build_encoding("binary-adder", source, variables),
           EnumerationPolicy(RANDOM_SAMPLE, sample_count=200, seed=3))
    small, three = Card([1, -2, 3], 1, 2), bools(3)
    enc = build_encoding("totalizer", small, three)
    yield small, with_clauses(enc, enc.target.clauses + [(enc.channel.forward[(1, TRUE)],)]), full


def test_chunk_boundaries_leave_every_verdict_alone(monkeypatch):
    # Seven states per target propagation, a prime, so that the chunks of
    # the certificate and of the walk end at no boundary of the odometer.
    monkeypatch.setattr(gac_check, "CHUNK", 7)
    failed = []
    for source, enc, policy in chunk_cases():
        for checker, check in ((check_gac_reduction, "gac-reduction"),
                               (check_soundness, "soundness")):
            got = checker(source, enc, policy)
            assert_same_text(got.to_json(), plain_verdict(check, source, enc, policy).to_json(),
                             (source, enc.target, check))
            failed.append(not got.passed)
    assert (len(failed), sum(failed)) == (36, 12)


def test_every_chunked_counterexample_replays(monkeypatch):
    monkeypatch.setattr(gac_check, "CHUNK", 7)
    gaps = 0
    for source, variables in _instances("card", 5):
        enc = build_encoding("binary-adder", source, variables)
        for ce in check_gac_reduction(source, enc).counterexamples:
            assert gac_check.replay(source, enc, ce.knowledge) == (
                ce.deduced_source, ce.deduced_back), (source, ce.knowledge)
            gaps += 1
    assert gaps == 882


# --- the soundness certificate on the walk over complete assignments ---------

def reference_soundness_certificate(source, enc):
    """The failing states of the soundness certificate judged as before it
    shared equiconsistency's walk: every complete channel assignment the
    source accepts, in product order, through the whole knowledge judge of
    `check_soundness` (source filter, target, map-back, comparison)."""
    svars, engine = enc.channel.source_vars, _Target(enc)
    vids = [var.id for var in svars]
    pos = [vids.index(vid) for vid in source.scope]
    failing = []
    for values in itertools.product(*(var.domain for var in svars)):
        if source.accepts([values[d] for d in pos]):
            state = [frozenset((val,)) for val in values]
            src = gac_filter(source, DomainBox(dict(zip(vids, state)))).box
            if not src.inconsistent and not is_restriction(src, engine.deduce_back([state])[0]):
                failing.append(state)
    return failing


class FailingCertificateStates:
    """Wraps `_drive_knowledge` and keeps, per call, the failing states its
    certificate gives; the check goes on to its verdict only while `walk`
    is set, and returns None otherwise."""

    def __init__(self, monkeypatch):
        self.failing, self.walk = [], True
        real = gac_check._drive_knowledge

        def spied(enc, policy, judge, check, certificate, inside):
            self.failing.append([list(state) for state in certificate(policy.mode)])
            return real(enc, policy, judge, check, certificate, inside) if self.walk else None
        monkeypatch.setattr(gac_check, "_drive_knowledge", spied)


def shipped_encodings_up_to_4():
    """`(source, encoding, variant)` for every named encoding over every
    bundled instance with n <= 4 that it fits, "intact"; a CNF one also
    without each one of its clauses, "deletion", and with a unit clause on
    each channel literal, "unit"."""
    for name in ENCODING_NAMES:
        for family in ("card", "neq", "alldiff", "xor", "clause"):
            for n in range(2 if family == "alldiff" else 1, 5):
                for source, variables in _instances(family, n):
                    try:
                        enc = build_encoding(name, source, variables)
                    except UsageError:
                        continue
                    yield source, enc, "intact"
                    if isinstance(enc.target, CnfFormula):
                        clauses = enc.target.clauses
                        for i in range(len(clauses)):
                            yield (source, with_clauses(enc, clauses[:i] + clauses[i + 1:]),
                                   "deletion")
                        for lit in enc.channel.forward.values():
                            yield source, with_clauses(enc, clauses + [(lit,)]), "unit"


def test_the_soundness_certificate_equals_the_judged_accepted_assignments(monkeypatch):
    # Under both exhaustive policies, every variant's failing certificate
    # states are those of the whole judge. The verdict is compared with the
    # plain loop on the intact encodings, and on the channel units where the
    # walk has at most 1,000 states (not Hall n = 4 over full subdomains,
    # 5,145); the plain loop on every deletion would take half a minute, and
    # the broken-encoding tests above compare every variant at n <= 3.
    spy = FailingCertificateStates(monkeypatch)
    kinds, variants, compared = set(), [], 0
    for source, enc, variant in shipped_encodings_up_to_4():
        want = reference_soundness_certificate(source, enc)
        for policy in (EnumerationPolicy(FULL_SUBDOMAINS), EnumerationPolicy(ASSIGNMENT_STYLE)):
            spy.walk = variant == "intact" or (
                variant == "unit" and gac_check.count_states(enc.channel.source_vars, policy) <= 1000)
            got = check_soundness(source, enc, policy)
            assert spy.failing[-1] == want, (source, enc.target, policy.mode)
            if spy.walk:
                plain = plain_verdict("soundness", source, enc, policy)
                assert_same_text(got.to_json(), plain.to_json(), (source, enc.target))
                compared += 1
        kinds.add(enc.channel.kind)
        variants.append((variant, bool(want)))
    assert kinds == {ChannelMap.CNF, ChannelMap.NETWORK}
    assert (len(variants), compared, variants.count(("unit", True))) == (2852, 1464, 530)


class MapBackCalls:
    """Wraps `map_back` and counts its calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = gac_check.map_back

        def counted(*args):
            self.calls += 1
            return real(*args)
        monkeypatch.setattr(gac_check, "map_back", counted)


def test_a_certified_soundness_pass_maps_nothing_back(monkeypatch):
    # The certificate asks only whether the target's propagation refutes an
    # accepted assignment, so a pass maps no deduction back; judging each of
    # the 792 accepted assignments of card n=10 [3..6] in full would.
    calls = MapBackCalls(monkeypatch)
    source, variables = Card(range(1, 11), 3, 6), bools(10)
    for encoding in ("totalizer", "binary-adder"):
        got = check_soundness(source, build_encoding(encoding, source, variables))
        assert got.passed and got.states_checked == 3 ** 10 and calls.calls == 0, encoding
    # a failing certificate state is judged by the walk, which maps back
    enc = build_encoding("totalizer", source, variables)
    unsound = with_clauses(enc, enc.target.clauses + [(-enc.channel.forward[(1, TRUE)],)])
    assert not check_soundness(source, unsound).passed and calls.calls > 0


def test_a_network_certificate_asks_the_target_only_where_the_source_accepts(monkeypatch):
    # A network target's refuted depth is n, so a rejected assignment can
    # neither fail the soundness certificate nor cut: of the 108 complete
    # assignments of the Hall instance n = 4, only the 6 accepted ones are
    # closed on the target, and a failing one still gives the plain verdict.
    calls = []
    real = gac_check.gac_closure
    monkeypatch.setattr(gac_check, "gac_closure", lambda *args: calls.append(1) or real(*args))
    source, variables = hall(4)
    enc = build_encoding("identity", source, variables)
    policy = EnumerationPolicy(ASSIGNMENT_STYLE)
    assert check_soundness(source, enc, policy).passed and len(calls) == 6
    unsound = with_clauses(enc, enc.target.constraints + [Table([4], [(4,)]), Table([1], [(1,)])])
    got = check_soundness(source, unsound, policy)
    assert not got.passed
    assert_same_text(got.to_json(), plain_verdict("soundness", source, unsound, policy).to_json())
