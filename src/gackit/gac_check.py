"""Mechanical propagation-strength checking.

The operational criterion: enumerate knowledge states K over the source
variables; propagate K on the source side (domain-consistency enforcement)
and, translated through the channel, on the target side; map the target
deduction back; the translation passes if the mapped-back deduction is at
least as strong (a restriction of) the source deduction for every K, with
the inconsistent state as the unique strongest deduction.

Soundness is the guard in the other direction: the target must not refute
values that still extend to source solutions. Equiconsistency compares
satisfiability over complete source assignments, walked as value tuples in
channel order: each assignment redoes only the depths past the prefix it
shares with the previous one, and a side that a prefix already refutes
stays refuted for every extension of it.

The gac and soundness checks walk knowledge states in one fixed order:
product order over each variable's subdomains, last variable fastest (a
mixed-radix odometer, Knuth TAOCP 7.2.1.1 Algorithm M), or the seeded
samples. Each state comes with the first depth p at which it differs from
the previous one, and per-depth work is redone only from p on: the counts
that tell in constant time whether a Card, Xor or Clause source filter
would hand K back unchanged, and a CNF target's assumption list. A
DomainBox for K is built only where the source has to be filtered.
Counterexamples are kept in walk order, so the verdict is the same as a
state-by-state evaluation's.
"""

from __future__ import annotations

import itertools
import json
import random
from bisect import bisect_left
from dataclasses import dataclass, field

from .model import (
    ChannelMap, Constraint, DomainBox, Network, ResourceError, UsageError,
    Variable, is_restriction, lit_var, map_knowledge,
)
from .propagation import (
    UnitPropagator, fixpoint_counts, gac_closure, gac_filter, sat_solve,
    solve_brute_force,
)
from .encoders import Encoding

FULL_SUBDOMAINS = "full-subdomains"
ASSIGNMENT_STYLE = "assignment-style"
RANDOM_SAMPLE = "random-sample"
EXHAUSTIVE_ASSIGNMENTS = "exhaustive-assignments"

COMPLETENESS_GAP = "completeness-gap"
SOUNDNESS_VIOLATION = "soundness-violation"
CONSISTENCY_MISMATCH = "consistency-mismatch"

DEFAULT_STATE_BUDGET = 1_000_000
DEFAULT_SAMPLE_COUNT = 10_000
DEFAULT_SEED = 42


@dataclass
class EnumerationPolicy:
    """How to walk the space of source knowledge states."""
    mode: str = FULL_SUBDOMAINS
    sample_count: int = DEFAULT_SAMPLE_COUNT
    seed: int = DEFAULT_SEED
    max_states: int = DEFAULT_STATE_BUDGET
    max_domain_size: int = 20

    def __post_init__(self):
        if self.mode not in (FULL_SUBDOMAINS, ASSIGNMENT_STYLE, RANDOM_SAMPLE):
            raise UsageError(f"unknown enumeration mode {self.mode!r}")
        if self.sample_count < 1:
            raise UsageError(f"sample count must be at least 1, got {self.sample_count}")


def count_states(variables, policy: EnumerationPolicy) -> int:
    """Number of knowledge states the policy will enumerate."""
    if policy.mode == RANDOM_SAMPLE:
        return policy.sample_count
    total = 1
    for var in variables:
        m = len(var.domain)
        total *= (2 ** m - 1) if policy.mode == FULL_SUBDOMAINS else (m + 1)
    return total


def auto_policy(variables, seed: int = DEFAULT_SEED,
                max_states: int = DEFAULT_STATE_BUDGET) -> EnumerationPolicy:
    """Exhaustive where affordable, deterministic everywhere: full subdomain
    enumeration up to the state budget, then assignment-style, then seeded
    random sampling."""
    for mode in (FULL_SUBDOMAINS, ASSIGNMENT_STYLE):
        policy = EnumerationPolicy(mode, seed=seed, max_states=max_states)
        if count_states(variables, policy) <= max_states:
            return policy
    return EnumerationPolicy(RANDOM_SAMPLE, seed=seed, max_states=max_states)


def _knowledge_walk(variables, policy: EnumerationPolicy):
    """The knowledge states of `policy` as `(p, subdomains)` pairs.

    `subdomains` lists each variable's subdomain in order; it is one list,
    changed in place from state to state, so copy what you keep. `p` is the
    first position at which the state may differ from the previous one:
    0 for the first state, and `len(variables)` for a sample that repeats
    its predecessor. Exhaustive modes run a mixed-radix odometer over each
    variable's subdomains (last variable fastest); random-sample mode draws
    one mask per variable from a generator seeded with `policy.seed`.
    Raises ResourceError, before the first state, when a domain exceeds
    the policy's cap or an exhaustive walk its state budget.
    """
    for var in variables:
        if len(var.domain) > policy.max_domain_size:
            raise ResourceError(
                f"domain of {var.name!r} exceeds the per-variable cap "
                f"({len(var.domain)} > {policy.max_domain_size})")
    if policy.mode != RANDOM_SAMPLE and count_states(variables, policy) > policy.max_states:
        raise ResourceError(
            f"{count_states(variables, policy)} knowledge states exceed the "
            f"budget of {policy.max_states}")
    doms = [var.domain for var in variables]
    n = len(doms)

    def subdomain(dom, mask):
        return frozenset(val for i, val in enumerate(dom) if (mask >> i) & 1)

    if policy.mode == RANDOM_SAMPLE:
        rng = random.Random(policy.seed)
        prev, state = [0] * n, [None] * n
        for _ in range(policy.sample_count):
            masks = [rng.randrange(1, 2 ** len(dom)) for dom in doms]
            p = next((d for d in range(n) if masks[d] != prev[d]), n)
            for d in range(p, n):
                state[d] = subdomain(doms[d], masks[d])
            prev = masks
            yield p, state
        return
    if policy.mode == FULL_SUBDOMAINS:
        options = [[subdomain(dom, mask) for mask in range(1, 2 ** len(dom))]
                   for dom in doms]
    else:  # assignment-style: unrestricted, or assigned to one value
        options = [[frozenset(dom)] + [frozenset((val,)) for val in dom] for dom in doms]
    last = [len(opts) - 1 for opts in options]
    digits = [0] * n
    state = [opts[0] for opts in options]
    p = 0
    while True:
        yield p, state
        p = n - 1
        while p >= 0 and digits[p] == last[p]:  # carry: wrap this digit
            digits[p] = 0
            state[p] = options[p][0]
            p -= 1
        if p < 0:
            return
        digits[p] += 1
        state[p] = options[p][digits[p]]


def enumerate_knowledge_states(variables, policy: EnumerationPolicy | None = None):
    """Deterministically ordered stream of DomainBox knowledge states: the
    states of the checkers' walk (`_knowledge_walk`), in its order, product
    order with the last variable fastest or the seeded samples."""
    if policy is None:
        policy = auto_policy(variables)
    vids = [v.id for v in variables]
    for _, state in _knowledge_walk(variables, policy):
        yield DomainBox._raw(dict(zip(vids, state)))


@dataclass
class Counterexample:
    kind: str
    knowledge: DomainBox
    deduced_source: DomainBox
    deduced_back: DomainBox


@dataclass
class Verdict:
    """Pass(states_checked) or Fail(counterexamples), plus the policy used."""
    states_checked: int
    counterexamples: list[Counterexample] = field(default_factory=list)
    policy_mode: str = FULL_SUBDOMAINS
    check: str = "gac-reduction"
    source_vars: tuple[Variable, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    @staticmethod
    def _entry(var: Variable, subdomain) -> tuple:
        """(name, labels): one variable's entry in a consistent box's JSON."""
        return var.name, [var.label(v) for v in sorted(subdomain)]

    def _box_json(self, box: DomainBox):
        if box.inconsistent:
            return {"inconsistent": True}
        return dict(self._entry(var, box.domain(var.id)) for var in self.source_vars)

    def counterexample_json(self, ce: Counterexample) -> dict:
        return {
            "kind": ce.kind,
            "knowledge": self._box_json(ce.knowledge),
            "source_deduction": self._box_json(ce.deduced_source),
            "target_deduction_mapped_back": self._box_json(ce.deduced_back),
        }

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "outcome": "pass" if self.passed else "fail",
            "states_checked": self.states_checked,
            "policy": self.policy_mode,
            "counterexamples": [self.counterexample_json(ce) for ce in self.counterexamples],
        }

    def to_json(self) -> str:
        """Byte for byte `json.dumps(self.to_json_dict(), indent=2,
        sort_keys=True) + "\n"`, without the pure-Python indenting encoder:
        each variable's indented `"name": [labels]` block is built once per
        subdomain, and a box joins its blocks in sorted-name order (the last
        variable of a repeated name wins, as in the dict)."""
        order = sorted({var.name: var for var in self.source_vars}.values(),
                       key=lambda var: var.name)
        blocks = {}

        def box(b):
            if b.inconsistent:
                return '{\n        "inconsistent": true\n      }'
            lines = []
            for var in order:
                key = (var.id, b.domain(var.id))
                if key not in blocks:  # a consistent box has no empty domain
                    name, labels = self._entry(var, key[1])
                    items = ",\n          ".join(map(json.dumps, labels))
                    blocks[key] = f"        {json.dumps(name)}: [\n          {items}\n        ]"
                lines.append(blocks[key])
            return "{\n" + ",\n".join(lines) + "\n      }" if lines else "{}"

        ces = ",\n".join(
            f'    {{\n      "kind": {json.dumps(ce.kind)},\n'
            f'      "knowledge": {box(ce.knowledge)},\n'
            f'      "source_deduction": {box(ce.deduced_source)},\n'
            f'      "target_deduction_mapped_back": {box(ce.deduced_back)}\n    }}'
            for ce in self.counterexamples)
        ces = f"[\n{ces}\n  ]" if ces else "[]"
        return (f'{{\n  "check": {json.dumps(self.check)},\n  "counterexamples": {ces},\n'
                f'  "outcome": "{"pass" if self.passed else "fail"}",\n'
                f'  "policy": {json.dumps(self.policy_mode)},\n'
                f'  "states_checked": {self.states_checked}\n}}\n')

    def digest(self) -> str:
        """Short human-readable summary."""
        lines = [f"{self.check}: {'PASS' if self.passed else 'FAIL'} "
                 f"({self.states_checked} states, {self.policy_mode})"]
        for ce in self.counterexamples[:10]:
            lines.append(f"  {ce.kind} at K: "
                         f"{ce.knowledge.pretty(self.source_vars)}")
            lines.append(f"    source deduces: {ce.deduced_source.pretty(self.source_vars)}")
            lines.append(f"    target gives:   {ce.deduced_back.pretty(self.source_vars)}")
        extra = len(self.counterexamples) - 10
        if extra > 0:
            lines.append(f"  ... and {extra} more counterexamples")
        return "\n".join(lines)


def _source_propagator(source):
    if isinstance(source, Network):
        return lambda box: gac_closure(source, box)
    if isinstance(source, Constraint):
        return lambda box: gac_filter(source, box)
    raise UsageError(f"source must be a Constraint or Network, got {type(source)}")


def _target_box(target: Network, mapped) -> DomainBox:
    """The target's initial box under the `(tvid, removed, pinned)` triples
    of `map_knowledge`, applied in turn as a conjunction: each removes its
    values and, if it pins, keeps only the pinned ones. Bottom as soon as a
    domain empties."""
    domains = dict(target.initial_domains)
    for tvid, removed, pinned in mapped:
        dom = domains[tvid] - removed
        if pinned:
            dom &= pinned
        if not dom:
            return DomainBox.bottom()
        domains[tvid] = dom
    return DomainBox._raw(domains)


def map_back(channel: ChannelMap, payload, base: DomainBox | None = None) -> DomainBox:
    """Project a target deduction back to the source variables.

    `payload` is the target engine's output: the value list of
    `UnitPropagator.propagate` (indexed by CNF variable, entries
    True/False/None) for CNF channels, the target DomainBox for network
    channels, and None for a target inconsistency, which maps to the source
    inconsistent state. A source value survives unless its image is refuted;
    auxiliary variables are ignored. When `base` is given only its values
    are candidates (deduction from that knowledge).
    """
    if payload is None:
        return DomainBox.bottom()
    cnf = channel.kind == ChannelMap.CNF
    forward = channel.forward
    domains = {}
    for var in channel.source_vars:
        vid = var.id
        candidates = var.domain if base is None else base.domain(vid)
        keep = []
        for value in candidates:
            image = forward[(vid, value)]
            if cnf:
                iv = payload[image] if image > 0 else payload[-image]
                if iv is None or iv == (image > 0):
                    keep.append(value)
            elif image[1] in payload.domain(image[0]):
                keep.append(value)
        if not keep:
            return DomainBox.bottom()
        # base's own subdomain where nothing was refuted
        domains[vid] = (candidates if base is not None and len(keep) == len(candidates)
                        else frozenset(keep))
    return DomainBox._raw(domains)


class _CnfTarget:
    def __init__(self, enc: Encoding):
        self.channel = enc.channel
        self.prop = UnitPropagator(enc.target)
        self.mapped, self.ends = [], [0]  # ends[d]: len(mapped) once d variables are mapped

    def deduce_back(self, knowledge: DomainBox, since: int = 0) -> DomainBox:
        """The target's deduction from `knowledge`, mapped back. The
        assumptions are `map_knowledge`'s; those of the source variables
        before position `since` are kept from the previous call, so there
        `knowledge` must have the previous call's subdomains."""
        channel, mapped, ends = self.channel, self.mapped, self.ends
        del mapped[ends[since]:], ends[since + 1:]
        for var, memo in zip(channel.source_vars[since:], channel.images[since:]):
            kdom = knowledge.domain(var.id)
            image = memo.get(kdom)
            if image is None:
                image = memo[kdom] = channel._image(var, kdom)
            mapped.extend(image)
            ends.append(len(mapped))
        return map_back(channel, self.prop.propagate(mapped), base=knowledge)

    def refuting_prefix(self, mapped: list) -> int | None:
        """None if the target is satisfiable under the assumptions `mapped`,
        else the length of a prefix of them that refutes it: on a unit
        propagation conflict, up to the literal that failed."""
        prop = self.prop
        if prop.propagate(mapped) is None:
            return len(prop.assumed) + 1
        decided = len(prop.trail) == prop.num_vars  # no conflict, nothing open
        return None if decided or sat_solve(prop, mapped).sat else len(mapped)


class _NetworkTarget:
    def __init__(self, enc: Encoding):
        self.channel = enc.channel
        self.network = enc.target

    def deduce_back(self, knowledge: DomainBox, since: int = 0) -> DomainBox:
        """As `_CnfTarget.deduce_back`, but the target box is built anew
        from `knowledge` each time, so `since` goes unused."""
        start = _target_box(self.network, map_knowledge(self.channel, knowledge))
        result = gac_closure(self.network, start)
        return map_back(self.channel, None if result.inconsistent else result.box,
                        base=knowledge)

    def refuting_prefix(self, mapped: list) -> int | None:
        """None if the target is satisfiable under the triples, else their number."""
        start = _target_box(self.network, mapped)
        return None if solve_brute_force(self.network, start).sat else len(mapped)


def _target_engine(enc: Encoding):
    return (_NetworkTarget if isinstance(enc.target, Network) else _CnfTarget)(enc)


def _drive(states, judge, mode: str, check: str, svars) -> Verdict:
    """The one check loop: `judge(state)` returns a Counterexample or None;
    counterexamples are kept in enumeration order."""
    counterexamples = []
    count = 0
    for state in states:
        count += 1
        ce = judge(state)
        if ce is not None:
            counterexamples.append(ce)
    return Verdict(count, counterexamples, mode, check, svars)


def _drive_knowledge(enc: Encoding, policy, judge, check: str) -> Verdict:
    """`_drive` over the knowledge walk; `judge` gets `(p, state)` pairs."""
    svars = enc.channel.source_vars
    if policy is None:
        policy = auto_policy(svars)
    return _drive(_knowledge_walk(svars, policy), judge, policy.mode, check, svars)


def _unchanged_test(source, svars):
    """For a Card, Xor or Clause source over distinct variables that all lie
    among `svars`, a test `unchanged(p, state)` that is True exactly where
    `gac_filter(source, K)` hands back K itself. It sums `fixpoint_counts`
    per depth, redoing only the depths from p on, so it must see every
    state of the walk, in order. None for any other source, which is
    filtered on every state."""
    counts = fixpoint_counts(source) if isinstance(source, Constraint) else None
    vids = [var.id for var in svars]
    if (counts is None or len(set(vids)) != len(vids)
            or not set(source.scope) <= set(vids)):
        return None
    count, holds = counts
    lit_of = {lit_var(lit): lit for lit in source.lits}
    lits = [lit_of.get(vid) for vid in vids]
    n = len(vids)
    memos = [{} for _ in vids]  # per depth: subdomain -> its count
    totals = [0] * (n + 1)  # totals[d]: the sum over the depths before d
    holds_at = {}  # total -> holds(total)

    def unchanged(p, state):
        for d in range(p, n):
            dom = state[d]
            c = memos[d].get(dom)
            if c is None:
                c = memos[d][dom] = 0 if lits[d] is None else count(lits[d], dom)
            totals[d + 1] = totals[d] + c
        total = totals[n]
        answer = holds_at.get(total)
        if answer is None:
            answer = holds_at[total] = holds(total)
        return answer
    return unchanged


def check_gac_reduction(source, enc: Encoding,
                        policy: EnumerationPolicy | None = None) -> Verdict:
    """Completeness check: for every knowledge state, the mapped-back target
    deduction must be a restriction of (at least as strong as) the source
    deduction. Records a completeness gap per offending state.

    Where the source deduces nothing (its filter hands back K itself) the
    target side is skipped: the mapped-back deduction keeps only values of
    K, so it restricts K whatever the target deduces. For a Card, Xor or
    Clause source over distinct variables the walk tells these states
    apart without building K or filtering, from counts summed per depth
    (see `fixpoint_counts`). With a fixed-true and b free literals, a card
    `lo..hi` deduces nothing iff `lo <= a + b`, `a <= hi`, and `b == 0` or
    (`a < hi` and `a + b > lo`); an xor iff `b >= 2`, or `b == 0` and
    `a % 2` is its parity. A clause deduces nothing iff two literals can
    still be true, or one can and its variable is already fixed to it.
    Every other source is filtered on every state.
    """
    deduce_source, engine = _source_propagator(source), _target_engine(enc)
    svars = enc.channel.source_vars
    unchanged = _unchanged_test(source, svars)
    vids = [var.id for var in svars]
    since = 0  # first position that changed since the target last ran

    def judge(step):
        nonlocal since
        p, state = step
        if p < since:
            since = p
        if unchanged is not None and unchanged(p, state):
            return None
        knowledge = DomainBox._raw(dict(zip(vids, state)))
        res = deduce_source(knowledge)
        if not res.inconsistent and res.box is knowledge:
            return None
        src = DomainBox.bottom() if res.inconsistent else res.box
        back = engine.deduce_back(knowledge, since)
        since = len(vids)
        if not is_restriction(back, src):  # bottom is the strongest deduction
            return Counterexample(COMPLETENESS_GAP, knowledge, src, back)
    return _drive_knowledge(enc, policy, judge, "gac-reduction")


def check_soundness(source, enc: Encoding,
                    policy: EnumerationPolicy | None = None) -> Verdict:
    """Guard against over-pruning: the target may not refute a value that
    still extends to a full source solution inside the knowledge state."""
    deduce_source, engine = _source_propagator(source), _target_engine(enc)
    svars = enc.channel.source_vars
    unchanged = _unchanged_test(source, svars)
    vids = [var.id for var in svars]
    since = 0  # first position that changed since the target last ran
    is_network = isinstance(source, Network)

    def extends(knowledge):
        return not is_network or solve_brute_force(source, knowledge).sat

    def judge(step):
        nonlocal since
        p, state = step
        if p < since:
            since = p
        knowledge = DomainBox._raw(dict(zip(vids, state)))
        if unchanged is not None and unchanged(p, state):
            src = knowledge
        else:
            res = deduce_source(knowledge)
            if res.inconsistent:
                return None  # nothing extends to a solution; no over-pruning possible
            src = res.box
        back = engine.deduce_back(knowledge, since)
        since = len(vids)
        if back.inconsistent:
            violated = extends(knowledge)
        else:
            violated = any(extends(knowledge.assign(var.id, value)) for var in svars
                           for value in sorted(src.domain(var.id) - back.domain(var.id)))
        if violated:
            return Counterexample(SOUNDNESS_VIOLATION, knowledge, src, back)
    return _drive_knowledge(enc, policy, judge, "soundness")


def check_equiconsistency(source, enc: Encoding, sampler=None,
                          budget: int = 1 << 20) -> Verdict:
    """Source and target must be satisfiable on exactly the same complete
    source assignments. Exhaustive by default; pass an EnumerationPolicy in
    random-sample mode to spot-check instead (any other mode is a UsageError).

    In the walk (see the module docstring) the source tests with `accepts`
    the constraints whose last variable lies past the shared prefix, and a
    CNF target propagates one assumption list of the channel's singleton
    images, searching with `sat_solve` only where the trail leaves a target
    variable open; a network target is solved per assignment. A refuted
    prefix refutes every extension, under `accepts` and unit propagation.
    """
    svars = enc.channel.source_vars
    engine = _target_engine(enc)

    if sampler is None:
        total = 1
        for var in svars:
            total *= len(var.domain)
        if total > budget:
            raise ResourceError(
                f"{total} complete assignments exceed the budget of {budget}")
        assignments = itertools.product(*(var.domain for var in svars))
        mode = EXHAUSTIVE_ASSIGNMENTS
    elif sampler.mode != RANDOM_SAMPLE:
        raise UsageError(f"equiconsistency samples only in {RANDOM_SAMPLE!r} mode")
    else:
        rng = random.Random(sampler.seed)
        assignments = (
            tuple(rng.choice(var.domain) for var in svars)
            for _ in range(sampler.sample_count))
        mode = RANDOM_SAMPLE

    if isinstance(source, Network) and not set(source.variables) <= set(svars):
        raise UsageError("the source network has variables outside the channel")
    constraints = source.constraints if isinstance(source, Network) else [source]
    schedule = Network(list(svars), constraints).search_schedule
    channel, n = enc.channel, len(svars)
    singles = [{val: frozenset((val,)) for val in var.domain} for var in svars]
    mapped, ends = [], [0]  # ends[j]: len(mapped) once j values are mapped
    # Length of the value prefix that refutes each side; None while it holds.
    src_fail = None if all(c.accepts([]) for c, _ in schedule[0]) else 0
    tgt_fail, prev = None, ()

    def judge(values):
        nonlocal src_fail, tgt_fail, prev
        p = next((i for i, (old, new) in enumerate(zip(prev, values)) if old != new),
                 len(prev))
        prev = values
        if src_fail is None or src_fail > p:
            src_fail = next((k for k in range(p + 1, n + 1) if schedule[k] and not all(
                c.accepts([values[i] for i in pos]) for c, pos in schedule[k])), None)
        if tgt_fail is None or tgt_fail > p:
            del mapped[ends[p]:], ends[p + 1:]
            for d in range(p, n):
                kdom, memo = singles[d][values[d]], channel.images[d]
                image = memo.get(kdom)
                if image is None:
                    image = memo[kdom] = channel._image(svars[d], kdom)
                mapped.extend(image)
                ends.append(len(mapped))
            k = engine.refuting_prefix(mapped)
            tgt_fail = None if k is None else bisect_left(ends, k)
        s, t = src_fail is None, tgt_fail is None
        if s != t:
            box = DomainBox._raw({var.id: single[val] for var, single, val
                                  in zip(svars, singles, values)})
            return Counterexample(CONSISTENCY_MISMATCH, box,
                                  box if s else DomainBox.bottom(),
                                  box if t else DomainBox.bottom())
    return _drive(assignments, judge, mode, "equiconsistency", svars)


def replay(source, enc: Encoding, knowledge: DomainBox) -> tuple[DomainBox, DomainBox]:
    """Re-run both pipelines on one knowledge state; returns (D_source, D_back).

    Counterexamples are replayable: feeding a recorded K back through here
    reproduces the recorded deductions exactly.
    """
    res = _source_propagator(source)(knowledge)
    return ((DomainBox.bottom() if res.inconsistent else res.box),
            _target_engine(enc).deduce_back(knowledge))
