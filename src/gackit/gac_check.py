"""Mechanical propagation-strength checking.

The source of every check is one Constraint. The operational criterion:
enumerate knowledge states K over the source variables; filter K with the
source's GAC filter, `gac_filter`, and propagate K, translated through the
channel, on the target side; map the target deduction back; the
translation passes if the mapped-back deduction is at least as strong (a
restriction of) the source deduction for every K, with the inconsistent
state as the unique strongest deduction.

Soundness is the same comparison the other way round: since the source
deduction is GAC, it keeps exactly the values that extend to a source
solution inside K, and the target must keep them all. Equiconsistency
compares satisfiability over complete source assignments.

Every check runs one walk over per-position subdomains in channel order:
product order over each position's options, last position fastest (a
mixed-radix odometer, Knuth TAOCP 7.2.1.1 Algorithm M), or seeded samples.
The options are a variable's subdomains in the knowledge walk, and its
singletons in `_assignments`, the walk of equiconsistency and of the
soundness certificate. Each state comes with a depth p before which it
equals the previous state: the odometer's first changed depth, 0 from the
samples. Only `_assignments` reads p: a target that a prefix of an
assignment refutes stays refuted for every extension of it, and the walk
skips them where the prefix refutes the source too. The target side is
one engine, `_Target`, asked in two ways. The knowledge checks hand it
their states CHUNK at a time (`_in_chunks`), and a CNF target propagates
a whole chunk in one bit-parallel unit propagation, one bit per state
(`UnitPropagator.propagate_batch`); a network target closes each state
in turn. `_assignments` asks it state by state (`refuted_depth`), and it
maps only the depths past the prefix it shares with its last such call:
p, extended by identity, on the propagator's trail. Either way a state's
answer is a fresh propagation's, and counterexamples are kept in walk
order, so the verdict is the same as a state-by-state evaluation's.

Both knowledge checks judge a certificate before they walk
(`_drive_knowledge`). Under an exhaustive policy every counterexample of
the walk is tied to a failing certificate state: for the gac check it lies
inside one of the states maximal for some value's lack of support
(`_maximal_states`), for the soundness check it holds one of the complete
assignments the source accepts. So the walk visits only the states so
tied to a failing one, none where no certificate state fails, and lists
every counterexample; the verdict counts every state of the policy.
`check_gac_reduction` and `check_soundness` give the arguments and their
premises.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left, bisect_right
from collections import defaultdict, deque
from itertools import combinations, islice
from dataclasses import dataclass, field

from .model import (
    ChannelMap, Constraint, DomainBox, Network, ResourceError, UsageError, Variable,
    is_restriction, lit_false_value, lit_truth_value, lit_var, map_knowledge,
)
from .propagation import (
    UnitPropagator, gac_closure, gac_filter, maximal_gap_counts, sat_solve,
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
MAX_DOMAIN_SIZE = 20  # per source variable, in a knowledge walk
EQUICONSISTENCY_BUDGET = 1 << 20  # complete assignments, when exhaustive
CHUNK = 256  # knowledge states judged per target propagation


@dataclass
class EnumerationPolicy:
    """How to walk the space of source knowledge states."""
    mode: str = FULL_SUBDOMAINS
    sample_count: int = DEFAULT_SAMPLE_COUNT
    seed: int = DEFAULT_SEED
    max_states: int = DEFAULT_STATE_BUDGET

    def __post_init__(self):
        if self.mode not in (FULL_SUBDOMAINS, ASSIGNMENT_STYLE, RANDOM_SAMPLE):
            raise UsageError(f"unknown enumeration mode {self.mode!r}")
        if self.sample_count < 1:
            raise UsageError(f"sample count must be at least 1, got {self.sample_count}")


def count_states(variables, policy: EnumerationPolicy) -> int:
    """Number of knowledge states an exhaustive policy enumerates."""
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


def _odometer(options, masks=None):
    """The product of the per-position option lists as `(p, state)` pairs,
    last position fastest. `state` is one list, changed in place from state
    to state, so copy what you keep; `p` is the first position at which it
    differs from the previous state, 0 for the first. `masks`, if given,
    holds an int per option, shaped like `options`, and the walk skips
    every prefix whose options' masks AND to 0, with all its extensions.
    A depth c < n sent in (`generator.send`) skips every later state that
    shares the first c positions of the last one."""
    n = len(options)
    if not n:
        yield 0, []
        return
    if masks is None:
        masks = [[-1] * len(opts) for opts in options]
    pairs = [list(zip(opts, ms)) for opts, ms in zip(options, masks)]
    last = n - 1
    state = [None] * n
    acc = [-1] * n  # acc[d]: the AND of the masks of the options before d
    its = [iter(pairs[0])] + [None] * last
    d = p = 0  # p: the first position set since the last yield
    while d >= 0:
        if d == last:
            a = acc[last]
            d -= 1
            for opt, m in pairs[last]:
                if a & m:
                    state[last] = opt
                    cut = yield p, state
                    p = last
                    if cut is not None:
                        d = cut - 1
                        break
            continue
        for opt, m in its[d]:
            a = acc[d] & m
            if a:
                state[d] = opt
                if d < p:
                    p = d
                d += 1
                acc[d], its[d] = a, iter(pairs[d])
                break
        else:
            d -= 1


def _samples(draws, count: int, seed: int):
    """`count` seeded samples as `(0, state)` pairs, each state a new list.
    A sample takes `draws[d](rng)` at each position d in turn, from one
    generator seeded with `seed`."""
    rng = random.Random(seed)
    for _ in range(count):
        yield 0, [draw(rng) for draw in draws]


def _check_walk(variables, policy: EnumerationPolicy):
    """Raise ResourceError where a domain exceeds MAX_DOMAIN_SIZE, or an
    exhaustive walk the policy's state budget."""
    for var in variables:
        if len(var.domain) > MAX_DOMAIN_SIZE:
            raise ResourceError(
                f"domain of {var.name!r} exceeds the per-variable cap "
                f"({len(var.domain)} > {MAX_DOMAIN_SIZE})")
    if policy.mode != RANDOM_SAMPLE and count_states(variables, policy) > policy.max_states:
        raise ResourceError(
            f"{count_states(variables, policy)} knowledge states exceed the "
            f"budget of {policy.max_states}")


def _knowledge_walk(variables, policy: EnumerationPolicy, fit=None):
    """The knowledge states of `policy` as `(p, subdomains)` pairs, one
    subdomain per variable in order. Exhaustive modes run `_odometer` over
    each variable's subdomains, with `fit(d, subdomain)` as the mask of
    each option at position d where `fit` is given; random-sample mode
    draws one mask per variable with `_samples`, seeded with `policy.seed`.
    Raises the errors of `_check_walk` before it builds anything.
    """
    _check_walk(variables, policy)
    doms = [var.domain for var in variables]

    def subdomain(dom, mask):
        return frozenset(val for i, val in enumerate(dom) if (mask >> i) & 1)

    if policy.mode == RANDOM_SAMPLE:
        def draw(dom):
            return lambda rng: subdomain(dom, rng.randrange(1, 2 ** len(dom)))
        return _samples([draw(dom) for dom in doms], policy.sample_count, policy.seed)
    if policy.mode == FULL_SUBDOMAINS:
        options = [[subdomain(dom, mask) for mask in range(1, 2 ** len(dom))] for dom in doms]
    else:  # assignment-style: unrestricted, or assigned to one value
        options = [[frozenset(dom)] + [frozenset((val,)) for val in dom] for dom in doms]
    return _odometer(options, fit and [[fit(d, opt) for opt in opts]
                                       for d, opts in enumerate(options)])


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

    def to_json(self) -> str:
        """The verdict as JSON: `check`, `counterexamples` (each as
        `counterexample_json`), `outcome`, `policy` and `states_checked`,
        indented by 2 with sorted keys, as `json.dumps` writes it, and a
        newline; the pieces of `json_chunks` joined."""
        return "".join(self.json_chunks())

    def json_chunks(self):
        """`to_json` in pieces, one per counterexample, so that a long
        verdict can be written out without being held as one string.

        Built without the pure-Python indenting encoder: each variable's
        indented `"name": [labels]` block is rendered once per subdomain,
        into that variable's memo, and a box joins its blocks in
        sorted-name order (the last variable of a repeated name wins, as in
        the dict)."""
        order = sorted({var.name: var for var in self.source_vars}.values(),
                       key=lambda var: var.name)
        memos = [(var, {}) for var in order]

        def box(b):
            if b.inconsistent:
                return '{\n        "inconsistent": true\n      }'
            domains = b._domains
            lines = []
            for var, memo in memos:
                dom = domains[var.id]
                block = memo.get(dom)
                if block is None:  # a consistent box has no empty domain
                    name, labels = self._entry(var, dom)
                    items = ",\n          ".join(map(json.dumps, labels))
                    block = memo[dom] = f"        {json.dumps(name)}: [\n          {items}\n        ]"
                lines.append(block)
            return "{\n" + ",\n".join(lines) + "\n      }" if lines else "{}"

        yield f'{{\n  "check": {json.dumps(self.check)},\n  "counterexamples": '
        if not self.counterexamples:
            yield "[]"
        else:
            sep = "[\n"
            for ce in self.counterexamples:
                yield (f'{sep}    {{\n      "kind": {json.dumps(ce.kind)},\n'
                       f'      "knowledge": {box(ce.knowledge)},\n'
                       f'      "source_deduction": {box(ce.deduced_source)},\n'
                       f'      "target_deduction_mapped_back": {box(ce.deduced_back)}\n    }}')
                sep = ",\n"
            yield "\n  ]"
        yield (f',\n  "outcome": "{"pass" if self.passed else "fail"}",\n'
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


def _check_source(source, channel: ChannelMap):
    """The precondition of every entry point: the source is one Constraint
    that `Network` accepts over the channel's variables. So those are
    distinct, and the scope lies among them without a repeat."""
    if not isinstance(source, Constraint):
        raise UsageError(f"the source must be one Constraint, got {type(source).__name__}")
    Network(channel.source_vars, [source])


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


def map_back(channel: ChannelMap, payload, doms) -> DomainBox:
    """Project a target deduction back onto the knowledge state `doms`, one
    subdomain per source variable in channel order.

    `payload` is the target engine's output: for CNF channels a pair
    `(true, bit)`, the truth masks of `UnitPropagator.propagate_batch` and
    the state's bit in them, for network channels the target DomainBox, and
    None for a target inconsistency, which maps to the source inconsistent
    state. A value of `doms` survives unless the target refutes its image,
    read from the channel's table `backs`: for CNF, unless the state's bit
    is set in the mask of the value's refuting literal. Auxiliary variables
    are ignored.
    """
    if payload is None:
        return DomainBox.bottom()
    cnf = channel.kind == ChannelMap.CNF
    if cnf:
        true, bit = payload
    domains = {}
    for var, dom, back in zip(channel.source_vars, doms, channel.backs):
        if cnf:
            keep = [value for value in dom if not true[back[value]] & bit]
        else:
            keep = [value for value in dom if back[value][1] in payload.domain(back[value][0])]
        if not keep:
            return DomainBox.bottom()
        # the state's own subdomain where nothing was refuted
        domains[var.id] = dom if len(keep) == len(dom) else frozenset(keep)
    return DomainBox._raw(domains)


class _Target:
    """The target side of every check. `deduce_back` judges a list of
    knowledge states at once, each a list of one subdomain per source
    variable in channel order, and depends on no earlier call.

    `refuted_depth` follows a walk instead. It takes a depth p and the
    walk's state `doms`, equal to the last `refuted_depth` call's before p:
    the walk's p from `_assignments` (0 where it skips states). The engine
    extends that prefix by object identity, remapping an equal subdomain
    that is another object, and maps only the depths past it: assumption
    literals for a CNF target, which one `UnitPropagator` holds on its
    trail, keeping the prefix's `ends[q]`; `(tvid, removed, pinned)`
    triples for a network, whose box `_target_box` builds from
    `map_knowledge`'s list. `ends[d]` counts the images of the first d
    subdomains."""

    def __init__(self, enc: Encoding):
        self.channel, self.target = enc.channel, enc.target
        self.prop = None if isinstance(enc.target, Network) else UnitPropagator(enc.target)
        self.doms, self.ends = [], [0]  # the subdomains mapped; ends[d]: images of doms[:d]
        self.mapped = []  # a network target's images

    def _map(self, p: int, doms):
        """The images of `doms[q:]` and `ends[q]`, for the depth q of the
        shared prefix: the arguments of `UnitPropagator.propagate`."""
        old, ends, image = self.doms, self.ends, self.channel.image
        q = min(p, len(old))
        while q < len(old) and old[q] is doms[q]:
            q += 1
        del ends[q + 1:]
        new, end = [], ends[q]
        for d in range(q, len(doms)):
            new += image(d, doms[d])
            ends.append(end + len(new))
        old[q:] = doms[q:]
        return new, end

    def _box(self, p: int, doms) -> DomainBox:
        """A network target's initial box under the images of `doms`."""
        new, end = self._map(p, doms)
        del self.mapped[end:]
        self.mapped += new
        return _target_box(self.target, self.mapped)

    def deduce_back(self, states) -> list[DomainBox]:
        """The target's deduction from each knowledge state of the list
        `states`, mapped back onto it. A CNF target propagates them all in
        one `UnitPropagator.propagate_batch`, state i on bit i, with each
        position's image looked up once per subdomain, and `map_back` reads
        state i as `(true, 1 << i)`, or None on its conflict bit; a state
        that keeps all its values maps back to itself without it. A network
        target closes the box of each state in turn."""
        channel, image = self.channel, self.channel.image
        if self.prop is None:
            backs = []
            for doms in states:
                box = _target_box(self.target, [triple for d, dom in enumerate(doms)
                                                for triple in image(d, dom)])
                result = gac_closure(self.target, box)
                backs.append(map_back(channel, None if result.inconsistent else result.box, doms))
            return backs
        by_dom = [defaultdict(int) for _ in channel.source_vars]
        for at, column in zip(by_dom, zip(*states)):  # per position: subdomain -> its states' bits
            for i, dom in enumerate(column):
                at[dom] |= 1 << i
        assume = defaultdict(int)
        for d, at in enumerate(by_dom):
            for dom, bits in at.items():
                for lit in image(d, dom):
                    assume[lit] |= bits
        true, conflict = self.prop.propagate_batch(assume, len(states))
        touched = conflict  # the states where the target refutes a value of theirs
        for at, back in zip(by_dom, channel.backs):
            for dom, bits in at.items():
                for value in dom:
                    touched |= true[back[value]] & bits
        vids = [var.id for var in channel.source_vars]
        return [map_back(channel, None if conflict >> i & 1 else (true, 1 << i), doms)
                if touched >> i & 1 else DomainBox._raw(dict(zip(vids, doms)))
                for i, doms in enumerate(states)]

    def refuted_depth(self, p: int, doms, search=True) -> int | None:
        """None if the target is satisfiable (without `search`: if its
        propagation is consistent) under the images of `doms`, else a depth d
        whose prefix `doms[:d]` already refutes it: on a unit propagation
        conflict, the depth of the literal that failed, else all of `doms`.
        A conflict keeps only the depths whose literals all held, as the
        propagator does, so `len(ends)` is the depth of the literal that
        failed."""
        prop, ends = self.prop, self.ends
        if prop is None:
            box = self._box(p, doms)
            sat = (solve_brute_force(self.target, box).sat if search
                   else not gac_closure(self.target, box).inconsistent)
        elif prop.propagate(*self._map(p, doms)) is None:
            f = bisect_right(ends, len(prop.assumed))
            del ends[f:], self.doms[f - 1:]
            return f
        else:  # no conflict; search only if the trail leaves a variable open
            sat = not search or len(prop.trail) == prop.num_vars or sat_solve(prop, prop.assumed).sat
        return None if sat else bisect_left(ends, ends[-1])


def _drive(walk, judge):
    """The one check loop: `judge(p, state)` for each step of the iterator
    `walk` returns a finding (a Counterexample, say) or None, or a depth c
    where no later state that shares the state's first c positions has a
    finding either; c is sent to the walk, an `_odometer`, which skips
    those states. Returns the walk's steps and the findings in walk order."""
    found, steps, cut = [], 0, None
    while True:
        try:
            p, state = next(walk) if cut is None else walk.send(cut)
        except StopIteration:
            return steps, found
        steps += 1
        cut = judge(p, state)
        if cut is not None and type(cut) is not int:
            found.append(cut)
            cut = None


def _in_chunks(states, judge):
    """`(state, finding)` for each state of the iterable `states`, in
    order, where `judge` gives the findings of a list of CHUNK states at a
    time (fewer at the end). Each state is copied as it is read, since the
    odometer changes one list in place."""
    states = iter(states)
    while chunk := [list(state) for state in islice(states, CHUNK)]:
        yield from zip(chunk, judge(chunk))


def _knowledge_judge(source, enc: Encoding, kind: str, skip, holds):
    """The `judge` of a knowledge check, for `_in_chunks`: a Counterexample
    of `kind` or None for each state K of a list. The source filter gives
    its deduction src; the target side is skipped where `skip(K, src)`,
    and otherwise K fails where `holds(src, back)` does not, for the
    target's mapped-back deduction back. One `_Target.deduce_back` judges
    the list's states that it asks about."""
    engine, vids = _Target(enc), [var.id for var in enc.channel.source_vars]

    def judge(states):
        found, asked = [None] * len(states), []
        for i, state in enumerate(states):
            knowledge = DomainBox._raw(dict(zip(vids, state)))
            src = gac_filter(source, knowledge).box
            if not skip(knowledge, src):
                asked.append((i, knowledge, src))
        for (i, knowledge, src), back in zip(asked, engine.deduce_back(
                [states[i] for i, _, _ in asked])):
            if not holds(src, back):
                found[i] = Counterexample(kind, knowledge, src, back)
        return found
    return judge


def _drive_knowledge(enc: Encoding, policy, judge, check: str, certificate,
                     inside) -> Verdict:
    """`_drive` over the knowledge walk of `policy` (auto if None), whose
    states `_in_chunks` judges with `judge`. Under an exhaustive policy
    `certificate(mode)` gives only its failing states F, as lists, and
    every counterexample K has one with `inside(K[d], F[d])` at every
    position d; the walk visits only such K, with one `_odometer` mask bit
    per F, and counts every state of the policy. With no F it is empty and
    unbuilt. A random-sample policy walks every sample. Budget and
    domain-cap errors come out before any state is judged."""
    svars = enc.channel.source_vars
    if policy is None:
        policy = auto_policy(svars)
    _check_walk(svars, policy)

    def drive(walk):  # `_drive` over the walk, its judge taking each state's finding in turn
        found = deque()

        def judged():
            for state, f in _in_chunks((state for _, state in walk), judge):
                found.append(f)
                yield 0, state
        return _drive(judged(), lambda p, state: found.popleft())
    if policy.mode != RANDOM_SAMPLE:
        failing = [{} for _ in svars]  # per position: F[d] -> the bits of its states
        bit = 1  # the next failing state's
        for state in certificate(policy.mode):
            for at, dom in zip(failing, state):
                at[dom] = at.get(dom, 0) | bit
            bit <<= 1
        walk = iter(()) if bit == 1 else _knowledge_walk(svars, policy, lambda d, opt: sum(
            bits for dom, bits in failing[d].items() if inside(opt, dom)))
        return Verdict(count_states(svars, policy), drive(walk)[1], policy.mode, check, svars)
    return Verdict(*drive(_knowledge_walk(svars, policy)), policy.mode, check, svars)


def _maximal_states(source, svars, mode: str):
    """The certificate of `check_gac_reduction` under the exhaustive policy
    `mode`: every walk state that is maximal, among the walk's states, for
    some value having no support, each a new list, with the variables
    outside the scope free. `_count_placements` gives them for a Clause,
    Card or Xor over distinct variables, from the counts of
    `maximal_gap_counts`, and `_hitting_sets` for any other source.

    A value of a variable outside the scope has no support exactly where
    the source is inconsistent, so where the channel holds one, or the
    scope is empty, the maximal inconsistent states join in (with a
    non-empty scope they add nothing the argument needs: a gap at an
    inconsistent state keeps an unsupported scope value too).
    """
    outside = len(svars) > len(source.scope) or not source.scope
    counts = maximal_gap_counts(source, outside)
    if counts is None:
        return _hitting_sets(source, svars, mode, outside)
    return _count_placements(source, svars, counts)


def _count_placements(source, svars, counts):
    """`_maximal_states` for a Clause, Card or Xor over distinct variables,
    lazily. State K fixes t of the n literals true and f false, and
    `counts` holds the pairs `(t, f)` of the maximal states; one-step
    enlargement frees one fixed literal. Each pair is yielded in every
    placement. Over Booleans both exhaustive families are one, and the
    counts give the states without enumerating solutions (a Card over 20
    variables can have about 10^6)."""
    lit_of = {lit_var(lit): lit for lit in source.lits}
    lits = [lit_of.get(var.id) for var in svars]
    scoped = [d for d, lit in enumerate(lits) if lit is not None]
    free = [frozenset(var.domain) for var in svars]
    fixed = {d: (frozenset((lit_false_value(lits[d]),)), frozenset((lit_truth_value(lits[d]),)))
             for d in scoped}
    for t, f in counts:
        for trues in combinations(scoped, t):
            rest = [d for d in scoped if d not in trues]
            for falses in combinations(rest, f):
                state = list(free)
                for d in trues:
                    state[d] = fixed[d][1]
                for d in falses:
                    state[d] = fixed[d][0]
                yield state


def _bits(mask: int):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _hitting_sets(source, svars, mode: str, outside: bool):
    """`_maximal_states` for any source, lazily. The states where a scope
    value (k, v) has no support avoid every source solution s with s[k] =
    v, so the maximal ones are the minimal hitting sets of those solutions,
    built from elements (y, a) with y != k. In assignment style (y, a)
    means "y := a" and hits s where s[y] != a, at most one per y; over full
    subdomains it means "remove a from y" and hits s where s[y] = a, and no
    y loses its whole domain. So for non-Boolean variables the two families
    differ: a one-step enlargement frees one assigned variable in the first
    and adds back one value in the second. The maximal inconsistent states,
    which join in where `outside` is set, are the minimal hitting sets of
    all solutions.

    One search serves both families and every value: `_mmcs` over all
    solutions, whose leaves N are the minimal hitting sets of them all (the
    minimal nogoods in assignment style), and one rule reads the states off
    each N. For a scope variable k let K be N without its elements on k.
    Those hit the solutions s with s[k] in a set S of k's values that
    leaves some value out (the caps keep one), and the masks `crit` at the
    leaf hold each element's private solutions: K's are the ones disjoint
    from those hit on k (`rest`). K is maximal for (k, v) iff it hits the
    solutions with s[k] = v minimally, so iff every mask of `rest` meets
    them. That puts v outside S, unless K is empty, where a value outside
    S passes too. The rule finds every such K: K together with "k
    restricted to v" hits every solution, so it holds a minimal N, and N
    holds K, since K's private solutions have s[k] = v, which no element
    on k hits there. A variable that N leaves free gives K = N; one that N
    assigns, in assignment style, always passes with v its value, so N
    gives N - e for each e in N. A state reached from several leaves or
    variables is yielded once.

    `source.solutions` lists the solutions in product order; bit j of every
    mask is solution j, so that order fixes MMCS's tie-breaks. MMCS grows
    each set once, and each is a walk state on the scope, so the search
    never grows more sets than the walk has states."""
    assign = mode == ASSIGNMENT_STYLE
    at = {var.id: d for d, var in enumerate(svars)}
    pos = [at[vid] for vid in source.scope]
    doms = [svars[d].domain for d in pos]
    sols = source.solutions(doms)
    elems = [(i, a) for i, dom in enumerate(doms) for a in dom]
    index = {elem: e for e, elem in enumerate(elems)}
    owns = [[index[elem] for elem in enumerate(s)] for s in sols]  # s's elements (i, s[i])
    eq = [0] * len(elems)  # per element (i, a): the solutions with s[i] = a
    for j, own in enumerate(owns):
        for e in own:
            eq[e] |= 1 << j
    every = (1 << len(elems)) - 1 if assign else 0
    hitters = [sum(1 << e for e in own) ^ every for own in owns]
    hits = [m ^ ((1 << len(sols)) - 1) for m in eq] if assign else eq
    of_var = [sum(1 << e for e, (i, _) in enumerate(elems) if i == k) for k in range(len(doms))]
    eqs = [[eq[e] for e in _bits(x)] for x in of_var]  # per variable: eq of each value
    cap = [1 if assign else len(dom) - 1 for dom in doms]  # elements per variable

    def spent(grown, e):  # the elements barred once `grown` holds e
        i = elems[e][0]
        return of_var[i] if (grown & of_var[i]).bit_count() == cap[i] else 0

    usable = sum(of_var[k] for k in range(len(doms)) if cap[k])
    full = [frozenset(var.domain) for var in svars]
    seen = set()
    for chosen, crit in _mmcs((1 << len(sols)) - 1, usable, 0, [], hits, hitters, spent):
        found = [chosen] if outside else []
        for on_k, eqs_k in zip(of_var, eqs):
            kept = chosen & ~on_k
            if kept in seen or kept in found:
                continue
            h = 0  # the solutions hit on k
            for e in _bits(chosen & on_k):
                h |= hits[e]
            rest = [c for c in crit if not c & h]
            if any(all(c & m for c in rest) for m in eqs_k):
                found.append(kept)
        for kept in found:
            if kept in seen:
                continue
            seen.add(kept)
            state = list(full)
            for k, d in enumerate(pos):
                vals = {elems[e][1] for e in _bits(kept & of_var[k])}
                if vals:
                    state[d] = frozenset(vals) if assign else full[d] - vals
            yield state


def _mmcs(uncov, cand, chosen, crit, hits, hitters, spent):
    """MMCS (Murakami & Uno, DAM 2014), lazily: the minimal hitting sets of
    the solutions in the mask `uncov` that add elements of the mask `cand`
    to `chosen`, as pairs of an element mask and its `crit`. `hits[e]` is
    the mask of the solutions element e hits and `hitters[j]` the mask of
    the elements that hit solution j; `crit` holds, per chosen element, the
    solutions only it hits, and `spent(grown, e)` the elements barred once
    `grown` holds e. Branches on the uncovered solution with the fewest
    candidates, and keeps every chosen element critical. It recurses at
    module level: a nested function that calls itself is a reference
    cycle, which keeps a finished check's tables alive until the cyclic
    collector runs."""
    if not uncov:
        yield chosen, crit
        return
    branch = min((cand & hitters[j] for j in _bits(uncov)), key=int.bit_count)
    cand &= ~branch
    for e in _bits(branch):
        kept = [c & ~hits[e] for c in crit]
        if all(kept):
            grown = chosen | 1 << e
            yield from _mmcs(uncov & ~hits[e], cand & ~spent(grown, e), grown,
                             kept + [hits[e] & uncov], hits, hitters, spent)
        cand |= 1 << e


def check_gac_reduction(source, enc: Encoding,
                        policy: EnumerationPolicy | None = None) -> Verdict:
    """Completeness check: for every knowledge state, the mapped-back target
    deduction must be a restriction of (at least as strong as) the source
    deduction. Records a completeness gap per offending state.

    Where the source deduces nothing (its filter hands back K itself) the
    target side is skipped: the mapped-back deduction keeps only values of
    K, so it restricts K whatever the target deduces.

    A pass is certified from the source's maximal deducing states
    (`_maximal_states`) before any walk, under four premises: the source
    filter is GAC; the target engine is sound and monotone in K (unit
    propagation and `gac_closure` derive only consequences, and no fewer
    from more knowledge); a channel image only weakens as a subdomain
    grows; and the policy is exhaustive, so that the walk holds every
    enlargement of a state. A gap at K is a value v in K that the source
    removes and the mapped-back target keeps (for a source bottom, every
    variable keeps one). Let K* ⊇ K be a walk state where v still has no
    support and that no one-step enlargement leaves so: the target at K*
    deduces no more than at K, so it keeps v there too. Hence the walk
    passes iff every such maximal state does (the standard reduction for
    propagation completeness: Bordeaux & Marques-Silva, SOFSEM 2012;
    Babka et al., AIJ 2013). For a Clause, Card or Xor over distinct
    variables the maximal states come from literal counts, for any other
    source from the minimal hitting sets of its solutions. For non-Boolean
    variables the two exhaustive families have different one-step
    enlargements (free an assigned variable, add back one value), and so
    different maximal states.

    Read backwards, the same argument bounds where a gap can be: the gap at
    K lies inside the failing maximal state K*. So where certificate
    states fail, the walk visits only the states K with K ⊆ F, position by
    position, for some failing F, and lists every gap there. Random-sample
    policies always walk.
    """
    _check_source(source, enc.channel)
    judge = _knowledge_judge(  # bottom is the strongest deduction
        source, enc, COMPLETENESS_GAP, lambda knowledge, src: src is knowledge,
        lambda src, back: is_restriction(back, src))
    return _drive_knowledge(enc, policy, judge, "gac-reduction", lambda mode: (
        state for state, found in _in_chunks(
            _maximal_states(source, enc.channel.source_vars, mode), judge) if found),
                            frozenset.issubset)


def check_soundness(source, enc: Encoding,
                    policy: EnumerationPolicy | None = None) -> Verdict:
    """Guard against over-pruning: the target may not refute a value that
    still extends to a source solution inside the knowledge state. Records
    a soundness violation per offending state.

    The source filter is GAC, so the values it keeps in K are exactly those
    that extend to a source solution inside K. The target over-prunes iff
    the source deduction is not a restriction of the mapped-back one: the
    mirror of `check_gac_reduction`'s test. Where the source refutes K no
    value extends, and the target side is skipped.

    A pass is certified before any walk from every complete channel
    assignment the source accepts, as a state of singletons. Say the
    target removes a value v of x at K (or refutes K) while the source
    keeps v. The source filter is GAC, so v extends to a source solution s
    inside K with s(x) = v. The target engine is monotone in K and a
    channel image only strengthens as a subdomain shrinks, so the target
    refutes v at s too, and s, which the source keeps whole, is a
    violation. So the walk passes iff every accepted assignment does; as
    in Bessiere, Katsirelos, Narodytska & Walsh (IJCAI 2009), soundness is
    judged apart from propagation strength. The source keeps an accepted
    assignment whole, and a target propagation that does not conflict keeps
    every pinned image, so it fails iff the target's propagation refutes
    it: the certificate is `_assignments` without search. Read backwards,
    a violation at K repeats at the failing s inside K, so the walk visits
    only the states K ⊇ s, position by position, for some failing s.
    """
    _check_source(source, enc.channel)
    judge = _knowledge_judge(
        source, enc, SOUNDNESS_VIOLATION, lambda knowledge, src: src.inconsistent,
        lambda src, back: is_restriction(src, back))
    return _drive_knowledge(enc, policy, judge, "soundness", lambda mode: _assignments(
        source, enc, lambda s, state: list(state) if s else None, search=False),
                            frozenset.issuperset)


def _assignments(source, enc, found, sampler=None, search=True):
    """The findings of `_drive` over the complete source assignments as
    singleton states, on their odometer or `sampler`'s samples: `found(s,
    state)` where the answer s of `accepts` is not the target's, which holds
    where `_Target.refuted_depth(p, state, search)` is None. A refuted
    prefix refutes every extension, so the target is asked again only where
    p lies before the refuted depth f. On the odometer, where f < n, the GAC
    `gac_filter` is bottom on the prefix's box (full domains from f on)
    exactly where no source solution extends the prefix (Bessiere, Handbook
    of CP 2006); then the walk skips every extension. Without `search` only
    an accepted state is a finding, and a network target (refuted depth n)
    cuts nothing, so it is asked only where the source, asked first, accepts."""
    svars, engine = enc.channel.source_vars, _Target(enc)
    options = [[frozenset((val,)) for val in var.domain] for var in svars]
    walk = _samples(
        [lambda rng, opts=opts: rng.choice(opts) for opts in options],
        sampler.sample_count, sampler.seed) if sampler else _odometer(options)
    n, vids = len(svars), [var.id for var in svars]
    scope_pos = [vids.index(vid) for vid in source.scope]
    full = [frozenset(var.domain) for var in svars]
    values = [None] * n
    tgt_fail = None  # the length of a prefix that refutes the target; None while it holds
    ask = search or engine.prop is not None  # ask the target before the source

    def judge(p, state):
        nonlocal tgt_fail
        for d in range(p, n):
            (values[d],) = state[d]  # the one value of a singleton
        if tgt_fail is None or tgt_fail > p:
            if not (ask or source.accepts([values[i] for i in scope_pos])):
                return None  # a network target skipped: the next call shares no prefix
            f = tgt_fail = engine.refuted_depth(p if ask else 0, state, search)
            if not sampler and f is not None and f < n and gac_filter(source, DomainBox._raw(
                    dict(zip(vids, state[:f] + full[f:])))).inconsistent:
                return f  # neither side has a solution below state[:f]
        s = source.accepts([values[i] for i in scope_pos])
        if s != (tgt_fail is None):
            return found(s, state)
    return _drive(walk, judge)[1]


def check_equiconsistency(source, enc: Encoding, sampler=None) -> Verdict:
    """Source and target must be satisfiable on exactly the same complete
    source assignments. Exhaustive by default, up to EQUICONSISTENCY_BUDGET
    assignments; pass an EnumerationPolicy in random-sample mode to
    spot-check instead (any other mode is a UsageError).

    The walk is `_assignments` with search: `sat_solve` only where unit
    propagation leaves a target variable open, a network target solved per
    assignment. Skipped extensions still count.
    """
    _check_source(source, enc.channel)
    svars = enc.channel.source_vars
    vids = [var.id for var in svars]
    total = math.prod(len(var.domain) for var in svars)
    if not sampler and total > EQUICONSISTENCY_BUDGET:
        raise ResourceError(f"{total} complete assignments exceed the "
                            f"budget of {EQUICONSISTENCY_BUDGET}")
    if sampler and sampler.mode != RANDOM_SAMPLE:
        raise UsageError(f"equiconsistency samples only in {RANDOM_SAMPLE!r} mode")

    def mismatch(s, state):
        box, bottom = DomainBox._raw(dict(zip(vids, state))), DomainBox.bottom()
        return Counterexample(CONSISTENCY_MISMATCH, box, box if s else bottom, bottom if s else box)
    return Verdict(sampler.sample_count if sampler else total,
                   _assignments(source, enc, mismatch, sampler),
                   RANDOM_SAMPLE if sampler else EXHAUSTIVE_ASSIGNMENTS, "equiconsistency", svars)


def replay(source, enc: Encoding, knowledge: DomainBox) -> tuple[DomainBox, DomainBox]:
    """Re-run both pipelines on one knowledge state; returns (D_source, D_back).

    Counterexamples are replayable: feeding a recorded K back through here
    reproduces the recorded deductions exactly.
    """
    _check_source(source, enc.channel)
    doms = [knowledge.domain(var.id) for var in enc.channel.source_vars]
    return gac_filter(source, knowledge).box, _Target(enc).deduce_back([doms])[0]
