"""Mechanical propagation-strength checking.

The operational criterion: enumerate knowledge states K over the source
variables; propagate K on the source side (domain-consistency enforcement)
and, translated through the channel, on the target side; map the target
deduction back; the translation passes if the mapped-back deduction is at
least as strong (a restriction of) the source deduction for every K, with
the inconsistent state as the unique strongest deduction.

Soundness is the guard in the other direction: the target must not refute
values that still extend to source solutions. Equiconsistency compares
satisfiability over complete source assignments.

Knowledge states are independent work items; results aggregate in
enumeration order, so any evaluation schedule yields the same verdict.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

from .model import (
    ChannelMap, Constraint, DomainBox, Network, ResourceError, UsageError,
    Variable, is_restriction, map_knowledge,
)
from .propagation import (
    UnitPropagator, gac_closure, gac_filter, sat_solve, solve_brute_force,
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


def enumerate_knowledge_states(variables, policy: EnumerationPolicy | None = None):
    """Deterministically ordered stream of DomainBox knowledge states."""
    if policy is None:
        policy = auto_policy(variables)
    for var in variables:
        if len(var.domain) > policy.max_domain_size:
            raise ResourceError(
                f"domain of {var.name!r} exceeds the per-variable cap "
                f"({len(var.domain)} > {policy.max_domain_size})")
    if policy.mode != RANDOM_SAMPLE and count_states(variables, policy) > policy.max_states:
        raise ResourceError(
            f"{count_states(variables, policy)} knowledge states exceed the "
            f"budget of {policy.max_states}")
    vids = [v.id for v in variables]
    if policy.mode == RANDOM_SAMPLE:
        rng = random.Random(policy.seed)
        doms = [v.domain for v in variables]
        for _ in range(policy.sample_count):
            state = {}
            for vid, dom in zip(vids, doms):
                mask = rng.randrange(1, 2 ** len(dom))
                state[vid] = frozenset(
                    val for i, val in enumerate(dom) if (mask >> i) & 1)
            yield DomainBox._raw(state)
        return
    options = []
    for var in variables:
        dom = var.domain
        if policy.mode == FULL_SUBDOMAINS:
            subs = [frozenset(val for i, val in enumerate(dom) if (mask >> i) & 1)
                    for mask in range(1, 2 ** len(dom))]
        else:  # assignment-style: unrestricted, or assigned to one value
            subs = [frozenset(dom)] + [frozenset((val,)) for val in dom]
        options.append(subs)
    for combo in itertools.product(*options):
        yield DomainBox._raw(dict(zip(vids, combo)))


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

    def _box_json(self, box: DomainBox):
        if box.inconsistent:
            return {"inconsistent": True}
        return {var.name: [var.label(v) for v in sorted(box.domain(var.id))]
                for var in self.source_vars}

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "outcome": "pass" if self.passed else "fail",
            "states_checked": self.states_checked,
            "policy": self.policy_mode,
            "counterexamples": [
                {
                    "kind": ce.kind,
                    "knowledge": self._box_json(ce.knowledge),
                    "source_deduction": self._box_json(ce.deduced_source),
                    "target_deduction_mapped_back": self._box_json(ce.deduced_back),
                }
                for ce in self.counterexamples
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

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
    removals, pins = mapped
    domains = {}
    for var in target.variables:
        dom = set(var.domain)
        dom -= removals.get(var.id, set())
        if var.id in pins:
            dom &= pins[var.id]
        if not dom:
            return DomainBox.bottom()
        domains[var.id] = frozenset(dom)
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
        keep = set()
        for value in (var.domain if base is None else base.domain(vid)):
            image = forward[(vid, value)]
            if cnf:
                iv = payload[image] if image > 0 else payload[-image]
                if iv is None or iv == (image > 0):
                    keep.add(value)
            elif image[1] in payload.domain(image[0]):
                keep.add(value)
        if not keep:
            return DomainBox.bottom()
        domains[vid] = frozenset(keep)
    return DomainBox._raw(domains)


class _CnfTarget:
    def __init__(self, enc: Encoding):
        self.channel = enc.channel
        self.formula = enc.target
        self.prop = UnitPropagator(enc.target)

    def deduce_back(self, knowledge: DomainBox) -> DomainBox:
        values = self.prop.propagate(map_knowledge(self.channel, knowledge))
        return map_back(self.channel, values, base=knowledge)

    def satisfiable(self, assignment: DomainBox) -> bool:
        return sat_solve(self.formula, map_knowledge(self.channel, assignment)).sat


class _NetworkTarget:
    def __init__(self, enc: Encoding):
        self.channel = enc.channel
        self.network = enc.target

    def deduce_back(self, knowledge: DomainBox) -> DomainBox:
        start = _target_box(self.network, map_knowledge(self.channel, knowledge))
        result = gac_closure(self.network, start)
        return map_back(self.channel, None if result.inconsistent else result.box,
                        base=knowledge)

    def satisfiable(self, assignment: DomainBox) -> bool:
        start = _target_box(self.network, map_knowledge(self.channel, assignment))
        return solve_brute_force(self.network, start).sat


def _target_engine(enc: Encoding):
    return (_NetworkTarget if isinstance(enc.target, Network) else _CnfTarget)(enc)


def _deduce(deduce_source, engine, knowledge: DomainBox) -> tuple[DomainBox, DomainBox]:
    """(D_source, D_back) for one knowledge state."""
    src = deduce_source(knowledge)
    return (DomainBox.bottom() if src.inconsistent else src.box), engine.deduce_back(knowledge)


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
    svars = enc.channel.source_vars
    if policy is None:
        policy = auto_policy(svars)
    return _drive(enumerate_knowledge_states(svars, policy), judge, policy.mode,
                  check, svars)


def check_gac_reduction(source, enc: Encoding,
                        policy: EnumerationPolicy | None = None) -> Verdict:
    """Completeness check: for every knowledge state, the mapped-back target
    deduction must be a restriction of (at least as strong as) the source
    deduction. Records a completeness gap per offending state."""
    deduce_source, engine = _source_propagator(source), _target_engine(enc)

    def judge(knowledge):
        src, back = _deduce(deduce_source, engine, knowledge)
        if not is_restriction(back, src):  # bottom is the strongest deduction
            return Counterexample(COMPLETENESS_GAP, knowledge, src, back)
    return _drive_knowledge(enc, policy, judge, "gac-reduction")


def check_soundness(source, enc: Encoding,
                    policy: EnumerationPolicy | None = None) -> Verdict:
    """Guard against over-pruning: the target may not refute a value that
    still extends to a full source solution inside the knowledge state."""
    deduce_source, engine = _source_propagator(source), _target_engine(enc)
    svars = enc.channel.source_vars
    is_network = isinstance(source, Network)

    def extends(knowledge):
        return not is_network or solve_brute_force(source, knowledge).sat

    def judge(knowledge):
        src = deduce_source(knowledge)
        if src.inconsistent:
            return None  # nothing extends to a solution; no over-pruning possible
        back = engine.deduce_back(knowledge)
        if back.inconsistent:
            violated = extends(knowledge)
        else:
            violated = any(extends(knowledge.assign(var.id, value)) for var in svars
                           for value in sorted(src.box.domain(var.id) - back.domain(var.id)))
        if violated:
            return Counterexample(SOUNDNESS_VIOLATION, knowledge, src.box, back)
    return _drive_knowledge(enc, policy, judge, "soundness")


def check_equiconsistency(source, enc: Encoding, sampler=None,
                          budget: int = 1 << 20) -> Verdict:
    """Source and target must be satisfiable on exactly the same complete
    source assignments. Exhaustive by default; pass an EnumerationPolicy in
    random-sample mode to spot-check instead."""
    svars = enc.channel.source_vars
    engine = _target_engine(enc)
    net = source if isinstance(source, Network) else Network(list(svars), [source])

    if sampler is None:
        total = 1
        for var in svars:
            total *= len(var.domain)
        if total > budget:
            raise ResourceError(
                f"{total} complete assignments exceed the budget of {budget}")
        assignments = itertools.product(*(var.domain for var in svars))
        mode = EXHAUSTIVE_ASSIGNMENTS
    else:
        rng = random.Random(sampler.seed)
        assignments = (
            tuple(rng.choice(var.domain) for var in svars)
            for _ in range(sampler.sample_count))
        mode = RANDOM_SAMPLE

    vids = [v.id for v in svars]
    boxes = (DomainBox._raw({vid: frozenset((val,)) for vid, val in zip(vids, values)})
             for values in assignments)

    def judge(box):
        s = solve_brute_force(net, box).sat
        t = engine.satisfiable(box)
        if s != t:
            return Counterexample(CONSISTENCY_MISMATCH, box,
                                  box if s else DomainBox.bottom(),
                                  box if t else DomainBox.bottom())
    return _drive(boxes, judge, mode, "equiconsistency", svars)


def replay(source, enc: Encoding, knowledge: DomainBox) -> tuple[DomainBox, DomainBox]:
    """Re-run both pipelines on one knowledge state; returns (D_source, D_back).

    Counterexamples are replayable: feeding a recorded K back through here
    reproduces the recorded deductions exactly.
    """
    return _deduce(_source_propagator(source), _target_engine(enc), knowledge)
