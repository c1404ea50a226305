"""Naive reference for the benchmark's expected answers.

Rebuilds a checker verdict from first principles so that the committed
expected answers do not rest on the fast paths they are used to check:

* source side: `gac_oracle`, which enumerates supports tuple by tuple;
* CNF target side: a clause-scan unit-propagation fixpoint (no watches)
  and, for satisfiability, plain branching on top of it;
* network target side: a fixpoint of `gac_oracle` over every constraint,
  and for satisfiability a product enumeration of the target domains;
* equiconsistency: a product enumeration of the complete source
  assignments.

The verdict JSON is rebuilt in the program's documented layout, so its
sha256 can be compared byte for byte with the program's output.
"""

from __future__ import annotations

import itertools
import json

from gackit.model import ChannelMap, DomainBox
from gackit.propagation import CnfFormula, gac_oracle

STATE_BUDGET = 1_000_000


def knowledge_states(variables):
    """(policy name, list of per-variable option lists) as the checker's
    automatic policy chooses them: every non-empty subdomain while that fits
    the state budget, else unrestricted-or-assigned."""
    full = 1
    for var in variables:
        full *= 2 ** len(var.domain) - 1
    options = []
    if full <= STATE_BUDGET:
        for var in variables:
            dom = var.domain
            options.append([
                frozenset(v for i, v in enumerate(dom) if mask >> i & 1)
                for mask in range(1, 2 ** len(dom))])
        return "full-subdomains", options
    for var in variables:
        options.append([frozenset(var.domain)] + [frozenset((v,)) for v in var.domain])
    return "assignment-style", options


def unit_fixpoint(formula: CnfFormula, assumptions):
    """Unit rule to a fixpoint by rescanning every clause; None on conflict."""
    val = {}
    for lit in assumptions:
        want = lit > 0
        if val.setdefault(abs(lit), want) != want:
            return None
    changed = True
    while changed:
        changed = False
        for clause in formula.clauses:
            open_lits = []
            for lit in clause:
                v = val.get(abs(lit))
                if v is None:
                    open_lits.append(lit)
                elif v == (lit > 0):
                    break
            else:
                if not open_lits:
                    return None
                if len(open_lits) == 1:
                    val[abs(open_lits[0])] = open_lits[0] > 0
                    changed = True
    return val


def cnf_satisfiable(formula: CnfFormula, assumptions) -> bool:
    val = unit_fixpoint(formula, assumptions)
    if val is None:
        return False
    free = next((v for v in range(1, formula.num_vars + 1) if v not in val), None)
    if free is None:
        return True
    return (cnf_satisfiable(formula, list(assumptions) + [-free])
            or cnf_satisfiable(formula, list(assumptions) + [free]))


def network_fixpoint(network, box: DomainBox) -> DomainBox:
    """Apply `gac_oracle` to every constraint until nothing changes."""
    changed = True
    while changed and not box.inconsistent:
        changed = False
        for constraint in network.constraints:
            result = gac_oracle(constraint, box)
            if result.inconsistent:
                return DomainBox.bottom()
            if result.box != box:
                box = result.box
                changed = True
    return box


def network_satisfiable(network, box: DomainBox) -> bool:
    if box.inconsistent:
        return False
    vids = [v.id for v in network.variables]
    doms = [sorted(box.domain(v)) for v in vids]
    for tup in itertools.product(*doms):
        assign = dict(zip(vids, tup))
        if all(c.accepts([assign[v] for v in c.scope]) for c in network.constraints):
            return True
    return False


def _cnf_assumptions(channel: ChannelMap, knowledge: dict):
    lits = []
    for var in channel.source_vars:
        kdom = knowledge[var.id]
        for value in var.domain:
            if value not in kdom:
                lits.append(-channel.forward[(var.id, value)])
        if len(kdom) == 1:
            lits.append(channel.forward[(var.id, next(iter(kdom)))])
    return lits


def _network_box(target, channel: ChannelMap, knowledge: dict) -> DomainBox:
    domains = {v.id: set(v.domain) for v in target.variables}
    pinned = {}
    for var in channel.source_vars:
        kdom = knowledge[var.id]
        for value in var.domain:
            tvid, tval = channel.forward[(var.id, value)]
            if value not in kdom:
                domains[tvid].discard(tval)
            elif len(kdom) == 1:
                pinned.setdefault(tvid, set()).add(tval)
    for tvid, values in pinned.items():
        domains[tvid] &= values
    return DomainBox(domains)


def target_deduction(enc, knowledge: dict) -> DomainBox:
    """Target propagation of K mapped back to the source variables, within K."""
    channel = enc.channel
    if channel.kind == ChannelMap.CNF:
        val = unit_fixpoint(enc.target, _cnf_assumptions(channel, knowledge))
        if val is None:
            return DomainBox.bottom()

        def survives(image):
            v = val.get(abs(image))
            return v is None or v == (image > 0)
    else:
        box = network_fixpoint(enc.target, _network_box(enc.target, channel, knowledge))
        if box.inconsistent:
            return DomainBox.bottom()

        def survives(image):
            return image[1] in box.domain(image[0])
    return DomainBox({var.id: [v for v in knowledge[var.id]
                               if survives(channel.forward[(var.id, v)])]
                      for var in channel.source_vars})


def _box_json(box: DomainBox, variables):
    if box.inconsistent:
        return {"inconsistent": True}
    return {var.name: [var.label(v) for v in sorted(box.domain(var.id))]
            for var in variables}


def _verdict_json(check, states, policy, counterexamples, variables) -> str:
    doc = {
        "check": check,
        "outcome": "fail" if counterexamples else "pass",
        "states_checked": states,
        "policy": policy,
        "counterexamples": [
            {"kind": kind,
             "knowledge": _box_json(k, variables),
             "source_deduction": _box_json(s, variables),
             "target_deduction_mapped_back": _box_json(b, variables)}
            for kind, k, s, b in counterexamples],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def gac_reduction_verdict(constraint, enc) -> str:
    """Verdict JSON of a GAC-reduction check, rebuilt naively."""
    svars = enc.channel.source_vars
    policy, options = knowledge_states(svars)
    ids = [v.id for v in svars]
    gaps = []
    states = 0
    for combo in itertools.product(*options):
        states += 1
        knowledge = dict(zip(ids, combo))
        kbox = DomainBox(knowledge)
        back = target_deduction(enc, knowledge)
        if back.inconsistent:
            continue
        src = gac_oracle(constraint, kbox)
        src_box = DomainBox.bottom() if src.inconsistent else src.box
        if src.inconsistent or any(not back.domain(v) <= src_box.domain(v) for v in ids):
            gaps.append(("completeness-gap", kbox, src_box, back))
    return _verdict_json("gac-reduction", states, policy, gaps, svars)


def equiconsistency_verdict(constraint, enc) -> str:
    """Verdict JSON of an exhaustive equiconsistency check, rebuilt naively."""
    svars = enc.channel.source_vars
    ids = [v.id for v in svars]
    channel = enc.channel
    mismatches = []
    states = 0
    for values in itertools.product(*(v.domain for v in svars)):
        states += 1
        assign = dict(zip(ids, values))
        knowledge = {vid: frozenset((val,)) for vid, val in assign.items()}
        source_sat = constraint.accepts([assign[v] for v in constraint.scope])
        if channel.kind == ChannelMap.CNF:
            target_sat = cnf_satisfiable(enc.target, _cnf_assumptions(channel, knowledge))
        else:
            target_sat = network_satisfiable(
                enc.target, _network_box(enc.target, channel, knowledge))
        if source_sat != target_sat:
            box = DomainBox(knowledge)
            mismatches.append(("consistency-mismatch", box,
                               box if source_sat else DomainBox.bottom(),
                               box if target_sat else DomainBox.bottom()))
    return _verdict_json("equiconsistency", states, "exhaustive-assignments",
                         mismatches, svars)
