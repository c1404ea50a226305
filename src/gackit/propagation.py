"""Propagation engines: per-constraint GAC filtering, network closure via a
FIFO worklist fixpoint, watched-literal unit propagation for CNF, a
brute-force consistency oracle and a small deterministic DPLL solver.

All engines are single-threaded per invocation and hold no global state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import (
    AllDiff, Card, Clause, Constraint, DomainBox, Neq, Network, ResourceError,
    Table, UsageError, Xor, lit_false_value, lit_truth_value, lit_var,
)

FIXPOINT = "fixpoint"
INCONSISTENT = "inconsistent"

DEFAULT_BRUTE_FORCE_BUDGET = 1 << 24


@dataclass
class PropagationResult:
    """Outcome of one propagation run; `box` for networks, `assignment` for CNF."""
    status: str
    box: DomainBox | None = None
    assignment: dict[int, bool] | None = None

    @property
    def inconsistent(self) -> bool:
        return self.status == INCONSISTENT


@dataclass
class SolveResult:
    sat: bool
    # vid -> value for networks, var -> bool for CNF
    model: dict | None = None


class CnfFormula:
    """CNF over variables 1..num_vars; clauses are tuples of signed indices."""

    def __init__(self, num_vars: int = 0, clauses: Iterable[Sequence[int]] = ()):
        self.num_vars = num_vars
        self.clauses: list[tuple[int, ...]] = []
        for cl in clauses:
            self.add_clause(cl)

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits: Sequence[int]):
        cl = tuple(lits)
        for lit in cl:
            if lit == 0 or abs(lit) > self.num_vars:
                raise UsageError(f"literal {lit} out of range for {self.num_vars} variables")
        self.clauses.append(cl)

    def __repr__(self):
        return f"CnfFormula({self.num_vars} vars, {len(self.clauses)} clauses)"


# --- per-constraint GAC ------------------------------------------------------

def gac_oracle(constraint: Constraint, box: DomainBox) -> PropagationResult:
    """Ground-truth domain-consistency filter by explicit support enumeration.

    Keeps value v for scope variable X iff some tuple inside the box
    satisfies the constraint with X=v. Variables outside the scope are
    untouched.
    """
    if box.inconsistent:
        return PropagationResult(INCONSISTENT, box)
    scope = constraint.scope
    doms = [sorted(box.domain(v)) for v in scope]
    supported: list[set[int]] = [set() for _ in scope]
    accepts = constraint.accepts
    for tup in itertools.product(*doms):
        if accepts(tup):
            for i, val in enumerate(tup):
                supported[i].add(val)
    return _apply_scope_domains(box, scope, supported)


def _apply_scope_domains(box: DomainBox, scope, supported) -> PropagationResult:
    if any(not s for s in supported):
        return PropagationResult(INCONSISTENT, DomainBox.bottom())
    domains = box.domains()
    changed = False
    for vid, keep in zip(scope, supported):
        fs = frozenset(keep)
        if fs != domains[vid]:
            domains[vid] = fs
            changed = True
    if not changed:
        return PropagationResult(FIXPOINT, box)
    return PropagationResult(FIXPOINT, DomainBox._raw(domains))


def gac_filter(constraint: Constraint, box: DomainBox) -> PropagationResult:
    """Fast per-variant GAC filter; output contract identical to gac_oracle."""
    if box.inconsistent:
        return PropagationResult(INCONSISTENT, box)
    if isinstance(constraint, Clause):
        return _filter_clause(constraint, box)
    if isinstance(constraint, Card):
        return _filter_card(constraint, box)
    if isinstance(constraint, Xor):
        return _filter_xor(constraint, box)
    if isinstance(constraint, Neq):
        return _filter_neq(constraint, box)
    if isinstance(constraint, AllDiff):
        return _filter_alldiff(constraint, box)
    if isinstance(constraint, Table):
        return _filter_table(constraint, box)
    return gac_oracle(constraint, box)


def _filter_clause(c: Clause, box: DomainBox) -> PropagationResult:
    # Per scope variable, the set of its values that satisfy some literal.
    can_satisfy: dict[int, set[int]] = {v: set() for v in c.scope}
    for lit in c.lits:
        v = lit_var(lit)
        tv = lit_truth_value(lit)
        if tv in box.domain(v):
            can_satisfy[v].add(tv)
    live = [v for v in c.scope if can_satisfy[v]]
    if not live:
        return PropagationResult(INCONSISTENT, DomainBox.bottom())
    if len(live) >= 2:
        return PropagationResult(FIXPOINT, box)
    # Single variable can still satisfy the clause: its domain shrinks to
    # the satisfying values, everyone else keeps theirs.
    supported = [set(box.domain(v)) if v != live[0] else can_satisfy[v]
                 for v in c.scope]
    return _apply_scope_domains(box, c.scope, supported)


def _filter_card(c: Card, box: DomainBox) -> PropagationResult:
    if len(c.scope) != len(c.lits):
        return gac_oracle(c, box)  # repeated variable: counting bound invalid
    fixed_true = 0
    free: list[int] = []
    for lit in c.lits:
        dom = box.domain(lit_var(lit))
        if len(dom) == 2:
            free.append(lit)
        elif lit_truth_value(lit) in dom:
            fixed_true += 1
    t, u = fixed_true, len(free)
    if t > c.hi or t + u < c.lo:
        return PropagationResult(INCONSISTENT, DomainBox.bottom())
    force_false = t + 1 > c.hi          # no free literal may become true
    force_true = t + u - 1 < c.lo       # every free literal must be true
    if not (force_false or force_true) or not free:
        return PropagationResult(FIXPOINT, box)
    domains = box.domains()
    for lit in free:
        value = lit_false_value(lit) if force_false else lit_truth_value(lit)
        domains[lit_var(lit)] = frozenset((value,))
    return PropagationResult(FIXPOINT, DomainBox._raw(domains))


def _filter_xor(c: Xor, box: DomainBox) -> PropagationResult:
    if len(c.scope) != len(c.lits):
        return gac_oracle(c, box)  # duplicate literals cancel; let the oracle decide
    fixed_parity = 0
    free: list[int] = []
    for lit in c.lits:
        dom = box.domain(lit_var(lit))
        if len(dom) == 2:
            free.append(lit)
        elif lit_truth_value(lit) in dom:
            fixed_parity ^= 1
    if not free:
        if fixed_parity == c.parity:
            return PropagationResult(FIXPOINT, box)
        return PropagationResult(INCONSISTENT, DomainBox.bottom())
    if len(free) >= 2:
        return PropagationResult(FIXPOINT, box)
    lit = free[0]
    needed = c.parity ^ fixed_parity  # required truth of the last free literal
    value = lit_truth_value(lit) if needed else lit_false_value(lit)
    domains = box.domains()
    domains[lit_var(lit)] = frozenset((value,))
    return PropagationResult(FIXPOINT, DomainBox._raw(domains))


def _filter_neq(c: Neq, box: DomainBox) -> PropagationResult:
    da, db = box.domain(c.a), box.domain(c.b)
    domains = None
    if len(da) == 1 and next(iter(da)) in db:
        nb = db - da
        if not nb:
            return PropagationResult(INCONSISTENT, DomainBox.bottom())
        domains = box.domains()
        domains[c.b] = nb
    if len(db) == 1 and next(iter(db)) in da:
        na = da - db
        if not na:
            return PropagationResult(INCONSISTENT, DomainBox.bottom())
        if domains is None:
            domains = box.domains()
        domains[c.a] = na
    if domains is None:
        return PropagationResult(FIXPOINT, box)
    return PropagationResult(FIXPOINT, DomainBox._raw(domains))


def _filter_alldiff(c: AllDiff, box: DomainBox) -> PropagationResult:
    """Matching-based AllDiff filter (maximum matching + alternating reachability)."""
    vars_ = c.scope
    doms = {v: sorted(box.domain(v)) for v in vars_}
    match_of_var: dict[int, int] = {}
    match_of_val: dict[int, int] = {}

    def augment(x, visited):
        for val in doms[x]:
            if val in visited:
                continue
            visited.add(val)
            owner = match_of_val.get(val)
            if owner is None or augment(owner, visited):
                match_of_var[x] = val
                match_of_val[val] = x
                return True
        return False

    for x in vars_:
        if not augment(x, set()):
            return PropagationResult(INCONSISTENT, DomainBox.bottom())

    # Digraph on ('x', var) / ('v', val) nodes: matched edges val -> var,
    # unmatched edges var -> val. An unmatched edge (x, val) survives iff it
    # lies on an alternating cycle (same SCC) or val has a path to a free value.
    all_vals = sorted(set().union(*(doms[v] for v in vars_)))
    nodes = [("x", v) for v in vars_] + [("v", val) for val in all_vals]
    succ = {n: [] for n in nodes}
    for x in vars_:
        for val in doms[x]:
            if match_of_var[x] == val:
                succ[("v", val)].append(("x", x))
            else:
                succ[("x", x)].append(("v", val))

    reaches = {n: _reachable(n, succ) for n in nodes}
    free_vals = [val for val in all_vals if val not in match_of_val]

    supported = []
    for x in vars_:
        keep = set()
        for val in doms[x]:
            if match_of_var[x] == val:
                keep.add(val)
                continue
            xn, vn = ("x", x), ("v", val)
            if xn in reaches[vn]:  # closes an alternating cycle with x -> val
                keep.add(val)
            elif any(("v", f) in reaches[vn] for f in free_vals):
                keep.add(val)
        supported.append(keep)
    return _apply_scope_domains(box, vars_, supported)


def _reachable(start, succ):
    seen = {start}
    stack = [start]
    while stack:
        n = stack.pop()
        for m in succ[n]:
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return seen


def _filter_table(c: Table, box: DomainBox) -> PropagationResult:
    doms = [box.domain(v) for v in c.scope]
    supported: list[set[int]] = [set() for _ in c.scope]
    for row in sorted(c.tuples):
        if all(val in dom for val, dom in zip(row, doms)):
            for i, val in enumerate(row):
                supported[i].add(val)
    return _apply_scope_domains(box, c.scope, supported)


# --- network closure ---------------------------------------------------------

def gac_closure(net: Network, box: DomainBox) -> PropagationResult:
    """Least fixpoint of gac_filter over all constraints (FIFO worklist).

    The fixpoint is order-independent, so scheduling is purely a
    performance choice.
    """
    if box.inconsistent:
        return PropagationResult(INCONSISTENT, box)
    watching: dict[int, list[int]] = {v.id: [] for v in net.variables}
    for ci, c in enumerate(net.constraints):
        for vid in c.scope:
            watching[vid].append(ci)
    queue = list(range(len(net.constraints)))
    queued = set(queue)
    current = box
    while queue:
        ci = queue.pop(0)
        queued.discard(ci)
        c = net.constraints[ci]
        before = current
        res = gac_filter(c, current)
        if res.inconsistent:
            return PropagationResult(INCONSISTENT, DomainBox.bottom())
        current = res.box
        if current is before:
            continue
        for vid in c.scope:
            if current.domain(vid) != before.domain(vid):
                for cj in watching[vid]:
                    if cj != ci and cj not in queued:
                        queue.append(cj)
                        queued.add(cj)
    return PropagationResult(FIXPOINT, current)


# --- unit propagation --------------------------------------------------------

class UnitPropagator:
    """Two-watched-literal unit propagation, reusable across assumption sets.

    Watches persist between calls; that is sound because every call starts
    from the empty assignment, exactly as in assumption-based incremental
    SAT solving.
    """

    def __init__(self, formula: CnfFormula):
        self.num_vars = formula.num_vars
        self.falsum = False
        self.units: list[int] = []
        self.clauses: list[list[int]] = []
        n = formula.num_vars
        self.watches: list[list[int]] = [[] for _ in range(2 * n + 1)]
        for cl in formula.clauses:
            if len(cl) == 0:
                self.falsum = True
            elif len(cl) == 1:
                self.units.append(cl[0])
            else:
                idx = len(self.clauses)
                self.clauses.append(list(cl))
                self.watches[cl[0] + n].append(idx)
                self.watches[cl[1] + n].append(idx)

    def propagate(self, assumptions: Iterable[int] = ()) -> list | None:
        """Closure under the unit rule; returns values list or None on conflict.

        The returned list is indexed by variable (1-based); entries are
        True/False/None.
        """
        if self.falsum:
            return None
        n = self.num_vars
        val: list = [None] * (n + 1)
        queue: list[int] = []
        for lit in itertools.chain(self.units, assumptions):
            v = lit if lit > 0 else -lit
            want = lit > 0
            if val[v] is None:
                val[v] = want
                queue.append(lit)
            elif val[v] != want:
                return None
        watches = self.watches
        clauses = self.clauses
        head = 0
        while head < len(queue):
            falsified = -queue[head]
            head += 1
            wl = watches[falsified + n]
            i = 0
            while i < len(wl):
                ci = wl[i]
                cl = clauses[ci]
                if cl[0] == falsified:
                    cl[0], cl[1] = cl[1], cl[0]
                other = cl[0]
                ov = val[other if other > 0 else -other]
                if ov is not None and ov == (other > 0):
                    i += 1  # clause satisfied by the other watch
                    continue
                for j in range(2, len(cl)):
                    lj = cl[j]
                    vj = val[lj if lj > 0 else -lj]
                    if vj is None or vj == (lj > 0):
                        cl[1], cl[j] = cl[j], cl[1]
                        watches[lj + n].append(ci)
                        wl[i] = wl[-1]
                        wl.pop()
                        break
                else:
                    if ov is None:
                        val[other if other > 0 else -other] = other > 0
                        queue.append(other)
                        i += 1
                    else:
                        return None  # clause became empty
        return val


def unit_propagate(formula: CnfFormula,
                   assumptions: Iterable[int] = ()) -> PropagationResult:
    """Unit-rule closure from the given assumption literals."""
    val = UnitPropagator(formula).propagate(assumptions)
    if val is None:
        return PropagationResult(INCONSISTENT, assignment=None)
    assignment = {v: val[v] for v in range(1, formula.num_vars + 1) if val[v] is not None}
    return PropagationResult(FIXPOINT, assignment=assignment)


# --- complete solvers --------------------------------------------------------

def solve_brute_force(net: Network, box: DomainBox | None = None,
                      budget: int = DEFAULT_BRUTE_FORCE_BUDGET) -> SolveResult:
    """Exact satisfiability of a network by full enumeration inside `box`."""
    if box is None:
        box = net.initial_box()
    if box.inconsistent:
        return SolveResult(False)
    vids = [v.id for v in net.variables]
    doms = [sorted(box.domain(v)) for v in vids]
    total = 1
    for d in doms:
        total *= len(d)
        if total > budget:
            raise ResourceError(
                f"brute-force enumeration needs more than {budget} tuples")
    checks = [(c, tuple(vids.index(v) for v in c.scope)) for c in net.constraints]
    for tup in itertools.product(*doms):
        if all(c.accepts([tup[p] for p in pos]) for c, pos in checks):
            return SolveResult(True, dict(zip(vids, tup)))
    return SolveResult(False)


def sat_solve(formula: CnfFormula,
              assumptions: Iterable[int] = ()) -> SolveResult:
    """DPLL: unit propagation plus branching on the lowest-index unassigned
    variable, trying False before True. Deterministic by construction."""
    prop = UnitPropagator(formula)
    n = formula.num_vars
    base = list(assumptions)

    def descend(assums: list[int]) -> dict[int, bool] | None:
        val = prop.propagate(assums)
        if val is None:
            return None
        branch = next((v for v in range(1, n + 1) if val[v] is None), None)
        if branch is None:
            return {v: val[v] for v in range(1, n + 1)}
        for lit in (-branch, branch):
            model = descend(assums + [lit])
            if model is not None:
                return model
        return None

    model = descend(base)
    return SolveResult(model is not None, model)
