"""Propagation engines: per-constraint GAC filtering, network closure via a
FIFO worklist fixpoint, watched-literal unit propagation for CNF, and two
deterministic complete solvers: a backtracking search over a network that
tests constraints only through `accepts`, and a small DPLL solver.

All engines are single-threaded per invocation and hold no global state.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
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
    """Outcome of one filter or closure run over a box."""
    status: str
    box: DomainBox | None = None

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
    untouched. Raises ResourceError, before enumerating, where the scope's
    product exceeds DEFAULT_BRUTE_FORCE_BUDGET tuples.
    """
    if box.inconsistent:
        return PropagationResult(INCONSISTENT, box)
    scope = constraint.scope
    doms = [sorted(box.domain(v)) for v in scope]
    if math.prod(map(len, doms)) > DEFAULT_BRUTE_FORCE_BUDGET:
        raise ResourceError(f"support enumeration needs more than "
                            f"{DEFAULT_BRUTE_FORCE_BUDGET} tuples")
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
    return _FILTERS.get(type(constraint), gac_oracle)(constraint, box)


def _filter_clause(c: Clause, box: DomainBox) -> PropagationResult:
    # The one scope variable that can still satisfy a literal, and its value.
    live = keep = None
    for lit in c.lits:
        v = lit_var(lit)
        tv = lit_truth_value(lit)
        if tv in box.domain(v):
            if live is None:
                live, keep = v, tv
            elif v != live or tv != keep:  # two supports: nothing to prune
                return PropagationResult(FIXPOINT, box)
    if live is None:
        return PropagationResult(INCONSISTENT, DomainBox.bottom())
    # The live variable shrinks to its satisfying value; everyone else
    # keeps theirs.
    return _apply_scope_domains(box, (live,), ({keep},))


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


def _distinct_xor(c: Xor) -> Xor:
    """The same relation over distinct variables. x ⊕ x = 0 and x ⊕ ¬x = 1,
    so a variable with a positive and b negative literals keeps one positive
    literal iff a + b is odd, and each negative literal flips the parity."""
    occurrences: dict[int, int] = {}
    for lit in c.lits:
        occurrences[lit_var(lit)] = occurrences.get(lit_var(lit), 0) + 1
    parity = c.parity ^ (sum(lit < 0 for lit in c.lits) & 1)
    return Xor([v for v, k in occurrences.items() if k & 1], parity)


def _filter_xor(c: Xor, box: DomainBox) -> PropagationResult:
    if len(c.scope) != len(c.lits):
        c = _distinct_xor(c)
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


def fixpoint_counts(c: Constraint):
    """The test "`gac_filter(c, box)` hands back `box` itself" as a sum of
    per-literal counts, for a Card, Xor or Clause over distinct variables;
    None for any other constraint, which must run its filter.

    Returns `(count, holds)`. `count(lit, dom)` is what one literal adds
    given its variable's domain: two counts a and b, packed as
    `a + (b << shift)` with `shift = len(c.lits).bit_length()`. `holds` of
    the sum over c's literals is True exactly when the kind's filter
    returns its input box, as read off the filters above:
    - card, with a fixed-true and b free literals:
      `lo <= a + b`, `a <= hi`, and `b == 0` or (`a < hi` and `a + b > lo`);
    - xor, with a fixed-true and b free literals:
      `b >= 2`, or `b == 0` and `a % 2 == parity`;
    - clause, with a literals whose true value is in the domain, b of them
      in a domain of more values: `a >= 2`, or `a == 1` and `b == 0`.
    """
    kind = type(c)
    if kind not in (Card, Xor, Clause) or len(c.scope) != len(c.lits):
        return None
    shift = len(c.lits).bit_length()
    low = (1 << shift) - 1
    if kind is Clause:
        def count(lit, dom):
            if lit_truth_value(lit) not in dom:
                return 0
            return 1 if len(dom) == 1 else 1 + (1 << shift)

        def holds(total):
            return total & low >= 2 or total == 1
        return count, holds

    def count(lit, dom):  # card and xor: "free" and "fixed true" as the filters read them
        if len(dom) == 2:
            return 1 << shift
        return 1 if lit_truth_value(lit) in dom else 0

    if kind is Card:
        lo, hi = c.lo, c.hi

        def holds(total):
            a, b = total & low, total >> shift
            return lo <= a + b and a <= hi and (b == 0 or (a < hi and a + b > lo))
    else:
        parity = c.parity

        def holds(total):
            b = total >> shift
            return b >= 2 or (b == 0 and total & 1 == parity)
    return count, holds


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
    """Matching-based AllDiff filter (Régin, AAAI 1994): a maximum matching,
    then one SCC pass and one search towards the free values. GAC output is
    unique, so the order in which domains are walked cannot change it."""
    vars_ = c.scope
    k = len(vars_)
    doms = [box.domain(v) for v in vars_]  # by scope position
    singles = [dom for dom in doms if len(dom) == 1]
    if len(frozenset().union(*singles)) < len(singles):  # two share one value
        return PropagationResult(INCONSISTENT, DomainBox.bottom())
    values = frozenset().union(*doms)
    if len(values) < k:  # pigeonhole: no matching can cover the scope
        return PropagationResult(INCONSISTENT, DomainBox.bottom())
    match_of_var: list = [None] * k
    match_of_val: dict[int, int] = {}
    for x in range(k):
        free = next((val for val in doms[x] if val not in match_of_val), None)
        if free is not None:  # a free value needs no search
            match_of_var[x], match_of_val[free] = free, x
            continue
        visited: set[int] = set()  # augmenting-path search, depth-first, iterative
        path = [(x, iter(doms[x]))]
        vals: list[int] = []  # vals[i] is the value path[i][0] would take
        while path:
            for val in path[-1][1]:
                if val not in visited:
                    visited.add(val)
                    vals.append(val)
                    break
            else:
                path.pop()
                if vals:
                    vals.pop()
                continue
            owner = match_of_val.get(val)
            if owner is None:
                for (var, _), v in zip(path, vals):
                    match_of_var[var], match_of_val[v] = v, var
                break
            path.append((owner, iter(doms[owner])))
        if not path:
            return PropagationResult(INCONSISTENT, DomainBox.bottom())

    # Digraph over variables 0..k-1 and values k..: matched edges val -> var,
    # unmatched edges var -> val. An unmatched edge (x, val) survives iff it
    # lies on an alternating cycle (same SCC) or val has a path to a free value.
    node = {val: k + i for i, val in enumerate(values)}
    succ: list[list[int]] = [[] for _ in range(k + len(node))]
    pred: list[list[int]] = [[] for _ in succ]
    for x, dom in enumerate(doms):
        for val in dom:
            a, b = (node[val], x) if match_of_var[x] == val else (x, node[val])
            succ[a].append(b)
            pred[b].append(a)
    comp = _strong_components(succ)
    to_free = {n for val, n in node.items() if val not in match_of_val}
    stack = list(to_free)
    while stack:
        for a in pred[stack.pop()]:
            if a not in to_free:
                to_free.add(a)
                stack.append(a)
    supported = [{val for val in dom if match_of_var[x] == val
                  or comp[x] == comp[node[val]] or node[val] in to_free}
                 for x, dom in enumerate(doms)]
    return _apply_scope_domains(box, vars_, supported)


def _strong_components(succ: list[list[int]]) -> list[int]:
    """Component id of every node of a digraph (Tarjan 1972, iterative)."""
    n = len(succ)
    index, low, comp = [-1] * n, [0] * n, [-1] * n
    stack: list[int] = []
    count = ncomp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0:  # w is still on the stack
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:  # pass the low-link up to the parent
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
    return comp


def _filter_table(c: Table, box: DomainBox) -> PropagationResult:
    doms = [box.domain(v) for v in c.scope]
    supported: list[set[int]] = [set() for _ in c.scope]
    for row in c.tuples:
        if all(val in dom for val, dom in zip(row, doms)):
            for i, val in enumerate(row):
                supported[i].add(val)
    return _apply_scope_domains(box, c.scope, supported)


_FILTERS = {Clause: _filter_clause, Card: _filter_card, Xor: _filter_xor,
            Neq: _filter_neq, AllDiff: _filter_alldiff, Table: _filter_table}


# --- network closure ---------------------------------------------------------

def gac_closure(net: Network, box: DomainBox) -> PropagationResult:
    """Least fixpoint of gac_filter over all constraints (FIFO worklist over
    the network's watch lists, built once).

    The fixpoint is order-independent, so scheduling is purely a
    performance choice.
    """
    if box.inconsistent:
        return PropagationResult(INCONSISTENT, box)
    constraints, watching = net.constraints, net.watchers
    queue = deque(range(len(constraints)))
    queued = [True] * len(constraints)
    current = box
    while queue:
        ci = queue.popleft()
        queued[ci] = False
        c = constraints[ci]
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
                    if cj != ci and not queued[cj]:
                        queue.append(cj)
                        queued[cj] = True
    return PropagationResult(FIXPOINT, current)


# --- unit propagation --------------------------------------------------------

class UnitPropagator:
    """Two-watched-literal unit propagation on a trail (MiniSat's, Een &
    Sorensson, SAT 2003), reusable across assumption lists.

    It keeps the values, the trail of literals set, the assumptions
    propagated so far and the trail mark before each. A call undoes the
    trail to the end of the prefix it shares with the previous call's
    assumptions and asserts the rest one at a time, BCP after each; watches
    stay put. After a call, `assumed` is the list of leading assumptions
    that propagated without conflict: all of them, or those before the one
    that failed, so its length locates a conflict. The formula's units are
    propagated once, at construction.
    The unit-rule closure, and whether it conflicts, do not depend on order,
    so this equals a fresh propagation. `sat_solve` runs its DPLL on the
    same object, so one propagator serves a whole check.
    """

    def __init__(self, formula: CnfFormula):
        self.num_vars = n = formula.num_vars
        self.clauses: list[list[int]] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * n + 1)]
        self.val: list = [None] * (n + 1)
        self.trail, self.assumed, self.marks = [], [], []
        units = []
        for cl in formula.clauses:
            if len(cl) == 1:
                units.append(cl[0])
            elif len(cl) > 1:
                idx = len(self.clauses)
                self.clauses.append(list(cl))
                self.watches[cl[0] + n].append(idx)
                self.watches[cl[1] + n].append(idx)
        self.falsum = (any(not cl for cl in formula.clauses)
                       or not self._assert(units))
        self.assumed, self.marks = [], []  # the units stay on the trail for good

    def propagate(self, assumptions: Iterable[int] = ()) -> list | None:
        """Closure under the unit rule; returns values list or None on conflict.

        The returned list is indexed by variable (1-based); entries are
        True/False/None. It is a copy: the caller may keep or change it.
        """
        if self.falsum:
            return None
        lits = list(assumptions)
        assumed = self.assumed
        keep = 0
        for old, new in zip(assumed, lits):
            if old != new:
                break
            keep += 1
        if keep < len(assumed):
            self._undo(self.marks[keep])
            del assumed[keep:], self.marks[keep:]
        if not self._assert(lits[keep:]):
            return None
        return self.val[:]

    def _assert(self, lits) -> bool:
        """Assume each literal in turn, with BCP after each. On a conflict,
        undo to the failing literal's mark and return False."""
        val, trail = self.val, self.trail
        for lit in lits:
            self.marks.append(len(trail))
            self.assumed.append(lit)
            v = lit if lit > 0 else -lit
            if val[v] is None:
                val[v] = lit > 0
                trail.append(lit)
                ok = self._bcp(len(trail) - 1)
            else:
                ok = val[v] == (lit > 0)
            if not ok:
                self._undo(self.marks.pop())
                self.assumed.pop()
                return False
        return True

    def _bcp(self, head: int) -> bool:
        """Unit rule from trail position `head` on; False on a conflict."""
        n = self.num_vars
        val, trail, watches, clauses = self.val, self.trail, self.watches, self.clauses
        while head < len(trail):
            falsified = -trail[head]
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
                    if ov is not None:
                        return False  # clause became empty
                    val[other if other > 0 else -other] = other > 0
                    trail.append(other)
                    i += 1
        return True

    def _undo(self, mark: int):
        val, trail = self.val, self.trail
        for lit in trail[mark:]:
            val[lit if lit > 0 else -lit] = None
        del trail[mark:]


# --- complete solvers --------------------------------------------------------

def solve_brute_force(net: Network, box: DomainBox | None = None,
                      budget: int = DEFAULT_BRUTE_FORCE_BUDGET) -> SolveResult:
    """Exact satisfiability of a network inside `box` by chronological
    backtracking: variables in network order, values ascending, and each
    constraint tested with `accepts` once its last scope variable is set,
    so the model found is the lexicographically first. Which constraints
    to test at which depth comes from `net.search_schedule`, built once per
    network. `budget` caps the size of the product of the domains, checked
    before the search."""
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
    checks_at = net.search_schedule
    if not all(c.accepts([]) for c, _ in checks_at[0]):
        return SolveResult(False)
    n = len(vids)
    tup = [None] * n
    tried = [0] * n  # values tried so far at each depth
    depth = 0
    while depth >= 0:
        if depth == n:
            return SolveResult(True, dict(zip(vids, tup)))
        dom, i = doms[depth], tried[depth]
        if i == len(dom):
            tried[depth] = 0
            depth -= 1
            continue
        tried[depth] = i + 1
        tup[depth] = dom[i]
        checks = checks_at[depth + 1]
        if not checks or all(c.accepts([tup[p] for p in scope_pos])
                             for c, scope_pos in checks):
            depth += 1
    return SolveResult(False)


def sat_solve(formula: CnfFormula | UnitPropagator,
              assumptions: Iterable[int] = ()) -> SolveResult:
    """DPLL: unit propagation plus branching on the lowest-index unassigned
    variable, trying False before True, with an explicit decision stack.
    Deterministic by construction. Given a `UnitPropagator` it searches on
    that propagator, which repeated calls can share."""
    prop = formula if isinstance(formula, UnitPropagator) else UnitPropagator(formula)
    n = prop.num_vars
    assums = list(assumptions)
    base = len(assums)
    while True:
        val = prop.propagate(assums)
        if val is not None:
            branch = next((v for v in range(1, n + 1) if val[v] is None), None)
            if branch is None:
                return SolveResult(True, {v: val[v] for v in range(1, n + 1)})
            assums.append(-branch)
            continue
        while len(assums) > base and assums[-1] > 0:  # both branches failed
            assums.pop()
        if len(assums) == base:
            return SolveResult(False)
        assums[-1] = -assums[-1]
