"""Propagation engines: per-constraint GAC filtering, network closure via a
FIFO worklist fixpoint, unit propagation for CNF, and two deterministic
complete solvers: a backtracking search over a network that tests
constraints only through `accepts`, and a small DPLL solver.

Clause, Card and Xor share one GAC rule, stated once in
`_free_literal_rule`: the number of true literals must lie in the
constraint's `allowed` set. `_filter_literals` applies it, and
`maximal_gap_counts` reads off it where a value loses its last support.

All engines are single-threaded per invocation and hold no global state.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import (
    FALSE, TRUE, AllDiff, Card, Clause, Constraint, DomainBox, Neq, Network,
    ResourceError, Table, UsageError, Xor, lit_truth_value,
)

DEFAULT_BRUTE_FORCE_BUDGET = 1 << 24


@dataclass
class PropagationResult:
    """Outcome of one filter or closure run over a box: the box it deduces,
    inconsistent where the run found no support."""
    box: DomainBox

    @property
    def inconsistent(self) -> bool:
        return self.box.inconsistent


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
        cl = tuple(dict.fromkeys(lits))  # a set: UnitPropagator counts open literals
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
        return PropagationResult(box)
    scope = constraint.scope
    doms = [sorted(box.domain(v)) for v in scope]
    if math.prod(map(len, doms)) > DEFAULT_BRUTE_FORCE_BUDGET:
        raise ResourceError(f"support enumeration needs more than "
                            f"{DEFAULT_BRUTE_FORCE_BUDGET} tuples")
    supported: list[set[int]] = [set() for _ in scope]
    accepts = constraint.accepts
    found = False  # an empty scope has one tuple and no support set
    for tup in itertools.product(*doms):
        if accepts(tup):
            found = True
            for i, val in enumerate(tup):
                supported[i].add(val)
    if not found:
        return PropagationResult(DomainBox.bottom())
    return _apply_scope_domains(box, scope, supported)


def _apply_scope_domains(box: DomainBox, scope, supported) -> PropagationResult:
    if any(not s for s in supported):
        return PropagationResult(DomainBox.bottom())
    domains = box.domains()
    changed = False
    for vid, keep in zip(scope, supported):
        fs = frozenset(keep)
        if fs != domains[vid]:
            domains[vid] = fs
            changed = True
    if not changed:
        return PropagationResult(box)
    return PropagationResult(DomainBox._raw(domains))


def gac_filter(constraint: Constraint, box: DomainBox) -> PropagationResult:
    """Fast per-variant GAC filter; output contract identical to gac_oracle."""
    if box.inconsistent:
        return PropagationResult(box)
    return _FILTERS.get(type(constraint), gac_oracle)(constraint, box)


def _free_literal_rule(allowed: int, t: int, u: int):
    """The GAC rule of a literal constraint over distinct variables, with t
    literals fixed true and u free: `(may_false, may_true)`, whether a free
    literal keeps its false and its true value. The other u - 1 free
    literals add 0..u-1 true ones, so these are the allowed counts in
    t..t+u-1 and in t+1..t+u. With u = 0 both say whether count t is
    allowed, so the constraint is GAC exactly where both hold."""
    if u == 0:
        holds = allowed >> t & 1
        return holds, holds
    window = (1 << u) - 1
    return allowed >> t & window, allowed >> (t + 1) & window


_SINGLETONS = (frozenset((FALSE,)), frozenset((TRUE,)))


def _filter_literals(c: Clause | Card | Xor, box: DomainBox) -> PropagationResult:
    """GAC for a Clause, Card or Xor: the number of true literals must lie
    in `c.allowed`. Over distinct variables every free literal is alike, so
    `_free_literal_rule` decides them all from two counts. With a repeated
    variable, `_filter_weighted` runs a pass over reachable counts instead.
    The input picks the path, because the counts are several times cheaper
    per call."""
    if len(c.scope) != len(c.lits):
        return _filter_weighted(c, box)
    t = 0
    free: list[int] = []
    domain = box.domain
    for lit in c.lits:
        dom = domain(lit if lit > 0 else -lit)
        if len(dom) == 2:
            free.append(lit)
        elif (TRUE if lit > 0 else FALSE) in dom:
            t += 1
    may_false, may_true = _free_literal_rule(c.allowed, t, len(free))
    if may_false and may_true:
        return PropagationResult(box)
    if not (may_false or may_true):
        return PropagationResult(DomainBox.bottom())
    domains = box.domains()
    negative, positive = _SINGLETONS if may_true else _SINGLETONS[::-1]  # kept per literal sign
    for lit in free:
        if lit > 0:
            domains[lit] = positive
        else:
            domains[-lit] = negative
    return PropagationResult(DomainBox._raw(domains))


def _filter_weighted(c: Clause | Card | Xor, box: DomainBox) -> PropagationResult:
    """`_filter_literals` with a repeated variable. A variable with p
    positive and q negative literals makes p of them true when TRUE and q
    when FALSE. Bit s of `reach[i]` says the first i scope variables can
    make s literals true; bit s of `need` says the variables from i on can
    lead from s into `c.allowed`. A value is supported iff it links the
    two. One forward and one backward pass over int bitsets, O(|scope| ·
    |lits|) (Trick, "A dynamic programming approach for consistency and
    propagation for knapsack constraints", Annals of OR 2003)."""
    weights = [[0, 0] for _ in c.scope]  # per variable: true literals at FALSE, at TRUE
    for lit, p in zip(c.lits, c._positions):
        weights[p][lit_truth_value(lit)] += 1
    doms = [box.domain(v) for v in c.scope]
    reach = [1]
    for dom, w in zip(doms, weights):
        r = 0
        for value in dom:
            r |= reach[-1] << w[value]
        reach.append(r)
    supported: list = [None] * len(doms)
    need = c.allowed
    for i in reversed(range(len(doms))):
        w = weights[i]
        supported[i] = {value for value in doms[i] if reach[i] << w[value] & need}
        before = 0
        for value in doms[i]:
            before |= need >> w[value]
        need = before
    return _apply_scope_domains(box, c.scope, supported)


def maximal_gap_counts(c: Constraint, outside: bool) -> list[tuple[int, int]] | None:
    """For a Clause, Card or Xor over distinct variables, the count pairs
    `(t, f)`, t literals of `c` fixed true and f fixed false, at which some
    value has no support and has it again after every one-step
    enlargement, `(t - 1, f)` and `(t, f - 1)`; None for any other
    constraint. A value's support depends only on `(t, f)` and its kind:
    a free literal made true or false (`_free_literal_rule`), or, where
    `outside` is set, a value of a variable outside the scope, which has no
    support exactly where `c` is inconsistent. A fixed literal's value
    keeps its support status when its literal is freed, so it is maximal
    nowhere and has no kind of its own."""
    if type(c) not in (Clause, Card, Xor) or len(c.scope) != len(c.lits):
        return None
    n, allowed = len(c.lits), c.allowed

    def gap(t, f, kind):
        u = n - t - f
        if kind is None:  # no allowed count in t..t+u
            return not allowed >> t & ((2 << u) - 1)
        may_false, may_true = _free_literal_rule(allowed, t, u)
        return not (may_true if kind else may_false)

    kinds = (False, True, None) if outside else (False, True)
    return [(t, f) for t in range(n + 1) for f in range(n + 1 - t)
            if any((kind is None or t + f < n) and gap(t, f, kind)
                   and not (t and gap(t - 1, f, kind)) and not (f and gap(t, f - 1, kind))
                   for kind in kinds)]


def _filter_neq(c: Neq, box: DomainBox) -> PropagationResult:
    da, db = box.domain(c.a), box.domain(c.b)
    domains = None
    if len(da) == 1 and next(iter(da)) in db:
        nb = db - da
        if not nb:
            return PropagationResult(DomainBox.bottom())
        domains = box.domains()
        domains[c.b] = nb
    # da == db == {w} returned bottom above, so da - db is not empty here
    if len(db) == 1 and next(iter(db)) in da:
        if domains is None:
            domains = box.domains()
        domains[c.a] = da - db
    if domains is None:
        return PropagationResult(box)
    return PropagationResult(DomainBox._raw(domains))


def _filter_alldiff(c: AllDiff, box: DomainBox) -> PropagationResult:
    """Matching-based AllDiff filter (Régin, AAAI 1994): a maximum matching,
    then one SCC pass and one search towards the free values. GAC output is
    unique, so the order in which domains are walked cannot change it."""
    vars_ = c.scope
    k = len(vars_)
    doms = [box.domain(v) for v in vars_]  # by scope position
    singles = [dom for dom in doms if len(dom) == 1]
    if len(frozenset().union(*singles)) < len(singles):  # two share one value
        return PropagationResult(DomainBox.bottom())
    values = frozenset().union(*doms)
    if len(values) < k:  # pigeonhole: no matching can cover the scope
        return PropagationResult(DomainBox.bottom())
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
            return PropagationResult(DomainBox.bottom())

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
    rows = [row for row in c.tuples if all(val in dom for val, dom in zip(row, doms))]
    if not rows:  # no tuple fits, even where the scope is empty
        return PropagationResult(DomainBox.bottom())
    return _apply_scope_domains(box, c.scope, [set(column) for column in zip(*rows)])


_FILTERS = {Clause: _filter_literals, Card: _filter_literals, Xor: _filter_literals,
            Neq: _filter_neq, AllDiff: _filter_alldiff, Table: _filter_table}


# --- network closure ---------------------------------------------------------

def gac_closure(net: Network, box: DomainBox) -> PropagationResult:
    """Least fixpoint of gac_filter over all constraints (FIFO worklist over
    the network's watch lists, built once).

    The fixpoint is order-independent, so scheduling is purely a
    performance choice.
    """
    if box.inconsistent:
        return PropagationResult(box)
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
            return PropagationResult(DomainBox.bottom())
        current = res.box
        if current is before:
            continue
        for vid in c.scope:
            if current.domain(vid) != before.domain(vid):
                for cj in watching[vid]:
                    if cj != ci and not queued[cj]:
                        queue.append(cj)
                        queued[cj] = True
    return PropagationResult(current)


# --- unit propagation --------------------------------------------------------

class UnitPropagator:
    """Unit propagation of a CNF formula, two ways: on a trail, one
    assumption list after another, and in batches of lists at once.

    Truth is held per literal: `lit` has 2n+1 slots, negative literals
    indexing from the end, so `lit[l]` is True, False or None for any
    literal l. A binary clause (a, b) becomes two implications, -a -> b and
    -b -> a, in the lists `implied`. A longer clause is listed in `occurs`
    under the negation of each literal l it holds, as its other literals,
    and these are checked in full whenever l turns false. No clause is ever
    changed or moved, so undoing is only clearing the trail's literals
    (Lynce & Marques-Silva, AMAI 2005, compare such schemes with watched
    literals). The formula's units are propagated once, at construction,
    and stay on the trail for good; `fixed` marks their closure.

    The trail (`propagate`) keeps the literals set, the assumptions
    propagated so far (`assumed`) and the trail mark before each. The
    caller says how many of them stay: a call keeps the first `keep`,
    undoes the trail to the mark after them and asserts the new literals
    one at a time, propagating after each; it never compares literals, so
    a caller that moves along a walk passes the depth it shares with the
    last call (chronological backtracking on a trail, as in Eén &
    Sörensson, SAT 2003). After a call, `assumed` is the list of leading
    assumptions that propagated without conflict: all of them, or those
    before the one that failed, so its length locates a conflict.
    `sat_solve` runs its DPLL on the same object, so one propagator serves
    a whole check.

    The batch (`propagate_batch`) holds each literal's truth over many
    lists as one int, one bit per list, and leaves the trail alone. The
    unit-rule closure, and whether it conflicts, do not depend on order,
    so each list's answer, from the trail or from a batch, equals a fresh
    propagation's.
    """

    def __init__(self, formula: CnfFormula):
        self.num_vars = n = formula.num_vars
        self.lit: list = [None] * (2 * n + 1)
        self.implied: list[list[int]] = [[] for _ in self.lit]
        self.occurs: list[list[tuple[int, ...]]] = [[] for _ in self.lit]  # other literals
        self.trail, self.assumed, self.marks = [], [], []
        units = []
        for cl in formula.clauses:
            if len(cl) == 1:
                units.append(cl[0])
            elif len(cl) == 2:
                a, b = cl
                self.implied[-a].append(b)
                self.implied[-b].append(a)
            else:
                for i, l in enumerate(cl):
                    self.occurs[-l].append(cl[:i] + cl[i + 1:])
        self.falsum = (any(not cl for cl in formula.clauses)
                       or not self._assert(units))
        self.assumed, self.marks = [], []  # the units stay on the trail for good
        self.fixed = [0] * len(self.lit)  # -1 on the literals of the units' closure
        for l in self.trail:
            self.fixed[l] = -1

    def propagate(self, assumptions: Iterable[int] = (), keep: int = 0) -> list | None:
        """Closure under the unit rule of `assumed[:keep]`, the first `keep`
        assumptions that held, then `assumptions`; returns the values list,
        or None on a conflict. A `keep` past `len(assumed)` is refused with
        UsageError.

        The returned list is indexed by variable (1-based); entries are
        True/False/None. It is a copy: the caller may keep or change it.
        """
        assumed = self.assumed
        if not 0 <= keep <= len(assumed):
            raise UsageError(f"cannot keep {keep} of {len(assumed)} assumptions")
        if self.falsum:
            return None
        if keep < len(assumed):
            self._undo(self.marks[keep])
            del assumed[keep:], self.marks[keep:]
        if not self._assert(assumptions):
            return None
        return self.lit[:self.num_vars + 1]

    def propagate_batch(self, assume, count: int) -> tuple[list, int]:
        """The unit-rule closures of `count` assumption lists at once, bit i
        of every mask standing for list i: `assume` maps each literal to
        the mask of the lists that hold it. Returns `(true, conflict)`:
        `conflict` is the mask of the lists whose closure conflicts, and for
        every other list i, bit i of `true[l]` (indexed as `lit`) says
        whether its closure makes literal l true. So per list this is a
        fresh `propagate`, None exactly where the list conflicts.

        Each literal's truth is one int over the lists, and the unit rule
        runs on all of them with bitwise operations (Knuth, TAOCP 4A
        §7.1.3): a FIFO worklist holds the literals that gained lists since
        they were last visited, and visiting one applies `implied` and
        `occurs` to those lists only. The formula's unit closure is true in
        every list (-1) and is never queued. The trail is not touched."""
        if self.falsum:
            return self.fixed[:], (1 << count) - 1
        true, implied, occurs = self.fixed[:], self.implied, self.occurs
        gained = [0] * len(true)  # per literal: the lists it gained since its last visit
        queue, conflict = [], 0
        for l, m in assume.items():
            new = m & ~true[l]
            if new:
                conflict |= new & true[-l]
                true[l] |= new
                gained[l] = new
                queue.append(l)
        for l in queue:  # grows as literals gain lists: FIFO
            d = gained[l] & ~conflict
            gained[l] = 0
            if not d:
                continue
            for m in implied[l]:
                new = d & ~true[m]
                if new:
                    conflict |= new & true[-m]
                    true[m] |= new
                    if not gained[m]:
                        queue.append(m)
                    gained[m] |= new
            for cl in occurs[l]:
                none, one = d, 0  # the lists where no other literal is open, where one is
                for m in cl:
                    f = true[-m]
                    one = one & f | none & ~f & ~true[m]
                    none &= f
                    if not (none | one):
                        break
                else:  # the lists of `none` conflict, and those of `one` are unit
                    conflict |= none
                    for m in cl if one else ():
                        new = one & ~true[-m]  # the lists where m is the open one
                        if new:
                            true[m] |= new
                            if not gained[m]:
                                queue.append(m)
                            gained[m] |= new
        return true, conflict

    def _assert(self, lits) -> bool:
        """Assume each literal in turn, propagating after each. On a
        conflict, undo to the failing literal's mark and return False."""
        truth, trail = self.lit, self.trail
        for l in lits:
            self.marks.append(len(trail))
            self.assumed.append(l)
            t = truth[l]
            if t is None:
                truth[l], truth[-l] = True, False
                trail.append(l)
                ok = self._bcp(len(trail) - 1)
            else:
                ok = t
            if not ok:
                self._undo(self.marks.pop())
                self.assumed.pop()
                return False
        return True

    def _bcp(self, head: int) -> bool:
        """Unit rule from trail position `head` on; False on a conflict."""
        truth, trail, implied, occurs = self.lit, self.trail, self.implied, self.occurs
        while head < len(trail):
            l = trail[head]
            head += 1
            for m in implied[l]:
                t = truth[m]
                if t is None:
                    truth[m], truth[-m] = True, False
                    trail.append(m)
                elif not t:
                    return False
            for cl in occurs[l]:
                unit = 0
                for m in cl:
                    t = truth[m]
                    if t is None:
                        if unit:
                            break  # two open literals
                        unit = m
                    elif t:
                        break  # satisfied
                else:
                    if not unit:
                        return False  # every literal false
                    truth[unit], truth[-unit] = True, False
                    trail.append(unit)
        return True

    def _undo(self, mark: int):
        truth, trail = self.lit, self.trail
        for l in trail[mark:]:
            truth[l] = truth[-l] = None
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
    before the search; it must be at least 1."""
    if budget < 1:
        raise UsageError(f"brute-force budget must be at least 1, got {budget}")
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
    that propagator, which repeated calls can share: the first propagation
    asserts every assumption, and each later one keeps all but the
    decision just pushed or flipped."""
    prop = formula if isinstance(formula, UnitPropagator) else UnitPropagator(formula)
    n = prop.num_vars
    assums = list(assumptions)
    base, keep = len(assums), 0
    while True:
        val = prop.propagate(assums[keep:], keep)
        if val is not None:
            branch = next((v for v in range(1, n + 1) if val[v] is None), None)
            if branch is None:
                return SolveResult(True, {v: val[v] for v in range(1, n + 1)})
            assums.append(-branch)
        else:
            while len(assums) > base and assums[-1] > 0:  # both branches failed
                assums.pop()
            if len(assums) == base:
                return SolveResult(False)
            assums[-1] = -assums[-1]
        keep = len(assums) - 1
