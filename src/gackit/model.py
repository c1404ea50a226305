"""Finite-domain variables, domain boxes, constraints and networks.

Domain values are interned integers; each variable carries its own label
table, so heterogeneous value universes (truth values next to selector
indices) can meet inside one binary constraint. Boolean domains are fixed
as {FALSE, TRUE} = {0, 1} with F < T.

Everything here is immutable after construction and safe to share across
threads; "mutation" always produces a new DomainBox. All inconsistent boxes
compare equal, and `DomainBox.bottom()` is the one shared instance that the
engines return for a deduced inconsistency; an inconsistent box passed in
may be handed back as it is. Caches fill lazily but never change an answer:
`ChannelMap.images` (read and filled only by `ChannelMap.image`), and a
`Network`'s initial domains, watch lists and search schedule (so never edit
a network's lists after use).
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, Mapping, Sequence

FALSE = 0
TRUE = 1
BOOL_LABELS = {FALSE: "F", TRUE: "T"}


class UsageError(ValueError):
    """Caller violated an operation's contract."""


class ResourceError(RuntimeError):
    """A configured enumeration or size budget was exceeded."""


class Variable:
    """A finite-domain variable. Identity is its integer id (must be >= 1)."""

    __slots__ = ("id", "name", "domain", "labels")

    def __init__(self, vid: int, name: str, domain: Iterable[int],
                 labels: Mapping[int, str] | None = None):
        if vid < 1:
            raise UsageError(f"variable id must be >= 1, got {vid}")
        dom = tuple(sorted(set(domain)))
        if not dom:
            raise UsageError(f"variable {name!r} has an empty initial domain")
        self.id = vid
        self.name = name
        self.domain = dom
        self.labels = dict(labels) if labels else {}

    def label(self, value: int) -> str:
        return self.labels.get(value, str(value))

    @property
    def is_boolean(self) -> bool:
        return self.domain == (FALSE, TRUE)

    def __eq__(self, other):
        return isinstance(other, Variable) and other.id == self.id

    def __hash__(self):
        return hash(self.id)

    def __repr__(self):
        vals = ",".join(self.label(v) for v in self.domain)
        return f"Variable({self.id}, {self.name!r}, {{{vals}}})"


def bool_variable(vid: int, name: str) -> Variable:
    return Variable(vid, name, (FALSE, TRUE), BOOL_LABELS)


RANGE_LIMIT = 1 << 20  # values in one range domain


def range_variable(vid: int, name: str, lo: int, hi: int) -> Variable:
    if lo > hi:
        raise UsageError(f"empty range domain {lo}..{hi} for {name!r}")
    if hi - lo >= RANGE_LIMIT:
        raise ResourceError(f"range domain {lo}..{hi} for {name!r} has more than "
                            f"{RANGE_LIMIT} values")
    return Variable(vid, name, range(lo, hi + 1))


class DomainBox:
    """Current domains for a set of variables; the knowledge/deduction state.

    A box with any empty domain normalizes to the single canonical
    inconsistent state (all inconsistent boxes compare equal), which makes
    closure comparison well-defined and gives the restriction order a
    unique bottom element.
    """

    __slots__ = ("_domains", "inconsistent")

    def __init__(self, domains: Mapping[int, Iterable[int]]):
        norm = {vid: values if isinstance(values, frozenset) else frozenset(values)
                for vid, values in domains.items()}
        self.inconsistent = not all(norm.values())
        self._domains = {} if self.inconsistent else norm

    @classmethod
    def from_variables(cls, variables: Iterable[Variable]) -> "DomainBox":
        return cls({v.id: frozenset(v.domain) for v in variables})

    @classmethod
    def bottom(cls) -> "DomainBox":
        """The canonical inconsistent box: one shared instance."""
        return _BOTTOM

    @classmethod
    def _raw(cls, domains: dict) -> "DomainBox":
        # Internal fast path: domains must already map vid -> non-empty frozenset.
        box = cls.__new__(cls)
        box._domains = domains
        box.inconsistent = False
        return box

    def domain(self, vid: int) -> frozenset:
        if self.inconsistent:
            return frozenset()
        try:
            return self._domains[vid]
        except KeyError:
            raise UsageError(f"variable id {vid} not in this box") from None

    def domains(self) -> dict:
        return dict(self._domains)

    def value_of(self, vid: int) -> int:
        dom = self.domain(vid)
        if len(dom) != 1:
            raise UsageError(f"variable id {vid} is not assigned (domain {sorted(dom)})")
        return next(iter(dom))

    def assign(self, vid: int, value: int) -> "DomainBox":
        return restrict(self, vid, (value,))

    def __eq__(self, other):
        if not isinstance(other, DomainBox):
            return NotImplemented
        if self.inconsistent or other.inconsistent:
            return self.inconsistent == other.inconsistent
        return self._domains == other._domains

    def __repr__(self):
        if self.inconsistent:
            return "DomainBox(INCONSISTENT)"
        parts = ", ".join(
            f"{vid}:{{{','.join(str(v) for v in sorted(dom))}}}"
            for vid, dom in sorted(self._domains.items()))
        return f"DomainBox({parts})"

    def pretty(self, variables: Sequence[Variable]) -> str:
        if self.inconsistent:
            return "INCONSISTENT"
        parts = []
        for var in variables:
            vals = ",".join(var.label(v) for v in sorted(self.domain(var.id)))
            parts.append(f"{var.name}={{{vals}}}")
        return " ".join(parts)


_BOTTOM = DomainBox({0: ()})


def is_restriction(d: DomainBox, k: DomainBox) -> bool:
    """True iff d restricts k: componentwise domain inclusion.

    The canonical inconsistent box is the unique bottom element.
    """
    if d.inconsistent:
        return True
    if k.inconsistent:
        return False
    if d._domains.keys() != k._domains.keys():
        raise UsageError("boxes range over different variable sets")
    kdoms = k._domains
    return all(dom <= kdoms[vid] for vid, dom in d._domains.items())


def restrict(box: DomainBox, vid: int, values: Iterable[int]) -> DomainBox:
    """New box with vid's domain intersected with `values` (may go inconsistent)."""
    if box.inconsistent:
        return box
    if vid not in box._domains:
        raise UsageError(f"variable id {vid} not in this box")
    new = box._domains[vid] & frozenset(values)
    if not new:
        return DomainBox.bottom()
    domains = dict(box._domains)
    domains[vid] = new
    return DomainBox._raw(domains)


# --- Constraints -----------------------------------------------------------
#
# Literals over Boolean variables use the SAT convention: +id means the
# variable is TRUE, -id means it is FALSE.


def lit_var(lit: int) -> int:
    return lit if lit > 0 else -lit


def lit_truth_value(lit: int) -> int:
    """The variable value that makes the literal true."""
    return TRUE if lit > 0 else FALSE


def lit_false_value(lit: int) -> int:
    """The variable value that falsifies the literal."""
    return FALSE if lit > 0 else TRUE


class Constraint:
    """Base class; `scope` is the ordered tuple of variable ids involved."""

    scope: tuple[int, ...]

    def accepts(self, values: Sequence[int]) -> bool:
        """Truth of the relation on a value tuple aligned with `scope`."""
        raise NotImplementedError

    def solutions(self, doms: Sequence[Sequence[int]]) -> list:
        """The tuples of `itertools.product(*doms)` that `accepts`, in its order,
        so callers may number them; `doms` aligns with `scope`, each ascending."""
        return [s for s in itertools.product(*doms) if self.accepts(s)]

    def kind(self) -> str:
        return type(self).__name__.lower()


class _LiteralConstraint(Constraint):
    """Constraint over literals that holds iff the number k of true literals
    is allowed: bit k of `allowed` is set. `scope` lists each literal's
    variable once."""

    __slots__ = ("lits", "scope", "_positions", "_truths", "allowed")

    def __init__(self, lits: Iterable[int], allows):
        self.lits = tuple(lits)
        if any(l == 0 for l in self.lits):
            raise UsageError("literal 0 is not allowed")
        self.scope = tuple(dict.fromkeys(lit_var(l) for l in self.lits))
        pos = {v: i for i, v in enumerate(self.scope)}
        self._positions = tuple(pos[lit_var(l)] for l in self.lits)
        self._truths = tuple(map(lit_truth_value, self.lits))
        self.allowed = sum(1 << k for k in range(len(self.lits) + 1) if allows(k))

    def accepts(self, values):
        k = sum(map(operator.eq, map(values.__getitem__, self._positions), self._truths))
        return self.allowed >> k & 1 == 1


class Clause(_LiteralConstraint):
    """Propositional clause: disjunction of literals over Boolean variables."""

    __slots__ = ()

    def __init__(self, lits: Iterable[int]):
        super().__init__(lits, lambda k: k >= 1)

    def __repr__(self):
        return f"Clause({list(self.lits)})"


class Card(_LiteralConstraint):
    """Boolean cardinality range: lo <= #true literals <= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lits: Iterable[int], lo: int, hi: int):
        super().__init__(lits, lambda k: lo <= k <= hi)
        if not (0 <= lo <= hi <= len(self.lits)):
            raise UsageError(f"card bounds must satisfy 0 <= {lo} <= {hi} <= {len(self.lits)}")
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return f"Card({list(self.lits)}, {self.lo}, {self.hi})"


class Xor(_LiteralConstraint):
    """Parity equation: XOR of literal truths equals `parity` (0 or 1)."""

    __slots__ = ("parity",)

    def __init__(self, lits: Iterable[int], parity: int):
        super().__init__(lits, lambda k: k % 2 == parity)
        if parity not in (0, 1):
            raise UsageError(f"parity must be 0 or 1, got {parity}")
        self.parity = parity

    def __repr__(self):
        return f"Xor({list(self.lits)}, {self.parity})"


class AllDiff(Constraint):
    """All scope variables take pairwise distinct values."""

    __slots__ = ("scope",)

    def __init__(self, vars: Iterable[int]):
        self.scope = tuple(vars)
        if len(set(self.scope)) != len(self.scope):
            raise UsageError("alldiff scope variables must be distinct")

    def accepts(self, values):
        return len(set(values)) == len(values)

    def solutions(self, doms):
        sols = [()]
        for dom in doms:
            sols = [s + (a,) for s in sols for a in dom if a not in s]
        return sols

    def __repr__(self):
        return f"AllDiff({list(self.scope)})"


class Neq(Constraint):
    """Binary difference constraint between two variables."""

    __slots__ = ("a", "b", "scope")

    def __init__(self, a: int, b: int):
        if a == b:
            raise UsageError("neq needs two distinct variables")
        self.a = a
        self.b = b
        self.scope = (a, b)

    def accepts(self, values):
        return values[0] != values[1]

    def __repr__(self):
        return f"Neq({self.a}, {self.b})"


class Table(Constraint):
    """Extensional constraint: the scope tuple must be one of `tuples`."""

    __slots__ = ("scope", "tuples")

    def __init__(self, vars: Iterable[int], tuples: Iterable[Sequence[int]]):
        self.scope = tuple(vars)
        if len(set(self.scope)) != len(self.scope):
            raise UsageError("table scope variables must be distinct")
        self.tuples = frozenset(tuple(t) for t in tuples)
        for t in self.tuples:
            if len(t) != len(self.scope):
                raise UsageError(f"table tuple {t} has arity {len(t)}, scope needs {len(self.scope)}")

    def accepts(self, values):
        return tuple(values) in self.tuples

    def solutions(self, doms):
        # over ascending domains, sorted order is product order
        return sorted(t for t in self.tuples if all(map(operator.contains, doms, t)))

    def __repr__(self):
        return f"Table({list(self.scope)}, {len(self.tuples)} tuples)"


def satisfies(constraint: Constraint, assignment: DomainBox) -> bool:
    """Truth of the constraint under a complete (all-singleton) assignment."""
    values = tuple(assignment.value_of(v) for v in constraint.scope)
    return constraint.accepts(values)


class ChannelMap:
    """Correspondence between source (variable, value) pairs and target atoms.

    For CNF targets the image of a pair is a signed literal; for network
    targets it is a (target variable id, target value) membership atom.
    Source variable names must be distinct, since verdicts name variables.
    Target variables without an image are auxiliary: they are projected
    out of deductions. `images` memoizes, per source variable, what each
    knowledge subdomain mapped so far asserts on the target. `backs` holds,
    per source variable, each value's image in the form `map_back` reads:
    for CNF channels the negated image, the literal whose truth refutes the
    value; for network channels the `(tvid, tval)` atom itself.
    """

    __slots__ = ("kind", "source_vars", "forward", "images", "backs")

    CNF = "cnf"
    NETWORK = "network"

    def __init__(self, kind: str, source_vars: Sequence[Variable],
                 forward: Mapping[tuple[int, int], object]):
        if kind not in (self.CNF, self.NETWORK):
            raise UsageError(f"unknown channel kind {kind!r}")
        self.kind = kind
        self.source_vars = tuple(source_vars)
        self.forward = dict(forward)
        names = set()
        backs = []
        for var in self.source_vars:
            if var.name in names:
                raise UsageError(f"two source variables named {var.name!r}")
            names.add(var.name)
            back = {}
            for value in var.domain:
                if (var.id, value) not in self.forward:
                    raise UsageError(
                        f"channel not total: no image for ({var.name!r}, {var.label(value)})")
                image = self.forward[(var.id, value)]
                back[value] = -image if kind == self.CNF else image
            backs.append(back)
        self.images = tuple({} for _ in self.source_vars)
        self.backs = tuple(backs)

    def _image(self, var: Variable, kdom: frozenset) -> tuple:
        """What knowing `var` in `kdom` asserts on the target: literals for
        CNF channels; for network channels one `(tvid, removed, pinned)`
        triple per target variable that the assertion restricts, where
        `removed` holds the images of values outside `kdom` and `pinned`,
        when `kdom` is a single value, that value's image (else empty)."""
        forward = self.forward
        if self.kind == self.CNF:
            lits = [-forward[(var.id, value)] for value in var.domain if value not in kdom]
            if len(kdom) == 1:
                lits.append(forward[(var.id, next(iter(kdom)))])
            return tuple(dict.fromkeys(lits))  # a Boolean's pin repeats its removal
        by_target: dict[int, list] = {}
        for value in var.domain:
            tvid, tval = forward[(var.id, value)]
            by_target.setdefault(tvid, []).append((value, tval))
        triples = ((tvid, frozenset(t for v, t in pairs if v not in kdom),
                    frozenset(t for v, t in pairs if v in kdom and len(kdom) == 1))
                   for tvid, pairs in by_target.items())
        return tuple(triple for triple in triples if triple[1] or triple[2])

    def image(self, pos: int, kdom: frozenset) -> tuple:
        """`_image` of the source variable at position `pos`, from the
        memo `images[pos]`, computed on first use."""
        memo = self.images[pos]
        image = memo.get(kdom)
        if image is None:
            image = memo[kdom] = self._image(self.source_vars[pos], kdom)
        return image


def map_knowledge(channel: ChannelMap, knowledge: DomainBox) -> list:
    """Express source knowledge on the target side.

    Removed source values assert the negation of their image; assigned
    values assert the image itself. Auxiliary target variables (those
    without an image) stay unrestricted. Returns assumption literals for CNF channels and
    `(tvid, removed, pinned)` triples for network channels (see
    `ChannelMap._image`); the triples are a conjunction, so a target
    variable that carries the images of two source variables gets both.
    Each source variable's image comes from `ChannelMap.image`; this only
    joins them.
    """
    return list(itertools.chain.from_iterable(
        channel.image(pos, knowledge.domain(var.id))
        for pos, var in enumerate(channel.source_vars)))


class Network:
    """A constraint network: declared variables plus constraints over them.
    Building one is the one check of constraints against their variables."""

    def __init__(self, variables: Iterable[Variable], constraints: Iterable[Constraint]):
        self.variables = list(variables)
        self.constraints = list(constraints)
        self.by_id = {}
        for var in self.variables:
            if var.id in self.by_id:
                raise UsageError(f"duplicate variable id {var.id}")
            self.by_id[var.id] = var
        for c in self.constraints:
            for vid in c.scope:
                if vid not in self.by_id:
                    raise UsageError(f"constraint {c!r} references undeclared variable id {vid}")
            if len(set(c.scope)) != len(c.scope):
                raise UsageError(f"{c.kind()} constraint repeats a variable in its scope")
            if isinstance(c, _LiteralConstraint):
                for vid in c.scope:
                    if not self.by_id[vid].is_boolean:
                        raise UsageError(
                            f"{c.kind()} constraint needs Boolean variables, "
                            f"{self.by_id[vid].name!r} is not")
            if isinstance(c, Table):
                for t in c.tuples:
                    for vid, val in zip(c.scope, t):
                        if val not in self.by_id[vid].domain:
                            raise UsageError(
                                f"table value {val} outside domain of {self.by_id[vid].name!r}")

    @functools.cached_property
    def initial_domains(self) -> dict:
        """Variable id -> initial domain as a frozenset."""
        return {var.id: frozenset(var.domain) for var in self.variables}

    @functools.cached_property
    def watchers(self) -> dict:
        """Variable id -> indices of the constraints whose scope holds it."""
        watching: dict[int, list[int]] = {var.id: [] for var in self.variables}
        for ci, c in enumerate(self.constraints):
            for vid in c.scope:
                watching[vid].append(ci)
        return watching

    @functools.cached_property
    def search_schedule(self) -> list:
        """What the backtracking search tests at each depth: entry d lists
        `(constraint, scope positions)` for the constraints whose last scope
        variable, in network order, is the d-th (entry 0: empty scopes)."""
        pos = {var.id: i for i, var in enumerate(self.variables)}
        schedule: list[list] = [[] for _ in range(len(self.variables) + 1)]
        for c in self.constraints:
            scope_pos = tuple(pos[v] for v in c.scope)
            schedule[max(scope_pos, default=-1) + 1].append((c, scope_pos))
        return schedule

    def initial_box(self) -> DomainBox:
        return DomainBox.from_variables(self.variables)

    def variable(self, vid: int) -> Variable:
        return self.by_id[vid]
