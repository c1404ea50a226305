"""Source-to-target translations: cardinality, difference, parity and clause
constraints into CNF or difference networks, each with a channel map relating
source (variable, value) pairs to target atoms.

The unary-counter (totalizer) cardinality encoding is the propagation-strong
route; the binary-adder encoding is deliberately shipped as a negative
control that keeps equisatisfiability but loses deductions under unit
propagation. Nothing here is assumed strong or weak: the checkers in
`gac_check` certify each claim.

Encoders are pure functions of their inputs and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    FALSE, TRUE, AllDiff, Card, ChannelMap, Clause, Constraint, Neq, Network,
    ResourceError, UsageError, Variable, Xor, bool_variable, lit_false_value,
    lit_truth_value, lit_var, map_knowledge,
)
from .propagation import CnfFormula

PAIRWISE = "pairwise"
SEQUENTIAL = "sequential"
EXACTLY_ONE_SCHEMES = (PAIRWISE, SEQUENTIAL)

XOR_ARITY_LIMIT = 12

# Gadget palette for clause -> difference-network reductions. Truth values
# keep their Boolean codes; everything from EXTRA up is gadget-private.
_EXTRA = 2


@dataclass
class EncodingStats:
    variables: int        # target variables (CNF vars or network variables)
    aux: int              # of which auxiliary (no channel image)
    clauses: int          # clauses for CNF targets, constraints for networks


@dataclass
class Encoding:
    target: object        # CnfFormula or Network
    channel: ChannelMap

    @property
    def stats(self) -> EncodingStats:
        """Sizes counted from the target."""
        if isinstance(self.target, CnfFormula):
            return EncodingStats(self.target.num_vars, len(self.channel.aux),
                                 len(self.target.clauses))
        return EncodingStats(len(self.target.variables), len(self.channel.aux),
                             len(self.target.constraints))


def _check_boolean(variables):
    for var in variables:
        if not var.is_boolean:
            raise UsageError(f"{var.name!r} must be Boolean for this encoder")


def _encode_boolean(constraint, variables, emit) -> Encoding:
    """Shared frame of the Boolean-source encoders: one CNF variable per
    source variable (direct channel), then `emit(formula, lits)` appends the
    clauses over the constraint's literals and returns the aux variables
    (or None when it adds none)."""
    _check_boolean(variables)
    formula = CnfFormula()
    forward = {}
    for var in variables:
        idx = formula.new_var()
        forward[(var.id, TRUE)] = idx
        forward[(var.id, FALSE)] = -idx
    lits = [forward[(lit_var(l), lit_truth_value(l))] for l in constraint.lits]
    aux = emit(formula, lits) or ()
    return Encoding(formula, ChannelMap(ChannelMap.CNF, variables, forward, aux))


# --- exactly-one -------------------------------------------------------------

def encode_exactly_one(formula: CnfFormula, lits: list[int], scheme: str) -> list[int]:
    """Append clauses forcing exactly one of `lits` true; returns new aux vars.

    Pairwise: one at-least-one clause plus all n(n-1)/2 mutual exclusions.
    Sequential: prefix "one of the first i is true" registers s_i with full
    equivalences, so unit propagation pushes information both ways.
    """
    if scheme not in EXACTLY_ONE_SCHEMES:
        raise UsageError(f"unknown exactly-one scheme {scheme!r}")
    n = len(lits)
    if n == 0:
        raise UsageError("exactly-one needs at least one literal")
    if n == 1:
        formula.add_clause([lits[0]])
        return []
    if scheme == PAIRWISE:
        formula.add_clause(lits)
        for i in range(n):
            for j in range(i + 1, n):
                formula.add_clause([-lits[i], -lits[j]])
        return []
    # sequential: s_i <-> (lits[0] or ... or lits[i])
    s = [formula.new_var() for _ in range(n - 1)]
    formula.add_clause([-lits[0], s[0]])
    formula.add_clause([-s[0], lits[0]])
    for i in range(1, n - 1):
        formula.add_clause([-lits[i], s[i]])
        formula.add_clause([-s[i - 1], s[i]])
        formula.add_clause([-s[i], s[i - 1], lits[i]])
    for i in range(1, n):
        formula.add_clause([-s[i - 1], -lits[i]])   # at most one
    formula.add_clause([s[n - 2], lits[n - 1]])     # at least one
    return s


def one_hot_vars(variable: Variable, scheme: str = PAIRWISE) -> Encoding:
    """One-hot encode a single variable: selector a_v per value v, with
    exactly-one clauses per the chosen scheme."""
    formula = CnfFormula()
    forward: dict = {}
    aux = _one_hot_into(formula, forward, variable, scheme)
    return Encoding(formula, ChannelMap(ChannelMap.CNF, [variable], forward, aux))


def _one_hot_into(formula: CnfFormula, forward: dict, variable: Variable,
                  scheme: str) -> list[int]:
    """Add one selector per value to `forward` plus their exactly-one
    clauses; returns the aux variables."""
    sel = []
    for value in variable.domain:
        idx = formula.new_var()
        forward[(variable.id, value)] = idx
        sel.append(idx)
    return encode_exactly_one(formula, sel, scheme)


def _forbid_shared(formula: CnfFormula, forward: dict, a: Variable, b: Variable):
    """Difference clauses: `a` and `b` may not take a common value."""
    for value in a.domain:
        if (b.id, value) in forward:
            formula.add_clause([-forward[(a.id, value)], -forward[(b.id, value)]])


def encode_exactly_one_constraint(constraint: Card, variables, scheme: str) -> Encoding:
    """Encoding for a card[1..1] source built purely from an exactly-one scheme."""
    if (constraint.lo, constraint.hi) != (1, 1):
        raise UsageError("exactly-one encoder needs a card[1..1] source")
    return _encode_boolean(constraint, variables,
                           lambda formula, lits: encode_exactly_one(formula, lits, scheme))


# --- binary difference and alldiff -------------------------------------------

def encode_neq(a: Variable, b: Variable, scheme: str = PAIRWISE) -> Encoding:
    """One-hot both variables, then forbid sharing any common value: the
    pairwise alldiff decomposition of two variables."""
    return encode_alldiff_pairwise([a, b], scheme)


def encode_alldiff_pairwise(variables, scheme: str = PAIRWISE) -> Encoding:
    """Decompose AllDiff into one-hot selectors plus pairwise difference
    clauses. Equisatisfiable, but the decomposition is propagation-weak on
    Hall-set instances; see gac_check."""
    if not variables:
        raise UsageError("alldiff needs at least one variable")
    formula = CnfFormula()
    forward: dict = {}
    aux: list[int] = []
    for var in variables:
        aux.extend(_one_hot_into(formula, forward, var, scheme))
    for i, va in enumerate(variables):
        for vb in variables[i + 1:]:
            _forbid_shared(formula, forward, va, vb)
    return Encoding(formula, ChannelMap(ChannelMap.CNF, variables, forward, aux))


# --- cardinality: unary counters ---------------------------------------------

def _totalizer_into(formula: CnfFormula, lits: list[int], lo: int, hi: int) -> list[int]:
    """Append a unary-counter cardinality encoding of lo..hi over `lits`;
    returns the auxiliary counter variables."""
    aux: list[int] = []

    def merge(counters: list[list[int]]) -> list[int]:
        if len(counters) == 1:
            return counters[0]
        mid = (len(counters) + 1) // 2
        left = merge(counters[:mid])
        right = merge(counters[mid:])
        p, q = len(left), len(right)
        out = [formula.new_var() for _ in range(p + q)]
        aux.extend(out)
        for k in range(p + q - 1):
            formula.add_clause([-out[k + 1], out[k]])  # ordered counter
        for i in range(p + 1):
            for j in range(q + 1):
                if i + j >= 1:
                    cl = []
                    if i >= 1:
                        cl.append(-left[i - 1])
                    if j >= 1:
                        cl.append(-right[j - 1])
                    cl.append(out[i + j - 1])
                    formula.add_clause(cl)  # left>=i & right>=j -> out>=i+j
                if i + j + 1 <= p + q:
                    cl = []
                    if i + 1 <= p:
                        cl.append(left[i])
                    if j + 1 <= q:
                        cl.append(right[j])
                    cl.append(-out[i + j])
                    formula.add_clause(cl)  # out>=i+j+1 -> left>=i+1 | right>=j+1
        return out

    root = merge([[l] for l in lits]) if lits else []  # an empty sum counts to 0
    for k in range(lo):
        formula.add_clause([root[k]])
    for k in range(hi, len(root)):
        formula.add_clause([-root[k]])
    return aux


def encode_card_totalizer(constraint: Card, variables) -> Encoding:
    """Cardinality via a balanced tree of unary adders.

    Each node carries an ordered counter r_1 >= ... >= r_m ("at least i of
    my leaves are true"), with ordering clauses r_{i+1} -> r_i and the two
    merge families
        a_i & b_j -> r_{i+j}          (counting up)
        r_{i+j+1} -> a_{i+1} | b_{j+1} (bounding down)
    using true/false sentinels at the index ends. The lo/hi range lands as
    unit clauses on the root counter.
    """
    return _encode_boolean(constraint, variables, lambda formula, lits: _totalizer_into(
        formula, lits, constraint.lo, constraint.hi))


# --- cardinality: binary adders (negative control) ----------------------------

def _gate_and(formula, aux, a, b):
    if a is False or b is False:
        return False
    if a is True:
        return b
    if b is True:
        return a
    g = formula.new_var()
    aux.append(g)
    formula.add_clause([-g, a])
    formula.add_clause([-g, b])
    formula.add_clause([-a, -b, g])
    return g


def _gate_or(formula, aux, a, b):
    if a is True or b is True:
        return True
    if a is False:
        return b
    if b is False:
        return a
    g = formula.new_var()
    aux.append(g)
    formula.add_clause([-a, g])
    formula.add_clause([-b, g])
    formula.add_clause([-g, a, b])
    return g


def _gate_xor(formula, aux, a, b):
    if a is False:
        return b
    if b is False:
        return a
    if a is True:
        return False if b is True else -b
    if b is True:
        return -a
    g = formula.new_var()
    aux.append(g)
    formula.add_clause([-g, a, b])
    formula.add_clause([-g, -a, -b])
    formula.add_clause([g, -a, b])
    formula.add_clause([g, a, -b])
    return g


def _binary_adder_into(formula: CnfFormula, lits: list[int], lo: int, hi: int) -> list[int]:
    """Append an adder-circuit cardinality encoding of lo..hi over `lits`;
    returns the auxiliary gate variables."""
    aux: list[int] = []

    def add_numbers(xs, ys):
        # little-endian ripple-carry addition of two bit vectors
        width = max(len(xs), len(ys))
        out = []
        carry = False
        for k in range(width):
            a = xs[k] if k < len(xs) else False
            b = ys[k] if k < len(ys) else False
            s1 = _gate_xor(formula, aux, a, b)
            out.append(_gate_xor(formula, aux, s1, carry))
            c1 = _gate_and(formula, aux, a, b)
            c2 = _gate_and(formula, aux, s1, carry)
            carry = _gate_or(formula, aux, c1, c2)
        out.append(carry)
        return out

    def sum_tree(items):
        if len(items) == 1:
            return [items[0]]
        mid = (len(items) + 1) // 2
        return add_numbers(sum_tree(items[:mid]), sum_tree(items[mid:]))

    bits = sum_tree(lits) if lits else []  # an empty sum is 0

    def compare(kind: str, bound: int):
        # (sum >= bound) resp. (sum <= bound) as an LSB-to-MSB comparator fold
        acc = True
        for k in range(len(bits)):
            bit = bits[k]
            kbit = (bound >> k) & 1
            if kind == "ge":
                if kbit:
                    acc = _gate_and(formula, aux, bit, acc)
                else:
                    acc = _gate_or(formula, aux, bit, acc)
            else:
                nbit = (not bit) if isinstance(bit, bool) else -bit
                if kbit:
                    acc = _gate_or(formula, aux, nbit, acc)
                else:
                    acc = _gate_and(formula, aux, nbit, acc)
        return acc

    def assert_true(gate):
        if gate is True:
            return
        if gate is False:
            formula.add_clause([])  # falsum: the bounds are unsatisfiable
            return
        formula.add_clause([gate])

    if lo > 0:
        assert_true(compare("ge", lo))
    if hi < len(lits):
        assert_true(compare("le", hi))
    return aux


def encode_card_binary_adder(constraint: Card, variables) -> Encoding:
    """Cardinality via a tree of Tseitin-encoded ripple-carry adders plus a
    binary comparator against the lo/hi constants.

    Equisatisfiable with the source constraint, but unit propagation on the
    adder circuit is too weak to restore domain consistency in general;
    shipped as the negative control.
    """
    return _encode_boolean(constraint, variables, lambda formula, lits: _binary_adder_into(
        formula, lits, constraint.lo, constraint.hi))


# --- parity -------------------------------------------------------------------

def _xor_into(formula: CnfFormula, lits: list[int], parity: int) -> None:
    """Append the direct expansion of one XOR over CNF literals: every
    parity-violating assignment becomes a forbidding clause."""
    # fold literal signs and duplicate variables into the required parity
    counts: dict[int, int] = {}
    for l in lits:
        if l < 0:
            parity ^= 1
        counts[abs(l)] = counts.get(abs(l), 0) + 1
    cnf_vars = [v for v, c in counts.items() if c % 2 == 1]
    k = len(cnf_vars)
    if k > XOR_ARITY_LIMIT:
        raise ResourceError(
            f"xor arity {k} exceeds the direct-expansion limit {XOR_ARITY_LIMIT}")
    if k == 0:
        if parity == 1:
            formula.add_clause([])  # falsum: 0 = 1
        return
    for mask in range(1 << k):
        ones = bin(mask).count("1")
        if ones % 2 != parity:
            # forbid this assignment: negate each variable's value
            formula.add_clause([
                -cnf_vars[i] if (mask >> i) & 1 else cnf_vars[i]
                for i in range(k)])


def encode_xor_direct(constraint: Xor, variables) -> Encoding:
    """Direct expansion of one XOR equation: all 2^(k-1) parity-violating
    assignments become forbidding clauses. Exponential in arity, so only
    valid up to XOR_ARITY_LIMIT."""
    return _encode_boolean(constraint, variables, lambda formula, lits: _xor_into(
        formula, lits, constraint.parity))


# --- clause -> difference network ---------------------------------------------

NON_GAC = "non-gac"
GAC = "gac"


def encode_clause_to_neq(constraint: Clause, variables,
                         variant: str = GAC) -> Encoding:
    """Translate one clause into a network of binary difference constraints.

    Both variants keep the clause variables as target variables with their
    Boolean domains (identity channel) and add auxiliary gadget variables:

    * non-gac: the graph-coloring OR-gadget chain over a three-value
      palette, pinned by singleton-domain anchors. Equisatisfiable, but
      closure on the result under-deduces.
    * gac: per literal i an indicator h_i with domain {falsifying value of
      the literal, selector token i}, constrained h_i != literal variable,
      plus a selector d ranging over the tokens with d != h_i for every i.
      Falsifying literal i forces h_i to its token and knocks token i out
      of d; when one token remains, d pins the last h and that pins the
      literal's variable to its satisfying value.
    """
    _check_boolean(variables)
    if variant not in (NON_GAC, GAC):
        raise UsageError(f"unknown clause gadget variant {variant!r}")
    if not constraint.lits:
        raise UsageError("clause gadget needs at least one literal")

    tvars: list[Variable] = []
    constraints = []
    forward = {}
    twin = {}
    for var in variables:
        t = bool_variable(len(tvars) + 1, var.name)
        tvars.append(t)
        twin[var.id] = t
        forward[(var.id, FALSE)] = (t.id, FALSE)
        forward[(var.id, TRUE)] = (t.id, TRUE)

    def fresh(name, domain, labels=None):
        v = Variable(len(tvars) + 1, name, domain, labels)
        tvars.append(v)
        return v

    if variant == GAC:
        sel_labels = {}
        hs = []
        for i, lit in enumerate(constraint.lits, start=1):
            token = _EXTRA + i
            sel_labels[token] = str(i)
            fals = lit_false_value(lit)
            h = fresh(f"h{i}", (fals, token),
                      {fals: "FT"[fals], token: str(i)})
            hs.append(h)
            constraints.append(Neq(twin[lit_var(lit)].id, h.id))
        d = fresh("d", [_EXTRA + i for i in range(1, len(hs) + 1)], sel_labels)
        for h in hs:
            constraints.append(Neq(d.id, h.id))
    else:
        palette = (FALSE, TRUE, _EXTRA)
        labels = {FALSE: "F", TRUE: "T", _EXTRA: "B"}

        def literal_node(i, lit):
            if lit > 0:
                return twin[lit_var(lit)]
            node = fresh(f"n{i}", (FALSE, TRUE), {FALSE: "F", TRUE: "T"})
            constraints.append(Neq(twin[lit_var(lit)].id, node.id))
            return node

        def or_gadget(u: Variable, v: Variable, idx: int) -> Variable:
            p = fresh(f"p{idx}", palette, labels)
            q = fresh(f"q{idx}", palette, labels)
            o = fresh(f"o{idx}", palette, labels)
            constraints.append(Neq(p.id, u.id))
            constraints.append(Neq(q.id, v.id))
            constraints.append(Neq(p.id, q.id))
            constraints.append(Neq(p.id, o.id))
            constraints.append(Neq(q.id, o.id))
            return o

        nodes = [literal_node(i, lit) for i, lit in enumerate(constraint.lits, 1)]
        out = nodes[0]
        for idx, node in enumerate(nodes[1:], start=1):
            out = or_gadget(out, node, idx)
        anchor_f = fresh("anchorF", (FALSE,), {FALSE: "F"})
        anchor_b = fresh("anchorB", (_EXTRA,), {_EXTRA: "B"})
        constraints.append(Neq(out.id, anchor_f.id))
        constraints.append(Neq(out.id, anchor_b.id))

    target = Network(tvars, constraints)
    aux = [v.id for v in tvars if v.id > len(variables)]
    return Encoding(target, ChannelMap(ChannelMap.NETWORK, variables, forward, aux))


def compile_network(net: Network, box=None, card_scheme: str = "totalizer",
                    eo_scheme: str = PAIRWISE) -> Encoding:
    """Compile a whole network to one CNF with a shared channel.

    Boolean variables map directly to CNF variables; multi-valued variables
    get one-hot selectors under `eo_scheme`. Cardinality constraints use
    `card_scheme` (totalizer or binary-adder). Initial restrictions in `box`
    land as unit clauses.
    """
    formula = CnfFormula()
    forward: dict = {}
    aux: list[int] = []
    for var in net.variables:
        if var.is_boolean:
            idx = formula.new_var()
            forward[(var.id, TRUE)] = idx
            forward[(var.id, FALSE)] = -idx
        else:
            aux.extend(_one_hot_into(formula, forward, var, eo_scheme))

    def cnf_lits(lits):
        return [forward[(lit_var(l), lit_truth_value(l))] for l in lits]

    for c in net.constraints:
        if isinstance(c, Clause):
            formula.add_clause(cnf_lits(c.lits))
        elif isinstance(c, Card):
            if card_scheme == "totalizer":
                aux.extend(_totalizer_into(formula, cnf_lits(c.lits), c.lo, c.hi))
            elif card_scheme == "binary-adder":
                aux.extend(_binary_adder_into(formula, cnf_lits(c.lits), c.lo, c.hi))
            else:
                raise UsageError(f"unknown cardinality scheme {card_scheme!r}")
        elif isinstance(c, Xor):
            _xor_into(formula, cnf_lits(c.lits), c.parity)
        elif isinstance(c, Neq):
            _forbid_shared(formula, forward, net.variable(c.a), net.variable(c.b))
        elif isinstance(c, AllDiff):
            for i, a in enumerate(c.scope):
                for b in c.scope[i + 1:]:
                    _forbid_shared(formula, forward, net.variable(a), net.variable(b))
        else:
            raise UsageError(f"no CNF encoder for {c.kind()} constraints")

    channel = ChannelMap(ChannelMap.CNF, net.variables, forward, aux)
    if box is not None and box.inconsistent:
        formula.add_clause([])
    elif box is not None:
        for lit in map_knowledge(channel, box):
            formula.add_clause([lit])
    return Encoding(formula, channel)


# Name-based dispatch shared by the CLI and the classification suite.
ENCODING_NAMES = (
    "totalizer", "binary-adder",
    "exactly-one:pairwise", "exactly-one:sequential",
    "neq:pairwise", "neq:sequential",
    "alldiff-pairwise", "alldiff-pairwise:sequential",
    "xor-direct",
    "clause-to-neq:gac", "clause-to-neq:non-gac",
    "identity",
)


def build_encoding(name: str, constraint: Constraint, variables) -> Encoding:
    """Build the named encoding for a source constraint.

    Raises UsageError when the constraint variant does not match the
    encoder (for example `totalizer` on anything but a cardinality
    constraint).
    """
    by_id = {v.id: v for v in variables}

    def need(cls, label):
        if not isinstance(constraint, cls):
            raise UsageError(f"encoding {name!r} needs a {label} source constraint")

    if name == "totalizer":
        need(Card, "card")
        return encode_card_totalizer(constraint, variables)
    if name == "binary-adder":
        need(Card, "card")
        return encode_card_binary_adder(constraint, variables)
    if name.startswith("exactly-one:"):
        need(Card, "card[1..1]")
        return encode_exactly_one_constraint(constraint, variables, name.split(":", 1)[1])
    if name.startswith("neq:"):
        need(Neq, "neq")
        return encode_neq(by_id[constraint.a], by_id[constraint.b], name.split(":", 1)[1])
    if name == "alldiff-pairwise" or name.startswith("alldiff-pairwise:"):
        need(AllDiff, "alldiff")
        scheme = name.split(":", 1)[1] if ":" in name else PAIRWISE
        return encode_alldiff_pairwise([by_id[v] for v in constraint.scope], scheme)
    if name == "xor-direct":
        need(Xor, "xor")
        return encode_xor_direct(constraint, variables)
    if name.startswith("clause-to-neq:"):
        need(Clause, "clause")
        return encode_clause_to_neq(constraint, variables, name.split(":", 1)[1])
    if name == "identity":
        return identity_encoding(constraint, variables)
    raise UsageError(f"unknown encoding {name!r}; known: {', '.join(ENCODING_NAMES)}")


def identity_encoding(constraint: Constraint, variables) -> Encoding:
    """Trivial self-encoding: target network is the constraint itself with an
    identity channel. Useful as a checker sanity baseline."""
    forward = {}
    for var in variables:
        for value in var.domain:
            forward[(var.id, value)] = (var.id, value)
    target = Network(variables, [constraint] if constraint is not None else [])
    return Encoding(target, ChannelMap(ChannelMap.NETWORK, variables, forward, ()))
