"""Source-to-target translations: cardinality, difference, parity and clause
constraints into CNF or difference networks, each with a channel map relating
source (variable, value) pairs to target atoms.

The unary-counter (totalizer) cardinality encoding is the propagation-strong
route; the binary-adder encoding is deliberately shipped as a negative
control that keeps equisatisfiability but loses deductions under unit
propagation. Nothing here is assumed strong or weak: the checkers in
`gac_check` certify each claim.

Auxiliary target variables are those that no channel image names: the
encoders never list them, `Encoding.stats` counts them from the channel.

Named encodings are dispatched only through `build_encoding`'s table of
(source class, builder), and `ENCODING_NAMES` is that table's keys. The
card, xor, neq and alldiff ones are `compile_network` on the one-constraint
network; the card ones are named after the `CARD_SCHEMES` entry they
compile with, the neq and alldiff ones after their one-hot scheme.

Every CNF encoding accepts any declared variables, also those outside the
constraint's scope: a Boolean variable becomes one CNF variable, any other
gets one-hot selectors. A literal constraint (clause, card, xor) needs
Boolean variables in its scope, which `Network` checks. The clause-to-neq
networks need every declared variable Boolean.

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
        """Sizes counted from the target; aux is every target variable that
        no channel image names."""
        if isinstance(self.target, CnfFormula):
            size, clauses = self.target.num_vars, len(self.target.clauses)
            named = {abs(lit) for lit in self.channel.forward.values()}
        else:
            size, clauses = len(self.target.variables), len(self.target.constraints)
            named = {tvid for tvid, _ in self.channel.forward.values()}
        return EncodingStats(size, size - len(named), clauses)


def _cnf_lits(forward: dict, lits) -> list[int]:
    """The CNF literals of source literals over directly channelled Booleans."""
    return [forward[(lit_var(l), lit_truth_value(l))] for l in lits]


# --- exactly-one -------------------------------------------------------------

def encode_exactly_one(formula: CnfFormula, lits: list[int], scheme: str) -> None:
    """Append clauses forcing exactly one of `lits` true.

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
        return
    if scheme == PAIRWISE:
        formula.add_clause(lits)
        for i in range(n):
            for j in range(i + 1, n):
                formula.add_clause([-lits[i], -lits[j]])
        return
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


# --- cardinality: unary counters ---------------------------------------------

def _totalizer_into(formula: CnfFormula, lits: list[int], lo: int, hi: int) -> None:
    """Append a unary-counter cardinality encoding of lo..hi over `lits`: a
    balanced tree of unary adders.

    Each node carries an ordered counter r_1 >= ... >= r_m ("at least i of
    my leaves are true"), with ordering clauses r_{i+1} -> r_i and the two
    merge families
        a_i & b_j -> r_{i+j}          (counting up)
        r_{i+j+1} -> a_{i+1} | b_{j+1} (bounding down)
    using true/false sentinels at the index ends. The lo/hi range lands as
    unit clauses on the root counter.
    """
    def merge(counters: list[list[int]]) -> list[int]:
        if len(counters) == 1:
            return counters[0]
        mid = (len(counters) + 1) // 2
        left = merge(counters[:mid])
        right = merge(counters[mid:])
        p, q = len(left), len(right)
        out = [formula.new_var() for _ in range(p + q)]
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


# --- cardinality: binary adders (negative control) ----------------------------

def _gate_and(formula, a, b):
    if a is False or b is False:
        return False
    if a is True:
        return b
    if b is True:
        return a
    g = formula.new_var()
    formula.add_clause([-g, a])
    formula.add_clause([-g, b])
    formula.add_clause([-a, -b, g])
    return g


def _gate_or(formula, a, b):
    if a is True or b is True:
        return True
    if a is False:
        return b
    if b is False:
        return a
    g = formula.new_var()
    formula.add_clause([-a, g])
    formula.add_clause([-b, g])
    formula.add_clause([-g, a, b])
    return g


def _gate_xor(formula, a, b):
    if a is False:
        return b
    if b is False:
        return a
    if a is True:
        return False if b is True else -b
    if b is True:
        return -a
    g = formula.new_var()
    formula.add_clause([-g, a, b])
    formula.add_clause([-g, -a, -b])
    formula.add_clause([g, -a, b])
    formula.add_clause([g, a, -b])
    return g


def _binary_adder_into(formula: CnfFormula, lits: list[int], lo: int, hi: int) -> None:
    """Append an adder-circuit cardinality encoding of lo..hi over `lits`: a
    tree of Tseitin-encoded ripple-carry adders plus a binary comparator
    against the lo/hi constants.

    Equisatisfiable with the source constraint, but unit propagation on the
    adder circuit is too weak to restore domain consistency in general;
    shipped as the negative control.
    """
    def add_numbers(xs, ys):
        # little-endian ripple-carry addition of two bit vectors
        width = max(len(xs), len(ys))
        out = []
        carry = False
        for k in range(width):
            a = xs[k] if k < len(xs) else False
            b = ys[k] if k < len(ys) else False
            s1 = _gate_xor(formula, a, b)
            out.append(_gate_xor(formula, s1, carry))
            c1 = _gate_and(formula, a, b)
            c2 = _gate_and(formula, s1, carry)
            carry = _gate_or(formula, c1, c2)
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
                    acc = _gate_and(formula, bit, acc)
                else:
                    acc = _gate_or(formula, bit, acc)
            else:
                nbit = (not bit) if isinstance(bit, bool) else -bit
                if kbit:
                    acc = _gate_or(formula, nbit, acc)
                else:
                    acc = _gate_and(formula, nbit, acc)
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


# the cardinality schemes that compile a whole network, by name
CARD_SCHEMES = {"totalizer": _totalizer_into, "binary-adder": _binary_adder_into}


# --- parity -------------------------------------------------------------------

def _xor_into(formula: CnfFormula, lits: list[int], parity: int) -> None:
    """Append the direct expansion of one XOR over CNF literals: all 2^(k-1)
    parity-violating assignments become forbidding clauses. Exponential in
    the arity k, so only valid up to XOR_ARITY_LIMIT."""
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
    for var in variables:
        if not var.is_boolean:
            raise UsageError(f"{var.name!r} must be Boolean for this encoder")
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

    return Encoding(Network(tvars, constraints),
                    ChannelMap(ChannelMap.NETWORK, variables, forward))


def compile_network(net: Network, box=None, card_scheme: str = "totalizer",
                    one_hot: str = PAIRWISE) -> Encoding:
    """Compile a whole network to one CNF with a shared channel.

    Boolean variables map directly to CNF variables; every other variable
    gets one selector per value, tied by the `encode_exactly_one` scheme
    named `one_hot` (the direct encoding). Neq and AllDiff forbid each
    shared value pairwise, so that decomposition is propagation-weak on
    Hall-set instances. Cardinality constraints use the `CARD_SCHEMES`
    entry named `card_scheme`. Initial restrictions in `box` land as unit
    clauses.
    """
    if card_scheme not in CARD_SCHEMES:
        raise UsageError(f"unknown cardinality scheme {card_scheme!r}")
    if one_hot not in EXACTLY_ONE_SCHEMES:
        raise UsageError(f"unknown exactly-one scheme {one_hot!r}")
    formula = CnfFormula()
    forward: dict = {}
    for var in net.variables:
        if var.is_boolean:
            idx = formula.new_var()
            forward[(var.id, TRUE)] = idx
            forward[(var.id, FALSE)] = -idx
        else:
            for value in var.domain:
                forward[(var.id, value)] = formula.new_var()
            encode_exactly_one(formula, [forward[(var.id, v)] for v in var.domain], one_hot)

    for c in net.constraints:
        if isinstance(c, Clause):
            formula.add_clause(_cnf_lits(forward, c.lits))
        elif isinstance(c, Card):
            CARD_SCHEMES[card_scheme](formula, _cnf_lits(forward, c.lits), c.lo, c.hi)
        elif isinstance(c, Xor):
            _xor_into(formula, _cnf_lits(forward, c.lits), c.parity)
        elif isinstance(c, (Neq, AllDiff)):  # no two of the scope share a value
            for i, a in enumerate(c.scope):
                for b in c.scope[i + 1:]:
                    for value in net.variable(a).domain:
                        if (b, value) in forward:
                            formula.add_clause([-forward[(a, value)], -forward[(b, value)]])
        else:
            raise UsageError(f"no CNF encoder for {c.kind()} constraints")

    channel = ChannelMap(ChannelMap.CNF, net.variables, forward)
    if box is not None and box.inconsistent:
        formula.add_clause([])
    elif box is not None:
        for lit in map_knowledge(channel, box):
            formula.add_clause([lit])
    return Encoding(formula, channel)


def identity_encoding(constraint: Constraint, variables) -> Encoding:
    """Trivial self-encoding: target network is the constraint itself with an
    identity channel. Useful as a checker sanity baseline."""
    forward = {}
    for var in variables:
        for value in var.domain:
            forward[(var.id, value)] = (var.id, value)
    return Encoding(Network(variables, [constraint]),
                    ChannelMap(ChannelMap.NETWORK, variables, forward))


# --- the named encodings ------------------------------------------------------
# Builders look `compile_network` up as a module global at call time, so a
# wrapper installed on the module sees their calls too.

def _compiled(constraint, variables, **options) -> Encoding:
    return compile_network(Network(variables, [constraint]), None, **options)


def _exactly_one(constraint: Card, variables, scheme: str) -> Encoding:
    if (constraint.lo, constraint.hi) != (1, 1):
        raise UsageError("exactly-one encoder needs a card[1..1] source")
    enc = compile_network(Network(variables, []), one_hot=scheme)
    encode_exactly_one(enc.target, _cnf_lits(enc.channel.forward, constraint.lits), scheme)
    return enc


# name -> (source class, its label in errors, builder, builder keyword
# options); shared by the CLI and the classification suite
_ENCODINGS = {
    **{scheme: (Card, "card", _compiled, {"card_scheme": scheme}) for scheme in CARD_SCHEMES},
    "exactly-one:pairwise": (Card, "card[1..1]", _exactly_one, {"scheme": PAIRWISE}),
    "exactly-one:sequential": (Card, "card[1..1]", _exactly_one, {"scheme": SEQUENTIAL}),
    "neq:pairwise": (Neq, "neq", _compiled, {"one_hot": PAIRWISE}),
    "neq:sequential": (Neq, "neq", _compiled, {"one_hot": SEQUENTIAL}),
    "alldiff-pairwise": (AllDiff, "alldiff", _compiled, {"one_hot": PAIRWISE}),
    "alldiff-pairwise:sequential": (AllDiff, "alldiff", _compiled, {"one_hot": SEQUENTIAL}),
    "xor-direct": (Xor, "xor", _compiled, {}),
    "clause-to-neq:gac": (Clause, "clause", encode_clause_to_neq, {"variant": GAC}),
    "clause-to-neq:non-gac": (Clause, "clause", encode_clause_to_neq, {"variant": NON_GAC}),
    "identity": (Constraint, "any", identity_encoding, {}),
}
ENCODING_NAMES = tuple(_ENCODINGS)


def lookup_encoding(name: str) -> tuple:
    """The table entry of a named encoding; UsageError for any other name."""
    if name not in _ENCODINGS:
        raise UsageError(f"unknown encoding {name!r}; known: {', '.join(ENCODING_NAMES)}")
    return _ENCODINGS[name]


def build_encoding(name: str, constraint: Constraint, variables) -> Encoding:
    """Build the named encoding for a source constraint.

    Raises UsageError for a name outside ENCODING_NAMES, when the
    constraint variant does not match the encoder (for example `totalizer`
    on anything but a cardinality constraint), and where `Network` rejects
    the constraint over `variables`.
    """
    cls, label, build, options = lookup_encoding(name)
    if not isinstance(constraint, cls):
        raise UsageError(f"encoding {name!r} needs a {label} source constraint")
    Network(variables, [constraint])
    return build(constraint, variables, **options)
