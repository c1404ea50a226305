"""CNET: a line-oriented text format for constraint networks.

Grammar (one statement per line, `#` starts a comment):

    var <name> bool
    var <name> <lo>..<hi>
    var <name> {v1,v2,...}
    clause <lit>...              lit = name or -name (Boolean variables)
    card <lo> <hi> <lit>...
    alldiff <name>...
    neq <name> <name>
    xor <lit>... = <0|1>
    table <name>... : (v,...)(v,...)...
    restrict <name> {v,...}

Variables may be declared anywhere in the file, including after their first
use. Values in restrict/table positions are written as domain labels (T/F
for Booleans, integers otherwise). parse -> print -> parse is the identity
up to whitespace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .model import (
    FALSE, TRUE, AllDiff, Card, Clause, DomainBox, Neq, Network, ResourceError,
    Table, UsageError, Variable, Xor, bool_variable, range_variable, restrict,
)

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*$")
_PUNCT = frozenset("{}():,=")
# one punctuation character, or a run of anything but blanks and punctuation
_TOKEN = re.compile(r"[{0}]|[^\s{0}]+".format(re.escape("".join(sorted(_PUNCT)))))


class CnetParseError(UsageError):
    """Syntax or resolution error with its source location."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass
class CnetDocument:
    network: Network
    box: DomainBox  # initial domains after restrict lines


def _tokenize(line: str):
    """Tokens with 1-based column positions; comments stripped."""
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line.partition("#")[0])]


def parse_cnet(text: str) -> CnetDocument:
    # First pass: declarations. Constraints may reference variables declared
    # later in the file, so resolution happens in a second pass.
    declarations = []
    statements = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = _tokenize(raw)
        if not tokens:
            continue
        head = tokens[0][0]
        if head == "var":
            declarations.append((lineno, tokens))
        elif head in ("clause", "card", "alldiff", "neq", "xor", "table", "restrict"):
            statements.append((lineno, tokens))
        else:
            raise CnetParseError(f"unknown statement {head!r}", lineno, tokens[0][1])

    variables: dict[str, Variable] = {}
    order: list[Variable] = []
    for lineno, tokens in declarations:
        var = _parse_var(lineno, tokens, next_id=len(order) + 1)
        if var.name in variables:
            raise CnetParseError(f"variable {var.name!r} declared twice", lineno)
        variables[var.name] = var
        order.append(var)

    constraints = []
    restricts = []
    for lineno, tokens in statements:
        head = tokens[0][0]
        if head == "restrict":
            restricts.append(_parse_restrict(lineno, tokens, variables))
        else:
            try:
                constraints.append(_parse_constraint(lineno, tokens, variables))
            except CnetParseError:
                raise
            except UsageError as exc:  # a constructor's check, located at the head
                raise CnetParseError(str(exc), lineno, tokens[0][1]) from None

    try:
        network = Network(order, constraints)
    except UsageError as exc:
        raise CnetParseError(str(exc), len(text.splitlines()) or 1) from None
    box = network.initial_box()
    for vid, values in restricts:
        box = restrict(box, vid, values)
    return CnetDocument(network, box)


def _parse_var(lineno, tokens, next_id) -> Variable:
    words = [t for t, _ in tokens]
    if len(tokens) < 3:
        raise CnetParseError("var needs a name and a domain", lineno, tokens[-1][1])
    name = words[1]
    if not _NAME.match(name):
        raise CnetParseError(f"bad variable name {name!r}", lineno, tokens[1][1])
    if words[2] == "bool" and len(words) == 3:
        return bool_variable(next_id, name)
    if len(words) == 3 and ".." in words[2]:
        lo_s, hi_s = words[2].split("..", 1)
        try:
            return range_variable(next_id, name, int(lo_s), int(hi_s))
        except ValueError:
            raise CnetParseError(f"bad range {words[2]!r}", lineno, tokens[2][1]) from None
        except ResourceError as exc:
            raise CnetParseError(str(exc), lineno, tokens[2][1]) from None
    if words[2] == "{":
        values = _parse_value_set(lineno, tokens[2:], None)
        return Variable(next_id, name, values)
    raise CnetParseError(f"bad domain {' '.join(words[2:])!r}", lineno, tokens[2][1])


def _comma_list(lineno, tokens, i, opener, closer, item) -> tuple[list, int]:
    """Parse `opener value, ..., value closer`, or `opener closer`, starting
    at tokens[i]; each value becomes `item(col, token, index)`. Returns the
    items and the index just past the closer."""
    def at(k):
        return tokens[k] if k < len(tokens) else (None, tokens[-1][1])
    if at(i)[0] != opener:
        raise CnetParseError(f"expected {opener!r}", lineno, at(i)[1])
    items = []
    i += 1
    if at(i)[0] == closer:
        return items, i + 1
    while True:
        tok, col = at(i)
        if tok is None or tok in _PUNCT:
            raise CnetParseError("expected a value", lineno, col)
        items.append(item(col, tok, len(items)))
        tok, col = at(i + 1)
        if tok == closer:
            return items, i + 2
        if tok != ",":
            raise CnetParseError(f"expected ',' or {closer!r}", lineno, col)
        i += 2


def _parse_value_set(lineno, tokens, var: Variable | None) -> list[int]:
    # tokens are one "{...}" set; values resolved against var labels when given
    values, end = _comma_list(lineno, tokens, 0, "{", "}",
                              lambda col, tok, _: _parse_value(lineno, col, tok, var))
    if not values:
        raise CnetParseError("empty value set", lineno, tokens[end - 1][1])
    if end < len(tokens):
        raise CnetParseError(f"unexpected {tokens[end][0]!r} after the value set",
                             lineno, tokens[end][1])
    return values


def _parse_value(lineno, col, token, var: Variable | None) -> int:
    if var is not None:
        for value in var.domain:
            if var.label(value) == token:
                return value
    try:
        value = int(token)
    except ValueError:
        raise CnetParseError(f"bad value {token!r}", lineno, col) from None
    if var is not None and value not in var.domain:
        raise CnetParseError(
            f"value {token} outside the domain of {var.name!r}", lineno, col)
    return value


def _need_var(lineno, col, name, variables) -> Variable:
    if name not in variables:
        raise CnetParseError(f"unknown variable {name!r}", lineno, col)
    return variables[name]


def _parse_lit(lineno, col, token, variables) -> int:
    neg = token.startswith("-")
    name = token[1:] if neg else token
    var = _need_var(lineno, col, name, variables)
    if not var.is_boolean:
        raise CnetParseError(f"literal on non-Boolean variable {name!r}", lineno, col)
    return -var.id if neg else var.id


def _parse_constraint(lineno, tokens, variables):
    head, headcol = tokens[0]
    rest = tokens[1:]
    if head == "clause":
        if not rest:
            raise CnetParseError("clause needs at least one literal", lineno, headcol)
        return Clause([_parse_lit(lineno, c, t, variables) for t, c in rest])
    if head == "card":
        if len(rest) < 3:
            raise CnetParseError("card needs bounds and literals", lineno, headcol)
        try:
            lo, hi = int(rest[0][0]), int(rest[1][0])
        except ValueError:
            raise CnetParseError("card bounds must be integers", lineno, rest[0][1]) from None
        return Card([_parse_lit(lineno, c, t, variables) for t, c in rest[2:]], lo, hi)
    if head == "alldiff":
        if not rest:
            raise CnetParseError("alldiff needs variables", lineno, headcol)
        return AllDiff([_need_var(lineno, c, t, variables).id for t, c in rest])
    if head == "neq":
        if len(rest) != 2:
            raise CnetParseError("neq needs exactly two variables", lineno, headcol)
        a = _need_var(lineno, rest[0][1], rest[0][0], variables)
        b = _need_var(lineno, rest[1][1], rest[1][0], variables)
        return Neq(a.id, b.id)
    if head == "xor":
        eq = next((i for i, (t, _) in enumerate(rest) if t == "="), None)
        if eq is None or eq != len(rest) - 2:
            raise CnetParseError("xor needs '= 0' or '= 1' at the end", lineno, headcol)
        parity_tok, parity_col = rest[-1]
        if parity_tok not in ("0", "1"):
            raise CnetParseError("xor parity must be 0 or 1", lineno, parity_col)
        lits = [_parse_lit(lineno, c, t, variables) for t, c in rest[:eq]]
        if not lits:
            raise CnetParseError("xor needs at least one literal", lineno, headcol)
        return Xor(lits, int(parity_tok))
    if head == "table":
        colon = next((i for i, (t, _) in enumerate(rest) if t == ":"), None)
        if colon is None or colon == 0:
            raise CnetParseError("table needs 'table <vars> : (tuples)'", lineno, headcol)
        tvars = [_need_var(lineno, c, t, variables) for t, c in rest[:colon]]
        rows = _parse_tuples(lineno, rest[colon + 1:], tvars)
        return Table([v.id for v in tvars], rows)
    raise CnetParseError(f"unknown constraint {head!r}", lineno, headcol)


def _parse_tuples(lineno, tokens, tvars):
    def value(col, tok, k):
        if k >= len(tvars):
            raise CnetParseError("tuple longer than the variable list", lineno, col)
        return _parse_value(lineno, col, tok, tvars[k])
    rows = []
    i = 0
    while i < len(tokens):
        row, i = _comma_list(lineno, tokens, i, "(", ")", value)
        if len(row) != len(tvars):
            raise CnetParseError(
                f"tuple arity {len(row)} does not match {len(tvars)} variables",
                lineno, tokens[i - 1][1])
        rows.append(tuple(row))
    return rows


def _parse_restrict(lineno, tokens, variables):
    if len(tokens) < 3:
        raise CnetParseError("restrict needs a variable and a value set", lineno, tokens[0][1])
    var = _need_var(lineno, tokens[1][1], tokens[1][0], variables)
    values = _parse_value_set(lineno, tokens[2:], var)
    return var.id, values


# --- writing -------------------------------------------------------------------

def write_cnet(doc: CnetDocument) -> str:
    net = doc.network
    lines = []
    for var in net.variables:
        lines.append(f"var {var.name} {_domain_text(var)}")
    for c in net.constraints:
        lines.append(_constraint_text(c, net))
    if doc.box.inconsistent:
        # an empty domain has no CNET form; two disjoint restricts parse to it
        var = next((v for v in net.variables if len(v.domain) > 1), None)
        if var is None:
            raise UsageError("cannot write an inconsistent box over single-valued variables")
        lines += [f"restrict {var.name} {{{_value_text(var, value)}}}"
                  for value in var.domain[:2]]
    else:
        for var in net.variables:
            dom = doc.box.domain(var.id)
            if dom != frozenset(var.domain):
                vals = ",".join(_value_text(var, v) for v in sorted(dom))
                lines.append(f"restrict {var.name} {{{vals}}}")
    return "\n".join(lines) + "\n"


def _value_text(var: Variable, value: int) -> str:
    # values must resolve against the re-parsed declaration: label text for
    # "bool" declarations, plain integers otherwise
    if _domain_text(var) == "bool":
        return var.label(value)
    return str(value)


def _domain_text(var: Variable) -> str:
    if var.is_boolean and var.labels.get(FALSE) == "F" and var.labels.get(TRUE) == "T":
        return "bool"
    dom = var.domain
    if len(dom) > 1 and dom == tuple(range(dom[0], dom[-1] + 1)):
        return f"{dom[0]}..{dom[-1]}"
    # enum domains are integer-valued in the grammar; labels are display-only
    return "{" + ",".join(str(v) for v in dom) + "}"


def _lit_text(lit: int, net: Network) -> str:
    name = net.variable(abs(lit)).name
    return name if lit > 0 else f"-{name}"


def _constraint_text(c, net: Network) -> str:
    if isinstance(c, Clause):
        return "clause " + " ".join(_lit_text(l, net) for l in c.lits)
    if isinstance(c, Card):
        return f"card {c.lo} {c.hi} " + " ".join(_lit_text(l, net) for l in c.lits)
    if isinstance(c, AllDiff):
        return "alldiff " + " ".join(net.variable(v).name for v in c.scope)
    if isinstance(c, Neq):
        return f"neq {net.variable(c.a).name} {net.variable(c.b).name}"
    if isinstance(c, Xor):
        return ("xor " + " ".join(_lit_text(l, net) for l in c.lits)
                + f" = {c.parity}")
    if isinstance(c, Table):
        vars_text = " ".join(net.variable(v).name for v in c.scope)
        rows = sorted(c.tuples)
        rows_text = "".join(
            "(" + ",".join(_value_text(net.variable(v), val)
                           for v, val in zip(c.scope, row)) + ")"
            for row in rows)
        return f"table {vars_text} : {rows_text}"
    raise UsageError(f"cannot serialize constraint {c!r}")
