"""CNET and DIMACS I/O: parse -> write_cnet -> parse is the identity, and
write_dimacs emits its exact documented text."""

import pytest
from hypothesis import given, settings, strategies as st

from gackit.cnet import CnetDocument, _tokenize, parse_cnet, write_cnet
from gackit.dimacs import write_dimacs
from gackit.encoders import identity_encoding
from gackit.model import (
    FALSE, TRUE, ChannelMap, DomainBox, Neq, Network, UsageError, bool_variable,
    range_variable,
)
from gackit.propagation import CnfFormula


@st.composite
def cnet_texts(draw):
    """CNET text over Boolean, range and enum variables (negative values
    included), with every constraint kind and restrict lines, in a random
    statement order (a variable may be declared after its first use)."""
    n = draw(st.integers(1, 5))
    names = [f"v{i}" for i in range(n)]
    domains, decls = [], []
    for name in names:
        kind = draw(st.sampled_from(("bool", "range", "enum")))
        if kind == "bool":
            domains.append((FALSE, TRUE))
            decls.append(f"var {name} bool")
        elif kind == "range":
            lo = draw(st.integers(-4, 3))
            hi = draw(st.integers(lo, lo + 3))
            domains.append(tuple(range(lo, hi + 1)))
            decls.append(f"var {name} {lo}..{hi}")
        else:
            values = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4,
                                   unique=True))
            domains.append(tuple(sorted(values)))
            decls.append(f"var {name} {{{','.join(map(str, values))}}}")
    labels = [("F", "T") if d == (FALSE, TRUE) and decl.endswith("bool")
              else None for d, decl in zip(domains, decls)]

    def text(i, value):
        return labels[i][value] if labels[i] else str(value)

    booleans = [i for i, d in enumerate(domains) if d == (FALSE, TRUE)]
    indices = st.integers(0, n - 1)
    statements = []
    for kind in draw(st.lists(st.sampled_from(
            ("clause", "card", "xor", "alldiff", "neq", "table", "restrict")),
            max_size=6)):
        if kind in ("clause", "card", "xor"):
            if not booleans:
                continue
            lits = [("-" if neg else "") + names[i] for i, neg in draw(st.lists(
                st.tuples(st.sampled_from(booleans), st.booleans()),
                min_size=1, max_size=4))]
            if kind == "clause":
                statements.append("clause " + " ".join(lits))
            elif kind == "xor":
                statements.append(f"xor {' '.join(lits)} = {draw(st.integers(0, 1))}")
            else:
                lo = draw(st.integers(0, len(lits)))
                hi = draw(st.integers(lo, len(lits)))
                statements.append(f"card {lo} {hi} " + " ".join(lits))
        elif kind in ("alldiff", "table"):
            scope = draw(st.lists(indices, min_size=1, max_size=3, unique=True))
            if kind == "alldiff":
                statements.append("alldiff " + " ".join(names[i] for i in scope))
                continue
            rows = draw(st.lists(st.tuples(*(st.sampled_from(domains[i])
                                             for i in scope)), max_size=4))
            statements.append(
                f"table {' '.join(names[i] for i in scope)} : " + "".join(
                    "(" + ",".join(text(i, v) for i, v in zip(scope, row)) + ")"
                    for row in rows))
        elif kind == "neq":
            if n > 1:
                a, b = draw(st.lists(indices, min_size=2, max_size=2, unique=True))
                statements.append(f"neq {names[a]} {names[b]}")
        else:
            i = draw(indices)
            values = draw(st.lists(st.sampled_from(domains[i]), min_size=1,
                                   max_size=2, unique=True))
            statements.append(f"restrict {names[i]} "
                              f"{{{','.join(text(i, v) for v in values)}}}")
    lines = draw(st.permutations(decls + statements))
    return "\n".join(lines) + "\n"


def shape(doc):
    """Everything a CNET document says, as comparable plain data."""
    net = doc.network
    variables = [(v.id, v.name, v.domain, v.labels) for v in net.variables]
    constraints = []
    for c in net.constraints:
        fields = {"clause": ("lits",), "card": ("lits", "lo", "hi"),
                  "xor": ("lits", "parity"), "alldiff": ("scope",),
                  "neq": ("a", "b"), "table": ("scope", "tuples")}[c.kind()]
        constraints.append((c.kind(), *(getattr(c, f) for f in fields)))
    return variables, constraints, doc.box


@settings(max_examples=300, deadline=None)
@given(cnet_texts())
def test_parse_write_parse_is_the_identity(text):
    doc = parse_cnet(text)
    written = write_cnet(doc)
    assert shape(parse_cnet(written)) == shape(doc)
    assert write_cnet(parse_cnet(written)) == written


# (token, 1-based column) lists as the character-by-character tokenizer gave them
@pytest.mark.parametrize("line, tokens", [
    ("clause x#c", [("clause", 1), ("x", 8)]),
    ("a#b#c", [("a", 1)]),
    ("card 1 2 a b#", [("card", 1), ("1", 6), ("2", 8), ("a", 10), ("b", 12)]),
    ("# all comment", []),
    ("#", []),
    ("{}():,=", [("{", 1), ("}", 2), ("(", 3), (")", 4), (":", 5), (",", 6), ("=", 7)]),
    ("x{}():,=y", [("x", 1), ("{", 2), ("}", 3), ("(", 4), (")", 5), (":", 6), (",", 7),
                   ("=", 8), ("y", 9)]),
    ("{1,2}x", [("{", 1), ("1", 2), (",", 3), ("2", 4), ("}", 5), ("x", 6)]),
    ("var\tX\x0b1..3\x1c", [("var", 1), ("X", 5), ("1..3", 7)]),
    ("restrict X {1,2}\t# c", [("restrict", 1), ("X", 10), ("{", 12), ("1", 13), (",", 14),
                               ("2", 15), ("}", 16)]),
    ("   var a bool", [("var", 4), ("a", 8), ("bool", 10)]),
    ("-x.y_z", [("-x.y_z", 1)]),
    ("", []),
    ("  \t ", []),
], ids=["glued-comment", "two-hashes", "trailing-hash", "comment-line", "bare-hash",
        "punctuation-run", "punctuation-between-words", "set-then-word", "odd-blanks",
        "tab-before-comment", "leading-blanks", "word-chars", "empty", "blanks-only"])
def test_tokenize_is_pinned(line, tokens):
    assert _tokenize(line) == tokens


def test_write_cnet_covers_every_constraint_kind():
    text = ("var a bool\nvar b bool\nvar X -2..1\nvar Y {-3,0,4}\n"
            "clause a -b\ncard 1 2 a -b a\nxor -a b = 1\nalldiff X Y\n"
            "neq Y X\ntable a Y : (F,-3)(T,4)\nrestrict Y {-3,4}\n")
    assert write_cnet(parse_cnet(text)) == text


def test_contradicting_restricts_survive_the_round_trip():
    doc = parse_cnet("var X 1..3\nvar b bool\nrestrict X {1}\nrestrict X {2,3}\n")
    assert doc.box.inconsistent
    written = write_cnet(doc)
    assert written == "var X 1..3\nvar b bool\nrestrict X {1}\nrestrict X {2}\n"
    assert parse_cnet(written).box.inconsistent


def test_inconsistent_box_over_single_values_is_a_usage_error():
    net = Network([range_variable(1, "X", 2, 2)], [])
    with pytest.raises(UsageError):
        write_cnet(CnetDocument(net, DomainBox.bottom()))


class TestWriteDimacs:
    variables = [bool_variable(1, "a"), range_variable(2, "X", 1, 2)]
    forward = {(1, FALSE): -1, (1, TRUE): 1, (2, 1): 2, (2, 2): 3}

    def test_exact_text_with_channel_comments(self):
        formula = CnfFormula(4, [[1, -2], [2, 3], [-2, -3, 4]])
        channel = ChannelMap(ChannelMap.CNF, self.variables, self.forward)
        assert write_dimacs(formula, channel) == (
            "c map a F -1\n"
            "c map a T 1\n"
            "c map X 1 2\n"
            "c map X 2 3\n"
            "p cnf 4 3\n"
            "1 -2 0\n"
            "2 3 0\n"
            "-2 -3 4 0\n")

    def test_without_a_channel(self):
        assert write_dimacs(CnfFormula(2, [[-1, 2]])) == "p cnf 2 1\n-1 2 0\n"
        assert write_dimacs(CnfFormula()) == "p cnf 0 0\n"

    def test_empty_clause_is_a_bare_terminator(self):
        assert write_dimacs(CnfFormula(1, [[]])) == "p cnf 1 1\n0\n"
        assert write_dimacs(CnfFormula(2, [[1], [], [-1, 2]])) == "p cnf 2 3\n1 0\n0\n-1 2 0\n"

    def test_network_channel_is_a_usage_error(self):
        enc = identity_encoding(Neq(1, 2), [range_variable(1, "A", 1, 2),
                                            range_variable(2, "B", 1, 2)])
        with pytest.raises(UsageError):
            write_dimacs(CnfFormula(1, [[1]]), enc.channel)
