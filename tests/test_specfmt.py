"""Channel-spec text format: parsing, diagnostics, round trips."""

from fractions import Fraction as F

import numpy as np
import pytest

from wiretap3 import fme
from wiretap3.specfmt import ChannelSpecError, parse_spec, write_spec

DOC = """
# a small document
alphabet X 2
alphabet Y 3
alphabet Q 2

pmf unif : X
1/2 1/2

channel W : X -> Y
1/2 1/4 1/4
0 1/2 1/2

channel pv : Q -> X
2/3 1/3
1/4 3/4

pmf pq : Q
0.3 0.7

factored d ck
factor Q |  = pq
factor V | Q = pv
end
"""


class TestParse:
    def test_basic(self):
        doc = parse_spec(DOC.replace("factor V | Q = pv", "factor X | Q = pv"))
        assert doc.alphabets == {"X": 2, "Y": 3, "Q": 2}
        assert doc.pmf("unif").exact == (F(1, 2), F(1, 2))
        assert doc.channel("W").exact[0] == (F(1, 2), F(1, 4), F(1, 4))
        fd = doc.factored["d"]
        assert fd.axes == ("Q", "X")

    def test_decimal_entries_are_float(self):
        doc = parse_spec("alphabet X 2\npmf p : X\n0.3 0.7\n")
        assert doc.pmf("p").exact is None

    def test_non_stochastic_row_line_number(self):
        text = "alphabet X 2\nchannel W : X -> X\n0.5 0.6\n0.5 0.5\n"
        with pytest.raises(ChannelSpecError) as ei:
            parse_spec(text)
        assert "line 2" in str(ei.value)

    def test_wrong_entry_count(self):
        with pytest.raises(ChannelSpecError) as ei:
            parse_spec("alphabet X 2\npmf p : X\n1/2 1/4 1/4\n")
        assert "expected 2 entries" in str(ei.value)

    def test_zero_denominator_line_number(self):
        with pytest.raises(ChannelSpecError, match="line 3: zero denominator in '1/0'"):
            parse_spec("alphabet X 2\npmf p : X\n1/0 1\n")

    def test_undeclared_alphabet(self):
        with pytest.raises(ChannelSpecError):
            parse_spec("pmf p : X\n1\n")

    def test_missing_end(self):
        with pytest.raises(ChannelSpecError, match="missing 'end'"):
            parse_spec("alphabet X 2\npmf p : X\n1/2 1/2\nfactored d\nfactor X | = p\n")

    def test_unknown_table(self):
        with pytest.raises(ChannelSpecError, match="unknown table"):
            parse_spec("alphabet X 2\nfactored d\nfactor X | = nope\nend\n")


class TestDeclarations:
    DECLARED = """alphabet X 2
pmf p : X
1/2 1/2
channel W : X -> X
1 0
0 1
factored d
factor X | = p
end
"""

    @pytest.mark.parametrize("kind, name, again", [
        ("alphabet", "X", "alphabet X 3"),
        ("pmf", "p", "pmf p : X\n1/4 3/4"),
        ("channel", "W", "channel W : X -> X\n0 1\n1 0"),
        ("factored", "d", "factored d\nfactor X | = p\nend"),
    ])
    def test_redeclared_name_is_rejected(self, kind, name, again):
        message = f"line 10: {kind} '{name}' is already declared"
        with pytest.raises(ChannelSpecError, match=message):
            parse_spec(self.DECLARED + again + "\n")


# blank, comment-only and blank-with-spaces lines ahead of every case below
# pmf pa and channel pb are the tables of d and e; channel d_f0 and pmf
# d_f0_ hold the names a fresh table of d would get first
COLLIDING = (
    "alphabet A 2\nalphabet B 2\nchannel d_f0 : A -> B\n1/2 1/2\n1/4 3/4\n"
    "pmf d_f0_ : A\n1 0\npmf pa : A\n1/3 2/3\nchannel pb : A -> B\n1 0\n0 1\n"
    "factored d\nfactor A | = pa\nfactor B | A = pb\nend\n"
    "factored e\nfactor A | = pa\nfactor B | A = pb\nend\n"
)
# pmf pa holds d's table, but a factor line "= pa" reads channel pa
SHADOWED = (
    "alphabet A 2\nalphabet Q 1\npmf pa : A\n1/3 2/3\npmf pq : A\n1/3 2/3\n"
    "channel pa : Q -> A\n1 0\nfactored d\nfactor A | = pq\nend\n"
)
PREFIX = "\n# a comment\n   \n  # an indented comment\n"


@pytest.mark.parametrize("parse, body, line_no, message", [
    (parse_spec, "alphabet X", 1, "usage: alphabet NAME SIZE"),
    (parse_spec, "alphabet X 0", 1, "usage: alphabet NAME SIZE"),
    (parse_spec, "pmf p X", 1, "usage: pmf NAME : AXES"),
    (parse_spec, "channel W : X", 1, "usage: channel NAME : IN -> OUT"),
    (parse_spec, "factored", 1, "usage: factored NAME [PATTERN]"),
    (parse_spec, "alphabet X 2\nfactored d\n# c\nfactor X = p\nend", 4,
     "usage: factor TARGETS | GIVENS = TABLE"),
    (parse_spec, "alphabet X 2\nfactored d\n\nfactor X | = nope\nend", 4, "unknown table 'nope'"),
    (parse_spec, "pmf p : Y\n1", 1, "undeclared alphabet 'Y'"),
    (parse_spec, "alphabet X 2\npmf p : X\n# c\n\n1/2 1/4 1/4", 5,
     "pmf p: expected 2 entries, got 3"),
    (parse_spec, "alphabet X 2\nchannel W : X -> X\n1 0\n# one row", 2,
     "channel W: expected 2 rows, got 1"),
    (parse_spec, "alphabet X 2\npmf p : X\n# c\n1/2 half", 4, "bad numeric literal 'half'"),
    (parse_spec, "alphabet X 2\npmf p : X\n\n1/0 1", 4, "zero denominator in '1/0'"),
    (parse_spec, "alphabet X 2\npmf p : X\n# c\n1/2 1/4", 2,
     "pmf p: exact pmf entries do not sum to 1"),
    (parse_spec, "alphabet X 2\nchannel W : X -> X\n1 0\n# c\n0.5 0.25", 2,
     "channel W: row 1 sums to 0.75, not 1"),
    (parse_spec, "alphabet X 2\npmf p : X\n1/2 1/2\n\nfactored d\nfactor X | = p", 5,
     "factored d: missing 'end'"),
    (parse_spec, "alphabet X 2\nalphabet Y 2\npmf p : X\n1/2 1/2\n# c\nfactored d\n"
     "factor Y | X = p\nend", 6, "factored d: factor conditions on 'X' before it is generated"),
    (parse_spec, "alphabet X 2\n# c\ncolour X red", 3, "unknown declaration 'colour'"),
    (fme.parse_system, "x <= 1", 1, "missing 'vars' declaration"),
    (fme.parse_system, "vars x\n# c\nbind I(A) =", 3, "malformed bind line"),
    (fme.parse_system, "vars x\nx 1", 2, "need one relation operator, found none"),
    (fme.parse_system, "vars x\n\nx <=", 3, "a side of '<=' is empty"),
    (fme.parse_system, "vars x\nx <= 1 -", 2, "expected a term at '-'"),
    (fme.parse_system, "vars x\nx <= 2 I(A)", 2, "missing '+' or '-' before 'I(A)'; write 2*I(A)"),
    (fme.parse_system, "vars x\natoms c\n# c\nx <= typo", 4, "unknown symbol 'typo'"),
    (fme.parse_system, "vars x\nx <= 1/0", 2, "zero denominator in '1/0'"),
    (fme.parse_system, "vars x\n# c\nbind I(A) = 3/0", 3, "zero denominator in '3/0'"),
])
def test_line_numbers_count_comment_and_blank_lines(parse, body, line_no, message):
    with pytest.raises(ChannelSpecError) as ei:
        parse(PREFIX + body + "\n")
    assert ei.value.line_no == 4 + line_no
    assert str(ei.value) == f"line {4 + line_no}: {message}"


def test_both_formats_raise_one_error_class():
    assert fme.SpecFormatError is ChannelSpecError


class TestRoundTrip:
    def test_exact_round_trip(self):
        doc = parse_spec(DOC.replace("factor V | Q = pv", "factor X | Q = pv"))
        text = write_spec(doc)
        again = parse_spec(text)
        assert again.alphabets == doc.alphabets
        for name in doc.pmfs:
            assert np.array_equal(again.pmf(name).probs, doc.pmf(name).probs)
        for name in doc.channels:
            assert np.array_equal(again.channel(name).matrix, doc.channel(name).matrix)
        for name in doc.factored:
            assert np.allclose(
                again.factored[name].realization.tensor,
                doc.factored[name].realization.tensor,
                atol=0,
            )

    def test_float_round_trip_bit_exact(self):
        doc = parse_spec("alphabet X 2\npmf p : X\n0.1 0.9\n")
        again = parse_spec(write_spec(doc))
        assert np.array_equal(again.pmf("p").probs, doc.pmf("p").probs)

    def test_factor_tables_get_fresh_names(self):
        # d's tables are not declared; the document's own channel d_f0 and
        # pmf d_f0_ hold the names d's first factor table would get, and a
        # factor line looks up channels first, so a reused name would make
        # it read the 2x2 channel d_f0.  e's equal tables are declared once.
        doc = parse_spec(COLLIDING)
        del doc.pmfs["pa"], doc.channels["pb"]
        text = write_spec(doc)
        lines = text.splitlines()
        assert lines.count("factor A | = d_f0__") == lines.count("factor B | A = d_f1") == 2
        again = parse_spec(text)
        assert list(again.pmfs) == ["d_f0_", "d_f0__"]
        assert list(again.channels) == ["d_f0", "d_f1"]
        for name in "de":
            assert np.array_equal(again.factored[name].realization.tensor,
                                  doc.factored[name].realization.tensor)
        assert again.channel("d_f0").exact == doc.channel("d_f0").exact
        assert write_spec(again) == text

    @pytest.mark.parametrize("text", [
        DOC.replace("factor V | Q = pv", "factor X | Q = pv"), COLLIDING, SHADOWED,
    ], ids=["doc", "colliding", "shadowed"])
    def test_write_is_a_fixed_point(self, text):
        # a declared table keeps its name, so a round trip adds no table
        once = write_spec(parse_spec(text))
        assert write_spec(parse_spec(once)) == once
        doc = parse_spec(text)
        for name, fd in doc.factored.items():
            again = parse_spec(once).factored[name]
            assert np.array_equal(again.realization.tensor, fd.realization.tensor)

    def test_declared_factor_tables_keep_their_names(self):
        lines = write_spec(parse_spec(COLLIDING)).splitlines()
        assert {"factor A | = pa", "factor B | A = pb"} <= set(lines)
        assert sum(line.startswith(("pmf ", "channel ")) for line in lines) == 4
        # channel pa shadows pmf pa in a factor line, so a table equal to
        # pmf pa is written under another name that reads it back
        doc = parse_spec(SHADOWED)
        assert "factor A | = pq" in write_spec(doc).splitlines()
        del doc.pmfs["pq"]
        text = write_spec(doc)
        assert "factor A | = d_f0" in text.splitlines()
        assert parse_spec(text).factored["d"].factors[0].table.exact == ((F(1, 3), F(2, 3)),)

    def test_exact_pmf_factors_stay_exact(self):
        doc = parse_spec(
            "alphabet U 2\nalphabet X 2\npmf pu : U\n1/3 2/3\nchannel px : U -> X\n1/4 3/4\n1 0\n"
            "factored d\nfactor U | = pu\nfactor X | U = px\nend\n"
        )
        text = write_spec(doc)
        assert "1/3 2/3" in text.splitlines()
        again = parse_spec(text).factored["d"]
        for k, f in enumerate(doc.factored["d"].factors):
            assert f.table.exact is not None
            assert again.factors[k].table.exact == f.table.exact
