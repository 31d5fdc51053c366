"""Channel-spec text format: parsing, diagnostics, round trips."""

from fractions import Fraction as F

import numpy as np
import pytest

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
