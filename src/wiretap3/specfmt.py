"""The shared channel-spec text format, and the lexical layer of both text formats.

A structured document declaring named alphabets, pmfs, row-stochastic
channels and factored distributions.  Grammar (one declaration per line,
'#' comments, blank lines ignored):

    alphabet NAME SIZE
    pmf NAME : AXIS [AXIS...]
    <one line with prod(sizes) entries>
    channel NAME : IN [IN...] -> OUT [OUT...]
    <prod(in-sizes) lines, each with prod(out-sizes) entries>
    factored NAME [PATTERN]
    factor TARGET [TARGET...] | [GIVEN...] = TABLE
    ...
    end

Entries are decimal or rational ("p/q") literals, optionally negative;
rows are row-major in the declared axis order.  A matrix with no decimal
literal stays exact all the way into the probability objects.
Non-stochastic rows, undeclared names and a second declaration of a name
are rejected with 1-based line numbers.

The line reader (``content_lines``), the unsigned literal grammar
(``NUMBER``, read by ``fraction``) and the error class are shared with the
inequality-system format of ``fme``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import TYPE_CHECKING, Iterator

# the bounds engine and the pmf classes are imported where they are used,
# so that importing the format loads neither
if TYPE_CHECKING:
    from .bounds import BroadcastChannels, MultilevelChannel
    from .probability import ConditionalPmf, FactoredDistribution, Pmf


class ChannelSpecError(ValueError):
    """Malformed text input, with a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


NUMBER = r"\d+/\d+|\d+\.\d+|\d+"   # 3, 3/4 or 0.75
_ENTRY = re.compile(rf"-?(?:{NUMBER})")
_fraction = lru_cache(Fraction)   # literals repeat; Fractions are immutable


def fraction(line_no: int, literal: str) -> Fraction:
    """A signed ``NUMBER`` literal as a Fraction."""
    try:
        return _fraction(literal)
    except ZeroDivisionError:
        raise ChannelSpecError(line_no, f"zero denominator in {literal!r}") from None


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(line_no, text)`` of every line with text before its '#' comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


@dataclass
class SpecDocument:
    alphabets: dict[str, int] = field(default_factory=dict)
    pmfs: dict[str, tuple[tuple[str, ...], Pmf]] = field(default_factory=dict)
    channels: dict[str, tuple[tuple[str, ...], tuple[str, ...], ConditionalPmf]] = field(
        default_factory=dict
    )
    factored: dict[str, FactoredDistribution] = field(default_factory=dict)

    def size(self, axis: str) -> int:
        if axis not in self.alphabets:
            raise KeyError(f"undeclared alphabet {axis!r}")
        return self.alphabets[axis]

    def channel(self, name: str) -> ConditionalPmf:
        return self.channels[name][2]

    def pmf(self, name: str) -> Pmf:
        return self.pmfs[name][1]

    def broadcast(self, y1: str, y2: str, z: str) -> BroadcastChannels:
        from .bounds import BroadcastChannels
        return BroadcastChannels(self.channel(y1), self.channel(y2), self.channel(z))

    def multilevel(self, y1z3: str, z2_given_y1: str) -> MultilevelChannel:
        from .bounds import MultilevelChannel
        from .probability import DistributionError
        in_axes, out_axes, chan = self.channels[y1z3]
        if len(out_axes) != 2:
            raise DistributionError(
                f"channel {y1z3!r} must have two output axes (y1, z3)"
            )
        return MultilevelChannel(
            chan,
            self.size(out_axes[0]),
            self.size(out_axes[1]),
            self.channel(z2_given_y1),
        )


# each declaration's header, and the usage message of a malformed one
_DECLARATIONS = {
    "alphabet": (re.compile(r"alphabet\s+(\S+)\s+(0*[1-9]\d*)"), "usage: alphabet NAME SIZE"),
    "pmf": (re.compile(r"pmf\s+(\S+)\s*:\s*(.+)"), "usage: pmf NAME : AXES"),
    "channel": (re.compile(r"channel\s+(\S+)\s*:\s*(.+?)\s*->\s*(.+)"),
                "usage: channel NAME : IN -> OUT"),
    "factored": (re.compile(r"factored\s+(\S+)(?:\s+(\S+))?"), "usage: factored NAME [PATTERN]"),
}
_FACTOR = re.compile(r"factor\s+(.+?)\s*\|\s*(.*?)\s*=\s*(\S+)")


def _pmf_table(p: Pmf) -> ConditionalPmf:
    """``p`` as a one-row table, exact when ``p`` is."""
    from .probability import ConditionalPmf
    return ConditionalPmf([p.probs if p.exact is None else p.exact])


def parse_spec(text: str) -> SpecDocument:
    from .probability import ConditionalPmf, DistributionError, Factor, FactoredDistribution, Pmf
    doc = SpecDocument()
    lines = content_lines(text)
    declared = {"alphabet": doc.alphabets, "pmf": doc.pmfs, "channel": doc.channels,
                "factored": doc.factored}

    def prod(axes, line_no):
        out = 1
        for a in axes:
            if a not in doc.alphabets:
                raise ChannelSpecError(line_no, f"undeclared alphabet {a!r}")
            out *= doc.alphabets[a]
        return out

    def read_matrix(start: int, rows: int, cols: int, what: str):
        matrix, exact = [], True
        for line_no, line in islice(lines, rows):
            toks = line.split()
            if len(toks) != cols:
                raise ChannelSpecError(
                    line_no, f"{what}: expected {cols} entries, got {len(toks)}"
                )
            for t in toks:
                if not _ENTRY.fullmatch(t):
                    raise ChannelSpecError(line_no, f"bad numeric literal {t!r}")
            exact = exact and "." not in line
            matrix.append([fraction(line_no, t) for t in toks])
        if len(matrix) < rows:
            raise ChannelSpecError(start, f"{what}: expected {rows} rows, got {len(matrix)}")
        return matrix if exact else [[float(v) for v in row] for row in matrix]

    for line_no, line in lines:
        kind = line.split()[0]
        if kind not in _DECLARATIONS:
            raise ChannelSpecError(line_no, f"unknown declaration {kind!r}")
        pattern, usage = _DECLARATIONS[kind]
        m = pattern.fullmatch(line)
        if not m:
            raise ChannelSpecError(line_no, usage)
        name = m[1]
        if name in declared[kind]:
            raise ChannelSpecError(line_no, f"{kind} {name!r} is already declared")
        if kind == "alphabet":
            doc.alphabets[name] = int(m[2])
        elif kind == "pmf":
            axes = tuple(m[2].split())
            row = read_matrix(line_no, 1, prod(axes, line_no), f"pmf {name}")[0]
            try:
                doc.pmfs[name] = (axes, Pmf(row))
            except DistributionError as e:
                raise ChannelSpecError(line_no, f"pmf {name}: {e}") from e
        elif kind == "channel":
            in_axes, out_axes = tuple(m[2].split()), tuple(m[3].split())
            rows, cols = prod(in_axes, line_no), prod(out_axes, line_no)
            mat = read_matrix(line_no, rows, cols, f"channel {name}")
            try:
                doc.channels[name] = (in_axes, out_axes, ConditionalPmf(mat))
            except DistributionError as e:
                raise ChannelSpecError(line_no, f"channel {name}: {e}") from e
        else:
            factors, axes_order = [], []
            for fl_no, fline in lines:
                if fline == "end":
                    break
                fm = _FACTOR.fullmatch(fline)
                if not fm:
                    raise ChannelSpecError(fl_no, "usage: factor TARGETS | GIVENS = TABLE")
                targets, givens, table = tuple(fm[1].split()), tuple(fm[2].split()), fm[3]
                if table in doc.channels:
                    tab = doc.channels[table][2]
                elif table in doc.pmfs:
                    tab = _pmf_table(doc.pmfs[table][1])
                else:
                    raise ChannelSpecError(fl_no, f"unknown table {table!r}")
                for t in targets:
                    prod((t,), fl_no)
                    axes_order.append(t)
                factors.append(Factor(targets, givens, tab))
            else:
                raise ChannelSpecError(line_no, f"factored {name}: missing 'end'")
            axis_sizes = [(a, doc.alphabets[a]) for a in axes_order]
            try:
                doc.factored[name] = FactoredDistribution(axis_sizes, factors, m[2])
            except ValueError as e:
                raise ChannelSpecError(line_no, f"factored {name}: {e}") from e
    return doc


def _format_table(chan: ConditionalPmf) -> tuple[str, ...]:
    """Rows of exact literals when the table is exact, else of float reprs."""
    if chan.exact is not None:
        return tuple(" ".join(map(str, row)) for row in chan.exact)
    return tuple(" ".join(repr(float(v)) for v in row) for row in chan.matrix)


def write_spec(doc: SpecDocument) -> str:
    pmfs = {n: (axes, _format_table(_pmf_table(p))) for n, (axes, p) in doc.pmfs.items()}
    channels = {n: (ins, outs, _format_table(c)) for n, (ins, outs, c) in doc.channels.items()}
    # a factor names a declared table it reads back as, looked up as a factor
    # line does (channels first); any other table is declared once, after the
    # document's own, under a name no pmf or channel has, so a second write
    # of the text changes nothing
    names = {rows: n for n, (_, rows) in pmfs.items() if n not in channels}
    names.update((rows, n) for n, (_, _, rows) in channels.items())
    factored = []
    for name, fd in doc.factored.items():
        factored.append(f"factored {name}" + (f" {fd.pattern}" if fd.pattern else ""))
        for k, f in enumerate(fd.factors):
            rows = _format_table(f.table)
            if rows not in names:
                table = f"{name}_f{k}"
                while table in pmfs or table in channels:
                    table += "_"
                names[rows] = table
                if f.given:
                    channels[table] = (f.given, f.targets, rows)
                else:
                    pmfs[table] = (f.targets, rows)
            factored.append(" ".join(("factor", *f.targets, "|", *f.given, "=", names[rows])))
        factored.append("end")
    out = [f"alphabet {name} {size}" for name, size in doc.alphabets.items()]
    for name, (axes, rows) in pmfs.items():
        out += [f"pmf {name} : {' '.join(axes)}", *rows]
    for name, (in_axes, out_axes, rows) in channels.items():
        out += [f"channel {name} : {' '.join(in_axes)} -> {' '.join(out_axes)}", *rows]
    return "\n".join(out + factored) + "\n"
