"""The shared channel-spec text format.

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

Entries are decimal or rational ("p/q") literals; rows are row-major in
the declared axis order.  Rational entries stay exact all the way into
the probability objects.  Non-stochastic rows and undeclared names are
rejected with 1-based line numbers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

# the bounds engine and the pmf classes are imported where they are used,
# so that importing the format loads neither
if TYPE_CHECKING:
    from .bounds import BroadcastChannels, MultilevelChannel
    from .probability import ConditionalPmf, FactoredDistribution, Pmf


class ChannelSpecError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


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


_NUM_RE = re.compile(r"-?\d+(?:/\d+|\.\d+)?")


def _parse_number(line_no: int, tok: str) -> Fraction:
    if not _NUM_RE.fullmatch(tok):
        raise ChannelSpecError(line_no, f"bad numeric literal {tok!r}")
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise ChannelSpecError(line_no, f"zero denominator in {tok!r}") from None


def _is_exact(tok: str) -> bool:
    return "." not in tok


def parse_spec(text: str) -> SpecDocument:
    from .probability import ConditionalPmf, DistributionError, Factor, FactoredDistribution, Pmf
    doc = SpecDocument()
    lines = text.splitlines()
    i = 0

    def prod(axes, line_no):
        out = 1
        for a in axes:
            if a not in doc.alphabets:
                raise ChannelSpecError(line_no, f"undeclared alphabet {a!r}")
            out *= doc.alphabets[a]
        return out

    def read_matrix(start: int, rows: int, cols: int, what: str):
        nonlocal i
        matrix = []
        exact = True
        while len(matrix) < rows:
            if i >= len(lines):
                raise ChannelSpecError(
                    start, f"{what}: expected {rows} rows, got {len(matrix)}"
                )
            line_no = i + 1
            raw = lines[i].split("#", 1)[0].strip()
            i += 1
            if not raw:
                continue
            toks = raw.split()
            if len(toks) != cols:
                raise ChannelSpecError(
                    line_no, f"{what}: expected {cols} entries, got {len(toks)}"
                )
            exact = exact and all(_is_exact(t) for t in toks)
            matrix.append([_parse_number(line_no, t) for t in toks])
        if exact:
            return matrix
        return [[float(v) for v in row] for row in matrix]

    while i < len(lines):
        line_no = i + 1
        raw = lines[i].split("#", 1)[0].strip()
        i += 1
        if not raw:
            continue
        toks = raw.split()
        kind = toks[0]
        if kind == "alphabet":
            if len(toks) != 3 or not toks[2].isdigit() or int(toks[2]) < 1:
                raise ChannelSpecError(line_no, "usage: alphabet NAME SIZE")
            doc.alphabets[toks[1]] = int(toks[2])
        elif kind == "pmf":
            m = re.fullmatch(r"pmf\s+(\S+)\s*:\s*(.+)", raw)
            if not m:
                raise ChannelSpecError(line_no, "usage: pmf NAME : AXES")
            name, axes = m.group(1), tuple(m.group(2).split())
            cols = prod(axes, line_no)
            try:
                row = read_matrix(line_no, 1, cols, f"pmf {name}")[0]
                doc.pmfs[name] = (axes, Pmf(row))
            except DistributionError as e:
                raise ChannelSpecError(line_no, f"pmf {name}: {e}") from e
        elif kind == "channel":
            m = re.fullmatch(r"channel\s+(\S+)\s*:\s*(.+?)\s*->\s*(.+)", raw)
            if not m:
                raise ChannelSpecError(line_no, "usage: channel NAME : IN -> OUT")
            name = m.group(1)
            in_axes = tuple(m.group(2).split())
            out_axes = tuple(m.group(3).split())
            rows = prod(in_axes, line_no)
            cols = prod(out_axes, line_no)
            try:
                mat = read_matrix(line_no, rows, cols, f"channel {name}")
                doc.channels[name] = (in_axes, out_axes, ConditionalPmf(mat))
            except DistributionError as e:
                raise ChannelSpecError(line_no, f"channel {name}: {e}") from e
        elif kind == "factored":
            if len(toks) not in (2, 3):
                raise ChannelSpecError(line_no, "usage: factored NAME [PATTERN]")
            name = toks[1]
            pattern = toks[2] if len(toks) == 3 else None
            factors = []
            axes_order: list[str] = []
            closed = False
            while i < len(lines):
                fl_no = i + 1
                fraw = lines[i].split("#", 1)[0].strip()
                i += 1
                if not fraw:
                    continue
                if fraw == "end":
                    closed = True
                    break
                fm = re.fullmatch(r"factor\s+(.+?)\s*\|\s*(.*?)\s*=\s*(\S+)", fraw)
                if not fm:
                    raise ChannelSpecError(
                        fl_no, "usage: factor TARGETS | GIVENS = TABLE"
                    )
                targets = tuple(fm.group(1).split())
                givens = tuple(fm.group(2).split())
                table = fm.group(3)
                if table in doc.channels:
                    tab = doc.channels[table][2]
                elif table in doc.pmfs:
                    tab = ConditionalPmf([doc.pmfs[table][1].probs])
                else:
                    raise ChannelSpecError(fl_no, f"unknown table {table!r}")
                for t in targets:
                    prod((t,), fl_no)
                    axes_order.append(t)
                factors.append(Factor(targets, givens, tab))
            if not closed:
                raise ChannelSpecError(line_no, f"factored {name}: missing 'end'")
            try:
                doc.factored[name] = FactoredDistribution(
                    [(a, doc.alphabets[a]) for a in axes_order], factors, pattern
                )
            except Exception as e:
                if isinstance(e, ChannelSpecError):
                    raise
                raise ChannelSpecError(line_no, f"factored {name}: {e}") from e
        else:
            raise ChannelSpecError(line_no, f"unknown declaration {kind!r}")
    return doc


def _format_table(chan: ConditionalPmf) -> list[str]:
    rows = []
    for r in range(chan.rows):
        if chan.exact is not None:
            rows.append(" ".join(str(v) for v in chan.exact[r]))
        else:
            rows.append(" ".join(repr(float(v)) for v in chan.matrix[r]))
    return rows


def write_spec(doc: SpecDocument) -> str:
    out = []
    for name, size in doc.alphabets.items():
        out.append(f"alphabet {name} {size}")
    for name, (axes, p) in doc.pmfs.items():
        out.append(f"pmf {name} : {' '.join(axes)}")
        if p.exact is not None:
            out.append(" ".join(str(v) for v in p.exact))
        else:
            out.append(" ".join(repr(float(v)) for v in p.probs))
    for name, (in_axes, out_axes, chan) in doc.channels.items():
        out.append(f"channel {name} : {' '.join(in_axes)} -> {' '.join(out_axes)}")
        out.extend(_format_table(chan))
    for name, fd in doc.factored.items():
        for k, f in enumerate(fd.factors):
            tname = f"{name}_f{k}"
            if f.given:
                out.append(
                    f"channel {tname} : {' '.join(f.given)} -> {' '.join(f.targets)}"
                )
                out.extend(_format_table(f.table))
            else:
                out.append(f"pmf {tname} : {' '.join(f.targets)}")
                out.extend(_format_table(f.table))
        head = f"factored {name}" + (f" {fd.pattern}" if fd.pattern else "")
        out.append(head)
        for k, f in enumerate(fd.factors):
            out.append(
                f"factor {' '.join(f.targets)} | {' '.join(f.given)} = {name}_f{k}"
            )
        out.append("end")
    return "\n".join(out) + "\n"
