"""FME paths as they were before the Farkas feasibility LP and early Imbert
pruning, kept verbatim.

They are the references for the differential tests in ``test_fme.py``:

- ``system_feasible`` splits every free variable as u - w and adds one
  slack column per row, then asks ``feasible_eq`` for any solution; its
  rows are read from the ``Fraction`` views, not the integer rows;
- ``eliminate`` builds every lower x upper combined row from unit-scaled
  parents and only then drops it by Imbert's history test;
- ``canonical_key`` is the ``Fraction`` row key (lead coefficient scaled
  to +-1) that sorted each mapping per use, before the primitive integer
  key; the two must partition rows alike;
- ``parse_system`` is the token state machine that read the text format
  before the anchored term grammar; on well-formed input both must give
  the same rows, mapping order included.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Sequence

from wiretap3.fme import (
    InequalitySystem,
    LinearInequality,
    SpecFormatError,
    _combine_label,
    _joint_space,
    _with_histories,
    normalize,
)
from wiretap3.rationallp import feasible_eq


def canonical_key(self: LinearInequality):
    """Scale-invariant key: positive-normalized coefficient tuples."""
    items = sorted(self.coeffs.items()) + [
        (("@", a), c) for a, c in sorted(self.rhs_atoms.items())
    ]
    lead = None
    for _, c in sorted(self.coeffs.items()):
        lead = c
        break
    if lead is None:
        for _, c in sorted(self.rhs_atoms.items()):
            lead = c
            break
    if lead is None:
        scale = Fraction(1)
    else:
        scale = 1 / abs(lead)
    return (
        tuple((k, c * scale) for k, c in sorted(self.coeffs.items())),
        tuple((a, c * scale) for a, c in sorted(self.rhs_atoms.items())),
        self.rhs_const * scale,
        self.relation,
    )


def eliminate(sys: InequalitySystem, var: str) -> InequalitySystem:
    """Project out one variable by pairing its upper and lower bounds.

    Rows carry derivation histories; across chained eliminations, any row
    combining more ancestors than eliminated-variables-plus-one is
    redundant (Imbert) and is dropped eagerly to contain the blowup.
    """
    if var not in sys.variables:
        raise ValueError(f"unknown variable {var!r}")
    sys = _with_histories(sys)
    uppers, lowers, rest = [], [], []
    for ineq in sys.inequalities:
        c = ineq.coeffs.get(var, Fraction(0))
        if c > 0:
            uppers.append(ineq.scaled(1 / c))
        elif c < 0:
            lowers.append(ineq.scaled(1 / -c))
        else:
            rest.append(ineq)
    derived = []
    for lo in lowers:
        for up in uppers:
            row = lo.plus(
                up,
                label=_combine_label(lo.label, up.label),
                extra_elim=frozenset([var]),
            )
            if len(row.origin) > len(row.elim) + 1:
                continue
            derived.append(row)
    new_vars = tuple(v for v in sys.variables if v != var)
    return normalize(InequalitySystem(new_vars, rest + derived, sys.bindings))


def system_feasible(
    sys: InequalitySystem, assumptions: Sequence[LinearInequality] = ()
) -> bool:
    """Closure feasibility of the rows plus assumption rows (atoms free)."""
    rows = list(sys.inequalities) + list(assumptions)
    vars_, atoms = _joint_space([sys], assumptions)
    if not rows:
        return True
    # a.x <= b with free x: x = u - w, add slack: a.u - a.w + s = b
    A, b = [], []
    for r in rows:
        vec = [r.coeffs.get(v, Fraction(0)) for v in vars_]
        vec += [-r.rhs_atoms.get(a, Fraction(0)) for a in atoms]
        A.append(vec + [-v for v in vec])
        b.append(r.rhs_const)
    k = len(rows)
    for i in range(k):
        for j in range(k):
            A[i].append(Fraction(int(i == j)))
    return feasible_eq(A, b) is not None


_TOKEN_RE = re.compile(
    r"(I\([^()]*\)|H\([^()]*\)"
    r"|[A-Za-z_][A-Za-z0-9_']*"
    r"|\d+/\d+|\d+\.\d+|\d+"
    r"|<=|>=|=|<|>|\+|-|\*)"
)


def _tokenize(line_no: int, text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise SpecFormatError(line_no, f"unexpected character {text[pos]!r}")
        tokens.append(m.group(0))
        pos = m.end()
    return tokens


def _is_atom(tok: str) -> bool:
    return tok.startswith(("I(", "H(")) and tok.endswith(")")


def _is_number(tok: str) -> bool:
    return bool(re.fullmatch(r"\d+/\d+|\d+\.\d+|\d+", tok))


def _number(tok: str) -> Fraction:
    return Fraction(tok)


def _parse_side(line_no: int, tokens: list[str], variables: set[str], atoms_decl):
    """Parse a +/- sequence of terms into (var_coeffs, atom_coeffs, const)."""
    var_c: dict[str, Fraction] = {}
    atom_c: dict[str, Fraction] = {}
    const = Fraction(0)
    sign = Fraction(1)
    expect_term = True
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "+":
            sign = Fraction(1)
            expect_term = True
            i += 1
            continue
        if tok == "-":
            sign = -sign if expect_term else Fraction(-1)
            expect_term = True
            i += 1
            continue
        coeff = Fraction(1)
        if _is_number(tok):
            coeff = _number(tok)
            if i + 1 < len(tokens) and tokens[i + 1] == "*":
                i += 2
                if i >= len(tokens):
                    raise SpecFormatError(line_no, "dangling '*'")
                tok = tokens[i]
                if _is_number(tok):
                    raise SpecFormatError(line_no, "coefficient must multiply a name")
            else:
                const += sign * coeff
                sign = Fraction(1)
                expect_term = False
                i += 1
                continue
        if _is_atom(tok):
            atom_c[tok] = atom_c.get(tok, Fraction(0)) + sign * coeff
        elif tok in variables:
            var_c[tok] = var_c.get(tok, Fraction(0)) + sign * coeff
        elif atoms_decl is not None and tok not in atoms_decl:
            raise SpecFormatError(line_no, f"unknown symbol {tok!r}")
        else:
            atom_c[tok] = atom_c.get(tok, Fraction(0)) + sign * coeff
        sign = Fraction(1)
        expect_term = False
        i += 1
    return var_c, atom_c, const


def _build_rows(
    line_no: int,
    lhs,
    rel: str,
    rhs,
    label: str,
) -> list[LinearInequality]:
    lv, la, lc = lhs
    rv, ra, rc = rhs

    def make(lv, la, lc, rv, ra, rc, rel) -> LinearInequality:
        coeffs = dict(lv)
        for v, c in rv.items():
            coeffs[v] = coeffs.get(v, Fraction(0)) - c
        atoms = dict(ra)
        for a, c in la.items():
            atoms[a] = atoms.get(a, Fraction(0)) - c
        return LinearInequality(coeffs, rel, atoms, rc - lc, label)

    if rel in ("<=", "<"):
        return [make(lv, la, lc, rv, ra, rc, rel)]
    if rel in (">=", ">"):
        flipped = "<=" if rel == ">=" else "<"
        return [make(rv, ra, rc, lv, la, lc, flipped)]
    if rel == "=":
        return [
            make(lv, la, lc, rv, ra, rc, "<="),
            make(rv, ra, rc, lv, la, lc, "<="),
        ]
    raise SpecFormatError(line_no, f"unknown relation {rel!r}")


def parse_system(text: str) -> tuple[InequalitySystem, list[LinearInequality]]:
    """Parse the inequality-system text format.

    Returns (system, assumptions).  Lines:
      vars NAME...            declare region variables (required first)
      atoms NAME...           optionally close the constant namespace
      bind ATOM = rational    numeric binding for a constant
      assume <inequality>     assumption row (kept separate from the system)
      label: <inequality>     inequality with a label prefix
      <inequality>            e.g.  2*R1 + Re <= I(V0,V1;Y1|Q) - I(V1;Z|V0)
    """
    variables: Optional[tuple[str, ...]] = None
    atoms_decl = None
    bindings: dict[str, Fraction] = {}
    rows: list[LinearInequality] = []
    assumptions: list[LinearInequality] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vars "):
            variables = tuple(line.split()[1:])
            continue
        if line.startswith("atoms "):
            atoms_decl = set(line.split()[1:])
            continue
        if variables is None:
            raise SpecFormatError(line_no, "missing 'vars' declaration")
        label = ""
        body = line
        m = re.match(r"^([A-Za-z_][A-Za-z0-9_']*):\s+(.*)$", line)
        if m:
            label, body = m.group(1), m.group(2)
        is_assume = False
        if body.startswith("assume "):
            is_assume = True
            body = body[len("assume "):]
        if body.startswith("bind "):
            mb = re.match(r"bind\s+(.+?)\s*=\s*(-?\d+(?:/\d+|\.\d+)?)\s*$", body)
            if not mb:
                raise SpecFormatError(line_no, "malformed bind line")
            bindings[mb.group(1).strip()] = Fraction(mb.group(2))
            continue
        tokens = _tokenize(line_no, body)
        rel_idx = next(
            (i for i, t in enumerate(tokens) if t in ("<=", ">=", "=", "<", ">")), -1
        )
        if rel_idx < 0:
            raise SpecFormatError(line_no, "no relation operator")
        varset = set(variables)
        lhs = _parse_side(line_no, tokens[:rel_idx], varset, atoms_decl)
        rhs = _parse_side(line_no, tokens[rel_idx + 1:], varset, atoms_decl)
        built = _build_rows(line_no, lhs, tokens[rel_idx], rhs, label)
        (assumptions if is_assume else rows).extend(built)
    if variables is None:
        raise SpecFormatError(1, "missing 'vars' declaration")
    return InequalitySystem(variables, rows, bindings), assumptions
