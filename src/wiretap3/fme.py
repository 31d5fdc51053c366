"""Exact Fourier-Motzkin elimination over named-variable inequality systems.

Rows are linear inequalities with exact rational coefficients on named
*variables* (rates) and a symbolic right-hand side: a rational combination
of named *constants* (information-measure atoms such as ``I(V1;Z|V0)``)
plus a rational offset.  Atoms are opaque: two atoms are related only
through explicit assumption rows.

Semantics notes:

- Elimination follows the standard pairing of upper and lower bounds;
  a derived row is strict iff any parent is strict.
- Redundancy and region equality are decided at the *closure* level
  (strict rows are relaxed to non-strict before testing).  Rate regions
  in this domain are closures of achievable sets and their boundaries
  carry no content, so a row differing only on its boundary is treated
  as redundant.  Certificates are exact Farkas multipliers.
- Rows with no variable coefficients degenerate to constant comparisons;
  they are kept and flagged, since they constrain the admissible atoms.

The text format (one inequality per line) is documented in the package
README; ``parse_system`` rejects malformed lines with line numbers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .rationallp import feasible_eq, implied_by

Rel = str  # "<=" or "<"


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("inequality coefficients must be exact rationals")
    return Fraction(x)


def _clean(d: Mapping[str, Fraction]) -> dict[str, Fraction]:
    return {k: f for k, v in d.items() if (f := Fraction(v)) != 0}


@dataclass(frozen=True, eq=False)
class LinearInequality:
    """coeffs . vars  REL  rhs_atoms . atoms + rhs_const

    ``origin`` and ``elim`` support Imbert's acceleration during chained
    eliminations: origin is the set of ancestral input rows, elim the set
    of variables eliminated along this row's derivation.  A derived row
    with |origin| > |elim| + 1 is redundant and is pruned eagerly.
    """

    coeffs: Mapping[str, Fraction]
    relation: Rel
    rhs_atoms: Mapping[str, Fraction]
    rhs_const: Fraction
    label: str = ""
    origin: frozenset = frozenset()
    elim: frozenset = frozenset()

    def __init__(self, coeffs, relation, rhs_atoms=None, rhs_const=0, label="",
                 origin=frozenset(), elim=frozenset()):
        if relation not in ("<=", "<"):
            raise ValueError(f"relation must be <= or <, got {relation!r}")
        object.__setattr__(self, "coeffs", _clean(coeffs))
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "rhs_atoms", _clean(rhs_atoms or {}))
        object.__setattr__(self, "rhs_const", _frac(rhs_const))
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "origin", frozenset(origin))
        object.__setattr__(self, "elim", frozenset(elim))

    @property
    def is_constant_row(self) -> bool:
        return not self.coeffs

    @property
    def is_trivially_true(self) -> bool:
        if self.coeffs or self.rhs_atoms:
            return False
        return self.rhs_const > 0 or (self.rhs_const == 0 and self.relation == "<=")

    def scaled(self, k: Fraction) -> "LinearInequality":
        k = _frac(k)
        if k <= 0:
            raise ValueError("inequalities scale by positive rationals only")
        return LinearInequality(
            {v: k * c for v, c in self.coeffs.items()},
            self.relation,
            {a: k * c for a, c in self.rhs_atoms.items()},
            k * self.rhs_const,
            self.label,
            self.origin,
            self.elim,
        )

    def plus(self, other: "LinearInequality", label: str = "",
             extra_elim: frozenset = frozenset()) -> "LinearInequality":
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            coeffs[v] = coeffs.get(v, Fraction(0)) + c
        atoms = dict(self.rhs_atoms)
        for a, c in other.rhs_atoms.items():
            atoms[a] = atoms.get(a, Fraction(0)) + c
        rel = "<" if "<" in (self.relation, other.relation) else "<="
        return LinearInequality(
            coeffs, rel, atoms, self.rhs_const + other.rhs_const, label,
            self.origin | other.origin, self.elim | other.elim | extra_elim,
        )

    def canonical_key(self):
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

    def format(self) -> str:
        def side(terms: Mapping[str, Fraction], const: Optional[Fraction]) -> str:
            parts = []
            for name, c in terms.items():
                if c == 1:
                    term = name
                elif c == -1:
                    term = f"-{name}"
                else:
                    term = f"{c}*{name}"
                parts.append(term)
            if const is not None and (const != 0 or not parts):
                parts.append(str(const))
            out = ""
            for p in parts:
                if not out:
                    out = p
                elif p.startswith("-"):
                    out += " - " + p[1:]
                else:
                    out += " + " + p
            return out or "0"

        lhs = side(self.coeffs, None if self.coeffs else Fraction(0))
        rhs = side(self.rhs_atoms, self.rhs_const)
        return f"{lhs} {self.relation} {rhs}"

    def __repr__(self):
        return f"<{self.format()}>"


def _order_preserving_unique(seq: Iterable[str]) -> tuple[str, ...]:
    seen = {}
    for s in seq:
        seen.setdefault(s, None)
    return tuple(seen)


@dataclass(frozen=True, eq=False)
class InequalitySystem:
    variables: tuple[str, ...]
    inequalities: tuple[LinearInequality, ...]
    bindings: Mapping[str, Fraction]

    def __init__(self, variables, inequalities, bindings=None):
        variables = tuple(variables)
        inequalities = tuple(inequalities)
        for ineq in inequalities:
            for v in ineq.coeffs:
                if v not in variables:
                    raise ValueError(f"undeclared variable {v!r} in {ineq.format()}")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "inequalities", inequalities)
        object.__setattr__(self, "bindings", dict(bindings or {}))

    @property
    def atoms(self) -> tuple[str, ...]:
        return _order_preserving_unique(
            a for ineq in self.inequalities for a in ineq.rhs_atoms
        )

    def with_rows(self, rows: Sequence[LinearInequality]) -> "InequalitySystem":
        return InequalitySystem(self.variables, rows, self.bindings)

    def canonical_rows(self) -> set:
        return {r.canonical_key() for r in self.inequalities}

    def format(self) -> str:
        lines = ["vars " + " ".join(self.variables)]
        for a, v in self.bindings.items():
            lines.append(f"bind {a} = {v}")
        for r in self.inequalities:
            if r.label and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", r.label):
                lines.append(f"{r.label}: {r.format()}")
            else:
                lines.append(r.format())
        return "\n".join(lines) + "\n"

    def bind(self, bindings: Mapping[str, Fraction]) -> "InequalitySystem":
        """Substitute numeric values for atoms."""
        rows = []
        for ineq in self.inequalities:
            const = ineq.rhs_const
            atoms = {}
            for a, c in ineq.rhs_atoms.items():
                if a in bindings:
                    const += c * _frac(bindings[a])
                else:
                    atoms[a] = c
            rows.append(
                LinearInequality(ineq.coeffs, ineq.relation, atoms, const, ineq.label)
            )
        merged = dict(self.bindings)
        merged.update({k: _frac(v) for k, v in bindings.items()})
        return InequalitySystem(self.variables, rows, merged)

    def satisfies(self, point: Mapping[str, float], tol: float = 0.0) -> bool:
        """Membership test at a numeric point; atoms must all be bound."""
        for ineq in self.inequalities:
            if ineq.rhs_atoms:
                raise ValueError(
                    f"unbound atoms {sorted(ineq.rhs_atoms)} in membership test"
                )
            lhs = sum(float(c) * float(point.get(v, 0.0)) for v, c in ineq.coeffs.items())
            rhs = float(ineq.rhs_const)
            if ineq.relation == "<=":
                if lhs > rhs + tol:
                    return False
            else:
                if lhs >= rhs + tol if tol > 0 else lhs >= rhs:
                    return False
        return True


def normalize(sys: InequalitySystem) -> InequalitySystem:
    """Drop trivially-true rows and duplicates (keeping the tighter copy)."""
    best: dict = {}
    order: list = []
    for ineq in sys.inequalities:
        if ineq.is_trivially_true:
            continue
        key0 = ineq.canonical_key()
        lhs_key = key0[:2]
        rhs_scaled = key0[2]  # rows with equal lhs_key share the same scale
        rel = ineq.relation
        if lhs_key in best:
            old_rhs, old_rel, old = best[lhs_key]
            if rhs_scaled < old_rhs:
                pass
            elif rhs_scaled == old_rhs and rel == "<" and old_rel == "<=":
                pass
            elif (
                rhs_scaled == old_rhs
                and rel == old_rel
                and len(ineq.origin) < len(old.origin)
            ):
                pass  # identical row, tighter history for Imbert pruning
            else:
                continue
        else:
            order.append(lhs_key)
        best[lhs_key] = (rhs_scaled, rel, ineq)
    return sys.with_rows([best[k][2] for k in order])


def _with_histories(sys: InequalitySystem) -> InequalitySystem:
    rows = []
    for i, r in enumerate(sys.inequalities):
        if r.origin:
            rows.append(r)
        else:
            rows.append(
                LinearInequality(
                    r.coeffs, r.relation, r.rhs_atoms, r.rhs_const, r.label,
                    frozenset([i]), frozenset(),
                )
            )
    return sys.with_rows(rows)


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


def _combine_label(a: str, b: str) -> str:
    if a and b:
        return f"{a}+{b}"
    return a or b


def eliminate_all(sys: InequalitySystem, variables: Sequence[str]) -> InequalitySystem:
    sys = _with_histories(sys)
    for v in variables:
        sys = eliminate(sys, v)
    return sys


def _joint_space(
    systems: Sequence[InequalitySystem], extra_rows: Sequence[LinearInequality]
) -> tuple[list[str], list[str]]:
    vars_ = []
    atoms = []
    for s in systems:
        vars_.extend(s.variables)
        atoms.extend(s.atoms)
    for r in extra_rows:
        atoms.extend(r.rhs_atoms)
        vars_.extend(r.coeffs)
    return list(_order_preserving_unique(vars_)), list(_order_preserving_unique(atoms))


def _row_vector(
    ineq: LinearInequality, vars_: Sequence[str], atoms: Sequence[str]
) -> tuple[list[Fraction], Fraction]:
    vec = [ineq.coeffs.get(v, 0) for v in vars_]
    vec += [-ineq.rhs_atoms.get(a, 0) for a in atoms]
    return vec, ineq.rhs_const


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
        vec, rhs = _row_vector(r, vars_, atoms)
        A.append(vec + [-v for v in vec])
        b.append(rhs)
    k = len(rows)
    for i in range(k):
        for j in range(k):
            A[i].append(Fraction(int(i == j)))
    return feasible_eq(A, b) is not None


def remove_redundant(
    sys: InequalitySystem,
    assumptions: Sequence[LinearInequality] = (),
    bindings: Optional[Mapping[str, Fraction]] = None,
) -> InequalitySystem:
    """Drop every row implied by the remaining rows plus assumptions.

    Every atom must be numerically bound or mentioned by at least one
    assumption row; redundancy relative to a fully unconstrained constant
    is almost never what a derivation means, so it is rejected loudly.
    """
    if bindings:
        sys = sys.bind(bindings)
    covered = set(sys.bindings)
    for a in assumptions:
        covered.update(a.rhs_atoms)
    missing = [a for a in sys.atoms if a not in covered]
    if missing:
        raise ValueError(f"unbound constants with no covering assumptions: {missing}")
    sys = normalize(sys)
    vars_, atoms = _joint_space([sys], assumptions)
    rows = list(sys.inequalities)
    vecs = [_row_vector(r, vars_, atoms) for r in rows]
    assumed = [_row_vector(r, vars_, atoms) for r in assumptions]
    kept: list[LinearInequality] = []
    # one pass, testing each row against all other rows (already-dropped rows
    # are excluded; rows not yet visited are included)
    active = list(range(len(rows)))
    for i, r in enumerate(rows):
        premise = [vecs[j] for j in active if j != i] + assumed
        if implied_by(premise, vecs[i]) is None:
            kept.append(r)
        else:
            active.remove(i)
    return sys.with_rows(kept)


def substitute(
    sys: InequalitySystem,
    mapping: Mapping[str, tuple[Mapping[str, Fraction], Fraction]],
) -> InequalitySystem:
    """Affine substitution old_var -> (new_var_coeffs, const).

    Used for rate splitting, e.g. R1 -> R1pp, R0 -> R0n + R1p.  Keys must
    be declared variables; value coefficients may reference fresh names.
    """
    for old in mapping:
        if old not in sys.variables:
            raise ValueError(f"substitution of unknown variable {old!r}")
    new_order: list[str] = []
    for v in sys.variables:
        if v not in mapping:
            new_order.append(v)
    for old, (expr, _c) in mapping.items():
        for v in expr:
            if v not in new_order:
                new_order.append(v)
    rows = []
    for ineq in sys.inequalities:
        coeffs: dict[str, Fraction] = {}
        const_shift = Fraction(0)
        for v, c in ineq.coeffs.items():
            if v in mapping:
                expr, k = mapping[v]
                for nv, nc in expr.items():
                    coeffs[nv] = coeffs.get(nv, Fraction(0)) + c * _frac(nc)
                const_shift += c * _frac(k)
            else:
                coeffs[v] = coeffs.get(v, Fraction(0)) + c
        rows.append(
            LinearInequality(
                coeffs,
                ineq.relation,
                ineq.rhs_atoms,
                ineq.rhs_const - const_shift,
                ineq.label,
            )
        )
    return InequalitySystem(tuple(new_order), rows, sys.bindings)


def rename_variables(sys: InequalitySystem, names: Mapping[str, str]) -> InequalitySystem:
    mapping = {old: ({new: Fraction(1)}, Fraction(0)) for old, new in names.items()}
    out = substitute(sys, mapping)
    order = tuple(names.get(v, v) for v in sys.variables)
    return InequalitySystem(order, out.inequalities, out.bindings)


def region_equal(
    a: InequalitySystem,
    b: InequalitySystem,
    assumptions: Sequence[LinearInequality] = (),
) -> tuple[bool, dict]:
    """Mutual implication of two systems under shared assumptions.

    Returns (equal, certificate).  The certificate lists, for each row of
    each system, the Farkas multipliers over the other system's rows
    followed by the assumption rows; or the reason for inequality.
    """
    if set(a.variables) != set(b.variables):
        raise ValueError(
            f"variable mismatch: {sorted(a.variables)} vs {sorted(b.variables)}"
        )
    vars_, atoms = _joint_space([a, b], assumptions)
    feas_a = system_feasible(a, assumptions)
    feas_b = system_feasible(b, assumptions)
    cert: dict = {"a_implies_b": [], "b_implies_a": []}
    if not feas_a and not feas_b:
        cert["note"] = "both systems infeasible under assumptions"
        return True, cert
    if feas_a != feas_b:
        cert["note"] = "exactly one system is infeasible under assumptions"
        return False, cert

    def direction(src: InequalitySystem, dst: InequalitySystem, key: str) -> bool:
        premise = list(src.inequalities) + list(assumptions)
        names = [r.label or r.format() for r in premise]
        vecs = [_row_vector(r, vars_, atoms) for r in premise]
        ok = True
        for row in dst.inequalities:
            mult = implied_by(vecs, _row_vector(row, vars_, atoms))
            entry = {"row": row.format()}
            if mult is None:
                entry["implied"] = False
                ok = False
            else:
                entry["implied"] = True
                entry["multipliers"] = {
                    names[i]: str(m) for i, m in enumerate(mult) if m != 0
                }
            cert[key].append(entry)
        return ok

    ok_ab = direction(a, b, "a_implies_b")
    ok_ba = direction(b, a, "b_implies_a")
    return ok_ab and ok_ba, cert


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(I\([^()]*\)|H\([^()]*\)"
    r"|[A-Za-z_][A-Za-z0-9_']*"
    r"|\d+/\d+|\d+\.\d+|\d+"
    r"|<=|>=|=|<|>|\+|-|\*)"
)


class SpecFormatError(ValueError):
    """Malformed text input, with a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


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
