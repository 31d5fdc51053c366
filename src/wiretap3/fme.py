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
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .rationallp import Premises, implied_by
from .rationallp import feasible_eq  # noqa: F401  bench/tracer.py rebinds fme.feasible_eq
from .specfmt import NUMBER, content_lines, fraction
from .specfmt import ChannelSpecError as SpecFormatError

Rel = str  # "<=" or "<"


def _rational(q) -> Fraction:
    if isinstance(q, float):
        raise TypeError("inequality coefficients must be exact rationals")
    return Fraction(q)


def _int_row(values) -> tuple[list[int], int]:
    """Exact rationals as numerators over their least common denominator."""
    qs = [q if isinstance(q, (int, Fraction)) else _rational(q) for q in values]
    den = lcm(*[q.denominator for q in qs])
    return [q.numerator * (den // q.denominator) for q in qs], den


def _make(var_nums, relation, atom_nums, const_num, den, label="",
         origin=frozenset(), elim=frozenset(), row=None) -> "LinearInequality":
    """The row of these integer fields over their gcd, filled into ``row`` or new."""
    g = gcd(den, const_num, *var_nums.values(), *atom_nums.values())
    if g != 1:
        var_nums = {k: n // g for k, n in var_nums.items()}
        atom_nums = {k: n // g for k, n in atom_nums.items()}
        const_num, den = const_num // g, den // g
    row = object.__new__(LinearInequality) if row is None else row
    # the one place fields are set: rows are frozen
    row.__dict__.update(var_nums=var_nums, relation=relation, atom_nums=atom_nums,
                        const_num=const_num, den=den, label=label, origin=origin, elim=elim)
    return row


def _sum(a: Mapping[str, int], s: int, b: Mapping[str, int], t: int) -> dict[str, int]:
    """``s * a + t * b`` for numerator maps, a's keys first, zeros dropped."""
    out = {k: n * s for k, n in a.items()}
    for k, n in b.items():
        out[k] = out.get(k, 0) + n * t
    return {k: n for k, n in out.items() if n}


def _combine(a: "LinearInequality", s: int, b: "LinearInequality", t: int, d: int,
             label: str, origin: frozenset, elim: frozenset) -> "LinearInequality":
    """The row ``(s * a + t * b) / d`` from the two rows' numerators."""
    return _make(
        _sum(a.var_nums, s, b.var_nums, t), "<" if "<" in (a.relation, b.relation) else "<=",
        _sum(a.atom_nums, s, b.atom_nums, t), a.const_num * s + b.const_num * t, d,
        label, origin, elim,
    )


def _view(nums: Mapping[str, int], den: int) -> Mapping[str, Fraction]:
    return MappingProxyType({k: Fraction(n, den) for k, n in nums.items()})


@dataclass(frozen=True, eq=False)
class LinearInequality:
    """coeffs . vars  REL  rhs_atoms . atoms + rhs_const

    Held as one integer row: ``var_nums``, ``atom_nums`` and ``const_num``
    are the numerators of the coefficients, the atom coefficients and the
    constant over one ``den`` > 0, with no common factor and no zero entry.
    ``coeffs``, ``rhs_atoms`` and ``rhs_const`` are read-only ``Fraction``
    views of it, in the same order.  A float in any of them is a TypeError.

    ``origin`` and ``elim`` support Imbert's acceleration during chained
    eliminations: origin is the set of ancestral input rows, elim the set
    of variables eliminated along this row's derivation.  A derived row
    with |origin| > |elim| + 1 is redundant and is pruned eagerly.
    """

    var_nums: Mapping[str, int]
    relation: Rel
    atom_nums: Mapping[str, int]
    const_num: int
    den: int
    label: str = ""
    origin: frozenset = frozenset()
    elim: frozenset = frozenset()

    def __init__(self, coeffs, relation, rhs_atoms=None, rhs_const=0, label="",
                 origin=frozenset(), elim=frozenset()):
        if relation not in ("<=", "<"):
            raise ValueError(f"relation must be <= or <, got {relation!r}")
        rhs_atoms = rhs_atoms or {}
        nums, den = _int_row([*coeffs.values(), *rhs_atoms.values(), rhs_const])
        _make({v: n for v, n in zip(coeffs, nums) if n}, relation,
              {a: n for a, n in zip(rhs_atoms, nums[len(coeffs):]) if n}, nums[-1], den,
              label, frozenset(origin), frozenset(elim), row=self)

    coeffs = property(lambda self: _view(self.var_nums, self.den))
    rhs_atoms = property(lambda self: _view(self.atom_nums, self.den))
    rhs_const = property(lambda self: Fraction(self.const_num, self.den))

    @property
    def is_constant_row(self) -> bool:
        return not self.var_nums

    @property
    def is_trivially_true(self) -> bool:
        if self.var_nums or self.atom_nums:
            return False
        return self.const_num > 0 or (self.const_num == 0 and self.relation == "<=")

    def scaled(self, k: Fraction) -> "LinearInequality":
        (p,), q = _int_row([k])
        if p <= 0:
            raise ValueError("inequalities scale by positive rationals only")
        # p * self + 0 * self, over den * q
        return _combine(self, p, self, 0, self.den * q, self.label, self.origin, self.elim)

    def plus(self, other: "LinearInequality", label: str = "",
             extra_elim: frozenset = frozenset()) -> "LinearInequality":
        d = lcm(self.den, other.den)
        return _combine(self, d // self.den, other, d // other.den, d, label,
                        self.origin | other.origin, self.elim | other.elim | extra_elim)

    def canonical_key(self):
        """Scale-invariant key ``(lhs, rhs, relation)``: the primitive integer row.

        ``lhs`` is the variable and the atom numerators over their gcd g, each
        sorted by name; ``rhs`` the constant in that scale, const_num / g, as
        a reduced pair (g is ``den`` when the row has no such term).
        """
        vs, at = self.var_nums, self.atom_nums
        g = gcd(*vs.values(), *at.values()) or self.den
        h = gcd(self.const_num, g)
        lhs = (tuple(sorted((v, n // g) for v, n in vs.items())),
               tuple(sorted((a, n // g) for a, n in at.items())))
        return lhs, (self.const_num // h, g // h), self.relation

    def format(self) -> str:
        def side(terms: Mapping[str, Fraction], const: Fraction = 0) -> str:
            parts = [n if c == 1 else f"-{n}" if c == -1 else f"{c}*{n}" for n, c in terms.items()]
            if const or not parts:
                parts.append(str(const))
            rest = [f" - {p[1:]}" if p[0] == "-" else f" + {p}" for p in parts[1:]]
            return parts[0] + "".join(rest)

        return f"{side(self.coeffs)} {self.relation} {side(self.rhs_atoms, self.rhs_const)}"

    def __repr__(self):
        return f"<{self.format()}>"


def _bound(rows: Sequence[LinearInequality], bindings: Mapping[str, Fraction]) -> list:
    """``rows`` with numeric values substituted for the bound atoms."""
    out = []
    for r in rows:
        atoms = {a: c for a, c in r.rhs_atoms.items() if a not in bindings}
        value = sum(c * bindings[a] for a, c in r.rhs_atoms.items() if a in bindings)
        out.append(LinearInequality(r.coeffs, r.relation, atoms, r.rhs_const + value, r.label))
    return out


@dataclass(frozen=True, eq=False)
class InequalitySystem:
    variables: tuple[str, ...]
    inequalities: tuple[LinearInequality, ...]
    bindings: Mapping[str, Fraction]

    def __init__(self, variables, inequalities, bindings=None):
        variables = tuple(variables)
        inequalities = tuple(inequalities)
        for ineq in inequalities:
            for v in ineq.var_nums:
                if v not in variables:
                    raise ValueError(f"undeclared variable {v!r} in {ineq.format()}")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "inequalities", inequalities)
        object.__setattr__(self, "bindings", dict(bindings or {}))

    @property
    def atoms(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(a for ineq in self.inequalities for a in ineq.atom_nums))

    def with_rows(self, rows: Sequence[LinearInequality]) -> "InequalitySystem":
        return InequalitySystem(self.variables, rows, self.bindings)

    def canonical_rows(self) -> set:
        return {r.canonical_key() for r in self.inequalities}

    def format(self) -> str:
        lines = ["vars " + " ".join(self.variables)]
        for a, v in self.bindings.items():
            lines.append(f"bind {a} = {v}")
        for r in self.inequalities:
            if r.label and re.fullmatch(_NAME, r.label):
                lines.append(f"{r.label}: {r.format()}")
            else:
                lines.append(r.format())
        return "\n".join(lines) + "\n"

    def bind(self, bindings: Mapping[str, Fraction]) -> "InequalitySystem":
        """Substitute numeric values for atoms."""
        merged = dict(self.bindings)
        nums, den = _int_row(bindings.values())
        merged.update({k: Fraction(n, den) for k, n in zip(bindings, nums)})
        return InequalitySystem(self.variables, _bound(self.inequalities, bindings), merged)

    def satisfies(self, point: Mapping[str, float], tol: float = 0.0) -> bool:
        """Membership test at a numeric point; atoms must all be bound."""
        for ineq in self.inequalities:
            if ineq.atom_nums:
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
    best: dict = {}   # in first-seen order of the left-hand sides
    for ineq in sys.inequalities:
        if ineq.is_trivially_true:
            continue
        lhs_key, rhs, rel = ineq.canonical_key()
        if lhs_key in best:
            old_rhs, old_rel, old = best[lhs_key]
            # rows with equal lhs_key share one scale: compare rhs by cross-multiplying
            diff = rhs[0] * old_rhs[1] - old_rhs[0] * rhs[1]
            if not (diff < 0 or diff == 0 and (
                    rel == "<" and old_rel == "<="   # the strict row wins
                    # identical row, shorter history for Imbert pruning
                    or rel == old_rel and len(ineq.origin) < len(old.origin))):
                continue
        best[lhs_key] = (rhs, rel, ineq)
    return sys.with_rows([ineq for _, _, ineq in best.values()])


def _with_histories(sys: InequalitySystem) -> InequalitySystem:
    return sys.with_rows([
        r if r.origin else _make(r.var_nums, r.relation, r.atom_nums, r.const_num, r.den,
                                 r.label, frozenset([i]))
        for i, r in enumerate(sys.inequalities)
    ])


def eliminate(sys: InequalitySystem, var: str) -> InequalitySystem:
    """Project out one variable by pairing its upper and lower bounds.

    Rows carry derivation histories; across chained eliminations, any row
    combining more ancestors than eliminated-variables-plus-one is
    redundant (Imbert).  The test needs only the two parents' histories, so
    it runs before a pair's row is built.  A pair whose ``var`` numerators
    are -lc and uc gives lo / lc + up / uc, the sum of the parents scaled to
    unit coefficients, built in one integer combination over lcm(lc, uc).
    Derived rows follow the lower-major, upper-minor pair order.
    """
    if var not in sys.variables:
        raise ValueError(f"unknown variable {var!r}")
    sys = _with_histories(sys)
    uppers, lowers, rest = [], [], []
    for ineq in sys.inequalities:
        c = ineq.var_nums.get(var, 0)
        if c > 0:
            uppers.append((ineq, c))
        elif c < 0:
            lowers.append((ineq, -c))
        else:
            rest.append(ineq)
    gone = frozenset([var])
    derived = []
    for lo, lc in lowers:
        for up, uc in uppers:
            origin, elim = lo.origin | up.origin, lo.elim | up.elim | gone
            if len(origin) > len(elim) + 1:
                continue
            d = lcm(lc, uc)
            derived.append(_combine(lo, d // lc, up, d // uc, d,
                                    _combine_label(lo.label, up.label), origin, elim))
    new_vars = tuple(v for v in sys.variables if v != var)
    return normalize(InequalitySystem(new_vars, rest + derived, sys.bindings))


def _combine_label(a: str, b: str) -> str:
    if a and b:
        return f"{a}+{b}"
    return a or b


def eliminate_all(sys: InequalitySystem, variables: Sequence[str]) -> InequalitySystem:
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
        atoms.extend(r.atom_nums)
        vars_.extend(r.var_nums)
    return list(dict.fromkeys(vars_)), list(dict.fromkeys(atoms))


def _row_vector(
    ineq: LinearInequality, vars_: Sequence[str], atoms: Sequence[str]
) -> tuple[list[int], int]:
    """``ineq`` as the integer row ``(nums, den)`` of a.x <= beta over
    ``vars_`` then ``atoms``: a's numerators, then beta's; a premise row
    of ``Premises`` and a target of ``implied_by`` alike."""
    vs, at = ineq.var_nums, ineq.atom_nums
    nums = [vs.get(v, 0) for v in vars_] + [-at.get(a, 0) for a in atoms]
    return nums + [ineq.const_num], ineq.den


def _implications(premises: Sequence[LinearInequality], targets: Sequence[LinearInequality],
                  vars_: Sequence[str], atoms: Sequence[str]) -> list[Optional[list[Fraction]]]:
    """``implied_by``'s multipliers for each target over one premise set, or None."""
    vecs = Premises(_row_vector(r, vars_, atoms) for r in premises)
    return [implied_by(vecs, _row_vector(r, vars_, atoms)) for r in targets]


def infeasibility_certificate(
    sys: InequalitySystem, assumptions: Sequence[LinearInequality] = ()
) -> Optional[list[Fraction]]:
    """Farkas multipliers proving the rows plus assumption rows infeasible.

    With every row as a.x <= beta over the free variables and atoms, the
    system has no solution iff some y >= 0 gives sum y_i a_i = 0 and
    sum y_i beta_i < 0, that is, iff the rows imply 0 <= -1.  Returns that
    y (rows first, then assumptions; checked by ``verify_certificate``), or
    None when the closure of the system is feasible.
    """
    vars_, atoms = _joint_space([sys], assumptions)
    vecs = Premises(_row_vector(r, vars_, atoms) for r in (*sys.inequalities, *assumptions))
    return implied_by(vecs, ([0] * (len(vars_) + len(atoms)) + [-1], 1))


def remove_redundant(
    sys: InequalitySystem, assumptions: Sequence[LinearInequality] = ()
) -> InequalitySystem:
    """Drop every row implied by the remaining rows plus assumptions.

    The system's bindings are substituted first, also into the assumptions.
    Every other atom must be mentioned by at least one assumption row;
    redundancy relative to a fully unconstrained constant is almost never
    what a derivation means, so it is rejected loudly.
    """
    if sys.bindings:
        assumptions, sys = _bound(assumptions, sys.bindings), sys.bind(sys.bindings)
    covered = set(sys.bindings).union(*(a.atom_nums for a in assumptions))
    missing = [a for a in sys.atoms if a not in covered]
    if missing:
        raise ValueError(f"unbound constants with no covering assumptions: {missing}")
    sys = normalize(sys)
    vars_, atoms = _joint_space([sys], assumptions)
    rows = list(sys.inequalities)
    vecs = Premises(_row_vector(r, vars_, atoms) for r in (*rows, *assumptions))
    assumed = list(range(len(rows), len(vecs)))
    kept: list[LinearInequality] = []
    # one pass, testing each row against all other rows (already-dropped rows
    # are excluded; rows not yet visited are included)
    active = list(range(len(rows)))
    for i, r in enumerate(rows):
        premise = vecs.take([j for j in active if j != i] + assumed)
        if implied_by(premise, _row_vector(r, vars_, atoms)) is None:
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
        const_shift = 0
        for v, c in ineq.coeffs.items():
            if v in mapping:
                expr, k = mapping[v]
                for nv, nc in expr.items():
                    coeffs[nv] = coeffs.get(nv, 0) + c * nc
                const_shift += c * k
            else:
                coeffs[v] = coeffs.get(v, 0) + c
        rows.append(LinearInequality(coeffs, ineq.relation, ineq.rhs_atoms,
                                     ineq.rhs_const - const_shift, ineq.label))
    return InequalitySystem(tuple(new_order), rows, sys.bindings)


def rename_variables(sys: InequalitySystem, names: Mapping[str, str]) -> InequalitySystem:
    out = substitute(sys, {old: ({new: 1}, 0) for old, new in names.items()})
    order = [names.get(v, v) for v in sys.variables]
    return InequalitySystem(order, out.inequalities, out.bindings)


def region_equal(
    a: InequalitySystem,
    b: InequalitySystem,
    assumptions: Sequence[LinearInequality] = (),
) -> tuple[bool, dict]:
    """Mutual implication of two systems under shared assumptions.

    Returns (equal, certificate).  The certificate lists, for each row of
    each system, the Farkas multipliers over the other system's rows
    followed by the assumption rows; or the reason for inequality.  A
    system infeasible under the assumptions adds ``a_infeasible`` or
    ``b_infeasible``: its rows' and the assumptions' multipliers that sum
    to ``0 <= -1``, named by row as the implication entries are.  Both
    systems' bindings are substituted into both and the assumptions first.
    """
    if set(a.variables) != set(b.variables):
        raise ValueError(
            f"variable mismatch: {sorted(a.variables)} vs {sorted(b.variables)}"
        )
    bindings = dict(a.bindings)
    for atom, value in b.bindings.items():
        if bindings.setdefault(atom, value) != value:
            raise ValueError(f"the systems bind {atom} to {bindings[atom]} and to {value}")
    if bindings:
        a, b, assumptions = a.bind(bindings), b.bind(bindings), _bound(assumptions, bindings)
    vars_, atoms = _joint_space([a, b], assumptions)
    cert: dict = {"a_implies_b": [], "b_implies_a": []}

    def names(sys: InequalitySystem) -> list[str]:
        return [r.label or r.format() for r in (*sys.inequalities, *assumptions)]

    for key, sys in (("a_infeasible", a), ("b_infeasible", b)):
        mult = infeasibility_certificate(sys, assumptions)
        if mult is not None:
            cert[key] = {n: str(m) for n, m in zip(names(sys), mult) if m != 0}
    infeasible = ("a_infeasible" in cert) + ("b_infeasible" in cert)
    if infeasible == 2:
        cert["note"] = "both systems infeasible under assumptions"
        return True, cert
    if infeasible == 1:
        cert["note"] = "exactly one system is infeasible under assumptions"
        return False, cert

    def direction(src: InequalitySystem, dst: InequalitySystem, key: str) -> bool:
        labels = names(src)
        mults = _implications((*src.inequalities, *assumptions), dst.inequalities, vars_, atoms)
        for row, mult in zip(dst.inequalities, mults):
            entry = {"row": row.format(), "implied": mult is not None}
            if mult is not None:
                entry["multipliers"] = {n: str(m) for n, m in zip(labels, mult) if m != 0}
            cert[key].append(entry)
        return None not in mults

    ok_ab = direction(a, b, "a_implies_b")
    ok_ba = direction(b, a, "b_implies_a")
    return ok_ab and ok_ba, cert


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z0-9_']*"
# one signed term: NUMBER*SYMBOL, a SYMBOL (an I(...) or H(...) atom or a
# name) or a NUMBER; every term after a side's first must carry its sign
_TERM = re.compile(
    rf"\s*(?P<sign>[+-]?)\s*(?:(?:(?P<coeff>{NUMBER})\s*\*\s*)?"
    rf"(?:(?P<atom>[IH]\([^()]*\))|(?P<name>{_NAME}))|(?P<const>{NUMBER}))\s*"
)
# a relation inside an atom's parentheses belongs to the atom
_RELATION = re.compile(r"(<=|>=|<|>|=)(?![^()]*\))")
_LABEL = re.compile(rf"({_NAME}):\s+(.*)")
_BIND = re.compile(rf"bind\s+(.+?)\s*=\s*(-?(?:{NUMBER}))\s*")


def _side(line_no: int, text: str, variables: tuple[str, ...], atoms_decl):
    """A side's (variable coeffs, atom coeffs, constant), in first-use order."""
    var_c, atom_c, const, pos, prev = {}, {}, 0, 0, None
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None:
            raise SpecFormatError(line_no, f"expected a term at {text[pos:].strip()!r}")
        sym = m["atom"] or m["name"]
        if prev and not m["sign"]:
            hint = f"; write {prev['const']}*{sym}" if prev["const"] and sym else ""
            raise SpecFormatError(line_no, f"missing '+' or '-' before {m[0].strip()!r}{hint}")
        k = fraction(line_no, m["sign"] + (m["coeff"] or m["const"] or "1"))
        prev, pos = m, m.end()
        if sym is None:
            const += k
            continue
        is_var = m["name"] in variables
        if m["name"] and not is_var and atoms_decl is not None and sym not in atoms_decl:
            raise SpecFormatError(line_no, f"unknown symbol {sym!r}")
        terms = var_c if is_var else atom_c
        terms[sym] = terms[sym] + k if sym in terms else k
    return var_c, atom_c, const


def _row(lhs, rhs, relation: str, label: str) -> LinearInequality:
    """``lhs REL rhs`` as variables on the left, atoms and constant on the right."""
    (lv, la, lc), (rv, ra, rc) = lhs, rhs
    coeffs, atoms = dict(lv), dict(ra)
    for v, c in rv.items():
        coeffs[v] = coeffs.get(v, 0) - c
    for a, c in la.items():
        atoms[a] = atoms.get(a, 0) - c
    return LinearInequality(coeffs, relation, atoms, rc - lc, label)


def parse_system(text: str) -> tuple[InequalitySystem, list[LinearInequality]]:
    """Parse the inequality-system text format.

    Returns (system, assumptions).  Lines:
      vars NAME...            declare region variables (once, required first)
      atoms NAME...           optionally close the constant namespace (once,
                              before the first row, assumption or bind)
      bind ATOM = rational    numeric binding for a constant
      assume <inequality>     assumption row (kept separate from the system)
      label: <inequality>     inequality with a label prefix
      <inequality>            e.g.  2*R1 + Re <= I(V0,V1;Y1|Q) - I(V1;Z|V0)
    """
    variables = atoms_decl = None
    rows, assumptions, bindings = [], [], {}
    for line_no, line in content_lines(text):
        if line.startswith("vars "):
            if variables is not None:
                raise SpecFormatError(line_no, "duplicate 'vars' declaration")
            variables = tuple(line.split()[1:])
            continue
        if line.startswith("atoms "):
            if atoms_decl is not None:
                raise SpecFormatError(line_no, "duplicate 'atoms' declaration")
            if rows or assumptions or bindings:
                raise SpecFormatError(line_no, "'atoms' must come before the first row")
            atoms_decl = set(line.split()[1:])
            continue
        if variables is None:
            raise SpecFormatError(line_no, "missing 'vars' declaration")
        m = _LABEL.fullmatch(line)
        label, body = m.groups() if m else ("", line)
        out = rows
        if body.startswith("assume "):
            out, body = assumptions, body[len("assume "):]
        if body.startswith("bind "):
            mb = _BIND.fullmatch(body)
            if not mb:
                raise SpecFormatError(line_no, "malformed bind line")
            bindings[mb[1]] = fraction(line_no, mb[2])
            continue
        lhs, *rest = _RELATION.split(body)
        if len(rest) != 2:
            found = " ".join(rest[::2]) or "none"
            raise SpecFormatError(line_no, f"need one relation operator, found {found}")
        rel, rhs = rest
        if not (lhs.strip() and rhs.strip()):
            raise SpecFormatError(line_no, f"a side of {rel!r} is empty")
        lhs, rhs = (_side(line_no, side, variables, atoms_decl) for side in (lhs, rhs))
        if rel == "=":
            out += [_row(lhs, rhs, "<=", label), _row(rhs, lhs, "<=", label)]
        elif rel[0] == "<":
            out.append(_row(lhs, rhs, rel, label))
        else:
            out.append(_row(rhs, lhs, "<" + rel[1:], label))
    if variables is None:
        raise SpecFormatError(1, "missing 'vars' declaration")
    return InequalitySystem(variables, rows, bindings), assumptions
