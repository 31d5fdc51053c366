"""FME paths as they were before the Farkas feasibility LP and early Imbert
pruning, kept verbatim.

They are the references for the differential tests in ``test_fme.py``:

- ``system_feasible`` splits every free variable as u - w and adds one
  slack column per row, then asks ``feasible_eq`` for any solution;
- ``eliminate`` builds every lower x upper combined row from unit-scaled
  parents and only then drops it by Imbert's history test;
- ``canonical_key`` is the row key that sorted each mapping per use.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from wiretap3.fme import (
    InequalitySystem,
    LinearInequality,
    _combine_label,
    _joint_space,
    _row_vector,
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
        vec, rhs = _row_vector(r, vars_, atoms)
        A.append(vec + [-v for v in vec])
        b.append(rhs)
    k = len(rows)
    for i in range(k):
        for j in range(k):
            A[i].append(Fraction(int(i == j)))
    return feasible_eq(A, b) is not None
