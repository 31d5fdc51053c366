"""The exact simplex as it was before fraction-free pivoting, kept verbatim.

It is the reference for the differential tests in ``test_rationallp.py``:
a two-phase tableau simplex over ``fractions.Fraction`` that rebuilds the
reduced costs from the basis on every iteration.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

Vec = list[Fraction]
Mat = list[list[Fraction]]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class SimplexResult:
    def __init__(self, status: str, x: Optional[Vec] = None, value: Optional[Fraction] = None):
        self.status = status
        self.x = x
        self.value = value


def simplex_min_eq(A: Mat, b: Vec, c: Vec) -> SimplexResult:
    """Minimize c.x subject to A x = b, x >= 0, exactly.

    Returns OPTIMAL with an optimal basic solution, INFEASIBLE, or
    UNBOUNDED (objective unbounded below over the feasible set).
    """
    m = len(A)
    n = len(c)
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    for i in range(m):
        if len(A[i]) != n:
            raise ValueError("ragged constraint matrix")
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]

    # Phase 1: artificial variable per row.
    total = n + m
    tab = [A[i] + [Fraction(int(j == i)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    cost1 = [Fraction(0)] * n + [Fraction(1)] * m

    def run(cost: Vec) -> str:
        # objective row: reduced costs z_j - c_j form, stored as c_j - z_j
        stall = 0
        while True:
            red = cost[:]
            obj = Fraction(0)
            for i, bi in enumerate(basis):
                cb = cost[bi]
                if cb:
                    row = tab[i]
                    obj += cb * row[total]
                    for j in range(total):
                        if row[j]:
                            red[j] -= cb * row[j]
            entering = -1
            if stall < 30:
                best = Fraction(0)
                for j in range(total):
                    if red[j] < best:
                        best = red[j]
                        entering = j
            else:  # Bland's rule
                for j in range(total):
                    if red[j] < 0:
                        entering = j
                        break
            if entering < 0:
                return OPTIMAL
            ratio = None
            leave = -1
            for i in range(m):
                a = tab[i][entering]
                if a > 0:
                    r = tab[i][total] / a
                    if ratio is None or r < ratio or (r == ratio and basis[i] < basis[leave]):
                        ratio = r
                        leave = i
            if leave < 0:
                return UNBOUNDED
            if ratio == 0:
                stall += 1
            else:
                stall = 0
            piv = tab[leave][entering]
            row = tab[leave]
            if piv != 1:
                tab[leave] = row = [v / piv for v in row]
            for i in range(m):
                if i != leave and tab[i][entering]:
                    f = tab[i][entering]
                    ri = tab[i]
                    tab[i] = [ri[k] - f * row[k] for k in range(total + 1)]
            basis[leave] = entering

    status = run(cost1)
    phase1_obj = sum((tab[i][total] for i in range(m) if basis[i] >= n), Fraction(0))
    if status != OPTIMAL or phase1_obj != 0:
        return SimplexResult(INFEASIBLE)
    # Drive artificials out of the basis where possible; drop dependent rows.
    keep: list[int] = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = -1
            for j in range(n):
                if tab[i][j] != 0:
                    pivot_col = j
                    break
            if pivot_col < 0:
                continue  # redundant row
            piv = tab[i][pivot_col]
            tab[i] = [v / piv for v in tab[i]]
            for k in range(m):
                if k != i and tab[k][pivot_col]:
                    f = tab[k][pivot_col]
                    tab[k] = [tab[k][t] - f * tab[i][t] for t in range(total + 1)]
            basis[i] = pivot_col
        keep.append(i)
    if len(keep) != m:
        global_rows = [tab[i] for i in keep]
        new_basis = [basis[i] for i in keep]
        tab.clear()
        tab.extend(global_rows)
        basis.clear()
        basis.extend(new_basis)
        m = len(tab)
    # Forbid artificials from re-entering: set huge phase-2 cost.
    cost2 = c + [Fraction(0)] * (total - n)
    # zero out artificial columns so they never price in
    for row in tab:
        for j in range(n, total):
            row[j] = Fraction(0)
    status = run(cost2)
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab[i][total]
    value = sum((c[j] * x[j] for j in range(n)), Fraction(0))
    return SimplexResult(OPTIMAL, x, value)
