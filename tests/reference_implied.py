"""Exact LP setup as it was before premises were converted once, kept verbatim.

It is the reference for the differential tests in ``test_rationallp.py``:
``simplex_min_eq`` converts every row of a Fraction matrix to an integer
row on each call, and ``implied_by`` transposes its premise rows into that
matrix on each call, and ``_objective`` prices ``Fraction`` costs.  Pivoting
(``_pivot``) and the certificate check are the program's own.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from wiretap3.rationallp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    Mat,
    SimplexResult,
    Vec,
    _pivot,
    verify_certificate,
)


def _exact(vals) -> list:
    return [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in vals]


def _int_row(vals) -> tuple[list[int], int]:
    """Integers ``r`` and a positive ``d`` with ``vals == r / d``."""
    d = lcm(*(q.denominator for q in vals))
    return [q.numerator * (d // q.denominator) for q in vals], d


def _objective(cost: list, tab: list[list[int]], den: list[int], basis: list[int]) -> None:
    """Append the row ``cost - sum_i cost[basis_i] * row_i`` to ``tab``."""
    terms = [(cost[bi], i) for i, bi in enumerate(basis) if cost[bi]]
    d = lcm(*(q.denominator for q in cost), *(q.denominator * den[i] for q, i in terms))
    obj = [q.numerator * (d // q.denominator) for q in cost] + [0]
    for q, i in terms:
        f = q.numerator * (d // (q.denominator * den[i]))
        obj = [o - f * a for o, a in zip(obj, tab[i])]
    g = gcd(d, *obj)
    tab.append([v // g for v in obj])
    den.append(d // g)


def simplex_min_eq(A: Mat, b: Vec, c: Vec) -> SimplexResult:
    """Minimize c.x subject to A x = b, x >= 0, exactly.

    Returns OPTIMAL with an optimal basic solution, INFEASIBLE, or
    UNBOUNDED (objective unbounded below over the feasible set) with the
    ray along the entering column.
    """
    m = len(A)
    n = len(c)
    c = _exact(c)
    tab, den = [], []
    for i in range(m):
        if len(A[i]) != n:
            raise ValueError("ragged constraint matrix")
        r, d = _int_row(_exact(list(A[i]) + [b[i]]))
        if r[n] < 0:
            r = [-v for v in r]
        tab.append(r[:n] + [d if j == i else 0 for j in range(m)] + r[n:])
        den.append(d)
    # Phase 1: artificial variable per row; tab[m] is the objective row.
    basis = [n + i for i in range(m)]
    _objective([0] * n + [1] * m, tab, den, basis)

    def run() -> int:
        """Pivot to optimality; -1, or the entering column of an unbounded ray."""
        obj, T = tab[m], len(tab[m]) - 1
        stall = 0
        while True:
            if stall < 30:
                entering = min(range(T), key=obj.__getitem__, default=-1)
                if entering >= 0 and obj[entering] >= 0:
                    entering = -1
            else:  # Bland's rule
                entering = next((j for j in range(T) if obj[j] < 0), -1)
            if entering < 0:
                return -1
            leave = -1
            for i in range(m):
                a = tab[i][entering]
                if a > 0:
                    if leave >= 0:
                        lhs, rhs = tab[i][T] * lead[entering], lead[T] * a
                        if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                            continue
                    leave, lead = i, tab[i]
            if leave < 0:
                return entering
            stall = stall + 1 if lead[T] == 0 else 0
            _pivot(tab, den, leave, entering)
            obj = tab[m]
            basis[leave] = entering

    if run() >= 0 or tab[m][-1] != 0:
        return SimplexResult(INFEASIBLE)
    # Drive artificials out of the basis where possible; drop dependent rows.
    keep: list[int] = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j]), -1)
            if col < 0:
                continue  # redundant row
            if tab[i][col] < 0:
                tab[i] = [-v for v in tab[i]]
            _pivot(tab, den, i, col)
            basis[i] = col
        keep.append(i)
    # Phase 2 without the artificial columns, which can never price in.
    tab = [tab[i][:n] + tab[i][-1:] for i in keep]
    den = [den[i] for i in keep]
    basis = [basis[i] for i in keep]
    m = len(tab)
    _objective(c, tab, den, basis)
    entering = run()
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = Fraction(tab[i][n], den[i])
    if entering >= 0:
        ray = [Fraction(0)] * n
        ray[entering] = Fraction(1)
        for i, bi in enumerate(basis):
            ray[bi] = Fraction(-tab[i][entering], den[i])
        return SimplexResult(UNBOUNDED, x, None, ray)
    return SimplexResult(OPTIMAL, x, Fraction(-tab[m][n], den[m]))


def implied_by(
    rows: Sequence[tuple[Sequence[Fraction], Fraction]],
    target: tuple[Sequence[Fraction], Fraction],
) -> Optional[Vec]:
    """Farkas certificate that ``rows`` imply the target inequality.

    Each row is (a, beta) standing for a.x <= beta over a common free
    variable space.  Returns multipliers y >= 0 with sum y_i a_i = c and
    sum y_i beta_i <= delta for target (c, delta), or None when no such
    certificate exists.  For a feasible system this is exactly logical
    implication; infeasible rows imply anything, and their certificate
    follows the LP's unbounded ray far enough to reach delta.  Every
    certificate passes ``verify_certificate`` before it is returned.
    """
    c, delta = target
    k = len(rows)
    if k == 0:
        return [] if all(v == 0 for v in c) and delta >= 0 else None
    # variables: y_1..y_k >= 0; constraints: sum_i y_i a_i = c (dim equalities)
    A = [list(col) for col in zip(*(a for a, _ in rows))]
    cost = [beta for _, beta in rows]
    res = simplex_min_eq(A, list(c), cost)
    if res.status == UNBOUNDED:
        value = sum(q * v for q, v in zip(cost, res.x))
        slope = sum(q * r for q, r in zip(cost, res.ray))
        t = max(Fraction(0), (value - delta) / -slope)
        y = [v + t * r for v, r in zip(res.x, res.ray)]
    elif res.status != OPTIMAL or res.value > delta:
        return None
    else:
        y = res.x
    verify_certificate(rows, target, y)
    return y
