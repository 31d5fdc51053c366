"""Exact rational linear programming, sized for desk-scale systems.

A small two-phase tableau simplex, kept exact without ``Fraction``
arithmetic in the pivots.  Each tableau row is a list of Python ints over
one positive int denominator (fraction-free pivoting in the manner of
Edmonds-Bareiss and Avis's lrs, with a per-row rather than a global
denominator).  A pivot subtracts the pivot row only over its nonzero
columns.  When the reduced pivot entry is 1, as in most pivots here, the
other rows keep their denominators and are not reduced; otherwise they
are scaled by it and gcd-reduced.  A row so left is the reduced row times
a positive int, which moves no pivot: the Dantzig argmin on the objective
row, ratio tests (cross-multiplied within each row) and sign and zero
tests read the same at any positive scale, and results leave as reduced
``Fraction``s.  The objective row is one more such row that every pivot
updates.  Redundancy certificates and region equality are decided with
zero tolerance.

Pivoting uses Dantzig's rule with a Bland fallback after 30 degenerate
pivots in a row, which keeps the method finite on degenerate tableaus;
ratio-test ties go to the lowest basis index.

Entries are ints or ``Fraction``s (floats convert exactly); costs enter
the objective row as ints.  ``Premises`` takes a premise set as integer
rows ``(nums, den)``, as ``fme`` keeps them, and builds once the matrix and
costs of every ``implied_by`` LP on it or on a subset of its rows; the
target of each LP is one more such row.  Pivots depend only on the
rational tableau, each LP still calls ``simplex_min_eq`` by its module
name, and certificates are checked in integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

Vec = list[Fraction]
Mat = list[list[Fraction]]
Row = tuple[Sequence[int], int]   # (nums, den): a row's numerators over one int den > 0

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class SimplexResult:
    """``x`` is the optimum, or for UNBOUNDED the basic feasible point from
    which ``ray`` (x >= 0 direction with A ray = 0 and c.ray < 0) leaves."""

    def __init__(self, status: str, x: Optional[Vec] = None,
                 value: Optional[Fraction] = None, ray: Optional[Vec] = None):
        self.status = status
        self.x = x
        self.value = value
        self.ray = ray


def _exact(vals) -> list:
    return [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in vals]


class IntRows(list):
    """A matrix as ``(nums, den)`` pairs, row i being ``nums / den`` (ints, den > 0)."""

    @classmethod
    def of(cls, A) -> "IntRows":
        out = cls()
        for row in map(_exact, A):
            d = lcm(*(q.denominator for q in row))
            out.append(([q.numerator * (d // q.denominator) for q in row], d))
        return out


class Premises(list):
    """Rows a.x <= beta as integer rows ``(nums, den)``: a's numerators, then
    beta's, over ``den`` > 0.  ``matrix`` is the ``IntRows`` of their
    ``implied_by`` LPs (column i is row i's a; each row is ``IntRows.of`` of
    the rational column), ``cost`` the betas as ints over ``scale``, and
    ``lengths`` the sorted distinct row lengths, which ``take`` keeps."""

    def __init__(self, rows=(), matrix=None, cost=None, scale=1, lengths=None):
        super().__init__(rows)
        self.lengths = sorted({len(nums) for nums, _ in self}) if lengths is None else lengths
        if matrix is None:
            dens = [d for _, d in self]
            scale, matrix = lcm(*dens), IntRows()
            for col in zip(*(nums[:-1] for nums, _ in self)):
                if scale == 1:
                    matrix.append((list(col), 1))
                else:
                    d = lcm(*(q // gcd(v, q) for v, q in zip(col, dens)))
                    matrix.append(([v * d // q for v, q in zip(col, dens)], d))
            cost = [nums[-1] * (scale // d) for nums, d in self]
        self.matrix, self.cost, self.scale = matrix, cost, scale

    def take(self, idx: Sequence[int]) -> "Premises":
        """The rows at ``idx``, in order; each matrix row keeps its (valid) ``den``."""
        cols = IntRows(([r[j] for j in idx], d) for r, d in self.matrix)
        return Premises([self[i] for i in idx], cols, [self.cost[i] for i in idx], self.scale,
                        self.lengths)


def _pivot(tab: list[list[int]], den: list[int], r: int, e: int) -> None:
    """Make column ``e`` basic in row ``r`` (``tab[r][e] > 0``), in every row.

    The pivot row is divided by the gcd of its entries, so its entry ``p``
    does not depend on the row's scale.  For ``p == 1`` each other row is
    updated in place over its ``den`` and left unreduced; every row belongs
    to this tableau alone.
    """
    piv = tab[r]
    g = gcd(*piv)
    if g != 1:
        piv = tab[r] = [v // g for v in piv]
    p = den[r] = piv[e]
    nonzero = [(j, b) for j, b in enumerate(piv) if b]
    for i, row in enumerate(tab):
        f = row[e]
        if f and i != r:
            if p != 1:
                row = [p * a for a in row]
            for j, b in nonzero:
                row[j] -= f * b
            if p != 1:
                d = den[i] * p
                g = gcd(d, *row)
                if g != 1:
                    row, d = [v // g for v in row], d // g
                tab[i], den[i] = row, d


def _objective(cost: list[int], tab: list[list[int]], den: list[int], basis: list[int]) -> None:
    """Append the row ``cost - sum_i cost[basis_i] * row_i`` to ``tab``."""
    terms = [(cost[bi], i) for i, bi in enumerate(basis) if cost[bi]]
    d = lcm(*(den[i] for _, i in terms))
    obj = [q * d for q in cost] + [0]
    for q, i in terms:
        f = q * (d // den[i])
        for j, a in enumerate(tab[i]):
            if a:
                obj[j] -= f * a
    g = gcd(d, *obj)
    tab.append([v // g for v in obj])
    den.append(d // g)


def simplex_min_eq(A: Mat | IntRows, b: Vec, c: Vec) -> SimplexResult:
    """Minimize c.x subject to A x = b, x >= 0, exactly.

    ``A`` is a matrix of ints, ``Fraction``s or floats, or its ``IntRows``;
    the tableau, and so every pivot, depends only on the rational values.
    Returns OPTIMAL with an optimal basic solution, INFEASIBLE, or
    UNBOUNDED (objective unbounded below over the feasible set) with the
    ray along the entering column.
    """
    m = len(A)
    n = len(c)
    b = _exact(b)
    cost, scale = (c, 1) if all(type(q) is int for q in c) else IntRows.of([c])[0]
    tab, den = [], []
    for i, (r, d) in enumerate(A if isinstance(A, IntRows) else IntRows.of(A)):
        if len(r) != n:
            raise ValueError("ragged constraint matrix")
        q = b[i]
        if (s := lcm(d, q.denominator) // d) != 1:
            r, d = [v * s for v in r], d * s
        t = q.numerator * (d // q.denominator)
        if t < 0:
            r, t = [-v for v in r], -t
        tab.append(r + [0] * m + [t])
        tab[i][n + i] = d
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
                low = min(obj[:T], default=0)
                entering = obj.index(low) if low < 0 else -1
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
    _objective(cost, tab, den, basis)
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
    return SimplexResult(OPTIMAL, x, Fraction(-tab[m][n], den[m] * scale))


def feasible_eq(A: Mat, b: Vec) -> Optional[Vec]:
    """A solution x >= 0 of A x = b, or None."""
    n = len(A[0]) if A else 0
    res = simplex_min_eq(A, b, [0] * n)
    return res.x if res.status == OPTIMAL else None


def implied_by(rows: Premises, target: Row) -> Optional[Vec]:
    """Farkas certificate that ``rows`` imply the target inequality.

    Each row stands for a.x <= beta over a common free variable space; the
    target c.x <= delta is one more row ``(nums, den)`` in that layout, over
    ``den`` > 0 and as long as the rows (ValueError otherwise, as for a
    rational pair ``(c, delta)``).  Returns multipliers y >= 0 with
    sum y_i a_i = c and sum y_i beta_i <= delta, or None when no such
    certificate exists.  For a feasible system this is exactly logical
    implication; infeasible rows imply anything, and their certificate
    follows the LP's unbounded ray far enough to reach delta.  Every
    certificate passes ``verify_certificate`` before it is returned.  The
    one LP, solved through the module's ``simplex_min_eq``, takes the
    target's numerators: that moves no pivot and scales y by ``den``.  A
    directly built ``Premises([])`` has no row length to check the target's
    against (``take`` keeps its parent's, also for no rows).
    """
    nums, den = target
    if den <= 0:
        raise ValueError(f"target denominator {den} is not positive")
    if rows.lengths not in ([], [len(nums)]):
        raise ValueError(f"premise rows of lengths {[k - 1 for k in rows.lengths]}, "
                         f"target of length {len(nums) - 1}")
    if not rows:
        return [] if not any(nums[:-1]) and nums[-1] >= 0 else None
    # variables: y_1..y_k >= 0; constraints: sum_i y_i a_i = den c (dim equalities);
    # the costs are the betas times rows.scale: value and bound are den * scale times theirs
    cost, bound = rows.cost, nums[-1] * rows.scale
    res = simplex_min_eq(rows.matrix, nums[:-1], cost)
    if res.status == UNBOUNDED:
        value = sum(q * v for q, v in zip(cost, res.x))
        slope = sum(q * r for q, r in zip(cost, res.ray))
        t = max(Fraction(0), (value - bound) / -slope)
        y = [v + t * r for v, r in zip(res.x, res.ray)]
    elif res.status != OPTIMAL or res.value > bound:
        return None
    else:
        y = res.x
    if den != 1:
        y = [v / den for v in y]
    verify_certificate(rows, target, y)
    return y


def verify_certificate(rows: Sequence[Row], target: Row, y: Sequence[Fraction]) -> None:
    """Check y >= 0, sum y_i a_i = c and sum y_i beta_i <= delta exactly.

    ``rows`` (a ``Premises`` or any list of integer rows) and ``target``
    are as ``implied_by`` takes them; the sums run in integers over one
    denominator.  Raises ValueError (also under ``python -O``) when y
    certifies nothing, a row is not as long as the target or its ``den``
    is not positive.
    """
    want, td = target
    if td <= 0:
        raise ValueError(f"target denominator {td} is not positive")
    if len(y) != len(rows):
        raise ValueError(f"{len(y)} multipliers for {len(rows)} rows")
    used = []   # (y_i's numerator, y_i's denominator times den_i, nums_i)
    for yi, (nums, den) in zip(_exact(y), rows):
        if len(nums) != len(want):
            raise ValueError(f"a premise row of length {len(nums) - 1}, "
                             f"target of length {len(want) - 1}")
        if (p := yi.numerator) < 0:
            raise ValueError(f"negative multiplier {yi}")
        if p:
            used.append((p, yi.denominator * den, nums))
    m = lcm(*(q for _, q, _ in used))   # sum_i y_i * (a_i, beta_i) is lhs / m
    lhs = [0] * len(want)
    for p, q, nums in used:
        w = p * (m // q)
        lhs = [s + w * v if v else s for s, v in zip(lhs, nums)]
    if [s * td for s in lhs[:-1]] != [v * m for v in want[:-1]]:
        raise ValueError("multipliers do not reproduce the target coefficients")
    if lhs[-1] * td > want[-1] * m:
        raise ValueError(f"multipliers bound the target by {Fraction(lhs[-1], m)} "
                         f"> {Fraction(want[-1], td)}")
