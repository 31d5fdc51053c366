"""Degraded / less-noisy / more-capable orderings between channels.

Degradedness (existence of W with P_{Z|X} = P_{Y|X} W) is a linear
feasibility problem and is decided *exactly*: rational channel entries are
used as-is, float entries are taken at their exact binary value and the
equality constraints are relaxed to a 1e-9 feasibility corridor.

Less noisy and more capable are universally quantified over input (or
auxiliary) distributions, so no search can prove them.  Verdicts are
therefore three-valued:

- holds=True   only when implied by degradedness (a proof),
- holds=False  with a concrete counterexample distribution as witness,
- holds=None   ("undetermined") when the search found no violation.

Less noisy is searched at |U| = 2, which loses nothing: with f(p) =
I(X;Y) - I(X;Z), I(U;Y) - I(U;Z) = f(p_X) - sum_u p(u) f(p_{X|U=u}), so a
violation exists iff f is not concave, and then the ends of a chord above f
are one as the two laws p_{X|U=u} (M. van Dijk, IEEE Trans. IT 43(2), 1997).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .bounds import BoundTerms, _BoundPlan, _expr
from .optim import SearchBudget, search_factored
from .probability import ConditionalPmf, DistributionError, JointPmf
from .rationallp import feasible_eq

VIOLATION_TOL = 1e-9


@dataclass(frozen=True)
class OrderingVerdict:
    relation: str                      # degraded | less_noisy | more_capable
    holds: Optional[bool]              # True / False / None = undetermined
    witness: Optional[object] = None   # channel (degraded) or distribution
    margin: Optional[float] = None     # inequality violation for holds=False
    resolution: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError("verdict truthiness is ambiguous; inspect .holds")


def check_degraded(p_yx: ConditionalPmf, p_zx: ConditionalPmf) -> OrderingVerdict:
    """Is Z a degraded version of Y, i.e. does a stochastic W solve Y.W = Z?

    Exact inputs get a zero-tolerance feasibility test; float inputs a
    1e-9 corridor around each equality.
    """
    if p_yx.rows != p_zx.rows:
        raise DistributionError(
            f"input alphabets differ: {p_yx.rows} vs {p_zx.rows}"
        )
    exact = p_yx.exact is not None and p_zx.exact is not None
    # feasible_eq takes each float entry at its exact binary value
    Y, Z = (c.matrix if c.exact is None else c.exact for c in (p_yx, p_zx))
    nx, ny, nz = p_yx.rows, p_yx.cols, p_zx.cols
    tol = Fraction(0) if exact else Fraction(1, 10**9)

    # unknowns: W[y][z] >= 0, and for tol > 0 a bounded slack pair per
    # match equality (s+ - s- shifts the target by at most tol each way)
    nW = ny * nz
    n_match = nx * nz
    width = nW if tol == 0 else nW + 4 * n_match

    def wcol(y, z):
        return y * nz + z

    A: list[list[Fraction]] = []
    b: list[Fraction] = []
    k = 0
    for x in range(nx):
        for z in range(nz):
            row = [Fraction(0)] * width
            for y in range(ny):
                row[wcol(y, z)] = Y[x][y]
            if tol != 0:
                row[nW + k] = Fraction(1)        # s+
                row[nW + n_match + k] = Fraction(-1)  # s-
            A.append(row)
            b.append(Z[x][z])
            k += 1
    for y in range(ny):
        row = [Fraction(0)] * width
        for z in range(nz):
            row[wcol(y, z)] = Fraction(1)
        A.append(row)
        b.append(Fraction(1))
    if tol != 0:
        for k in range(2 * n_match):  # s + u = tol bounds each slack
            row = [Fraction(0)] * width
            row[nW + k] = Fraction(1)
            row[nW + 2 * n_match + k] = Fraction(1)
            A.append(row)
            b.append(tol)
    sol = feasible_eq(A, b)
    if sol is None:
        return OrderingVerdict(
            "degraded", False, None, None,
            "exact rational infeasibility" if exact else "LP infeasible at 1e-9",
        )
    W = [[sol[wcol(i, j)] for j in range(nz)] for i in range(ny)]
    witness = ConditionalPmf(W)
    return OrderingVerdict(
        "degraded", True, witness, None,
        "exact rational feasibility" if exact else "LP feasible at 1e-9",
    )


def _gap(p_yx: ConditionalPmf, p_zx: ConditionalPmf, shape: tuple[int, ...]):
    """I(A;Y) - I(A;Z) on a stack of flat laws (B, cells), one plan per check.

    ``shape`` is (|U|, |X|) for p(u,x), with A = U, or (|X|,) for p(x), with
    A = X.
    """
    axes = ("U", "X")[-len(shape):]
    plan = _BoundPlan(
        BoundTerms((_expr(f"I({axes[0]};Y) - I({axes[0]};Z)"),)),
        axes,
        {"Y": p_yx.matrix, "Z": p_zx.matrix},
    )
    return lambda flat: plan(flat.reshape((-1,) + shape))


def _grid_simplex(cells: int, g: int) -> list[np.ndarray]:
    """Exhaustive simplex grid for tiny parameter spaces (<= 3 cells)."""
    if cells == 2:
        return [np.array([i / g, 1 - i / g]) for i in range(g + 1)]
    if cells == 3:
        return [
            np.array([i / g, j / g, 1 - (i + j) / g])
            for i in range(g + 1)
            for j in range(g + 1 - i)
        ]
    return []


def _searched_verdict(
    relation: str, p_yx: ConditionalPmf, p_zx: ConditionalPmf, shape: tuple[int, ...],
    budget: SearchBudget, found: str, clean: str, extra_starts=(),
) -> OrderingVerdict:
    """The verdict on ``relation``: implied by degradedness, else searched.

    The search of p over ``shape`` (see ``_gap``) runs ``extra_starts``,
    then the restarts; the one table has one row, so a candidate row is a
    point.  A least gap below -VIOLATION_TOL resolves as ``found``, its law
    the counterexample; otherwise the verdict is undetermined, resolved as
    ``clean`` and the restarts.
    """
    deg = check_degraded(p_yx, p_zx)
    if deg.holds:
        return OrderingVerdict(relation, True, deg.witness, None, "implied by degradedness")
    cells = int(np.prod(shape))
    gap = _gap(p_yx, p_zx, shape)
    res = search_factored(lambda tables, fi, r, owner, rows: -gap(rows), [(1, cells)], budget,
                          extra_starts=extra_starts)
    least = -res.value
    if least < -VIOLATION_TOL:
        witness = JointPmf(("U", "X")[-len(shape):], res.params[0][0].reshape(shape))
        return OrderingVerdict(relation, False, witness, -least, found)
    return OrderingVerdict(relation, None, None, None, f"{clean}, {budget.restarts} restarts")


def check_less_noisy(
    p_yx: ConditionalPmf,
    p_zx: ConditionalPmf,
    budget: SearchBudget = SearchBudget(),
) -> OrderingVerdict:
    """Is Y less noisy than Z: I(U;Y) >= I(U;Z) for all p(u,x)?  Searched at |U| = 2."""
    return _searched_verdict("less_noisy", p_yx, p_zx, (2, p_yx.rows), budget,
                             "counterexample at |U|=2", "no violation found at |U|=2")


def check_more_capable(
    p_yx: ConditionalPmf,
    p_zx: ConditionalPmf,
    budget: SearchBudget = SearchBudget(),
) -> OrderingVerdict:
    """Is Y more capable than Z: I(X;Y) >= I(X;Z) for all p(x)?

    At |X| <= 3 the search first starts from each point of a simplex grid with
    ``budget.grid_points`` steps per edge.
    """
    grid = [[g.reshape(1, -1)] for g in _grid_simplex(p_yx.rows, budget.grid_points)]
    return _searched_verdict("more_capable", p_yx, p_zx, (p_yx.rows,), budget,
                             "counterexample input pmf", "no violation found", grid)
