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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .optim import SearchBudget, per_point, search_factored
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


def _exact_matrix(chan: ConditionalPmf):
    if chan.exact is not None:
        return [list(row) for row in chan.exact]
    return [[Fraction(float(v)) for v in row] for row in chan.matrix]


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
    Y = _exact_matrix(p_yx)
    Z = _exact_matrix(p_zx)
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


def _info_gap(
    axes: tuple[str, ...], p: np.ndarray, p_yx: ConditionalPmf, p_zx: ConditionalPmf
) -> float:
    """I(A;Y) - I(A;Z) for A = axes[0], given p over ``axes`` ending in X."""
    j = JointPmf(axes, p).attach_receivers(("X",), {"Y": p_yx, "Z": p_zx})
    return j.mutual_information(axes[:1], ("Y",)) - j.mutual_information(axes[:1], ("Z",))


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


def _minimize_flat(objective, cells: int, budget: SearchBudget) -> tuple[float, np.ndarray]:
    """Minimize over one flat simplex with grid seeds plus restarts."""
    def neg(params):
        return -objective(params[0][0])

    extra = [[g.reshape(1, cells)] for g in _grid_simplex(cells, budget.grid_points)]
    res = search_factored(per_point(neg), [(1, cells)], budget, extra_starts=extra)
    return -res.value, res.params[0][0]


def _minimize_gap(
    p_yx: ConditionalPmf,
    p_zx: ConditionalPmf,
    aux_card: int,
    budget: SearchBudget,
) -> tuple[float, np.ndarray]:
    """Search for p(u,x) minimizing I(U;Y) - I(U;Z); returns (min, argmin)."""
    nx = p_yx.rows
    cells = aux_card * nx

    def objective(flat: np.ndarray) -> float:
        return _info_gap(("U", "X"), flat.reshape(aux_card, nx), p_yx, p_zx)

    val, arg = _minimize_flat(objective, cells, budget)
    return float(val), arg.reshape(aux_card, nx)


def check_less_noisy(
    p_yx: ConditionalPmf,
    p_zx: ConditionalPmf,
    aux_card: int = 2,
    budget: SearchBudget = SearchBudget(),
) -> OrderingVerdict:
    """Is Y less noisy than Z: I(U;Y) >= I(U;Z) for all p(u,x)?"""
    if p_yx.rows != p_zx.rows:
        raise DistributionError("input alphabets differ")
    if aux_card < 1:
        raise ValueError("aux_card must be >= 1")
    deg = check_degraded(p_yx, p_zx)
    if deg.holds:
        return OrderingVerdict(
            "less_noisy", True, deg.witness, None, "implied by degradedness"
        )
    val, arg = _minimize_gap(p_yx, p_zx, aux_card, budget)
    if val < -VIOLATION_TOL:
        return OrderingVerdict(
            "less_noisy", False, JointPmf(("U", "X"), arg), -val,
            f"counterexample at |U|={aux_card}",
        )
    return OrderingVerdict(
        "less_noisy", None, None, None,
        f"no violation found at |U|={aux_card}, {budget.restarts} restarts",
    )


def check_more_capable(
    p_yx: ConditionalPmf,
    p_zx: ConditionalPmf,
    budget: SearchBudget = SearchBudget(),
) -> OrderingVerdict:
    """Is Y more capable than Z: I(X;Y) >= I(X;Z) for all p(x)?"""
    if p_yx.rows != p_zx.rows:
        raise DistributionError("input alphabets differ")
    deg = check_degraded(p_yx, p_zx)
    if deg.holds:
        return OrderingVerdict(
            "more_capable", True, deg.witness, None, "implied by degradedness"
        )

    def objective(px: np.ndarray) -> float:
        return _info_gap(("X",), px, p_yx, p_zx)

    best_val, best = _minimize_flat(objective, p_yx.rows, budget)
    if best_val < -VIOLATION_TOL:
        return OrderingVerdict(
            "more_capable", False, JointPmf(("X",), best), -best_val,
            "counterexample input pmf",
        )
    return OrderingVerdict(
        "more_capable", None, None, None,
        f"no violation found, {budget.restarts} restarts",
    )
