"""Independent projection oracle: exact vertex enumeration.

Used to validate Fourier-Motzkin elimination from the outside: project a
box-bounded polytope by enumerating its vertices exactly and comparing
the convex hull of the projected vertices with the eliminated system.
Everything here goes through basic linear algebra and the exact rational
LP, none of it through the elimination code under test.

Float prescreening keeps the subset enumeration fast; every accepted
vertex is re-verified in exact rational arithmetic, and ill-conditioned
subsets fall back to the exact solver, so the final vertex sets are
exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice
from math import lcm
from typing import Optional

import numpy as np

from wiretap3.rationallp import feasible_eq

Row = tuple[list[Fraction], Fraction]  # a . x <= b

_CHUNK = 4096  # subsets per stacked float prescreen


def solve_square(A: list[list], b: list) -> Optional[list[Fraction]]:
    """Exact solution of a square system of ints and Fractions, or None if singular.

    Fraction-free Gauss-Jordan (Bareiss): each row [A_i | b_i] is scaled to
    integers by its common denominator, and every elimination step divides
    by the previous pivot, which is exact because every entry stays a minor
    of the scaled matrix.  Pivots are the first nonzero entry at or below
    the diagonal, as in the rational elimination this replaces, so the same
    systems come out singular.  Only the solution is built from Fractions.
    """
    n = len(A)
    M = []
    for i in range(n):
        row = [*A[i], b[i]]
        den = lcm(*(v.denominator for v in row))
        M.append([v.numerator * (den // v.denominator) for v in row])
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), -1)
        if piv < 0:
            return None
        M[col], M[piv] = M[piv], M[col]
        top = M[col]
        p = top[col]
        for r in range(n):
            if r != col:
                row, f = M[r], M[r][col]
                M[r] = [(p * v - f * t) // prev for v, t in zip(row, top)]
        prev = p
    return [Fraction(M[i][n], M[i][i]) for i in range(n)]


def enumerate_vertices(rows: list[Row], dim: int) -> list[tuple[Fraction, ...]]:
    """All vertices of {x: a_i . x <= b_i}; the system must be bounded.

    The float prescreen runs on a chunk of subsets at a time: one stacked
    ``det``, then one stacked ``solve`` over the well-conditioned subsets
    (each matrix goes through the same LAPACK routine as a single call).
    Subsets are then verified exactly in their enumeration order.
    """
    A = np.array([[float(c) for c in r[0]] for r in rows])
    b = np.array([float(r[1]) for r in rows])
    verts: dict[tuple, tuple] = {}
    subsets = combinations(range(len(rows)), dim)
    while chunk := list(islice(subsets, _CHUNK)):
        idx = np.array(chunk)
        M = A[idx]
        exact_needed = np.abs(np.linalg.det(M)) < 1e-9
        solved = np.flatnonzero(~exact_needed)
        candidate = exact_needed.copy()
        try:
            x = np.linalg.solve(M[solved], b[idx[solved]][..., None])[..., 0]
            candidate[solved] = np.all(x @ A.T <= b + 1e-6, axis=1)
        except np.linalg.LinAlgError:   # a singular matrix: verify the chunk exactly
            candidate[:] = True
        # exact verification (or exact solve for ill-conditioned subsets)
        for subset in idx[candidate].tolist():
            Me = [[rows[i][0][j] for j in range(dim)] for i in subset]
            be = [rows[i][1] for i in subset]
            xe = solve_square(Me, be)
            if xe is None:
                continue
            feas = all(
                sum(r[0][j] * xe[j] for j in range(dim)) <= r[1] for r in rows
            )
            if not feas:
                continue
            verts[tuple(xe)] = tuple(xe)
    return list(verts.values())


def in_convex_hull(point: tuple[Fraction, ...], points: list[tuple[Fraction, ...]]) -> bool:
    """Exact membership of a point in the convex hull of a finite set."""
    if not points:
        return False
    dim = len(point)
    k = len(points)
    # y >= 0, sum y = 1, sum y_i p_i = point
    A = [[Fraction(1)] * k]
    b = [Fraction(1)]
    for j in range(dim):
        A.append([points[i][j] for i in range(k)])
        b.append(point[j])
    return feasible_eq(A, b) is not None


def system_feasible_numeric(rows: list[Row], dim: int) -> bool:
    """Closure feasibility of a numeric inequality system (free variables)."""
    if not rows:
        return True
    A = []
    b = []
    k = len(rows)
    for i, (coeffs, rhs) in enumerate(rows):
        row = [Fraction(c) for c in coeffs] + [-Fraction(c) for c in coeffs]
        row += [Fraction(int(i == j)) for j in range(k)]
        A.append(row)
        b.append(Fraction(rhs))
    return feasible_eq(A, b) is not None


def project_vertices(verts, keep_idx) -> list[tuple[Fraction, ...]]:
    out = {}
    for v in verts:
        p = tuple(v[i] for i in keep_idx)
        out[p] = p
    return list(out.values())


def projection_matches(
    input_rows: list[Row],
    dim: int,
    keep_idx: list[int],
    output_rows: list[Row],
) -> tuple[bool, str]:
    """Does the eliminated system equal the true projection?

    Comparison of closed polytopes: soundness (every projected vertex of
    the input satisfies the output) plus completeness (every vertex of
    the output lies in the hull of the projected input vertices).
    """
    verts = enumerate_vertices(input_rows, dim)
    out_dim = len(keep_idx)
    if not verts:
        if system_feasible_numeric(output_rows, out_dim):
            return False, "input empty but output feasible"
        return True, "both empty"
    shadow = project_vertices(verts, keep_idx)
    for s in shadow:
        for coeffs, rhs in output_rows:
            if sum(coeffs[j] * s[j] for j in range(out_dim)) > rhs:
                return False, f"projected vertex {s} violates output row"
    out_verts = enumerate_vertices(output_rows, out_dim)
    if not out_verts:
        return False, "output empty but input has vertices"
    for q in out_verts:
        if not in_convex_hull(q, shadow):
            return False, f"output vertex {q} outside true projection"
    return True, "match"
