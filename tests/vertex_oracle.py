"""Independent projection oracle: exact vertex enumeration.

Used to validate Fourier-Motzkin elimination from the outside: project a
box-bounded polytope by enumerating its vertices exactly and comparing
the convex hull of the projected vertices with the eliminated system.
Everything here goes through basic linear algebra and the exact rational
LP, none of it through the elimination code under test.

Float prescreening keeps the subset enumeration fast; every accepted
vertex is re-verified in exact rational arithmetic, and ill-conditioned
subsets fall back to the exact solver, so the final vertex sets are
exact.  Most ill-conditioned subsets are singular; those are recognized a
chunk at a time by exact int64 elimination before any exact solve.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice
from math import hypot, lcm
from operator import mul
from typing import Optional

import numpy as np

from wiretap3.rationallp import feasible_eq

Row = tuple[list[Fraction], Fraction]  # a . x <= b

_CHUNK = 4096  # subsets per stacked float prescreen
_HADAMARD_MAX = 2.0 ** 30  # below this, int64 Bareiss products stay below 2**61


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


def _int_scaled(rows: list[Row], dim: int):
    """Each row a.x <= b in integers, and its coefficients as int64.

    Returns ``(int_rows, A, norms)``: ``int_rows[i] = (a_i, bd, bn)`` with int
    ``a_i`` such that a.x <= b iff (a_i . X) * bd <= bn * D for x = X / D;
    ``A[i]`` is ``a_i`` and ``norms[i]`` its norm, at least 1, where every
    entry is below ``_HADAMARD_MAX`` (elsewhere the norm is inf).
    """
    int_rows = []
    A = np.zeros((len(rows), dim), np.int64)
    norms = np.full(len(rows), np.inf)
    for i, (a, b) in enumerate(rows):
        den = lcm(*(v.denominator for v in a))
        ints = [v.numerator * (den // v.denominator) for v in a]
        int_rows.append((ints, b.denominator, b.numerator * den))
        if all(abs(v) < _HADAMARD_MAX for v in ints):
            A[i] = ints
            norms[i] = max(hypot(*ints), 1.0)
    return int_rows, A, norms


def singular_stack(M: np.ndarray) -> np.ndarray:
    """Exact singularity of each matrix in an int64 stack ``(B, n, n)``.

    Fraction-free (Bareiss) elimination with the same pivots as
    ``solve_square``: every entry it forms is a minor, so every product
    stays below 2**61 when each matrix's Hadamard bound (the product of its
    row norms, each at least 1) is below ``_HADAMARD_MAX``.  The caller
    checks that bound.  A matrix is singular iff a column has no pivot.
    """
    M = M.copy()
    at = np.arange(M.shape[0])
    singular = np.zeros(M.shape[0], bool)
    prev = np.ones(M.shape[0], np.int64)
    for k in range(M.shape[1]):
        nonzero = M[:, k:, k] != 0
        singular |= ~nonzero.any(axis=1)
        piv = k + nonzero.argmax(axis=1)
        M[at, k], M[at, piv] = M[at, piv], M[at, k]
        p = M[:, k, k]
        below = M[:, k + 1:]
        M[:, k + 1:] = (p[:, None, None] * below
                        - below[:, :, k:k + 1] * M[:, k:k + 1]) // prev[:, None, None]
        prev = np.where(p != 0, p, 1)
    return singular


def _slack(A: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """How far float solutions ``x`` (S, dim) may exceed each row and still go to the
    exact check: relative to the row's scale at x, so rounding in a row scaled by
    10**12 does not drop a true vertex."""
    return 1e-6 * (np.abs(x) @ np.abs(A).T + np.abs(b) + 1)


def enumerate_vertices(rows: list[Row], dim: int) -> list[tuple[Fraction, ...]]:
    """All vertices of {x: a_i . x <= b_i}; the system must be bounded.

    The float prescreen runs on a chunk of subsets at a time: one stacked
    ``det``, then one stacked ``solve`` over the well-conditioned subsets
    (each matrix goes through the same LAPACK routine as a single call),
    whose solutions pass if they satisfy every row within ``_slack``.
    Candidates within the Hadamard bound that are exactly singular, which
    ``solve_square`` would reject, are dropped by one ``singular_stack``;
    the rest are then verified exactly in their enumeration order.
    """
    A = np.array([[float(c) for c in r[0]] for r in rows])
    b = np.array([float(r[1]) for r in rows])
    int_rows, A_int, norms = _int_scaled(rows, dim)
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
            candidate[solved] = np.all(x @ A.T <= b + _slack(A, b, x), axis=1)
        except np.linalg.LinAlgError:   # a singular matrix: verify the chunk exactly
            candidate[:] = True
        # exact verification (or exact solve for ill-conditioned subsets)
        cand = idx[candidate]
        bounded = np.flatnonzero(np.prod(norms[cand], axis=1) < _HADAMARD_MAX)
        keep = np.ones(len(cand), bool)
        keep[bounded] = ~singular_stack(A_int[cand[bounded]])
        for subset in cand[keep].tolist():
            Me = [[rows[i][0][j] for j in range(dim)] for i in subset]
            be = [rows[i][1] for i in subset]
            xe = solve_square(Me, be)
            if xe is None:
                continue
            D = lcm(*(v.denominator for v in xe))
            X = [v.numerator * (D // v.denominator) for v in xe]
            if any(sum(map(mul, a, X)) * bd > bn * D for a, bd, bn in int_rows):
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
