"""The vertex oracle's chunked singularity test against its exact solver.

``singular_stack`` must call a matrix singular exactly when ``solve_square``
returns None, and ``enumerate_vertices`` must return the vertices, in the
same order, that it returned when every candidate went to ``solve_square``.
Its vertex set must equal exact solving of every subset, also where a row
is scaled by 10**12.
"""

import random
from fractions import Fraction as F
from itertools import combinations, islice

import numpy as np

from vertex_oracle import (
    _CHUNK, _HADAMARD_MAX, _slack, enumerate_vertices, singular_stack, solve_square,
)


def _random_square(rng, n):
    kind = rng.randrange(4)
    M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    if kind == 1 and n > 1:     # a row combined from two others: singular
        i, j, k = rng.sample(range(n), 3) if n > 2 else (0, 1, 1)
        M[i] = [rng.randint(-2, 2) * a + rng.randint(-2, 2) * b for a, b in zip(M[j], M[k])]
    elif kind == 2:             # a zero row or a zero column
        if rng.random() < 0.5:
            M[rng.randrange(n)] = [0] * n
        else:
            c = rng.randrange(n)
            for row in M:
                row[c] = 0
    elif kind == 3:             # sparse, many zero pivots
        M = [[v if rng.random() < 0.3 else 0 for v in row] for row in M]
    return M


def test_singular_stack_matches_solve_square():
    rng = random.Random(404)
    for n in (1, 2, 3, 4, 5):
        mats = [_random_square(rng, n) for _ in range(400)]
        got = singular_stack(np.array(mats, dtype=np.int64).reshape(len(mats), n, n))
        want = [solve_square([[F(v) for v in row] for row in M], [F(0)] * n) is None
                for M in mats]
        assert got.tolist() == want
        assert 50 < sum(want) < 350, n


def test_singular_stack_at_the_hadamard_bound():
    # entries near 2**13 in a 2x2 keep the Hadamard bound within 4x of the cap;
    # the minors and their products are exact in int64
    rng = random.Random(9)
    big = 2 ** 13
    mats, want = [], []
    for _ in range(200):
        a, b = rng.randint(-big, big), rng.randint(-big, big)
        s = rng.choice([0, 1])
        M = [[a, b], [2 * a + s, 2 * b]] if rng.random() < 0.5 else [[a, b], [3 * a, 3 * b]]
        assert np.prod([max(np.hypot(*r), 1.0) for r in M]) < _HADAMARD_MAX
        mats.append(M)
        want.append(solve_square([[F(v) for v in r] for r in M], [F(0), F(0)]) is None)
    got = singular_stack(np.array(mats, dtype=np.int64))
    assert got.tolist() == want and 0 < sum(want) < 200


# the enumeration as it was before singular_stack and the integer feasibility
# check, kept verbatim but for the prescreen's slack: every candidate goes to
# solve_square, and feasibility is checked in Fractions
def reference_enumerate_vertices(rows, dim):
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
            candidate[solved] = np.all(x @ A.T <= b + _slack(A, b, x), axis=1)
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


def boxed_systems(seed, count=40):
    """(rows, dim) of seeded random systems in a box, with a row repeated, scaled
    by 2 and scaled by 10**12 (beyond the Hadamard bound)."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(1, 3)
        rows = [([F(rng.randint(-2, 2), rng.choice([1, 1, 2, 3])) for _ in range(dim)],
                 F(rng.randint(-3, 6), rng.randint(1, 2))) for _ in range(rng.randint(1, 5))]
        for j in range(dim):
            rows += [([F(int(i == j)) for i in range(dim)], F(5)),
                     ([F(-int(i == j)) for i in range(dim)], F(5))]
        rows.append(([2 * v for v in rows[0][0]], 2 * rows[0][1]))
        rows.append(([F(10 ** 12) * v for v in rows[1][0]], F(10 ** 12) * rows[1][1]))
        yield rows, dim


def exact_vertices(rows, dim):
    """Every subset solved exactly, its solution kept if it satisfies every row."""
    found = set()
    for subset in combinations(range(len(rows)), dim):
        x = solve_square([rows[i][0] for i in subset], [rows[i][1] for i in subset])
        if x is not None and all(sum(a * v for a, v in zip(r, x)) <= beta for r, beta in rows):
            found.add(tuple(x))
    return found


def test_enumerate_vertices_matches_the_reference():
    for rows, dim in boxed_systems(12):
        assert enumerate_vertices(rows, dim) == reference_enumerate_vertices(rows, dim)


def test_enumerate_vertices_finds_every_exact_vertex():
    # an absolute 1e-6 prescreen dropped true vertices of 10 of these 40 systems
    for seed in (12, 13):
        for rows, dim in boxed_systems(seed):
            got = enumerate_vertices(rows, dim)
            assert len(got) == len(set(got)) and set(got) == exact_vertices(rows, dim)
