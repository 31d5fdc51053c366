"""Exact LP layer: the fraction-free simplex against the Fraction tableau it
replaced (``reference_simplex``), unbounded rays and Farkas certificates.

Arithmetic is exact on both sides, so status, x and value must be equal,
with no tolerance.  The reference returns no point for UNBOUNDED; there the
new point and ray are checked against A, b and c directly.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import reference_simplex as ref
from wiretap3 import fixture_runs, fme, rationallp
from wiretap3.rationallp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    implied_by,
    simplex_min_eq,
    verify_certificate,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def _dot(u, v):
    return sum((F(a) * F(b) for a, b in zip(u, v)), F(0))


def _check_ray(A, b, c, res):
    assert all(v >= 0 for v in res.x) and all(v >= 0 for v in res.ray)
    for row, bi in zip(A, b):
        assert _dot(row, res.x) == F(bi)
        assert _dot(row, res.ray) == 0
    assert _dot(c, res.ray) < 0


def _same(A, b, c) -> str:
    want = ref.simplex_min_eq(A, b, c)
    got = simplex_min_eq(A, b, c)
    assert (got.status, got.value) == (want.status, want.value)
    if want.status == OPTIMAL:
        assert got.x == want.x
    if got.status == UNBOUNDED:
        _check_ray(A, b, c, got)
    return got.status


def _entry(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return F(rng.randint(-6, 6), rng.randint(1, 4))
    return rng.choice([-1.5, -0.25, 0.0, 0.1, 0.5, 1.0, 2.75])


def test_random_lps_match_reference():
    rng = random.Random(20091)
    seen = set()
    for _ in range(400):
        m, n = rng.randint(1, 5), rng.randint(1, 8)
        A = [[_entry(rng) for _ in range(n)] for _ in range(m)]
        b = [_entry(rng) for _ in range(m)]
        c = [_entry(rng) for _ in range(n)]
        seen.add(_same(A, b, c))
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_degenerate_lps_match_reference():
    # Feasibility LPs (c = 0) with b = A x0 at a sparse x0: the vertices are
    # degenerate, so the phase-1 pivot path, ratio-test ties included,
    # decides which x is returned.
    rng = random.Random(1)
    for _ in range(60):
        m = rng.randint(8, 14)
        n = rng.randint(2 * m, 3 * m)
        A = [[rng.choice([-1, 0, 0, 1, 1, 2]) for _ in range(n)] for _ in range(m)]
        x0 = [rng.choice([0, 0, 0, 0, 1]) for _ in range(n)]
        assert _same(A, [_dot(row, x0) for row in A], [0] * n) == OPTIMAL
    # b = 0 makes every pivot degenerate; some of these run past 30
    # stalled pivots into Bland's rule.
    rng = random.Random(5)
    seen = set()
    for _ in range(12):
        m = rng.randint(11, 14)
        n = rng.randint(2 * m, 3 * m)
        A = [[rng.choice([-2, -1, 0, 0, 0, 1, 1, 2]) for _ in range(n)] for _ in range(m)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        seen.add(_same(A, [0] * m, c))
    assert seen == {OPTIMAL, UNBOUNDED}


def test_dependent_rows_match_reference():
    # extra rows are combinations of the others: artificials stay basic at
    # zero after phase 1, and are driven out or their rows dropped
    rng = random.Random(77)
    seen = set()
    for trial in range(120):
        m0, n = rng.randint(1, 4), rng.randint(2, 7)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m0)]
        x0 = [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n)]
        b = [_dot(row, x0) for row in A]
        for _ in range(rng.randint(1, 3)):
            w = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(m0)]
            A.append([sum((wi * row[j] for wi, row in zip(w, A)), F(0)) for j in range(n)])
            b.append(sum((wi * bi for wi, bi in zip(w, b)), F(0)))
        if trial % 4 == 0:
            b[-1] += 1  # inconsistent dependent row
        order = list(range(len(A)))
        rng.shuffle(order)
        c = [rng.randint(-2, 3) for _ in range(n)]
        seen.add(_same([A[i] for i in order], [b[i] for i in order], c))
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_negative_rhs_and_entry_types_agree():
    # one LP written with int, Fraction and float entries, negative b rows
    A = [[1, -2, 1, 0], [-1, 1, 0, 1], [2, 0, -1, 1]]
    b = [-3, 2, 3]  # A x = b at x = (1, 2, 0, 1)
    c = [1, 3, 1, 2]
    results = []
    for conv in (int, F, float):
        A_t = [[conv(v) for v in row] for row in A]
        b_t, c_t = [conv(v) for v in b], [conv(v) for v in c]
        assert _same(A_t, b_t, c_t) == OPTIMAL
        res = simplex_min_eq(A_t, b_t, c_t)
        results.append((res.x, res.value))
    assert results[0] == results[1] == results[2]
    mixed = ([[F(1, 3), -0.5], [-1, F(2, 7)]], [-0.5, F(-13, 14)], [1, 1])
    assert _same(*mixed) == OPTIMAL
    assert simplex_min_eq(*mixed).x == [F(3, 2), 2]


def test_fixture_lps_match_reference(monkeypatch):
    recorded = []

    def reference(A, b, c):
        res = ref.simplex_min_eq(A, b, c)
        recorded.append(([list(r) for r in A], list(b), list(c), res))
        return res

    monkeypatch.setattr(rationallp, "simplex_min_eq", reference)
    for name in fixture_runs.fixture_names():
        assert fixture_runs.run_fixture(name).ok, name
    monkeypatch.undo()
    assert len(recorded) > 400
    for A, b, c, want in recorded:
        got = simplex_min_eq(A, b, c)
        assert (got.status, got.value) == (want.status, want.value)
        if want.status == OPTIMAL:
            assert got.x == want.x


def test_infeasible_premise_gets_a_real_certificate():
    # x <= 0 and x >= 1 imply x <= -5; the ray of the unbounded LP reaches it
    rows = [([1], 0), ([-1], -1)]
    y = implied_by(rows, ([1], -5))
    assert y == [6, 5]
    verify_certificate(rows, ([1], -5), y)
    assert implied_by(rows, ([1], 0)) == [1, 0]


def test_certificates_of_a_fixture_are_all_verified(monkeypatch):
    verified, issued = [], []
    real_verify, real_implied = rationallp.verify_certificate, rationallp.implied_by

    def verify(rows, target, y):
        real_verify(rows, target, y)
        verified.append(y)

    def counting(rows, target):
        y = real_implied(rows, target)
        if y is not None:
            issued.append(y)
        return y

    monkeypatch.setattr(rationallp, "verify_certificate", verify)
    monkeypatch.setattr(fme, "implied_by", counting)
    monkeypatch.setattr(fixture_runs, "implied_by", counting)
    assert fixture_runs.run_fixture("rate_split").ok
    assert issued and verified == issued


ROWS = [([1, 0], 2), ([0, 1], 3), ([1, 1], 4)]
TARGET = ([2, 1], 7)


@pytest.mark.parametrize("y, match", [
    ([0, -1, 2], "negative"),       # sums and bound still hold
    ([2, 0, 1], "coefficients"),
    ([1, 0], "rows"),
])
def test_verify_rejects_tampered_multipliers(y, match):
    assert implied_by(ROWS, TARGET) == [1, 0, 1]
    with pytest.raises(ValueError, match=match):
        verify_certificate(ROWS, TARGET, y)


def test_verify_rejects_a_bound_too_tight():
    verify_certificate(ROWS, ([2, 1], 6), [1, 0, 1])
    with pytest.raises(ValueError, match="bound"):
        verify_certificate(ROWS, ([2, 1], 5), [1, 0, 1])


SPARSE_ROWS = [([1, 0, 0, 0], 2), ([0, 0, F(1, 2), 0], 3), ([0, 1, 0, 0], 1)]
SPARSE_TARGET = ([1, 0, 2, 0], 14)


@pytest.mark.parametrize("target, y", [
    (SPARSE_TARGET, [1, 5, 0]),         # one coordinate off, the zeros beside it right
    (SPARSE_TARGET, [1, 4, 1]),         # a zero coordinate of the target reached
    (([1, 0, 2, 1], 14), [1, 4, 0]),    # a coordinate no row has
])
def test_verify_rejects_a_wrong_coordinate_among_zeros(target, y):
    verify_certificate(SPARSE_ROWS, SPARSE_TARGET, [1, 4, 0])
    with pytest.raises(ValueError, match="coefficients"):
        verify_certificate(SPARSE_ROWS, target, y)


def test_verify_rejects_tampered_multipliers_under_O():
    code = (
        "from wiretap3.rationallp import verify_certificate\n"
        f"rows, target = {ROWS!r}, {TARGET!r}\n"
        "try:\n"
        "    verify_certificate(rows, target, [0, -1, 2])\n"
        "except ValueError:\n"
        "    print('rejected', __debug__)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env,
        check=True,
    )
    assert out.stdout.split() == ["rejected", "False"]
