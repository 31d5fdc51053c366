"""Exact LP layer: the fraction-free simplex against the Fraction tableau it
replaced (``reference_simplex``), premises converted once and integer
targets against the per-call conversion of rational rows and rational
``(c, delta)`` pairs (``reference_implied``), unbounded rays and Farkas
certificates.

Arithmetic is exact on both sides, so status, x and value must be equal,
with no tolerance.  The reference returns no point for UNBOUNDED; there the
new point and ray are checked against A, b and c directly.
"""

import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

import reference_implied
import reference_simplex as ref
from wiretap3 import fixture_runs, fme, rationallp
from wiretap3.rationallp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    IntRows,
    Premises,
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
    """Compare one LP with the reference; an ``IntRows`` ``A`` goes to the
    reference and the ray check as its rational values."""
    rational = [[F(v, d) for v in r] for r, d in A] if isinstance(A, IntRows) else A
    want = ref.simplex_min_eq(rational, b, c)
    got = simplex_min_eq(A, b, c)
    assert (got.status, got.value) == (want.status, want.value)
    if want.status == OPTIMAL:
        assert got.x == want.x
    if got.status == UNBOUNDED:
        _check_ray(rational, b, c, got)
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


def _pivot_stats(monkeypatch) -> Counter:
    """Count, over every later ``_pivot`` call: pivots, unit pivots (the
    pivot row ends over den 1), updated rows left with a factor in common
    with their den, pivots on a column the Dantzig scan would not pick
    (Bland's rule after 30 stalls), and the most bits of any tableau entry
    or den."""
    stats = Counter()
    real = rationallp._pivot

    def record(tab, den, r, e):
        obj = tab[-1]   # the objective row, whose argmin Dantzig takes
        stats["bland"] += obj[e] < 0 and obj[e] != min(obj[:-1])
        updated = [i for i, row in enumerate(tab) if row[e] and i != r]
        real(tab, den, r, e)
        stats["pivots"] += 1
        stats["unit"] += den[r] == 1
        stats["unreduced"] += sum(gcd(den[i], *tab[i]) > 1 for i in updated)
        bits = max(max(abs(v).bit_length() for row in tab for v in row), max(den).bit_length())
        stats["bits"] = max(stats["bits"], bits)

    monkeypatch.setattr(rationallp, "_pivot", record)
    return stats


def test_unit_pivots_and_unreduced_rows_match_reference(monkeypatch):
    # Each equation of a system with entries in {-1, 0, 1} is divided by a
    # den in 2..6 (numerators over den as ``IntRows``, b over the same den):
    # most pivots are unit pivots, which leave the rows they update over
    # their den, often sharing a factor with it.
    stats = _pivot_stats(monkeypatch)
    rng = random.Random(23)

    def lp(m, n, b):
        A = [[rng.choice([-1, 0, 0, 1]) for _ in range(n)] for _ in range(m)]
        dens = [rng.randint(2, 6) for _ in range(m)]
        return IntRows(zip(A, dens)), [F(bi, d) for bi, d in zip(b(A), dens)]

    seen = set()
    for _ in range(300):
        m, n = rng.randint(2, 8), rng.randint(3, 14)
        x0 = [rng.choice([0, 0, 1, 2]) for _ in range(n)]
        A, b = lp(m, n, lambda A: [_dot(row, x0) + rng.choice([0, 0, 0, 1]) for row in A])
        seen.add(_same(A, b, [rng.choice([-1, 0, 1]) for _ in range(n)]))
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    assert 2 * stats["unit"] > stats["pivots"] and stats["unreduced"] > 0
    # b = 0 makes every pivot degenerate; these LPs run into Bland's rule
    for _ in range(12):
        m = rng.randint(11, 14)
        n = rng.randint(2 * m, 3 * m)
        A, b = lp(m, n, lambda A: [0] * m)
        seen.add(_same(A, b, [rng.randint(-3, 3) for _ in range(n)]))
    assert stats["bland"] > 0


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
        assert isinstance(A, IntRows)   # every fixture LP comes converted
        A = [[F(v, d) for v in r] for r, d in A]
        res = ref.simplex_min_eq(A, b, c)
        recorded.append((A, list(b), list(c), res))
        return res

    monkeypatch.setattr(rationallp, "simplex_min_eq", reference)
    for name in fixture_runs.fixture_names():
        assert fixture_runs.run_fixture(name).ok, name
    monkeypatch.undo()
    assert len(recorded) == 412
    for A, b, c, want in recorded:
        got = simplex_min_eq(A, b, c)
        assert (got.status, got.value) == (want.status, want.value)
        if want.status == OPTIMAL:
            assert got.x == want.x


def test_fixture_tableaus_stay_small(monkeypatch):
    # unit pivots leave rows unreduced; over the 412 fixture LPs no tableau
    # entry or den may pass 16 bits (5 when unit pivots stopped reducing)
    stats = _pivot_stats(monkeypatch)
    for name in fixture_runs.fixture_names():
        assert fixture_runs.run_fixture(name).ok, name
    assert stats["pivots"] == 4700
    assert stats["bits"] <= 16


def _rows(rows):
    """Rational rows ``(a, beta)`` as integer rows ``(nums, den)``."""
    return IntRows.of([*a, beta] for a, beta in rows)


def _premises(rows):
    """Rational rows ``(a, beta)`` as ``Premises``."""
    return Premises(_rows(rows))


def _target(c, delta):
    """The rational target c.x <= delta as the integer row ``implied_by`` takes."""
    return _rows([(c, delta)])[0]


def _rational(rows):
    """The rational rows ``(a, beta)`` that integer rows ``(nums, den)`` stand for."""
    return [([F(v, d) for v in nums[:-1]], F(nums[-1], d)) for nums, d in rows]


@pytest.fixture(autouse=True)
def _reference_checks_integer_rows(monkeypatch):
    # reference_implied checks its certificates with the program's
    # verify_certificate, which takes integer rows and an integer target
    monkeypatch.setattr(reference_implied, "verify_certificate", lambda rows, target, y:
                        verify_certificate(_rows(rows), _target(*target), y))


def _same_lp(rows, target):
    """Solve the implication LP of ``rows`` (rational rows or ``Premises``) and
    the integer ``target`` both ways: the reference takes the rational rows
    and the rational pair ``(c, delta)`` they stand for."""
    premises = rows if isinstance(rows, Premises) else _premises(rows)
    y = implied_by(premises, target)
    rational = _rational(premises)
    (c, delta), = _rational([target])
    assert y == reference_implied.implied_by(rational, (c, delta))
    if not rows:   # no LP: the zero-width matrix would lose the target's rows
        return "no LP", y is not None
    cost = [beta for _, beta in rational]
    A = [list(col) for col in zip(*(a for a, _ in rational))]
    got = simplex_min_eq(premises.matrix, list(c), cost)
    want = reference_implied.simplex_min_eq(A, list(c), cost)
    assert (got.status, got.x, got.value, got.ray) == (want.status, want.x, want.value, want.ray)
    return got.status, y is not None


def test_fixture_implications_match_per_call_conversion(monkeypatch):
    # every (premise, target) pair of the six fixtures: region_equal's
    # directions, remove_redundant's subsets, rate_split's numbered rows and
    # the infeasibility LPs
    pairs = []

    def recording(rows, target):
        pairs.append((rows, target))
        return implied_by(rows, target)

    with monkeypatch.context() as m:
        m.setattr(fme, "implied_by", recording)
        for name in fixture_runs.fixture_names():
            assert fixture_runs.run_fixture(name).ok, name
    assert len(pairs) == 412
    assert all(isinstance(rows, Premises) for rows, _ in pairs)
    # every target is an integer row over a positive int denominator, no Fraction in it
    assert all(den > 0 and all(type(v) is int for v in (*nums, den)) for _, (nums, den) in pairs)
    assert any(den > 1 for _, (_, den) in pairs)
    outcomes = {_same_lp(rows, target) for rows, target in pairs}
    assert {(OPTIMAL, True), (OPTIMAL, False), (INFEASIBLE, False)} <= outcomes


def _premise_entry(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-3, 3)
    if kind == 2:
        return F(rng.randint(-2, 2))
    return F(rng.randint(-7, 7), rng.choice([2, 3, 4, 6]))


def _random_premises(rng, k, dim):
    rows = [([_premise_entry(rng) for _ in range(dim)], _premise_entry(rng)) for _ in range(k)]
    if k and rng.random() < 0.2:
        rows[rng.randrange(k)] = ([0] * dim, F(rng.randint(-3, 3), 2))   # a zero row
    if k and rng.random() < 0.2:   # a row and its negation, pushed apart: infeasible
        a, beta = rows[rng.randrange(k)]
        rows.append(([-v for v in a], -beta - F(1, rng.randint(1, 3))))
    return rows


def _random_target(rng, rows, dim):
    if rows and rng.random() < 0.6:   # a nonnegative combination, often implied
        y = [F(rng.randint(0, 3), rng.randint(1, 2)) * (rng.random() < 0.5) for _ in rows]
        c = [sum((yi * a[j] for yi, (a, _) in zip(y, rows)), F(0)) for j in range(dim)]
        delta = sum((yi * beta for yi, (_, beta) in zip(y, rows)), F(0))
        return c, delta + rng.choice([F(-1), F(-1, 2), 0, F(1, 3), 2])
    return [_premise_entry(rng) for _ in range(dim)], F(rng.randint(-8, 8), rng.randint(1, 3))


def test_random_implications_match_per_call_conversion():
    rng = random.Random(1717)
    outcomes = set()
    for _ in range(300):
        dim, k = rng.randint(1, 5), rng.randint(0, 7)
        rows = _random_premises(rng, k, dim)
        target = _target(*_random_target(rng, rows, dim))
        outcomes.add(_same_lp(rows, target))
        # order-preserving subsets with gaps share the full set's conversion
        full = _premises(rows)
        for _ in range(3):
            idx = sorted(rng.sample(range(len(rows)), rng.randint(0, len(rows))))
            sub = full.take(idx)
            assert _rational(sub) == [rows[i] for i in idx]
            assert [[F(v, d) for v in r] for r, d in sub.matrix] == [
                [F(rows[i][0][j]) for i in idx] for j in range(dim * bool(rows))]
            outcomes.add(_same_lp(sub, target))
    # "no LP": an empty premise, given or taken as a subset
    assert {(OPTIMAL, True), (OPTIMAL, False), (UNBOUNDED, True), (INFEASIBLE, False),
            ("no LP", True), ("no LP", False)} <= outcomes


def test_random_integer_targets_match_rational_pairs():
    # a target over a denominator above 1 is solved on its numerators, which
    # scales x, the value, the bound and an unbounded ray's reach by den
    rng = random.Random(2022)
    outcomes, scaled = set(), 0
    for _ in range(400):
        dim, k = rng.randint(1, 4), rng.randint(0, 6)
        rows = _random_premises(rng, k, dim)
        c, delta = _random_target(rng, rows, dim)
        q = F(1, rng.choice([2, 3, 6]))   # the same inequality, scaled by q
        target = _target([q * v for v in c], q * delta)
        outcome = _same_lp(rows, target)
        if target[1] > 1:
            scaled += 1
            outcomes.add(outcome)
    assert scaled >= 300
    assert {(OPTIMAL, True), (OPTIMAL, False), (UNBOUNDED, True), (INFEASIBLE, False),
            ("no LP", True), ("no LP", False)} <= outcomes


RAGGED = [([1, 1], 0), ([1], 0)]   # x1 + x2 <= 0 does not imply x1 <= 0


def test_implied_by_rejects_ragged_rows():
    with pytest.raises(ValueError, match=r"lengths \[1, 2\], target of length 1"):
        implied_by(_premises(RAGGED), _target([1], 0))
    with pytest.raises(ValueError, match=r"lengths \[2\], target of length 3"):
        implied_by(_premises(RAGGED[:1]), _target([1, 1, 0], 0))


def test_taken_empty_premises_keep_the_width():
    # an empty subset still knows its parent's row length; remove_redundant
    # on a one-row system tests that row against such a subset
    vecs = _premises(RAGGED[:1])
    assert implied_by(vecs.take([]), _target([0, 0], 0)) == []
    with pytest.raises(ValueError, match=r"lengths \[2\], target of length 1"):
        implied_by(vecs.take([]), _target([1], 2))


def test_simplex_rejects_a_ragged_matrix():
    for A in ([[1, 1], [1]], IntRows.of([[1, 1], [1]]), [[1, 1, 0], [1, 0]]):
        with pytest.raises(ValueError, match="ragged constraint matrix"):
            simplex_min_eq(A, [1, 1], [0, 0])


def test_verify_rejects_ragged_rows():
    with pytest.raises(ValueError, match="length 2, target of length 1"):
        verify_certificate(_rows(RAGGED[:1]), _target([1], 0), [1])
    with pytest.raises(ValueError, match="length 1, target of length 2"):
        verify_certificate(_rows([([1, 0], 0), ([1], 0)]), _target([1, 0], 0), [1, 0])   # even unused


def test_infeasible_premise_gets_a_real_certificate():
    # x <= 0 and x >= 1 imply x <= -5; the ray of the unbounded LP reaches it
    rows = _premises([([1], 0), ([-1], -1)])
    y = implied_by(rows, _target([1], -5))
    assert y == [6, 5]
    verify_certificate(rows, _target([1], -5), y)
    assert implied_by(rows, _target([1], 0)) == [1, 0]
    assert implied_by(rows, _target([F(1, 2)], F(-5, 2))) == [3, F(5, 2)]   # x/2 <= -5/2


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
    assert fixture_runs.run_fixture("rate_split").ok
    assert issued and verified == issued


ROWS = _rows([([1, 0], 2), ([0, 1], 3), ([1, 1], 4)])
TARGET = _target([2, 1], 7)


@pytest.mark.parametrize("y, match", [
    ([0, -1, 2], "negative"),       # sums and bound still hold
    ([2, 0, 1], "coefficients"),
    ([1, 0], "rows"),
])
def test_verify_rejects_tampered_multipliers(y, match):
    assert implied_by(Premises(ROWS), TARGET) == [1, 0, 1]
    with pytest.raises(ValueError, match=match):
        verify_certificate(ROWS, TARGET, y)


def test_verify_rejects_a_bound_too_tight():
    verify_certificate(ROWS, _target([2, 1], 6), [1, 0, 1])
    with pytest.raises(ValueError, match="bound"):
        verify_certificate(ROWS, _target([2, 1], 5), [1, 0, 1])


@pytest.mark.parametrize("target, match", [
    (([2, 1], 7), "target of length 1"),            # a rational (c, delta) pair
    (([2, 1], F(7, 2)), "target of length 1"),
    (([2, 1], 0), "denominator 0 is not positive"),
    (([2, 1, 7], 0), "denominator 0 is not positive"),
    (([-2, -1, -7], -1), "denominator -1 is not positive"),
], ids=["pair", "pair-fraction-delta", "pair-zero-delta", "zero-den", "negative-den"])
def test_stale_pairs_and_nonpositive_denominators_are_rejected(target, match):
    for call in (lambda: implied_by(Premises(ROWS), target),
                 lambda: verify_certificate(ROWS, target, [1, 0, 1])):
        with pytest.raises(ValueError, match=match):
            call()


SPARSE_ROWS = _rows([([1, 0, 0, 0], 2), ([0, 0, F(1, 2), 0], 3), ([0, 1, 0, 0], 1)])
SPARSE_TARGET = _target([1, 0, 2, 0], 14)


@pytest.mark.parametrize("target, y", [
    (SPARSE_TARGET, [1, 5, 0]),                 # one coordinate off, the zeros beside it right
    (SPARSE_TARGET, [1, 4, 1]),                 # a zero coordinate of the target reached
    (_target([1, 0, 2, 1], 14), [1, 4, 0]),     # a coordinate no row has
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


def test_ragged_rows_rejected_under_O():
    code = (
        "from wiretap3.rationallp import Premises, implied_by, verify_certificate\n"
        f"rows = {_rows(RAGGED)!r}\n"
        "for call in (lambda: implied_by(Premises(rows), ([1, 0], 1)),\n"
        "             lambda: verify_certificate(rows[:1], ([1, 0], 1), [1])):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        print('rejected', __debug__)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env,
        check=True,
    )
    assert out.stdout.split() == ["rejected", "False"] * 2
