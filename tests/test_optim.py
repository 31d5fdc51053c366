"""Lockstep multi-start search against the sequential search it replaced.

``reference_search`` is the old search, one start after another with one
scalar objective call per candidate.  The lockstep search must take every
start down the same accept/reject path: the same evaluation counts, the
same best start, the same example trace counters, and values equal to
1e-12.
"""

import numpy as np
import pytest

import reference_search
from wiretap3 import bounds, fig1, optim, orderings
from wiretap3.bounds import AuxSpec, BroadcastChannels, maximize
from wiretap3.optim import NoAdmissiblePointError, SearchBudget, per_point, search_factored
from wiretap3.probability import bsc, erasure_channel

TOL = 1e-12


def _scalar(objective):
    """A batched objective as the scalar objective the reference expects."""

    def fn(params):
        val = objective([p[None] for p in params])[0]
        return None if np.isnan(val) else float(val)

    return fn


def _reference(objective, shapes, budget, extra_starts=()):
    return reference_search.search_factored(
        _scalar(objective), shapes, budget, extra_starts=extra_starts
    )


def _both(monkeypatch, module, call):
    """``call()`` with the lockstep search, then with the reference.

    Returns, for each, the call's result and the SearchResults of every
    search it ran through ``module.search_factored``.
    """
    out = []
    for search in (optim.search_factored, _reference):
        seen = []

        def recording(*args, _search=search, **kwargs):
            seen.append(_search(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(module, "search_factored", recording)
        out.append((call(), seen))
    return out


def _assert_same_search(got, want):
    assert got.evaluations == want.evaluations
    assert got.best_restart == want.best_restart
    assert got.restarts == want.restarts
    assert abs(got.value - want.value) <= TOL
    assert len(got.params) == len(want.params)
    for a, b in zip(got.params, want.params):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= TOL


def _assert_same_searches(got, want):
    assert len(got) == len(want) >= 1
    for a, b in zip(got, want):
        _assert_same_search(a, b)


# -- the example objective -------------------------------------------------


def _example_stack(restarts, seed):
    shapes = [(1, 3), (3, 4), (4, 2)]
    starts = []
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        starts.append([rng.dirichlet(np.ones(c), size=r) for r, c in shapes])
    return starts


def _example_objective(tables):
    iy, iz = fig1.second_component_measures(tables)
    return fig1.rck_upper_bound_objective(iy, iz)


def test_refine_rows_matches_each_start_refined_alone():
    starts = _example_stack(restarts=5, seed=9)
    stacked = [np.stack([s[k] for s in starts]) for k in range(3)]
    values, tables, evals = optim.refine_rows(_example_objective, stacked, 60)
    per_start = [
        reference_search.refine_rows(_scalar(_example_objective), s, 60) for s in starts
    ]
    # the starts stop early at different sweeps, so the masks are exercised
    assert len({n for _, _, n in per_start}) > 1
    assert evals == sum(n for _, _, n in per_start)
    for b, (val, params, _) in enumerate(per_start):
        assert abs(values[b] - val) <= TOL
        for k in range(3):
            assert np.abs(tables[k][b] - params[k]).max() <= TOL


@pytest.mark.parametrize("restarts,seed", [(6, 3), (1, 20260810)])
def test_example_report_matches_reference(monkeypatch, restarts, seed):
    budget = SearchBudget(restarts=restarts, seed=seed, refine_sweeps=60)
    (got, got_runs), (want, want_runs) = _both(
        monkeypatch, fig1, lambda: fig1.reproduce_example(budget)
    )
    _assert_same_searches(got_runs, want_runs)
    assert got.evaluations == want.evaluations
    assert got.identity_points_checked == want.identity_points_checked
    assert abs(got.identity_max_deviation - want.identity_max_deviation) <= TOL
    assert abs(got.rck_best - want.rck_best) <= TOL


def test_example_trace_counts_zero_leakage_points(monkeypatch):
    # a start with V2 independent of X2 leaks nothing to Z2, so the identity
    # trace sees points, and both searches must count the same ones
    flat = [np.full((1, 3), 1 / 3), np.full((3, 4), 1 / 4), np.full((4, 2), 1 / 2)]
    budget = SearchBudget(restarts=2, seed=1, refine_sweeps=6)
    reports, runs = [], []
    for search in (optim.search_factored, _reference):

        def with_flat_start(objective, shapes, budget, _search=search):
            runs.append(_search(objective, shapes, budget, extra_starts=[flat]))
            return runs[-1]

        monkeypatch.setattr(fig1, "search_factored", with_flat_start)
        reports.append(fig1.reproduce_example(budget))
    got, want = reports
    assert got.identity_points_checked > 0
    assert got.identity_points_checked == want.identity_points_checked
    assert abs(got.identity_max_deviation - want.identity_max_deviation) <= TOL
    _assert_same_search(*runs)


# -- scalar objectives through per_point -----------------------------------


def _partly_inadmissible(params):
    """Smooth and nonconvex where p(0) >= 0.3, inadmissible below."""
    a, b = params
    if a[0, 0] < 0.3:
        return None
    return float(np.sin(5 * a[0, 1]) + a[0, 0] * b[0, 1] - (b[1, 0] - 0.4) ** 2)


SHAPES = [(1, 3), (2, 2)]


def test_partly_inadmissible_objective_matches_reference():
    bad_start = [np.array([[0.1, 0.45, 0.45]]), np.full((2, 2), 0.5)]
    good_start = [np.array([[0.5, 0.25, 0.25]]), np.full((2, 2), 0.5)]
    budget = SearchBudget(restarts=8, seed=2, refine_sweeps=60)
    extra = [bad_start, good_start]
    assert _partly_inadmissible(bad_start) is None
    got = search_factored(per_point(_partly_inadmissible), SHAPES, budget, extra_starts=extra)
    want = reference_search.search_factored(
        _partly_inadmissible, SHAPES, budget, extra_starts=extra
    )
    _assert_same_search(got, want)


def test_inadmissible_start_is_refined_like_the_reference():
    bad_start = [np.array([[0.1, 0.45, 0.45]]), np.full((2, 2), 0.5)]
    stacked = [t[None] for t in bad_start]
    values, tables, evals = optim.refine_rows(per_point(_partly_inadmissible), stacked, 60)
    val, params, n = reference_search.refine_rows(_partly_inadmissible, bad_start, 60)
    # the first move toward vertex 0 makes the start admissible
    assert val is not None
    assert evals == n
    assert abs(values[0] - val) <= TOL
    for k in range(2):
        assert np.abs(tables[k][0] - params[k]).max() <= TOL


def test_nowhere_admissible_raises_like_the_reference():
    budget = SearchBudget(restarts=3, seed=0, refine_sweeps=2)
    nowhere = lambda params: None  # noqa: E731
    with pytest.raises(NoAdmissiblePointError):
        search_factored(per_point(nowhere), SHAPES, budget)
    with pytest.raises(NoAdmissiblePointError):
        reference_search.search_factored(nowhere, SHAPES, budget)


def test_best_start_is_the_first_of_equal_values():
    # a constant objective: every start ties, the first extra start wins
    flat = [np.full((1, 3), 1 / 3), np.full((2, 2), 0.5)]
    budget = SearchBudget(restarts=3, seed=4, refine_sweeps=3)
    const = lambda params: 0.25  # noqa: E731
    got = search_factored(per_point(const), SHAPES, budget, extra_starts=[flat, flat])
    want = reference_search.search_factored(const, SHAPES, budget, extra_starts=[flat, flat])
    assert got.best_restart == want.best_restart == -1
    _assert_same_search(got, want)


# -- the callers' extra starts ---------------------------------------------


def _bsc_pair():
    return BroadcastChannels(to_y1=bsc(0.1), to_y2=bsc(0.12), to_z=bsc(0.25))


@pytest.mark.parametrize("restarts", [1, 3])
def test_bound_search_with_baseline_matches_reference(monkeypatch, restarts):
    budget = SearchBudget(restarts=restarts, seed=7, refine_sweeps=8)
    (got, got_runs), (want, want_runs) = _both(
        monkeypatch,
        bounds,
        lambda: maximize("ck_extension", AuxSpec("ck", {"Q": 2, "V": 2}), _bsc_pair(), budget),
    )
    _assert_same_searches(got_runs, want_runs)
    assert got.evaluations == want.evaluations
    assert got.best_restart == want.best_restart
    assert abs(got.value - want.value) <= TOL


def test_theorem1_families_match_reference(monkeypatch):
    budget = SearchBudget(restarts=1, seed=3, refine_sweeps=2)
    aux = AuxSpec("theorem1", {"V0": 2, "V1": 2, "V2": 2})
    (got, got_runs), (want, want_runs) = _both(
        monkeypatch, bounds, lambda: maximize("theorem1", aux, _bsc_pair(), budget)
    )
    assert len(got_runs) == 2  # both admissible families
    _assert_same_searches(got_runs, want_runs)
    assert abs(got.value - want.value) <= TOL


@pytest.mark.parametrize(
    "check",
    [
        lambda budget: orderings.check_more_capable(
            erasure_channel(0.5), bsc(0.2), budget
        ),
        lambda budget: orderings.check_less_noisy(
            erasure_channel(0.5), bsc(0.2), aux_card=1, budget=budget
        ),
    ],
    ids=["more_capable", "less_noisy"],
)
def test_orderings_grid_seeds_match_reference(monkeypatch, check):
    budget = SearchBudget(grid_points=6, restarts=2, seed=5, refine_sweeps=20)
    (got, got_runs), (want, want_runs) = _both(monkeypatch, orderings, lambda: check(budget))
    _assert_same_searches(got_runs, want_runs)
    assert got.holds == want.holds
