"""Lockstep speculative search against the sequential search it replaced.

``reference_search`` is the old search, one start after another with one
scalar objective call per candidate.  The lockstep search evaluates whole
rows of candidates per call, but must take every start down the same
accept/reject path: the same evaluation counts, the same best start, the
same example trace counters, and the same bits in values and tables.
"""

import numpy as np
import pytest

import reference_search
from reference_search import per_point
from wiretap3 import bounds, fig1, optim, orderings
from wiretap3.bounds import AuxSpec, BroadcastChannels, maximize
from wiretap3.optim import NoAdmissiblePointError, SearchBudget, search_factored
from wiretap3.probability import ConditionalPmf, bsc, erasure_channel


def _scalar(objective):
    """A search objective as the scalar objective the reference expects: one
    call whose one point is a one-start stack offered its own first row,
    followed, as the search follows every call that returns, by its
    ``logical`` mask, which holds that one point."""
    logical = getattr(objective, "logical", None)

    def fn(params):
        val = objective([p[None] for p in params], 0, 0, np.zeros(1, dtype=int), params[0][:1])[0]
        if logical is not None:
            logical(np.ones(1, dtype=bool))
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
    assert got.value == want.value
    assert len(got.params) == len(want.params)
    for a, b in zip(got.params, want.params):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
    # every logical point is evaluated once; speculation may add more
    assert got.objective_points >= got.evaluations


def _assert_same_report(got, want):
    """Two ExampleReports with the same search results and the same identity trace."""
    assert got.evaluations == want.evaluations
    assert got.rck_best == want.rck_best
    assert got.identity_points_checked == want.identity_points_checked
    assert got.identity_max_deviation == want.identity_max_deviation


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


def _example_objective(*change):
    iy, iz = fig1.second_component_measures(reference_search.full_stacks(*change))
    return fig1.rck_upper_bound_objective(iy, iz)


def test_refine_rows_matches_each_start_refined_alone():
    starts = _example_stack(restarts=5, seed=9)
    stacked = [np.stack([s[k] for s in starts]) for k in range(3)]
    values, tables, evals, _ = optim.refine_rows(_example_objective, stacked, 60)
    per_start = [
        reference_search.refine_rows(_scalar(_example_objective), s, 60) for s in starts
    ]
    # the starts stop early at different sweeps, so the masks are exercised
    assert len({n for _, _, n in per_start}) > 1
    assert evals == sum(n for _, _, n in per_start)
    for b, (val, params, _) in enumerate(per_start):
        assert values[b] == val
        for k in range(3):
            assert np.array_equal(tables[k][b], params[k])


@pytest.mark.parametrize("restarts,seed", [(6, 3), (1, 20260810)])
def test_example_report_matches_reference(monkeypatch, restarts, seed):
    budget = SearchBudget(restarts=restarts, seed=seed, refine_sweeps=60)
    (got, got_runs), (want, want_runs) = _both(
        monkeypatch, fig1, lambda: fig1.reproduce_example(budget)
    )
    _assert_same_report(got, want)
    _assert_same_searches(got_runs, want_runs)


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
    _assert_same_report(got, want)
    _assert_same_search(*runs)


def test_example_trace_skips_speculative_silent_points(monkeypatch):
    # seed 46, 32 restarts, 10 sweeps: speculative candidates that the
    # sequential search never visits leak nothing to Z2; they must not count.
    # Silent points are counted where the example's objective gets its
    # measures of each call: the second-component plan.
    budget = SearchBudget(restarts=32, seed=46, refine_sweeps=10)
    seen = []
    plan = fig1._second_component_plan()
    measures = plan.information

    def counting(joint):
        iy, iz = measures(joint)
        seen.append(int(np.count_nonzero(iz < 1e-9)))
        return iy, iz

    monkeypatch.setattr(plan, "information", counting)
    (got, got_runs), (want, want_runs) = _both(
        monkeypatch, fig1, lambda: fig1.reproduce_example(budget)
    )
    _assert_same_report(got, want)
    _assert_same_searches(got_runs, want_runs)
    assert got.objective_points > got.evaluations
    # both searches handed the objective silent points, the speculative one more
    speculative_silent = sum(seen) - 2 * want.identity_points_checked
    assert speculative_silent > 0


@pytest.mark.parametrize("seed", [5, 12])
def test_example_at_256_restarts_matches_reference(monkeypatch, seed):
    # 257 live starts fill a call with one vertex each: the narrowest rows
    budget = SearchBudget(restarts=256, seed=seed, refine_sweeps=2)
    (got, got_runs), (want, want_runs) = _both(
        monkeypatch, fig1, lambda: fig1.reproduce_example(budget)
    )
    _assert_same_report(got, want)
    _assert_same_searches(got_runs, want_runs)


def test_example_seed_1_at_256_restarts_and_60_sweeps():
    # values of tests/reference_search.py (and of the lockstep search before
    # speculative rows) on this budget; the reference takes about 20 s.  The
    # path and tables are the reference's; rck_best is the fused plan's sum
    rep = fig1.reproduce_example(SearchBudget(restarts=256, seed=1, refine_sweeps=60))
    assert rep.evaluations == 235057
    assert rep.identity_points_checked == 2
    assert rep.identity_max_deviation == 0.0
    assert rep.rck_best == 0.5833333333313799  # the reference's is 0.5833333333313804
    want = [
        [[0.0, 0.007736414612622643, 0.9922635853873774]],
        [
            [0.7361038993003869, 0.09543031128061565, 0.02110231420551145, 0.1473634752134861],
            [0.3409808004538312, 0.31221087029037586, 0.3429173380448554, 0.0038909912109375],
            [0.29867235912088336, 0.3427537099008115, 0.3585739309783052, 0.0],
        ],
        [[0.0, 1.0], [0.7072805723089874, 0.29271942769101256], [0.0, 1.0],
         [0.2410228159306576, 0.7589771840693424]],
    ]
    for got, table in zip(rep.rck_best_tables, want):
        assert np.array_equal(got, np.array(table))


# -- synthetic objectives ----------------------------------------------------


def _stacked_inadmissible(*change):
    """``_partly_inadmissible`` on a call's points, elementwise: NaN where p(0) < 0.3."""
    tables = reference_search.full_stacks(*change)
    a, b = tables[0][:, 0], tables[1]
    value = np.sin(5 * a[:, 1]) + a[:, 0] * b[:, 0, 1] - (b[:, 1, 0] - 0.4) ** 2
    return np.where(a[:, 0] < 0.3, np.nan, value)


@pytest.mark.parametrize("starts", [5, 40, 150])
def test_refine_rows_matches_reference_at_every_call_width(starts):
    # 5 starts get whole rows per call, 40 split a 4-cell row in two calls,
    # 150 offer one vertex per call
    shapes = [(1, 3), (2, 4)]
    rng = np.random.default_rng(starts)
    stack = [rng.dirichlet(np.ones(c), size=(starts, r)) for r, c in shapes]
    stack[0][::3, 0] = [0.1, 0.45, 0.45]  # some starts begin inadmissible
    values, tables, evals, points = optim.refine_rows(_stacked_inadmissible, stack, 60)
    per_start = [
        reference_search.refine_rows(_scalar(_stacked_inadmissible), [t[b] for t in stack], 60)
        for b in range(starts)
    ]
    assert len({n for _, _, n in per_start}) > 1  # staggered early stops
    assert evals == sum(n for _, _, n in per_start)
    assert points >= evals
    for b, (val, params, _) in enumerate(per_start):
        assert values[b] == val or (val is None and np.isnan(values[b]))
        for k in range(2):
            assert np.array_equal(tables[k][b], params[k])


def _first_row_objective(raise_when, raised):
    """Maximize p(0) of a 1x3 table; raise ValueError on points ``raise_when`` marks."""

    def objective(*change):
        row = reference_search.full_stacks(*change)[0][:, 0]
        if np.count_nonzero(raise_when(row)):
            raised.append(len(row))
            raise ValueError("point outside the objective's domain")
        return row[:, 0].copy()

    return objective


def test_speculative_point_does_not_raise_where_the_sequential_search_does_not():
    # from the uniform row, "toward 0" wins at once; "toward 1" built from the
    # replaced row has p(1) = 1/2, a point the sequential search never makes
    raised = []
    objective = _first_row_objective(lambda row: row[:, 1] >= 0.5 - 1e-12, raised)
    start = [np.full((1, 3), 1 / 3)]
    val, params, n = reference_search.refine_rows(_scalar(objective), start, 20)
    assert raised == []
    values, tables, evals, _ = optim.refine_rows(objective, [start[0][None]], 20)
    assert raised == [6]  # the whole first row in one call, then one vertex per call
    assert (values[0], evals) == (val, n)
    assert np.array_equal(tables[0][0], params[0])


class _Recording:
    """An objective that logs each call that returns and each ``logical`` mask."""

    def __init__(self, objective):
        self.objective, self.log = objective, []

    def __call__(self, *change):
        values = self.objective(*change)
        self.log.append(("call", len(values)))
        return values

    def logical(self, mask):
        self.log.append(("logical", mask.copy()))


@pytest.mark.parametrize("objective,shapes,starts", [
    (_example_objective, [(1, 3), (3, 4), (4, 2)], 5),
    (_stacked_inadmissible, [(1, 3), (2, 4)], 150),
])
def test_every_returning_call_is_followed_by_one_logical_mask(objective, shapes, starts):
    rng = np.random.default_rng(starts)
    stack = [rng.dirichlet(np.ones(c), size=(starts, r)) for r, c in shapes]
    rec = _Recording(objective)
    _, _, evals, points = optim.refine_rows(rec, stack, 60)
    calls, masks = rec.log[0::2], rec.log[1::2]
    assert [kind for kind, _ in calls] == ["call"] * len(calls)
    assert [kind for kind, _ in masks] == ["logical"] * len(calls)
    for (_, n), (_, mask) in zip(calls, masks):
        assert mask.dtype == bool and mask.shape == (n,)
    assert sum(int(np.count_nonzero(mask)) for _, mask in masks) == evals
    assert sum(n for _, n in calls) == points
    assert any(not mask.all() for _, mask in masks)  # some call held speculative points


def test_a_call_that_raises_gets_no_logical_mask():
    raised = []
    rec = _Recording(_first_row_objective(lambda row: row[:, 1] >= 0.5 - 1e-12, raised))
    values, _, evals, _ = optim.refine_rows(rec, [np.full((1, 1, 3), 1 / 3)], 20)
    assert raised == [6]
    kinds = [kind for kind, _ in rec.log]
    assert kinds == ["call", "logical"] * (len(kinds) // 2)
    assert sum(int(np.count_nonzero(m)) for kind, m in rec.log if kind == "logical") == evals


def test_logical_point_raises_like_the_reference():
    # p(0) climbs past 0.9 along the sequential path itself
    objective = _first_row_objective(lambda row: row[:, 0] > 0.9, [])
    start = [np.full((1, 3), 1 / 3)]
    with pytest.raises(ValueError):
        reference_search.refine_rows(_scalar(objective), start, 20)
    with pytest.raises(ValueError):
        optim.refine_rows(objective, [start[0][None]], 20)


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
    values, tables, evals, _ = optim.refine_rows(per_point(_partly_inadmissible), stacked, 60)
    val, params, n = reference_search.refine_rows(_partly_inadmissible, bad_start, 60)
    # the first move toward vertex 0 makes the start admissible
    assert val is not None
    assert evals == n
    assert values[0] == val
    for k in range(2):
        assert np.array_equal(tables[k][0], params[k])


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
    assert got.value == want.value


@pytest.mark.parametrize(
    "bound_id,aux",
    [("wiretap", AuxSpec("wiretap", {"V": 3})), ("corollary1", AuxSpec("ck", {"Q": 2, "V": 2}))],
)
def test_other_bounds_with_baseline_match_reference(monkeypatch, bound_id, aux):
    budget = SearchBudget(restarts=2, seed=11, refine_sweeps=8)
    (got, got_runs), (want, want_runs) = _both(
        monkeypatch, bounds, lambda: maximize(bound_id, aux, _bsc_pair(), budget)
    )
    _assert_same_searches(got_runs, want_runs)
    assert (got.value, got.evaluations, got.best_restart) == (
        want.value, want.evaluations, want.best_restart
    )
    assert got.objective_points == sum(r.objective_points for r in got_runs)


def test_theorem1_families_match_reference(monkeypatch):
    budget = SearchBudget(restarts=1, seed=3, refine_sweeps=2)
    aux = AuxSpec("theorem1", {"V0": 2, "V1": 2, "V2": 2})
    (got, got_runs), (want, want_runs) = _both(
        monkeypatch, bounds, lambda: maximize("theorem1", aux, _bsc_pair(), budget)
    )
    assert len(got_runs) == 2  # both admissible families
    _assert_same_searches(got_runs, want_runs)
    assert got.value == want.value


@pytest.mark.parametrize(
    "check",
    [
        lambda budget: orderings.check_more_capable(
            erasure_channel(0.5), bsc(0.2), budget
        ),
        lambda budget: orderings.check_more_capable(
            ConditionalPmf([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]),
            ConditionalPmf([[1, 0], [0, 1], [0, 1]]), budget
        ),
    ],
    ids=["more_capable", "more_capable_ternary"],
)
def test_orderings_grid_seeds_match_reference(monkeypatch, check):
    budget = SearchBudget(grid_points=6, restarts=2, seed=5, refine_sweeps=20)
    (got, got_runs), (want, want_runs) = _both(monkeypatch, orderings, lambda: check(budget))
    _assert_same_searches(got_runs, want_runs)
    assert got.holds == want.holds
