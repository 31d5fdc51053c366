"""The batched bound engine against the per-point ``JointPmf`` path it replaced.

``reference_bounds`` keeps the old evaluators and the old maximize loop, one
``per_point`` call of ``fn(source_joint(...), chans)`` per start.  The
engine must reach the same maxima by the same search paths, give the same
values on stacks (NaN exactly where the old theorem1 returned None), give
each point of a stack the bits it gets alone, and keep its table and
measure checks under ``python -O``.  The fused ``_BoundPlan`` must agree with
the memoized engine it replaced (``reference_bounds.bound_values``) to
rounding, and give each point the same bits in every sub-stack.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference_bounds
import sampling
from wiretap3 import bounds, fig1, optim
from wiretap3.bounds import AuxSpec, BroadcastChannels, build_factored, maximize
from wiretap3.optim import SearchBudget
from wiretap3.probability import DistributionError, bsc, erasure_channel
from wiretap3.specfmt import parse_spec

from test_bounds import chans_deg

TOL = 1e-12
FUSED_TOL = 1e-13  # the fused plan against the memoized engine, term sums reordered
ROOT = Path(__file__).resolve().parents[1]


def _bsc_triple():
    return BroadcastChannels(bsc(0.1), bsc(0.12), bsc(0.25))


def _example_spec():
    doc = parse_spec((ROOT / "docs" / "examples" / "multilevel_product.chan").read_text())
    return doc.broadcast("to_y1", "to_y2", "to_z")


CHANNELS = {
    "bsc": _bsc_triple,
    "erasure": chans_deg,
    "mixed": lambda: BroadcastChannels(erasure_channel(0.2), bsc(0.05), erasure_channel(0.6)),
    "example_spec": _example_spec,  # |X| = 4, the benchmark's channel
}

# (bound id, cards, channel, seed, restarts, sweeps)
MAXIMIZE_CASES = [
    ("wiretap", {"V": 3}, "bsc", 0, 2, 8),
    ("wiretap", {"V": 2}, "erasure", 5, 1, 12),
    ("ck_extension", {"Q": 2, "V": 3}, "bsc", 7, 2, 6),
    ("ck_extension", {"Q": 2, "V": 2}, "mixed", 3, 3, 10),
    ("ck_extension", {}, "example_spec", 1075661167, 1, 3),
    ("corollary1", {"Q": 2, "V": 3}, "erasure", 2, 2, 6),
    ("corollary1", {"Q": 1, "V": 2}, "mixed", 9, 1, 12),
    ("theorem1", {"Q": 1, "V0": 2, "V1": 2, "V2": 2}, "bsc", 1, 2, 5),
    ("theorem1", {"V0": 2, "V1": 2, "V2": 2}, "example_spec", 502455614, 1, 2),
]


def _recorded_refines(monkeypatch):
    totals = []
    original = optim.refine_rows

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        totals.append(out[2])
        return out

    monkeypatch.setattr(optim, "refine_rows", recording)
    return totals


@pytest.mark.parametrize("bound_id,cards,channel,seed,restarts,sweeps", MAXIMIZE_CASES)
def test_maximize_matches_the_per_point_search(
    monkeypatch, bound_id, cards, channel, seed, restarts, sweeps
):
    chans = CHANNELS[channel]()
    aux = AuxSpec(bounds.bound_pattern(bound_id), cards)
    budget = SearchBudget(restarts=restarts, seed=seed, refine_sweeps=sweeps)
    totals = _recorded_refines(monkeypatch)
    got = maximize(bound_id, aux, chans, budget)
    got_totals = list(totals)
    want, want_tables, runs = reference_bounds.maximize(bound_id, aux, chans, budget)
    assert abs(got.value - want.value) <= TOL
    assert got.evaluations == want.evaluations
    assert got.best_restart == want.best_restart
    assert got.restarts == want.restarts
    assert got.search_evaluations == sum(r.evaluations for r in runs) == sum(got_totals)
    tables = [f.table.matrix for f in got.argmax.factors]
    assert len(tables) == len(want_tables)
    for a, b in zip(tables, want_tables):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= TOL


def test_theorem1_counts_every_family_search(monkeypatch):
    # Q=1, V0=V1=V2=2, seed 1: the winning family took 502 evaluations and
    # the other 501; ``evaluations`` keeps reporting the winner's count
    totals = _recorded_refines(monkeypatch)
    res = maximize(
        "theorem1",
        AuxSpec("theorem1", {"Q": 1, "V0": 2, "V1": 2, "V2": 2}),
        _bsc_triple(),
        SearchBudget(restarts=2, seed=1, refine_sweeps=5),
    )
    assert len(totals) == 2
    assert res.evaluations == 502
    assert res.search_evaluations == sum(totals) == 1003


def _engine_values(bound_id, cards, chans, tables):
    """The batched engine's values on stacked pattern tables."""
    pattern = bounds.bound_pattern(bound_id)
    plan = bounds._BoundPlan(
        bounds._BOUND_TERMS[bound_id], bounds.PATTERNS[pattern][0], bounds._channels(chans)
    )
    return plan(bounds._realize(pattern, AuxSpec(pattern, cards).resolve(chans.x_size), tables))


def _reference_values(bound_id, cards, chans, tables):
    """The old evaluator per point, None as NaN."""
    pattern, fn = reference_bounds.SCALAR_BOUNDS[bound_id]
    sizes = AuxSpec(pattern, cards).resolve(chans.x_size)
    values = [
        fn(build_factored(pattern, sizes, [t[b] for t in tables]), chans)
        for b in range(len(tables[0]))
    ]
    return np.array([np.nan if v is None else v for v in values])


STACK_CASES = [
    ("wiretap", {"V": 3}, "bsc", "random"),
    ("ck_extension", {"Q": 2, "V": 3}, "mixed", "random"),
    ("ck_extension", {}, "example_spec", "random"),
    ("corollary1", {"Q": 2, "V": 3}, "erasure", "random"),
    ("corollary1", {}, "example_spec", "random"),
    ("theorem1", {"V0": 2, "V1": 2, "V2": 2}, "bsc", "random"),
    ("theorem1", {"V0": 2, "V1": 2, "V2": 2}, "example_spec", "random"),
    ("theorem1", {"V0": 2, "V1": 3, "V2": 2}, "bsc", "z_ignores_v2"),
    ("theorem1", {"V0": 2, "V1": 2, "V2": 3}, "erasure", "z_ignores_v1"),
    ("theorem1", {"V0": 2, "V1": 2, "V2": 2}, "example_spec", "z_ignores_v2"),
    ("theorem1", {"V0": 2, "V1": 2, "V2": 2}, "example_spec", "z_ignores_v1"),
    ("theorem1", {"V0": 2, "V1": 2, "V2": 2}, "example_spec", "mixed"),
]


def _tables_for(bound_id, cards, chans, kind, seed):
    """64 stacked pattern tables: random, from one theorem1 family, or "mixed":
    32 random theorem1 points, then 32 z_ignores_v2 points."""
    if kind == "mixed":
        random = _tables_for(bound_id, cards, chans, "random", seed)
        family = _tables_for(bound_id, cards, chans, "z_ignores_v2", seed)
        return [np.concatenate([r[:32], f[32:]]) for r, f in zip(random, family)]
    rng = np.random.default_rng(seed)
    pattern = bounds.bound_pattern(bound_id)
    sizes = AuxSpec(pattern, cards).resolve(chans.x_size)
    if kind == "random":
        shapes, family = bounds.factor_shapes(pattern, sizes), None
    else:
        shapes, family = bounds._search_spaces("theorem1", sizes)[
            ("z_ignores_v2", "z_ignores_v1").index(kind)
        ]
    tables = [rng.dirichlet(np.ones(cols), size=(64, rows)) for rows, cols in shapes]
    return tables if family is None else bounds._expand_family(tables, sizes, family)


@pytest.mark.parametrize("bound_id,cards,channel,kind", STACK_CASES)
def test_stack_values_match_the_reference(bound_id, cards, channel, kind):
    chans = CHANNELS[channel]()
    tables = _tables_for(bound_id, cards, chans, kind, seed=29)
    got = _engine_values(bound_id, cards, chans, tables)
    want = _reference_values(bound_id, cards, chans, tables)
    assert got.shape == (64,)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.abs(got[ok] - want[ok]).max(initial=0.0) <= TOL
    if bound_id == "theorem1":
        # random tables are (almost) never admissible; family tables always are
        admissible = {"random": 0, "mixed": 32}.get(kind, 64)
        assert np.isnan(got).tolist() == [True] * (64 - admissible) + [False] * admissible


@pytest.mark.parametrize("bound_id,cards,channel,kind", STACK_CASES)
def test_each_point_gets_its_own_bits(bound_id, cards, channel, kind):
    chans = CHANNELS[channel]()
    tables = _tables_for(bound_id, cards, chans, kind, seed=17)
    together = _engine_values(bound_id, cards, chans, tables)
    alone = np.concatenate([
        _engine_values(bound_id, cards, chans, [t[b:b + 1] for t in tables]) for b in range(64)
    ])
    assert np.array_equal(together, alone, equal_nan=True)


def _fused_plans():
    """(plan, 64 source laws): the example's second-component plan, and theorem1's.

    Both plans are new, so they compile under the current _DENSE_CELLS."""
    rng = np.random.default_rng(31)
    pq, pvq, pxv = (rng.dirichlet(np.ones(c), size=(64, r)) for r, c in [(1, 3), (3, 4), (4, 2)])
    example = pq[:, 0, :, None, None] * pvq[..., None] * pxv[:, None]
    chans = _example_spec()
    cards = {"V0": 2, "V1": 2, "V2": 2}
    tables = _tables_for("theorem1", cards, chans, "mixed", seed=31)
    theorem1 = bounds._realize("theorem1", AuxSpec("theorem1", cards).resolve(4), tables)
    return {
        "example": (
            bounds._BoundPlan(fig1._SECOND_COMPONENT, ("Q2", "V2", "X2"),
                              {"Y12": fig1._FIG1.y12.matrix, "Z2": fig1._FIG1.z2.matrix}),
            example,
        ),
        "theorem1": (
            bounds._BoundPlan(bounds._THEOREM1, bounds.PATTERNS["theorem1"][0],
                              bounds._channels(chans)),
            theorem1,
        ),
    }


def _compiled_form(plan, joint):
    """"dense" when ``plan`` compiled an M for the shape of ``joint``, else "routed"."""
    m, _, _ = plan._compiled[joint.shape[1:]]
    return "routed" if m is None else "dense"


@pytest.mark.parametrize("form", ["dense", "routed"])
@pytest.mark.parametrize("name", ["example", "theorem1"])
def test_every_sub_stack_gives_each_point_its_bits(monkeypatch, name, form):
    # every prefix and suffix of the stack, empty and whole included: each is
    # a view at another offset, so a point sits at another alignment in each
    if form == "routed":
        monkeypatch.setattr(bounds, "_DENSE_CELLS", 0)
    plan, joint = _fused_plans()[name]
    whole = plan.information(joint)
    values = plan(joint)
    assert _compiled_form(plan, joint) == form
    subs = [slice(0, k) for k in range(65)] + [slice(k, 64) for k in range(65)]
    for s in subs:
        assert np.array_equal(plan.information(joint[s]), whole[:, s])
        assert np.array_equal(plan(joint[s]), values[s], equal_nan=True)


@pytest.mark.parametrize("bound_id,cards,channel,kind", STACK_CASES)
def test_compiled_plan_matches_the_memoized_engine(bound_id, cards, channel, kind):
    chans = CHANNELS[channel]()
    tables = _tables_for(bound_id, cards, chans, kind, seed=29)
    pattern = bounds.bound_pattern(bound_id)
    joint = bounds._realize(pattern, AuxSpec(pattern, cards).resolve(chans.x_size), tables)
    want = reference_bounds.bound_values(
        bounds._BOUND_TERMS[bound_id], bounds.PATTERNS[pattern][0], joint, bounds._channels(chans)
    )
    got = _engine_values(bound_id, cards, chans, tables)
    # the fused plan sums each term's cells in one product, not entropy by
    # entropy, so values move by rounding only (5.8e-15 at most measured)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.abs(got[ok] - want[ok]).max(initial=0.0) <= FUSED_TOL


@pytest.mark.parametrize("bound_id,cards,channel,kind", STACK_CASES)
def test_routed_plan_matches_the_memoized_engine(monkeypatch, bound_id, cards, channel, kind):
    monkeypatch.setattr(bounds, "_DENSE_CELLS", 0)
    chans = CHANNELS[channel]()
    tables = _tables_for(bound_id, cards, chans, kind, seed=29)
    pattern = bounds.bound_pattern(bound_id)
    joint = bounds._realize(pattern, AuxSpec(pattern, cards).resolve(chans.x_size), tables)
    want = reference_bounds.bound_values(
        bounds._BOUND_TERMS[bound_id], bounds.PATTERNS[pattern][0], joint, bounds._channels(chans)
    )
    got = _engine_values(bound_id, cards, chans, tables)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.abs(got[ok] - want[ok]).max(initial=0.0) <= FUSED_TOL


def test_plans_past_the_dense_bound_run_their_routes():
    # theorem1 at its default cardinalities on the |X| = 4 example spec has
    # N = 1,440 source cells and K = 4,166 pmf cells: a dense M would hold
    # 6.0M entries; the benchmark's V0 = V1 = V2 = 2 plan (N = 64) stays dense
    chans = _example_spec()
    channels = bounds._channels(chans)
    pattern_axes = bounds.PATTERNS["theorem1"][0]
    for cards, form in (({}, "routed"), ({"V0": 2, "V1": 2, "V2": 2}, "dense")):
        # 8 random points (NaN: inadmissible), then 8 from an admissible family
        tables = [t[24:40] for t in _tables_for("theorem1", cards, chans, "mixed", seed=3)]
        joint = bounds._realize("theorem1", AuxSpec("theorem1", cards).resolve(4), tables)
        plan = bounds._BoundPlan(bounds._THEOREM1, pattern_axes, channels)
        got = plan(joint)
        assert _compiled_form(plan, joint) == form
        m, _, _ = plan._compiled[joint.shape[1:]]
        if m is not None:
            assert m.size + m.shape[0] ** 2 <= bounds._DENSE_CELLS
        want = reference_bounds.bound_values(bounds._THEOREM1, pattern_axes, joint, channels)
        assert np.isnan(got).tolist() == np.isnan(want).tolist() == [True] * 8 + [False] * 8
        assert np.abs(got[8:] - want[8:]).max() <= FUSED_TOL


def test_routed_plans_keep_the_term_check(monkeypatch):
    monkeypatch.setattr(bounds, "_DENSE_CELLS", 0)
    lines = []
    exec(CHECKS_SCRIPT, {"print": lines.append})
    assert lines == EXPECTED


def _edge_stack(pattern, sizes, rng):
    """18 source laws at the edges of p log2 p: 8 random, 4 vertices (one-hot
    rows: exact zeros and ones), 4 with every other row a vertex, one whose
    -1e-13 entry the realizer clips to 0, and one with a NaN cell."""
    shapes = bounds.factor_shapes(pattern, sizes)
    tables = [rng.dirichlet(np.ones(c), size=(17, r)) for r, c in shapes]
    for t in tables:
        vertices = np.eye(t.shape[2])[rng.integers(t.shape[2], size=(8, t.shape[1]))]
        t[8:12] = vertices[:4]
        t[12:16, ::2] = vertices[4:, ::2]
        if t.shape[2] > 1:
            t[16, 0] = 0.0
            t[16, 0, :2] = [1.0 + 1e-13, -1e-13]
    joint = bounds._realize(pattern, sizes, tables)
    nan = joint[:1].copy()
    nan.reshape(-1)[3] = np.nan
    return np.concatenate([joint, nan])


@pytest.mark.parametrize("form", ["dense", "routed"])
@pytest.mark.parametrize("name", ["example", "theorem1"])
def test_floored_log_gives_the_old_formula_bits(monkeypatch, name, form):
    # 0 * -1074 = -0.0 where the old form read 0 * 0 = 0.0; the ST sums and
    # the 0.0 - x fold absorb the sign, so every term keeps its bits
    if form == "routed":
        monkeypatch.setattr(bounds, "_DENSE_CELLS", 0)
    plan, _ = _fused_plans()[name]
    pattern, sizes = {
        "example": ("ck", {"Q": 3, "V": 4, "X": 2}),
        "theorem1": ("theorem1", AuxSpec("theorem1", {"V0": 2, "V1": 2, "V2": 2}).resolve(4)),
    }[name]
    joint = _edge_stack(pattern, sizes, np.random.default_rng(37))
    cells = joint.reshape(len(joint), -1)
    assert (cells[:17] >= 0).all() and (cells[8:17] == 0).any(axis=1).all()
    got = plan.information(joint)
    assert _compiled_form(plan, joint) == form
    assert got.tobytes() == reference_bounds.plan_information(plan, joint).tobytes()
    assert np.isnan(got).any(axis=0).tolist() == [False] * 17 + [True]


def test_one_point_evaluators_share_one_plan_per_channel_values(monkeypatch):
    compiles = []
    compile_ = bounds._BoundPlan._compile

    def counted(plan, sizes):
        compiles.append(sizes)
        return compile_(plan, sizes)

    monkeypatch.setattr(bounds._BoundPlan, "_compile", counted)
    bounds._cached_plan.cache_clear()
    d = sampling.random_dist("ck", {"Q": 2, "V": 3, "X": 4}, np.random.default_rng(2))
    first = bounds.ck_extension_rate(d, _example_spec())
    # a second parse of the spec: equal matrices in new arrays reuse the plan
    assert bounds.ck_extension_rate(d, _example_spec()) == first
    assert len(compiles) == 1
    other = BroadcastChannels(bsc(0.1), bsc(0.2), bsc(0.3))
    d2 = sampling.random_dist("ck", {"Q": 2, "V": 3, "X": 2}, np.random.default_rng(2))
    bounds.ck_extension_rate(d2, other)
    bounds.corollary1_rate(d2, other)
    assert len(compiles) == 3  # other channel values, then another bound


def test_stacked_family_expansion_matches_per_point():
    sizes = {"Q": 2, "V0": 2, "V1": 3, "V2": 2, "X": 3}
    rng = np.random.default_rng(4)
    for shapes, family in bounds._search_spaces("theorem1", sizes):
        stack = [rng.dirichlet(np.ones(cols), size=(8, rows)) for rows, cols in shapes]
        together = bounds._expand_family(stack, sizes, family)
        for b in range(8):
            alone = bounds._expand_family([t[b] for t in stack], sizes, family)
            for t, s in zip(together, alone):
                assert np.array_equal(t[b], s)


def _admissible_loop_form(sizes, rng, family):
    """``sampling.admissible_tables`` as it was, with per-row ``vstack`` loops."""
    n0, n1, n2, nx = sizes["V0"], sizes["V1"], sizes["V2"], sizes["X"]
    p1 = rng.dirichlet(np.ones(n1), size=n0)
    if family == "collapse_v2":
        p2 = np.zeros((n0, n2))
        p2[np.arange(n0), np.arange(n0)] = 1.0
    else:
        p2 = rng.dirichlet(np.ones(n2), size=n0)
    pv12 = (p1[:, :, None] * p2[:, None, :]).reshape(n0, n1 * n2)
    if family == "z_ignores_v1":
        q = rng.dirichlet(np.ones(nx), size=n0 * n2)
        px = np.vstack([
            q[v0 * n2 + v2] for v0 in range(n0) for v1 in range(n1) for v2 in range(n2)
        ])
    else:
        q = rng.dirichlet(np.ones(nx), size=n0 * n1)
        px = np.vstack([
            q[v0 * n1 + v1] for v0 in range(n0) for v1 in range(n1) for v2 in range(n2)
        ])
    return [pv12, px]


@pytest.mark.parametrize("family", sampling.ADMISSIBLE_FAMILIES)
@pytest.mark.parametrize("seed", [0, 1, 23])
def test_admissible_tables_are_bit_identical_to_the_loop_form(family, seed):
    for pattern in ("theorem1", "theorem2"):
        head = bounds.PATTERNS[pattern][0][0]
        sizes = {head: 2, "V0": 2, "V1": 3, "V2": 4, "X": 3}
        got = sampling.random_admissible_dist(pattern, sizes, np.random.default_rng(seed), family)
        rng = np.random.default_rng(seed)
        want = [
            rng.dirichlet(np.ones(sizes[head]), size=1),
            rng.dirichlet(np.ones(sizes["V0"]), size=sizes[head]),
        ] + _admissible_loop_form(sizes, rng, family)
        assert len(got.factors) == len(want)
        for f, w in zip(got.factors, want):
            assert np.array_equal(f.table.matrix, w)


# -- checks that must hold under python -O ----------------------------------

CHECKS_SCRIPT = """
import numpy as np
from wiretap3 import bounds
from wiretap3.probability import DistributionError

sizes = {"Q": 2, "V": 3, "X": 2}
rng = np.random.default_rng(0)
shapes = bounds.factor_shapes("ck", sizes)
good = [rng.dirichlet(np.ones(c), size=(8, r)) for r, c in shapes]
bounds._realize("ck", sizes, good)

negative = [t.copy() for t in good]
negative[2][5, 1] = [1.0 + 1e-9, -1e-9]
unnormalized = [t.copy() for t in good]
unnormalized[1][3, 0, 0] += 1e-9
for tables in (negative, unnormalized):
    try:
        bounds._realize("ck", sizes, tables)
    except DistributionError:
        print("table rejected")

# mass 2 instead of 1 turns each I(V;R) into 2 I(V;R) - 2: with V = X, that
# is 0 for the noiseless Y1 and -1 for Z, an erasure of 1/2, so the second
# term, and only it, falls below -MEASURE_TOL
doubled = np.array([np.eye(2)] * 4)
chans = {"Y1": np.eye(2), "Z": np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])}
try:
    bounds._BoundPlan(bounds._WIRETAP, ("V", "X"), chans)(doubled)
except DistributionError as e:
    print("term rejected: " + str(e).split(" = ")[0])

# a NaN point beside them makes the quick check read NaN: the term scan
# still runs and rejects the same term with the same message
nan_first = np.concatenate([np.full((1, 2, 2), np.nan), doubled])
try:
    bounds._BoundPlan(bounds._WIRETAP, ("V", "X"), chans)(nan_first)
except DistributionError as e:
    print("term rejected: " + str(e))
"""

EXPECTED = [
    "table rejected", "table rejected", "term rejected: I(('V',);('Z',)|())",
    "term rejected: I(('V',);('Z',)|()) = nan is below -1e-10",
]


def test_table_and_measure_checks_raise():
    scope = {}
    lines = []
    scope["print"] = lines.append
    exec(CHECKS_SCRIPT, scope)
    assert lines == EXPECTED


def test_table_and_measure_checks_survive_optimize_flag():
    src = str(Path(bounds.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CHECKS_SCRIPT], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:-1] == EXPECTED


def test_near_zero_negative_entries_are_clipped_like_conditional_pmf():
    sizes = {"V": 2, "X": 2}
    tables = [np.array([[[0.5, 0.5]]]), np.array([[[1.0 + 1e-13, -1e-13], [0.3, 0.7]]])]
    joint = bounds._realize("wiretap", sizes, tables)
    want = build_factored("wiretap", sizes, [t[0] for t in tables]).realization.tensor
    assert (joint >= 0).all()
    assert np.abs(joint[0] - want).max() <= TOL


class _Captured(Exception):
    pass


def _maximize_objective(monkeypatch):
    """The objective ``maximize`` hands its search (ck_extension), and 8 good stacked tables."""
    seen = []

    def capture(objective, shapes, budget, extra_starts=()):
        seen.append((objective, shapes))
        raise _Captured

    monkeypatch.setattr(bounds, "search_factored", capture)
    with pytest.raises(_Captured):
        maximize("ck_extension", AuxSpec("ck", {"Q": 2, "V": 3}), _bsc_triple(), SearchBudget())
    (objective, shapes), = seen
    rng = np.random.default_rng(0)
    tables = [rng.dirichlet(np.ones(c), size=(8, r)) for r, c in shapes]
    # the search's first call: every start offered its own first row
    return lambda ts: objective(ts, 0, 0, np.arange(8), ts[0][:, 0]), tables


def _set(tables, k, index, value):
    tables = [t.copy() for t in tables]
    tables[k][index] = value
    return tables


BAD_TABLES = {
    # a row off by more than PMF_TOL
    "unnormalized": (lambda ts: _set(ts, 1, (3, 0, 0), ts[1][3, 0, 0] + 1e-9), "does not sum to 1"),
    "nan": (lambda ts: _set(ts, 2, (5, 1), [np.nan, 1.0]), "does not sum to 1"),
    # the row sums to 1, an entry is below -PMF_TOL
    "negative": (lambda ts: _set(ts, 2, (5, 1), [1.0 + 1e-9, -1e-9]), "negative entries"),
}


@pytest.mark.parametrize("kind", BAD_TABLES)
def test_maximize_objective_rejects_bad_tables(monkeypatch, kind):
    objective, tables = _maximize_objective(monkeypatch)
    assert np.isfinite(objective(tables)).all()
    bad, message = BAD_TABLES[kind]
    with pytest.raises(DistributionError, match=message):
        objective(bad(tables))


def test_maximize_objective_clips_near_zero_negatives(monkeypatch):
    objective, tables = _maximize_objective(monkeypatch)
    got = objective(_set(tables, 2, (5, 1), [1.0 + 1e-13, -1e-13]))
    assert np.array_equal(got, objective(_set(tables, 2, (5, 1), [1.0 + 1e-13, 0.0])))


def test_terms_are_clamped_at_zero_like_joint_pmf():
    # X independent of V: every I(V;R|Q) is 0, and float dust either side of 0
    # must come out as 0 or above, as JointPmf's max(value, 0.0) gives
    rng = np.random.default_rng(8)
    sizes = {"Q": 2, "V": 3, "X": 4}
    pq = rng.dirichlet(np.ones(2), size=(64, 1))
    pvq = rng.dirichlet(np.ones(3), size=(64, 2))
    pxv = rng.dirichlet(np.ones(4), size=(64, 1)).repeat(3, axis=1)
    joint = bounds._realize("ck", sizes, [pq, pvq, pxv])
    channels = bounds._channels(_example_spec())
    for receiver in ("Y1", "Y2", "Z"):
        term = bounds.BoundTerms((bounds._expr(f"I(V;{receiver}|Q)"),))
        value = bounds._BoundPlan(term, bounds.PATTERNS["ck"][0], channels)(joint)
        assert (value >= 0).all() and value.max() <= 1e-12


def test_channel_alphabet_mismatch_is_rejected():
    d = sampling.random_dist("ck", {"Q": 2, "V": 2, "X": 3}, np.random.default_rng(0))
    with pytest.raises(DistributionError):
        bounds.ck_extension_rate(d, _bsc_triple())
