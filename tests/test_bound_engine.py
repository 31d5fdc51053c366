"""The batched bound engine against the per-point ``JointPmf`` path it replaced.

``reference_bounds`` keeps the old evaluators and the old maximize loop, one
``per_point`` call of ``fn(source_joint(...), chans)`` per start.  The
engine must reach the same maxima by the same search paths, give the same
values on stacks (NaN exactly where the old theorem1 returned None), give
each point of a stack the bits it gets alone, and keep its table and
measure checks under ``python -O``.  The compiled ``_BoundPlan`` must give
the bits of the memoized engine it replaced (``reference_bounds.bound_values``).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference_bounds
from wiretap3 import bounds, optim
from wiretap3.bounds import AuxSpec, BroadcastChannels, build_factored, maximize
from wiretap3.optim import SearchBudget
from wiretap3.probability import DistributionError, bsc, erasure_channel
from wiretap3.specfmt import parse_spec

from test_bounds import chans_deg

TOL = 1e-12
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
        shapes, expand = bounds.factor_shapes(pattern, sizes), lambda tables: tables
    else:
        shapes, expand = bounds._search_spaces("theorem1", sizes)[
            ("z_ignores_v2", "z_ignores_v1").index(kind)
        ]
    return expand([rng.dirichlet(np.ones(cols), size=(64, rows)) for rows, cols in shapes])


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


@pytest.mark.parametrize("bound_id,cards,channel,kind", STACK_CASES)
def test_compiled_plan_matches_the_memoized_engine(bound_id, cards, channel, kind):
    chans = CHANNELS[channel]()
    tables = _tables_for(bound_id, cards, chans, kind, seed=29)
    pattern = bounds.bound_pattern(bound_id)
    joint = bounds._realize(pattern, AuxSpec(pattern, cards).resolve(chans.x_size), tables)
    want = reference_bounds.bound_values(
        bounds._BOUND_TERMS[bound_id], bounds.PATTERNS[pattern][0], joint, bounds._channels(chans)
    )
    assert np.array_equal(_engine_values(bound_id, cards, chans, tables), want, equal_nan=True)


def test_stacked_family_expansion_matches_per_point():
    sizes = {"Q": 2, "V0": 2, "V1": 3, "V2": 2, "X": 3}
    rng = np.random.default_rng(4)
    for shapes, expand in bounds._search_spaces("theorem1", sizes):
        stack = [rng.dirichlet(np.ones(cols), size=(8, rows)) for rows, cols in shapes]
        together = expand(stack)
        for b in range(8):
            for t, s in zip(together, expand([t[b] for t in stack])):
                assert np.array_equal(t[b], s)


def _admissible_loop_form(sizes, rng, family):
    """``_admissible_tables`` as it was, with per-row ``vstack`` loops."""
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


@pytest.mark.parametrize("family", bounds.ADMISSIBLE_FAMILIES)
@pytest.mark.parametrize("seed", [0, 1, 23])
def test_admissible_tables_are_bit_identical_to_the_loop_form(family, seed):
    for pattern in ("theorem1", "theorem2"):
        head = bounds.PATTERNS[pattern][0][0]
        sizes = {head: 2, "V0": 2, "V1": 3, "V2": 4, "X": 3}
        got = bounds.random_admissible_dist(pattern, sizes, np.random.default_rng(seed), family)
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

# mass 2 instead of 1 puts I(V;Y1) = 2 I(V;Y1) - 2 = -2 below -MEASURE_TOL
doubled = np.full((4, 2, 2), 0.5)
chans = {"Y1": np.eye(2), "Z": np.eye(2)}
try:
    bounds._BoundPlan(bounds._WIRETAP, ("V", "X"), chans)(doubled)
except DistributionError:
    print("term rejected")
"""

EXPECTED = ["table rejected", "table rejected", "term rejected"]


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
    d = bounds.random_dist("ck", {"Q": 2, "V": 2, "X": 3}, np.random.default_rng(0))
    with pytest.raises(DistributionError):
        bounds.ck_extension_rate(d, _bsc_triple())
