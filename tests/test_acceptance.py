"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every tolerance and runtime budget is pinned here, from the project
contract, not calibrated at run time.
"""

import time
from fractions import Fraction as F

import numpy as np

from sampling import random_admissible_dist, random_dist
from vertex_oracle import projection_matches
from wiretap3.bounds import (
    AuxSpec,
    BroadcastChannels,
    MultilevelChannel,
    admissibility_slack,
    build_factored,
    ck_extension_rate,
    corollary1_rate,
    maximize,
    region,
    theorem1_rate,
    ALIGNED_MULTILEVEL_ROWS,
)
from wiretap3.fig1 import (
    Fig1Channel,
    achievable_rate,
    closed_form_rates,
    component1_measured,
    reproduce_example,
    second_component_measures,
)
from wiretap3.fixture_runs import run_rate_split, run_theorem1
from wiretap3.fme import InequalitySystem, LinearInequality, eliminate_all
from wiretap3.optim import SearchBudget
from wiretap3.probability import ConditionalPmf, binary_entropy, bsc, cascade
from wiretap3.simulate import (
    TypicalityParams,
    WiretapRates,
    build_wiretap_codebook,
    decoding_error_rate,
    exact_equivocation,
    lemma1_experiment,
)

H = binary_entropy


def report(criterion: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def uniform_vx():
    return build_factored(
        "wiretap", {"V": 2, "X": 2}, [np.array([[0.5, 0.5]]), np.eye(2)]
    )


def test_criterion_1_example_achievability():
    t0 = time.time()
    value = achievable_rate()
    elapsed = time.time() - t0
    err = abs(value - 5 / 6)
    report(
        1,
        err < 1e-10 and elapsed < 5.0,
        f"corollary1 at V=X1 independent uniform = {value:.12f}, "
        f"|err| = {err:.2e} < 1e-10, {elapsed:.2f}s < 5s",
    )


def test_criterion_2_example_gap():
    t0 = time.time()
    rep = reproduce_example(SearchBudget(restarts=256, seed=20260810))
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        tables = [
            rng.dirichlet(np.ones(3), size=1),
            rng.dirichlet(np.ones(4), size=3),
            rng.dirichlet(np.ones(2), size=4),
        ]
        iy, iz = second_component_measures(tables)
        worst = max(worst, abs(iz - 0.5 * iy))
    elapsed = time.time() - t0
    ok = rep.rck_best <= 5 / 6 - 1e-3 and worst < 1e-10 and elapsed < 120.0
    report(
        2,
        ok,
        f"R_CK best = {rep.rck_best:.6f} <= 5/6 - 1e-3 over 256 restarts; "
        f"halving identity max dev = {worst:.2e} < 1e-10 on 200 dists; "
        f"{elapsed:.1f}s < 120s",
    )


def test_criterion_3_closed_forms():
    rng = np.random.default_rng(42)
    worst = 0.0
    for g in rng.uniform(0.0, 1.0, size=50):
        cf, meas = closed_form_rates(float(g)), component1_measured(float(g))
        worst = max(
            worst,
            abs(cf.i_y21 - meas.i_y21),
            abs(cf.i_y11 - meas.i_y11),
            abs(cf.i_z1 - meas.i_z1),
            abs(cf.diff_y21 - meas.diff_y21),
            abs(cf.diff_y11 - meas.diff_y11),
        )
    report(
        3,
        worst < 1e-10,
        f"generic evaluation matches H, H/2, H/6, (5/6)H, (1/3)H on 50 gammas; "
        f"max dev = {worst:.2e} < 1e-10",
    )


def test_criterion_4_fme_fixtures():
    t0 = time.time()
    th1 = run_theorem1()
    rsp = run_rate_split()
    elapsed = time.time() - t0
    certs_emitted = (
        all(e.get("multipliers") is not None for e in
            th1.certificates["region_equal"]["a_implies_b"])
        and all(v is not None for v in rsp.certificates["numbered"].values())
    )
    ok = th1.ok and rsp.ok and certs_emitted and elapsed < 10.0
    report(
        4,
        ok,
        f"theorem1 checks {dict(th1.checks)}; rate_split checks {dict(rsp.checks)}; "
        f"certificates emitted; exact; {elapsed:.2f}s < 10s",
    )


BOX = F(5)


def _random_fme_case(rng):
    d = int(rng.integers(2, 5))
    n_rows = int(rng.integers(3, 10))
    n_atoms = int(rng.integers(0, 3))
    atoms = [f"I(A{i})" for i in range(n_atoms)]
    names = [f"x{i}" for i in range(d)]
    rows = []
    for r in range(n_rows):
        coeffs = {names[i]: F(int(rng.integers(-3, 4))) for i in range(d)}
        ra = {a: F(int(rng.integers(-2, 3))) for a in atoms}
        const = F(int(rng.integers(-4, 9)), int(rng.integers(1, 4)))
        rows.append(LinearInequality(coeffs, "<=", ra, const, f"r{r}"))
    for i in range(d):
        rows.append(LinearInequality({names[i]: F(1)}, "<=", {}, BOX))
        rows.append(LinearInequality({names[i]: F(-1)}, "<=", {}, BOX))
    bindings = {a: F(int(rng.integers(-3, 4)), int(rng.integers(1, 3))) for a in atoms}
    n_elim = int(rng.integers(1, d))
    return InequalitySystem(names, rows), bindings, names[: d - n_elim], names[d - n_elim:]


def test_criterion_5_fme_vs_vertex_oracle():
    rng = np.random.default_rng(31337)
    t0 = time.time()
    for trial in range(500):
        sys_, bindings, keep, elim = _random_fme_case(rng)
        eliminated = eliminate_all(sys_, elim)
        order = list(sys_.variables)
        in_rows = [
            ([iq.coeffs.get(v, F(0)) for v in order], iq.rhs_const)
            for iq in sys_.bind(bindings).inequalities
        ]
        out_rows = [
            ([iq.coeffs.get(v, F(0)) for v in keep], iq.rhs_const)
            for iq in eliminated.bind(bindings).inequalities
        ]
        keep_idx = [order.index(v) for v in keep]
        ok, why = projection_matches(in_rows, len(order), keep_idx, out_rows)
        assert ok, f"trial {trial}: {why}"
    report(
        5,
        True,
        f"500 random systems (<=4 vars, rational bindings) match the "
        f"vertex-enumeration oracle exactly ({time.time()-t0:.1f}s)",
    )


def test_criterion_6_degraded_wiretap_optimization():
    t0 = time.time()
    ch = BroadcastChannels(bsc(0.1), bsc(0.1), bsc(0.2))
    res = maximize(
        "wiretap", AuxSpec("wiretap", {"V": 2}), ch,
        SearchBudget(restarts=64, seed=606, grid_points=20),
    )
    # independent oracle: exhaustive 1e-3 grid over p(x) at V = X
    def grid_value(gamma):
        y = gamma * 0.9 + (1 - gamma) * 0.1
        z = gamma * 0.8 + (1 - gamma) * 0.2
        return (H(y) - H(0.1)) - (H(z) - H(0.2))

    grid_opt = max(grid_value(k / 1000) for k in range(1001))
    elapsed = time.time() - t0
    ok = res.value >= 0.2519 and abs(grid_opt - 0.252932) < 1e-6 and elapsed < 30.0
    report(
        6,
        ok,
        f"max wiretap = {res.value:.6f} >= 0.2519 (grid oracle {grid_opt:.6f}); "
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_7_simulator_exactness():
    d = uniform_vx()
    W = bsc(0.25)
    chan_y = bsc(0.1)
    chan_z = cascade(chan_y, W)
    worst_identity = 0.0
    monotone_ok = True
    for seed in range(20):
        n = 4 + 2 * (seed % 3)
        cb = build_wiretap_codebook(
            d, WiretapRates(0.25, 0.5 + 0.125 * (seed % 2), 0.0),
            TypicalityParams(n, 0.5), seed,
        )
        ry = exact_equivocation(cb, chan_y)
        rz = exact_equivocation(cb, chan_z)
        for rep in (ry, rz):
            worst_identity = max(
                worst_identity,
                abs(rep.equivocation_rate + rep.leakage_rate - rep.message_rate),
            )
        monotone_ok &= rz.leakage_rate <= ry.leakage_rate + 1e-9
    report(
        7,
        worst_identity < 1e-9 and monotone_ok,
        f"equivocation + leakage = H(M)/n within {worst_identity:.2e} < 1e-9 on 40 "
        f"exact runs; degraded-leakage monotonicity on 20 seeded configurations",
    )


def test_criterion_8_finite_n_secrecy_trend():
    # (a) Wyner binning leakage trend on the BSC(0.1)/BSC(0.2) pair
    d = uniform_vx()
    rate = 0.8 * (H(0.2) - H(0.1))
    chan_z = bsc(0.2)
    decreasing_seeds = 0
    for seed in range(5):
        leaks = []
        for n in (2, 4, 6, 8):
            cb = build_wiretap_codebook(
                d, WiretapRates(rate, 1.4, 0.0), TypicalityParams(n, 0.5), seed
            )
            leaks.append(exact_equivocation(cb, chan_z).leakage_rate)
        if all(leaks[i] > leaks[i + 1] for i in range(3)):
            decreasing_seeds += 1
    # (b) indirect decoding on the example channel
    chan = Fig1Channel.build()
    bc = chan.broadcast()
    dv = build_factored(
        "wiretap", {"V": 2, "X": 4},
        [np.array([[0.5, 0.5]]), np.array([[0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5]])],
    )
    pe = {}
    for tag, rm, rs, ns in (
        ("in", 0.75, 0.25, (4, 8)),       # 0.9 * 5/6
        ("out", 11 / 12, 0.65, (8,)),     # 1.1 * 5/6
    ):
        for n in ns:
            params = TypicalityParams(n=n, epsilon=2.0)
            cb = build_wiretap_codebook(dv, WiretapRates(rm, rm, rs), params, seed=11)
            pe[(tag, n)], _ = decoding_error_rate(
                cb, bc.to_y1, params, trials=1000, seed=77, decoder="indirect"
            )
    decode_ok = (
        pe[("in", 4)] > pe[("in", 8)]
        and pe[("in", 8)] < 0.2
        and pe[("out", 8)] > 0.5
    )
    ok = decreasing_seeds >= 4 and decode_ok
    report(
        8,
        ok,
        f"leakage strictly decreasing over n in (2,4,6,8) for {decreasing_seeds}/5 "
        f"seeds (need >= 4); indirect decoding P_e inside {pe[('in',4)]:.3f} -> "
        f"{pe[('in',8)]:.3f} (decreasing, < 0.2 at n=8), outside {pe[('out',8)]:.3f} > 0.5",
    )


def test_criterion_9_lemma1_concentration():
    from wiretap3.probability import Factor, FactoredDistribution

    fd = FactoredDistribution(
        [("U", 2), ("V", 2), ("Z", 2)],
        [Factor(["U"], [], [[0.5, 0.5]]),
         Factor(["V"], ["U"], bsc(0.25)),
         Factor(["Z"], ["V"], bsc(0.25))],
    )
    info = fd.realization.conditional_mutual_information(("V",), ("Z",), ("U",))
    rep = lemma1_experiment(
        fd, info + 0.3, TypicalityParams(n=10, epsilon=2.0), trials=1000, seed=9
    )
    ok = rep.exceedance_frequency < 0.05 and rep.in_concentration_regime
    report(
        9,
        ok,
        f"exceedance of the concentration threshold = {rep.exceedance_frequency:.4f} "
        f"< 0.05 at n=10 over 1000 trials (S = I(V;Z|U) + 0.3, "
        f"I = {rep.info_rate:.3f}, threshold {rep.threshold:.1f})",
    )


def _collapse_theorem1(ck):
    pq = ck.factors[0].table.matrix
    pvq = ck.factors[1].table.matrix
    pxv = ck.factors[2].table.matrix
    nq, nv, nx = pq.shape[1], pvq.shape[1], pxv.shape[1]
    copy = np.zeros((nv, nv * nv))
    for v in range(nv):
        copy[v, v * nv + v] = 1.0
    px = np.vstack([pxv[v0] for v0 in range(nv) for _ in range(nv * nv)])
    return build_factored(
        "theorem1", {"Q": nq, "V0": nv, "V1": nv, "V2": nv, "X": nx},
        [pq, pvq, copy, px],
    )


def test_criterion_10_region_consistency():
    rng = np.random.default_rng(1010)
    ch = BroadcastChannels(bsc(0.12), cascade(bsc(0.12), bsc(0.1)), bsc(0.3))
    worst_collapse = 0.0
    worst_vx = 0.0
    worst_domination = 0.0
    for _ in range(100):
        # (i) full collapse V0 = V1 = V2 = V reproduces the two-receiver rate
        ck = random_dist("ck", {"Q": 2, "V": 3, "X": 2}, rng)
        t1 = _collapse_theorem1(ck)
        got = theorem1_rate(t1, ch)
        assert got is not None
        worst_collapse = max(worst_collapse, abs(got - ck_extension_rate(ck, ch)))
        # (ii) corollary1 with V = X equals the plain extension with V = X
        ckx = build_factored(
            "ck", {"Q": 2, "V": 2, "X": 2},
            [rng.dirichlet(np.ones(2), size=1), rng.dirichlet(np.ones(2), size=2),
             np.eye(2)],
        )
        worst_vx = max(
            worst_vx, abs(corollary1_rate(ckx, ch) - ck_extension_rate(ckx, ch))
        )
        # (iii) summing the first two rate rows dominates the eliminated third
        adm = random_admissible_dist(
            "theorem1", {"Q": 2, "V0": 2, "V1": 2, "V2": 2, "X": 2}, rng
        )
        j = adm.realization
        j = j.extend(("X",), [("Y1", 2)], ch.to_y1)
        j = j.extend(("X",), [("Y2", 2)], ch.to_y2)
        j = j.extend(("X",), [("Z", 2)], ch.to_z)
        assert admissibility_slack(j) >= -1e-9
        cmi = j.conditional_mutual_information
        r1 = cmi(("V0", "V1"), ("Y1",), ("Q",)) - cmi(("V0", "V1"), ("Z",), ("Q",))
        r2 = cmi(("V0", "V2"), ("Y2",), ("Q",)) - cmi(("V0", "V2"), ("Z",), ("Q",))
        third = (
            cmi(("V0", "V1"), ("Y1",), ("Q",))
            + cmi(("V0", "V2"), ("Y2",), ("Q",))
            - 2 * cmi(("V0",), ("Z",), ("Q",))
            - cmi(("V1",), ("V2",), ("V0",))
        )
        worst_domination = max(worst_domination, (r1 + r2) - third)
    # multilevel inner vs outer with V = X
    y1z3 = np.zeros((2, 4))
    for x in range(2):
        for y1 in range(2):
            for z3 in range(2):
                y1z3[x, y1 * 2 + z3] = (0.9 if y1 == x else 0.1) * (
                    0.7 if z3 == x else 0.3
                )
    ml = MultilevelChannel(ConditionalPmf(y1z3), 2, 2, bsc(0.2))
    worst_ml = -np.inf
    for _ in range(100):
        d = build_factored(
            "multilevel", {"U": 2, "U3": 2, "V": 2, "X": 2},
            [rng.dirichlet(np.ones(2), size=1), rng.dirichlet(np.ones(2), size=2),
             rng.dirichlet(np.ones(2), size=2), np.eye(2)],
        )
        inner = region("prop2-inner", d, ml)
        outer = region("prop3-outer", d, ml)
        for label in ALIGNED_MULTILEVEL_ROWS:
            worst_ml = max(worst_ml, inner.rhs(label) - outer.rhs(label))
    ok = (
        worst_collapse < 1e-10
        and worst_vx < 1e-10
        and worst_domination < 1e-10
        and worst_ml < 1e-10
    )
    report(
        10,
        ok,
        f"collapse identity dev {worst_collapse:.2e}, V=X identity dev "
        f"{worst_vx:.2e}, third-row domination slack {worst_domination:.2e} on 100 "
        f"admissible dists; prop2 <= prop3 aligned-row excess {worst_ml:.2e} on 100 "
        f"multilevel dists with V=X (all < 1e-10)",
    )
