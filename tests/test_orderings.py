"""Channel ordering verdicts: worked examples and witness contracts.

The less-noisy and more-capable searches evaluate every start of a call in
one batched engine call; ``reference_search.minimize_gap`` is the per-point
``JointPmf`` search they replaced, and both must take the same path.
"""

from fractions import Fraction as F

import numpy as np
import pytest

import reference_search
from wiretap3 import optim, orderings
from wiretap3.optim import SearchBudget
from wiretap3.orderings import (
    VIOLATION_TOL,
    check_degraded,
    check_less_noisy,
    check_more_capable,
)
from wiretap3.probability import (
    ConditionalPmf,
    DistributionError,
    bsc,
    cascade,
    erase_further,
    erasure_channel,
)

FAST = SearchBudget(grid_points=10, restarts=8, seed=7, refine_sweeps=40)


class TestDegraded:
    def test_identical_channels(self):
        v = check_degraded(bsc(F(1, 10)), bsc(F(1, 10)))
        assert v.holds is True
        assert v.witness.exact == ConditionalPmf.identity(2).exact

    def test_bsc_pair_witness_is_bsc_eighth(self):
        v = check_degraded(bsc(F(1, 10)), bsc(F(1, 5)))
        assert v.holds is True
        assert v.witness.exact == bsc(F(1, 8)).exact

    def test_fig1_z1_degraded_wrt_y11(self):
        y11 = erasure_channel(F(1, 2))
        z1 = cascade(y11, erase_further(F(2, 3)))
        v = check_degraded(y11, z1)
        assert v.holds is True
        recomposed = cascade(y11, v.witness)
        assert np.allclose(recomposed.matrix, z1.matrix, atol=1e-9)

    def test_reverse_direction_infeasible(self):
        v = check_degraded(bsc(F(1, 5)), bsc(F(1, 10)))
        assert v.holds is False

    def test_float_inputs_use_tolerance_corridor(self):
        v = check_degraded(bsc(0.1), bsc(0.2))
        assert v.holds is True
        assert "1e-9" in v.resolution

    def test_dimension_mismatch(self):
        with pytest.raises(DistributionError):
            check_degraded(bsc(F(1, 10)), ConditionalPmf([[1, 0], [0, 1], [1, 0]]))

    def test_float_corridor_accepts_tiny_perturbations_only(self):
        rng = np.random.default_rng(12)
        y = ConditionalPmf(rng.dirichlet(np.ones(3), size=2))
        w = rng.dirichlet(np.ones(2), size=3)
        z_exact = y.matrix @ w
        # well inside the 1e-9 corridor
        tiny = z_exact + np.array([[1e-12, -1e-12], [-1e-12, 1e-12]])
        assert check_degraded(y, ConditionalPmf(tiny)).holds is True
        # far outside the corridor
        big = z_exact.copy()
        big[:, 0] += 2e-3
        big[:, 1] -= 2e-3
        big = np.clip(big, 0, None)
        big /= big.sum(axis=1, keepdims=True)
        verdict = check_degraded(y, ConditionalPmf(big))
        # the perturbed channel may or may not remain degraded through some
        # other W; what must hold is that the verdict is decided and the
        # witness, if any, recomposes within the corridor
        if verdict.holds:
            assert np.allclose(
                y.matrix @ verdict.witness.matrix,
                big, atol=1e-9 + 1e-12,
            )

    @pytest.mark.parametrize("y,z,witness", [
        (bsc(0.1), bsc(0.2), [
            ["908651950243594878227393280370279/1038459371706965576146415092393575",
             "129807421463370697919021812023296/1038459371706965576146415092393575"],
            ["129807421463370669095984196852121/1038459371706965576146415092393575",
             "908651950243594907050430895541454/1038459371706965576146415092393575"]]),
        (bsc(0.1), bsc(0.3), [
            ["259614842926741399440923325942989/346153123902321858715471697464525",
             "86538280975580459274548371521536/346153123902321858715471697464525"],
            ["86538280975580488097585986692711/346153123902321858715471697464525",
             "259614842926741370617885710771814/346153123902321858715471697464525"]]),
        (ConditionalPmf([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]]),
         ConditionalPmf([[0.3, 0.4, 0.3], [0.35, 0.3, 0.35]]), [
            ["71394081804853828371114587408305/623075623024179233278002356268567",
             "324518553658426723180276318679858/623075623024179233278002356268567",
             "75720995853632893908870483393468/207691874341393077759334118756189"],
            ["1", "0", "0"],
            ["123317050390202148251263943646905/623075623024179233278002356268567",
             "220672616487730141066052836545004/623075623024179233278002356268567",
             "93028652048748981320228525358886/207691874341393077759334118756189"]]),
        # an exact Y against a float Z: the corridor, with Y's entries as given
        (bsc(F(1, 10)), bsc(0.2), [
            ["126100789566373887/144115188075855872", "18014398509481985/144115188075855872"],
            ["18014398509481977/144115188075855872", "126100789566373895/144115188075855872"]]),
    ])
    def test_float_corridor_witness_is_pinned(self, y, z, witness):
        # the LP reads each float entry at its exact binary value, so its
        # vertex, and the witness, are exact rationals fixed by the inputs
        v = check_degraded(y, z)
        assert (v.holds, v.resolution) == (True, "LP feasible at 1e-9")
        assert v.witness.exact == tuple(tuple(F(q) for q in row) for row in witness)

    def test_witness_recomposes_on_random_degraded_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            y = ConditionalPmf(rng.dirichlet(np.ones(3), size=2))
            w = ConditionalPmf(rng.dirichlet(np.ones(2), size=3))
            z = ConditionalPmf(y.matrix @ w.matrix)
            v = check_degraded(y, z)
            assert v.holds is True
            assert np.allclose(y.matrix @ v.witness.matrix, z.matrix, atol=1e-9)


class TestLessNoisy:
    def test_degraded_pair_is_less_noisy(self):
        v = check_less_noisy(bsc(F(1, 10)), bsc(F(1, 5)), FAST)
        assert v.holds is True
        assert "degraded" in v.resolution

    def test_identical_channels(self):
        v = check_less_noisy(bsc(F(1, 4)), bsc(F(1, 4)), FAST)
        assert v.holds is True

    def test_erasure_vs_identity_counterexample(self):
        v = check_less_noisy(erasure_channel(F(9, 10)), ConditionalPmf.identity(2), FAST)
        assert v.holds is False
        assert v.margin > 1e-9
        # re-evaluate the witness through the information measures
        j = v.witness
        j = j.extend(("X",), [("Y", 3)], erasure_channel(F(9, 10)))
        j = j.extend(("X",), [("Z", 2)], ConditionalPmf.identity(2))
        gap = j.mutual_information(("U",), ("Y",)) - j.mutual_information(("U",), ("Z",))
        assert gap == pytest.approx(-v.margin, abs=1e-9)

    def test_bec_vs_bsc_verdicts(self):
        # BEC(e) is less noisy than BSC(s) iff e <= 4s(1-s) = 16/25 here; a
        # violation, where there is one, has a witness at |U| = 2
        budget = SearchBudget(restarts=64, seed=7)
        v = check_less_noisy(erasure_channel(F(7, 10)), bsc(F(1, 5)), budget)
        assert (v.holds, v.resolution) == (False, "counterexample at |U|=2")
        assert v.margin == pytest.approx(0.0145247027, abs=1e-9)
        v = check_less_noisy(erasure_channel(F(1, 2)), bsc(F(1, 5)), budget)
        assert (v.holds, v.resolution) == (None, "no violation found at |U|=2, 64 restarts")

    def test_no_counterexample_is_undetermined_not_true(self):
        # a genuinely less-noisy but non-degraded pair would land here too;
        # for a BSC vs an unrelated channel the search may simply fail
        y = ConditionalPmf([[0.7, 0.3], [0.25, 0.75]])
        v = check_less_noisy(y, cascade(y, bsc(0.05)), FAST)
        assert v.holds is True  # still degraded (explicit composition)


class TestMoreCapable:
    def test_identical(self):
        v = check_more_capable(bsc(F(1, 3)), bsc(F(1, 3)), FAST)
        assert v.holds is True

    def test_bsc_degraded_pair(self):
        v = check_more_capable(bsc(F(1, 10)), bsc(F(1, 5)), FAST)
        assert v.holds is True

    def test_identity_vs_erasure_and_reverse(self):
        v = check_more_capable(ConditionalPmf.identity(2), erasure_channel(F(3, 10)), FAST)
        assert v.holds is True
        rev = check_more_capable(erasure_channel(F(3, 10)), ConditionalPmf.identity(2), FAST)
        assert rev.holds is False
        # uniform input witnesses the violation: I(X;Y) = 0.7 H(X) < H(X)
        assert rev.margin == pytest.approx(0.3, abs=1e-6)
        assert np.allclose(rev.witness.tensor, [0.5, 0.5], atol=1e-6)

    def test_verdict_not_boolable(self):
        v = check_more_capable(bsc(F(1, 10)), bsc(F(1, 5)), FAST)
        with pytest.raises(TypeError):
            bool(v)


class TestBatchedSearch:
    PAIRS = [
        (erasure_channel(F(1, 2)), bsc(F(1, 5))),
        (bsc(0.1), erasure_channel(0.3)),
        (erasure_channel(0.9), bsc(0.4)),
    ]

    @pytest.mark.parametrize("relation", ["less_noisy", "more_capable"])
    @pytest.mark.parametrize("y, z", PAIRS, ids=["bec-bsc", "bsc-bec", "noisy-bec-bsc"])
    def test_matches_the_per_point_search(self, monkeypatch, relation, y, z):
        budget = SearchBudget(restarts=64, seed=1, refine_sweeps=60)
        runs, refined = [], []
        refine = optim.refine_rows

        def recording(*args, **kwargs):
            runs.append(optim.search_factored(*args, **kwargs))
            return runs[-1]

        def recording_refine(*args, **kwargs):
            refined.append(refine(*args, **kwargs))  # every start's value and tables
            return refined[-1]

        monkeypatch.setattr(orderings, "search_factored", recording)
        monkeypatch.setattr(optim, "refine_rows", recording_refine)
        if relation == "less_noisy":
            verdict, shape = check_less_noisy(y, z, budget), (2, y.rows)
        else:
            verdict, shape = check_more_capable(y, z, budget), (y.rows,)
        want, least, _ = reference_search.minimize_gap(y, z, shape, budget)
        (got,), ((got_values, got_tables, *_), (want_values, want_tables, *_)) = runs, refined
        assert got.evaluations == want.evaluations
        # every start takes the reference's path; its value may differ by rounding
        assert all(np.array_equal(a, b) for a, b in zip(got_tables, want_tables))
        assert np.array_equal(np.isnan(got_values), np.isnan(want_values))
        assert np.nanmax(np.abs(got_values - want_values)) <= 1e-15
        # starts tied within rounding dust: the first largest may be any of them
        n_extra = len(want_values) - budget.restarts
        k = got.best_restart + n_extra if got.best_restart >= 0 else -1 - got.best_restart
        assert want_values[k] >= np.nanmax(want_values) - 1e-15
        assert int(np.nanargmax(got_values)) == k  # the first largest of the engine's own values
        argmin = want_tables[0][k][0].reshape(shape)  # the reference's tables of that start
        assert abs(-got.value - least) <= 1e-12
        assert np.array_equal(got.params[0][0].reshape(shape), argmin)
        if least < -VIOLATION_TOL:
            assert verdict.holds is False
            assert abs(verdict.margin + least) <= 1e-12
            assert np.array_equal(verdict.witness.tensor, argmin)
        else:
            assert verdict.holds is None and verdict.witness is None
