"""The hard-coded example channel: closed forms and the 5/6 reproduction."""

import numpy as np
import pytest

from wiretap3.fig1 import (
    Fig1Channel,
    achievability_distribution,
    achievable_rate,
    closed_form_rates,
    component1_measured,
    reproduce_example,
    rck_upper_bound_objective,
    second_component_measures,
)
from wiretap3.optim import SearchBudget
from wiretap3.orderings import check_degraded


class TestClosedForms:
    def test_gamma_half(self):
        cf = closed_form_rates(0.5)
        assert cf.diff_y21 == pytest.approx(5 / 6, abs=1e-12)
        assert cf.diff_y11 == pytest.approx(1 / 3, abs=1e-12)

    def test_gamma_zero(self):
        cf = closed_form_rates(0.0)
        assert cf.i_y21 == cf.i_y11 == cf.i_z1 == 0.0

    def test_gamma_03(self):
        # frozen from the stated oracle: H(0.3) = 0.881291 by the entropy op,
        # then (5/6) H and (1/3) H
        cf = closed_form_rates(0.3)
        h = 0.8812908992306927
        assert cf.i_y21 == pytest.approx(h, abs=1e-12)
        assert cf.diff_y21 == pytest.approx(5 * h / 6, abs=1e-12)
        assert cf.diff_y21 == pytest.approx(0.734409, abs=1e-6)
        assert cf.diff_y11 == pytest.approx(h / 3, abs=1e-12)
        assert cf.diff_y11 == pytest.approx(0.293764, abs=1e-6)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            closed_form_rates(1.5)

    def test_reconstruction_oracle_50_gammas(self):
        # generic evaluation on the wiring is the authoritative check
        rng = np.random.default_rng(11)
        worst = 0.0
        for g in rng.uniform(0, 1, size=50):
            cf, meas = closed_form_rates(g), component1_measured(g)
            worst = max(
                worst,
                abs(cf.i_y21 - meas.i_y21),
                abs(cf.i_y11 - meas.i_y11),
                abs(cf.i_z1 - meas.i_z1),
                abs(cf.diff_y21 - meas.diff_y21),
                abs(cf.diff_y11 - meas.diff_y11),
            )
        assert worst < 1e-10


class TestWiring:
    def test_degradedness_witnesses_exist(self):
        chan = Fig1Channel.build()
        v1 = check_degraded(chan.y11, chan.z1)
        assert v1.holds is True and v1.witness is not None
        v2 = check_degraded(chan.y12, chan.z2)
        assert v2.holds is True and v2.witness is not None

    def test_z2_is_half_erasure_of_y12(self):
        chan = Fig1Channel.build()
        w = chan.z2_from_y12()
        composed = chan.y12.matrix @ w.matrix
        assert np.allclose(composed, chan.z2.matrix, atol=1e-12)

    @staticmethod
    def _stacked_matches_points(tables_list):
        """One stacked call over every point; each entry equals its own call."""
        stack = [np.stack([t[k] for t in tables_list]) for k in range(3)]
        iy_b, iz_b = second_component_measures(stack)
        assert iy_b.shape == iz_b.shape == (len(tables_list),)
        for b, tables in enumerate(tables_list):
            iy, iz = second_component_measures(tables)
            assert abs(iy_b[b] - iy) <= 1e-12 and abs(iz_b[b] - iz) <= 1e-12
        return iy_b, iz_b

    def test_second_component_halving_identity_200_dists(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        points = []
        for _ in range(200):
            tables = [
                rng.dirichlet(np.ones(3), size=1),
                rng.dirichlet(np.ones(4), size=3),
                rng.dirichlet(np.ones(2), size=4),
            ]
            points.append(tables)
            iy, iz = second_component_measures(tables)
            worst = max(worst, abs(iz - 0.5 * iy))
        assert worst < 1e-10
        iy_b, iz_b = self._stacked_matches_points(points)
        assert np.abs(iz_b - 0.5 * iy_b).max() < 1e-10

    def test_difference_equals_z_side(self):
        # I(V2;Y12|Q2) - I(V2;Z2|Q2) = I(V2;Z2|Q2) on this wiring
        rng = np.random.default_rng(8)
        points = []
        for _ in range(50):
            tables = [
                rng.dirichlet(np.ones(2), size=1),
                rng.dirichlet(np.ones(3), size=2),
                rng.dirichlet(np.ones(2), size=3),
            ]
            points.append(tables)
            iy, iz = second_component_measures(tables)
            assert (iy - iz) == pytest.approx(iz, abs=1e-10)
        iy_b, iz_b = self._stacked_matches_points(points)
        assert np.abs((iy_b - iz_b) - iz_b).max() < 1e-10


class TestExampleReproduction:
    def test_achievability_is_five_sixths(self):
        assert abs(achievable_rate() - 5 / 6) < 1e-10

    def test_achievability_distribution_shape(self):
        d = achievability_distribution()
        j = d.realization
        # X1 = V and X2 uniform: marginal on X is uniform over 4 symbols
        assert np.allclose(j.marginal(("X",)).tensor, np.full(4, 0.25), atol=1e-12)

    def test_upper_bound_objective_peak(self):
        # min{1/3 + z, 5/6 - z} peaks at 7/12 when the halving identity holds
        zs = np.linspace(0, 0.5, 101)
        best = max(rck_upper_bound_objective(2 * z, z) for z in zs)
        assert best == pytest.approx(7 / 12, abs=1e-6)

    def test_report_small_budget(self):
        rep = reproduce_example(SearchBudget(restarts=6, seed=5))
        assert abs(rep.achievable - 5 / 6) < 1e-10
        assert rep.rck_best <= 7 / 12 + 1e-9
        assert rep.rck_gap > 1e-3 and rep.gap_is_strict
        assert rep.identity_max_deviation < 1e-8

    def test_corollary1_maximization_attains_five_sixths(self):
        from wiretap3.bounds import AuxSpec, maximize

        bc = Fig1Channel.build().broadcast()
        res = maximize(
            "corollary1", AuxSpec("ck", {"Q": 1, "V": 2}), bc,
            SearchBudget(restarts=8, seed=4),
        )
        assert res.value >= 5 / 6 - 1e-3

    def test_full_channel_ck_search_stays_below_five_sixths(self):
        # the two-receiver extension maximized over the whole example
        # channel never reaches the indirect-decoding value
        from wiretap3.bounds import AuxSpec, maximize

        bc = Fig1Channel.build().broadcast()
        res = maximize(
            "ck_extension", AuxSpec("ck", {"Q": 3, "V": 4}), bc,
            SearchBudget(restarts=2, seed=17, refine_sweeps=30),
        )
        assert res.value < 5 / 6 - 1e-3
