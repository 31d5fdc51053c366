"""Rate-bound evaluators, region samples, and the maximizer."""

import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from sampling import random_admissible_dist, random_dist
from wiretap3 import bounds
from wiretap3.bounds import (
    AuxSpec,
    BroadcastChannels,
    MultilevelChannel,
    PatternError,
    ProductComponent,
    ReevaluationError,
    admissibility_slack,
    build_factored,
    ck_extension_rate,
    corollary1_rate,
    evaluate_bound,
    maximize,
    region,
    reversely_degraded_bound,
    theorem1_rate,
    wiretap_rate,
    ALIGNED_MULTILEVEL_ROWS,
)
from wiretap3.optim import SearchBudget
from wiretap3.probability import (
    AxisError,
    ConditionalPmf,
    DistributionError,
    JointPmf,
    binary_entropy,
    bsc,
    cascade,
    erase_further,
    erasure_channel,
)

H = binary_entropy
FAST = SearchBudget(grid_points=8, restarts=8, seed=11, refine_sweeps=40)


def uniform_vx(nx=2):
    return build_factored(
        "wiretap", {"V": nx, "X": nx},
        [np.full((1, nx), 1.0 / nx), np.eye(nx)],
    )


def ck_from(pq, pvq, pxv):
    sizes = {"Q": pq.shape[1], "V": pvq.shape[1], "X": pxv.shape[1]}
    return build_factored("ck", sizes, [pq, pvq, pxv])


def theorem1_collapsed(ck):
    """V0 = V1 = V2 = V: the Marton layers copy the ck auxiliary."""
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


def chans_deg():
    return BroadcastChannels(bsc(0.15), erasure_channel(0.4), bsc(0.3))


class TestWiretap:
    def test_symmetric_channels_zero(self):
        assert wiretap_rate(uniform_vx(), bsc(0.1), bsc(0.1)) == pytest.approx(0.0, abs=1e-12)

    def test_bsc_pair_value(self):
        got = wiretap_rate(uniform_vx(), bsc(0.1), bsc(0.2))
        assert got == pytest.approx(H(0.2) - H(0.1), abs=1e-12)
        assert got == pytest.approx(0.252932, abs=1e-6)

    def test_fig1_first_component(self):
        y21 = ConditionalPmf.identity(2)
        z1 = cascade(erasure_channel(F(1, 2)), erase_further(F(2, 3)))
        got = wiretap_rate(uniform_vx(), y21, z1)
        assert got == pytest.approx(5 / 6, abs=1e-12)

    def test_alphabet_mismatch(self):
        with pytest.raises(Exception):
            wiretap_rate(uniform_vx(2), ConditionalPmf.identity(3), bsc(0.1))


class TestCkExtension:
    def test_all_channels_equal_zero(self):
        ch = BroadcastChannels(bsc(0.1), bsc(0.1), bsc(0.1))
        d = ck_from(np.array([[1.0]]), np.array([[0.5, 0.5]]), np.eye(2))
        assert ck_extension_rate(d, ch) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_q_reduces_to_unconditioned(self):
        rng = np.random.default_rng(0)
        pvq = rng.dirichlet(np.ones(3), size=1)
        pxv = rng.dirichlet(np.ones(2), size=3)
        d1 = ck_from(np.array([[1.0]]), pvq, pxv)
        ch = chans_deg()
        # |Q| = 2 with both rows equal has the same value
        d2 = ck_from(np.array([[0.4, 0.6]]), np.vstack([pvq, pvq]), pxv)
        assert ck_extension_rate(d1, ch) == pytest.approx(ck_extension_rate(d2, ch), abs=1e-10)


class TestCorollary1:
    def test_equals_ck_at_v_equals_x(self):
        rng = np.random.default_rng(5)
        d = ck_from(
            rng.dirichlet(np.ones(2), size=1), rng.dirichlet(np.ones(2), size=2), np.eye(2)
        )
        ch = chans_deg()
        assert corollary1_rate(d, ch) == pytest.approx(ck_extension_rate(d, ch), abs=1e-10)

    def test_q_split_dominates_single_components(self):
        # |Q|=2 time sharing two product dists is at least both single-Q values
        rng = np.random.default_rng(8)
        pv_a = rng.dirichlet(np.ones(3), size=1)
        pv_b = rng.dirichlet(np.ones(3), size=1)
        pxv = rng.dirichlet(np.ones(2), size=3)
        ch = chans_deg()
        split = ck_from(np.array([[0.5, 0.5]]), np.vstack([pv_a, pv_b]), pxv)
        single_a = ck_from(np.array([[1.0]]), pv_a, pxv)
        single_b = ck_from(np.array([[1.0]]), pv_b, pxv)
        va, vb = corollary1_rate(single_a, ch), corollary1_rate(single_b, ch)
        # time sharing averages per-Q terms before the min, so it is at
        # least the average of per-component minima and at least min(va,vb)
        assert corollary1_rate(split, ch) >= min(va, vb) - 1e-10


class TestTheorem1:
    def test_collapse_to_ck(self):
        rng = np.random.default_rng(1)
        ch = chans_deg()
        for _ in range(5):
            ck = random_dist("ck", {"Q": 2, "V": 3, "X": 2}, rng)
            t1 = theorem1_collapsed(ck)
            a = theorem1_rate(t1, ch)
            assert a is not None
            assert a == pytest.approx(ck_extension_rate(ck, ch), abs=1e-10)

    def test_remark_41_reduction(self):
        # V1 = (V0, X), V2 = V0 with V0 the ck auxiliary reproduces corollary1
        rng = np.random.default_rng(2)
        ch = chans_deg()
        for _ in range(5):
            pq = rng.dirichlet(np.ones(2), size=1)
            pvq = rng.dirichlet(np.ones(3), size=2)
            pxv = rng.dirichlet(np.ones(2), size=3)
            ck = ck_from(pq, pvq, pxv)
            nv, nx = 3, 2
            # V1 alphabet = V0 x X, V2 = copy of V0
            n1 = nv * nx
            pv12 = np.zeros((nv, n1 * nv))
            for v0 in range(nv):
                for x in range(nx):
                    v1 = v0 * nx + x
                    pv12[v0, v1 * nv + v0] = pxv[v0, x]
            px = np.zeros((nv * n1 * nv, nx))
            for v0 in range(nv):
                for v1 in range(n1):
                    for v2 in range(nv):
                        px[(v0 * n1 + v1) * nv + v2, v1 % nx] = 1.0
            t1 = build_factored(
                "theorem1", {"Q": 2, "V0": nv, "V1": n1, "V2": nv, "X": nx},
                [pq, pvq, pv12, px],
            )
            got = theorem1_rate(t1, ch)
            assert got is not None
            assert got == pytest.approx(corollary1_rate(ck, ch), abs=1e-10)

    def test_inadmissible_returns_none(self):
        # V1, V2 independent fair bits, Z = V1 xor V2: strictly superadditive
        pq = np.array([[1.0]])
        pv0 = np.array([[1.0]])
        pv12 = np.full((1, 4), 0.25)
        px = np.array([[1, 0], [0, 1], [0, 1], [1, 0]], dtype=float)
        d = build_factored(
            "theorem1", {"Q": 1, "V0": 1, "V1": 2, "V2": 2, "X": 2}, [pq, pv0, pv12, px]
        )
        ch = BroadcastChannels(ConditionalPmf.identity(2), ConditionalPmf.identity(2),
                               ConditionalPmf.identity(2))
        assert theorem1_rate(d, ch) is None

    def test_generic_dists_are_inadmissible(self):
        # the constraint rearranges to I(V1;V2|V0,Z) <= 0, so unstructured
        # random distributions land outside the admissible manifold
        rng = np.random.default_rng(99)
        ch = chans_deg()
        for _ in range(10):
            d = random_dist("theorem1", {"Q": 2, "V0": 2, "V1": 2, "V2": 2, "X": 2}, rng)
            j = d.realization.extend(("X",), [("Z", 2)], ch.to_z)
            slack = admissibility_slack(j)
            cmi = j.conditional_mutual_information(("V1",), ("V2",), ("V0", "Z"))
            assert slack == pytest.approx(-cmi, abs=1e-10)
            assert theorem1_rate(d, ch) is None or slack >= -1e-9

    def test_first_two_rows_dominate_third_on_admissible_dists(self):
        # summing the two rate rows is at least as tight as the sum-rate row
        rng = np.random.default_rng(3)
        ch = chans_deg()
        for checked in range(20):
            d = random_admissible_dist(
                "theorem1", {"Q": 2, "V0": 2, "V1": 2, "V2": 2, "X": 2}, rng
            )
            j = d.realization.extend(("X",), [("Z", 2)], ch.to_z)
            slack = admissibility_slack(j)
            assert slack >= -1e-9
            jj = j.extend(("X",), [("Y1", 2)], ch.to_y1).extend(("X",), [("Y2", 3)], ch.to_y2)
            cmi = jj.conditional_mutual_information
            r1 = cmi(("V0", "V1"), ("Y1",), ("Q",)) - cmi(("V0", "V1"), ("Z",), ("Q",))
            r2 = cmi(("V0", "V2"), ("Y2",), ("Q",)) - cmi(("V0", "V2"), ("Z",), ("Q",))
            third = (
                cmi(("V0", "V1"), ("Y1",), ("Q",))
                + cmi(("V0", "V2"), ("Y2",), ("Q",))
                - 2 * cmi(("V0",), ("Z",), ("Q",))
                - cmi(("V1",), ("V2",), ("V0",))
            )
            assert r1 + r2 <= third + 1e-9


class TestTheorem2Region:
    def test_collapse_to_six_row_region(self):
        # V0 = V1 = V2 = V and Y1 = Y2 = Y
        rng = np.random.default_rng(4)
        ck = random_dist("theorem2", {"U": 2, "V0": 3, "V1": 3, "V2": 3, "X": 2}, rng)
        pu = ck.factors[0].table.matrix
        pv0 = ck.factors[1].table.matrix
        nv = 3
        copy = np.zeros((nv, nv * nv))
        for v in range(nv):
            copy[v, v * nv + v] = 1.0
        pxv = rng.dirichlet(np.ones(2), size=nv)
        px = np.vstack([pxv[v0] for v0 in range(nv) for _ in range(nv * nv)])
        d = build_factored(
            "theorem2", {"U": 2, "V0": nv, "V1": nv, "V2": nv, "X": 2},
            [pu, pv0, copy, px],
        )
        y = bsc(0.1)
        ch = BroadcastChannels(y, y, bsc(0.25))
        sample = region("theorem2", d, ch)
        assert sample is not None
        j = d.realization
        j = j.extend(("X",), [("Y", 2)], y).extend(("X",), [("Z", 2)], bsc(0.25))
        mi, cmi = j.mutual_information, j.conditional_mutual_information
        assert sample.rhs("r0") == pytest.approx(mi(("U",), ("Z",)), abs=1e-10)
        assert sample.rhs("r0r1-private") == pytest.approx(
            mi(("U",), ("Z",)) + cmi(("V0",), ("Y",), ("U",)), abs=1e-10
        )
        assert sample.rhs("r0r1-total") == pytest.approx(mi(("V0",), ("Y",)), abs=1e-10)
        assert sample.rhs("re") == pytest.approx(
            cmi(("V0",), ("Y",), ("U",)) - cmi(("V0",), ("Z",), ("U",)), abs=1e-10
        )
        assert sample.rhs("r0re") == pytest.approx(
            mi(("V0",), ("Y",)) - cmi(("V0",), ("Z",), ("U",)), abs=1e-10
        )
        # the sum-rate equivocation rows are sums of the above (redundant here)
        assert sample.rhs("r02re-y1") == pytest.approx(
            sample.rhs("r0re") + sample.rhs("re"), abs=1e-9
        )

    def test_korner_marton_reduction_membership(self):
        # Re rows dropped, V0 = V1 = V2 = X: sampled (R0, R1) points inside
        # also satisfy the degraded-message-set style rows
        rng = np.random.default_rng(6)
        nu, nx = 2, 2
        pu = rng.dirichlet(np.ones(nu), size=1)
        pv0 = rng.dirichlet(np.ones(nx), size=nu)
        copy = np.zeros((nx, nx * nx))
        for v in range(nx):
            copy[v, v * nx + v] = 1.0
        px = np.zeros((nx * nx * nx, nx))
        for v0 in range(nx):
            for v1 in range(nx):
                for v2 in range(nx):
                    px[(v0 * nx + v1) * nx + v2, v0] = 1.0
        d = build_factored(
            "theorem2", {"U": nu, "V0": nx, "V1": nx, "V2": nx, "X": nx},
            [pu, pv0, copy, px],
        )
        ch = chans_deg()
        sample = region("theorem2", d, ch)
        assert sample is not None
        j = d.realization
        j = j.extend(("X",), [("Y1", 2)], ch.to_y1)
        j = j.extend(("X",), [("Y2", 3)], ch.to_y2)
        j = j.extend(("X",), [("Z", 2)], ch.to_z)
        mi, cmi = j.mutual_information, j.conditional_mutual_information
        km_rows = [
            ({"R0": 1}, mi(("U",), ("Z",))),
            ({"R0": 1, "R1": 1}, mi(("U",), ("Z",)) + min(
                cmi(("X",), ("Y1",), ("U",)), cmi(("X",), ("Y2",), ("U",)))),
            ({"R0": 1, "R1": 1}, min(mi(("X",), ("Y1",)), mi(("X",), ("Y2",)))),
        ]
        keep = [r for r in sample.rows if "re" not in r.label]
        for _ in range(200):
            pt = {"R0": rng.uniform(0, 1), "R1": rng.uniform(0, 1), "Re": 0.0}
            if all(r.holds_at(pt) for r in keep):
                for lhs, rhs in km_rows:
                    assert sum(c * pt[v] for v, c in lhs.items()) <= rhs + 1e-9

    def test_inadmissible_returns_none(self):
        # XOR eavesdropper coupling violates the Marton constraint
        pu = np.array([[1.0]])
        pv0 = np.array([[1.0]])
        pv12 = np.full((1, 4), 0.25)
        px = np.array([[1, 0], [0, 1], [0, 1], [1, 0]], dtype=float)
        d = build_factored(
            "theorem2", {"U": 1, "V0": 1, "V1": 2, "V2": 2, "X": 2},
            [pu, pv0, pv12, px],
        )
        ch = BroadcastChannels(
            ConditionalPmf.identity(2), ConditionalPmf.identity(2),
            ConditionalPmf.identity(2),
        )
        assert region("theorem2", d, ch) is None

    def test_all_constant_dist_zero_region(self):
        d = build_factored(
            "theorem2", {"U": 1, "V0": 1, "V1": 1, "V2": 1, "X": 1},
            [np.array([[1.0]])] * 3 + [np.array([[1.0]])],
        )
        ch = BroadcastChannels(
            ConditionalPmf([[0.5, 0.5]]), ConditionalPmf([[0.5, 0.5]]),
            ConditionalPmf([[0.5, 0.5]]),
        )
        sample = region("theorem2", d, ch)
        for label in ("r0", "r0r1-private", "re"):
            assert sample.rhs(label) == pytest.approx(0.0, abs=1e-12)
        assert sample.contains({"R0": 0, "R1": 0, "Re": 0}, tol=1e-12)
        assert not sample.contains({"R0": 0.01, "R1": 0, "Re": 0}, tol=1e-12)


class TestProp1Region:
    def test_constant_u(self):
        d = build_factored("prop1", {"U": 1, "X": 2}, [np.array([[1.0]]), np.array([[0.5, 0.5]])])
        ch = chans_deg()
        s = region("prop1", d, ch)
        assert s.rhs("r0") == pytest.approx(0.0, abs=1e-12)
        j = d.realization.extend(("X",), [("Y1", 2)], ch.to_y1)
        j = j.extend(("X",), [("Y2", 3)], ch.to_y2)
        expect = min(
            j.conditional_mutual_information(("X",), ("Y1",), ("U",)),
            j.conditional_mutual_information(("X",), ("Y2",), ("U",)),
        )
        assert s.rhs("r1") == pytest.approx(expect, abs=1e-10)

    def test_no_secrecy_against_yourself(self):
        ch = BroadcastChannels(bsc(0.1), bsc(0.1), bsc(0.1))
        d = random_dist("prop1", {"U": 2, "X": 2}, np.random.default_rng(0))
        s = region("prop1", d, ch)
        assert s.rhs("re") == pytest.approx(0.0, abs=1e-10)

    def test_bsc_pair_numeric_vs_direct_summation(self):
        # independent oracle: conditional MI by explicit summation loops
        def brute_cmi(t, a, b, c):
            # t indexed (a, b, c); I(A;B|C) = sum p log p(a,b|c)/(p(a|c)p(b|c))
            total = 0.0
            pc = t.sum(axis=(0, 1))
            pac = t.sum(axis=1)
            pbc = t.sum(axis=0)
            for i in range(t.shape[0]):
                for j in range(t.shape[1]):
                    for k in range(t.shape[2]):
                        p = t[i, j, k]
                        if p > 0:
                            total += p * np.log2(
                                p * pc[k] / (pac[i, k] * pbc[j, k])
                            )
            return total

        pu = np.array([[0.5, 0.5]])
        pxu = np.array([[0.9, 0.1], [0.2, 0.8]])
        d = build_factored("prop1", {"U": 2, "X": 2}, [pu, pxu])
        ch = BroadcastChannels(bsc(0.05), bsc(0.1), bsc(0.25))
        s = region("prop1", d, ch)
        p_ux = pu[0][:, None] * pxu
        diffs = []
        for chan in (bsc(0.05), bsc(0.1)):
            t_y = np.einsum("ux,xy->xyu", p_ux, chan.matrix)
            t_z = np.einsum("ux,xy->xyu", p_ux, bsc(0.25).matrix)
            diffs.append(brute_cmi(t_y, 0, 1, 2) - brute_cmi(t_z, 0, 1, 2))
        assert s.rhs("re") == pytest.approx(max(0.0, min(diffs)), abs=1e-10)


def multilevel_channel():
    # X -> (Y1, Z3) with Z2 a BSC degradation of Y1
    y1z3 = np.zeros((2, 4))
    for x in range(2):
        for y1 in range(2):
            for z3 in range(2):
                py1 = 0.9 if y1 == x else 0.1
                pz3 = 0.7 if z3 == x else 0.3
                y1z3[x, y1 * 2 + z3] = py1 * pz3
    return MultilevelChannel(ConditionalPmf(y1z3), 2, 2, bsc(0.2))


class TestMultilevelRegions:
    def test_from_joint_accepts_multilevel(self):
        ml = multilevel_channel()
        t = ml.to_y1z3.matrix.reshape(2, 2, 2)
        joint = np.einsum("xyt,yz->xyzt", t, ml.z2_given_y1.matrix)
        rebuilt = MultilevelChannel.from_joint(ConditionalPmf(joint.reshape(2, 8)), 2, 2, 2)
        assert np.allclose(rebuilt.to_y1z3.matrix, ml.to_y1z3.matrix, atol=1e-12)

    def test_from_joint_tolerance_is_absolute(self):
        # one row's first two entries moved by +-2e-6: off the factorization by
        # 4e-7, far above tol = 1e-9, but inside a relative 1e-5 of the entries
        ml = multilevel_channel()
        t = ml.to_y1z3.matrix.reshape(2, 2, 2)
        joint = np.einsum("xyt,yz->xyzt", t, ml.z2_given_y1.matrix).reshape(2, 8)
        joint[0, 0] += 2e-6
        joint[0, 1] -= 2e-6
        with pytest.raises(DistributionError, match="not multilevel"):
            MultilevelChannel.from_joint(ConditionalPmf(joint), 2, 2, 2)

    def test_from_joint_rejects_non_multilevel(self):
        rng = np.random.default_rng(9)
        bad = ConditionalPmf(rng.dirichlet(np.ones(8), size=2))
        with pytest.raises(Exception):
            MultilevelChannel.from_joint(bad, 2, 2, 2)

    def test_constant_aux_zero_rows(self):
        ml = multilevel_channel()
        d = build_factored(
            "multilevel", {"U": 1, "U3": 1, "V": 1, "X": 2},
            [np.array([[1.0]])] * 3 + [np.array([[0.5, 0.5]])],
        )
        s = region("prop2-inner", d, ml)
        assert s.rhs("r0") == pytest.approx(0.0, abs=1e-12)
        assert s.rhs("r1") == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("region_id", ["prop2-inner", "prop3-outer"])
    def test_input_alphabet_mismatch_is_rejected(self, region_id):
        # |X| = 3 against the channel's 2 inputs: the bound and region
        # evaluators share one message for it
        d = random_dist("multilevel", {"U": 2, "U3": 2, "V": 2, "X": 3}, np.random.default_rng(4))
        with pytest.raises(DistributionError, match="channel input alphabet does not match X"):
            region(region_id, d, multilevel_channel())

    def test_clamp_behaviour(self):
        ml = multilevel_channel()
        d = random_dist("multilevel", {"U": 2, "U3": 2, "V": 2, "X": 2},
                        np.random.default_rng(3))
        s = region("prop2-inner", d, ml)
        row = s.row("re2-clamp")
        clamp_const, coeffs = row.clamp
        # R0 big enough to zero the clamp: RHS is the base value
        big_r0 = clamp_const + 1.0
        assert row.rhs_at({"R0": big_r0}) == pytest.approx(row.rhs, abs=1e-12)
        # R0 = 0 opens the clamp fully
        assert row.rhs_at({"R0": 0.0}) == pytest.approx(
            row.rhs + max(0.0, clamp_const), abs=1e-12
        )

    def test_inner_rhs_below_outer_at_v_equals_x(self):
        ml = multilevel_channel()
        rng = np.random.default_rng(10)
        for _ in range(10):
            pu = rng.dirichlet(np.ones(2), size=1)
            pu3 = rng.dirichlet(np.ones(2), size=2)
            pv = rng.dirichlet(np.ones(2), size=2)
            d = build_factored(
                "multilevel", {"U": 2, "U3": 2, "V": 2, "X": 2},
                [pu, pu3, pv, np.eye(2)],
            )
            inner = region("prop2-inner", d, ml)
            outer = region("prop3-outer", d, ml)
            for label in ALIGNED_MULTILEVEL_ROWS:
                assert inner.rhs(label) <= outer.rhs(label) + 1e-10

    def test_more_capable_special_case_re3_row(self):
        # V = X makes the Re3 rows coincide
        ml = multilevel_channel()
        d = build_factored(
            "multilevel", {"U": 2, "U3": 2, "V": 2, "X": 2},
            [np.array([[0.5, 0.5]]), np.array([[0.8, 0.2], [0.3, 0.7]]),
             np.array([[0.9, 0.1], [0.15, 0.85]]), np.eye(2)],
        )
        inner = region("prop2-inner", d, ml)
        outer = region("prop3-outer", d, ml)
        assert inner.rhs("re3") == pytest.approx(outer.rhs("re3"), abs=1e-10)

    def test_re3_x_substitution_dominates_v_form_when_more_capable(self):
        # Y1 more capable than Z3 (a degraded pair here): the X-form Re3
        # bound is at least the V-form bound at the same distribution
        from wiretap3.orderings import check_degraded

        y1z3 = np.zeros((2, 4))
        z3_of_y1 = bsc(0.15)
        py1 = bsc(0.05)
        for x in range(2):
            for y1 in range(2):
                for z3 in range(2):
                    y1z3[x, y1 * 2 + z3] = py1.matrix[x, y1] * z3_of_y1.matrix[y1, z3]
        ml = MultilevelChannel(ConditionalPmf(y1z3), 2, 2, bsc(0.2))
        assert check_degraded(ml.to_y1, ml.to_z3).holds is True
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = random_dist("multilevel", {"U": 2, "U3": 2, "V": 3, "X": 2}, rng)
            j = d.realization
            j = j.extend(("X",), [("Y1", 2), ("Z3", 2)], ml.to_y1z3)
            cmi = j.conditional_mutual_information
            v_form = cmi(("V",), ("Y1",), ("U3",)) - cmi(("V",), ("Z3",), ("U3",))
            x_form = cmi(("X",), ("Y1",), ("U3",)) - cmi(("X",), ("Z3",), ("U3",))
            assert x_form >= v_form - 1e-10


@pytest.mark.parametrize("make,message", [
    (lambda: BroadcastChannels(bsc(0.1), bsc(0.1), ConditionalPmf([[0.5, 0.5]] * 3)),
     "receiver channels disagree on |X|"),
    (lambda: MultilevelChannel(ConditionalPmf([[0.25] * 4] * 2), 2, 3, bsc(0.2)),
     "y1/z3 sizes do not factor the joint columns"),
    (lambda: MultilevelChannel(ConditionalPmf([[0.25] * 4] * 2), 2, 2,
                               ConditionalPmf([[0.5, 0.5]] * 3)),
     "z2 channel input must be the y1 alphabet"),
    (lambda: MultilevelChannel.from_joint(ConditionalPmf([[0.125] * 8] * 2), 2, 2, 3),
     "output sizes do not factor the joint columns"),
])
def test_channel_shape_mismatch_raises(make, message):
    with pytest.raises(DistributionError, match=re.escape(message)):
        make()


def _prop1_sample():
    d = build_factored("prop1", {"U": 1, "X": 2}, [np.array([[1.0]]), np.array([[0.5, 0.5]])])
    return region("prop1", d, chans_deg())


@pytest.mark.parametrize("call,error,message", [
    (lambda: bounds._expr("I(V;Y) + H(V)"), ValueError,
     "cannot parse information expression 'I(V;Y) + H(V)'"),
    (lambda: bounds._BoundPlan(bounds.BoundTerms((bounds._expr("I(V;Y,Z)"),)), ("V", "X"),
                               {"Y": np.eye(2), "Z": np.eye(2)}),
     AxisError, "a term names more than one receiver: ['Y', 'Z']"),
    (lambda: wiretap_rate(JointPmf(("X",), [0.5, 0.5]), bsc(0.1), bsc(0.2)),
     PatternError, "distribution is missing axes ['V'] for 'wiretap'"),
    (lambda: _prop1_sample().contains({"R0": 0.0, "R9": 0.0}), AxisError,
     "unknown rate variables ['R9']"),
    (lambda: _prop1_sample().row("r9"), KeyError, "r9"),
    (lambda: reversely_degraded_bound([]), DistributionError, "need at least one component"),
    (lambda: evaluate_bound("theorem9", uniform_vx(), chans_deg()), KeyError,
     "unknown bound id 'theorem9'"),
    (lambda: region("prop4", uniform_vx(), chans_deg()), KeyError,
     "unknown region id 'prop4'; have ['prop1', 'prop2-inner', 'prop3-outer', 'theorem2']"),
    (lambda: region("theorem2", uniform_vx(), multilevel_channel()), TypeError,
     "'theorem2' needs a BroadcastChannels, not MultilevelChannel"),
    (lambda: region("prop3-outer", uniform_vx(), chans_deg()), TypeError,
     "'prop3-outer' needs a MultilevelChannel, not BroadcastChannels"),
])
def test_malformed_request_raises(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


class TestReverselyDegraded:
    def test_single_degraded_channel_is_wiretap_positive_part(self):
        comp = ProductComponent(
            [0.5, 0.5], ConditionalPmf.identity(2), bsc(0.1), bsc(0.1), bsc(0.2)
        )
        r = reversely_degraded_bound([comp])
        assert r.value == pytest.approx(H(0.2) - H(0.1), abs=1e-10)
        assert r.consistent

    def test_fig1_components_give_five_sixths(self):
        comp1 = ProductComponent(
            [0.5, 0.5], ConditionalPmf.identity(2),
            erasure_channel(F(1, 2)), ConditionalPmf.identity(2),
            cascade(erasure_channel(F(1, 2)), erase_further(F(2, 3))),
        )
        comp2 = ProductComponent(
            [0.5, 0.5], ConditionalPmf.identity(2),
            ConditionalPmf.identity(2), ConditionalPmf([[1, 0], [1, 0]]),
            erasure_channel(F(1, 2)),
        )
        r = reversely_degraded_bound([comp1, comp2])
        assert r.value == pytest.approx(5 / 6, abs=1e-10)
        assert r.theorem1_value == pytest.approx(5 / 6, abs=1e-9)
        assert r.consistent
        assert r.set_a == (0, 1) and r.set_b == (0,) and r.set_c == (0,)
        assert abs(r.admissibility) <= 1e-9

    def test_negative_component_clamps_to_zero(self):
        comp = ProductComponent(
            [0.5, 0.5], ConditionalPmf.identity(2), bsc(0.3), bsc(0.3), bsc(0.1)
        )
        r = reversely_degraded_bound([comp])
        assert r.value == 0.0


class TestMaximize:
    def test_wiretap_bsc_pair_reaches_grid_optimum(self):
        ch = BroadcastChannels(bsc(0.1), bsc(0.1), bsc(0.2))
        res = maximize("wiretap", AuxSpec("wiretap", {"V": 2}), ch, FAST)
        assert res.value >= 0.252932 - 1e-3

    def test_monotone_in_restarts(self):
        ch = BroadcastChannels(bsc(0.1), erasure_channel(0.4), bsc(0.25))
        vals = []
        for restarts in (2, 4, 8):
            b = SearchBudget(grid_points=6, restarts=restarts, seed=123, refine_sweeps=30)
            vals.append(maximize("ck_extension", AuxSpec("ck", {"Q": 1, "V": 2}), ch, b).value)
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12

    def test_reevaluation_matches(self):
        ch = BroadcastChannels(bsc(0.1), bsc(0.1), bsc(0.2))
        res = maximize("wiretap", AuxSpec("wiretap", {"V": 2}), ch, FAST)
        again = evaluate_bound("wiretap", res.argmax, ch)
        assert again == pytest.approx(res.value, abs=1e-9)

    def test_drifting_reevaluation_raises(self, monkeypatch):
        calls = []

        def drifting(dist, chans):
            calls.append(None)
            return 1e-3 * len(calls)

        monkeypatch.setitem(bounds._SCALAR_BOUNDS, "wiretap", ("wiretap", drifting))
        budget = SearchBudget(restarts=1, seed=0, refine_sweeps=1)
        with pytest.raises(ReevaluationError):
            maximize("wiretap", AuxSpec("wiretap", {"V": 2}), chans_deg(), budget)

    def test_reevaluation_check_survives_optimize_flag(self):
        script = (
            "from wiretap3 import bounds\n"
            "from wiretap3.optim import SearchBudget\n"
            "from wiretap3.probability import bsc\n"
            "calls = []\n"
            "def drifting(dist, chans):\n"
            "    calls.append(None)\n"
            "    return 1e-3 * len(calls)\n"
            "bounds._SCALAR_BOUNDS['wiretap'] = ('wiretap', drifting)\n"
            "ch = bounds.BroadcastChannels(bsc(0.1), bsc(0.1), bsc(0.2))\n"
            "try:\n"
            "    bounds.maximize('wiretap', bounds.AuxSpec('wiretap', {'V': 2}), ch,\n"
            "                    SearchBudget(restarts=1, seed=0, refine_sweeps=1))\n"
            "except bounds.ReevaluationError:\n"
            "    print('raised')\n"
        )
        src = str(Path(bounds.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "raised"

    def test_pattern_mismatch_rejected(self):
        ch = chans_deg()
        with pytest.raises(PatternError):
            maximize("wiretap", AuxSpec("ck"), ch, FAST)

    def test_theorem1_maximize_on_admissible_families(self):
        # must reach at least the ck_extension collapse value
        ch = BroadcastChannels(bsc(0.1), bsc(0.12), bsc(0.25))
        aux = AuxSpec("theorem1", {"Q": 1, "V0": 2, "V1": 2, "V2": 2})
        res = maximize("theorem1", aux, ch, FAST)
        ck_res = maximize("ck_extension", AuxSpec("ck", {"Q": 1, "V": 2}), ch, FAST)
        assert res.value >= ck_res.value - 5e-3
        assert theorem1_rate(res.argmax, ch) == pytest.approx(res.value, abs=1e-9)


class TestAuxSpec:
    def test_defaults(self):
        spec = AuxSpec("theorem2")
        sizes = spec.resolve(2)
        assert sizes == {"U": 3, "V0": 3, "V1": 4, "V2": 4, "X": 2}

    def test_bad_pattern(self):
        with pytest.raises(PatternError):
            AuxSpec("nope")

    def test_bad_cardinality(self):
        with pytest.raises(ValueError):
            AuxSpec("ck", {"Q": 0})

    @pytest.mark.parametrize("card", [2.7, 2.0, True, np.bool_(True), "2"])
    def test_non_integer_cardinality_rejected(self, card):
        # int() would truncate these without a word: 2.7 to |V| = 2, True to 1
        with pytest.raises(ValueError, match="cardinality of V must be an integer"):
            AuxSpec("wiretap", {"V": card})

    def test_numpy_integer_cardinality_accepted(self):
        assert AuxSpec("wiretap", {"V": np.int64(3)}).resolve(2) == {"V": 3, "X": 2}

    def test_unknown_auxiliary_rejected(self):
        with pytest.raises(PatternError, match="'v'"):
            AuxSpec("ck", {"Q": 2, "v": 3})
        with pytest.raises(PatternError, match="'V0'"):
            AuxSpec("ck", {"V0": 2})

    def test_x_cardinality_rejected(self):
        with pytest.raises(PatternError, match="'X'"):
            AuxSpec("ck", {"V": 2, "X": 7})
