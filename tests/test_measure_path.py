"""Every evaluator against the same expression built by hand.

The reference path chains ``JointPmf.extend`` over the raw factor tables,
attaches each receiver with its own ``extend`` call, and reads every
information quantity through the ``JointPmf`` methods.  Scalar bounds,
region rows and the orderings objectives must agree with it to 1e-12.
"""

import numpy as np
import pytest

import sampling
from wiretap3 import bounds, orderings
from wiretap3.probability import JointPmf, bsc, erasure_channel

from test_bounds import chans_deg, ck_from, multilevel_channel, theorem1_collapsed, uniform_vx

TOL = 1e-12


def reference_joint(dist, receivers):
    """Source law from the factor tables, then one ``extend`` per receiver."""
    j = JointPmf((), np.asarray(1.0).reshape(()))
    sizes = dict(dist.axis_sizes)
    for f in dist.factors:
        j = j.extend(f.given, [(t, sizes[t]) for t in f.targets], f.table)
    for name, given, chan, cols in receivers:
        j = j.extend(given, cols or [(name, chan.cols)], chan)
    return j


def broadcast_joint(dist, ch):
    return reference_joint(dist, [
        ("Y1", ("X",), ch.to_y1, None),
        ("Y2", ("X",), ch.to_y2, None),
        ("Z", ("X",), ch.to_z, None),
    ])


def measures(j):
    def i(a, b, c=()):
        return j.conditional_mutual_information(a, b, c) if c else j.mutual_information(a, b)
    return i


def rows_of(sample):
    return {r.label: (r.rhs, r.clamp[0] if r.clamp else None) for r in sample.rows}


def assert_rows(sample, expected):
    got = rows_of(sample)
    assert set(got) == set(expected)
    for label, (rhs, clamp) in expected.items():
        assert got[label][0] == pytest.approx(rhs, abs=TOL), label
        if clamp is None:
            assert got[label][1] is None, label
        else:
            assert got[label][1] == pytest.approx(clamp, abs=TOL), label


CHANNELS = [
    chans_deg(),
    bounds.BroadcastChannels(bsc(0.1), bsc(0.12), bsc(0.25)),
    bounds.BroadcastChannels(erasure_channel(0.2), bsc(0.05), erasure_channel(0.6)),
]


def ck_dists():
    rng = np.random.default_rng(41)
    out = [ck_from(np.array([[1.0]]), np.array([[0.5, 0.5]]), np.eye(2))]
    out += [sampling.random_dist("ck", {"Q": 2, "V": 3, "X": 2}, rng) for _ in range(4)]
    return out


@pytest.mark.parametrize("ch", CHANNELS)
def test_scalar_bounds(ch):
    rng = np.random.default_rng(42)
    wiretap = [uniform_vx()] + [sampling.random_dist("wiretap", {"V": 3, "X": 2}, rng)
                                for _ in range(3)]
    for d in wiretap:
        i = measures(reference_joint(d, [("Y", ("X",), ch.to_y1, None),
                                         ("Z", ("X",), ch.to_z, None)]))
        want = i(("V",), ("Y",)) - i(("V",), ("Z",))
        assert bounds.wiretap_rate(d, ch.to_y1, ch.to_z) == pytest.approx(want, abs=TOL)
        assert bounds.evaluate_bound("wiretap", d, ch) == pytest.approx(want, abs=TOL)
    for d in ck_dists():
        i = measures(broadcast_joint(d, ch))
        vz = i(("V",), ("Z",), ("Q",))
        ck = min(i(("V",), ("Y1",), ("Q",)) - vz, i(("V",), ("Y2",), ("Q",)) - vz)
        c1 = min(
            i(("X",), ("Y1",), ("Q",)) - i(("X",), ("Z",), ("Q",)),
            i(("V",), ("Y2",), ("Q",)) - vz,
        )
        assert bounds.ck_extension_rate(d, ch) == pytest.approx(ck, abs=TOL)
        assert bounds.corollary1_rate(d, ch) == pytest.approx(c1, abs=TOL)
    sizes = {"Q": 2, "V0": 2, "V1": 2, "V2": 3, "X": 2}
    theorem1 = [theorem1_collapsed(ck_dists()[1])] + [
        sampling.random_admissible_dist("theorem1", sizes, rng, family)
        for family in sampling.ADMISSIBLE_FAMILIES
    ]
    for d in theorem1:
        i = measures(broadcast_joint(d, ch))
        slack = (i(("V1",), ("Z",), ("V0",)) + i(("V2",), ("Z",), ("V0",))
                 - i(("V1",), ("V2",), ("V0",)) - i(("V1", "V2"), ("Z",), ("V0",)))
        assert slack >= -bounds.ADMISSIBILITY_TOL
        want = min(
            i(("V0", "V1"), ("Y1",), ("Q",)) - i(("V0", "V1"), ("Z",), ("Q",)),
            i(("V0", "V2"), ("Y2",), ("Q",)) - i(("V0", "V2"), ("Z",), ("Q",)),
        )
        assert bounds.theorem1_rate(d, ch) == pytest.approx(want, abs=TOL)


@pytest.mark.parametrize("ch", CHANNELS)
def test_theorem2_and_prop1_rows(ch):
    rng = np.random.default_rng(43)
    sizes = {"U": 2, "V0": 2, "V1": 2, "V2": 3, "X": 2}
    for family in sampling.ADMISSIBLE_FAMILIES:
        d = sampling.random_admissible_dist("theorem2", sizes, rng, family)
        i = measures(broadcast_joint(d, ch))
        zu = i(("U",), ("Z",))
        g1, g2 = i(("V0", "V1"), ("Y1",)), i(("V0", "V2"), ("Y2",))
        h1, h2 = i(("V0", "V1"), ("Y1",), ("U",)), i(("V0", "V2"), ("Y2",), ("U",))
        z1, z2 = i(("V1",), ("Z",), ("V0",)), i(("V2",), ("Z",), ("V0",))
        w1, w2 = i(("V0", "V1"), ("Z",), ("U",)), i(("V0", "V2"), ("Z",), ("U",))
        z0 = i(("V0",), ("Z",), ("U",))
        c = i(("V1",), ("V2",), ("V0",))
        assert_rows(bounds.theorem2_region(d, ch), {
            "r0": (zu, None),
            "r0r1-private": (zu + min(h1 - z1, h2 - z2), None),
            "r0r1-total": (min(g1 - z1, g2 - z2), None),
            "re-le-r1": (0.0, None),
            "re": (min(h1 - w1, h2 - w2), None),
            "r0re": (min(g1 - w1, g2 - w2), None),
            "r02re-y1": (g1 + h2 - c - 2 * z0, None),
            "r02re-y2": (g2 + h1 - c - 2 * z0, None),
            "r0r12re-y1": ((h2 - z2) + g1 + h2 - c - 2 * z0, None),
            "r0r12re-y2": ((h1 - z1) + g2 + h1 - c - 2 * z0, None),
        })
    for _ in range(3):
        d = sampling.random_dist("prop1", {"U": 3, "X": 2}, rng)
        i = measures(broadcast_joint(d, ch))
        x1, x2, xz = (i(("X",), (y,), ("U",)) for y in ("Y1", "Y2", "Z"))
        assert_rows(bounds.prop1_region(d, ch), {
            "r0": (i(("U",), ("Z",)), None),
            "r1": (min(x1, x2), None),
            "re-le-r1": (0.0, None),
            "re": (max(0.0, min(x1 - xz, x2 - xz)), None),
        })


def test_multilevel_rows():
    ml = multilevel_channel()
    rng = np.random.default_rng(44)
    for _ in range(4):
        d = sampling.random_dist("multilevel", {"U": 2, "U3": 2, "V": 3, "X": 2}, rng)
        i = measures(reference_joint(d, [
            (None, ("X",), ml.to_y1z3, [("Y1", ml.y1_size), ("Z3", ml.z3_size)]),
            ("Z2", ("Y1",), ml.z2_given_y1, None),
        ]))
        r0 = min(i(("U",), ("Z2",)), i(("U3",), ("Z3",)))
        r1v = i(("V",), ("Y1",), ("U",))
        s3 = i(("V",), ("Y1",), ("U3",))
        clamp = i(("U3",), ("Z3",)) - i(("U3",), ("Z2",), ("U",))
        d2u3 = s3 - i(("V",), ("Z2",), ("U3",))
        assert_rows(bounds.prop2_inner_region(d, ml), {
            "r0": (r0, None),
            "r1": (r1v, None),
            "r0r1": (i(("U3",), ("Z3",)) + s3, None),
            "re2-le-r1": (0.0, None),
            "re2-u": (r1v - i(("V",), ("Z2",), ("U",)), None),
            "re2-clamp": (d2u3, clamp),
            "re3-le-r1": (0.0, None),
            "re3": (max(0.0, s3 - i(("V",), ("Z3",), ("U3",))), None),
            "re2re3": (d2u3, None),
        })
        assert_rows(bounds.prop3_outer_region(d, ml), {
            "r0": (r0, None),
            "r1": (r1v, None),
            "r0r1": (i(("U3",), ("Z3",)) + s3, None),
            "re2-u": (i(("X",), ("Y1",), ("U",)) - i(("X",), ("Z2",), ("U",)), None),
            "re2-clamp": (i(("X",), ("Y1",), ("U3",)) - i(("X",), ("Z2",), ("U3",)), clamp),
            "re3": (max(0.0, s3 - i(("V",), ("Z3",), ("U3",))), None),
        })


@pytest.mark.parametrize("y, z", [(bsc(0.1), erasure_channel(0.3)),
                                  (erasure_channel(0.3), bsc(0.1))])
def test_orderings_objectives(y, z):
    rng = np.random.default_rng(45)
    for shape in ((2, 2), (2,)):
        axes = ("U", "X")[-len(shape):]
        flat = rng.dirichlet(np.ones(int(np.prod(shape))), size=16)
        got = orderings._gap(y, z, shape)(flat)
        assert got.shape == (16,)
        for b, p in enumerate(flat):
            j = JointPmf(axes, p.reshape(shape)).extend(("X",), [("Y", y.cols)], y)
            j = j.extend(("X",), [("Z", z.cols)], z)
            want = j.mutual_information(axes[:1], ("Y",)) - j.mutual_information(axes[:1], ("Z",))
            assert got[b] == pytest.approx(want, abs=TOL)
