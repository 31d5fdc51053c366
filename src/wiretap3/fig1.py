"""The hard-coded multilevel product example channel and its closed forms.

Component 1 (input X1, uniform-optimal): Y21 observes X1 noiselessly,
Y11 is an erasure with probability 1/2, and Z1 erases Y11 further with
probability 2/3 (overall survival 1/6).  Component 2 (input X2): Y12
observes X2 noiselessly and Z2 erases it with probability 1/2.

Receiver wiring: Y1 = (Y11, Y12), Y2 = Y21, Z = (Z1, Z2).  All erasure
alphabets are ordered (0, E, 1).

The closed forms at P{X1=0} = gamma:

    I(X1;Y21) = H(gamma)        I(X1;Y21) - I(X1;Z1) = (5/6) H(gamma)
    I(X1;Y11) = H(gamma)/2      I(X1;Y11) - I(X1;Z1) = (1/3) H(gamma)
    I(X1;Z1)  = H(gamma)/6

are the authoritative reconstruction oracle: the wiring above is accepted
because generic evaluation reproduces them (and rejected otherwise).  Any
residual freedom in the per-edge probabilities consistent with every
closed form is immaterial to the results.

The headline reproduction: the indirect-decoding bound achieves exactly
5/6 at V = X1 with independent uniform inputs, while the two-receiver
extension of the classical wiretap bound stays strictly below 5/6 on this
channel (its best value is at most 7/12).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .bounds import BroadcastChannels, corollary1_rate, build_factored
from .optim import SearchBudget, search_factored
from .probability import (
    ConditionalPmf,
    FactoredDistribution,
    JointPmf,
    Pmf,
    binary_entropy,
    cascade,
    entropy_bits,
    erase_further,
    erasure_channel,
    product_channel,
)

ACHIEVABLE = Fraction(5, 6)

_FIG1: "Fig1Channel"


def _constant_channel(n_inputs: int) -> ConditionalPmf:
    return ConditionalPmf([[1]] * n_inputs)


@dataclass(frozen=True)
class Fig1Channel:
    """Fixed wiring of the example channel; all parameters rational."""

    y21: ConditionalPmf   # X1 -> Y21 (noiseless)
    y11: ConditionalPmf   # X1 -> Y11 (erasure 1/2)
    z1: ConditionalPmf    # X1 -> Z1  (Y11 erased further by 2/3)
    y12: ConditionalPmf   # X2 -> Y12 (noiseless)
    z2: ConditionalPmf    # X2 -> Z2  (erasure 1/2)

    @staticmethod
    def build() -> "Fig1Channel":
        y11 = erasure_channel(Fraction(1, 2))
        return Fig1Channel(
            y21=ConditionalPmf.identity(2),
            y11=y11,
            z1=cascade(y11, erase_further(Fraction(2, 3))),
            y12=ConditionalPmf.identity(2),
            z2=cascade(ConditionalPmf.identity(2), erasure_channel(Fraction(1, 2))),
        )

    def broadcast(self) -> BroadcastChannels:
        """Channels from X = (X1, X2) with Y1 = (Y11, Y12), Y2 = Y21."""
        return BroadcastChannels(
            to_y1=product_channel([self.y11, self.y12]),
            to_y2=product_channel([self.y21, _constant_channel(2)]),
            to_z=product_channel([self.z1, self.z2]),
        )

    def z2_from_y12(self) -> ConditionalPmf:
        """Z2 as a stochastic map of Y12 (the degradedness witness wiring)."""
        return erasure_channel(Fraction(1, 2))


_FIG1 = Fig1Channel.build()


def export_spec(chan: Optional[Fig1Channel] = None) -> str:
    """The example channel in the shared channel-spec text format."""
    from .specfmt import SpecDocument, write_spec

    chan = chan or _FIG1
    doc = SpecDocument()
    doc.alphabets = {
        "X1": 2, "X2": 2, "X": 4, "Y21": 2, "Y11": 3, "Y12": 2,
        "Z1": 3, "Z2": 3, "Y1": 6, "Z": 9,
    }
    doc.channels = {
        "y21": (("X1",), ("Y21",), chan.y21),
        "y11": (("X1",), ("Y11",), chan.y11),
        "z1": (("X1",), ("Z1",), chan.z1),
        "y12": (("X2",), ("Y12",), chan.y12),
        "z2": (("X2",), ("Z2",), chan.z2),
    }
    bc = chan.broadcast()
    doc.channels["to_y1"] = (("X",), ("Y1",), bc.to_y1)
    doc.channels["to_y2"] = (("X",), ("Y21",), bc.to_y2)
    doc.channels["to_z"] = (("X",), ("Z",), bc.to_z)
    return write_spec(doc)


@dataclass(frozen=True)
class ClosedFormRates:
    i_y21: float
    i_y11: float
    i_z1: float
    diff_y21: float   # I(X1;Y21) - I(X1;Z1)
    diff_y11: float   # I(X1;Y11) - I(X1;Z1)


def closed_form_rates(gamma: float) -> ClosedFormRates:
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0,1], got {gamma}")
    h = binary_entropy(gamma)
    return ClosedFormRates(h, h / 2, h / 6, 5 * h / 6, h / 3)


def component1_measured(gamma: float, chan: Optional[Fig1Channel] = None) -> ClosedFormRates:
    """The same five quantities via generic evaluation on the wiring."""
    chan = chan or Fig1Channel.build()
    j = JointPmf.product([("X1", Pmf([gamma, 1.0 - gamma]))]).attach_receivers(
        ("X1",), {"Y21": chan.y21, "Y11": chan.y11, "Z1": chan.z1}
    )
    iy21 = j.mutual_information(("X1",), ("Y21",))
    iy11 = j.mutual_information(("X1",), ("Y11",))
    iz1 = j.mutual_information(("X1",), ("Z1",))
    return ClosedFormRates(iy21, iy11, iz1, iy21 - iz1, iy11 - iz1)


def achievability_distribution() -> FactoredDistribution:
    """V = X1, X1 and X2 independent uniform, degenerate time sharing."""
    p_q = np.array([[1.0]])
    p_v_q = np.array([[0.5, 0.5]])
    # x = (x1, x2) row-major with x1 = v and x2 uniform
    p_x_v = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
    ])
    return build_factored("ck", {"Q": 1, "V": 2, "X": 4}, [p_q, p_v_q, p_x_v])



def achievable_rate(chan: Optional[Fig1Channel] = None) -> float:
    """The indirect-decoding bound at the designated distribution: 5/6."""
    chan = chan or Fig1Channel.build()
    return corollary1_rate(achievability_distribution(), chan.broadcast())


def second_component_measures(tables, chan: Optional[Fig1Channel] = None):
    """(I(V2;Y12|Q2), I(V2;Z2|Q2)) for tables [p(q2), p(v2|q2), p(x2|v2)].

    Hot path of the upper-bound search: raw tensor arithmetic, no
    intermediate distribution objects.  Each table may carry leading
    batch axes, (..., rows, cols); the two measures then come back with
    those leading axes, one pair per point, each the same bits as the
    point alone.
    """
    y_mat = (chan.y12 if chan else _FIG1.y12).matrix
    z_mat = (chan.z2 if chan else _FIG1.z2).matrix
    pq, pvq, pxv = tables
    p_qvx = pq[..., 0, :, None, None] * pvq[..., :, :, None] * pxv[..., None, :, :]
    p_qvy = p_qvx @ y_mat
    p_qvz = p_qvx @ z_mat
    hq = entropy_bits(p_qvx.sum(axis=(-2, -1)), 1)
    hqv = entropy_bits(p_qvx.sum(axis=-1), 2)
    iy = hqv + entropy_bits(p_qvy.sum(axis=-2), 2) - entropy_bits(p_qvy, 3) - hq
    iz = hqv + entropy_bits(p_qvz.sum(axis=-2), 2) - entropy_bits(p_qvz, 3) - hq
    return np.maximum(iy, 0.0), np.maximum(iz, 0.0)


def rck_upper_bound_objective(iy, iz):
    """min{1/3 + I(V2;Y12|Q2) - I(V2;Z2|Q2), 5/6 - I(V2;Z2|Q2)}.

    This is the classical-extension upper bound for the example after the
    first component has been optimized out at gamma = 1/2.  Elementwise on
    arrays of measures.
    """
    return np.minimum(1.0 / 3.0 + (iy - iz), 5.0 / 6.0 - iz)


@dataclass(frozen=True)
class ExampleReport:
    achievable: float
    rck_best: float
    rck_gap: float                    # 5/6 - rck_best
    rck_best_tables: tuple
    identity_max_deviation: float     # max |iy - iz| over near-zero-iz trace
    identity_points_checked: int
    restarts: int
    evaluations: int

    @property
    def gap_is_strict(self) -> bool:
        return self.rck_gap > 1e-3


def reproduce_example(
    budget: SearchBudget = SearchBudget(restarts=256, seed=20260810),
    q2_card: int = 3,
    v2_card: int = 4,
    chan: Optional[Fig1Channel] = None,
) -> ExampleReport:
    """Run both legs of the example end to end.

    (i) evaluates the achievability leg exactly (5/6); (ii) maximizes the
    classical-extension upper bound over second-component distributions
    and reports its gap below 5/6; (iii) checks, along the search trace,
    that points leaking nothing to Z2 also gain nothing at Y12.
    """
    chan = chan or Fig1Channel.build()
    achievable = achievable_rate(chan)

    trace_dev = 0.0
    trace_hits = 0

    def objective(tables):
        nonlocal trace_dev, trace_hits
        iy, iz = second_component_measures(tables, chan)
        silent = iz < 1e-9
        if silent.any():
            trace_hits += int(silent.sum())
            trace_dev = max(trace_dev, float(np.abs(iy - iz)[silent].max()))
        return rck_upper_bound_objective(iy, iz)

    shapes = [(1, q2_card), (q2_card, v2_card), (v2_card, 2)]
    res = search_factored(objective, shapes, budget)
    return ExampleReport(
        achievable=achievable,
        rck_best=res.value,
        rck_gap=5.0 / 6.0 - res.value,
        rck_best_tables=tuple(t.copy() for t in res.params),
        identity_max_deviation=trace_dev,
        identity_points_checked=trace_hits,
        restarts=res.restarts,
        evaluations=res.evaluations,
    )
