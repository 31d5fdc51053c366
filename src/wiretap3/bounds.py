"""Rate expressions and rate regions for the 3-receiver secrecy setups.

Evaluators compute each bound at a *given* auxiliary distribution;
``maximize`` searches over the factored simplex of a declared pattern.
Reported maxima are lower bounds on the true supremum (the searches are
multi-start local ascents, not certified global optimization).

Positive-part operators [.]^+ appear exactly where the bound definitions
place them; nothing else is clamped.

Factorization patterns (auxiliary chains ending in the channel input X):

- wiretap:    p(v) p(x|v)
- ck:         p(q) p(v|q) p(x|v)
- theorem1:   p(q) p(v0|q) p(v1,v2|v0) p(x|v0,v1,v2)
- theorem2:   p(u) p(v0|u) p(v1,v2|v0) p(x|v0,v1,v2)
- prop1:      p(u) p(x|u)
- multilevel: p(u) p(u3|u) p(v|u3) p(x|v)

The theorem1/theorem2 evaluators enforce the Marton admissibility
constraint I(V1,V2;Z|V0) <= I(V1;Z|V0) + I(V2;Z|V0) - I(V1;V2|V0) within
1e-9 and report inadmissible points as None; the maximizer skips them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .optim import Params, SearchBudget, per_point, search_factored
from .probability import (
    AxisError,
    ConditionalPmf,
    DistributionError,
    Factor,
    FactoredDistribution,
    JointPmf,
)

ADMISSIBILITY_TOL = 1e-9
REEVAL_TOL = 1e-9


class PatternError(ValueError):
    """A distribution does not match the declared factorization pattern."""


class ReevaluationError(RuntimeError):
    """A maximizer's argmax does not reproduce the value its search reported."""


# pattern -> (axes, [(targets, given), ...]); X is always the final axis
PATTERNS: dict[str, tuple[tuple[str, ...], tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]]] = {
    "wiretap": (("V", "X"), ((("V",), ()), (("X",), ("V",)))),
    "ck": (("Q", "V", "X"), ((("Q",), ()), (("V",), ("Q",)), (("X",), ("V",)))),
    "theorem1": (
        ("Q", "V0", "V1", "V2", "X"),
        (
            (("Q",), ()),
            (("V0",), ("Q",)),
            (("V1", "V2"), ("V0",)),
            (("X",), ("V0", "V1", "V2")),
        ),
    ),
    "theorem2": (
        ("U", "V0", "V1", "V2", "X"),
        (
            (("U",), ()),
            (("V0",), ("U",)),
            (("V1", "V2"), ("V0",)),
            (("X",), ("V0", "V1", "V2")),
        ),
    ),
    "prop1": (("U", "X"), ((("U",), ()), (("X",), ("U",)))),
    "multilevel": (
        ("U", "U3", "V", "X"),
        ((("U",), ()), (("U3",), ("U",)), (("V",), ("U3",)), (("X",), ("V",))),
    ),
}


@dataclass(frozen=True)
class AuxSpec:
    """Auxiliary cardinalities for a factorization pattern.

    Defaults follow support-lemma style ceilings: |Q|=2,
    |U|=|U3|=|V0|=|X|+1, |V|=|V1|=|V2|=|X|+2; override per auxiliary.
    """

    pattern: str
    cards: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise PatternError(f"unknown pattern {self.pattern!r}")
        auxiliaries = PATTERNS[self.pattern][0][:-1]
        for k, v in self.cards.items():
            if k not in auxiliaries:
                raise PatternError(
                    f"pattern {self.pattern!r} has auxiliaries {list(auxiliaries)}, not {k!r}"
                    " (|X| is fixed by the channel input)"
                )
            if v < 1:
                raise ValueError(f"cardinality of {k} must be >= 1, got {v}")

    def resolve(self, x_size: int) -> dict[str, int]:
        defaults = {
            "Q": 2,
            "U": x_size + 1,
            "U3": x_size + 1,
            "V0": x_size + 1,
            "V": x_size + 2,
            "V1": x_size + 2,
            "V2": x_size + 2,
            "X": x_size,
        }
        axes, _ = PATTERNS[self.pattern]
        out = {}
        for a in axes:
            out[a] = x_size if a == "X" else int(self.cards.get(a, defaults[a]))
        return out


def factor_shapes(pattern: str, sizes: Mapping[str, int]) -> list[tuple[int, int]]:
    _, chain = PATTERNS[pattern]
    shapes = []
    for targets, given in chain:
        rows = int(np.prod([sizes[g] for g in given])) if given else 1
        cols = int(np.prod([sizes[t] for t in targets]))
        shapes.append((rows, cols))
    return shapes


def source_joint(pattern: str, sizes: Mapping[str, int], tables: Params) -> JointPmf:
    """Realize the pattern's source distribution from raw stochastic tables."""
    return build_factored(pattern, sizes, tables).realization


def build_factored(pattern: str, sizes: Mapping[str, int], tables: Params) -> FactoredDistribution:
    axes, chain = PATTERNS[pattern]
    factors = [
        Factor(targets, given, ConditionalPmf(table))
        for (targets, given), table in zip(chain, tables)
    ]
    return FactoredDistribution([(a, sizes[a]) for a in axes], factors, pattern)


def random_dist(pattern: str, sizes: Mapping[str, int], rng: np.random.Generator) -> FactoredDistribution:
    tables = [
        rng.dirichlet(np.ones(cols), size=rows)
        for rows, cols in factor_shapes(pattern, sizes)
    ]
    return build_factored(pattern, sizes, tables)


ADMISSIBLE_FAMILIES = ("z_ignores_v2", "z_ignores_v1", "collapse_v2")


def _admissible_tables(
    sizes: Mapping[str, int],
    rng: np.random.Generator,
    family: str,
) -> Params:
    """Satellite and input tables that satisfy the Marton constraint.

    The constraint I(V1,V2;Z|V0) <= I(V1;Z|V0) + I(V2;Z|V0) - I(V1;V2|V0)
    rearranges to I(V1;V2|V0,Z) <= 0, i.e. V1 and V2 must be conditionally
    independent given (V0, Z).  Generic distributions never satisfy it, so
    admissible points are drawn from structured families on which it holds
    identically: conditionally independent satellites with the channel
    input ignoring one of them, or a satellite collapsed onto V0.
    """
    n0, n1, n2, nx = sizes["V0"], sizes["V1"], sizes["V2"], sizes["X"]
    p1 = rng.dirichlet(np.ones(n1), size=n0)
    if family == "collapse_v2":
        if n2 < n0:
            raise PatternError("collapse_v2 needs |V2| >= |V0|")
        p2 = np.zeros((n0, n2))
        p2[np.arange(n0), np.arange(n0)] = 1.0
    else:
        p2 = rng.dirichlet(np.ones(n2), size=n0)
    pv12 = (p1[:, :, None] * p2[:, None, :]).reshape(n0, n1 * n2)
    if family == "z_ignores_v1":
        q = rng.dirichlet(np.ones(nx), size=n0 * n2)
        px = np.vstack([
            q[v0 * n2 + v2]
            for v0 in range(n0)
            for v1 in range(n1)
            for v2 in range(n2)
        ])
    else:  # z_ignores_v2 and collapse_v2: input depends on (v0, v1)
        q = rng.dirichlet(np.ones(nx), size=n0 * n1)
        px = np.vstack([
            q[v0 * n1 + v1]
            for v0 in range(n0)
            for v1 in range(n1)
            for v2 in range(n2)
        ])
    return [pv12, px]


def random_admissible_dist(
    pattern: str,
    sizes: Mapping[str, int],
    rng: np.random.Generator,
    family: Optional[str] = None,
) -> FactoredDistribution:
    """A random theorem1/theorem2-pattern dist with the constraint holding."""
    if pattern not in ("theorem1", "theorem2"):
        raise PatternError("admissible sampling applies to the Marton patterns")
    if family is None:
        family = ADMISSIBLE_FAMILIES[rng.integers(len(ADMISSIBLE_FAMILIES))]
    head_axis = PATTERNS[pattern][0][0]
    head = rng.dirichlet(np.ones(sizes[head_axis]), size=1)
    pv0 = rng.dirichlet(np.ones(sizes["V0"]), size=sizes[head_axis])
    tables = [head, pv0] + _admissible_tables(sizes, rng, family)
    return build_factored(pattern, sizes, tables)


def _as_joint(dist, pattern: str, strict_tag: bool = True) -> JointPmf:
    axes, _ = PATTERNS[pattern]
    if isinstance(dist, FactoredDistribution):
        if strict_tag and dist.pattern is not None and dist.pattern != pattern:
            raise PatternError(f"expected pattern {pattern!r}, got {dist.pattern!r}")
        j = dist.realization
    elif isinstance(dist, JointPmf):
        j = dist
    else:
        raise PatternError(f"cannot interpret {type(dist).__name__} as a distribution")
    missing = [a for a in axes if a not in j.axes]
    if missing:
        raise PatternError(f"distribution is missing axes {missing} for {pattern!r}")
    return j


def _with_receivers(dist, pattern: str, chans: BroadcastChannels) -> JointPmf:
    """The pattern's joint law with Y1, Y2 and Z attached to X."""
    return _as_joint(dist, pattern).attach_receivers(
        ("X",), {"Y1": chans.to_y1, "Y2": chans.to_y2, "Z": chans.to_z}
    )


@dataclass(frozen=True)
class BroadcastChannels:
    """Marginal channels from X to the two receivers and the eavesdropper."""

    to_y1: ConditionalPmf
    to_y2: ConditionalPmf
    to_z: ConditionalPmf

    def __post_init__(self):
        if not (self.to_y1.rows == self.to_y2.rows == self.to_z.rows):
            raise DistributionError("receiver channels disagree on |X|")

    @property
    def x_size(self) -> int:
        return self.to_y1.rows


@dataclass(frozen=True)
class MultilevelChannel:
    """p(y1, z2, z3 | x) = p(y1, z3 | x) p(z2 | y1).

    ``to_y1z3`` has columns indexed row-major by (y1, z3).
    """

    to_y1z3: ConditionalPmf
    y1_size: int
    z3_size: int
    z2_given_y1: ConditionalPmf

    def __post_init__(self):
        if self.to_y1z3.cols != self.y1_size * self.z3_size:
            raise DistributionError("y1/z3 sizes do not factor the joint columns")
        if self.z2_given_y1.rows != self.y1_size:
            raise DistributionError("z2 channel input must be the y1 alphabet")

    @property
    def x_size(self) -> int:
        return self.to_y1z3.rows

    @property
    def z2_size(self) -> int:
        return self.z2_given_y1.cols

    @property
    def to_y1(self) -> ConditionalPmf:
        m = self.to_y1z3.matrix.reshape(self.x_size, self.y1_size, self.z3_size)
        return ConditionalPmf(m.sum(axis=2))

    @property
    def to_z3(self) -> ConditionalPmf:
        m = self.to_y1z3.matrix.reshape(self.x_size, self.y1_size, self.z3_size)
        return ConditionalPmf(m.sum(axis=1))

    @classmethod
    def from_joint(
        cls,
        joint: ConditionalPmf,
        y1_size: int,
        z2_size: int,
        z3_size: int,
        tol: float = 1e-9,
    ) -> "MultilevelChannel":
        """Split p(y1,z2,z3|x), verifying the multilevel factorization."""
        nx = joint.rows
        if joint.cols != y1_size * z2_size * z3_size:
            raise DistributionError("output sizes do not factor the joint columns")
        t = joint.matrix.reshape(nx, y1_size, z2_size, z3_size)
        p_y1z3 = t.sum(axis=2)
        p_y1 = t.sum(axis=(2, 3))
        # extract p(z2|y1) from any x with mass on y1, then verify globally
        z2g = np.zeros((y1_size, z2_size))
        for y1 in range(y1_size):
            num = t[:, y1, :, :].sum(axis=(0, 2))
            den = num.sum()
            if den <= 0:
                z2g[y1] = 1.0 / z2_size
            else:
                z2g[y1] = num / den
        recon = p_y1z3[:, :, None, :] * z2g[None, :, :, None]
        if not np.allclose(recon, t, atol=tol):
            raise DistributionError(
                "channel is not multilevel: p(y1,z2,z3|x) != p(y1,z3|x) p(z2|y1)"
            )
        return cls(
            ConditionalPmf(p_y1z3.reshape(nx, y1_size * z3_size)),
            y1_size,
            z3_size,
            ConditionalPmf(z2g),
        )


# ---------------------------------------------------------------------------
# Scalar bound evaluators
# ---------------------------------------------------------------------------


def wiretap_rate(dist, chan_y: ConditionalPmf, chan_z: ConditionalPmf) -> float:
    """I(V;Y) - I(V;Z); may be negative at a bad distribution.

    Accepts any distribution whose axes include V and X.
    """
    j = _as_joint(dist, "wiretap", strict_tag=False)
    if j.size("X") != chan_y.rows or chan_y.rows != chan_z.rows:
        raise DistributionError("channel input alphabet does not match X")
    j = j.attach_receivers(("X",), {"Y": chan_y, "Z": chan_z})
    return j.mutual_information(("V",), ("Y",)) - j.mutual_information(("V",), ("Z",))


def ck_extension_rate(dist, chans: BroadcastChannels) -> float:
    """min_j I(V;Yj|Q) - I(V;Z|Q): the two-receiver wiretap extension."""
    j = _with_receivers(dist, "ck", chans)
    vz = j.conditional_mutual_information(("V",), ("Z",), ("Q",))
    return min(
        j.conditional_mutual_information(("V",), ("Y1",), ("Q",)) - vz,
        j.conditional_mutual_information(("V",), ("Y2",), ("Q",)) - vz,
    )


def corollary1_rate(dist, chans: BroadcastChannels) -> float:
    """min{I(X;Y1|Q) - I(X;Z|Q), I(V;Y2|Q) - I(V;Z|Q)}."""
    j = _with_receivers(dist, "ck", chans)
    first = j.conditional_mutual_information(("X",), ("Y1",), ("Q",)) - \
        j.conditional_mutual_information(("X",), ("Z",), ("Q",))
    second = j.conditional_mutual_information(("V",), ("Y2",), ("Q",)) - \
        j.conditional_mutual_information(("V",), ("Z",), ("Q",))
    return min(first, second)


def admissibility_slack(j: JointPmf) -> float:
    """I(V1;Z|V0) + I(V2;Z|V0) - I(V1;V2|V0) - I(V1,V2;Z|V0)."""
    return (
        j.conditional_mutual_information(("V1",), ("Z",), ("V0",))
        + j.conditional_mutual_information(("V2",), ("Z",), ("V0",))
        - j.conditional_mutual_information(("V1",), ("V2",), ("V0",))
        - j.conditional_mutual_information(("V1", "V2"), ("Z",), ("V0",))
    )


def theorem1_rate(dist, chans: BroadcastChannels) -> Optional[float]:
    """Marton-coded secrecy rate, or None when the point is inadmissible."""
    j = _with_receivers(dist, "theorem1", chans)
    if admissibility_slack(j) < -ADMISSIBILITY_TOL:
        return None
    r1 = j.conditional_mutual_information(("V0", "V1"), ("Y1",), ("Q",)) - \
        j.conditional_mutual_information(("V0", "V1"), ("Z",), ("Q",))
    r2 = j.conditional_mutual_information(("V0", "V2"), ("Y2",), ("Q",)) - \
        j.conditional_mutual_information(("V0", "V2"), ("Z",), ("Q",))
    return min(r1, r2)


# ---------------------------------------------------------------------------
# Region samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionRow:
    """One inequality: lhs . rates  REL  rhs + [clamp]^+.

    ``clamp``, when present, is (const, coeffs): the right-hand side gains
    max(0, const + coeffs . rates).  This houses positive-part terms that
    couple R0 into an equivocation bound; such a row is piecewise linear
    and the region may be non-convex.
    """

    label: str
    lhs: Mapping[str, float]
    relation: str  # "<" or "<="
    rhs: float
    clamp: Optional[tuple[float, Mapping[str, float]]] = None

    def rhs_at(self, point: Mapping[str, float]) -> float:
        total = self.rhs
        if self.clamp is not None:
            const, coeffs = self.clamp
            total += max(
                0.0, const + sum(c * float(point.get(v, 0.0)) for v, c in coeffs.items())
            )
        return total

    def holds_at(self, point: Mapping[str, float], tol: float = 1e-12) -> bool:
        lhs = sum(c * float(point.get(v, 0.0)) for v, c in self.lhs.items())
        return lhs <= self.rhs_at(point) + tol


@dataclass(frozen=True)
class RateRegionSample:
    """A rate region evaluated at one fixed auxiliary distribution."""

    variables: tuple[str, ...]
    rows: tuple[RegionRow, ...]

    def contains(self, point: Mapping[str, float], tol: float = 1e-12) -> bool:
        unknown = set(point) - set(self.variables)
        if unknown:
            raise AxisError(f"unknown rate variables {sorted(unknown)}")
        return all(row.holds_at(point, tol) for row in self.rows)

    def row(self, label: str) -> RegionRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)

    def rhs(self, label: str) -> float:
        return self.row(label).rhs


def theorem2_region(dist, chans: BroadcastChannels) -> Optional[RateRegionSample]:
    """The ten-inequality inner bound with common message and equivocation.

    Returns None when the distribution violates Marton admissibility.
    Rows stated as a min over two information expressions are emitted
    with the min already evaluated.
    """
    j = _with_receivers(dist, "theorem2", chans)
    if admissibility_slack(j) < -ADMISSIBILITY_TOL:
        return None
    mi = j.mutual_information
    cmi = j.conditional_mutual_information
    zu = mi(("U",), ("Z",))
    g1 = mi(("V0", "V1"), ("Y1",))
    h1 = cmi(("V0", "V1"), ("Y1",), ("U",))
    g2 = mi(("V0", "V2"), ("Y2",))
    h2 = cmi(("V0", "V2"), ("Y2",), ("U",))
    z1 = cmi(("V1",), ("Z",), ("V0",))
    z2 = cmi(("V2",), ("Z",), ("V0",))
    w1 = cmi(("V0", "V1"), ("Z",), ("U",))
    w2 = cmi(("V0", "V2"), ("Z",), ("U",))
    z0 = cmi(("V0",), ("Z",), ("U",))
    c = cmi(("V1",), ("V2",), ("V0",))
    rows = (
        RegionRow("r0", {"R0": 1}, "<", zu),
        RegionRow("r0r1-private", {"R0": 1, "R1": 1}, "<", zu + min(h1 - z1, h2 - z2)),
        RegionRow("r0r1-total", {"R0": 1, "R1": 1}, "<", min(g1 - z1, g2 - z2)),
        RegionRow("re-le-r1", {"Re": 1, "R1": -1}, "<=", 0.0),
        RegionRow("re", {"Re": 1}, "<", min(h1 - w1, h2 - w2)),
        RegionRow("r0re", {"R0": 1, "Re": 1}, "<", min(g1 - w1, g2 - w2)),
        RegionRow("r02re-y1", {"R0": 1, "Re": 2}, "<", g1 + h2 - c - 2 * z0),
        RegionRow("r02re-y2", {"R0": 1, "Re": 2}, "<", g2 + h1 - c - 2 * z0),
        RegionRow(
            "r0r12re-y1", {"R0": 1, "R1": 1, "Re": 2}, "<",
            (h2 - z2) + g1 + h2 - c - 2 * z0,
        ),
        RegionRow(
            "r0r12re-y2", {"R0": 1, "R1": 1, "Re": 2}, "<",
            (h1 - z1) + g2 + h1 - c - 2 * z0,
        ),
    )
    return RateRegionSample(("R0", "R1", "Re"), rows)


def prop1_region(dist, chans: BroadcastChannels) -> RateRegionSample:
    """Secrecy capacity region when both receivers are less noisy than Z.

    The ordering hypothesis is the caller's responsibility (check it with
    the orderings module); this evaluator just samples the three bounds.
    """
    j = _with_receivers(dist, "prop1", chans)
    cmi = j.conditional_mutual_information
    d1 = cmi(("X",), ("Y1",), ("U",)) - cmi(("X",), ("Z",), ("U",))
    d2 = cmi(("X",), ("Y2",), ("U",)) - cmi(("X",), ("Z",), ("U",))
    rows = (
        RegionRow("r0", {"R0": 1}, "<=", j.mutual_information(("U",), ("Z",))),
        RegionRow(
            "r1", {"R1": 1}, "<=",
            min(cmi(("X",), ("Y1",), ("U",)), cmi(("X",), ("Y2",), ("U",))),
        ),
        RegionRow("re-le-r1", {"Re": 1, "R1": -1}, "<=", 0.0),
        RegionRow("re", {"Re": 1}, "<=", max(0.0, min(d1, d2))),
    )
    return RateRegionSample(("R0", "R1", "Re"), rows)


def _multilevel_joint(dist, ml: MultilevelChannel) -> JointPmf:
    j = _as_joint(dist, "multilevel")
    if j.size("X") != ml.x_size:
        raise DistributionError("distribution X alphabet does not match channel")
    j = j.extend(
        ("X",), [("Y1", ml.y1_size), ("Z3", ml.z3_size)], ml.to_y1z3
    )
    j = j.extend(("Y1",), [("Z2", ml.z2_size)], ml.z2_given_y1)
    return j


def prop2_inner_region(dist, ml: MultilevelChannel) -> RateRegionSample:
    """Inner bound for the 1-receiver, 2-eavesdropper multilevel channel.

    The region is stated with seven inequalities; min{R1, .} rows are
    split into separate linear rows here, and the
    [I(U3;Z3) - R0 - I(U3;Z2|U)]^+ term is carried as a clamp on the
    R0-coupled equivocation row.
    """
    j = _multilevel_joint(dist, ml)
    mi, cmi = j.mutual_information, j.conditional_mutual_information
    r1v = cmi(("V",), ("Y1",), ("U",))
    s3 = cmi(("V",), ("Y1",), ("U3",))
    d2u = r1v - cmi(("V",), ("Z2",), ("U",))
    d2u3 = s3 - cmi(("V",), ("Z2",), ("U3",))
    d3u3 = s3 - cmi(("V",), ("Z3",), ("U3",))
    rows = (
        RegionRow("r0", {"R0": 1}, "<", min(mi(("U",), ("Z2",)), mi(("U3",), ("Z3",)))),
        RegionRow("r1", {"R1": 1}, "<", r1v),
        RegionRow("r0r1", {"R0": 1, "R1": 1}, "<", mi(("U3",), ("Z3",)) + s3),
        RegionRow("re2-le-r1", {"Re2": 1, "R1": -1}, "<=", 0.0),
        RegionRow("re2-u", {"Re2": 1}, "<=", d2u),
        RegionRow(
            "re2-clamp", {"Re2": 1}, "<=", d2u3,
            clamp=(
                mi(("U3",), ("Z3",)) - cmi(("U3",), ("Z2",), ("U",)),
                {"R0": -1.0},
            ),
        ),
        RegionRow("re3-le-r1", {"Re3": 1, "R1": -1}, "<=", 0.0),
        RegionRow("re3", {"Re3": 1}, "<=", max(0.0, d3u3)),
        RegionRow("re2re3", {"Re2": 1, "Re3": 1, "R1": -1}, "<=", d2u3),
    )
    return RateRegionSample(("R0", "R1", "Re2", "Re3"), rows)


def prop3_outer_region(dist, ml: MultilevelChannel) -> RateRegionSample:
    """Outer bound for the multilevel channel (six inequalities)."""
    j = _multilevel_joint(dist, ml)
    mi, cmi = j.mutual_information, j.conditional_mutual_information
    rows = (
        RegionRow("r0", {"R0": 1}, "<=", min(mi(("U",), ("Z2",)), mi(("U3",), ("Z3",)))),
        RegionRow("r1", {"R1": 1}, "<=", cmi(("V",), ("Y1",), ("U",))),
        RegionRow(
            "r0r1", {"R0": 1, "R1": 1}, "<=",
            mi(("U3",), ("Z3",)) + cmi(("V",), ("Y1",), ("U3",)),
        ),
        RegionRow(
            "re2-u", {"Re2": 1}, "<=",
            cmi(("X",), ("Y1",), ("U",)) - cmi(("X",), ("Z2",), ("U",)),
        ),
        RegionRow(
            "re2-clamp", {"Re2": 1}, "<=",
            cmi(("X",), ("Y1",), ("U3",)) - cmi(("X",), ("Z2",), ("U3",)),
            clamp=(
                mi(("U3",), ("Z3",)) - cmi(("U3",), ("Z2",), ("U",)),
                {"R0": -1.0},
            ),
        ),
        RegionRow(
            "re3", {"Re3": 1}, "<=",
            max(0.0, cmi(("V",), ("Y1",), ("U3",)) - cmi(("V",), ("Z3",), ("U3",))),
        ),
    )
    return RateRegionSample(("R0", "R1", "Re2", "Re3"), rows)


# rows of prop2 whose right-hand sides are dominated by the same-label
# prop3 rows when V = X (inner <= outer row-by-row)
ALIGNED_MULTILEVEL_ROWS = ("r0", "r1", "r0r1", "re2-u", "re2-clamp", "re3")


# ---------------------------------------------------------------------------
# Reversely degraded product channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductComponent:
    """One sub-channel of a product broadcast channel with its auxiliary."""

    u: "np.ndarray | Sequence[float]"
    x_given_u: ConditionalPmf
    to_y1: ConditionalPmf
    to_y2: ConditionalPmf
    to_z: ConditionalPmf


@dataclass(frozen=True)
class RevDegradedResult:
    value: float
    diffs_y1: tuple[float, ...]
    diffs_y2: tuple[float, ...]
    set_a: tuple[int, ...]
    set_b: tuple[int, ...]
    set_c: tuple[int, ...]
    theorem1_value: float
    admissibility: float

    @property
    def consistent(self) -> bool:
        return abs(self.value - self.theorem1_value) <= 1e-9


def reversely_degraded_bound(components: Sequence[ProductComponent]) -> RevDegradedResult:
    """min_j sum_l [I(U_l;Y_jl) - I(U_l;Z_l)]^+ plus a Marton-layer cross-check.

    Builds the index sets A, B, C (components helping receiver 1, receiver
    2, or both), assigns V0 = U_C, V1 = U_A, V2 = U_B, and verifies that
    the Marton rate expression evaluates to the same value.
    """
    if not components:
        raise DistributionError("need at least one component")
    k = len(components)
    j = JointPmf((), np.asarray(1.0).reshape(()))
    d1, d2 = [], []
    for l, comp in enumerate(components):
        u = np.asarray([float(v) for v in comp.u], dtype=float)
        j = j.extend((), [(f"U{l}", u.size)], ConditionalPmf([u]))
        j = j.extend((f"U{l}",), [(f"X{l}", comp.x_given_u.cols)], comp.x_given_u)
        j = j.attach_receivers(
            (f"X{l}",), {f"Y1_{l}": comp.to_y1, f"Y2_{l}": comp.to_y2, f"Z{l}": comp.to_z}
        )
        d1.append(
            j.mutual_information((f"U{l}",), (f"Y1_{l}",))
            - j.mutual_information((f"U{l}",), (f"Z{l}",))
        )
        d2.append(
            j.mutual_information((f"U{l}",), (f"Y2_{l}",))
            - j.mutual_information((f"U{l}",), (f"Z{l}",))
        )
    tol = 1e-12
    A = tuple(l for l in range(k) if d1[l] >= -tol)
    B = tuple(l for l in range(k) if d2[l] >= -tol)
    C = tuple(l for l in range(k) if l in A and l in B)
    value = min(
        sum(max(0.0, d) for d in d1),
        sum(max(0.0, d) for d in d2),
    )
    y1_axes = tuple(f"Y1_{l}" for l in range(k))
    y2_axes = tuple(f"Y2_{l}" for l in range(k))
    z_axes = tuple(f"Z{l}" for l in range(k))
    ua = tuple(f"U{l}" for l in A)
    ub = tuple(f"U{l}" for l in B)
    uc = tuple(f"U{l}" for l in C)
    r1 = j.mutual_information(ua, y1_axes) - j.mutual_information(ua, z_axes)
    r2 = j.mutual_information(ub, y2_axes) - j.mutual_information(ub, z_axes)
    a_only = tuple(f"U{l}" for l in A if l not in C)
    b_only = tuple(f"U{l}" for l in B if l not in C)
    slack = (
        j.conditional_mutual_information(a_only, z_axes, uc)
        + j.conditional_mutual_information(b_only, z_axes, uc)
        - j.conditional_mutual_information(a_only, b_only, uc)
        - j.conditional_mutual_information(a_only + b_only, z_axes, uc)
    ) if a_only and b_only else 0.0
    return RevDegradedResult(
        value=value,
        diffs_y1=tuple(d1),
        diffs_y2=tuple(d2),
        set_a=A,
        set_b=B,
        set_c=C,
        theorem1_value=min(r1, r2),
        admissibility=float(slack),
    )


# ---------------------------------------------------------------------------
# Maximization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundResult:
    """Best value found for a scalar bound; a lower bound on the true max."""

    bound_id: str
    value: float
    argmax: FactoredDistribution
    restarts: int
    best_restart: int
    evaluations: int


_SCALAR_BOUNDS: dict[str, tuple[str, Callable]] = {
    "wiretap": ("wiretap", lambda d, ch: wiretap_rate(d, ch.to_y1, ch.to_z)),
    "ck_extension": ("ck", ck_extension_rate),
    "corollary1": ("ck", corollary1_rate),
    "theorem1": ("theorem1", theorem1_rate),
}


def bound_ids() -> tuple[str, ...]:
    return tuple(_SCALAR_BOUNDS)


def _lookup(bound_id: str) -> tuple[str, Callable]:
    if bound_id not in _SCALAR_BOUNDS:
        raise KeyError(f"unknown bound id {bound_id!r}; have {sorted(_SCALAR_BOUNDS)}")
    return _SCALAR_BOUNDS[bound_id]


def bound_pattern(bound_id: str) -> str:
    """The factorization pattern a scalar bound is evaluated and maximized on."""
    return _lookup(bound_id)[0]


def evaluate_bound(bound_id: str, dist, chans: BroadcastChannels) -> Optional[float]:
    return _lookup(bound_id)[1](dist, chans)


def _expand_family(tables: Params, sizes: Mapping[str, int], family: str) -> Params:
    """Searched family tables -> full theorem1-pattern tables."""
    head, pv0, p1, p2, q = tables
    n0, n1, n2 = sizes["V0"], sizes["V1"], sizes["V2"]
    pv12 = (p1[:, :, None] * p2[:, None, :]).reshape(n0, n1 * n2)
    if family == "z_ignores_v1":
        px = q.reshape(n0, 1, n2, -1).repeat(n1, axis=1).reshape(n0 * n1 * n2, -1)
    else:
        px = q.reshape(n0, n1, 1, -1).repeat(n2, axis=2).reshape(n0 * n1 * n2, -1)
    return [head, pv0, pv12, px]


def _search_spaces(
    pattern: str, sizes: Mapping[str, int]
) -> list[tuple[list[tuple[int, int]], Callable[[Params], Params]]]:
    """(table shapes, searched tables -> pattern tables) for each search.

    Every pattern is searched over its own factor tables, except theorem1.
    Marton admissibility rearranges to I(V1;V2|V0,Z) = 0, a measure-zero
    manifold that unconstrained simplex search never hits; theorem1 is
    therefore searched over two structured families, conditionally
    independent satellites with the channel input ignoring one of them
    (each family satisfies the constraint identically, and the collapse
    V2 = V0 lies inside the first family).
    """
    if pattern != "theorem1":
        return [(factor_shapes(pattern, sizes), lambda tables: tables)]
    nq, n0, n1, n2, nx = (
        sizes["Q"], sizes["V0"], sizes["V1"], sizes["V2"], sizes["X"]
    )
    spaces = []
    for family in ("z_ignores_v2", "z_ignores_v1"):
        q_rows = n0 * n2 if family == "z_ignores_v1" else n0 * n1
        shapes = [(1, nq), (nq, n0), (n0, n1), (n0, n2), (q_rows, nx)]
        spaces.append((shapes, partial(_expand_family, sizes=sizes, family=family)))
    return spaces


def maximize(
    bound_id: str,
    aux: AuxSpec,
    chans: BroadcastChannels,
    budget: SearchBudget,
) -> BoundResult:
    """Multi-start maximization of a scalar bound over its factored simplex.

    Deterministic under a fixed seed; inadmissible theorem1 points are
    skipped (the theorem1 search draws from the admissible families), and
    exhausting the budget without one admissible point raises
    NoAdmissiblePointError.  The argmax is re-evaluated as a factored
    distribution; a value that does not reproduce raises ReevaluationError.
    """
    pattern, fn = _lookup(bound_id)
    if aux.pattern != pattern:
        raise PatternError(f"bound {bound_id!r} needs pattern {pattern!r}")
    sizes = aux.resolve(chans.x_size)
    best = None
    for shapes, expand in _search_spaces(pattern, sizes):

        def objective(tables: Params, expand=expand) -> Optional[float]:
            return fn(source_joint(pattern, sizes, expand(tables)), chans)

        # deterministic all-uniform start: the auxiliaries decouple from X there,
        # pinning the reported maximum at >= 0 (these secrecy bounds clamp at 0)
        baseline = [np.full((rows, cols), 1.0 / cols) for rows, cols in shapes]
        res = search_factored(per_point(objective), shapes, budget, extra_starts=[baseline])
        if best is None or res.value > best[0].value:
            best = (res, expand)
    res, expand = best
    argmax = build_factored(pattern, sizes, expand(res.params))
    check = fn(argmax, chans)
    if check is None or abs(check - res.value) > REEVAL_TOL:
        raise ReevaluationError(
            f"{bound_id} argmax re-evaluates to {check}, search reported {res.value}"
        )
    return BoundResult(
        bound_id=bound_id,
        value=res.value,
        argmax=argmax,
        restarts=res.restarts,
        best_restart=res.best_restart,
        evaluations=res.evaluations,
    )
