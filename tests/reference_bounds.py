"""The scalar bounds and their maximization before the batched engine, kept verbatim.

It is the reference for the differential tests in ``test_bound_engine.py``.
Each bound attaches Y1, Y2 and Z to the realized ``JointPmf`` and reads its
(conditional) mutual informations through the ``JointPmf`` methods; the
maximizer evaluates it once per start through ``reference_search.per_point`` on
``source_joint`` of the expanded tables.

``information`` and ``bound_values`` are the batched engine as it was before
``bounds._BoundPlan`` compiled it: the same entropies, found per call through
memo dicts keyed by axis set.  The plan must give the same bits.

``realize`` is the engine's whole-table realization as it was before the
search realized candidates row by row (``bounds._RowRealizer``): one check
of every row of every table, then the chain product.  The row realizer must
give its bits and raise its errors.

``plan_information`` is ``bounds._BoundPlan.information`` as it was before
its p log2 p cells took the floored log: ``p * log2_cells(p)``, a fresh
array each, and a comparison scan of every term.  The plan must give its
bits and raise its errors.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from wiretap3.bounds import (
    ADMISSIBILITY_TOL,
    PATTERNS,
    BroadcastChannels,
    PatternError,
    _signed_sum,
    factor_shapes,
    source_joint,
)
from reference_search import per_point
from wiretap3.optim import search_factored
from wiretap3.probability import (
    MEASURE_TOL,
    PMF_TOL,
    AxisError,
    DistributionError,
    FactoredDistribution,
    JointPmf,
    entropy_bits,
    log2_cells,
)


def _checked(tables):
    """Stacked tables that pass ConditionalPmf's row checks, clipped at 0."""
    sums = np.concatenate([t.sum(axis=-1) for t in tables], axis=-1)
    if not np.abs(sums - 1.0).max(initial=0.0) <= PMF_TOL:  # NaN fails it too
        raise DistributionError("factor table has a row that does not sum to 1")
    low = min(t.min(initial=0.0) for t in tables)
    if low < 0:
        if low < -PMF_TOL:
            raise DistributionError("factor table has negative entries")
        tables = [np.maximum(t, 0.0) for t in tables]
    return tables


def realize(pattern: str, sizes, tables) -> np.ndarray:
    """p(aux..., X) of stacked factor tables (B, rows, cols): (B, pattern sizes)."""
    _, chain = PATTERNS[pattern]
    joint = np.ones(len(tables[0]))
    covered: tuple[str, ...] = ()
    for (targets, given), table in zip(chain, _checked(tables)):
        shape = tuple(sizes[a] if a in given else 1 for a in covered)
        shape += tuple(sizes[a] for a in targets)
        joint = joint.reshape(joint.shape + (1,) * len(targets)) * table.reshape(
            (len(table),) + shape
        )
        covered += targets
    return joint


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


def _attach(j: JointPmf, receivers) -> JointPmf:
    """``j`` with one output axis per (name, channel) fed by X, each by ``extend``."""
    for name, chan in receivers:
        j = j.extend(("X",), [(name, chan.cols)], chan)
    return j


def _with_receivers(dist, pattern: str, chans: BroadcastChannels) -> JointPmf:
    """The pattern's joint law with Y1, Y2 and Z attached to X."""
    return _attach(
        _as_joint(dist, pattern), (("Y1", chans.to_y1), ("Y2", chans.to_y2), ("Z", chans.to_z))
    )


def wiretap_rate(dist, chan_y, chan_z) -> float:
    j = _as_joint(dist, "wiretap", strict_tag=False)
    if j.size("X") != chan_y.rows or chan_y.rows != chan_z.rows:
        raise DistributionError("channel input alphabet does not match X")
    j = _attach(j, (("Y", chan_y), ("Z", chan_z)))
    return j.mutual_information(("V",), ("Y",)) - j.mutual_information(("V",), ("Z",))


def ck_extension_rate(dist, chans: BroadcastChannels) -> float:
    j = _with_receivers(dist, "ck", chans)
    vz = j.conditional_mutual_information(("V",), ("Z",), ("Q",))
    return min(
        j.conditional_mutual_information(("V",), ("Y1",), ("Q",)) - vz,
        j.conditional_mutual_information(("V",), ("Y2",), ("Q",)) - vz,
    )


def corollary1_rate(dist, chans: BroadcastChannels) -> float:
    j = _with_receivers(dist, "ck", chans)
    first = j.conditional_mutual_information(("X",), ("Y1",), ("Q",)) - \
        j.conditional_mutual_information(("X",), ("Z",), ("Q",))
    second = j.conditional_mutual_information(("V",), ("Y2",), ("Q",)) - \
        j.conditional_mutual_information(("V",), ("Z",), ("Q",))
    return min(first, second)


def admissibility_slack(j: JointPmf) -> float:
    return (
        j.conditional_mutual_information(("V1",), ("Z",), ("V0",))
        + j.conditional_mutual_information(("V2",), ("Z",), ("V0",))
        - j.conditional_mutual_information(("V1",), ("V2",), ("V0",))
        - j.conditional_mutual_information(("V1", "V2"), ("Z",), ("V0",))
    )


def theorem1_rate(dist, chans: BroadcastChannels) -> Optional[float]:
    j = _with_receivers(dist, "theorem1", chans)
    if admissibility_slack(j) < -ADMISSIBILITY_TOL:
        return None
    r1 = j.conditional_mutual_information(("V0", "V1"), ("Y1",), ("Q",)) - \
        j.conditional_mutual_information(("V0", "V1"), ("Z",), ("Q",))
    r2 = j.conditional_mutual_information(("V0", "V2"), ("Y2",), ("Q",)) - \
        j.conditional_mutual_information(("V0", "V2"), ("Z",), ("Q",))
    return min(r1, r2)


SCALAR_BOUNDS = {
    "wiretap": ("wiretap", lambda d, ch: wiretap_rate(d, ch.to_y1, ch.to_z)),
    "ck_extension": ("ck", ck_extension_rate),
    "corollary1": ("ck", corollary1_rate),
    "theorem1": ("theorem1", theorem1_rate),
}


def expand_family(tables, sizes, family):
    """Searched family tables -> full theorem1-pattern tables."""
    head, pv0, p1, p2, q = tables
    n0, n1, n2 = sizes["V0"], sizes["V1"], sizes["V2"]
    pv12 = (p1[:, :, None] * p2[:, None, :]).reshape(n0, n1 * n2)
    if family == "z_ignores_v1":
        px = q.reshape(n0, 1, n2, -1).repeat(n1, axis=1).reshape(n0 * n1 * n2, -1)
    else:
        px = q.reshape(n0, n1, 1, -1).repeat(n2, axis=2).reshape(n0 * n1 * n2, -1)
    return [head, pv0, pv12, px]


def search_spaces(pattern, sizes):
    if pattern != "theorem1":
        return [(factor_shapes(pattern, sizes), lambda tables: tables)]
    nq, n0, n1, n2, nx = (
        sizes["Q"], sizes["V0"], sizes["V1"], sizes["V2"], sizes["X"]
    )
    spaces = []
    for family in ("z_ignores_v2", "z_ignores_v1"):
        q_rows = n0 * n2 if family == "z_ignores_v1" else n0 * n1
        shapes = [(1, nq), (nq, n0), (n0, n1), (n0, n2), (q_rows, nx)]
        spaces.append((shapes, partial(expand_family, sizes=sizes, family=family)))
    return spaces


def maximize(bound_id, aux, chans, budget):
    """The old maximize loop: (best SearchResult, its pattern tables, every SearchResult)."""
    pattern, fn = SCALAR_BOUNDS[bound_id]
    sizes = aux.resolve(chans.x_size)
    best = None
    runs = []
    for shapes, expand in search_spaces(pattern, sizes):

        def objective(tables, expand=expand) -> Optional[float]:
            return fn(source_joint(pattern, sizes, expand(tables)), chans)

        baseline = [np.full((rows, cols), 1.0 / cols) for rows, cols in shapes]
        res = search_factored(per_point(objective), shapes, budget, extra_starts=[baseline])
        runs.append(res)
        if best is None or res.value > best[0].value:
            best = (res, expand)
    res, expand = best
    return res, expand(res.params), runs


def information(axes, joint, channels):
    """I(A;B|C) -> (B,) bits on a stack of source laws ``joint`` over ``axes``.

    ``channels`` maps each receiver to its |X| x |R| matrix.  An entropy over
    aux axes reads a marginal of ``joint``; one with a receiver pushes the
    marginal p(aux, X) through that receiver's matrix.  Marginals and
    entropies are memoized per axis set.
    """
    batch, nx = len(joint), joint.shape[-1]  # X is the last pattern axis
    marginals = {}
    entropies = {}

    def marginal(keep):
        if keep not in marginals:
            drop = tuple(1 + i for i, a in enumerate(axes) if a not in keep)
            marginals[keep] = joint.sum(axis=drop) if drop else joint
        return marginals[keep]

    def entropy(names):
        key = frozenset(names)
        if key not in entropies:
            receivers = [a for a in names if a not in axes]
            if len(receivers) > 1:
                raise AxisError(f"a term names more than one receiver: {receivers}")
            if receivers:
                src = marginal(tuple(a for a in axes if a in key or a == "X"))
                src = src.reshape(batch, -1, nx)
                w = channels[receivers[0]]
                p = src[..., None] * w if "X" in key else src @ w
            else:
                p = marginal(tuple(a for a in axes if a in key))
            entropies[key] = entropy_bits(p, p.ndim - 1)
        return entropies[key]

    def info(a, b, c):
        if c:
            value = entropy(a + c) + entropy(b + c) - entropy(a + b + c) - entropy(c)
        else:
            value = entropy(a) + entropy(b) - entropy(a + b)
        if np.count_nonzero(value < -MEASURE_TOL):
            raise DistributionError(
                f"I({a};{b}|{c}) = {value.min()} is below -{MEASURE_TOL}"
            )
        return np.maximum(value, 0.0)

    return info


def bound_values(bound, axes, joint, channels):
    """``bound`` at each of a stack of source laws: B floats, NaN inadmissible."""
    info = information(axes, joint, channels)
    term = lambda t: info(*t)  # noqa: E731
    gate = _signed_sum(bound.gate, term) if bound.gate else None
    value = _signed_sum(bound.rates[0], term)
    for rate in bound.rates[1:]:
        value = np.minimum(value, _signed_sum(rate, term))
    if gate is not None:
        value = np.where(gate < -ADMISSIBILITY_TOL, np.nan, value)
    return value


def plan_information(plan, joint):
    """``plan.information(joint)`` by the old formula: (terms, B), clamped at 0."""
    shape = joint.shape[1:]
    if shape not in plan._compiled:
        plan._compiled[shape] = plan._compile(shape)
    m, routes, st = plan._compiled[shape]
    p = plan._pmfs(routes, joint) if m is None else joint.reshape(len(joint), 1, len(m)) @ m
    info = (0.0 - (p * log2_cells(p)) @ st)[:, 0].T
    low = (info < -MEASURE_TOL).any(axis=1)
    if low.any():
        t = int(low.argmax())
        a, b, c = plan.terms[t]
        raise DistributionError(f"I({a};{b}|{c}) = {info[t].min()} is below -{MEASURE_TOL}")
    return np.maximum(info, 0.0)
