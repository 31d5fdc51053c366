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

Bounds and regions are data, written as in the paper: a scalar bound is a
``BoundTerms`` (the signed sums of (conditional) mutual informations whose
minimum it is, and theorem1's admissibility slack that masks a point out);
a region is a table of ``_row``s (a minimum of signed sums, its positive
part or the R0 clamp).  One engine evaluates them on a stack of B source
laws.  ``_RowRealizer`` multiplies the stacked factor tables (B, rows,
cols) of a pattern's chain into p(aux..., X) after a row-stochastic check:
for a search's candidates from the one row each changes, and for whole
stacks as ``_realize``.  ``_BoundPlan`` compiles the terms against the pattern's
axes and the receiver matrices: each distinct entropy reads a marginal,
pushed through a receiver's matrix from X when a term names one (a term
names at most one; the multilevel Z2 is p(y1|x) p(z2|y1)), so no joint
over all receivers is built.  All are linear in the source law: a small
plan reads every entropy's cells with one product per point, a large one
by its routes (see ``_BoundPlan``), and every term then takes one more
product, of p ``probability.log2_floored(p)`` (the sums absorb its -0.0 at
exact zeros).  A term below -MEASURE_TOL raises DistributionError; otherwise it
is clamped at 0, as ``JointPmf`` does.  ``maximize`` runs a plan on realized
candidates; the scalar evaluators and ``region`` run the same plan on a
one-point stack; ``_plan`` keeps one per bound, source axes and receiver
matrices, and the orderings checks and the example's measures take theirs there.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .optim import Params, SearchBudget, search_factored
from .probability import (
    MEASURE_TOL,
    PMF_TOL,
    AxisError,
    ConditionalPmf,
    DistributionError,
    Factor,
    FactoredDistribution,
    JointPmf,
    as_joint,
    conditional,
    log2_floored,
)

ADMISSIBILITY_TOL = 1e-9
REEVAL_TOL = 1e-9
# a plan's dense M and the identity it is read from hold at most this many
# entries together (1 MiB); larger plans run their routes (see ``_BoundPlan``)
# small plans keep M: their routes run 2-3x slower a call (the example plan, B = 8-128)
_DENSE_CELLS = 1 << 17


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
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"cardinality of {k} must be an integer, got {v!r}")
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
        return {a: int(self.cards.get(a, defaults[a])) for a in PATTERNS[self.pattern][0]}


def factor_shapes(pattern: str, sizes: Mapping[str, int]) -> list[tuple[int, int]]:
    return [(math.prod(sizes[g] for g in given), math.prod(sizes[t] for t in targets))
            for targets, given in PATTERNS[pattern][1]]


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


def _pair(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """p(v1, v2 | v0) = p(v1 | v0) p(v2 | v0), row by row, of tables or stacks."""
    return (p1[..., :, None] * p2[..., None, :]).reshape(p1.shape[:-1] + (-1,))


def _expand_family(tables: Params, sizes: Mapping[str, int], family: str) -> Params:
    """Family tables [..., p(v1|v0), p(v2|v0), q] -> [..., p(v1,v2|v0), p(x|v0,v1,v2)].

    ``q`` holds the input law per (v0, v2) row for z_ignores_v1 and per
    (v0, v1) row otherwise (z_ignores_v2; collapse_v2, whose p(v2|v0) copies
    V0).  Leading tables pass through unchanged.  Works on single tables
    (rows, cols) and on stacks (B, rows, cols) alike.
    """
    *head, p1, p2, q = tables
    n0, n1, n2 = sizes["V0"], sizes["V1"], sizes["V2"]
    lead, nx = q.shape[:-2], q.shape[-1]
    if family == "z_ignores_v1":
        px = q.reshape(lead + (n0, 1, n2, nx)).repeat(n1, axis=-3)
    else:
        px = q.reshape(lead + (n0, n1, 1, nx)).repeat(n2, axis=-2)
    return [*head, _pair(p1, p2), px.reshape(lead + (n0 * n1 * n2, nx))]


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

    def _output(self, summed: int) -> ConditionalPmf:
        """p(z3 | x) (summed 1) or p(y1 | x) (summed 2) from the (y1, z3) columns."""
        m = self.to_y1z3.matrix.reshape(self.x_size, self.y1_size, self.z3_size)
        return ConditionalPmf(m.sum(axis=summed))

    to_y1 = property(lambda self: self._output(2))
    to_z3 = property(lambda self: self._output(1))

    @classmethod
    def from_joint(
        cls,
        joint: ConditionalPmf,
        y1_size: int,
        z2_size: int,
        z3_size: int,
    ) -> "MultilevelChannel":
        """Split p(y1,z2,z3|x), verifying the multilevel factorization to 1e-9 per entry."""
        nx = joint.rows
        if joint.cols != y1_size * z2_size * z3_size:
            raise DistributionError("output sizes do not factor the joint columns")
        t = joint.matrix.reshape(nx, y1_size, z2_size, z3_size)
        p_y1z3 = t.sum(axis=2)
        # p(z2|y1) from the x-pooled mass on each y1, then verified globally
        num = np.stack([t[:, y1].sum(axis=(0, 2)) for y1 in range(y1_size)])
        z2g = conditional(num, num.sum(axis=1))
        recon = p_y1z3[:, :, None, :] * z2g[None, :, :, None]
        if not np.allclose(recon, t, rtol=0, atol=1e-9):
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
# Scalar bounds as data, and the batched engine that evaluates them
# ---------------------------------------------------------------------------

# I(A;B|C) as its three axis sets; C is empty for a plain mutual information.
Term = tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]
# A signed sum of terms, added left to right.
Expr = tuple[tuple[int, Term], ...]

_TERM = re.compile(r"\s*([+-]?)\s*(\d*)\s*I\(([\w,]+);([\w,]+)(?:\|([\w,]+))?\)\s*")


@lru_cache(maxsize=None)
def _expr(text: str) -> Expr:
    """Parse a signed sum such as ``I(V0,V1;Y1|Q) - 2 I(V0;Z|Q)``.

    A term with an integer coefficient k enters the sum k times.
    """
    matches = list(_TERM.finditer(text))
    if "".join(m.group(0) for m in matches) != text:
        raise ValueError(f"cannot parse information expression {text!r}")
    return tuple(
        (-1 if sign == "-" else 1, tuple(tuple(s.split(",")) if s else () for s in (a, b, c)))
        for sign, k, a, b, c in (m.groups() for m in matches)
        for _ in range(int(k or 1))
    )


@dataclass(frozen=True)
class BoundTerms:
    """A scalar bound: the minimum of its ``rates``, each a signed sum of
    (C)MI terms, and NaN (inadmissible) where the signed sum ``gate`` falls
    below -ADMISSIBILITY_TOL.  A term names pattern axes and at most one
    receiver (Y1, Y2 or Z)."""

    rates: tuple[Expr, ...]
    gate: Expr = ()


_MARTON_SLACK = _expr("I(V1;Z|V0) + I(V2;Z|V0) - I(V1;V2|V0) - I(V1,V2;Z|V0)")

# the wiretap bound's legitimate receiver is Y1
_WIRETAP = BoundTerms((_expr("I(V;Y1) - I(V;Z)"),))
_CK_EXTENSION = BoundTerms((_expr("I(V;Y1|Q) - I(V;Z|Q)"), _expr("I(V;Y2|Q) - I(V;Z|Q)")))
_COROLLARY1 = BoundTerms((_expr("I(X;Y1|Q) - I(X;Z|Q)"), _expr("I(V;Y2|Q) - I(V;Z|Q)")))
_THEOREM1 = BoundTerms(
    (_expr("I(V0,V1;Y1|Q) - I(V0,V1;Z|Q)"), _expr("I(V0,V2;Y2|Q) - I(V0,V2;Z|Q)")),
    gate=_MARTON_SLACK,
)


def _signed_sum(expr, value: Callable):
    """A signed sum added left to right; ``value`` maps each term to its value."""
    total = 0.0
    for sign, term in expr:
        v = value(term)
        total = total + v if sign > 0 else total - v
    return total


def _check_rows(sums: np.ndarray, low: float) -> bool:
    """Raise as ConditionalPmf's row checks do on rows with these sums and
    least entry; True when an entry in [-PMF_TOL, 0) is left to clip.  The
    sums pass iff the largest and the smallest do; NaN fails."""
    if not (np.maximum.reduce(sums, None, initial=1.0) - 1.0 <= PMF_TOL
            and 1.0 - np.minimum.reduce(sums, None, initial=1.0) <= PMF_TOL):
        raise DistributionError("factor table has a row that does not sum to 1")
    if low < -PMF_TOL:
        raise DistributionError("factor table has negative entries")
    return low < 0


def _realize(pattern: str, sizes: Mapping[str, int], tables: Params) -> np.ndarray:
    """p(aux..., X) of stacked factor tables (B, rows, cols): (B, pattern sizes)."""
    return _RowRealizer(pattern, sizes)(tables, 0, 0, np.arange(len(tables[0])), tables[0][:, 0])


class _RowRealizer:
    """p(aux..., X) of an ``optim`` objective call's points: each cell the
    chain product, in chain order, of the point's whole tables.

    A stack object is checked once, at the first call on it; the first call
    on a table clips the stacks if a check found cause and multiplies the
    factors before it; a call then checks the changed factor's row ``r`` and
    multiplies on.  A theorem1 ``family``'s tables 2 and 3 make factor 2,
    table 4 factor 3, p(x|v0,v2) or p(x|v0,v1), broadcast as its expansion.
    """

    def __init__(self, pattern: str, sizes: Mapping[str, int], family: Optional[str] = None):
        chain = PATTERNS[pattern][1]
        self.pair = family is not None
        if self.pair:
            chain = chain[:3] + ((("X",), ("V0", "V2" if family == "z_ignores_v1" else "V1")),)
        # each factor broadcasts against the joint so far: the (joint, factor,
        # product) shapes of each, with a 1 per axis the joint or factor lacks
        self.shapes, covered = [], ()
        for targets, given in chain:
            covered += targets
            self.shapes.append([tuple(sizes[a] if a in keep else 1 for a in covered)
                                for keep in ({*covered} - {*targets}, given + targets, covered)])
        self.factor = [0, 1, 2, 2, 3] if self.pair else range(len(chain))  # of each table
        self._at = (None, None)

    def _start(self, tables: Params, fi: int) -> None:
        factors = [*tables[:2], _pair(*tables[2:4]), tables[4]] if self.pair else tables
        if self._at[0] is not tables:   # only checked rows enter a stack, so _clip sticks
            sums = np.concatenate([t.sum(axis=-1) for t in factors], axis=-1)
            self._clip = _check_rows(sums, min(t.min(initial=0.0) for t in factors))
        factors = [np.maximum(t, 0.0) for t in factors] if self._clip else factors
        f, n = self.factor[fi], len(tables[0])
        joint = np.ones(n)
        for (lhs, rhs, _), t in zip(self.shapes[:f], factors):
            joint = joint.reshape((n,) + lhs) * t.reshape((n,) + rhs)
        # the prefix and each later factor, broadcast to its product's shape:
        # no product then broadcasts along its innermost axes
        parts = [(joint, *self.shapes[f][::2])]
        parts += [(t, rhs, full) for (_, rhs, full), t in zip(self.shapes[f + 1:], factors[f + 1:])]
        self._parts = [np.empty((n,) + full) for *_, full in parts]
        for out, (t, shape, _) in zip(self._parts, parts):
            out[...] = t.reshape((n,) + shape)
        self._at = (tables, fi)

    def __call__(self, tables: Params, fi: int, r: int, owner: np.ndarray, rows: np.ndarray):
        if self._at[0] is not tables or self._at[1] != fi:
            self._start(tables, fi)
        f = self.factor[fi]
        changed = tables[fi].take(owner, axis=0)
        changed[:, r] = rows
        if self.pair and f == 2:  # times the other satellite's table
            other = tables[5 - fi].take(owner, axis=0)
            changed = _pair(changed, other) if fi == 2 else _pair(other, changed)
        new = changed[:, r]
        self._clip |= _check_rows(np.add.reduce(new, axis=-1), new.min(initial=0.0))
        if self._clip:
            changed = np.maximum(changed, 0.0)
        n, (prefix, *later) = owner.size, self._parts
        joint = prefix.take(owner, axis=0) * changed.reshape((n,) + self.shapes[f][1])
        for (lhs, _, _), factor in zip(self.shapes[f + 1:], later):
            joint = joint.reshape((n,) + lhs) * factor.take(owner, axis=0)
        return joint


class _BoundPlan:
    """A ``BoundTerms`` compiled against source axes and receiver matrices.

    Every distinct entropy the terms need (keyed by axis set) reads a pmf P
    that is linear in the source law: a marginal, pushed through a
    receiver's |X| x |R| matrix when it names one (X, the last source axis,
    kept as an outer product or summed by ``@``).  At the first call for a
    source shape the plan compiles these routes and ``ST`` (P's cells x the
    terms, each cell carrying its entropy's sign), so every term is
    -(P log2 P) @ ST.  A small plan also compiles its routes into ``M``
    (N source cells x K pmf cells): P is then one (1, N) @ M product per
    point.  A plan whose M and N x N identity exceed _DENSE_CELLS entries
    runs its routes, in memory that grows with N |R|, not N K.  Every numpy
    call takes each point on its own, so a point gets the same bits in any
    stack; which form runs depends only on the source shape.
    """

    def __init__(
        self, bound: BoundTerms, axes: tuple[str, ...], channels: Mapping[str, np.ndarray]
    ):
        self.axes, self.channels = axes, channels
        self.entropies: dict[frozenset, int] = {}
        terms: dict[Term, int] = {}
        signs: list[tuple[int, int, int]] = []  # (entropy, term, sign)

        def term(t: Term) -> int:
            if t not in terms:
                a, b, c = t
                terms[t] = len(terms)
                for names, sign in zip((a + c, b + c, a + b + c, c), (1, 1, -1, -1)):
                    if names:
                        receivers = [n for n in names if n not in axes]
                        if len(receivers) > 1:
                            raise AxisError(f"a term names more than one receiver: {receivers}")
                        e = self.entropies.setdefault(frozenset(names), len(self.entropies))
                        signs.append((e, terms[t], sign))
            return terms[t]

        self.rates = [[(sign, term(t)) for sign, t in rate] for rate in bound.rates]
        self.gate = [(sign, term(t)) for sign, t in bound.gate] or None
        self.terms = list(terms)
        self.signs = np.zeros((len(self.entropies), len(terms)))
        for e, t, sign in signs:
            self.signs[e, t] += sign
        self._compiled: dict[tuple[int, ...], tuple] = {}

    def _compile(self, sizes: tuple[int, ...]) -> tuple:
        """(M or None, routes, ST) for source laws of shape ``sizes``.

        The routes are (marginals, pmfs): each marginal sums axes away from
        the smallest earlier one that keeps its axes (the source law first),
        and each entropy's pmf reads a marginal, pushed through its
        receiver's matrix when it names one.
        """
        x, cells, pmfs = self.axes[-1], dict(zip(self.axes, sizes)), []
        for key in self.entropies:
            w = next((self.channels[a] for a in key if a not in cells), None)
            keep = tuple(a for a in self.axes if a in key or (w is not None and a == x))
            width = math.prod(cells[a] for a in key if a in cells)
            pmfs.append((keep, w, x in key, width if w is None else width * w.shape[1]))
        # largest first (a stable sort): the last earlier superset is the smallest
        keeps = sorted(dict.fromkeys([self.axes] + [p[0] for p in pmfs]), key=len, reverse=True)
        sets = [set(k) for k in keeps]
        marginals = []
        for j, keep in enumerate(keeps[1:], 1):
            src = next(i for i in reversed(range(j)) if sets[j] < sets[i])
            marginals.append((src, tuple(1 + i for i, a in enumerate(keeps[src]) if a not in keep)))
        pmfs = [(keeps.index(keep), *rest) for keep, *rest in pmfs]
        routes = (marginals, pmfs)
        st = np.repeat(self.signs, [width for *_, width in pmfs], axis=0)
        n, m = math.prod(sizes), None
        if n * (n + len(st)) <= _DENSE_CELLS:
            # row i of M is the pmfs of the i-th unit law: each entry is a 1
            # or a matrix entry, exact either way
            m = self._pmfs(routes, np.eye(n).reshape((n,) + sizes))[:, 0]
        return m, routes, st

    @staticmethod
    def _pmfs(routes: tuple, joint: np.ndarray) -> np.ndarray:
        """Every entropy's pmf, routed, at each of a stack of source laws: (B, 1, K)."""
        batch, nx = len(joint), joint.shape[-1]
        marginals, pmfs = routes
        laws = [joint]
        for src, drop in marginals:
            laws.append(laws[src].sum(axis=drop))
        parts = []
        for law, w, outer, width in pmfs:
            p = laws[law]
            if w is not None:
                p = p.reshape(batch, math.prod(p.shape[1:-1]), nx)
                p = p[..., None] * w if outer else p @ w
            parts.append(p.reshape(batch, 1, width))
        return np.concatenate(parts, axis=2)

    def information(self, joint: np.ndarray) -> np.ndarray:
        """Every compiled term at each of a stack of source laws, clamped at 0: (terms, B)."""
        shape = joint.shape[1:]
        if shape not in self._compiled:
            self._compiled[shape] = self._compile(shape)
        m, routes, st = self._compiled[shape]
        # (B, 1, N) @ M: one product per point
        p = self._pmfs(routes, joint) if m is None else joint.reshape(len(joint), 1, len(m)) @ m
        plog = log2_floored(p)  # p log2 p in one buffer; 0.0 - x folds its -0.0 cells
        info = (0.0 - np.multiply(p, plog, out=plog) @ st)[:, 0].T
        # one reduction on the common path; a NaN point reads NaN there, so scan
        if not info.min(initial=0.0) >= -MEASURE_TOL and (info < -MEASURE_TOL).any():
            t = int((info < -MEASURE_TOL).any(axis=1).argmax())
            a, b, c = self.terms[t]
            raise DistributionError(f"I({a};{b}|{c}) = {info[t].min()} is below -{MEASURE_TOL}")
        return np.maximum(info, 0.0)

    def __call__(self, joint: np.ndarray) -> np.ndarray:
        """The bound at each of a stack of source laws: B floats, NaN inadmissible."""
        info = self.information(joint)
        value = _signed_sum(self.rates[0], info.__getitem__)
        for rate in self.rates[1:]:
            value = np.minimum(value, _signed_sum(rate, info.__getitem__))
        if self.gate is not None:
            gate = _signed_sum(self.gate, info.__getitem__)
            value = np.where(gate < -ADMISSIBILITY_TOL, np.nan, value)
        return value


@lru_cache(maxsize=64)
def _cached_plan(bound: BoundTerms, axes: tuple, matrices: tuple) -> _BoundPlan:
    channels = {r: np.frombuffer(data).reshape(shape) for r, shape, data in matrices}
    return _BoundPlan(bound, axes, channels)


def _plan(bound: BoundTerms, axes: tuple, channels: Mapping[str, np.ndarray]) -> _BoundPlan:
    """The plan of ``bound`` on source ``axes``, one per receiver matrices'
    values: later calls reuse it and every source shape it has compiled."""
    return _cached_plan(
        bound, axes, tuple((r, w.shape, w.astype(float).tobytes()) for r, w in channels.items())
    )


def _channels(chans: BroadcastChannels) -> dict[str, np.ndarray]:
    return {"Y1": chans.to_y1.matrix, "Y2": chans.to_y2.matrix, "Z": chans.to_z.matrix}


def _one_point(
    pattern: str, dist, channels: Mapping[str, np.ndarray], strict_tag: bool = True
) -> np.ndarray:
    """p(pattern axes) of ``dist`` as a one-point stack (1, pattern sizes).

    Axes of ``dist`` outside the pattern are marginalized away.
    """
    axes, _ = PATTERNS[pattern]
    tag = dist.pattern if isinstance(dist, FactoredDistribution) else None
    if strict_tag and tag not in (None, pattern):
        raise PatternError(f"expected pattern {pattern!r}, got {tag!r}")
    j = as_joint(dist)
    missing = [a for a in axes if a not in j.axes]
    if missing:
        raise PatternError(f"distribution is missing axes {missing} for {pattern!r}")
    if any(w.shape[0] != j.size("X") for w in channels.values()):
        raise DistributionError("channel input alphabet does not match X")
    return j.marginal(axes).tensor[None]


def _at_point(
    bound: BoundTerms,
    pattern: str,
    dist,
    channels: Mapping[str, np.ndarray],
    strict_tag: bool = True,
) -> float:
    """``bound`` at one distribution: the batched engine on a one-point stack."""
    joint = _one_point(pattern, dist, channels, strict_tag)
    return float(_plan(bound, PATTERNS[pattern][0], channels)(joint)[0])


def wiretap_rate(dist, chan_y: ConditionalPmf, chan_z: ConditionalPmf) -> float:
    """I(V;Y) - I(V;Z); may be negative at a bad distribution.

    Accepts any distribution whose axes include V and X.
    """
    return _at_point(
        _WIRETAP, "wiretap", dist, {"Y1": chan_y.matrix, "Z": chan_z.matrix}, strict_tag=False
    )


def ck_extension_rate(dist, chans: BroadcastChannels) -> float:
    """min_j I(V;Yj|Q) - I(V;Z|Q): the two-receiver wiretap extension."""
    return _at_point(_CK_EXTENSION, "ck", dist, _channels(chans))


def corollary1_rate(dist, chans: BroadcastChannels) -> float:
    """min{I(X;Y1|Q) - I(X;Z|Q), I(V;Y2|Q) - I(V;Z|Q)}."""
    return _at_point(_COROLLARY1, "ck", dist, _channels(chans))


def admissibility_slack(j: JointPmf) -> float:
    """I(V1;Z|V0) + I(V2;Z|V0) - I(V1;V2|V0) - I(V1,V2;Z|V0)."""
    return _signed_sum(_MARTON_SLACK, lambda t: j.conditional_mutual_information(*t))


def theorem1_rate(dist, chans: BroadcastChannels) -> Optional[float]:
    """Marton-coded secrecy rate, or None when the point is inadmissible."""
    value = _at_point(_THEOREM1, "theorem1", dist, _channels(chans))
    return None if np.isnan(value) else value


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


def _row(label, lhs, relation, *rhs, positive=False, clamp=None) -> tuple:
    """A region row as data: lhs . rates REL the minimum of the signed sums ``rhs``.

    No ``rhs`` means 0; ``positive`` takes the positive part; ``clamp`` is
    (signed sum, coeffs), the ``RegionRow`` clamp with the sum as its const.
    """
    return label, lhs, relation, rhs, positive, clamp


_THEOREM2_ROWS = (
    _row("r0", {"R0": 1}, "<", "I(U;Z)"),
    _row("r0r1-private", {"R0": 1, "R1": 1}, "<",
         "I(U;Z) + I(V0,V1;Y1|U) - I(V1;Z|V0)", "I(U;Z) + I(V0,V2;Y2|U) - I(V2;Z|V0)"),
    _row("r0r1-total", {"R0": 1, "R1": 1}, "<",
         "I(V0,V1;Y1) - I(V1;Z|V0)", "I(V0,V2;Y2) - I(V2;Z|V0)"),
    _row("re-le-r1", {"Re": 1, "R1": -1}, "<="),
    _row("re", {"Re": 1}, "<",
         "I(V0,V1;Y1|U) - I(V0,V1;Z|U)", "I(V0,V2;Y2|U) - I(V0,V2;Z|U)"),
    _row("r0re", {"R0": 1, "Re": 1}, "<",
         "I(V0,V1;Y1) - I(V0,V1;Z|U)", "I(V0,V2;Y2) - I(V0,V2;Z|U)"),
    _row("r02re-y1", {"R0": 1, "Re": 2}, "<",
         "I(V0,V1;Y1) + I(V0,V2;Y2|U) - I(V1;V2|V0) - 2 I(V0;Z|U)"),
    _row("r02re-y2", {"R0": 1, "Re": 2}, "<",
         "I(V0,V2;Y2) + I(V0,V1;Y1|U) - I(V1;V2|V0) - 2 I(V0;Z|U)"),
    _row("r0r12re-y1", {"R0": 1, "R1": 1, "Re": 2}, "<", "I(V0,V2;Y2|U) - I(V2;Z|V0)"
         " + I(V0,V1;Y1) + I(V0,V2;Y2|U) - I(V1;V2|V0) - 2 I(V0;Z|U)"),
    _row("r0r12re-y2", {"R0": 1, "R1": 1, "Re": 2}, "<", "I(V0,V1;Y1|U) - I(V1;Z|V0)"
         " + I(V0,V2;Y2) + I(V0,V1;Y1|U) - I(V1;V2|V0) - 2 I(V0;Z|U)"),
)

_PROP1_ROWS = (
    _row("r0", {"R0": 1}, "<=", "I(U;Z)"),
    _row("r1", {"R1": 1}, "<=", "I(X;Y1|U)", "I(X;Y2|U)"),
    _row("re-le-r1", {"Re": 1, "R1": -1}, "<="),
    _row("re", {"Re": 1}, "<=", "I(X;Y1|U) - I(X;Z|U)", "I(X;Y2|U) - I(X;Z|U)", positive=True),
)

# [I(U3;Z3) - R0 - I(U3;Z2|U)]^+ of the multilevel equivocation bounds
_MULTILEVEL_CLAMP = ("I(U3;Z3) - I(U3;Z2|U)", {"R0": -1.0})

_PROP2_ROWS = (
    _row("r0", {"R0": 1}, "<", "I(U;Z2)", "I(U3;Z3)"),
    _row("r1", {"R1": 1}, "<", "I(V;Y1|U)"),
    _row("r0r1", {"R0": 1, "R1": 1}, "<", "I(U3;Z3) + I(V;Y1|U3)"),
    _row("re2-le-r1", {"Re2": 1, "R1": -1}, "<="),
    _row("re2-u", {"Re2": 1}, "<=", "I(V;Y1|U) - I(V;Z2|U)"),
    _row("re2-clamp", {"Re2": 1}, "<=", "I(V;Y1|U3) - I(V;Z2|U3)", clamp=_MULTILEVEL_CLAMP),
    _row("re3-le-r1", {"Re3": 1, "R1": -1}, "<="),
    _row("re3", {"Re3": 1}, "<=", "I(V;Y1|U3) - I(V;Z3|U3)", positive=True),
    _row("re2re3", {"Re2": 1, "Re3": 1, "R1": -1}, "<=", "I(V;Y1|U3) - I(V;Z2|U3)"),
)

_PROP3_ROWS = (
    _row("r0", {"R0": 1}, "<=", "I(U;Z2)", "I(U3;Z3)"),
    _row("r1", {"R1": 1}, "<=", "I(V;Y1|U)"),
    _row("r0r1", {"R0": 1, "R1": 1}, "<=", "I(U3;Z3) + I(V;Y1|U3)"),
    _row("re2-u", {"Re2": 1}, "<=", "I(X;Y1|U) - I(X;Z2|U)"),
    _row("re2-clamp", {"Re2": 1}, "<=", "I(X;Y1|U3) - I(X;Z2|U3)", clamp=_MULTILEVEL_CLAMP),
    _row("re3", {"Re3": 1}, "<=", "I(V;Y1|U3) - I(V;Z3|U3)", positive=True),
)


def _multilevel_channels(ml: MultilevelChannel) -> dict[str, np.ndarray]:
    """Y1, Z3 and the cascade Z2 of Y1, each as a matrix from X."""
    y1 = ml.to_y1.matrix
    return {"Y1": y1, "Z3": ml.to_z3.matrix, "Z2": y1 @ ml.z2_given_y1.matrix}


# region id -> (rows, pattern, channel type, its receiver matrices, gate)
_REGIONS: dict[str, tuple] = {
    # inner bound with common message and equivocation; None where Marton admissibility fails
    "theorem2": (_THEOREM2_ROWS, "theorem2", BroadcastChannels, _channels, _MARTON_SLACK),
    # capacity region when both receivers are less noisy than Z (the caller checks the ordering)
    "prop1": (_PROP1_ROWS, "prop1", BroadcastChannels, _channels, ()),
    # multilevel inner bound; [I(U3;Z3) - R0 - I(U3;Z2|U)]^+ is the clamp of its R0-coupled row
    "prop2-inner": (_PROP2_ROWS, "multilevel", MultilevelChannel, _multilevel_channels, ()),
    # multilevel outer bound (six inequalities)
    "prop3-outer": (_PROP3_ROWS, "multilevel", MultilevelChannel, _multilevel_channels, ()),
}


def region(region_id: str, dist, chans) -> Optional[RateRegionSample]:
    """Region ``region_id`` (see ``_REGIONS``) at one distribution.

    None where the region's gate falls below -ADMISSIBILITY_TOL.  The rate
    variables are the rows' lhs keys, in order of first use; a row's min
    over signed sums is emitted evaluated.  Every signed sum of every row
    is a rate of one plan, run on a one-point stack.
    """
    if region_id not in _REGIONS:
        raise KeyError(f"unknown region id {region_id!r}; have {sorted(_REGIONS)}")
    rows, pattern, family, matrices, gate = _REGIONS[region_id]
    if not isinstance(chans, family):
        raise TypeError(f"{region_id!r} needs a {family.__name__}, not {type(chans).__name__}")
    channels = matrices(chans)
    exprs = [e for *_, rhs, _, clamp in rows for e in rhs + (clamp[:1] if clamp else ())]
    plan = _plan(BoundTerms(tuple(map(_expr, exprs)), gate), PATTERNS[pattern][0], channels)
    info = plan.information(_one_point(pattern, dist, channels)).__getitem__
    if gate and _signed_sum(plan.gate, info)[0] < -ADMISSIBILITY_TOL:
        return None
    value = {e: float(_signed_sum(rate, info)[0]) for e, rate in zip(exprs, plan.rates)}
    out = []
    for label, lhs, relation, rhs, positive, clamp in rows:
        bound = min((value[e] for e in rhs), default=0.0)
        if positive:
            bound = max(0.0, bound)
        if clamp is not None:
            clamp = (value[clamp[0]], clamp[1])
        out.append(RegionRow(label, lhs, relation, bound, clamp))
    variables = tuple(dict.fromkeys(v for row in rows for v in row[1]))
    return RateRegionSample(variables, tuple(out))


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
    j = JointPmf((), 1.0)

    def gain(ls, receiver, over):
        """I(U_ls; receiver) - I(U_ls; Z) over components ``over``, on the joint so far."""
        us = tuple(f"U{l}" for l in ls)
        return (j.mutual_information(us, tuple(f"{receiver}{m}" for m in over))
                - j.mutual_information(us, tuple(f"Z{m}" for m in over)))

    d1, d2 = [], []
    for l, comp in enumerate(components):
        u = np.asarray([float(v) for v in comp.u], dtype=float)
        j = j.extend((), [(f"U{l}", u.size)], ConditionalPmf([u]))
        j = j.extend((f"U{l}",), [(f"X{l}", comp.x_given_u.cols)], comp.x_given_u)
        for name, chan in ((f"Y1_{l}", comp.to_y1), (f"Y2_{l}", comp.to_y2), (f"Z{l}", comp.to_z)):
            j = j.extend((f"X{l}",), [(name, chan.cols)], chan)
        d1.append(gain((l,), "Y1_", (l,)))
        d2.append(gain((l,), "Y2_", (l,)))
    tol = 1e-12
    A = tuple(l for l in range(k) if d1[l] >= -tol)
    B = tuple(l for l in range(k) if d2[l] >= -tol)
    C = tuple(l for l in range(k) if l in A and l in B)
    value = min(
        sum(max(0.0, d) for d in d1),
        sum(max(0.0, d) for d in d2),
    )
    r1, r2 = gain(A, "Y1_", range(k)), gain(B, "Y2_", range(k))
    axes = {"V0": tuple(f"U{l}" for l in C), "V1": tuple(f"U{l}" for l in A if l not in C),
            "V2": tuple(f"U{l}" for l in B if l not in C), "Z": tuple(f"Z{l}" for l in range(k))}
    slack = _signed_sum(_MARTON_SLACK, lambda t: j.conditional_mutual_information(
        *(sum((axes[a] for a in s), ()) for s in t))) if axes["V1"] and axes["V2"] else 0.0
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
    evaluations: int  # the winning search's count; theorem1 runs one per family
    search_evaluations: int  # the total over every search maximize ran
    objective_points: int  # points the searches evaluated, speculative ones included


_SCALAR_BOUNDS: dict[str, tuple[str, Callable]] = {
    "wiretap": ("wiretap", lambda d, ch: wiretap_rate(d, ch.to_y1, ch.to_z)),
    "ck_extension": ("ck", ck_extension_rate),
    "corollary1": ("ck", corollary1_rate),
    "theorem1": ("theorem1", theorem1_rate),
}

# what maximize's batched objective evaluates for each bound id
_BOUND_TERMS: dict[str, BoundTerms] = {
    "wiretap": _WIRETAP,
    "ck_extension": _CK_EXTENSION,
    "corollary1": _COROLLARY1,
    "theorem1": _THEOREM1,
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


def _search_spaces(
    pattern: str, sizes: Mapping[str, int]
) -> list[tuple[list[tuple[int, int]], Optional[str]]]:
    """(table shapes, theorem1 family or None) for each search.

    Every pattern is searched over its own factor tables, except theorem1.
    Marton admissibility rearranges to I(V1;V2|V0,Z) = 0, a measure-zero
    manifold that unconstrained simplex search never hits; theorem1 is
    therefore searched over two structured families, conditionally
    independent satellites with the channel input ignoring one of them
    (each family satisfies the constraint identically, and the collapse
    V2 = V0 lies inside the first family).
    """
    if pattern != "theorem1":
        return [(factor_shapes(pattern, sizes), None)]
    nq, n0, n1, n2, nx = (
        sizes["Q"], sizes["V0"], sizes["V1"], sizes["V2"], sizes["X"]
    )
    spaces = []
    for family in ("z_ignores_v2", "z_ignores_v1"):
        q_rows = n0 * n2 if family == "z_ignores_v1" else n0 * n1
        spaces.append(([(1, nq), (nq, n0), (n0, n1), (n0, n2), (q_rows, nx)], family))
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
    NoAdmissiblePointError.  The searches evaluate the bound's terms on the
    stacked tables of all their starts at once.  The argmax is re-evaluated
    as a factored distribution through the bound's scalar evaluator; a value
    that does not reproduce raises ReevaluationError.  ``evaluations`` is
    the winning search's count, ``search_evaluations`` the count over every
    search (theorem1 searches both of its admissible families).
    """
    pattern, fn = _lookup(bound_id)
    if aux.pattern != pattern:
        raise PatternError(f"bound {bound_id!r} needs pattern {pattern!r}")
    sizes = aux.resolve(chans.x_size)
    plan = _plan(_BOUND_TERMS[bound_id], PATTERNS[pattern][0], _channels(chans))
    best = None
    search_evaluations = objective_points = 0
    for shapes, family in _search_spaces(pattern, sizes):

        def objective(*change, realize=_RowRealizer(pattern, sizes, family)) -> np.ndarray:
            return plan(realize(*change))

        # deterministic all-uniform start: the auxiliaries decouple from X there,
        # pinning the reported maximum at >= 0 (these secrecy bounds clamp at 0)
        baseline = [np.full((rows, cols), 1.0 / cols) for rows, cols in shapes]
        res = search_factored(objective, shapes, budget, extra_starts=[baseline])
        search_evaluations += res.evaluations
        objective_points += res.objective_points
        if best is None or res.value > best[0].value:
            best = (res, family)
    res, family = best
    tables = res.params if family is None else _expand_family(res.params, sizes, family)
    argmax = build_factored(pattern, sizes, tables)
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
        search_evaluations=search_evaluations,
        objective_points=objective_points,
    )
