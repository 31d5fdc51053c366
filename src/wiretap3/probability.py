"""Finite-alphabet probability objects and information measures.

Conventions used throughout the package:

- All logarithms are base 2; every information quantity is in bits.
- 0*log(0) := 0.  All in-scope computations stay on common support, so
  p*log(p/0) never arises; a distribution with negative mass or mass not
  summing to 1 is rejected at construction time instead.
- Distributions are dense tensors over named axes.  Alphabet sizes in
  scope are small (<= ~12 per axis), so dense storage is always fine.
- Values are immutable after construction and safe to share; every
  operation is a pure function.

Tolerances: pmf validation uses ``PMF_TOL`` (1e-12); identities between
information measures are only guaranteed to ``MEASURE_TOL`` (1e-10).

Entries may be given as ``fractions.Fraction``; exact entries are kept
alongside the float tensor so that downstream exact procedures (channel
ordering feasibility, spec-file round trips) can use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

PMF_TOL = 1e-12
MEASURE_TOL = 1e-10

Number = Union[int, float, Fraction]


class DistributionError(ValueError):
    """A probability object violates its invariants."""


class AxisError(ValueError):
    """An operation referenced unknown, duplicate or overlapping axes."""


def _exact_row(values) -> Optional[tuple]:
    """The entries as Fractions if every one is an int, numpy integer or Fraction, else None."""
    if not all(isinstance(v, (int, np.integer, Fraction)) for v in values):
        return None
    return tuple(v if isinstance(v, Fraction) else Fraction(int(v)) for v in values)


def log2_cells(p: np.ndarray) -> np.ndarray:
    """log2 of every cell of ``p``, 0 at cells <= 0 (and NaN): they take log2(1).

    The package's one home of the 0*log0 = 0 convention: ``entropy_bits``
    weights these logs by p, and the simulator's Monte Carlo scores sum
    them.  A masked log2 is slower.  The bounds engine uses ``log2_floored``.
    """
    cells = np.where(p > 0, p, 1.0)
    return np.log2(cells, out=cells)


def log2_floored(p: np.ndarray) -> np.ndarray:
    """log2 of every cell of ``p`` >= 0, floored at the least subnormal: -1074 at 0.

    Times p, it is ``p * log2_cells(p)`` with no mask or copy, but -0.0 at 0.
    """
    cells = np.maximum(p, 5e-324)
    return np.log2(cells, out=cells)


def conditional(joint: np.ndarray, given: np.ndarray) -> np.ndarray:
    """p(rest | given) = joint / given, uniform over the rest where the given has no mass.

    ``given`` is the joint's marginal on its leading axes.  Callers pass the
    one they already hold: summed here in another order, it could differ in
    its last bit.
    """
    rest = joint.shape[given.ndim:]
    den = given.reshape(given.shape + (1,) * len(rest))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, joint / den, 1.0 / math.prod(rest))


def entropy_bits(p, ndim: Optional[int] = None) -> np.ndarray:
    """H in bits over the trailing ``ndim`` axes of ``p`` (all axes by default).

    The -sum p log2 p of every entropy and (conditional) mutual information
    outside the bounds engine, one pmf or a stack of them.  The trailing
    cells are reduced as one flat run by one dot product each, so a pmf in
    a stack gets the same bits as the pmf alone.
    """
    p = np.asarray(p, dtype=float)
    k = p.ndim if ndim is None else ndim
    flat = p.reshape(p.shape[: p.ndim - k] + (-1,))
    return 0.0 - np.vecdot(flat, log2_cells(flat))  # 0.0 - x folds -0.0 into 0.0


def entropy_of_vector(p: np.ndarray) -> float:
    """H(p) in bits over all cells of ``p``, as a float."""
    return float(entropy_bits(p))


@dataclass(frozen=True, eq=False)
class Pmf:
    """A probability vector over a finite alphabet."""

    probs: np.ndarray
    exact: Optional[tuple] = field(default=None, compare=False)

    def __init__(self, probs: Sequence[Number]):
        exact = _exact_row(probs)
        arr = np.asarray([float(p) for p in probs], dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DistributionError("pmf must be a non-empty vector")
        # written so that NaN fails the checks (every comparison with NaN is False)
        if not (arr >= -PMF_TOL).all():
            raise DistributionError(f"pmf has negative or NaN entries: {arr}")
        if exact is not None:
            if sum(exact, Fraction(0)) != 1:
                raise DistributionError("exact pmf entries do not sum to 1")
        elif not abs(arr.sum() - 1.0) <= PMF_TOL:
            raise DistributionError(f"pmf sums to {arr.sum()}, not 1")
        object.__setattr__(self, "probs", np.clip(arr, 0.0, None))
        object.__setattr__(self, "exact", exact)
        self.probs.setflags(write=False)

    @property
    def alphabet_size(self) -> int:
        return int(self.probs.size)

    @staticmethod
    def uniform(n: int) -> "Pmf":
        return Pmf([Fraction(1, n)] * n)

    def entropy(self) -> float:
        return entropy_of_vector(self.probs)


def entropy(p: Union[Pmf, Sequence[Number]]) -> float:
    """Shannon entropy of a pmf, in bits."""
    if not isinstance(p, Pmf):
        p = Pmf(p)
    return p.entropy()


def binary_entropy(p: float) -> float:
    return entropy_of_vector(np.asarray([p, 1.0 - p]))


@dataclass(frozen=True, eq=False)
class ConditionalPmf:
    """A row-stochastic matrix: rows index inputs, columns index outputs."""

    matrix: np.ndarray
    exact: Optional[tuple] = field(default=None, compare=False)

    def __init__(self, matrix: Sequence[Sequence[Number]]):
        exact = tuple(map(_exact_row, matrix))
        exact = None if None in exact else exact
        arr = np.asarray([[float(v) for v in row] for row in matrix], dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise DistributionError("conditional pmf must be a non-empty matrix")
        for i, row in enumerate(arr):
            if not (row >= -PMF_TOL).all():
                raise DistributionError(f"row {i} has negative or NaN entries")
            if exact is not None:
                if sum(exact[i], Fraction(0)) != 1:
                    raise DistributionError(f"exact row {i} does not sum to 1")
            elif not abs(row.sum() - 1.0) <= PMF_TOL:
                raise DistributionError(f"row {i} sums to {row.sum()}, not 1")
        object.__setattr__(self, "matrix", np.clip(arr, 0.0, None))
        object.__setattr__(self, "exact", exact)
        self.matrix.setflags(write=False)

    @property
    def rows(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def cols(self) -> int:
        return int(self.matrix.shape[1])

    @staticmethod
    def identity(n: int) -> "ConditionalPmf":
        return ConditionalPmf([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])


def bsc(p: Number) -> ConditionalPmf:
    """Binary symmetric channel with crossover probability p."""
    q = 1 - p
    return ConditionalPmf([[q, p], [p, q]])


def erasure_channel(e: Number) -> ConditionalPmf:
    """Binary erasure channel with output alphabet ordered (0, E, 1)."""
    return ConditionalPmf([[1 - e, e, 0], [0, e, 1 - e]])


def erase_further(e: Number) -> ConditionalPmf:
    """Channel on the alphabet (0, E, 1) that erases the survivors further.

    Non-erasure symbols survive with probability 1-e; E stays E.
    """
    return ConditionalPmf([[1 - e, e, 0], [0, 1, 0], [0, e, 1 - e]])


def _tables(*chans: ConditionalPmf) -> list[np.ndarray]:
    """The channels' exact entries as object arrays if all are exact, else their floats."""
    exact = all(c.exact is not None for c in chans)
    return [np.array(c.exact, dtype=object) if exact else c.matrix for c in chans]


def cascade(f: ConditionalPmf, g: ConditionalPmf) -> ConditionalPmf:
    """Compose two channels: input -> f -> g.  Matrix product f @ g."""
    if f.cols != g.rows:
        raise DistributionError(
            f"cascade mismatch: first channel has {f.cols} outputs, "
            f"second expects {g.rows} inputs"
        )
    a, b = _tables(f, g)
    return ConditionalPmf(a @ b)


def product_channel(components: Sequence[ConditionalPmf]) -> ConditionalPmf:
    """Kronecker product channel over the product input/output alphabets.

    Index order is row-major in the component order, matching how joint
    axes of product variables are flattened elsewhere in the package.
    """
    if not components:
        raise DistributionError("product_channel needs at least one component")
    out = components[0]
    for comp in components[1:]:
        a, b = _tables(out, comp)
        out = ConditionalPmf(np.kron(a, b))
    return out


@dataclass(frozen=True, eq=False)
class JointPmf:
    """A joint pmf over named axes, stored as a dense tensor."""

    axes: tuple[str, ...]
    tensor: np.ndarray

    def __init__(self, axes: Sequence[str], tensor: np.ndarray):
        axes = tuple(axes)
        if len(set(axes)) != len(axes):
            raise AxisError(f"duplicate axis names: {axes}")
        arr = np.asarray(tensor, dtype=float)
        if arr.ndim != len(axes):
            raise AxisError(
                f"tensor has {arr.ndim} dimensions for {len(axes)} axes"
            )
        if not (arr >= -PMF_TOL).all():
            raise DistributionError("joint pmf has negative or NaN entries")
        if not abs(arr.sum() - 1.0) <= PMF_TOL * max(1, arr.size):
            raise DistributionError(f"joint pmf sums to {arr.sum()}, not 1")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "tensor", np.clip(arr, 0.0, None))
        self.tensor.setflags(write=False)

    def size(self, axis: str) -> int:
        return int(self.tensor.shape[self.axes.index(axis)])

    def _check_axes(self, names: Iterable[str]) -> tuple[str, ...]:
        names = tuple(names)
        for name in names:
            if name not in self.axes:
                raise AxisError(f"unknown axis {name!r}; have {self.axes}")
        if len(set(names)) != len(names):
            raise AxisError(f"duplicate axes in {names}")
        return names

    def marginal(self, keep: Sequence[str]) -> "JointPmf":
        keep = self._check_axes(keep)
        drop = tuple(i for i, a in enumerate(self.axes) if a not in keep)
        t = self.tensor.sum(axis=drop) if drop else self.tensor
        remaining = tuple(a for a in self.axes if a in keep)
        # reorder to the requested axis order
        perm = tuple(remaining.index(a) for a in keep)
        return JointPmf(keep, np.transpose(t, perm))

    def entropy(self, axes: Sequence[str]) -> float:
        keep = self._check_axes(axes)
        drop = tuple(i for i, a in enumerate(self.axes) if a not in keep)
        return entropy_of_vector(self.tensor.sum(axis=drop) if drop else self.tensor)

    def mutual_information(self, axes_a: Sequence[str], axes_b: Sequence[str]) -> float:
        return self.conditional_mutual_information(axes_a, axes_b, ())

    def conditional_mutual_information(
        self,
        axes_a: Sequence[str],
        axes_b: Sequence[str],
        axes_c: Sequence[str],
    ) -> float:
        """I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C); I(A;B) when C is empty."""
        a, b, c = (self._check_axes(x) for x in (axes_a, axes_b, axes_c))
        if len(set(a + b + c)) != len(a + b + c):
            raise AxisError("axis sets must be pairwise disjoint")
        value = self.entropy(a + c) + self.entropy(b + c) - self.entropy(a + b + c)
        if c:
            value -= self.entropy(c)
        if value < -MEASURE_TOL:
            raise DistributionError(f"mutual information {value} below -tolerance")
        return max(value, 0.0)

    def extend(
        self,
        given: Sequence[str],
        targets: Sequence[tuple[str, int]],
        chan: ConditionalPmf,
    ) -> "JointPmf":
        """Attach new axes distributed according to chan given existing axes.

        ``chan`` rows are indexed row-major by the ``given`` axes, columns
        row-major by the new target axes.
        """
        given = self._check_axes(given)
        names = [t[0] for t in targets]
        sizes = tuple(t[1] for t in targets)
        for name in names:
            if name in self.axes:
                raise AxisError(f"target axis {name!r} already present")
        given_sizes = tuple(self.size(g) for g in given)
        rows, cols = math.prod(given_sizes), math.prod(sizes)
        if chan.rows != rows or chan.cols != cols:
            raise DistributionError(
                f"channel shape {chan.rows}x{chan.cols} does not match "
                f"given product {rows} and target product {cols}"
            )
        # the factor's given axes in joint order, size 1 on the joint's other axes
        order = sorted(range(len(given)), key=lambda i: self.axes.index(given[i]))
        factor = chan.matrix.reshape(given_sizes + sizes).transpose(
            order + list(range(len(given), len(given) + len(sizes)))
        ).reshape(tuple(self.size(a) if a in given else 1 for a in self.axes) + sizes)
        tensor = self.tensor.reshape(self.tensor.shape + (1,) * len(names)) * factor
        return JointPmf(tuple(self.axes) + tuple(names), tensor)

    @staticmethod
    def from_pmf(axis: str, p: Pmf) -> "JointPmf":
        return JointPmf((axis,), p.probs)

    @staticmethod
    def product(parts: Sequence[tuple[str, Pmf]]) -> "JointPmf":
        """Joint law of independent named variables."""
        j = JointPmf.from_pmf(parts[0][0], parts[0][1])
        for name, p in parts[1:]:
            j = j.extend((), [(name, p.alphabet_size)], ConditionalPmf([p.probs]))
        return j


@dataclass(frozen=True)
class Factor:
    """One conditional factor p(targets | given) of a factored distribution."""

    targets: tuple[str, ...]
    given: tuple[str, ...]
    table: ConditionalPmf

    def __init__(self, targets: Sequence[str], given: Sequence[str], table):
        if not isinstance(table, ConditionalPmf):
            table = ConditionalPmf(table)
        object.__setattr__(self, "targets", tuple(targets))
        object.__setattr__(self, "given", tuple(given))
        object.__setattr__(self, "table", table)


@dataclass(frozen=True, eq=False)
class FactoredDistribution:
    """A chain of conditional factors realizing a joint pmf.

    Axes are declared up front with their sizes; factors are applied in
    order, each conditioning only on axes already introduced.  The
    realized JointPmf is built at construction and revalidated against
    the product of factors (within PMF_TOL per entry by construction).
    """

    axis_sizes: tuple[tuple[str, int], ...]
    factors: tuple[Factor, ...]
    pattern: Optional[str] = None

    def __init__(
        self,
        axis_sizes: Sequence[tuple[str, int]],
        factors: Sequence[Factor],
        pattern: Optional[str] = None,
    ):
        object.__setattr__(self, "axis_sizes", tuple((str(a), int(n)) for a, n in axis_sizes))
        object.__setattr__(self, "factors", tuple(factors))
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "_realization", self._realize())

    @property
    def axes(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.axis_sizes)

    @property
    def realization(self) -> JointPmf:
        return self._realization

    def _realize(self) -> JointPmf:
        if not self.factors:
            raise DistributionError("factored distribution has no factors")
        sizes = dict(self.axis_sizes)
        covered: list[str] = []
        joint = JointPmf((), 1.0)
        for f in self.factors:
            for t in f.targets:
                if t not in sizes:
                    raise AxisError(f"factor targets undeclared axis {t!r}")
                if t in covered:
                    raise AxisError(f"axis {t!r} generated twice")
            for g in f.given:
                if g not in covered:
                    raise AxisError(
                        f"factor conditions on {g!r} before it is generated"
                    )
            joint = joint.extend(f.given, [(t, sizes[t]) for t in f.targets], f.table)
            covered.extend(f.targets)
        if tuple(covered) != self.axes:
            # realization axes follow generation order; reorder to declaration
            joint = joint.marginal(self.axes)
        return joint


def as_joint(dist) -> JointPmf:
    """A FactoredDistribution's realization; a JointPmf as it is."""
    if isinstance(dist, FactoredDistribution):
        return dist.realization
    if isinstance(dist, JointPmf):
        return dist
    raise DistributionError(f"cannot interpret {type(dist).__name__} as a distribution")
