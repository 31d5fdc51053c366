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

import string
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

PMF_TOL = 1e-12
MEASURE_TOL = 1e-10

Number = Union[int, float, Fraction]


class DistributionError(ValueError):
    """A probability object violates its invariants."""


class AxisError(ValueError):
    """An operation referenced unknown, duplicate or overlapping axes."""


def _as_fraction_or_none(values) -> Optional[tuple]:
    """Return a nested tuple of Fractions if every entry is exact, else None."""
    out = []
    for v in values:
        if isinstance(v, (list, tuple)):
            sub = _as_fraction_or_none(v)
            if sub is None:
                return None
            out.append(sub)
        elif isinstance(v, (int, Fraction)) or (
            isinstance(v, np.integer)
        ):
            out.append(Fraction(int(v)) if not isinstance(v, Fraction) else v)
        else:
            return None
    return tuple(out)


def entropy_bits(p, ndim: Optional[int] = None) -> np.ndarray:
    """H in bits over the trailing ``ndim`` axes of ``p`` (all axes by default).

    The package's only -sum p log2 p: every entropy and (conditional)
    mutual information goes through here, one pmf or a stack of them.
    Cells <= 0 contribute 0 (the 0*log0 = 0 convention) and never reach
    log2.  The trailing cells are reduced as one flat run by one dot
    product each, so a pmf in a stack gets the same bits as the pmf alone.
    """
    p = np.asarray(p, dtype=float)
    k = p.ndim if ndim is None else ndim
    flat = p.reshape(p.shape[: p.ndim - k] + (-1,))
    logs = np.log2(flat, out=np.zeros(flat.shape), where=flat > 0)
    return 0.0 - np.vecdot(flat, logs)  # 0.0 - x folds -0.0 into 0.0


def entropy_of_vector(p: np.ndarray) -> float:
    """H(p) in bits over all cells of ``p``, as a float."""
    return float(entropy_bits(p))


@dataclass(frozen=True, eq=False)
class Pmf:
    """A probability vector over a finite alphabet."""

    probs: np.ndarray
    exact: Optional[tuple] = field(default=None, compare=False)

    def __init__(self, probs: Sequence[Number]):
        exact = _as_fraction_or_none(list(probs))
        arr = np.asarray([float(p) for p in probs], dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DistributionError("pmf must be a non-empty vector")
        if (arr < -PMF_TOL).any():
            raise DistributionError(f"pmf has negative entries: {arr}")
        if exact is not None:
            if sum(exact, Fraction(0)) != 1:
                raise DistributionError("exact pmf entries do not sum to 1")
        elif abs(arr.sum() - 1.0) > PMF_TOL:
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
        exact = _as_fraction_or_none([list(r) for r in matrix])
        arr = np.asarray([[float(v) for v in row] for row in matrix], dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise DistributionError("conditional pmf must be a non-empty matrix")
        for i, row in enumerate(arr):
            if (row < -PMF_TOL).any():
                raise DistributionError(f"row {i} has negative entries")
            if exact is not None:
                if sum(exact[i], Fraction(0)) != 1:
                    raise DistributionError(f"exact row {i} does not sum to 1")
            elif abs(row.sum() - 1.0) > PMF_TOL:
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

    def row(self, i: int) -> Pmf:
        if self.exact is not None:
            return Pmf(self.exact[i])
        return Pmf(self.matrix[i])

    @staticmethod
    def identity(n: int) -> "ConditionalPmf":
        return ConditionalPmf([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])


def bsc(p: Number) -> ConditionalPmf:
    """Binary symmetric channel with crossover probability p."""
    p = Fraction(p) if isinstance(p, (int, Fraction)) else p
    q = 1 - p
    return ConditionalPmf([[q, p], [p, q]])


def erasure_channel(e: Number) -> ConditionalPmf:
    """Binary erasure channel with output alphabet ordered (0, E, 1)."""
    e = Fraction(e) if isinstance(e, (int, Fraction)) else e
    return ConditionalPmf([[1 - e, e, 0], [0, e, 1 - e]])


def erase_further(e: Number) -> ConditionalPmf:
    """Channel on the alphabet (0, E, 1) that erases the survivors further.

    Non-erasure symbols survive with probability 1-e; E stays E.
    """
    e = Fraction(e) if isinstance(e, (int, Fraction)) else e
    return ConditionalPmf([[1 - e, e, 0], [0, 1, 0], [0, e, 1 - e]])


def cascade(f: ConditionalPmf, g: ConditionalPmf) -> ConditionalPmf:
    """Compose two channels: input -> f -> g.  Matrix product f @ g."""
    if f.cols != g.rows:
        raise DistributionError(
            f"cascade mismatch: first channel has {f.cols} outputs, "
            f"second expects {g.rows} inputs"
        )
    if f.exact is not None and g.exact is not None:
        prod = [
            [
                sum((f.exact[i][k] * g.exact[k][j] for k in range(f.cols)), Fraction(0))
                for j in range(g.cols)
            ]
            for i in range(f.rows)
        ]
        return ConditionalPmf(prod)
    return ConditionalPmf(f.matrix @ g.matrix)


def product_channel(components: Sequence[ConditionalPmf]) -> ConditionalPmf:
    """Kronecker product channel over the product input/output alphabets.

    Index order is row-major in the component order, matching how joint
    axes of product variables are flattened elsewhere in the package.
    """
    if not components:
        raise DistributionError("product_channel needs at least one component")
    out = components[0]
    for comp in components[1:]:
        if out.exact is not None and comp.exact is not None:
            rows = []
            for ra in out.exact:
                for rb in comp.exact:
                    rows.append([a * b for a in ra for b in rb])
            out = ConditionalPmf(rows)
        else:
            out = ConditionalPmf(np.kron(out.matrix, comp.matrix))
    return out


_LETTERS = string.ascii_letters


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
        if (arr < -PMF_TOL).any():
            raise DistributionError("joint pmf has negative entries")
        if abs(arr.sum() - 1.0) > PMF_TOL * max(1, arr.size):
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

    def entropy(self, axes: Optional[Sequence[str]] = None) -> float:
        if axes is None:
            return entropy_of_vector(self.tensor)
        keep = self._check_axes(axes)
        drop = tuple(i for i, a in enumerate(self.axes) if a not in keep)
        return entropy_of_vector(self.tensor.sum(axis=drop) if drop else self.tensor)

    def mutual_information(self, axes_a: Sequence[str], axes_b: Sequence[str]) -> float:
        a = self._check_axes(axes_a)
        b = self._check_axes(axes_b)
        if set(a) & set(b):
            raise AxisError(f"overlapping axis sets {a} and {b}")
        value = self.entropy(a) + self.entropy(b) - self.entropy(a + b)
        if value < -MEASURE_TOL:
            raise DistributionError(f"mutual information {value} below -tolerance")
        return max(value, 0.0)

    def conditional_mutual_information(
        self,
        axes_a: Sequence[str],
        axes_b: Sequence[str],
        axes_c: Sequence[str],
    ) -> float:
        a = self._check_axes(axes_a)
        b = self._check_axes(axes_b)
        c = self._check_axes(axes_c)
        if (set(a) & set(b)) or (set(a) & set(c)) or (set(b) & set(c)):
            raise AxisError("axis sets must be pairwise disjoint")
        if not c:
            return self.mutual_information(a, b)
        value = (
            self.entropy(a + c)
            + self.entropy(b + c)
            - self.entropy(a + b + c)
            - self.entropy(c)
        )
        if value < -MEASURE_TOL:
            raise DistributionError(f"conditional MI {value} below -tolerance")
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
        sizes = [t[1] for t in targets]
        for name in names:
            if name in self.axes:
                raise AxisError(f"target axis {name!r} already present")
        rows = 1
        for g in given:
            rows *= self.size(g)
        cols = int(np.prod(sizes))
        if chan.rows != rows or chan.cols != cols:
            raise DistributionError(
                f"channel shape {chan.rows}x{chan.cols} does not match "
                f"given product {rows} and target product {cols}"
            )
        given_sizes = [self.size(g) for g in given]
        factor = chan.matrix.reshape(tuple(given_sizes) + tuple(sizes))
        if len(self.axes) + len(names) > len(_LETTERS):
            raise AxisError("too many axes for einsum subscripts")
        letters = {a: _LETTERS[i] for i, a in enumerate(self.axes)}
        for j, name in enumerate(names):
            letters[name] = _LETTERS[len(self.axes) + j]
        lhs = "".join(letters[a] for a in self.axes)
        fac = "".join(letters[a] for a in given) + "".join(letters[n] for n in names)
        out = lhs + "".join(letters[n] for n in names)
        tensor = np.einsum(f"{lhs},{fac}->{out}", self.tensor, factor)
        return JointPmf(tuple(self.axes) + tuple(names), tensor)

    def attach_receivers(
        self, given: Sequence[str], channels: Mapping[str, ConditionalPmf]
    ) -> "JointPmf":
        """Attach one output axis per named channel, each fed by ``given``.

        Outputs are conditionally independent given their inputs, which is
        all any per-receiver information expression needs.
        """
        j = self
        for name, chan in channels.items():
            j = j.extend(given, [(name, chan.cols)], chan)
        return j

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

    def size(self, axis: str) -> int:
        return dict(self.axis_sizes)[axis]

    @property
    def realization(self) -> JointPmf:
        return self._realization

    def _realize(self) -> JointPmf:
        sizes = dict(self.axis_sizes)
        covered: list[str] = []
        joint: Optional[JointPmf] = None
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
            targets = [(t, sizes[t]) for t in f.targets]
            if joint is None:
                if f.given:
                    raise AxisError("first factor cannot condition on anything")
                joint = JointPmf((), np.asarray(1.0).reshape(())).extend(
                    (), targets, f.table
                )
            else:
                joint = joint.extend(f.given, targets, f.table)
            covered.extend(f.targets)
        if joint is None:
            raise DistributionError("factored distribution has no factors")
        if tuple(covered) != self.axes:
            # realization axes follow generation order; reorder to declaration
            joint = joint.marginal(self.axes)
        return joint
