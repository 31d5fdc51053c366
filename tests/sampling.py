"""Test-side helpers over the library: random source laws and feasibility.

``random_dist`` draws every factor table of a pattern from a flat
Dirichlet; ``random_admissible_dist`` draws theorem1/theorem2 points from
the structured families on which the Marton constraint holds identically
(the families ``bounds.maximize`` searches for theorem1).  They expand a
family's tables with ``bounds._expand_family`` itself, on purpose: a test
point is then built exactly as the search builds one.
``system_feasible`` decides closure feasibility of an inequality system by
the one Farkas LP the FME derivations use.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from wiretap3.bounds import PATTERNS, PatternError, _expand_family, build_factored, factor_shapes
from wiretap3.fme import InequalitySystem, LinearInequality, infeasibility_certificate
from wiretap3.optim import Params
from wiretap3.probability import FactoredDistribution


def random_dist(pattern: str, sizes: Mapping[str, int], rng: np.random.Generator) -> FactoredDistribution:
    tables = [
        rng.dirichlet(np.ones(cols), size=rows)
        for rows, cols in factor_shapes(pattern, sizes)
    ]
    return build_factored(pattern, sizes, tables)


ADMISSIBLE_FAMILIES = ("z_ignores_v2", "z_ignores_v1", "collapse_v2")


def admissible_tables(
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
    q = rng.dirichlet(np.ones(nx), size=n0 * (n2 if family == "z_ignores_v1" else n1))
    return _expand_family([p1, p2, q], sizes, family)


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
    tables = [head, pv0] + admissible_tables(sizes, rng, family)
    return build_factored(pattern, sizes, tables)


def system_feasible(
    sys: InequalitySystem, assumptions: Sequence[LinearInequality] = ()
) -> bool:
    """Closure feasibility of the rows plus assumption rows (atoms free),
    decided by one Farkas LP (``infeasibility_certificate``)."""
    return infeasibility_certificate(sys, assumptions) is None
