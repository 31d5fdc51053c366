"""Multi-start maximization over products of probability simplexes.

The search spaces here are factored distributions: a list of row-stochastic
tables whose rows are free simplex points.  Objectives are nonconvex (they
are differences and minima of mutual informations), so no global optimum is
certified; results are honest lower bounds on the true maximum.

Strategy: Dirichlet-random initialization per restart, then coordinate-wise
projected refinement (mix each row toward or away from a vertex with a
shrinking step, keep strict improvements).  All randomness flows from one
root seed through numpy SeedSequence spawning, so a longer restart budget
replays the shorter budget's stream as a prefix: reported best values are
monotone in the restart count for a fixed seed.

Lockstep: ``search_factored`` refines all of its starts (the extra starts,
then the restarts) together in one ``refine_rows`` call.  Each factor table
is stacked as (B, rows, cols), one slice per start.  Every start walks the
same candidate order (table, row, vertex, then toward before away) and
keeps its own step size, improved flag and early stop as length-B arrays.
A candidate is evaluated only for the starts still running, and an "away"
move only where it exists (``row[i] > 0`` and a positive total), so each
start takes exactly the accept/reject path it would take alone and the
evaluation count is exact per start.

Objective contract: an objective takes stacked tables, a list of
(B, rows, cols) arrays for the B starts being evaluated, and returns B
finite values as a float array, NaN marking an inadmissible point.  A scalar
objective (one list of (rows, cols) tables in, a float or None out) goes
through ``per_point``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class SearchBudget:
    """Effort knobs shared by every randomized search in the package."""

    grid_points: int = 20
    restarts: int = 64
    seed: int = 0
    refine_sweeps: int = 60


Params = list[np.ndarray]
Objective = Callable[[Params], np.ndarray]  # stacked tables -> values, NaN inadmissible


@dataclass
class SearchResult:
    value: float
    params: Params
    restarts: int
    best_restart: int
    evaluations: int
    admissible_found: bool


class NoAdmissiblePointError(RuntimeError):
    """The whole search budget was spent without one admissible point."""


def per_point(fn: Callable[[Params], Optional[float]]) -> Objective:
    """A batched objective that calls the scalar ``fn`` once per start."""

    def objective(tables: Params) -> np.ndarray:
        values = np.empty(len(tables[0]))
        for b in range(values.size):
            val = fn([t[b] for t in tables])
            values[b] = np.nan if val is None else val
        return values

    return objective


def refine_rows(
    objective: Objective, tables: Params, sweeps: int
) -> tuple[np.ndarray, Params, int]:
    """Coordinate-wise projected ascent over every row of every table.

    ``tables`` holds B starts stacked as (B, rows, cols); they are refined in
    lockstep (see the module docstring).  Returns each start's final value
    (NaN if it never reached an admissible point), the refined stack and the
    total number of evaluations.
    """
    tables = [t.copy() for t in tables]
    n = len(tables[0])
    best = objective(tables)
    best[np.isnan(best)] = -np.inf  # inadmissible so far: any value is a gain
    evals = n
    step = np.full(n, 0.25)
    live = np.ones(n, dtype=bool)  # starts not yet stopped early
    improved = np.zeros(n, dtype=bool)

    def offer(fi: int, r: int, starts: np.ndarray, cand: np.ndarray) -> None:
        """Evaluate row ``r`` of table ``fi`` set to ``cand`` for ``starts``; keep strict gains."""
        nonlocal evals
        trial = [t.take(starts, axis=0) for t in tables]  # take: cheaper than t[starts]
        trial[fi][:, r] = cand
        val = objective(trial)
        evals += len(starts)
        keep = val > best.take(starts) + 1e-13  # False for NaN
        if np.count_nonzero(keep):  # cheaper than keep.any() on tiny arrays
            won = starts[keep]
            best[won] = val[keep]
            tables[fi][won, r] = cand[keep]
            improved[won] = True

    for _ in range(sweeps):
        improved[:] = False
        starts = np.flatnonzero(live)
        s = step[starts, None]
        keep_share = 1 - s
        for fi, table in enumerate(tables):
            _, rows, cols = table.shape
            if cols < 2:
                continue
            vertices = np.eye(cols)
            for r in range(rows):
                for i in range(cols):
                    row = table[:, r].take(starts, axis=0)
                    move = s * vertices[i]
                    away = np.maximum(row - move, 0.0)
                    tot = np.add.reduce(away, axis=1)
                    ok = (row[:, i] > 0) & (tot > 0)
                    offer(fi, r, starts, keep_share * row + move)
                    if np.count_nonzero(ok):
                        offer(fi, r, starts[ok], away[ok] / tot[ok, None])
        stalled = live & ~improved
        step[stalled] *= 0.5
        live &= step >= 1e-4
        if not live.any():
            break
    best[best == -np.inf] = np.nan
    return best, tables, evals


def search_factored(
    objective: Objective,
    shapes: Sequence[tuple[int, int]],
    budget: SearchBudget,
    extra_starts: Sequence[Params] = (),
) -> SearchResult:
    """Maximize over tables with the given (rows, cols) shapes.

    The extra starts come first, then ``budget.restarts`` seeded Dirichlet
    starts; all are refined in one lockstep batch.  The best start is the
    first with the largest value; extra start k reports as restart -1-k.
    """
    starts = list(extra_starts)
    for child in np.random.SeedSequence(budget.seed).spawn(budget.restarts):
        rng = np.random.default_rng(child)
        starts.append([rng.dirichlet(np.ones(cols), size=rows) for rows, cols in shapes])
    if starts:
        stacked = [np.array([p[k] for p in starts], dtype=float) for k in range(len(shapes))]
        values, tables, evals = refine_rows(objective, stacked, budget.refine_sweeps)
    if not starts or np.isnan(values).all():
        raise NoAdmissiblePointError(
            f"no admissible point found in {budget.restarts} restarts"
        )
    k = int(np.nanargmax(values))
    n_extra = len(extra_starts)
    return SearchResult(
        value=float(values[k]),
        params=[t[k].copy() for t in tables],
        restarts=budget.restarts,
        best_restart=k - n_extra if k >= n_extra else -1 - k,
        evaluations=evals,
        admissible_found=True,
    )
