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
keeps its own step size, improved flag and early stop as length-B arrays,
so each start takes exactly the accept/reject path it would take alone.

Speculative rows: the candidates of a row are built for every live start
from that start's current row, toward and away from each vertex, and
evaluated in one objective call.  A start takes its first candidate, in the
sequential order, that beats its best by more than 1e-13; after a "toward
i" gain the "away from i" candidate, which the sequential search also
builds from the row before the move, must beat the new best.  The rest of
the row is then built again from the new row, in a call that holds only
the starts that moved.  A call offers a window of vertices: the whole row,
unless the live starts alone fill a call of about ``_CALL_POINTS`` points,
so that a large batch pays for no candidates beyond the ones it needs.
``evaluations`` is the logical count, what the sequential search evaluates
(an "away" move only where ``row[i] > 0`` and the total is positive);
``objective_points`` counts every point handed to the objective.  If a
call raises, the rest of that row is offered one vertex per call, so
only points the sequential search evaluates are evaluated: an error comes
out where the sequential search raises it, or not at all.

Objective contract: a candidate is one changed row.  An objective is
called as ``objective(tables, fi, r, owner, rows)``: point k is start
``owner[k]``'s tables in the search's stacks (B, rows, cols), with row
``r`` of table ``fi`` replaced by ``rows[k]``; the first call offers each
start its own row 0 of table 0.  While consecutive calls name the same
stacks and ``fi``, only table ``fi`` changes, so an objective may keep
what it built from the others (``bounds`` does).  It returns one value per
point, NaN marking an inadmissible point.  The values must be pure, each
the same whatever else is in the call, because speculative points the
sequential search never visits are evaluated too.  An objective that
records what it sees may define ``logical(mask)``: right after every call
that returns, the search passes the boolean mask of that call's points
that the sequential search evaluates, all true when no start moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class SearchBudget:
    """Effort knobs shared by every randomized search in the package."""

    grid_points: int = 20
    restarts: int = 64
    seed: int = 0
    refine_sweeps: int = 60

    def __post_init__(self):
        for name, least in (("restarts", 0), ("refine_sweeps", 0), ("grid_points", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")


# Points per call above which a row is split into several calls.  Larger
# calls amortize the per-call cost no further, and every speculative point
# past a start's first gain is work the sequential search never does.
_CALL_POINTS = 256

Params = list[np.ndarray]
Objective = Callable[[Params, int, int, np.ndarray, np.ndarray], np.ndarray]  # see above


@dataclass
class SearchResult:
    value: float
    params: Params
    restarts: int
    best_restart: int
    evaluations: int
    objective_points: int  # points handed to the objective, speculative ones included


class NoAdmissiblePointError(RuntimeError):
    """The whole search budget was spent without one admissible point."""


def refine_rows(
    objective: Objective, tables: Params, sweeps: int
) -> tuple[np.ndarray, Params, int, int]:
    """Coordinate-wise projected ascent over every row of every table.

    ``tables`` holds B starts stacked as (B, rows, cols); they are refined in
    lockstep, a row of candidates per objective call (see the module
    docstring).  Returns each start's final value (NaN if it never reached
    an admissible point), the refined stack, the logical evaluation count
    (what the sequential search evaluates) and the number of points the
    objective was handed, speculative ones included.
    """
    tables = [t.copy() for t in tables]
    n = len(tables[0])
    best = objective(tables, 0, 0, np.arange(n), tables[0][:, 0])
    best[np.isnan(best)] = -np.inf  # inadmissible so far: any value is a gain
    evals = points = n
    step = np.full(n, 0.25)
    live = np.ones(n, dtype=bool)  # starts not yet stopped early
    improved = np.zeros(n, dtype=bool)
    logical = getattr(objective, "logical", None)
    if logical is not None:
        logical(np.ones(n, dtype=bool))
    eyes = [np.eye(t.shape[2]) for t in tables]

    def row_round(fi: int, r: int, starts: np.ndarray, first: np.ndarray, window: int):
        """Offer ``window`` vertices of row ``r`` to ``starts``, from ``first`` on, in one call.

        Every candidate is built from the start's current row, toward vertex
        i before away from it.  A start takes its first strict gain in that
        order; after a "toward" gain, the "away" candidate of the same vertex
        (built from the same row, as in the sequential search) must beat the
        new best.  Returns the starts with vertices left and their next vertex,
        or None if a call of several vertices raised.
        """
        nonlocal evals, points
        p, cols, width = starts.size, tables[fi].shape[2], 2 * window
        row = tables[fi][starts, r]
        s = step.take(starts)[:, None, None]
        slots = np.empty((p, window, 2), dtype=bool)  # slot 2j "toward" vertex j, 2j + 1 "away"
        if window == cols and not np.count_nonzero(first):  # the whole row: no gather
            slots[..., 0], move, ok = True, s * eyes[fi], row > 0  # s * each vertex; "away" exists
        else:
            vertex = first[:, None] + np.arange(window)
            slots[..., 0], vertex = vertex < cols, np.minimum(vertex, cols - 1)
            move = s * eyes[fi].take(vertex, axis=0)
            ok = row.take(vertex + cols * np.arange(p)[:, None]) > 0
        cand = np.empty((p, window, 2, cols))
        cand[:, :, 0] = (1 - s) * row[:, None, :] + move
        away = np.maximum(row[:, None, :] - move, 0.0)
        tot = np.add.reduce(away, axis=2)
        ok &= tot > 0
        np.divide(away, np.where(ok, tot, 1.0)[..., None], out=cand[:, :, 1])
        np.logical_and(slots[..., 0], ok, out=slots[..., 1])
        cand, flat = cand.reshape(-1, cols), slots.ravel().nonzero()[0]
        try:
            values = objective(tables, fi, r, starts.take(flat // width), cand.take(flat, axis=0))
        except Exception:
            # a speculative point may raise where the sequential search never
            # looks; the caller then offers the rest of the row one vertex per
            # call, and such a call evaluates logical points only
            if window == 1:
                raise
            return None
        points += flat.size
        full = np.full(p * width, np.nan)
        full[flat] = values
        gain = full.reshape(p, width) > (best.take(starts) + 1e-13)[:, None]  # False for NaN
        if not np.count_nonzero(gain):  # no start moves: every offered point was logical
            evals += flat.size
            first = first + window
            if logical is not None:
                logical(np.ones(flat.size, dtype=bool))
        else:
            k = gain.argmax(axis=1)
            at = np.arange(p) * width
            won = gain.ravel().take(at + k)
            # "toward" won: "away" from the same vertex (k | 1) may still beat the new best
            k += won & (full.take(at + (k | 1)) > full.take(at + k) + 1e-13)
            # a start's logical candidates run through the vertex it moved at
            last = np.where(won, (k | 1) + 1, width)
            seen = (np.arange(width) < last[:, None]).ravel().take(flat)
            evals += int(np.count_nonzero(seen))
            if logical is not None:
                logical(seen)
            moved, pick = starts[won], (at + k)[won]
            best[moved] = full.take(pick)
            tables[fi][moved, r] = cand.take(pick, axis=0)
            improved[moved] = True
            first = first + np.where(won, k // 2 + 1, window)
        left = first < cols
        return starts[left], first[left]

    for _ in range(sweeps):
        improved[:] = False
        running = np.flatnonzero(live)
        # vertices per call: the whole row, unless the live starts alone fill a call
        spread = max(1, _CALL_POINTS // (2 * running.size))
        for fi, table in enumerate(tables):
            _, rows, cols = table.shape
            if cols < 2:
                continue
            for r in range(rows):
                calls = -(-cols // spread)  # a row's calls when no start moves
                starts, first, window = running, np.zeros(running.size, dtype=int), -(-cols // calls)
                while starts.size:
                    left = row_round(fi, r, starts, first, window)
                    if left is None:
                        window = 1
                    else:
                        starts, first = left
        stalled = live & ~improved
        step[stalled] *= 0.5
        live &= step >= 1e-4
        if not live.any():
            break
    best[best == -np.inf] = np.nan
    return best, tables, evals, points


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
        values, tables, evals, points = refine_rows(objective, stacked, budget.refine_sweeps)
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
        objective_points=points,
    )
