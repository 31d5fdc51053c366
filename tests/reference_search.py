"""The multi-start search as it was before lockstep batching, kept verbatim.

It is the reference for the differential tests in ``test_optim.py``: each
start is refined alone, one scalar objective call per candidate (a list of
(rows, cols) tables in, a float or None out), and the starts run one after
another.

``per_point`` turns such a scalar objective into an objective for the
lockstep search, one call per point of a call; ``full_stacks`` rebuilds
the whole tables of a call's points, each a start with one row changed.  ``minimize_gap`` is the orderings
search as it was before the bound engine ran it: ``info_gap`` on a
``JointPmf`` per point, through ``per_point``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from wiretap3 import optim
from wiretap3.optim import NoAdmissiblePointError, SearchBudget, SearchResult
from wiretap3.orderings import _grid_simplex
from wiretap3.probability import ConditionalPmf, JointPmf

Params = list[np.ndarray]
Objective = Callable[[Params], Optional[float]]  # None marks inadmissible


def _copy(params: Params) -> Params:
    return [p.copy() for p in params]


def refine_rows(
    objective: Objective,
    params: Params,
    sweeps: int,
    on_eval: Optional[Callable[[Params, float], None]] = None,
) -> tuple[Optional[float], Params, int]:
    """Coordinate-wise projected ascent over every row of every table."""
    params = _copy(params)
    evals = 0

    def ev(ps: Params) -> Optional[float]:
        nonlocal evals
        evals += 1
        val = objective(ps)
        if val is not None and on_eval is not None:
            on_eval(ps, val)
        return val

    best = ev(params)
    step = 0.25
    for _ in range(sweeps):
        improved = False
        for fi, table in enumerate(params):
            rows, cols = table.shape
            if cols < 2:
                continue
            for r in range(rows):
                row = table[r]
                for i in range(cols):
                    candidates = []
                    e = np.zeros(cols)
                    e[i] = 1.0
                    candidates.append((1 - step) * row + step * e)
                    if row[i] > 0:
                        away = np.clip(row - step * e, 0.0, None)
                        tot = away.sum()
                        if tot > 0:
                            candidates.append(away / tot)
                    for cand in candidates:
                        trial = params[fi][r].copy()
                        params[fi][r] = cand
                        val = ev(params)
                        if val is not None and (best is None or val > best + 1e-13):
                            best = val
                            improved = True
                        else:
                            params[fi][r] = trial
        if not improved:
            step *= 0.5
            if step < 1e-4:
                break
    return best, params, evals


def search_factored(
    objective: Objective,
    shapes: Sequence[tuple[int, int]],
    budget: SearchBudget,
    on_eval: Optional[Callable[[Params, float], None]] = None,
    extra_starts: Sequence[Params] = (),
) -> SearchResult:
    """Maximize over tables with the given (rows, cols) shapes."""
    root = np.random.SeedSequence(budget.seed)
    children = root.spawn(budget.restarts)
    best_val: Optional[float] = None
    best_params: Optional[Params] = None
    best_restart = -1
    total_evals = 0
    starts: list[tuple[int, Params]] = [(-1 - i, _copy(p)) for i, p in enumerate(extra_starts)]
    for idx, child in enumerate(children):
        rng = np.random.default_rng(child)
        params = [rng.dirichlet(np.ones(cols), size=rows) for rows, cols in shapes]
        starts.append((idx, params))
    for idx, params in starts:
        val, refined, evals = refine_rows(objective, params, budget.refine_sweeps, on_eval)
        total_evals += evals
        if val is not None and (best_val is None or val > best_val):
            best_val, best_params, best_restart = val, refined, idx
    if best_val is None:
        raise NoAdmissiblePointError(
            f"no admissible point found in {budget.restarts} restarts"
        )
    return SearchResult(
        value=float(best_val),
        params=best_params,
        restarts=budget.restarts,
        best_restart=best_restart,
        evaluations=total_evals,
        objective_points=total_evals,
    )


def full_stacks(tables: Params, fi: int, r: int, owner: np.ndarray, rows: np.ndarray) -> Params:
    """The whole tables of each point of an objective call, stacked."""
    trial = [t.take(owner, axis=0) for t in tables]
    trial[fi][:, r] = rows
    return trial


def per_point(fn: Objective) -> optim.Objective:
    """A search objective that calls the scalar ``fn`` once per point."""

    def objective(*change) -> np.ndarray:
        tables = full_stacks(*change)
        values = np.empty(len(tables[0]))
        for b in range(values.size):
            val = fn([t[b] for t in tables])
            values[b] = np.nan if val is None else val
        return values

    return objective


def info_gap(
    axes: tuple[str, ...], p: np.ndarray, p_yx: ConditionalPmf, p_zx: ConditionalPmf
) -> float:
    """I(A;Y) - I(A;Z) for A = axes[0], given p over ``axes`` ending in X."""
    j = JointPmf(axes, p).extend(("X",), [("Y", p_yx.cols)], p_yx)
    j = j.extend(("X",), [("Z", p_zx.cols)], p_zx)
    return j.mutual_information(axes[:1], ("Y",)) - j.mutual_information(axes[:1], ("Z",))


def minimize_gap(
    p_yx: ConditionalPmf, p_zx: ConditionalPmf, shape: tuple[int, ...], budget: SearchBudget
) -> tuple[SearchResult, float, np.ndarray]:
    """The old orderings search over p of ``shape``: (its result, min, argmin).

    ``shape`` is (|U|, |X|) for the less-noisy gap and (|X|,) for the
    more-capable one.
    """
    axes = ("U", "X")[-len(shape):]
    cells = int(np.prod(shape))

    def neg(params):
        return -info_gap(axes, params[0][0].reshape(shape), p_yx, p_zx)

    extra = [[g.reshape(1, cells)] for g in _grid_simplex(cells, budget.grid_points)]
    res = optim.search_factored(per_point(neg), [(1, cells)], budget, extra_starts=extra)
    return res, -res.value, res.params[0][0].reshape(shape)
