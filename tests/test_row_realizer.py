"""The search's row realizer against the whole-table realization it replaced.

``bounds._RowRealizer`` builds each candidate's source law from its start's
tables and the one row the candidate changes, reusing what it multiplied
for the other tables.  Every point must get the bits that
``reference_bounds.realize``, the whole-table chain product the engine ran
before, gives its whole tables (expanded by the theorem1 family), and a bad
candidate row must raise or be clipped exactly as that path's row check
does, also under ``python -O``.  ``bounds._realize``, now the realizer on
whole stacks, must match it too.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference_bounds
import reference_search
from wiretap3 import bounds
from wiretap3.bounds import PATTERNS, AuxSpec
from wiretap3.probability import PMF_TOL, DistributionError

CARDS = {"Q": 2, "U": 2, "U3": 3, "V": 3, "V0": 2, "V1": 3, "V2": 2}
X_SIZE = 3


def _spaces():
    """(pattern, sizes, family, searched shapes): every pattern's own tables,
    and theorem1's two searched families."""
    out = []
    for pattern, (axes, _) in PATTERNS.items():
        sizes = AuxSpec(pattern, {a: CARDS[a] for a in axes[:-1]}).resolve(X_SIZE)
        out.append((pattern, sizes, None, bounds.factor_shapes(pattern, sizes)))
        if pattern == "theorem1":
            out += [(pattern, sizes, family, shapes)
                    for shapes, family in bounds._search_spaces(pattern, sizes)]
    return out


SPACES = _spaces()
IDS = [f"{p}-{f}" if f else p for p, _, f, _ in SPACES]
OWNER = np.array([3, 0, 3, 1, 4, 4, 2, 0])  # repeated and out of order


def _expand(tables, sizes, family):
    return tables if family is None else bounds._expand_family(tables, sizes, family)


def _whole(pattern, sizes, family, tables, fi, r, owner, rows):
    """Each point's whole tables, realized by the path the realizer replaced."""
    trial = reference_search.full_stacks(tables, fi, r, owner, rows)
    return reference_bounds.realize(pattern, sizes, _expand(trial, sizes, family))


def _outcome(call):
    """A realization's bytes and shape, or the message of the DistributionError it raised."""
    try:
        joint = call()
    except DistributionError as e:
        return str(e)
    return joint.shape, joint.tobytes()


@pytest.mark.parametrize("pattern,sizes,family,shapes", SPACES, ids=IDS)
def test_every_row_gets_the_bits_of_the_whole_tables(pattern, sizes, family, shapes):
    rng = np.random.default_rng(len(IDS))
    tables = [rng.dirichlet(np.ones(cols), size=(5, rows)) for rows, cols in shapes]
    realize = bounds._RowRealizer(pattern, sizes, family)
    for sweep in range(2):
        for fi, (rows_, cols) in enumerate(shapes):
            for r in range(rows_):
                rows = rng.dirichlet(np.ones(cols), size=OWNER.size)
                rows[1, 0] = 0.0  # a face of the simplex
                rows[1] /= rows[1].sum()
                got = realize(tables, fi, r, OWNER, rows)
                want = _whole(pattern, sizes, family, tables, fi, r, OWNER, rows)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (sweep, fi, r)
                # an accepted move, as the search makes between calls
                tables[fi][OWNER[2], r] = rows[2]


@pytest.mark.parametrize("pattern,sizes,family,shapes", SPACES, ids=IDS)
def test_a_start_with_near_zero_negatives_is_clipped_like_checked(pattern, sizes, family, shapes):
    rng = np.random.default_rng(3)
    tables = [rng.dirichlet(np.ones(cols), size=(5, rows)) for rows, cols in shapes]
    for table in tables:  # start 4's first rows hold an entry in [-PMF_TOL, 0)
        if table.shape[2] > 1:
            table[4, 0, :2] = [table[4, 0, 0] + table[4, 0, 1] + 1e-13, -1e-13]
    realize = bounds._RowRealizer(pattern, sizes, family)
    for fi, (rows_, cols) in enumerate(shapes):
        rows = rng.dirichlet(np.ones(cols), size=OWNER.size)
        got = realize(tables, fi, rows_ - 1, OWNER, rows)
        want = _whole(pattern, sizes, family, tables, fi, rows_ - 1, OWNER, rows)
        assert got.tobytes() == want.tobytes()
        assert (got >= 0).all()


@pytest.mark.parametrize("pattern,sizes,family,shapes", SPACES, ids=IDS)
def test_realize_on_whole_stacks_matches_the_reference(pattern, sizes, family, shapes):
    rng = np.random.default_rng(2)
    tables = [rng.dirichlet(np.ones(cols), size=(6, rows)) for rows, cols in shapes]
    tables = _expand(tables, sizes, family)
    got = bounds._realize(pattern, sizes, tables)
    assert got.tobytes() == reference_bounds.realize(pattern, sizes, tables).tobytes()


def _bad(kind, cols):
    row = np.full(cols, 1.0 / cols)
    if kind == "nan":
        row[0] = np.nan
    elif kind == "negative":  # sums to 1, an entry below -PMF_TOL
        row[:2] = [row[0] + row[1] + 1e-9, -1e-9]
    elif kind == "near_zero":  # sums to 1, an entry in [-PMF_TOL, 0): clipped
        row[:2] = [row[0] + row[1] + PMF_TOL / 2, -PMF_TOL / 2]
    else:  # "unnormalized": off by more than PMF_TOL
        row[0] += 4 * PMF_TOL
    return row


BAD = ("nan", "negative", "near_zero", "unnormalized")


@pytest.mark.parametrize("kind", BAD)
@pytest.mark.parametrize("pattern,sizes,family,shapes", SPACES, ids=IDS)
def test_bad_candidate_rows_raise_or_clip_like_checked(pattern, sizes, family, shapes, kind):
    rng = np.random.default_rng(11)
    tables = [rng.dirichlet(np.ones(cols), size=(5, rows)) for rows, cols in shapes]
    realize = bounds._RowRealizer(pattern, sizes, family)
    outcomes = set()
    for fi, (rows_, cols) in enumerate(shapes):
        if cols < 2:
            continue
        rows = rng.dirichlet(np.ones(cols), size=OWNER.size)
        rows[5] = _bad(kind, cols)
        got = _outcome(lambda: realize(tables, fi, rows_ - 1, OWNER, rows))
        assert got == _outcome(lambda: _whole(pattern, sizes, family, tables, fi, rows_ - 1, OWNER, rows))
        outcomes.add(got if isinstance(got, str) else "realized")
    want = {"nan": "does not sum to 1", "unnormalized": "does not sum to 1",
            "negative": "negative entries", "near_zero": "realized"}[kind]
    assert any(want in o for o in outcomes)


@pytest.mark.parametrize("fi", [2, 3])
def test_theorem1_checks_the_product_row_not_the_searched_row(fi):
    # p(v1|v0) and p(v2|v0) rows off by +1.5e-12 and -0.9e-12: their product
    # row sums to within PMF_TOL, and the product is the factor checked
    pattern, sizes, family, shapes = SPACES[IDS.index("theorem1-z_ignores_v1")]
    rng = np.random.default_rng(5)
    tables = [rng.dirichlet(np.ones(cols), size=(5, rows)) for rows, cols in shapes]
    other = tables[5 - fi][:, 0]
    other[:, 0] -= 0.9e-12
    rows = rng.dirichlet(np.ones(shapes[fi][1]), size=OWNER.size)
    rows[:, 0] += 1.5e-12
    assert np.abs(rows.sum(axis=1) - 1.0).min() > PMF_TOL
    got = bounds._RowRealizer(pattern, sizes, family)(tables, fi, 0, OWNER, rows)
    want = _whole(pattern, sizes, family, tables, fi, 0, OWNER, rows)
    assert got.tobytes() == want.tobytes()


CHECKS_SCRIPT = """
import numpy as np
from wiretap3 import bounds
from wiretap3.probability import DistributionError

sizes = {"Q": 2, "V0": 2, "V1": 2, "V2": 2, "X": 3}
for pattern, family, fi in (("ck", None, 1), ("theorem1", "z_ignores_v1", 2),
                            ("theorem1", "z_ignores_v1", 4)):
    shapes = [s for s, f in bounds._search_spaces(pattern, {**sizes, "V": 3}) if f == family][0]
    rng = np.random.default_rng(0)
    tables = [rng.dirichlet(np.ones(c), size=(3, r)) for r, c in shapes]
    cols = shapes[fi][1]
    for bad in ([np.nan] + [0.0] * (cols - 1), [1.0 + 1e-9, -1e-9] + [0.0] * (cols - 2),
                [1.0 + 1e-9] + [0.0] * (cols - 1), [1.0 + 1e-13, -1e-13] + [0.0] * (cols - 2)):
        rows = np.array([np.full(cols, 1.0 / cols), bad])
        try:
            joint = bounds._RowRealizer(pattern, {**sizes, "V": 3}, family)(
                tables, fi, 0, np.array([2, 0]), rows)
            print("clipped" if (joint >= 0).all() else "negative kept")
        except DistributionError as e:
            print("rejected: " + str(e))
"""

EXPECTED = [
    "rejected: factor table has a row that does not sum to 1",
    "rejected: factor table has negative entries",
    "rejected: factor table has a row that does not sum to 1",
    "clipped",
] * 3


def test_candidate_checks_survive_optimize_flag():
    src = str(Path(bounds.__file__).resolve().parents[1])
    lines = []
    exec(CHECKS_SCRIPT, {"print": lines.append})
    assert lines == EXPECTED
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CHECKS_SCRIPT], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:-1] == EXPECTED
