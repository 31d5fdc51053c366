"""Shipped derivation fixtures and their verification pipelines.

Each fixture replays one of the region derivations on its raw constraint
system and checks the outcome against the shipped expected files: exact
canonical row matching where the derivation is pinned row-by-row, and
region equality with Farkas certificates where only the resulting region
is pinned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from typing import Mapping

from .fme import (
    InequalitySystem,
    _implications,
    _joint_space,
    eliminate_all,
    parse_system,
    region_equal,
    remove_redundant,
    rename_variables,
    substitute,
)

THEOREM1_ORDER = ("S0", "RT1", "RT2", "T1", "T2", "RT")
RATE_SPLIT_ORDER = ("RT1", "RT2", "T1", "T2", "Rr")
MULTILEVEL_CASE_ORDER = ("R10o", "R10s", "R11p", "R11pp", "R11o", "R0r", "R1r")

_F_CASES = ("case1", "case2", "case3", "case4")


def fixture_text(name: str) -> str:
    return resources.files("wiretap3").joinpath("fixtures", name).read_text()


def fixture_names() -> tuple[str, ...]:
    return ("theorem1", "rate_split") + tuple(f"multilevel_{c}" for c in _F_CASES)


@dataclass
class FixtureResult:
    name: str
    ok: bool
    checks: Mapping[str, bool]
    certificates: Mapping[str, object] = field(default_factory=dict)


def _load(name: str):
    return parse_system(fixture_text(name))


def _eliminate_and_reduce(prefix: str, order) -> tuple:
    """Eliminate ``order`` from ``prefix``_raw, then reduce; check the eliminated rows."""
    raw, assumptions = _load(f"{prefix}_raw.ineq")
    eliminated = eliminate_all(raw, order)
    expected, _ = _load(f"{prefix}_eliminated.ineq")
    reduced = remove_redundant(eliminated, assumptions)
    match = eliminated.canonical_rows() == expected.canonical_rows()
    return eliminated, reduced, assumptions, {"eliminated_rows_match": match}


def run_theorem1() -> FixtureResult:
    _, reduced, assumptions, checks = _eliminate_and_reduce("theorem1", THEOREM1_ORDER)
    final, _ = _load("theorem1_final.ineq")
    eq, cert = region_equal(reduced, final, assumptions)
    checks["redundant_rows_removed"] = reduced.canonical_rows() == final.canonical_rows()
    checks["region_equal_final"] = eq
    return FixtureResult("theorem1", all(checks.values()), checks, {"region_equal": cert})


def _split_rate(presplit: InequalitySystem) -> InequalitySystem:
    """Apply the R1 rate split: R0 -> R0n + R1p, R1 -> R1pp."""
    split = substitute(
        presplit,
        {
            "R0": ({"R0n": 1, "R1p": 1}, 0),
            "R1": ({"R1pp": 1}, 0),
        },
    )
    extra, _ = parse_system(
        """
vars R0n R1p R1pp R1n Re
s0: R0n >= 0
s1: R1p >= 0
s2: R1pp >= 0
s3: R1n = R1p + R1pp
"""
    )
    merged = InequalitySystem(
        tuple(dict.fromkeys(list(split.variables) + ["R1n"])),
        list(split.inequalities) + list(extra.inequalities),
        split.bindings,
    )
    out = eliminate_all(merged, ("R1p", "R1pp"))
    return rename_variables(out, {"R0n": "R0", "R1n": "R1"})


def run_rate_split() -> FixtureResult:
    raw, assumptions = _load("rate_split_raw.ineq")
    stage1 = eliminate_all(raw, RATE_SPLIT_ORDER)
    expected_stage1, _ = _load("rate_split_stage1.ineq")
    presplit, _ = _load("rate_split_presplit.ineq")
    numbered, _ = _load("rate_split_numbered.ineq")
    final, _ = _load("rate_split_final.ineq")

    checks = {
        "stage1_rows_match": stage1.canonical_rows() == expected_stage1.canonical_rows()
    }
    # stage 1 is exactly: kept rows + numbered rows + the admissibility
    # constant row (stated as a constraint on the distributions)
    const_rows = {
        r.canonical_key() for r in stage1.inequalities if r.is_constant_row
    }
    checks["stage1_accounting"] = (
        stage1.canonical_rows()
        == presplit.canonical_rows() | numbered.canonical_rows() | const_rows
    ) and len(const_rows) == 1

    # each numbered row is individually redundant given the kept rows
    vars_, atoms = _joint_space([presplit, numbered], assumptions)
    certs = _implications((*presplit.inequalities, *assumptions), numbered.inequalities,
                          vars_, atoms)
    numbered_certs = {
        row.label or row.format(): None if cert is None else [str(c) for c in cert]
        for row, cert in zip(numbered.inequalities, certs)
    }
    checks["numbered_rows_redundant"] = None not in certs

    stage2 = _split_rate(presplit)
    eq, cert = region_equal(stage2, final, assumptions)
    checks["final_rows_subset_of_derived"] = (
        final.canonical_rows() <= stage2.canonical_rows()
    )
    checks["region_equal_final"] = eq
    return FixtureResult(
        "rate_split", all(checks.values()), checks,
        {"region_equal": cert, "numbered": numbered_certs},
    )


def run_multilevel_case(case: str) -> FixtureResult:
    if case not in _F_CASES:
        raise KeyError(f"unknown case {case!r}")
    name = f"multilevel_{case}"
    eliminated, reduced, assumptions, checks = _eliminate_and_reduce(name, MULTILEVEL_CASE_ORDER)
    expected_red, _ = _load(f"{name}_reduced.ineq")
    eq, cert = region_equal(eliminated, reduced, assumptions)
    checks["reduced_rows_match"] = reduced.canonical_rows() == expected_red.canonical_rows()
    checks["reduction_preserves_region"] = eq
    return FixtureResult(name, all(checks.values()), checks, {"region_equal": cert})


def run_fixture(name: str) -> FixtureResult:
    if name == "theorem1":
        return run_theorem1()
    if name == "rate_split":
        return run_rate_split()
    if name.startswith("multilevel_"):
        return run_multilevel_case(name[len("multilevel_"):])
    raise KeyError(f"unknown fixture {name!r}; have {fixture_names()}")
