"""Tests of the benchmark itself: run them with ``python3 -m pytest bench``.

The smoke runs use ``--smoke`` inputs (2 restarts, one fixture, n=4), so
every workload finishes in seconds, and check that each metric named in
BENCHMARK.json is emitted with its unit and that the correctness gate ran.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import EDGE_OP, WORKLOADS, check_op, fingerprint, make_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_directory_without_the_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "fme_fixtures", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = make_inputs("simulate_codes", 7, ROOT, tmp_path / "a")
    b = make_inputs("simulate_codes", 7, ROOT, tmp_path / "b")
    c = make_inputs("simulate_codes", 8, ROOT, tmp_path / "c")
    configs = lambda d: sorted(p.read_text() for p in d.glob("*.json"))  # noqa: E731
    assert configs(tmp_path / "a") == configs(tmp_path / "b") != configs(tmp_path / "c")
    seeds = lambda x: [op["argv"][-3] for op in x["ops"]]  # noqa: E731
    assert seeds(a) == seeds(b) != seeds(c)


def _sim_op(name=EDGE_OP, n=(8,)):
    return {"name": name, "argv": ["simulate"], "units": len(n),
            "check": {"n": list(n), "scheme": "wiretap-equivocation", "trials": 0}}


def _row(eq, leak, msg, exact=True):
    return {"n": 8, "equivocation_rate": eq, "leakage_rate": leak, "message_rate": msg,
            "exact": exact}


def test_gate_flags_each_violation():
    repro = {"argv": ["repro-example"], "check": {}}
    good = {"achievable": 5 / 6, "rck_best": 0.58, "gap_is_strict": True}
    assert check_op(repro, 0, good) == ([], 0)
    assert check_op(repro, 0, {**good, "achievable": 0.8})[0]
    assert check_op(repro, 0, {**good, "rck_best": 0.6})[0]
    assert check_op(repro, 0, {**good, "gap_is_strict": False})[0]
    assert check_op(repro, 1, good)[0]

    ck = {"argv": ["bound"], "check": {"ceiling": 7 / 12}}
    assert check_op(ck, 0, {"value": 0.58}) == ([], 0)
    assert check_op(ck, 0, {"value": 0.6})[0]
    assert check_op({"argv": ["bound"], "check": {}}, 0, {"value": float("nan")})[0]

    assert check_op({"argv": ["fme"], "check": {}}, 0, {"ok": False})[0]

    mc = _sim_op(name="simulate_mc")
    assert check_op(mc, 0, {"rows": [_row(0.1, 0.1, 0.2)]}) == ([], 0)
    assert check_op(mc, 0, {"rows": [_row(0.1, 0.2, 0.2)]})[0]       # sum broken
    assert check_op(mc, 0, {"rows": [_row(-1e-6, 0.2, 0.2, exact=False)]})[0]
    assert check_op(mc, 0, {"rows": [_row(0.3, -0.1, 0.2)]})[0]      # above H(M)/n
    assert check_op(mc, 0, {"rows": []})[0]


def test_gate_counts_the_known_defect_apart():
    edge = _sim_op()
    assert check_op(edge, 0, {"rows": [_row(-1e-6, 0.2, 0.2, exact=False)]}) == ([], 1)
    assert check_op(edge, 0, {"rows": [_row(0.3, -0.1, 0.2, exact=False)]})[0]


def test_fingerprint_rounds_to_1e9():
    op = {"argv": ["bound"]}
    base = {"value": 0.5, "evaluations": 10, "restarts": 1, "best_restart": 0}
    fp = fingerprint(op, 0, base)
    assert fingerprint(op, 0, {**base, "value": 0.5 + 1e-12}) == fp
    assert fingerprint(op, 0, {**base, "value": 0.5 + 1e-8}) != fp
    assert fingerprint(op, 0, {**base, "evaluations": 11}) != fp


def test_tracer_patches_names_bound_at_import():
    sys.path.insert(0, str(ROOT / "src"))
    from wiretap3 import bounds, fig1, fixture_runs, fme, optim, orderings, rationallp
    from tracer import Tracer

    bindings = [
        (fme, "implied_by"), (fme, "feasible_eq"),
        (fig1, "search_factored"), (bounds, "search_factored"), (orderings, "search_factored"),
        (fig1, "corollary1_rate"),
        (fixture_runs, "eliminate_all"), (fixture_runs, "remove_redundant"),
        (fixture_runs, "region_equal"),
        (optim, "refine_rows"), (rationallp, "simplex_min_eq"),
    ]
    before = {(m.__name__, n): getattr(m, n) for m, n in bindings}
    table_before = dict(bounds._SCALAR_BOUNDS)
    with Tracer().installed():
        for m, n in bindings:
            assert getattr(m, n).__wrapped__ is before[(m.__name__, n)], (m.__name__, n)
        for key in ("ck_extension", "corollary1", "theorem1"):
            assert bounds._SCALAR_BOUNDS[key][1].__wrapped__ is table_before[key][1]
    assert {(m.__name__, n): getattr(m, n) for m, n in bindings} == before
    assert bounds._SCALAR_BOUNDS == table_before
