"""Workload definitions: the CLI calls of one pass, their inputs, and checks.

Everything here is plain Python with no import of the program, so the
parent process can generate a run's inputs before any timed process
starts.  Inputs depend only on the workload seed (``random.Random``), and
the program receives nothing but the generated argv lists and config files.

An op is one ``wiretap3`` CLI call.  Its ``units`` are what it counts for
in ``attempted``: one per call, except simulate calls, which count one per
config row (one per blocklength).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

WORKLOADS = ("repro_example", "bound_search", "fme_fixtures", "simulate_codes")

FIXTURES = (
    "theorem1",
    "rate_split",
    "multilevel_case1",
    "multilevel_case2",
    "multilevel_case3",
    "multilevel_case4",
)

SPEC = "docs/examples/multilevel_product.chan"
BOUND_CHANNELS = ["--y1", "to_y1", "--y2", "to_y2", "--z", "to_z"]

ACHIEVABLE = 5.0 / 6.0
RCK_CEILING = 7.0 / 12.0
SUM_TOL = 1e-9        # equivocation + leakage = message rate, exact rows
RANGE_TOL = 1e-12     # float dust allowed on 0 <= equivocation <= message rate
FINGERPRINT_DIGITS = 9

# Sizes of one pass.  "full" is what the benchmark times: ops of about a
# second (worker.py says why) in passes of 4-6 s, so a 25 s run repeats every
# op three times or more.  The searches are therefore several short calls
# with their own seeds: the example's 256 restarts as 8 calls of 32, and 4 + 2
# bound maximizations.  Their sweeps are capped below the 12 halvings that
# can end a restart early, so every restart does the same number of sweeps
# and the work of a pass hardly depends on the seed.  "smoke" runs every op
# kind on tiny inputs in seconds; the warm-up pass and the tests use it.
SIZES = {
    "full": {
        "repro_ops": 8,
        "repro_restarts": 32,
        "repro_sweeps": 10,
        "ck_ops": 4,
        "ck_sweeps": 10,
        "theorem1_ops": 2,
        "theorem1_sweeps": 3,
        "fixtures": FIXTURES,
        "exact_n": [8, 10, 12],
        "decode_n": [8, 10, 12],
        "decode_trials": 500,
        "lemma1_n": [10, 12],
        "lemma1_trials": 1000,
        "marton_n": [6, 8, 10],
        "mc_n": [16, 24],
        "mc_trials": 500,
        "edge_seeds": 5,
        "edge_trials": 200,
    },
    "smoke": {
        "repro_ops": 1,
        "repro_restarts": 2,
        "repro_sweeps": 2,
        "ck_ops": 1,
        "ck_sweeps": 2,
        "theorem1_ops": 1,
        "theorem1_sweeps": 1,
        "fixtures": ("theorem1",),
        "exact_n": [4],
        "decode_n": [4],
        "decode_trials": 20,
        "lemma1_n": [4],
        "lemma1_trials": 20,
        "marton_n": [4],
        "mc_n": [4],
        "mc_trials": 20,
        "edge_seeds": 1,
        "edge_trials": 20,
    },
}

# The n=1200 Monte-Carlo op reproduces a known simulator defect: the
# per-codeword likelihood products underflow and some seeds report a
# negative equivocation rate.  Its rows are checked like every other row,
# but a negative equivocation there is counted as a known-defect row, not
# as a failed op, so that the defect stays visible without failing the run.
EDGE_OP = "simulate_mc_n1200"


def _op(name: str, argv: list[str], units: int = 1, **check) -> dict:
    return {"name": name, "argv": argv, "units": units, "check": check}


def _seeds(rng: random.Random, k: int) -> list[int]:
    return [rng.randrange(1, 2**31 - 1) for _ in range(k)]


def _dirichlet(rng: random.Random, k: int) -> list[float]:
    """A strictly positive random pmf: half uniform, half Dirichlet(1)."""
    g = [rng.gammavariate(1.0, 1.0) for _ in range(k)]
    tot = sum(g)
    return [0.5 / k + 0.5 * x / tot for x in g]


def _bsc(p: float) -> dict:
    return {"matrix": [[1.0 - p, p], [p, 1.0 - p]]}


def _admissible_theorem1(rng: random.Random) -> dict:
    """Binary V0, V1, V2, X, no time sharing, channel input ignoring V2.

    V1 and V2 are conditionally independent given V0 and X depends on
    (V0, V1) only, so I(V1;V2|V0,Z) = 0 and the Marton constraint holds.
    """
    p_q = [[1.0]]
    p_v0 = [_dirichlet(rng, 2)]
    p_v12 = []
    for _ in range(2):
        p1, p2 = _dirichlet(rng, 2), _dirichlet(rng, 2)
        p_v12.append([a * b for a in p1 for b in p2])
    by_v0v1 = [[_dirichlet(rng, 2) for _ in range(2)] for _ in range(2)]
    p_x = [by_v0v1[v0][v1] for v0 in range(2) for v1 in range(2) for _ in range(2)]
    return {
        "pattern": "theorem1",
        "sizes": {"Q": 1, "V0": 2, "V1": 2, "V2": 2, "X": 2},
        "tables": [p_q, p_v0, p_v12, p_x],
    }


def _simulate_configs(rng: random.Random, size: dict, spec: str) -> dict[str, dict]:
    identity = {
        "pattern": "wiretap",
        "sizes": {"V": 2, "X": 2},
        "tables": [[[0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]],
    }
    cloud = {
        "pattern": "wiretap",
        "sizes": {"V": 2, "X": 4},
        "tables": [[[0.5, 0.5]], [[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]]],
    }
    decode = {
        "scheme": "decode",
        "spec": spec,
        "dist": cloud,
        "channel": "to_y1",
        "rates": {"message": 0.75, "total": 0.75, "satellite": 0.25},
        "n": size["decode_n"],
        "epsilon": 2.0,
        "trials": size["decode_trials"],
    }
    return {
        "simulate_exact_bsc": {
            "scheme": "wiretap-equivocation",
            "dist": identity,
            "channel": _bsc(rng.uniform(0.05, 0.3)),
            # ceil(n * rate) stays 3, 3, 4 at n = 8, 10, 12 across seeds, so the
            # work and memory of a pass do not depend on the seed
            "rates": {"message": rng.uniform(0.26, 0.29), "total": 1.0},
            "n": size["exact_n"],
            "epsilon": 0.5,
            "trials": 0,
        },
        "simulate_decode_direct": {**decode, "decoder": "direct"},
        "simulate_decode_indirect": {**decode, "decoder": "indirect"},
        "simulate_lemma1": {
            "scheme": "lemma1",
            "dist": {
                "sizes": {"U": 2, "V": 2, "Z": 2},
                "chain": [
                    {"targets": ["U"], "given": [], "table": [[0.5, 0.5]]},
                    {"targets": ["V"], "given": ["U"], "table": [[0.75, 0.25], [0.25, 0.75]]},
                    {"targets": ["Z"], "given": ["V"], "table": [[0.75, 0.25], [0.25, 0.75]]},
                ],
            },
            "s_rate": 0.443,
            "n": size["lemma1_n"],
            "epsilon": 2.0,
            "trials": size["lemma1_trials"],
        },
        "simulate_marton_exact": {
            "scheme": "marton-equivocation",
            "dist": _admissible_theorem1(rng),
            "channel": _bsc(rng.uniform(0.05, 0.3)),
            "rates": {"message": 0.25, "total": 0.5, "t1": 0.5, "t2": 0.5, "b1": 0.25, "b2": 0.25},
            "n": size["marton_n"],
            # looser than the other configs: with 8 joint cells at n <= 8 a
            # tighter window leaves whole bins without a typical pair
            "epsilon": 8.0,
        },
        "simulate_mc": {
            "scheme": "wiretap-equivocation",
            "dist": identity,
            "channel": _bsc(rng.uniform(0.05, 0.3)),
            "rates": {"message": 0.25, "total": 0.5},
            "n": size["mc_n"],
            "epsilon": 0.5,
            "trials": size["mc_trials"],
        },
        EDGE_OP: {
            "scheme": "wiretap-equivocation",
            "dist": identity,
            "channel": _bsc(0.3),
            "rates": {"message": 0.002, "total": 0.004},
            "n": [1200],
            "epsilon": 0.5,
            "trials": size["edge_trials"],
        },
    }


def make_inputs(workload: str, seed: int, root: Path, work: Path, smoke: bool = False) -> dict:
    """The ops of one pass, writing any generated config files into ``work``.

    ``root`` is the checkout the program is built from; paths handed to the
    program are absolute so the child process may run from any directory.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    size = SIZES["smoke" if smoke else "full"]
    rng = random.Random(f"{workload}:{seed}")
    spec = str(root / SPEC)
    ops: list[dict] = []
    preload: dict = {"specs": [], "fixtures": [], "configs": []}
    if workload == "repro_example":
        for i, s in enumerate(_seeds(rng, size["repro_ops"])):
            ops.append(_op(f"repro_example_{i}", [
                "repro-example", "--seed", str(s), "--restarts", str(size["repro_restarts"]),
                "--sweeps", str(size["repro_sweeps"]),
            ]))
    elif workload == "bound_search":
        for i, s in enumerate(_seeds(rng, size["ck_ops"])):
            ops.append(_op(f"bound_ck_extension_{i}", [
                "bound", "--spec", spec, "--id", "ck_extension", *BOUND_CHANNELS,
                "--seed", str(s), "--restarts", "1", "--sweeps", str(size["ck_sweeps"]),
            ], ceiling=RCK_CEILING))
        for i, s in enumerate(_seeds(rng, size["theorem1_ops"])):
            ops.append(_op(f"bound_theorem1_{i}", [
                "bound", "--spec", spec, "--id", "theorem1", *BOUND_CHANNELS,
                "--card", "V0=2", "--card", "V1=2", "--card", "V2=2",
                "--seed", str(s), "--restarts", "1", "--sweeps", str(size["theorem1_sweeps"]),
            ]))
        preload["specs"].append(spec)
    elif workload == "fme_fixtures":
        # the fixtures are deterministic: the seed changes nothing here
        for name in size["fixtures"]:
            ops.append(_op(f"fme_{name}", ["fme", "--fixture", name]))
        preload["fixtures"] = list(size["fixtures"])
    else:
        work.mkdir(parents=True, exist_ok=True)
        configs = _simulate_configs(rng, size, spec)
        for name, cfg in configs.items():
            path = work / f"{name}.json"
            path.write_text(json.dumps(cfg, indent=1) + "\n")
            preload["configs"].append(str(path))
            repeats = size["edge_seeds"] if name == EDGE_OP else 1
            for s in _seeds(rng, repeats):
                ops.append(_op(
                    name, ["simulate", "--config", str(path), "--seed", str(s)],
                    units=len(cfg["n"]), n=cfg["n"], scheme=cfg["scheme"],
                    trials=cfg.get("trials", 0),
                ))
        preload["specs"].append(spec)
    for op in ops:
        op["argv"] += ["--format", "json"]
    return {"ops": ops, "preload": preload}


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def check_op(op: dict, rc: int, out) -> tuple[list[str], int]:
    """Violated invariants of one op's output, and its known-defect rows.

    Every comparison is explicit (no ``assert``) so the gate also holds
    under ``python -O``.
    """
    if rc != 0:
        return [f"exit code {rc}"], 0
    if not isinstance(out, dict):
        return ["no JSON report"], 0
    argv = op["argv"]
    bad: list[str] = []
    if argv[0] == "repro-example":
        if not (_finite(out.get("achievable")) and abs(out["achievable"] - ACHIEVABLE) <= 1e-10):
            bad.append(f"achievable {out.get('achievable')} is not 5/6 within 1e-10")
        if not (_finite(out.get("rck_best")) and out["rck_best"] <= RCK_CEILING + 1e-9):
            bad.append(f"rck_best {out.get('rck_best')} above 7/12")
        if out.get("gap_is_strict") is not True:
            bad.append("gap_is_strict is not true")
    elif argv[0] == "bound":
        value = out.get("value")
        if not _finite(value):
            bad.append(f"value {value!r} is not finite")
        elif "ceiling" in op["check"] and value > op["check"]["ceiling"] + 1e-9:
            bad.append(f"value {value} above the 7/12 ceiling")
    elif argv[0] == "fme":
        if out.get("ok") is not True:
            bad.append(f"fixture checks failed: {out.get('checks')}")
    elif argv[0] == "simulate":
        return _check_rows(op, out.get("rows"))
    return bad, 0


def _check_rows(op: dict, rows) -> tuple[list[str], int]:
    want = op["check"]
    if not isinstance(rows, list) or [r.get("n") for r in rows] != want["n"]:
        return [f"rows do not cover n = {want['n']}"], 0
    bad: list[str] = []
    defects = 0
    for r in rows:
        where = f"n={r['n']}"
        if want["scheme"] == "decode":
            if not (_finite(r.get("p_error")) and 0.0 <= r["p_error"] <= 1.0):
                bad.append(f"{where}: p_error {r.get('p_error')} outside [0, 1]")
            if r.get("trials") != want["trials"]:
                bad.append(f"{where}: ran {r.get('trials')} trials, not {want['trials']}")
            continue
        if want["scheme"] == "lemma1":
            f = r.get("exceedance_frequency")
            if not (_finite(f) and 0.0 <= f <= 1.0):
                bad.append(f"{where}: exceedance frequency {f} outside [0, 1]")
            continue
        eq, leak, msg = r.get("equivocation_rate"), r.get("leakage_rate"), r.get("message_rate")
        if not (_finite(eq) and _finite(leak) and _finite(msg)):
            bad.append(f"{where}: non-finite rates")
            continue
        if r.get("exact") and abs(eq + leak - msg) > SUM_TOL:
            bad.append(f"{where}: equivocation + leakage - message = {eq + leak - msg:.3e}")
        if eq < -RANGE_TOL and op["name"] == EDGE_OP:
            defects += 1
        elif not (-RANGE_TOL <= eq <= msg + RANGE_TOL):
            bad.append(f"{where}: equivocation {eq} outside [0, {msg}]")
    return bad, defects


# ---------------------------------------------------------------------------
# Output fingerprints
# ---------------------------------------------------------------------------

_FINGERPRINT_KEYS = {
    "repro-example": (
        "achievable", "rck_best", "rck_gap", "gap_is_strict", "identity_max_deviation",
        "identity_points_checked", "restarts", "evaluations",
    ),
    "bound": ("value", "restarts", "best_restart", "evaluations"),
    "fme": ("fixture", "ok", "checks"),
    "simulate": ("rows",),
}


def _rounded(x):
    if isinstance(x, float):
        return round(x, FINGERPRINT_DIGITS) + 0.0  # + 0.0 folds -0.0 into 0.0
    if isinstance(x, dict):
        return {k: _rounded(v) for k, v in sorted(x.items())}
    if isinstance(x, list):
        return [_rounded(v) for v in x]
    return x


def fingerprint(op: dict, rc: int, out) -> str:
    """Digest of an op's reported values, floats rounded to 1e-9."""
    keys = _FINGERPRINT_KEYS[op["argv"][0]]
    body = {"rc": rc}
    if isinstance(out, dict):
        body.update({k: _rounded(out.get(k)) for k in keys})
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
