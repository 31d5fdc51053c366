"""The wiretap3 benchmark: time the CLI on one workload and check its outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports the program from the
checkout's ``src/``.  Workloads (see ``workloads.py`` for their inputs):

- ``repro_example``: the 5/6-vs-7/12 example, 256 restarts in 8 calls (``optim``, ``fig1``);
- ``bound_search``: ``bound`` maximization on the example spec (``probability``, ``bounds``);
- ``fme_fixtures``: the six exact FME fixtures (``fme``, ``rationallp``);
- ``simulate_codes``: seeded ``simulate`` configs (``simulate``).

Each run starts fresh processes with BLAS pinned to one thread.  The last
one runs a discarded warm-up pass on tiny inputs, then whole passes over the
workload's ops for about ``--seconds`` seconds, timing the reference kernel
of ``probe.py`` after every op.  Times are CPU seconds normalized to a fixed
host speed: an op's CPU time over the kernel's next to it, times the
kernel's nominal time (``worker.py`` says why).  ``norm_cpu_s`` is one pass,
summed from each op's median over the passes.  ``setup_s`` is the median,
over several processes, of the normalized CPU time from process start to
the program imported and the inputs loaded.  Raw CPU and wall times are
kept in the result file.  Every op's output goes through the correctness
gate and is fingerprinted; a fingerprint that differs from
``bench/baseline.json`` is reported, not counted as a failure.

With ``--trace 1`` the same process then runs one more pass with tracing
wrappers installed and reports per-module metrics instead; the spans go to
``.bench_out/``.  ``--smoke`` runs every op kind on tiny inputs.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import EDGE_OP, WORKLOADS, make_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
BASELINE = BENCH / "baseline.json"

SETUP_SAMPLES = 7          # fresh processes whose set-up is timed; the median is reported
DEADLINE_S = 170.0         # the whole run, all processes included
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _child(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py to completion; (its JSON report, its set-up wall seconds)."""
    env = dict(os.environ, **CHILD_ENV)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT), *args],
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped the child
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    # time.monotonic() is CLOCK_MONOTONIC on Linux, one clock for all processes
    return report, report["ready"] - t0


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _provenance(seed: int) -> dict:
    import importlib.metadata as md

    try:
        numpy_version = md.version("numpy")
    except md.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": _git_sha(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
        "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
    }


def _fingerprint_report(workload: str, seed: int, fingerprints: dict, smoke: bool) -> dict:
    if smoke or not BASELINE.is_file():
        return {"recorded": False, "moved": []}
    recorded = json.loads(BASELINE.read_text()).get(workload, {}).get(str(seed))
    if recorded is None:
        return {"recorded": False, "moved": []}
    moved = sorted(k for k, v in fingerprints.items() if recorded["fingerprints"].get(k) != v)
    return {"recorded": True, "moved": moved}


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    if not (ROOT / "src" / "wiretap3" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {ROOT / 'src' / 'wiretap3'} is missing")
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    work = OUT / "work" / tag
    inputs = {
        "run": make_inputs(workload, seed, ROOT, work, smoke=smoke),
        "warmup": make_inputs(workload, seed, ROOT, work / "warmup", smoke=True),
    }
    work.mkdir(parents=True, exist_ok=True)
    inputs_path = work / "inputs.json"
    inputs_path.write_text(json.dumps(inputs, indent=1) + "\n")

    setups, setup_cpus, setup_norms = [], [], []
    for _ in range(SETUP_SAMPLES - 1):
        report, setup = _child(["--inputs", str(inputs_path), "--mode", "setup"], deadline)
        setups.append(setup)
        setup_cpus.append(report["setup_cpu"])
        setup_norms.append(report["setup_norm_cpu"])
    trace_file = OUT / f"trace-{tag}.json"
    report, setup = _child([
        "--inputs", str(inputs_path), "--mode", "run", "--seconds", str(seconds),
        *(["--trace-file", str(trace_file)] if trace else []),
    ], deadline)
    setups.append(setup)
    setup_cpus.append(report["setup_cpu"])
    setup_norms.append(report["setup_norm_cpu"])

    walls = report["walls"]
    wall = report["wall"]
    if trace:
        metrics = report["per_layer"]
    else:
        metrics = {
            "norm_cpu_s": {"value": report["norm_cpu"], "unit": "s"},
            "setup_s": {"value": statistics.median(setup_norms), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MiB"},
        }
    result = {
        "correct": report["failed"] == 0 and report["tracer_loaded"] == trace,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    detail = {
        "workload": workload,
        "provenance": _provenance(seed),
        "passes": len(walls),
        "walls_s": walls,
        "wall_s": wall,
        "cpu_s": report["cpu"],
        "probe_cpu_s": report["probe_cpu"],
        "op_cpu_s": report["op_cpu"],
        "op_norm_cpu_s": report["op_norm_cpu"],
        "setups_s": setups,
        "setup_cpus_s": setup_cpus,
        "setup_norm_cpus_s": setup_norms,
        "evaluations": report["evaluations"],
        "evals_per_s": report["evaluations"] / wall if report["evaluations"] else None,
        "fail_ratio": report["failed"] / report["attempted"],
        "violations": report["violations"],
        "known_defect_rows": report["known_defect_rows"],
        "fingerprints": report["fingerprints"],
        "fingerprint_check": _fingerprint_report(workload, seed, report["fingerprints"], smoke),
        "tracer_loaded": report["tracer_loaded"],
        "trace_file": str(trace_file.relative_to(ROOT)) if trace else None,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps({**detail, "result": result}, indent=1) + "\n")
    return {"result": result, "detail": detail}


def _print_human(out: dict) -> None:
    d, r = out["detail"], out["result"]
    print(f"provenance: {json.dumps(d['provenance'])}")
    print(f"{d['workload']}: {d['passes']} timed passes; "
          f"{r['attempted']} ops attempted, {r['failed']} failed "
          f"(fail_ratio {d['fail_ratio']:.4f})")
    for name, m in r["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if d["evals_per_s"] is not None:
        print(f"  evals_per_s = {d['evals_per_s']:.6g} evals/s ({d['evaluations']} evaluations per pass)")
    for v in d["violations"]:
        print(f"  VIOLATION {v}")
    if d["known_defect_rows"]:
        print(f"  known defect: {d['known_defect_rows']} {EDGE_OP} rows report negative "
              "equivocation (Monte-Carlo likelihood underflow)")
    fc = d["fingerprint_check"]
    if not fc["recorded"]:
        print("  fingerprints: no baseline recorded for this workload and seed")
    elif fc["moved"]:
        print(f"  FINGERPRINT MOVED (flag, not a failure): {', '.join(fc['moved'])}")
    else:
        print(f"  fingerprints: all {len(d['fingerprints'])} ops match the baseline")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = p.parse_args(argv)
    # exit through Python on SIGTERM, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    _print_human(out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
