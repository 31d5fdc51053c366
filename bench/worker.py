"""One workload in one fresh process: set up, run timed passes, report.

Started by ``run.py``; not meant to be run by hand.  The last line of
stdout is one JSON object.  In ``--mode setup`` the process stops once the
program is imported and the inputs are loaded, and reports the moment it
got there, the CPU time it had used by then and the CPU time of the
reference kernel in ``probe.py`` run right after.

The process runs every op in its main thread and starts no threads of its
own.  The tracing wrappers are imported only with ``--trace-file``, after
the untraced passes, so the untraced passes pay nothing for them.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.resources
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import probe
from workloads import check_op, fingerprint


def _import_program(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    cli = importlib.import_module("wiretap3.cli")
    where = Path(cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise RuntimeError(f"imported wiretap3 from {where}, not from {src}")
    return cli


def _preload(preload: dict) -> None:
    """Load what the ops read: spec files, fixture texts and configs."""
    from wiretap3 import fixture_runs, fme, specfmt

    for path in preload["specs"]:
        specfmt.parse_spec(Path(path).read_text())
    if preload["fixtures"]:
        files = importlib.resources.files("wiretap3").joinpath("fixtures").iterdir()
        for f in sorted(f.name for f in files):
            if f.endswith(".ineq") and f.startswith(tuple(x + "_" for x in preload["fixtures"])):
                fme.parse_system(fixture_runs.fixture_text(f))
    for path in preload["configs"]:
        json.loads(Path(path).read_text())


def _cpu_since_start() -> float:
    """CPU seconds this process has used since it started, children excluded."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_op(cli, op: dict) -> tuple[float, float, int, object, str]:
    """(wall seconds, CPU seconds, exit code, parsed JSON report or None, error text)."""
    buf = io.StringIO()
    err = ""
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op["argv"])
    except SystemExit as e:  # argparse rejects its arguments this way
        rc = e.code if isinstance(e.code, int) else 1
        err = f"SystemExit({e.code})"
    except Exception:  # a crash is a failed op; keep measuring the others
        rc = -1
        err = traceback.format_exc(limit=3)
    cpu = time.process_time() - c0
    dt = time.perf_counter() - t0
    try:
        out = json.loads(buf.getvalue())
    except ValueError:
        out = None
    return dt, cpu, rc, out, err


class Pass:
    """Outcome of one pass over the ops: timing, gate and fingerprints."""

    def __init__(self, cli, ops: list[dict], reference: "Pass | None" = None, on_op=None,
                 probes: list[float] | None = None):
        """Run ``ops`` once.  With ``probes`` (the kernel times so far, at least
        one), time the reference kernel after each op and keep each op's CPU
        time over the mean of the kernel times just before and after it."""
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.defect_rows = 0
        self.evaluations = 0
        self.violations: list[str] = []
        self.fingerprints: dict[str, str] = {}
        self.op_seconds: dict[str, float] = {}
        self.op_cpu: dict[str, float] = {}
        self.op_ratio: dict[str, float] = {}
        for i, op in enumerate(ops):
            key = f"{i:02d}_{op['name']}"
            ctx = on_op(key) if on_op else contextlib.nullcontext()
            with ctx:
                dt, cpu, rc, out, err = run_op(cli, op)
            self.wall += dt
            self.op_seconds[key] = dt
            self.op_cpu[key] = cpu
            if probes is not None:
                probes.append(probe.cpu_seconds())
                self.op_ratio[key] = cpu / (0.5 * (probes[-2] + probes[-1]))
            bad, defects = check_op(op, rc, out)
            if err:
                bad.append(err.strip().splitlines()[-1])
            self.fingerprints[key] = fingerprint(op, rc, out)
            if reference is not None and reference.fingerprints.get(key) != self.fingerprints[key]:
                bad.append("output differs from the first pass of this run")
            self.attempted += op["units"]
            if bad:
                self.failed += op["units"]
                self.violations += [f"{key}: {b}" for b in bad]
            self.defect_rows += defects
            if isinstance(out, dict) and isinstance(out.get("evaluations"), int):
                self.evaluations += out["evaluations"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, type=Path)
    p.add_argument("--inputs", required=True, type=Path)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace-file", type=Path, default=None,
                   help="then run one traced pass and write its spans here")
    args = p.parse_args(argv)

    cli = _import_program(args.root)
    inputs = json.loads(args.inputs.read_text())
    _preload(inputs["run"]["preload"])
    ready = time.monotonic()
    setup_cpu = _cpu_since_start()
    setup = {
        "ready": ready,
        "setup_cpu": setup_cpu,
        "setup_norm_cpu": probe.REFERENCE_S * setup_cpu / probe.cpu_seconds(),
    }
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    Pass(cli, inputs["warmup"]["ops"])  # lazy set-up and caches, not timed
    ops = inputs["run"]["ops"]
    passes: list[Pass] = []
    probes = [probe.cpu_seconds()]
    start = time.perf_counter()
    # whole passes only; stop when one more would end past the deadline by
    # more than half a pass, so a run lasts about --seconds
    while not passes or time.perf_counter() - start + 0.5 * passes[-1].wall < args.seconds:
        passes.append(Pass(cli, ops, reference=passes[0] if passes else None, probes=probes))
    walls = [ps.wall for ps in passes]
    first = passes[0]
    # On a shared host other tenants change a process's speed in spells of
    # seconds to minutes, by a quarter or more.  Part of it is time the vCPU
    # is taken away (steal) or the process waits for it, which CPU time
    # leaves out: every op runs on this one thread with BLAS pinned to one
    # thread and does no I/O, so its CPU time is its wall time on an idle
    # host.  The rest (shared caches, clock speed) moves CPU time both ways;
    # the reference kernel timed on either side of the op moves with it, so
    # the ratio of the two hardly does.  Each op's median ratio over the
    # passes, times the kernel's nominal time, is its normalized CPU time.
    op_cpu = {k: statistics.median(ps.op_cpu[k] for ps in passes) for k in first.op_cpu}
    op_norm = {
        k: probe.REFERENCE_S * statistics.median(ps.op_ratio[k] for ps in passes)
        for k in first.op_ratio
    }
    wall = sum(statistics.median(ps.op_seconds[k] for ps in passes) for k in first.op_seconds)
    result = {
        **setup,
        "wall": wall,
        "cpu": sum(op_cpu.values()),
        "norm_cpu": sum(op_norm.values()),
        "op_cpu": op_cpu,
        "op_norm_cpu": op_norm,
        "probe_cpu": statistics.median(probes),
        "walls": walls,
        "evaluations": first.evaluations,
        "attempted": sum(ps.attempted for ps in passes),
        "failed": sum(ps.failed for ps in passes),
        "violations": [v for ps in passes for v in ps.violations][:20],
        "known_defect_rows": first.defect_rows,
        "fingerprints": first.fingerprints,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace_file:
        from tracer import Tracer

        tracer = Tracer()
        with tracer.installed():
            traced = Pass(cli, ops, reference=first, on_op=tracer.op)
        result["attempted"] += traced.attempted
        result["failed"] += traced.failed
        result["violations"] += traced.violations[:5]
        result["per_layer"] = tracer.metrics(
            untraced_wall=wall,
            traced_wall=traced.wall,
            evaluations=first.evaluations,
            defect_rows=first.defect_rows,
        )
        tracer.dump(args.trace_file)
    result["tracer_loaded"] = "tracer" in sys.modules
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
