"""Per-layer tracing from outside the program, for the traced run only.

``Tracer.installed()`` wraps public functions of the ``wiretap3`` modules
and puts the wrappers back to the originals on exit.  A wrapper replaces
the function everywhere a caller looks its name up: the defining module,
every module that imported it by name (``fme`` binds ``implied_by``,
``fig1`` binds ``search_factored`` and ``corollary1_rate``, ...), and the
evaluator table ``bounds._SCALAR_BOUNDS`` that captured the bound
functions at import.

Coarse calls (one op, one ``refine_rows``, one LP, one elimination step)
become spans: name, start, end, the enclosing span and the op they belong
to.  Hot leaves such as ``JointPmf.entropy`` only add to per-function
counters (calls and busy time), so memory stays bounded.  Every wrapped
call also charges its time, minus the time of wrapped calls inside it, to
its module: that is the module's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import FIXTURES



def _lp_attrs(args, kwargs, result):
    A, c = args[0], args[2]
    return {"rows": len(A), "cols": len(c), "status": result.status}


def _elim_attrs(args, kwargs, result):
    return {
        "var": args[1],
        "rows_in": len(args[0].inequalities),
        "rows_out": len(result.inequalities),
    }


def _exact_work(args, kwargs, result):
    cb, chan = args[0], args[1]
    if hasattr(cb, "x_seqs"):
        codewords = cb.x_seqs.shape[0] * cb.x_seqs.shape[1]
    else:
        codewords = cb.v0_seqs.shape[0] * cb.pairing.shape[1] * cb.pairing.shape[2]
    return {"work": chan.cols ** cb.n * codewords}


# (module, attribute, "span" or "count", optional attrs(args, kwargs, result))
TARGETS = (
    ("probability", "JointPmf.entropy", "count", None),
    ("probability", "JointPmf.mutual_information", "count", None),
    ("probability", "JointPmf.conditional_mutual_information", "count", None),
    ("probability", "JointPmf.extend", "count", None),
    ("bounds", "wiretap_rate", "count", None),
    ("bounds", "ck_extension_rate", "count", None),
    ("bounds", "corollary1_rate", "count", None),
    ("bounds", "theorem1_rate", "count", None),
    ("bounds", "source_joint", "count", None),
    ("bounds", "maximize", "span", None),
    ("optim", "search_factored", "span", None),
    ("optim", "refine_rows", "span", lambda a, k, r: {"evals": r[2]}),
    ("fig1", "second_component_measures", "count", None),
    ("fig1", "rck_upper_bound_objective", "count", None),
    ("fig1", "reproduce_example", "span", None),
    ("fme", "parse_system", "span", None),
    ("fme", "eliminate", "span", _elim_attrs),
    ("fme", "eliminate_all", "span", None),
    ("fme", "remove_redundant", "span", None),
    ("fme", "region_equal", "span", None),
    ("rationallp", "simplex_min_eq", "span", _lp_attrs),
    ("rationallp", "implied_by", "count", None),
    ("rationallp", "feasible_eq", "count", None),
    ("fixture_runs", "run_fixture", "span", lambda a, k, r: {"fixture": a[0]}),
    ("simulate", "build_wiretap_codebook", "span", None),
    ("simulate", "build_marton_codebook", "span", None),
    ("simulate", "exact_equivocation", "span", _exact_work),
    ("simulate", "mc_equivocation", "span", None),
    ("simulate", "decoding_error_rate", "span", None),
    ("simulate", "lemma1_experiment", "span", None),
    ("simulate", "decode_direct", "count", None),
    ("simulate", "decode_indirect", "count", None),
    ("simulate", "joint_counts", "count", None),
    ("simulate", "typical_mask", "count", None),
    ("specfmt", "parse_spec", "count", None),
)

BOUND_EVALUATORS = (
    "bounds.wiretap_rate", "bounds.ck_extension_rate",
    "bounds.corollary1_rate", "bounds.theorem1_rate",
)


class _Stat:
    __slots__ = ("calls", "busy", "outer_calls", "outer_busy", "values")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.outer_calls = 0   # calls from another module
        self.outer_busy = 0.0
        self.values = 0        # results that are not None


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.self_s: dict[str, float] = defaultdict(float)
        self.cells_counted = 0
        # frames of the wrapped calls now running: [module, child seconds, span id]
        self._stack: list[list] = []
        self._op = None
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _call(self, module, label, span, attrs, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        sid = None
        if span:
            self._next_id += 1
            sid = self._next_id
        frame = [module, 0.0, sid if span else (parent[2] if parent else None)]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
        elapsed = t1 - t0
        self.self_s[module] += elapsed - frame[1]
        if parent is not None:
            parent[1] += elapsed
        st = self.stats[label]
        st.calls += 1
        st.busy += elapsed
        if parent is None or parent[0] != module:
            st.outer_calls += 1
            st.outer_busy += elapsed
        if result is not None:
            st.values += 1
        if label == "simulate.joint_counts":
            self.cells_counted += args[0].size
        if span:
            self.spans.append({
                "id": sid,
                "parent": parent[2] if parent else None,
                "op": self._op,
                "name": label,
                "start": t0 - self.t0,
                "end": t1 - self.t0,
                **(attrs(args, kwargs, result) if attrs else {}),
            })
        return result

    def _wrap(self, fn, module, label, kind, attrs):
        call = self._call
        span = kind == "span"

        def wrapper(*args, **kwargs):
            return call(module, label, span, attrs, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        return wrapper

    @contextlib.contextmanager
    def op(self, key: str):
        """Span of one op; every span recorded inside carries its key."""
        self._op = key
        self._next_id += 1
        frame = ["op", 0.0, self._next_id]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.self_s["op"] += (t1 - t0) - frame[1]
            self.spans.append({
                "id": frame[2], "parent": None, "op": key, "name": "op",
                "start": t0 - self.t0, "end": t1 - self.t0,
            })
            self._op = None

    # -- installing --------------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self) -> None:
        """Wrap every target and rebind every name that refers to one."""
        mods = {n: importlib.import_module(f"wiretap3.{n}") for n in {t[0] for t in TARGETS}}
        wrapped = {}
        for mod_name, attr, kind, attrs in TARGETS:
            mod = mods[mod_name]
            label = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(fn, mod_name, label, kind, attrs))
                continue
            fn = getattr(mod, attr)
            wrapped[id(fn)] = self._wrap(fn, mod_name, label, kind, attrs)
        # rebind every name a caller looks up, in every loaded wiretap3 module
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "wiretap3" or name.startswith("wiretap3.")):
                continue
            for key, value in list(vars(mod).items()):
                if id(value) in wrapped and wrapped[id(value)].__wrapped__ is value:
                    self._set(mod, key, wrapped[id(value)])
        table = mods["bounds"]._SCALAR_BOUNDS
        for key, (pattern, fn) in list(table.items()):
            if id(fn) in wrapped:
                self._set(table, key, (pattern, wrapped[id(fn)]))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reporting ---------------------------------------------------------

    def _durations(self, name: str, **match) -> list[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in match.items())
        ]

    def metrics(self, untraced_wall: float, traced_wall: float, evaluations: int,
                defect_rows: int) -> dict:
        """Per-layer metrics of the traced pass, each as (value, unit)."""
        st = self.stats

        def mean_us(*labels, outer=False):
            calls = sum(st[x].outer_calls if outer else st[x].calls for x in labels)
            busy = sum(st[x].outer_busy if outer else st[x].busy for x in labels)
            return busy / calls * 1e6 if calls else 0.0

        def total(name, **match):
            return float(sum(self._durations(name, **match)))

        def median(values):
            return float(statistics.median(values)) if values else 0.0

        lp = sorted(self._durations("rationallp.simplex_min_eq"))
        refine = self._durations("optim.refine_rows")
        elim = [s for s in self.spans if s["name"] == "fme.eliminate"]
        measures = ("probability.mutual_information", "probability.conditional_mutual_information")
        evals = sum(st[x].calls for x in BOUND_EVALUATORS)
        implied = st["rationallp.implied_by"]
        counts = st["simulate.joint_counts"]
        m = {
            "probability.extend_calls": (st["probability.extend"].calls, "count"),
            "probability.extend_us": (mean_us("probability.extend"), "us"),
            "probability.entropy_calls": (st["probability.entropy"].calls, "count"),
            "probability.measure_calls": (sum(st[x].outer_calls for x in measures), "count"),
            "probability.measure_us": (mean_us(*measures, outer=True), "us"),
            "probability.self_s": (self.self_s["probability"], "s"),
            "bounds.evals": (evals, "count"),
            "bounds.eval_us": (mean_us(*BOUND_EVALUATORS), "us"),
            "bounds.admissible_ratio": (
                sum(st[x].values for x in BOUND_EVALUATORS) / evals if evals else 0.0, "ratio"),
            "bounds.self_s": (self.self_s["bounds"], "s"),
            "optim.restarts": (len(refine), "count"),
            "optim.refine_s": (median(refine), "s"),
            "optim.evals_per_restart": (
                sum(s["evals"] for s in self.spans if s["name"] == "optim.refine_rows")
                / len(refine) if refine else 0.0, "count"),
            "optim.evals_per_s": (evaluations / untraced_wall if evaluations else 0.0, "evals/s"),
            "optim.self_s": (self.self_s["optim"], "s"),
            "fig1.measures_calls": (st["fig1.second_component_measures"].calls, "count"),
            "fig1.measures_us": (mean_us("fig1.second_component_measures"), "us"),
            "fig1.self_s": (self.self_s["fig1"], "s"),
            "fme.eliminate_steps": (len(elim), "count"),
            "fme.rows_in": (sum(s["rows_in"] for s in elim), "count"),
            "fme.rows_out": (sum(s["rows_out"] for s in elim), "count"),
            "fme.max_rows": (max((s["rows_out"] for s in elim), default=0), "count"),
            "fme.eliminate_s": (total("fme.eliminate"), "s"),
            "fme.remove_redundant_s": (total("fme.remove_redundant"), "s"),
            "fme.region_equal_s": (total("fme.region_equal"), "s"),
            "fme.parse_s": (total("fme.parse_system"), "s"),
            "fme.self_s": (self.self_s["fme"], "s"),
            "rationallp.lps": (len(lp), "count"),
            "rationallp.lp_ms": (median(lp) * 1e3, "ms"),
            "rationallp.lp_p90_ms": (
                (statistics.quantiles(lp, n=10)[-1] if len(lp) > 1 else median(lp)) * 1e3, "ms"),
            "rationallp.lp_cells": (
                sum(s["rows"] * s["cols"] for s in self.spans
                    if s["name"] == "rationallp.simplex_min_eq"), "count"),
            "rationallp.implied_ratio": (
                implied.values / implied.calls if implied.calls else 0.0, "ratio"),
            "rationallp.self_s": (self.self_s["rationallp"], "s"),
        }
        for fx in FIXTURES:
            m[f"fixture_runs.{fx}_s"] = (total("fixture_runs.run_fixture", fixture=fx), "s")
        decode = ("simulate.decode_direct", "simulate.decode_indirect")
        m.update({
            "simulate.codebook_s": (
                total("simulate.build_wiretap_codebook")
                + total("simulate.build_marton_codebook"), "s"),
            "simulate.exact_equiv_s": (total("simulate.exact_equivocation"), "s"),
            "simulate.exact_work": (
                sum(s["work"] for s in self.spans
                    if s["name"] == "simulate.exact_equivocation"), "count"),
            "simulate.mc_equiv_s": (total("simulate.mc_equivocation"), "s"),
            "simulate.decode_calls": (sum(st[x].calls for x in decode), "count"),
            "simulate.decode_us": (mean_us(*decode), "us"),
            "simulate.joint_counts_calls": (counts.calls, "count"),
            "simulate.counted_cells_per_s": (
                self.cells_counted / counts.busy if counts.busy else 0.0, "cells/s"),
            "simulate.typical_mask_s": (st["simulate.typical_mask"].busy, "s"),
            "simulate.lemma1_s": (total("simulate.lemma1_experiment"), "s"),
            "simulate.negative_equivocation_rows": (defect_rows, "count"),
            "simulate.self_s": (self.self_s["simulate"], "s"),
            "specfmt.parse_ms": (mean_us("specfmt.parse_spec") / 1e3, "ms"),
            "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        })
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        stats = {
            k: {"calls": s.calls, "busy_s": s.busy, "outer_calls": s.outer_calls}
            for k, s in sorted(self.stats.items())
        }
        path.write_text(json.dumps(
            {"spans": self.spans, "counters": stats, "self_s": dict(self.self_s)}
        ) + "\n")
