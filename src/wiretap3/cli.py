"""Command line entry point.

Subcommands: info, ordering, bound, region, fme, simulate, repro-example.
Every randomized subcommand requires an explicit --seed; results are
deterministic given identical inputs and seed.  Exit codes: 0 success,
1 validation error, 2 configured cap exceeded.

``main`` alone maps errors to exit codes: a subcommand raises every error
and returns 0, or 1 for a fixture whose checks fail.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import TYPE_CHECKING, Optional

# each subcommand imports the modules it runs, so a call loads only those;
# fixture_runs is light, and the parser lists its fixture names
from . import fixture_runs

if TYPE_CHECKING:
    from .optim import SearchBudget
    from .specfmt import SpecDocument

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CAP = 2


class CliError(ValueError):
    pass


def _load_spec(path: str) -> SpecDocument:
    from .specfmt import parse_spec
    with open(path) as fh:
        return parse_spec(fh.read())


def _emit(args, payload: dict, human: str):
    text = json.dumps(payload, indent=2, default=str) if args.format == "json" else human
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _fields(report, names: str) -> dict:
    """``report``'s fields ``names`` (space-separated), in order."""
    return {k: getattr(report, k) for k in names.split()}


def _require_seed(args):
    if args.seed is None:
        raise CliError("--seed is required for randomized subcommands")


def _given(args, names) -> dict:
    """The options ``names`` (their dests) that this call sets, by dest."""
    return {n: v for n in names if (v := getattr(args, n, None)) is not None}


def _refuse(args, names: str, why: str):
    """Exit 1 if this call sets any of ``names`` (dests), which ``why`` leaves unread."""
    if given := _given(args, names.split()):
        raise CliError(f"{', '.join('--' + n for n in given)} not read: {why}")


def _assignments(flag: str, items, convert) -> dict:
    """``NAME=VALUE`` items of one flag, each VALUE read by ``convert``."""
    out = {}
    for item in items:
        name, eq, value = item.partition("=")
        try:
            if not (eq and name.strip()):
                raise ValueError
            out[name.strip()] = convert(value)
        except ValueError:
            raise CliError(f"{flag} {item!r}: expected NAME={convert.__name__}") from None
    return out


def _budget(args) -> SearchBudget:
    """The seeded budget of the search options this call sets; SearchBudget states the rest."""
    from .optim import SearchBudget
    _require_seed(args)
    fields = {"restarts": "restarts", "sweeps": "refine_sweeps", "grid": "grid_points"}
    return SearchBudget(seed=args.seed, **{fields[k]: v for k, v in _given(args, fields).items()})


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------


def cmd_info(args) -> int:
    from .probability import JointPmf
    doc = _load_spec(args.spec)
    report: dict = {"subcommand": "info", "alphabets": doc.alphabets, "pmfs": {}, "channels": {}}
    lines = []
    source = doc.pmf(args.input) if args.input else None
    for name, (axes, p) in doc.pmfs.items():
        report["pmfs"][name] = {"axes": list(axes), "entropy_bits": p.entropy()}
        lines.append(f"pmf {name} over {axes}: H = {p.entropy():.6f} bits")
    for name, (in_axes, out_axes, chan) in doc.channels.items():
        entry = {"in": list(in_axes), "out": list(out_axes)}
        if source is not None and source.alphabet_size == chan.rows:
            j = JointPmf.from_pmf("X", source).extend(("X",), [("Y", chan.cols)], chan)
            mi = j.mutual_information(("X",), ("Y",))
            entry["mutual_information_bits"] = mi
            lines.append(f"channel {name}: I(X;Y) = {mi:.6f} bits at pmf {args.input}")
        report["channels"][name] = entry
        lines.append(f"channel {name}: {in_axes} -> {out_axes} ({chan.rows}x{chan.cols})")
    _emit(args, report, "\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# ordering
# ---------------------------------------------------------------------------


def cmd_ordering(args) -> int:
    from . import orderings
    doc = _load_spec(args.spec)
    y = doc.channel(args.y)
    z = doc.channel(args.z)
    if args.relation == "degraded":
        _refuse(args, "seed restarts sweeps grid", "degradedness is decided by one exact LP")
        verdict = orderings.check_degraded(y, z)
    elif args.relation == "less_noisy":
        _refuse(args, "grid", "the grid seeds only more_capable with |X| <= 3")
        verdict = orderings.check_less_noisy(y, z, _budget(args))
    else:
        verdict = orderings.check_more_capable(y, z, _budget(args))
    holds = {True: "true", False: "false", None: "undetermined"}[verdict.holds]
    payload = {"subcommand": "ordering", "relation": verdict.relation, "holds": holds,
               "resolution": verdict.resolution}
    if verdict.margin is not None:
        payload["violation_margin_bits"] = verdict.margin
    if (w := verdict.witness) is not None:
        payload["witness"] = (w.matrix if hasattr(w, "matrix") else w.tensor).tolist()
    human = f"{args.y} {args.relation} {args.z}: {holds} ({verdict.resolution})"
    _emit(args, payload, human)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def cmd_bound(args) -> int:
    from . import bounds
    doc = _load_spec(args.spec)
    chans = doc.broadcast(args.y1, args.y2, args.z)
    if args.dist:
        if args.card:
            raise CliError("--card sets a maximization's cardinalities; --dist fixes them")
        _refuse(args, "seed restarts sweeps", "--dist evaluates the bound, with no search")
        dist = doc.factored[args.dist]
        value = bounds.evaluate_bound(args.id, dist, chans)
        payload = {"subcommand": "bound", "id": args.id, "mode": "evaluate",
                   "value": value if value is not None else "inadmissible"}
        human = f"{args.id} at {args.dist}: " + (
            f"{value:.6f} bits" if value is not None else "inadmissible"
        )
        _emit(args, payload, human)
        return EXIT_OK
    cards = _assignments("--card", args.card or [], int)
    aux = bounds.AuxSpec(bounds.bound_pattern(args.id), cards)
    res = bounds.maximize(args.id, aux, chans, _budget(args))
    payload = {
        "subcommand": "bound",
        "id": args.id,
        "mode": "maximize",
        **_fields(res, "value restarts best_restart evaluations search_evaluations "
                       "objective_points"),
        "argmax_tables": [f.table.matrix.tolist() for f in res.argmax.factors],
        "note": "search lower bound on the true maximum",
    }
    human = (
        f"max {args.id} >= {res.value:.6f} bits "
        f"({res.restarts} restarts, best at {res.best_restart}, {res.evaluations} evals)"
    )
    _emit(args, payload, human)
    return EXIT_OK


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------


def _region_payload(sample) -> dict:
    rows = []
    for row in sample.rows:
        entry = {**_fields(row, "label"), "lhs": dict(row.lhs), **_fields(row, "relation rhs")}
        if row.clamp is not None:
            entry["clamp_const"] = row.clamp[0]
            entry["clamp_coeffs"] = dict(row.clamp[1])
        rows.append(entry)
    return {"variables": list(sample.variables), "rows": rows}


def _region_human(sample) -> str:
    lines = []
    for row in sample.rows:
        lhs = " + ".join((f"{c:g}*{v}" if c != 1 else v) for v, c in row.lhs.items())
        rhs = f"{row.rhs:.6f}"
        if row.clamp is not None:
            const, coeffs = row.clamp
            inner = f"{const:.6f} " + " ".join(f"{c:+g}*{v}" for v, c in coeffs.items())
            rhs += f" + max(0, {inner})"
        lines.append(f"  {row.label}: {lhs} {row.relation} {rhs}")
    return "\n".join(lines)


def cmd_region(args) -> int:
    from . import bounds
    doc = _load_spec(args.spec)
    dist = doc.factored[args.dist]
    if args.id in ("theorem2", "prop1"):
        missing = [f"--{n}" for n in ("y1", "y2", "z") if getattr(args, n) is None]
        if missing:
            raise CliError(f"{args.id} regions need {', '.join(missing)}")
        chans = doc.broadcast(args.y1, args.y2, args.z)
        if args.id == "theorem2":
            sample = bounds.theorem2_region(dist, chans)
            if sample is None:
                _emit(args, {"subcommand": "region", "id": args.id, "result": "inadmissible"},
                      "inadmissible distribution (Marton constraint violated)")
                return EXIT_OK
        else:
            sample = bounds.prop1_region(dist, chans)
    elif not (args.y1z3 and args.z2):
        raise CliError("multilevel regions need --y1z3 and --z2")
    else:
        ml = doc.multilevel(args.y1z3, args.z2)
        fn = bounds.prop2_inner_region if args.id == "prop2-inner" else bounds.prop3_outer_region
        sample = fn(dist, ml)
    payload = {"subcommand": "region", "id": args.id, **_region_payload(sample)}
    human = f"region {args.id} at {args.dist}:\n" + _region_human(sample)
    if args.point:
        point = _assignments("--point", args.point.split(","), float)
        inside = sample.contains(point, tol=1e-9)
        payload["point"] = point
        payload["contains_point"] = inside
        human += f"\n  point {point}: {'inside' if inside else 'outside'}"
    _emit(args, payload, human)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fme
# ---------------------------------------------------------------------------


def cmd_fme(args) -> int:
    if args.fixture:
        _refuse(args, "system eliminate reduce compare", "--fixture runs its own systems")
        res = fixture_runs.run_fixture(args.fixture)
        payload = {"subcommand": "fme", "fixture": res.name, "ok": res.ok,
                   "checks": dict(res.checks), "certificates": res.certificates}
        human_lines = [f"fixture {res.name}: {'PASS' if res.ok else 'FAIL'}"]
        human_lines += [f"  {k}: {v}" for k, v in res.checks.items()]
        _emit(args, payload, "\n".join(human_lines))
        return EXIT_OK if res.ok else EXIT_VALIDATION
    from . import fme
    if not args.system:
        raise CliError("fme needs --system or --fixture")
    with open(args.system) as fh:
        system, assumptions = fme.parse_system(fh.read())
    if args.eliminate:
        system = fme.eliminate_all(system, [v.strip() for v in args.eliminate.split(",")])
    if args.reduce:
        system = fme.remove_redundant(system, assumptions)
    payload = {"subcommand": "fme", "system": system.format()}
    human = system.format().rstrip()
    if args.compare:
        with open(args.compare) as fh:
            other, other_assume = fme.parse_system(fh.read())
        eq, cert = fme.region_equal(system, other, list(assumptions) + list(other_assume))
        payload["region_equal"] = eq
        payload["certificate"] = cert
        human += f"\nregion_equal vs {args.compare}: {eq}"
    _emit(args, payload, human)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _dist_from_config(cfg: dict, doc: Optional[SpecDocument]):
    import numpy as np
    from .probability import Factor, FactoredDistribution
    d = cfg["dist"]
    if isinstance(d, dict) and "factored" in d:
        _check_keys("dist", d, ("factored",))
        if doc is None:
            raise CliError("config references a spec factored name but no spec file")
        return doc.factored[d["factored"]]
    if isinstance(d, dict) and "pattern" in d:
        from .bounds import build_factored
        _check_keys("dist", d, _PATTERN_KEYS, _PATTERN_KEYS)
        tables = [np.asarray(t, dtype=float) for t in d["tables"]]
        return build_factored(d["pattern"], d["sizes"], tables)
    if isinstance(d, dict) and "chain" in d:
        sizes = _check_keys("dist", d, ("sizes", "chain"), ("sizes", "chain"))["sizes"]
        if not isinstance(d["chain"], list):
            raise CliError("dist chain must be a list of factors")
        chain = [_check_keys("dist chain factor", f, ("targets", "given", "table"),
                             ("targets", "table")) for f in d["chain"]]
        factors = [Factor(f["targets"], f.get("given", []), np.asarray(f["table"], dtype=float))
                   for f in chain]
        axis_order = [a for f in chain for a in f["targets"]]
        sizes = _check_keys("dist sizes", sizes, sizes, axis_order)
        return FactoredDistribution([(a, sizes[a]) for a in axis_order], factors)
    raise CliError(
        "config dist must be {'factored': name}, inline pattern tables, "
        "or an explicit factor chain"
    )


def _channel_from_config(cfg_value, doc: Optional[SpecDocument]):
    from .probability import ConditionalPmf
    if isinstance(cfg_value, str):
        if doc is None:
            raise CliError("config references a spec channel but no spec file")
        return doc.channel(cfg_value)
    return ConditionalPmf(_check_keys("channel", cfg_value, ("matrix",), ("matrix",))["matrix"])


# the top-level config keys that every scheme accepts, each scheme's own, and those with a default
_CONFIG_KEYS = ("scheme", "spec", "dist", "n", "epsilon", "caps")
_SCHEME_KEYS = {"wiretap-equivocation": ("channel", "rates", "trials"),
                "marton-equivocation": ("channel", "rates"),
                "decode": ("channel", "rates", "trials", "decoder"),
                "lemma1": ("delta", "delta1", "s_rate", "trials")}
_DEFAULTED = ("spec", "epsilon", "delta", "delta1", "caps", "trials", "decoder")
_PATTERN_KEYS = ("pattern", "sizes", "tables")


def _check_keys(what: str, given, known, required=()) -> dict:
    """``given``, once it is an object whose keys are all ``known`` and include ``required``."""
    if not isinstance(given, dict):
        raise CliError(f"{what} must be an object")
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise CliError(f"unknown {what} key(s) {', '.join(unknown)}; known: {', '.join(known)}")
    missing = [k for k in required if k not in given]
    if missing:
        raise CliError(f"{what} is missing key {missing[0]!r}")
    return given


def _from_config(cls, what: str, given):
    """A ``cls`` from the object ``given``, which must hold every field without a default."""
    names = [f.name for f in fields(cls)]
    _check_keys(what, given, names, [f.name for f in fields(cls) if f.default is MISSING])
    return cls(**given)


_EQUIVOCATION = "leakage_rate equivocation_rate message_rate"


def cmd_simulate(args) -> int:
    from . import simulate as sim
    _require_seed(args)
    with open(args.config) as fh:
        cfg = json.load(fh)
    # the scheme names the keys a config may and must hold, so it is required first, any key known
    scheme = _check_keys("config", cfg, cfg, ("scheme",))["scheme"]
    if not (isinstance(scheme, str) and scheme in _SCHEME_KEYS):
        raise CliError(f"unknown scheme {scheme!r}")
    known = _CONFIG_KEYS + _SCHEME_KEYS[scheme]
    _check_keys("config", cfg, known, [k for k in known if k not in _DEFAULTED])
    doc = None
    if "spec" in cfg:   # relative to the config's directory; an absolute path stays as it is
        doc = _load_spec(str(Path(args.config).resolve().parent / cfg["spec"]))
    caps = _from_config(sim.Caps, "caps", cfg.get("caps", {}))
    n_list = cfg["n"] if isinstance(cfg["n"], list) else [cfg["n"]]
    if not n_list:
        raise CliError("config n must be a blocklength or a non-empty list of them")
    dist = _dist_from_config(cfg, doc)
    chan = None if scheme == "lemma1" else _channel_from_config(cfg["channel"], doc)
    typicality = {k: cfg[k] for k in ("epsilon", "delta", "delta1") if k in cfg}
    rows = []
    for n in n_list:
        params = sim.TypicalityParams(n, **typicality)
        if scheme in ("wiretap-equivocation", "decode"):
            rates = _from_config(sim.WiretapRates, "rates", cfg["rates"])
            cb = sim.build_wiretap_codebook(dist, rates, params, args.seed, caps)
        if scheme == "wiretap-equivocation":
            trials = cfg.get("trials", 0)
            rep = (sim.exact_equivocation(cb, chan, caps) if trials == 0
                   else sim.mc_equivocation(cb, chan, trials, args.seed))
            rows.append({"n": n, **_fields(cb, "k_msg k_total"),
                         **_fields(rep, f"{_EQUIVOCATION} exact ci_halfwidth")})
        elif scheme == "marton-equivocation":
            rates = _from_config(sim.MartonRates, "rates", cfg["rates"])
            cb = sim.build_marton_codebook(dist, rates, params, args.seed, caps)
            rep = sim.exact_equivocation(cb, chan, caps)
            rows.append({"n": n, **_fields(rep, f"{_EQUIVOCATION} encoding_failure_rate"),
                         "exact": True})
        elif scheme == "decode":
            pe, trials = sim.decoding_error_rate(
                cb, chan, params, cfg.get("trials", 1000), args.seed,
                decoder=cfg.get("decoder", "indirect"),
            )
            rows.append({"n": n, "p_error": pe, "trials": trials})
        else:
            rep = sim.lemma1_experiment(
                dist, cfg["s_rate"], params, cfg.get("trials", 1000), args.seed, caps
            )
            rows.append({"n": n, **_fields(rep, "exceedance_frequency threshold mean_count "
                                                "info_rate in_concentration_regime")})
    payload = {"subcommand": "simulate", "scheme": scheme, "seed": args.seed, "rows": rows}
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        human = buf.getvalue().rstrip()
    else:
        human = "\n".join(str(r) for r in rows)
    _emit(args, payload, human)
    return EXIT_OK


# ---------------------------------------------------------------------------
# repro-example
# ---------------------------------------------------------------------------


def cmd_repro_example(args) -> int:
    from . import fig1
    rep = fig1.reproduce_example(_budget(args), **_given(args, ("q2_card", "v2_card")))
    payload = {
        "subcommand": "repro-example",
        **_fields(rep, "achievable rck_best rck_gap gap_is_strict identity_max_deviation "
                       "identity_points_checked restarts evaluations objective_points"),
    }
    human = (
        f"achievable = {rep.achievable:.12f} (exactly 5/6 within float error)\n"
        f"R_CK best found = {rep.rck_best:.6f} < achievable: {rep.rck_best < rep.achievable}\n"
        f"gap below 5/6 = {rep.rck_gap:.6f} (strict at 1e-3: {rep.gap_is_strict})\n"
        f"zero-leakage identity: max deviation {rep.identity_max_deviation:.2e} "
        f"over {rep.identity_points_checked} trace points"
    )
    if args.export_channel:
        with open(args.export_channel, "w") as fh:
            fh.write(fig1.export_spec())
        payload["channel_spec_file"] = args.export_channel
        human += f"\nchannel spec written to {args.export_channel}"
    _emit(args, payload, human)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # --help shows the docstring's first two paragraphs
    p = argparse.ArgumentParser(prog="wiretap3", description=__doc__.rsplit("\n\n", 1)[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, *formats):
        sp.add_argument("--format", choices=("human", "json", *formats), default="human")
        sp.add_argument("-o", "--output", default=None)

    def searched(sp):
        sp.add_argument("--seed", type=int)
        sp.add_argument("--restarts", type=int)
        sp.add_argument("--sweeps", type=int)

    sp = sub.add_parser("info", help="information measures of spec objects")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--input", default=None, help="pmf name for channel MI readouts")
    common(sp)
    sp.set_defaults(fn=cmd_info)

    sp = sub.add_parser("ordering", help="degraded / less-noisy / more-capable checks")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--z", required=True)
    sp.add_argument("--relation", required=True,
                    choices=("degraded", "less_noisy", "more_capable"))
    common(sp)
    searched(sp)
    sp.add_argument("--grid", type=int,
                    help="simplex grid seeds per edge; read only by more_capable "
                         "with |X| <= 3")
    sp.set_defaults(fn=cmd_ordering)

    sp = sub.add_parser(
        "bound", help="evaluate or maximize a scalar rate bound",
        description="Evaluate a scalar rate bound at a factored distribution (--dist), "
                    "or maximize it over the auxiliary simplex. A maximization reports "
                    "'evaluations', the objective evaluations of the search that found "
                    "the maximum, and 'search_evaluations', the total over every search "
                    "it ran; they differ only for theorem1, which searches two admissible "
                    "families. Both count the evaluations of the sequential search. "
                    "'objective_points' is the number of points the objective actually "
                    "evaluated over every search, including the speculative candidates "
                    "of rows that a start left early.",
    )
    sp.add_argument("--spec", required=True)
    # bounds.bound_ids(), written out so that parsing loads no bounds engine
    sp.add_argument("--id", required=True,
                    choices=("wiretap", "ck_extension", "corollary1", "theorem1"))
    sp.add_argument("--y1", required=True)
    sp.add_argument("--y2", required=True)
    sp.add_argument("--z", required=True)
    sp.add_argument("--dist", default=None, help="evaluate at this factored dist")
    sp.add_argument("--card", action="append", help="aux cardinality NAME=K")
    common(sp)
    searched(sp)
    sp.set_defaults(fn=cmd_bound)

    sp = sub.add_parser("region", help="sample a rate region at a distribution")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--id", required=True,
                    choices=("theorem2", "prop1", "prop2-inner", "prop3-outer"))
    sp.add_argument("--dist", required=True)
    sp.add_argument("--y1", default=None)
    sp.add_argument("--y2", default=None)
    sp.add_argument("--z", default=None)
    sp.add_argument("--y1z3", default=None, help="joint X -> (Y1, Z3) channel name")
    sp.add_argument("--z2", default=None, help="Y1 -> Z2 channel name")
    sp.add_argument("--point", default=None, help="membership test, e.g. R0=0.1,R1=0.2")
    common(sp)
    sp.set_defaults(fn=cmd_region)

    sp = sub.add_parser("fme", help="eliminate / reduce / compare inequality systems")
    sp.add_argument("--system", default=None)
    sp.add_argument("--eliminate", default=None, help="comma-separated variables")
    sp.add_argument("--reduce", action="store_true", default=None)
    sp.add_argument("--compare", default=None)
    sp.add_argument("--fixture", default=None, choices=fixture_runs.fixture_names())
    common(sp)
    sp.set_defaults(fn=cmd_fme)

    sp = sub.add_parser("simulate", help="run a coding experiment from a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--seed", type=int, default=None)
    common(sp, "csv")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser(
        "repro-example", help="reproduce the worked example end to end",
        description="Reproduce the worked example: the 5/6 achievability leg and the "
                    "search for the classical-extension upper bound. The JSON report's "
                    "'evaluations' counts the evaluations of the sequential search; "
                    "'objective_points' counts the points the objective actually "
                    "evaluated, including the speculative candidates of rows that a "
                    "start left early. The zero-leakage identity trace counts only the "
                    "points of the sequential search.",
    )
    sp.add_argument("--q2-card", type=int)
    sp.add_argument("--v2-card", type=int)
    sp.add_argument("--export-channel", default=None,
                    help="also write the example channel as a spec file")
    common(sp)
    searched(sp)
    sp.set_defaults(fn=cmd_repro_example)
    return p


# built at the first ``main`` call, then reused: parse_args keeps no state
_parser = functools.cache(build_parser)


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()   # a closed stdout raises here, not in the flush at exit
        return code
    except BrokenPipeError:   # the reader is gone: drop what is left, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    # CliError, a bad JSON config and every validation error class of the
    # program (ChannelSpecError, DistributionError, PatternError, ...) are
    # ValueErrors; a search that met no admissible point and a simulation
    # over a configured cap raise RuntimeErrors, the latter its own status
    except (FileNotFoundError, KeyError, ValueError, RuntimeError) as e:
        code = EXIT_VALIDATION
        if isinstance(e, RuntimeError):
            from .optim import NoAdmissiblePointError
            from .simulate import CapExceededError
            if isinstance(e, CapExceededError):
                code = EXIT_CAP
            elif not isinstance(e, NoAdmissiblePointError):
                raise
        print(f"error: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
