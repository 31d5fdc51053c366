"""CLI surface: exit codes, round trips, and the deterministic contract."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wiretap3 import bounds, cli, fixture_runs, fme, optim, orderings
from wiretap3.cli import build_parser, main
from wiretap3.optim import SearchBudget
from wiretap3.probability import AxisError, DistributionError
from wiretap3.simulate import CapExceededError
from wiretap3.specfmt import ChannelSpecError, parse_spec, write_spec

SPEC = """
alphabet X 2
alphabet Y 2
alphabet Z 2
alphabet Q 1
alphabet V 2

pmf unif : X
1/2 1/2
pmf pq : Q
1

channel y1 : X -> Y
9/10 1/10
1/10 9/10
channel y2 : X -> Y
9/10 1/10
1/10 9/10
channel z : X -> Z
4/5 1/5
1/5 4/5
channel pvq : Q -> V
1/2 1/2
channel pxv : V -> X
1 0
0 1

factored d ck
factor Q | = pq
factor V | Q = pvq
factor X | V = pxv
end
"""


@pytest.fixture
def spec_file(tmp_path: Path) -> Path:
    p = tmp_path / "chan.chan"
    p.write_text(SPEC)
    return p


class TestExitCodes:
    def test_ok(self, spec_file, capsys):
        assert main(["info", "--spec", str(spec_file)]) == 0

    def test_validation_error_on_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.chan"
        bad.write_text("alphabet X 2\nchannel W : X -> X\n0.5 0.6\n0.5 0.5\n")
        assert main(["info", "--spec", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["info", "--spec", "/nonexistent.chan"]) == 1

    def test_unknown_input_pmf_is_error(self, spec_file, capsys):
        # as an unknown channel name is: exit 1 with the name, no silent skip
        assert main(["info", "--spec", str(spec_file), "--input", "pxx"]) == 1
        assert "error: 'pxx'" in capsys.readouterr().err
        assert main(["info", "--spec", str(spec_file), "--input", "unif"]) == 0
        assert "I(X;Y) = " in capsys.readouterr().out

    def test_missing_seed_is_error(self, spec_file, capsys):
        rc = main([
            "bound", "--spec", str(spec_file), "--id", "wiretap",
            "--y1", "y1", "--y2", "y2", "--z", "z",
        ])
        assert rc == 1
        assert "--seed" in capsys.readouterr().err

    def test_malformed_inequality_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.ineq"
        bad.write_text("vars x\nx ?? 2\n")
        assert main(["fme", "--system", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_malformed_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad), "--seed", "1"]) == 1

    def test_unknown_eliminate_variable(self, tmp_path, capsys):
        f = tmp_path / "s.ineq"
        f.write_text("vars x\nx <= 1\n")
        assert main(["fme", "--system", str(f), "--eliminate", "zz"]) == 1

    @pytest.mark.parametrize("argv,raiser,error,code", [
        *[(["info", "--spec", "s.chan"], "_load_spec", e, 1) for e in (
            cli.CliError("bad"), ChannelSpecError(2, "bad"), fme.SpecFormatError(2, "bad"),
            DistributionError("bad"), AxisError("bad"), bounds.PatternError("bad"),
            json.JSONDecodeError("bad", "{", 0), FileNotFoundError("bad"), KeyError("bad"),
            ValueError("bad"),
        )],
        # the first name that cmd_simulate looks up
        (["simulate", "--config", "c.json", "--seed", "1"], "_require_seed", ValueError("bad"),
         1),
        (["simulate", "--config", "c.json", "--seed", "1"], "_require_seed",
         CapExceededError("bad"), 2),
        (["info", "--spec", "s.chan"], "_load_spec", BrokenPipeError(), 1),
    ], ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else None)
    def test_error_classes_map_to_exit_codes(self, monkeypatch, capsys, argv, raiser, error,
                                             code):
        def raise_error(*args):
            raise error

        monkeypatch.setattr(cli, raiser, raise_error)
        if isinstance(error, BrokenPipeError):   # main points a closed stdout at devnull
            read, write = os.pipe()
            os.close(read)

            class ClosedStdout:
                def fileno(self):
                    return write

            monkeypatch.setattr(sys, "stdout", ClosedStdout())
        try:
            assert main(argv) == code
        finally:
            if isinstance(error, BrokenPipeError):
                os.close(write)
        err = capsys.readouterr().err
        assert err == ("" if isinstance(error, BrokenPipeError) else f"error: {error}\n")

    def test_bound_ids_match_the_engine(self, capsys):
        # the parser spells the ids out so that it need not import bounds
        parser = build_parser()
        bound = parser._subparsers._group_actions[0].choices["bound"]
        (action,) = [a for a in bound._actions if a.dest == "id"]
        assert tuple(action.choices) == bounds.bound_ids()
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--spec", "s.chan", "--id", "nope", "--y1", "a", "--y2", "b",
                  "--z", "c"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "nope" in err
        assert all(i in err.split("choose from")[1] for i in bounds.bound_ids())

    def test_cap_exceeded_exit_2(self, spec_file, tmp_path, capsys):
        cfg = {
            "scheme": "wiretap-equivocation",
            "spec": str(spec_file),
            "dist": {"pattern": "wiretap", "sizes": {"V": 2, "X": 2},
                     "tables": [[[0.5, 0.5]], [[1, 0], [0, 1]]]},
            "channel": "z",
            "rates": {"message": 0.25, "total": 0.5},
            "n": [16],
            "epsilon": 0.5,
            "trials": 0,
        }
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(cfile), "--seed", "1"]) == 2

    @pytest.mark.parametrize("caps,message", [
        ({"foo": 1}, "unknown caps key(s) foo"),
        ({"max_exact_outputs": -1}, "max_exact_outputs must be an integer >= 1"),
        ({"max_exact_work": 0}, "max_exact_work must be an integer >= 1"),
        ({"max_codebook_entries": 1.5}, "max_codebook_entries must be an integer >= 1"),
        ([4096], "caps must be an object"),
    ])
    def test_bad_caps_are_validation_errors(self, spec_file, tmp_path, caps, message):
        cfg = {
            "scheme": "wiretap-equivocation",
            "spec": str(spec_file),
            "dist": {"pattern": "wiretap", "sizes": {"V": 2, "X": 2},
                     "tables": [[[0.5, 0.5]], [[1, 0], [0, 1]]]},
            "channel": "z",
            "rates": {"message": 0.25, "total": 0.5},
            "n": [4],
            "trials": 0,
            "caps": caps,
        }
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps(cfg))
        out = subprocess.run(
            [sys.executable, "-m", "wiretap3.cli", "simulate", "--config", str(cfile), "--seed", "1"],
            env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
        assert message in out.stderr

    def test_known_caps_are_applied(self, spec_file, tmp_path, capsys):
        cfg = {
            "scheme": "wiretap-equivocation",
            "spec": str(spec_file),
            "dist": {"pattern": "wiretap", "sizes": {"V": 2, "X": 2},
                     "tables": [[[0.5, 0.5]], [[1, 0], [0, 1]]]},
            "channel": "z",
            "rates": {"message": 0.25, "total": 0.5},
            "n": [4],
            "trials": 0,
        }
        cfile = tmp_path / "cfg.json"
        for caps, code in (({"max_exact_outputs": 16}, 0), ({"max_exact_outputs": 15}, 2)):
            cfile.write_text(json.dumps({**cfg, "caps": caps}))
            assert main(["simulate", "--config", str(cfile), "--seed", "1"]) == code
        assert "exceeds cap 15" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme,trials", [("decode", 0), ("decode", -2), ("lemma1", 0),
                                               ("wiretap-equivocation", -1)])
    def test_trials_below_one_is_validation_error(self, spec_file, tmp_path, capsys, scheme, trials):
        cfg = {
            "scheme": scheme,
            "spec": str(spec_file),
            "dist": {"pattern": "wiretap", "sizes": {"V": 2, "X": 2},
                     "tables": [[[0.5, 0.5]], [[1, 0], [0, 1]]]},
            "channel": "y1",
            "rates": {"message": 0.25, "total": 0.5},
            "n": [4],
            "epsilon": 2.0,
            "trials": trials,
        }
        if scheme == "lemma1":
            cfg["dist"] = {"sizes": {"U": 2, "V": 2, "Z": 2}, "chain": [
                {"targets": ["U"], "table": [[0.5, 0.5]]},
                {"targets": ["V"], "given": ["U"], "table": [[0.75, 0.25], [0.25, 0.75]]},
                {"targets": ["Z"], "given": ["V"], "table": [[0.75, 0.25], [0.25, 0.75]]},
            ]}
            cfg["s_rate"] = 0.5
            del cfg["channel"], cfg["rates"]   # lemma1 reads neither
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(cfile), "--seed", "1"]) == 1
        assert "trials must be >= 1" in capsys.readouterr().err

    def test_unknown_auxiliary_cardinality(self, spec_file, capsys):
        for card in ("X=9", "Vee=3"):
            rc = main([
                "bound", "--spec", str(spec_file), "--id", "ck_extension",
                "--y1", "y1", "--y2", "y2", "--z", "z", "--seed", "1",
                "--restarts", "1", "--card", "V=2", "--card", card,
            ])
            assert rc == 1
            assert card.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["bound", "--id", "ck_extension", "--restarts", "-1"], "restarts must be >= 0, got -1"),
        (["bound", "--id", "ck_extension", "--sweeps", "-1"], "refine_sweeps must be >= 0, got -1"),
        (["ordering", "--y", "z", "--z", "y1", "--relation", "more_capable", "--grid", "0"],
         "grid_points must be >= 1, got 0"),
        (["repro-example", "--restarts", "0"], "no admissible point found in 0 restarts"),
    ])
    def test_out_of_range_search_budgets(self, spec_file, capsys, argv, message):
        if argv[0] == "bound":
            argv = argv + ["--y1", "y1", "--y2", "y2", "--z", "z"]
        if argv[0] != "repro-example":
            argv = argv + ["--spec", str(spec_file)]
        assert main(argv + ["--seed", "1"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (["ordering", "--y", "y1", "--z", "z", "--relation", "degraded", "--seed", "4",
          "--restarts", "9", "--grid", "3"],
         "--seed, --restarts, --grid not read: degradedness is decided by one exact LP"),
        (["ordering", "--y", "y1", "--z", "z", "--relation", "degraded", "--sweeps", "0"],
         "--sweeps not read: degradedness is decided by one exact LP"),
        (["fme", "--fixture", "theorem1", "--reduce", "--compare", "nonexist"],
         "--reduce, --compare not read: --fixture runs its own systems"),
        (["fme", "--fixture", "theorem1", "--system", "s.ineq", "--eliminate", "T1"],
         "--system, --eliminate not read: --fixture runs its own systems"),
    ])
    def test_options_a_mode_never_reads_are_validation_errors(self, spec_file, capsys, argv,
                                                               message):
        # each was once accepted with exit 0 and never read
        if argv[0] == "ordering":
            argv = argv + ["--spec", str(spec_file)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("card", ["V", "V=x", "=2"])
    def test_malformed_card_names_the_flag(self, spec_file, capsys, card):
        rc = main([
            "bound", "--spec", str(spec_file), "--id", "ck_extension",
            "--y1", "y1", "--y2", "y2", "--z", "z", "--seed", "1", "--card", card,
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: --card {card!r}: expected NAME=int\n"

    @pytest.mark.parametrize("region_id,given,missing", [
        ("prop1", [], "--y1, --y2, --z"),
        ("theorem2", ["--y1", "y1", "--z", "z"], "--y2"),
    ])
    def test_broadcast_region_names_missing_flags(self, spec_file, capsys, region_id, given,
                                                  missing):
        rc = main(["region", "--spec", str(spec_file), "--id", region_id, "--dist", "d", *given])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {region_id} regions need {missing}\n"

    BROADCAST_FLAGS = ["--y1", "y1", "--y2", "y2", "--z", "z"]
    MULTILEVEL_FLAGS = ["--y1z3", "w", "--z2", "v"]

    @pytest.mark.parametrize("region_id,given,message", [
        ("prop3-outer", ["--y1z3", "w"], "prop3-outer regions need --z2"),
        ("theorem2", BROADCAST_FLAGS + ["--y1z3", "w"],
         "--y1z3 not read: theorem2 regions read only --y1, --y2, --z"),
        ("prop1", BROADCAST_FLAGS + MULTILEVEL_FLAGS,
         "--y1z3, --z2 not read: prop1 regions read only --y1, --y2, --z"),
        ("prop2-inner", MULTILEVEL_FLAGS + BROADCAST_FLAGS,
         "--y1, --y2, --z not read: prop2-inner regions read only --y1z3, --z2"),
        ("prop3-outer", MULTILEVEL_FLAGS + ["--z", "nonexist"],
         "--z not read: prop3-outer regions read only --y1z3, --z2"),
    ])
    def test_region_reads_only_its_familys_channels(self, spec_file, capsys, region_id, given,
                                                    message):
        # a refused flag was once accepted and never read, even naming a channel the spec lacks
        rc = main(["region", "--spec", str(spec_file), "--id", region_id, "--dist", "d", *given])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "c.json", "--seed", "1", "--restarts", "4"],
        ["simulate", "--config", "c.json", "--seed", "1", "--sweeps", "4"],
        ["simulate", "--config", "c.json", "--seed", "1", "--grid", "4"],
        ["bound", "--spec", "s", "--id", "wiretap", "--y1", "a", "--y2", "b", "--z", "c",
         "--grid", "4"],
        ["repro-example", "--seed", "1", "--grid", "4"],
        ["info", "--spec", "s", "--format", "csv"],
        ["region", "--spec", "s", "--id", "prop1", "--dist", "d", "--format", "csv"],
        ["fme", "--fixture", "theorem1", "--format", "csv"],
        ["ordering", "--spec", "s", "--y", "a", "--z", "b", "--relation", "degraded",
         "--format", "csv"],
    ])
    def test_options_a_subcommand_never_reads_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["region", "--spec", "s", "--id", "nope", "--dist", "d"],
        ["ordering", "--spec", "s", "--y", "a", "--z", "b", "--relation", "nope"],
    ])
    def test_unknown_choices_are_rejected_before_any_handler(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_search_options_kept_where_read(self):
        p = build_parser()
        args = p.parse_args(["ordering", "--spec", "s", "--y", "a", "--z", "b",
                             "--relation", "more_capable", "--grid", "4", "--restarts", "3"])
        assert (args.grid, args.restarts) == (4, 3)
        args = p.parse_args(["repro-example", "--seed", "1", "--restarts", "2", "--sweeps", "5"])
        assert (args.restarts, args.sweeps) == (2, 5)
        args = p.parse_args(["simulate", "--config", "c.json", "--format", "csv"])
        assert args.format == "csv"

    @pytest.mark.parametrize("argv", [
        ["ordering", "--spec", "s", "--y", "a", "--z", "b", "--relation", "more_capable"],
        ["ordering", "--spec", "s", "--y", "a", "--z", "b", "--relation", "less_noisy"],
        ["bound", "--spec", "s", "--id", "wiretap", "--y1", "a", "--y2", "b", "--z", "c"],
        ["repro-example"],
    ])
    def test_budget_without_search_flags_is_the_default(self, argv):
        # SearchBudget alone states the defaults: the parser leaves every unset option None
        args = build_parser().parse_args(argv + ["--seed", "5"])
        assert cli._budget(args) == SearchBudget(seed=5)
        given = build_parser().parse_args(argv + ["--seed", "5", "--restarts", "3",
                                                  "--sweeps", "2"])
        assert cli._budget(given) == SearchBudget(restarts=3, seed=5, refine_sweeps=2)


TERNARY = """
alphabet X 3
alphabet Y 3
channel a : X -> Y
4/5 1/10 1/10
1/10 4/5 1/10
1/10 1/10 4/5
channel b : X -> Y
1 0 0
0 1 0
0 1 0
"""


class TestOrderingGrid:
    """``--grid`` seeds only more_capable at |X| <= 3; less_noisy and larger inputs refuse it."""

    def _seeds(self, monkeypatch, capsys, argv):
        seen = []
        real = optim.search_factored  # not a wrapper left by an earlier call of this test

        def recording(*args, extra_starts=(), **kwargs):
            seen.append(len(extra_starts))
            return real(*args, extra_starts=extra_starts, **kwargs)

        monkeypatch.setattr(orderings, "search_factored", recording)
        argv = argv + ["--seed", "1", "--restarts", "1", "--sweeps", "1", "--format", "json"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["holds"] != "true"  # degradedness did not short-cut
        return seen, out

    @pytest.mark.parametrize("relation, extra, seeds", [
        ("more_capable", ["--grid", "4"], [5]),       # |X| = 2
        ("less_noisy", ["--z", "y2"], [0]),           # 2 x 2 cells against a copy of y1
        ("less_noisy", [], [0]),                      # 2 x 2 cells: no grid
    ])
    def test_binary_input(self, spec_file, monkeypatch, capsys, relation, extra, seeds):
        argv = ["ordering", "--spec", str(spec_file), "--y", "z", "--z", "y1",
                "--relation", relation] + extra
        assert self._seeds(monkeypatch, capsys, argv)[0] == seeds

    def test_ternary_input(self, tmp_path, monkeypatch, capsys):
        spec = tmp_path / "ternary.chan"
        spec.write_text(TERNARY)
        base = ["ordering", "--spec", str(spec), "--y", "a", "--z", "b",
                "--relation", "more_capable"]
        for grid, seeds in (("4", 15), ("40", 861)):  # 3 cells
            assert self._seeds(monkeypatch, capsys, base + ["--grid", grid])[0] == [seeds]

    def test_more_capable_rejects_grid_above_three_inputs(self, capsys):
        argv = ["ordering", "--spec", ML_SPEC, "--y", "to_y2", "--z", "to_y1",
                "--relation", "more_capable", "--seed", "1", "--grid", "20"]   # |X| = 4
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --grid not read: the grid seeds only more_capable with |X| <= 3\n")

    def test_less_noisy_rejects_grid(self, spec_file, capsys):
        argv = ["ordering", "--spec", str(spec_file), "--y", "z", "--z", "y1",
                "--relation", "less_noisy", "--seed", "1", "--grid", "4"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --grid not read: the grid seeds only more_capable with |X| <= 3\n")


class TestRoundTrip:
    def test_spec_write_read_identical_values(self, spec_file):
        doc = parse_spec(spec_file.read_text())
        again = parse_spec(write_spec(doc))
        for name in doc.channels:
            assert np.array_equal(again.channel(name).matrix, doc.channel(name).matrix)
        for name in doc.factored:
            assert np.allclose(
                again.factored[name].realization.tensor,
                doc.factored[name].realization.tensor,
                atol=0,
            )


class TestParserReuse:
    def test_successive_calls_match_fresh_parsers(self, spec_file, monkeypatch, capsys):
        # main builds its parser once; options and defaults of one call must
        # not reach the next, whatever the subcommands
        spec = str(spec_file)
        bound = ["bound", "--spec", spec, "--y1", "y1", "--y2", "y2", "--z", "z"]
        calls = [
            bound + ["--id", "wiretap", "--card", "V=3", "--seed", "3", "--restarts", "2",
                     "--sweeps", "4", "--format", "json"],
            bound + ["--id", "ck_extension", "--seed", "3", "--restarts", "1", "--sweeps", "3"],
            ["info", "--spec", spec, "--input", "unif", "--format", "json"],
            ["info", "--spec", spec],
            bound + ["--id", "wiretap", "--dist", "d", "--format", "json"],
            ["repro-example", "--seed", "2", "--restarts", "2", "--sweeps", "2"],
            bound + ["--id", "wiretap", "--card", "V=2", "--seed", "4", "--restarts", "1"],
        ]

        def reports():
            out = []
            for argv in calls:
                assert main(argv) == 0
                out.append(capsys.readouterr().out)
            return out

        cached = cli._parser
        reused = reports()
        for argv in calls:
            assert vars(cached().parse_args(argv)) == vars(build_parser().parse_args(argv))
        monkeypatch.setattr(cli, "_parser", build_parser)  # a fresh parser per call
        assert reports() == reused


class TestBoundCommand:
    def test_evaluate_at_dist(self, spec_file, capsys):
        rc = main([
            "bound", "--spec", str(spec_file), "--id", "wiretap",
            "--y1", "y1", "--y2", "y2", "--z", "z", "--dist", "d",
            "--format", "json",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(0.252932, abs=1e-6)

    def test_card_with_dist_is_validation_error(self, spec_file, capsys):
        # --dist fixes every cardinality; --card was once ignored with exit 0
        rc = main([
            "bound", "--spec", str(spec_file), "--id", "wiretap",
            "--y1", "y1", "--y2", "y2", "--z", "z", "--dist", "d", "--card", "V=5",
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --card sets a maximization's cardinalities; --dist fixes them\n")

    @pytest.mark.parametrize("given", [["--seed", "1"], ["--restarts", "0", "--sweeps", "3"],
                                       ["--sweeps", "2", "--seed", "0", "--restarts", "5"]])
    def test_search_options_with_dist_are_validation_errors(self, spec_file, capsys, given):
        # --dist runs no search; --seed, --restarts and --sweeps were once ignored with exit 0
        rc = main([
            "bound", "--spec", str(spec_file), "--id", "wiretap",
            "--y1", "y1", "--y2", "y2", "--z", "z", "--dist", "d", *given,
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        flags = ", ".join(f for f in ("--seed", "--restarts", "--sweeps") if f in given)
        assert captured.err == (
            f"error: {flags} not read: --dist evaluates the bound, with no search\n")

    def test_maximize_meets_grid_oracle(self, spec_file, capsys):
        rc = main([
            "bound", "--spec", str(spec_file), "--id", "wiretap",
            "--y1", "y1", "--y2", "y2", "--z", "z",
            "--seed", "3", "--restarts", "6", "--card", "V=2",
            "--format", "json",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] >= 0.2519

    def test_deterministic_given_seed(self, spec_file, capsys):
        argv = [
            "bound", "--spec", str(spec_file), "--id", "ck_extension",
            "--y1", "y1", "--y2", "y2", "--z", "z",
            "--seed", "5", "--restarts", "4", "--format", "json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_reports_evaluations_of_every_search(self, tmp_path, capsys):
        spec = tmp_path / "bsc.chan"
        spec.write_text(
            "alphabet X 2\nalphabet Y 2\n"
            "channel y1 : X -> Y\n9/10 1/10\n1/10 9/10\n"
            "channel y2 : X -> Y\n22/25 3/25\n3/25 22/25\n"
            "channel z : X -> Y\n3/4 1/4\n1/4 3/4\n"
        )
        argv = [
            "bound", "--spec", str(spec), "--id", "theorem1",
            "--y1", "y1", "--y2", "y2", "--z", "z", "--seed", "1", "--restarts", "2",
            "--sweeps", "5", "--card", "Q=1", "--card", "V0=2", "--card", "V1=2",
            "--card", "V2=2", "--format", "json",
        ]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        # the two admissible family searches took 502 and 501 evaluations
        assert (out["evaluations"], out["search_evaluations"]) == (502, 1003)
        # speculative rows evaluate every logical point once, plus some more
        assert type(out["objective_points"]) is int
        assert out["objective_points"] > out["search_evaluations"]
        with pytest.raises(SystemExit):
            main(["bound", "-h"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "'search_evaluations', the total" in help_text
        assert "'objective_points' is the number of points" in help_text


class TestRegionCommand:
    def test_theorem2_membership(self, spec_file, capsys):
        # V0=V1=V2 collapse pattern via inline spec is heavy; use prop1
        rc = main([
            "region", "--spec", str(spec_file), "--id", "prop1",
            "--dist", "d", "--y1", "y1", "--y2", "y2", "--z", "z",
            "--point", "R0=0.0,R1=0.01,Re=0.0", "--format", "json",
        ])
        # dist 'd' is a ck-pattern; prop1 needs (U,X) — expect exit 1
        assert rc == 1

    @pytest.fixture
    def prop1_spec(self, tmp_path) -> Path:
        text = SPEC + """
factored p1 prop1
factor U | = pq2
factor X | U = pxu
end
"""
        text = text.replace("pmf pq : Q\n1\n", "pmf pq : Q\n1\npmf pq2 : U\n1/2 1/2\n")
        text = text.replace(
            "alphabet V 2\n",
            "alphabet V 2\nalphabet U 2\n",
        )
        text += "\nchannel pxu : U -> X\n9/10 1/10\n1/5 4/5\n"
        # channel must be declared before the factored block that uses it
        text = text.replace(
            "factored p1 prop1",
            "channel pxu2 : U -> X\n9/10 1/10\n1/5 4/5\nfactored p1 prop1",
        ).replace("factor X | U = pxu\n", "factor X | U = pxu2\n")
        f = tmp_path / "ml.chan"
        f.write_text(text)
        return f

    def test_prop1_with_matching_dist(self, prop1_spec, capsys):
        rc = main([
            "region", "--spec", str(prop1_spec), "--id", "prop1",
            "--dist", "p1", "--y1", "y1", "--y2", "y2", "--z", "z",
            "--point", "R0=0.0,R1=0.01,Re=0.0", "--format", "json",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["contains_point"] is True

    @pytest.mark.parametrize("point", ["R0", "R0=0.1,R1=x"])
    def test_malformed_point_names_the_flag(self, prop1_spec, capsys, point):
        rc = main([
            "region", "--spec", str(prop1_spec), "--id", "prop1",
            "--dist", "p1", "--y1", "y1", "--y2", "y2", "--z", "z", "--point", point,
        ])
        assert rc == 1
        item = point.split(",")[-1]
        assert capsys.readouterr().err == f"error: --point {item!r}: expected NAME=float\n"


class TestFmeCommand:
    def test_fixture_pass(self, capsys):
        assert main(["fme", "--fixture", "theorem1", "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True

    def test_system_eliminate_and_compare(self, tmp_path, capsys):
        f = tmp_path / "s.ineq"
        f.write_text("vars x y\nx + y <= 2\n-x <= 0\ny >= 0\n")
        g = tmp_path / "expected.ineq"
        g.write_text("vars y\ny <= 2\n-y <= 0\n")
        rc = main([
            "fme", "--system", str(f), "--eliminate", "x",
            "--compare", str(g), "--format", "json",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["region_equal"] is True

    @pytest.mark.parametrize("line", [
        "R <= 2 I(A)", "R S <= I(A) I(B)", "R <= 1 -", "R <= 1 <= 2", "R <=", "R <= 1/0",
        "bind I(A) = 1/0",
    ])
    def test_misread_lines_exit_1(self, tmp_path, capsys, line):
        f = tmp_path / "s.ineq"
        f.write_text(f"vars R S\n{line}\n")
        assert main(["fme", "--system", str(f)]) == 1
        assert capsys.readouterr().err.startswith("error: line 2: ")

    def test_reduce_substitutes_bind_lines(self, tmp_path, capsys):
        f = tmp_path / "s.ineq"
        f.write_text("vars x\nbind I(A) = 2\nx <= I(A)\nx <= 3\n")
        assert main(["fme", "--system", str(f), "--reduce", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["system"] == "vars x\nbind I(A) = 2\nx <= 2\n"

    @pytest.mark.parametrize("fmt", ["json", "human"])
    def test_closed_stdout_exits_without_traceback(self, fmt):
        # as ``wiretap3 fme ... | head -c 100`` does once head has exited
        read, write = os.pipe()
        os.close(read)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "wiretap3.cli", "fme", "--fixture", "rate_split",
                 "--format", fmt],
                env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
                     "PATH": "/usr/bin:/bin"},
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(write)
        assert out.stderr == ""
        assert out.returncode == 1


REPO_EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
LEAKAGE_TREND = json.loads((REPO_EXAMPLES / "leakage_trend.json").read_text())
CONCENTRATION = json.loads((REPO_EXAMPLES / "concentration.json").read_text())
INDIRECT_DECODE = json.loads((REPO_EXAMPLES / "indirect_decode.json").read_text())
MARTON = {
    "scheme": "marton-equivocation",
    "dist": {"pattern": "theorem1", "sizes": {"Q": 1, "V0": 2, "V1": 2, "V2": 2, "X": 2},
             "tables": [[[1.0]], [[0.45, 0.55]],
                        [[0.42, 0.18, 0.28, 0.12], [0.12, 0.28, 0.18, 0.42]],
                        [[0.85, 0.15]] * 2 + [[0.2, 0.8]] * 2
                        + [[0.7, 0.3]] * 2 + [[0.35, 0.65]] * 2]},
    "channel": {"matrix": [[0.8, 0.2], [0.2, 0.8]]},
    "rates": {"message": 0.25, "total": 0.5, "t1": 0.5, "t2": 0.5, "b1": 0.25, "b2": 0.25},
    "n": [4], "epsilon": 8.0,
}


class TestSimulateCommand:
    @pytest.mark.parametrize("config,fmt,message", [
        ({**LEAKAGE_TREND, "n": []}, "csv", "config n must be a blocklength or a non-empty list"),
        ({**LEAKAGE_TREND, "n": []}, "human", "config n must be a blocklength or a non-empty list"),
        ({**LEAKAGE_TREND, "n": 4.5}, "human", "blocklength n must be an integer, got 4.5"),
        ({**LEAKAGE_TREND, "n": "4"}, "human", "blocklength n must be an integer, got '4'"),
        ({**LEAKAGE_TREND, "n": True}, "human", "blocklength n must be an integer, got True"),
        ({**LEAKAGE_TREND, "n": [2, "4"]}, "json", "blocklength n must be an integer, got '4'"),
        ({**LEAKAGE_TREND, "trials": 2.5}, "human", "trials must be an integer, got 2.5"),
        ({**LEAKAGE_TREND, "epsilon": "0.5"}, "human", "epsilon must be a real number, got '0.5'"),
        ({**CONCENTRATION, "delta": "0.05"}, "human", "delta must be a real number, got '0.05'"),
        ({**CONCENTRATION, "delta1": None}, "human", "delta1 must be a real number, got None"),
        ({**LEAKAGE_TREND, "rates": {"message": "0.2", "total": 1.4}}, "human",
         "rates must be real numbers, got '0.2'"),
        ({**CONCENTRATION, "s_rate": "0.4"}, "human", "rates must be real numbers, got '0.4'"),
    ])
    def test_mistyped_config_is_validation_error(self, tmp_path, capsys, config, fmt, message):
        # an uncaught TypeError or IndexError would escape main with a traceback
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(cfile), "--seed", "1", "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("config,message", [
        ({**LEAKAGE_TREND, "trails": 7}, "unknown config key(s) trails; known: scheme, spec,"),
        ({**LEAKAGE_TREND, "rates": {"message": 0.2023, "total": float("inf")}},
         "rates must be finite, got inf"),
        ({**LEAKAGE_TREND, "rates": {**LEAKAGE_TREND["rates"], "satelite": 0.25}},
         "unknown rates key(s) satelite; known: message, total, satellite"),
        ({**INDIRECT_DECODE, "spec": str(REPO_EXAMPLES / "multilevel_product.chan"),
          "epsilon": float("nan")}, "epsilon must be finite, got nan"),
        ([LEAKAGE_TREND], "config must be an object"),
        ({**LEAKAGE_TREND, "rates": [0.2023, 1.4]}, "rates must be an object"),
        ({**LEAKAGE_TREND, "channel": {"matrx": [[1, 0], [0, 1]]}},
         "unknown channel key(s) matrx; known: matrix"),
        ({**LEAKAGE_TREND, "channel": {**LEAKAGE_TREND["channel"], "noise": 0.1}},
         "unknown channel key(s) noise; known: matrix"),
        ({**LEAKAGE_TREND, "channel": [[1, 0], [0, 1]]}, "channel must be an object"),
        ({**LEAKAGE_TREND, "dist": {**LEAKAGE_TREND["dist"], "table": []}},
         "unknown dist key(s) table; known: pattern, sizes, tables"),
        ({**CONCENTRATION, "dist": {**CONCENTRATION["dist"], "pattern": "wiretap"}},
         "unknown dist key(s) chain; known: pattern, sizes, tables"),
        ({**CONCENTRATION, "dist": {**CONCENTRATION["dist"], "size": {"U": 2}}},
         "unknown dist key(s) size; known: sizes, chain"),
        ({**CONCENTRATION, "dist": {**CONCENTRATION["dist"], "chain": [
            {**CONCENTRATION["dist"]["chain"][0], "targets": ["U"], "tabel": [[0.5, 0.5]]},
            *CONCENTRATION["dist"]["chain"][1:]]}},
         "unknown dist chain factor key(s) tabel; known: targets, given, table"),
        ({**CONCENTRATION, "dist": {**CONCENTRATION["dist"], "chain": [[["U"], [], [[1.0]]]]}},
         "dist chain factor must be an object"),
        ({**CONCENTRATION, "dist": {**CONCENTRATION["dist"], "chain": 5}},
         "dist chain must be a list of factors"),
        ({**INDIRECT_DECODE, "spec": str(REPO_EXAMPLES / "multilevel_product.chan"),
          "dist": {"factored": "d", "pattern": "wiretap"}},
         "unknown dist key(s) pattern; known: factored"),
    ])
    def test_unaccepted_config_is_validation_error(self, tmp_path, capsys, config, message):
        # each once ran with exit 0, or escaped main with a traceback
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(cfile), "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("config,key", [
        ({**LEAKAGE_TREND, "s_rate": 0.5}, "s_rate"),
        ({**LEAKAGE_TREND, "decoder": "direct"}, "decoder"),
        ({**LEAKAGE_TREND, "scheme": "marton-equivocation"}, "trials"),
        ({**LEAKAGE_TREND, "scheme": "marton-equivocation", "trials": None,
          "decoder": "direct"}, "decoder, trials"),
        ({**CONCENTRATION, "channel": {"matrix": [[1, 0], [0, 1]]}}, "channel"),
        ({**CONCENTRATION, "rates": {"message": 0.25, "total": 0.5}}, "rates"),
        ({**CONCENTRATION, "decoder": "direct"}, "decoder"),
        ({**INDIRECT_DECODE, "s_rate": 0.5}, "s_rate"),
        # only lemma1 reads the concentration dials delta and delta1
        ({**INDIRECT_DECODE, "delta": 0.3, "delta1": 7}, "delta, delta1"),
        ({**LEAKAGE_TREND, "delta": 0.3, "delta1": 7}, "delta, delta1"),
        ({**LEAKAGE_TREND, "scheme": "marton-equivocation", "trials": None, "delta": 0.3},
         "delta, trials"),
    ])
    def test_key_its_scheme_never_reads_is_validation_error(self, tmp_path, capsys, config, key):
        # each ran with exit 0 and the key ignored while one key list served every scheme
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(cfile), "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: unknown config key(s) {key}; known: scheme, ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("config,message", [
        ({**LEAKAGE_TREND, "scheme": "lemma2", "trails": 7}, "unknown scheme 'lemma2'"),
        ({**LEAKAGE_TREND, "scheme": ["decode"]}, "unknown scheme ['decode']"),
    ])
    def test_unknown_scheme_is_reported_before_its_keys(self, tmp_path, capsys, config, message):
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(cfile), "--seed", "1"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("config,name", [
        ({**INDIRECT_DECODE, "epsilon": 10**400}, "epsilon"),
        ({**INDIRECT_DECODE, "n": 10**400}, "blocklength n"),
        ({**INDIRECT_DECODE, "rates": {**INDIRECT_DECODE["rates"], "total": 10**400}}, "rates"),
        ({**LEAKAGE_TREND, "rates": {"message": 10**400, "total": 1.4}}, "rates"),
        ({**CONCENTRATION, "delta": 10**400}, "delta"),
        ({**CONCENTRATION, "s_rate": 10**400}, "rates"),
        ({**CONCENTRATION, "trials": 10**400}, "trials"),
    ])
    def test_int_too_large_for_a_float_is_validation_error(self, tmp_path, capsys, config, name):
        # each escaped main with OverflowError: int too large to convert to float
        if config.get("spec"):
            config = {**config, "spec": str(REPO_EXAMPLES / config["spec"])}
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(cfile), "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name} must be finite, got {10**400}\n"

    @pytest.mark.parametrize("config,what,key", [
        ({k: v for k, v in LEAKAGE_TREND.items() if k != "scheme"}, "config", "scheme"),
        ({k: v for k, v in LEAKAGE_TREND.items() if k != "n"}, "config", "n"),
        ({k: v for k, v in LEAKAGE_TREND.items() if k != "dist"}, "config", "dist"),
        ({k: v for k, v in LEAKAGE_TREND.items() if k != "rates"}, "config", "rates"),
        ({k: v for k, v in LEAKAGE_TREND.items() if k != "channel"}, "config", "channel"),
        ({k: v for k, v in CONCENTRATION.items() if k != "s_rate"}, "config", "s_rate"),
        ({**LEAKAGE_TREND, "rates": {"total": 1.4}}, "rates", "message"),
        ({**LEAKAGE_TREND, "channel": {}}, "channel", "matrix"),
        ({**LEAKAGE_TREND, "dist": {"pattern": "wiretap", "sizes": {"V": 2, "X": 2}}},
         "dist", "tables"),
        ({**LEAKAGE_TREND, "dist": {"pattern": "wiretap"}}, "dist", "sizes"),
        ({**CONCENTRATION, "dist": {"chain": CONCENTRATION["dist"]["chain"]}}, "dist", "sizes"),
        ({**CONCENTRATION, "dist": {**CONCENTRATION["dist"], "chain": [
            {"given": [], "table": [[0.5, 0.5]]}, *CONCENTRATION["dist"]["chain"][1:]]}},
         "dist chain factor", "targets"),
        ({**CONCENTRATION, "dist": {**CONCENTRATION["dist"], "chain": [
            {"targets": ["U"]}, *CONCENTRATION["dist"]["chain"][1:]]}},
         "dist chain factor", "table"),
        ({**CONCENTRATION, "dist": {**CONCENTRATION["dist"], "sizes": {"U": 2, "V": 2}}},
         "dist sizes", "Z"),
    ])
    def test_missing_key_is_named(self, tmp_path, capsys, config, what, key):
        # each printed only the KeyError's repr, such as "error: 'scheme'"
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(cfile), "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {what} is missing key {key!r}\n"

    @pytest.mark.parametrize("config", [
        {**LEAKAGE_TREND, "rates": {**LEAKAGE_TREND["rates"], "total": 1e300}},
        {**LEAKAGE_TREND, "rates": {**LEAKAGE_TREND["rates"], "satellite": 1e300}},
        {**LEAKAGE_TREND, "rates": {**LEAKAGE_TREND["rates"], "total": 1e308}},
        {**LEAKAGE_TREND, "rates": {**LEAKAGE_TREND["rates"], "total": 1e8}},
        {**MARTON, "rates": {**MARTON["rates"], "total": 1e300}},
        {**MARTON, "rates": {**MARTON["rates"], "t1": 1e300}},
        {**CONCENTRATION, "s_rate": 1e300},
        {**CONCENTRATION, "s_rate": 1e308},
    ], ids=["total", "satellite", "total_overflows_float", "total_1e8", "marton_total",
            "marton_t1", "s_rate", "s_rate_overflows_float"])
    def test_huge_finite_rate_is_cap_error(self, tmp_path, capsys, config):
        # each escaped main with an OverflowError from 1 << k or from int(inf), or (1e8,
        # k = 2 * 10**8) built that integer and failed to print its digits
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(cfile), "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(
            r"error: (codebook|lemma1 experiment) size is at least 2\^\d+ > cap \d+\n", captured.err)

    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_output_file_holds_the_printed_bytes(self, tmp_path, capsys, fmt):
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps({**LEAKAGE_TREND, "n": [2, 4]}))
        argv = ["simulate", "--config", str(cfile), "--seed", "3", "--format", fmt]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        report = tmp_path / "report.txt"
        assert main(argv + ["-o", str(report)]) == 0
        assert capsys.readouterr().out == ""
        assert report.read_bytes() == printed.encode()

    def test_csv_rows(self, spec_file, tmp_path, capsys):
        cfg = {
            "scheme": "wiretap-equivocation",
            "spec": str(spec_file),
            "dist": {"factored": "d"},
            "channel": "z",
            "rates": {"message": 0.25, "total": 0.75},
            "n": [2, 4],
            "epsilon": 0.5,
            "trials": 0,
        }
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps(cfg))
        rc = main(["simulate", "--config", str(cfile), "--seed", "9", "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("n,")
        assert len(lines) == 3


class TestReproExample:
    def test_small_budget_smoke(self, capsys):
        rc = main(["repro-example", "--seed", "2", "--restarts", "2", "--format", "json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["achievable"] - 5 / 6) < 1e-10
        assert out["rck_best"] < 5 / 6 - 1e-3

    def test_reports_objective_points(self, capsys):
        argv = ["repro-example", "--seed", "46", "--restarts", "32", "--sweeps", "10"]
        assert main(argv + ["--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert type(out["evaluations"]) is int and type(out["objective_points"]) is int
        assert out["objective_points"] > out["evaluations"]
        with pytest.raises(SystemExit):
            main(["repro-example", "-h"])
        assert "'objective_points' counts the points" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("flag,name", [("--q2-card", "Q2"), ("--v2-card", "V2")])
    @pytest.mark.parametrize("card", [0, -1])
    def test_cardinality_below_one_is_validation_error(self, capsys, flag, name, card):
        # the flags are gone, so argparse refuses them before any search or cardinality check
        with pytest.raises(SystemExit) as exc:
            main(["repro-example", "--seed", "1", "--restarts", "1", flag, str(card)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag} {card}" in err
        assert f"cardinality of {name}" not in err

    @pytest.mark.parametrize("flag", ["--q2-card", "--v2-card"])
    def test_cardinality_options_are_gone(self, capsys, flag):
        # refused even at the old defaults: |Q2| = 3, |V2| = 4 are fig1 constants
        with pytest.raises(SystemExit) as exc:
            main(["repro-example", "--seed", "1", "--restarts", "1", flag, "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    def test_channel_export_round_trips(self, tmp_path, capsys):
        target = tmp_path / "fig1.chan"
        rc = main([
            "repro-example", "--seed", "2", "--restarts", "1",
            "--export-channel", str(target), "--format", "json",
        ])
        assert rc == 0
        doc = parse_spec(target.read_text())
        assert doc.channel("z1").exact is not None
        assert doc.alphabets["Z"] == 9


class TestShippedExamples:
    def test_leakage_trend_config(self, capsys):
        rc = main([
            "simulate", "--config", str(REPO_EXAMPLES / "leakage_trend.json"),
            "--seed", "0", "--format", "json",
        ])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        leaks = [r["leakage_rate"] for r in rows]
        assert all(leaks[i] > leaks[i + 1] for i in range(len(leaks) - 1))

    def test_concentration_config(self, capsys):
        rc = main([
            "simulate", "--config", str(REPO_EXAMPLES / "concentration.json"),
            "--seed", "9", "--format", "json",
        ])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows[-1]["exceedance_frequency"] < 0.05

    def test_mc_equivocation_config(self, capsys):
        rc = main([
            "simulate", "--config", str(REPO_EXAMPLES / "mc_equivocation.json"),
            "--seed", "3", "--format", "json",
        ])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["n"] for r in rows] == [16, 24] and not any(r["exact"] for r in rows)
        assert all(0 < r["equivocation_rate"] < r["message_rate"] and r["ci_halfwidth"] > 0
                   for r in rows)

    def test_mc_erasure_config(self, capsys):
        rc = main([
            "simulate", "--config", str(REPO_EXAMPLES / "mc_erasure.json"),
            "--seed", "3", "--format", "json",
        ])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["n"] for r in rows] == [16, 24] and not any(r["exact"] for r in rows)
        assert all(0 < r["equivocation_rate"] < r["message_rate"] for r in rows)

    def test_indirect_decode_config(self, capsys):
        rc = main([
            "simulate", "--config", str(REPO_EXAMPLES / "indirect_decode.json"),
            "--seed", "11", "--format", "json",
        ])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows[0]["p_error"] > rows[-1]["p_error"]


# SPEC plus the auxiliaries, channels and factored distributions of the four
# region ids: a theorem2 point that violates Marton's constraint (X is the XOR
# of V1 and V2), an admissible one, a prop1 point and a multilevel point
REGION_SPEC = SPEC + """
alphabet U 2
alphabet U3 2
alphabet V0 1
alphabet V1 2
alphabet V2 2

channel y1z3 : X -> Y Z
27/50 9/25 3/50 1/25
1/25 3/50 9/25 27/50
channel z2 : Y -> Z
4/5 1/5
1/5 4/5
pmf pu : U
1/2 1/2
channel pv0u : U -> V0
1
1
channel pv12 : V0 -> V1 V2
1/4 1/4 1/4 1/4
channel xor : V0 V1 V2 -> X
1 0
0 1
0 1
1 0
channel first : V0 V1 V2 -> X
1 0
1 0
0 1
0 1
channel pxu : U -> X
9/10 1/10
1/5 4/5
channel pu3u : U -> U3
3/4 1/4
1/4 3/4
channel pvu3 : U3 -> V
4/5 1/5
1/5 4/5

factored bad theorem2
factor U | = pu
factor V0 | U = pv0u
factor V1 V2 | V0 = pv12
factor X | V0 V1 V2 = xor
end
factored good theorem2
factor U | = pu
factor V0 | U = pv0u
factor V1 V2 | V0 = pv12
factor X | V0 V1 V2 = first
end
factored p1 prop1
factor U | = pu
factor X | U = pxu
end
factored ml multilevel
factor U | = pu
factor U3 | U = pu3u
factor V | U3 = pvu3
factor X | V = pxv
end
"""

MARTON_CONFIG = {
    "scheme": "marton-equivocation",
    "dist": {"pattern": "theorem1", "sizes": {"Q": 1, "V0": 2, "V1": 2, "V2": 2, "X": 2},
             "tables": [[[1.0]], [[0.45, 0.55]],
                        [[0.42, 0.18, 0.28, 0.12], [0.12, 0.28, 0.18, 0.42]],
                        [[0.85, 0.15], [0.85, 0.15], [0.2, 0.8], [0.2, 0.8],
                         [0.7, 0.3], [0.7, 0.3], [0.35, 0.65], [0.35, 0.65]]]},
    "channel": {"matrix": [[0.8, 0.2], [0.2, 0.8]]},
    "rates": {"message": 0.25, "total": 0.5, "t1": 0.5, "t2": 0.5, "b1": 0.25, "b2": 0.25},
    "n": [4], "epsilon": 8.0,
}

ML_SPEC = str(REPO_EXAMPLES / "multilevel_product.chan")
SEARCH = ("--seed", "1", "--restarts", "2", "--sweeps", "3")
BROADCAST = ("--y1", "y1", "--y2", "y2", "--z", "z")

# one call per report; "{regions}" and "{marton}" name files written per test
REPORTS = {
    "info": ("info", "--spec", "{regions}", "--input", "unif"),
    "ordering_degraded": ("ordering", "--spec", ML_SPEC, "--y", "y11", "--z", "z1",
                          "--relation", "degraded"),
    "ordering_degraded_reversed": ("ordering", "--spec", ML_SPEC, "--y", "z1", "--z", "y11",
                                   "--relation", "degraded"),
    "ordering_less_noisy": ("ordering", "--spec", "{regions}", "--y", "y1", "--z", "z",
                            "--relation", "less_noisy", *SEARCH),
    "ordering_more_capable": ("ordering", "--spec", "{regions}", "--y", "z", "--z", "y1",
                              "--relation", "more_capable", *SEARCH),
    "bound_evaluate": ("bound", "--spec", "{regions}", "--id", "ck_extension", *BROADCAST,
                       "--dist", "d"),
    "bound_maximize": ("bound", "--spec", ML_SPEC, "--id", "ck_extension", "--y1", "to_y1",
                       "--y2", "to_y2", "--z", "to_z", "--card", "V=3", *SEARCH),
    "region_theorem2_inadmissible": ("region", "--spec", "{regions}", "--id", "theorem2",
                                     "--dist", "bad", *BROADCAST),
    "region_theorem2": ("region", "--spec", "{regions}", "--id", "theorem2", "--dist", "good",
                        *BROADCAST),
    "region_prop1": ("region", "--spec", "{regions}", "--id", "prop1", "--dist", "p1",
                     *BROADCAST, "--point", "R0=0.01,R1=0.1,Re=0.05"),
    "region_prop2_inner": ("region", "--spec", "{regions}", "--id", "prop2-inner",
                           "--dist", "ml", "--y1z3", "y1z3", "--z2", "z2"),
    "region_prop3_outer": ("region", "--spec", "{regions}", "--id", "prop3-outer",
                           "--dist", "ml", "--y1z3", "y1z3", "--z2", "z2"),
    "fme_fixture": ("fme", "--fixture", "multilevel_case2"),
    "fme_system_compare": ("fme", "--system", "raw.ineq", "--eliminate",
                           "S0,RT1,RT2,T1,T2,RT", "--reduce", "--compare", "final.ineq"),
    "simulate_wiretap": ("simulate", "--config", str(REPO_EXAMPLES / "leakage_trend.json"),
                         "--seed", "3"),
    "simulate_marton": ("simulate", "--config", "{marton}", "--seed", "3"),
    "simulate_decode": ("simulate", "--config", str(REPO_EXAMPLES / "indirect_decode.json"),
                        "--seed", "3"),
    "simulate_lemma1": ("simulate", "--config", str(REPO_EXAMPLES / "concentration.json"),
                        "--seed", "3"),
    "repro_example": ("repro-example", *SEARCH),
}

ROW_KEYS = ["label", "lhs", "relation", "rhs"]
SIMULATE_KEYS = ["subcommand", "scheme", "seed", "rows"]

# the keys of each report in order, then each distinct key list of its rows
REPORT_KEYS = {
    "info": [["subcommand", "alphabets", "pmfs", "channels"]],
    "ordering_degraded": [["subcommand", "relation", "holds", "resolution", "witness"]],
    "ordering_degraded_reversed": [["subcommand", "relation", "holds", "resolution"]],
    "ordering_less_noisy": [["subcommand", "relation", "holds", "resolution", "witness"]],
    "ordering_more_capable": [["subcommand", "relation", "holds", "resolution",
                               "violation_margin_bits", "witness"]],
    "bound_evaluate": [["subcommand", "id", "mode", "value"]],
    "bound_maximize": [["subcommand", "id", "mode", "value", "restarts", "best_restart",
                        "evaluations", "search_evaluations", "objective_points",
                        "argmax_tables", "note"]],
    "region_theorem2_inadmissible": [["subcommand", "id", "result"]],
    "region_theorem2": [["subcommand", "id", "variables", "rows"], ROW_KEYS],
    "region_prop1": [["subcommand", "id", "variables", "rows", "point", "contains_point"],
                     ROW_KEYS],
    "region_prop2_inner": [["subcommand", "id", "variables", "rows"], ROW_KEYS,
                           [*ROW_KEYS, "clamp_const", "clamp_coeffs"]],
    "region_prop3_outer": [["subcommand", "id", "variables", "rows"], ROW_KEYS,
                           [*ROW_KEYS, "clamp_const", "clamp_coeffs"]],
    "fme_fixture": [["subcommand", "fixture", "ok", "checks", "certificates"]],
    "fme_system_compare": [["subcommand", "system", "region_equal", "certificate"]],
    "simulate_wiretap": [SIMULATE_KEYS, ["n", "k_msg", "k_total", "leakage_rate",
                                         "equivocation_rate", "message_rate", "exact",
                                         "ci_halfwidth"]],
    "simulate_marton": [SIMULATE_KEYS, ["n", "leakage_rate", "equivocation_rate",
                                        "message_rate", "encoding_failure_rate", "exact"]],
    "simulate_decode": [SIMULATE_KEYS, ["n", "p_error", "trials"]],
    "simulate_lemma1": [SIMULATE_KEYS, ["n", "exceedance_frequency", "threshold", "mean_count",
                                        "info_rate", "in_concentration_regime"]],
    "repro_example": [["subcommand", "achievable", "rck_best", "rck_gap", "gap_is_strict",
                       "identity_max_deviation", "identity_points_checked", "restarts",
                       "evaluations", "objective_points"]],
}

# exact-arithmetic reports, pinned byte for byte in both formats
REPORT_SHA256 = {
    ("ordering_degraded", "human"):
        "9dc73477802bf0ec0a34d7d063cff606e9a6a687609e59232eb64c2d1b619b9c",
    ("ordering_degraded", "json"):
        "39b0934cc00f6ef4fa07a1884c77e39682e414ba62f6473bb7154b1a3d290eea",
    ("ordering_degraded_reversed", "human"):
        "58e52c162b34f0b5090d6c674735ddde4771cf7d85ac8e88e9deee9e0b6b46bd",
    ("ordering_degraded_reversed", "json"):
        "2057e4f57489dd1e41c31433ce0d273afa216ee0fb733612a47304847c46e849",
    ("fme_system_compare", "human"):
        "e82402664ec46f734497aab32bda44aea8ace11508d99dee7eaa293c1be952d3",
    ("fme_system_compare", "json"):
        "eba24cec6dbc9f1990dd9b81406b627179d71d016796a7fbe70286882a2fac6c",
}

# top-level help and each subcommand's, at 80 columns
HELP_SHA256 = {
    "": "b4b523fb485587037cfd51a7050aaefc5600ac15c6628e2f1696583752cfc460",
    "info": "401cd6a41ff58082ebb42e13cab355388a50a50953af56b48fb5cc0a0b1eb4c9",
    "ordering": "02f11a7a5b6a8e25f90ffecab2a91579e8e7c87695491f053fe68ee02a386291",
    "bound": "a31dc25047cf5b412b6cbc7e5d2840e7e2ee07baa63de5b26595111f19a68c98",
    "region": "9597649944310864612bb1b293497e677874a8309bce5a56f6c9afec295f5ae3",
    "fme": "58c600f7b60dcfe2ae552af93ec59d6eaeacbae7baa44c1f946584777b9de151",
    "simulate": "bff7aa8a9fc98926cbd001f57d48eedb08f4c6663c4ae1b3f2a11231335dbd3c",
    "repro-example": "dfdfbe95d76ae7914c51dbdc37058b6f784ab92832789b273bc8bfff65d977a1",
}


class TestReportPins:
    """What a refactor of the CLI must keep: help text, report keys, exact reports.

    Search and simulation reports sum through BLAS matrix products, so only
    their key lists are pinned here; the simulator's bytes are pinned in
    ``test_simulate_outputs``.
    """

    @pytest.fixture
    def run(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "regions.chan").write_text(REGION_SPEC)
        (tmp_path / "marton.json").write_text(json.dumps(MARTON_CONFIG))
        (tmp_path / "raw.ineq").write_text(fixture_runs.fixture_text("theorem1_raw.ineq"))
        (tmp_path / "final.ineq").write_text(fixture_runs.fixture_text("theorem1_final.ineq"))
        monkeypatch.chdir(tmp_path)

        def run(name: str, fmt: str) -> str:
            argv = [a.format(regions="regions.chan", marton="marton.json")
                    for a in REPORTS[name]]
            assert main(argv + ["--format", fmt]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            return captured.out

        return run

    @pytest.mark.parametrize("name", REPORTS)
    def test_report_keys(self, run, name):
        report = json.loads(run(name, "json"))
        keys = [list(report)]
        for row in report.get("rows", []):
            if list(row) not in keys:
                keys.append(list(row))
        assert keys == REPORT_KEYS[name]

    @pytest.mark.parametrize("name,fmt", REPORT_SHA256)
    def test_exact_reports_are_byte_identical(self, run, name, fmt):
        out = run(name, fmt).encode()
        assert hashlib.sha256(out).hexdigest() == REPORT_SHA256[name, fmt]

    # argparse lays help out differently in other Python minor versions
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="pinned on Python 3.11")
    @pytest.mark.parametrize("sub", HELP_SHA256)
    def test_help_is_byte_identical(self, sub, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"] if sub else ["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == HELP_SHA256[sub]
