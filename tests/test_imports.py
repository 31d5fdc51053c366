"""What each entry point loads: every check runs in a fresh interpreter."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "docs" / "examples" / "multilevel_product.chan"

# what ``from wiretap3 import NAME`` gave before the package root became lazy
EXPORTS = {
    "bounds": ["AuxSpec", "BoundResult", "BroadcastChannels", "MultilevelChannel",
               "RateRegionSample", "maximize"],
    "optim": ["SearchBudget"],
    "probability": ["AxisError", "ConditionalPmf", "DistributionError", "Factor",
                    "FactoredDistribution", "JointPmf", "Pmf", "bsc", "cascade", "entropy",
                    "erasure_channel", "erase_further", "product_channel"],
}

# run ``main(argv)`` with its report discarded, then print the loaded modules
RUN_CLI = """
import contextlib, io, json, sys
from wiretap3.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(sys.modules)]))
"""


def _fresh(script: str, *args: str) -> str:
    out = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, timeout=120,
    )
    if out.returncode != 0:
        pytest.fail(out.stderr)
    return out.stdout


def _modules_after(argv: list[str]) -> set[str]:
    code, modules = json.loads(_fresh(RUN_CLI, json.dumps(argv)))
    assert code == 0
    return set(modules)


def test_fme_fixture_loads_no_numpy_and_no_bounds_engine():
    loaded = _modules_after(["fme", "--fixture", "theorem1", "--format", "json"])
    assert "numpy" not in loaded
    heavy = {"bounds", "optim", "probability", "simulate", "fig1", "orderings"}
    assert not {f"wiretap3.{m}" for m in heavy} & loaded


def test_bound_loads_no_simulator_example_or_orderings():
    loaded = _modules_after([
        "bound", "--spec", str(SPEC), "--id", "ck_extension", "--y1", "to_y1",
        "--y2", "to_y2", "--z", "to_z", "--seed", "1", "--restarts", "1", "--sweeps", "1",
        "--format", "json",
    ])
    assert {"wiretap3.bounds", "wiretap3.specfmt"} <= loaded
    assert not {"wiretap3.simulate", "wiretap3.fig1", "wiretap3.orderings"} & loaded


def test_import_package_loads_no_submodule():
    out = _fresh("import sys, wiretap3; print([m for m in sys.modules if m.startswith('wiretap3.')])")
    assert out.split() == ["[]"]


def test_every_export_resolves_and_is_listed():
    script = """
import importlib, json, sys, wiretap3
exports = json.loads(sys.argv[1])
print(all(getattr(wiretap3, name) is getattr(importlib.import_module(f"wiretap3.{mod}"), name)
          for mod, names in exports.items() for name in names))
print(sorted({n for names in exports.values() for n in names} - set(dir(wiretap3))))
"""
    assert _fresh(script, json.dumps(EXPORTS)).split() == ["True", "[]"]


def test_unknown_attribute_raises_and_submodules_still_import():
    script = """
import sys, wiretap3
try:
    wiretap3.no_such_name
except AttributeError as e:
    print("AttributeError")
from wiretap3 import fme
print(fme is sys.modules["wiretap3.fme"])
"""
    assert _fresh(script).split() == ["AttributeError", "True"]
