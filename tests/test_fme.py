"""Exact Fourier-Motzkin machinery: examples, fuzz, and the fixtures."""

import hashlib
import re
from fractions import Fraction as F
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_fme as ref
from sampling import system_feasible
from vertex_oracle import projection_matches
from wiretap3 import fme, rationallp
from wiretap3.cli import main
from wiretap3.fixture_runs import fixture_names, fixture_text, run_fixture
from wiretap3.fme import (
    InequalitySystem,
    LinearInequality,
    SpecFormatError,
    eliminate,
    eliminate_all,
    infeasibility_certificate,
    parse_system,
    region_equal,
    remove_redundant,
    substitute,
)
from wiretap3.rationallp import IntRows, Premises, verify_certificate

BOX = F(5)


class TestParse:
    def test_round_trip(self):
        sys_, assumptions = parse_system(
            """
vars R0 R1
r1: 2*R1 + R0 <= I(V0,V1;Y1|Q) - I(V1;Z|V0) + 1/2
r2: R0 >= 1/4
a: assume I(V1;Z|V0) >= 0
bind I(V0,V1;Y1|Q) = 3/4
"""
        )
        assert len(sys_.inequalities) == 2
        assert len(assumptions) == 1
        assert sys_.bindings["I(V0,V1;Y1|Q)"] == F(3, 4)
        text = sys_.format()
        again, _ = parse_system(text)
        assert again.canonical_rows() == sys_.canonical_rows()

    def test_line_numbered_errors(self):
        with pytest.raises(SpecFormatError) as ei:
            parse_system("vars x\nx <= 1\nx ?? 2\n")
        assert "line 3" in str(ei.value)

    @pytest.mark.parametrize("line,message", [
        ("R <= 2 I(A)", "write 2*I(A)"),                 # not twice the atom plus 2
        ("R S <= I(A) I(B)", "missing '+' or '-' before 'S'"),
        ("R <= 1 -", "expected a term at '-'"),
        ("R <= 1 <= 2", "need one relation operator, found <= <="),
        ("R <=", "empty"),
        ("R <= 1/0", "zero denominator"),
        ("bind I(A) = 1/0", "zero denominator"),
        ("R <= 2*", "expected a term at '*'"),
        ("R <= - -S", "expected a term"),
        ("R <= 2*3", "expected a term at '*3'"),
    ])
    def test_lines_once_misread_are_rejected(self, line, message):
        with pytest.raises(SpecFormatError, match=re.escape(message)) as ei:
            parse_system(f"vars R S\n# comment\n{line}\n")
        assert ei.value.line_no == 3

    @pytest.mark.parametrize("text,message", [
        ("vars R\nR <= S\nvars R S\nS <= 1\n", "duplicate 'vars' declaration"),
        ("vars R\natoms a\natoms b\nR <= a\n", "duplicate 'atoms' declaration"),
        ("vars R\nR <= Q\natoms I(A)\nR <= I(A)\n", "'atoms' must come before the first row"),
        ("vars R\nbind c = 1\natoms c\n", "'atoms' must come before the first row"),
        ("vars R\nassume c >= 0\natoms c\n", "'atoms' must come before the first row"),
    ])
    def test_declarations_come_once_and_before_rows(self, text, message):
        with pytest.raises(SpecFormatError, match=re.escape(f"line 3: {message}")) as ei:
            parse_system(text)
        assert ei.value.line_no == 3

    def test_atoms_may_precede_vars(self):
        sys_, _ = parse_system("atoms c\nvars R\nR <= c\n")
        assert sys_.inequalities[0].rhs_atoms == {"c": 1}

    def test_relation_inside_an_atom_is_part_of_it(self):
        sys_, _ = parse_system("vars x\nx <= I(A=1) + H(B<2)\n")
        assert list(sys_.inequalities[0].rhs_atoms) == ["I(A=1)", "H(B<2)"]

    def test_unknown_symbol_with_atoms_decl(self):
        with pytest.raises(SpecFormatError):
            parse_system("vars x\natoms c\nx <= typo_name\n")

    def test_equality_expands_to_two_rows(self):
        sys_, _ = parse_system("vars x y\nx = y\n")
        assert len(sys_.inequalities) == 2


class TestEliminate:
    def test_pair_bounds(self):
        sys_, _ = parse_system("vars x\nx <= I(A)\nI(B) <= x\n")
        out = eliminate(sys_, "x")
        assert len(out.inequalities) == 1
        row = out.inequalities[0]
        assert row.coeffs == {}
        assert row.rhs_atoms == {"I(A)": F(1), "I(B)": F(-1)}

    def test_no_bounds_yields_nothing(self):
        sys_, _ = parse_system("vars x y\nx <= 1\n")
        out = eliminate(sys_, "y")
        assert len(out.inequalities) == 1

    def test_strictness_propagates(self):
        sys_, _ = parse_system("vars x\nx < I(A)\nI(B) <= x\n")
        out = eliminate(sys_, "x")
        assert out.inequalities[0].relation == "<"
        sys2, _ = parse_system("vars x\nx <= I(A)\nI(B) <= x\n")
        assert eliminate(sys2, "x").inequalities[0].relation == "<="


class TestNormalize:
    """One kept row per left-hand side: the lower rhs, then the strict row, then the shorter
    history (Imbert pruning counts ancestors)."""

    @staticmethod
    def _kept(*rows):
        return fme.normalize(InequalitySystem(("x",), rows)).inequalities

    def test_tie_breaks(self):
        lo, hi = (LinearInequality({"x": 2}, "<=", {}, c) for c in (2, 4))
        strict = LinearInequality({"x": 1}, "<", {}, 1)
        long_, short = (LinearInequality({"x": 1}, "<=", {}, 1, origin=o) for o in ({0, 1}, {2}))
        assert self._kept(hi, lo) == self._kept(lo, hi) == (lo,)
        assert self._kept(lo, strict) == self._kept(strict, lo) == (strict,)
        assert self._kept(long_, short) == self._kept(short, long_) == (short,)
        # an identical row with as long a history keeps the first
        assert self._kept(short, LinearInequality({"x": 1}, "<=", {}, 1, origin={5})) == (short,)
        assert self._kept(LinearInequality({}, "<=", {}, 1)) == ()


class TestSystemChecks:
    def test_undeclared_variable_rejected(self):
        with pytest.raises(ValueError, match="undeclared variable 'y' in y <= 1"):
            InequalitySystem(("x",), [LinearInequality({"y": 1}, "<=", {}, 1)])

    def test_satisfies_strict_rows(self):
        sys_ = InequalitySystem(("x",), [LinearInequality({"x": 1}, "<", {}, 1)])
        assert sys_.satisfies({"x": 0.5}) and not sys_.satisfies({"x": 1.0})
        # a positive tol widens the strict row to lhs < rhs + tol
        assert sys_.satisfies({"x": 1.0}, tol=0.25)
        assert not sys_.satisfies({"x": 1.25}, tol=0.25)


class TestRemoveRedundant:
    def test_trivial_dominance(self):
        sys_, _ = parse_system("vars x\nx <= 1\nx <= 2\n")
        out = remove_redundant(sys_)
        assert len(out.inequalities) == 1
        assert out.inequalities[0].rhs_const == 1

    def test_unbound_constants_error(self):
        sys_, _ = parse_system("vars x\nx <= I(A)\n")
        with pytest.raises(ValueError, match="unbound constants"):
            remove_redundant(sys_)

    def test_assumption_covers_constant(self):
        sys_, assume = parse_system(
            "vars x\nx <= I(A)\nx <= I(A) + 1\nassume I(A) >= 0\n"
        )
        out = remove_redundant(sys_, assume)
        assert len(out.inequalities) == 1

    def test_bindings_path(self):
        sys_, _ = parse_system("vars x\nx <= I(A)\nx <= 3\n")
        out = remove_redundant(sys_.bind({"I(A)": F(2)}))
        assert len(out.inequalities) == 1
        assert out.inequalities[0].rhs_const == 2

    def test_bind_lines_take_effect(self):
        # a bind line both covers the atom and substitutes its value
        sys_, _ = parse_system("vars x\nbind I(A) = 2\nx <= I(A)\nx <= 3\n")
        out = remove_redundant(sys_)
        assert [r.format() for r in out.inequalities] == ["x <= 2"]

    def test_bind_lines_reach_assumption_rows(self):
        # I(B) <= I(A) = 2 bounds x <= I(B) below 3, so x <= 3 is redundant
        sys_, assume = parse_system(
            "vars x\nbind I(A) = 2\nx <= I(B)\nx <= 3\nassume I(B) <= I(A)\n"
        )
        out = remove_redundant(sys_, assume)
        assert [r.format() for r in out.inequalities] == ["x <= I(B)"]

    def test_reduction_preserves_region(self):
        sys_, _ = parse_system(
            "vars x y\nx + y <= 4\nx <= 2\ny <= 2\nx + y <= 5\n-x <= 0\n-y <= 0\n"
        )
        out = remove_redundant(sys_)
        eq, cert = region_equal(sys_, out)
        assert eq


class TestSubstitute:
    def test_identity_mapping(self):
        sys_, _ = parse_system("vars x y\nx + y <= 3\n")
        out = substitute(sys_, {"x": ({"x": F(1)}, F(0))})
        assert out.canonical_rows() == sys_.canonical_rows()

    def test_rename(self):
        sys_, _ = parse_system("vars x y\nx + y <= I(A)\n")
        out = substitute(sys_, {"x": ({"w": F(1)}, F(0))})
        assert "w" in out.variables and "x" not in out.variables

    def test_unknown_variable(self):
        sys_, _ = parse_system("vars x\nx <= 1\n")
        with pytest.raises(ValueError):
            substitute(sys_, {"zz": ({"x": F(1)}, F(0))})

    def test_split_then_eliminate(self):
        sys_, _ = parse_system("vars R\nR <= I(A)\n-R <= 0\n")
        out = substitute(sys_, {"R": ({"Ra": F(1), "Rb": F(1)}, F(0))})
        out = InequalitySystem(
            out.variables,
            list(out.inequalities)
            + [LinearInequality({"Ra": F(-1)}, "<="), LinearInequality({"Rb": F(-1)}, "<=")],
        )
        out = eliminate_all(out, ["Rb"])
        # Ra <= I(A) and Ra >= 0 must survive
        assert any(r.coeffs == {"Ra": F(1)} for r in out.inequalities)


_NAMES = ("x", "y", "R0")
_ATOMS = ("I(A)", "I(B;C|D)")
_RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def _row_parts(draw):
    coeffs = draw(st.dictionaries(st.sampled_from(_NAMES), _RATIONALS, max_size=3))
    atoms = draw(st.dictionaries(st.sampled_from(_ATOMS), _RATIONALS, max_size=2))
    return coeffs, draw(st.sampled_from(["<=", "<"])), atoms, draw(_RATIONALS)


class TestIntegerRows:
    def test_row_is_reduced_integers_and_views_are_exact(self):
        row = LinearInequality({"y": F(1, 2), "x": F(-2, 3), "z": 0}, "<=", {"I(A)": F(5, 6)}, 1)
        assert (row.var_nums, row.atom_nums, row.const_num, row.den) == (
            {"y": 3, "x": -4}, {"I(A)": 5}, 6, 6)
        assert list(row.coeffs.items()) == [("y", F(1, 2)), ("x", F(-2, 3))]
        assert row.rhs_atoms == {"I(A)": F(5, 6)} and row.rhs_const == 1
        with pytest.raises(TypeError):
            row.coeffs["x"] = F(1)
        half = LinearInequality({"x": F(2, 4)}, "<", {}, F(3, 6))
        assert (half.var_nums, half.const_num, half.den) == ({"x": 1}, 1, 2)
        assert row.plus(half).format() == "1/2*y - 1/6*x < 5/6*I(A) + 3/2"

    @pytest.mark.parametrize("build", [
        lambda: LinearInequality({"x": 0.1}, "<="),
        lambda: LinearInequality({"x": np.float64(0.5)}, "<="),
        lambda: LinearInequality({"x": 1}, "<=", {"I(A)": 0.5}),
        lambda: LinearInequality({"x": 1}, "<=", {}, 0.25),
        lambda: LinearInequality({"x": 1}, "<=").scaled(0.5),
        lambda: parse_system("vars x\nx <= I(A)\n")[0].bind({"I(A)": 0.5}),
    ], ids=["coeffs", "numpy-coeffs", "rhs_atoms", "rhs_const", "scaled", "bind"])
    def test_floats_are_rejected(self, build):
        with pytest.raises(TypeError, match="inequality coefficients must be exact rationals"):
            build()

    @settings(max_examples=300, deadline=None)
    @given(_row_parts(), st.fractions(min_value=F(1, 12), max_value=50, max_denominator=12))
    def test_canonical_key_is_scale_invariant(self, parts, k):
        coeffs, rel, atoms, const = parts
        row = LinearInequality(coeffs, rel, atoms, const)
        scaled = row.scaled(k)
        assert scaled.coeffs == {v: c * k for v, c in coeffs.items() if c}
        assert scaled.rhs_const == const * k
        if not (row.var_nums or row.atom_nums):
            # no left-hand side to scale by: the key keeps the constant, as
            # the Fraction key did
            assert row.canonical_key()[1] == (const.numerator, const.denominator)
            return
        assert scaled.canonical_key() == row.canonical_key()
        # the same row times k, built on its own and in the other mapping order
        again = LinearInequality(
            {v: c * k for v, c in reversed(coeffs.items())}, rel,
            {a: c * k for a, c in reversed(atoms.items())}, const * k,
        )
        assert again.canonical_key() == row.canonical_key()
        if row.var_nums or row.atom_nums:   # the opposite half-space is another row
            flipped = LinearInequality({v: -c for v, c in coeffs.items()}, rel,
                                       {a: -c for a, c in atoms.items()}, const)
            assert flipped.canonical_key() != row.canonical_key()


class TestRegionEqual:
    def test_self(self):
        sys_, _ = parse_system("vars x\nx <= I(A)\n")
        eq, cert = region_equal(sys_, sys_, parse_system("vars x\nassume I(A) >= 0\n")[1])
        assert eq

    def test_variable_mismatch(self):
        a, _ = parse_system("vars x\nx <= 1\n")
        b, _ = parse_system("vars y\ny <= 1\n")
        with pytest.raises(ValueError):
            region_equal(a, b)

    def test_infeasible_pair_equal(self):
        a, _ = parse_system("vars x\nx <= -1\n-x <= 0\n")
        b, _ = parse_system("vars x\nx <= -2\n-x <= 0\n")
        eq, cert = region_equal(a, b)
        assert eq and "infeasible" in cert["note"]

    def test_feasible_vs_infeasible(self):
        a, _ = parse_system("vars x\nx <= 1\n-x <= 0\n")
        b, _ = parse_system("vars x\nx <= -2\n-x <= 0\n")
        eq, cert = region_equal(a, b)
        assert not eq
        assert "a_infeasible" not in cert
        assert cert["b_infeasible"] == {"x <= -2": "1/2", "-x <= 0": "1/2"}

    def test_bind_lines_take_effect(self):
        a, _ = parse_system("vars x\nbind I(A) = 2\nx <= I(A)\n")
        b, _ = parse_system("vars x\nx <= 2\n")
        assert region_equal(a, b)[0] and region_equal(b, a)[0]

    def test_bind_lines_reach_the_assumptions(self):
        # I(A) <= I(B) <= I(A) with I(A) = 2 pins I(B) at 2
        a, _ = parse_system("vars x\nbind I(A) = 2\nx <= I(B)\n")
        b, assume = parse_system("vars x\nx <= 2\nassume I(B) <= I(A)\nassume I(A) <= I(B)\n")
        eq, cert = region_equal(a, b, assume)
        assert eq
        assert cert["a_implies_b"][0]["multipliers"] == {"x <= I(B)": "1", "0 <= -I(B) + 2": "1"}

    def test_conflicting_bind_lines_raise(self):
        a, _ = parse_system("vars x\nbind I(A) = 2\nx <= I(A)\n")
        b, _ = parse_system("vars x\nbind I(A) = 3\nx <= 2\n")
        with pytest.raises(ValueError, match="bind I\\(A\\) to 2 and to 3"):
            region_equal(a, b)
        c, _ = parse_system("vars x\nbind I(A) = 4/2\nx <= 2\n")
        assert region_equal(a, c)[0]

    def test_infeasibility_certificate_names_rows_and_assumptions(self):
        a, assume = parse_system(
            "vars x\nup: x <= I(A)\nlo: I(B) <= x\ngap: assume I(A) <= I(B) - 1\n"
        )
        b, _ = parse_system("vars x\nx <= I(A)\n")
        eq, cert = region_equal(a, b, assume)
        assert not eq and "b_infeasible" not in cert
        assert cert["a_infeasible"] == {"up": "1", "lo": "1", "gap": "1"}
        assert list(cert)[:2] == ["a_implies_b", "b_implies_a"]


def _random_system(rng):
    d = int(rng.integers(2, 5))
    n_rows = int(rng.integers(3, 10))
    n_atoms = int(rng.integers(0, 3))
    atoms = [f"I(A{i})" for i in range(n_atoms)]
    names = [f"x{i}" for i in range(d)]
    rows = []
    for r in range(n_rows):
        coeffs = {names[i]: F(int(rng.integers(-3, 4))) for i in range(d)}
        ra = {a: F(int(rng.integers(-2, 3))) for a in atoms}
        const = F(int(rng.integers(-4, 9)), int(rng.integers(1, 4)))
        rows.append(LinearInequality(coeffs, "<=", ra, const, f"r{r}"))
    for i in range(d):
        rows.append(LinearInequality({names[i]: F(1)}, "<=", {}, BOX, f"bu{i}"))
        rows.append(LinearInequality({names[i]: F(-1)}, "<=", {}, BOX, f"bl{i}"))
    bindings = {a: F(int(rng.integers(-3, 4)), int(rng.integers(1, 3))) for a in atoms}
    n_elim = int(rng.integers(1, d))
    return InequalitySystem(names, rows), bindings, names[: d - n_elim], names[d - n_elim:]


def _to_rows(sys_bound, order):
    rows = []
    for ineq in sys_bound.inequalities:
        assert not ineq.rhs_atoms
        rows.append(([ineq.coeffs.get(v, F(0)) for v in order], ineq.rhs_const))
    return rows


class TestProjection:
    def test_soundness_random_points(self):
        # any point satisfying the input system satisfies the projection
        rng = np.random.default_rng(42)
        for _ in range(25):
            sys_, bindings, keep, elim = _random_system(rng)
            bound = sys_.bind(bindings)
            out = eliminate_all(sys_, elim).bind(bindings)
            hits = 0
            for _ in range(200):
                point = {v: float(rng.uniform(-5, 5)) for v in sys_.variables}
                if bound.satisfies(point, tol=0.0):
                    hits += 1
                    proj = {v: point[v] for v in keep}
                    assert out.satisfies(proj, tol=1e-9)
            if hits:
                break

    def test_matches_vertex_oracle(self):
        rng = np.random.default_rng(20260810)
        for trial in range(80):
            sys_, bindings, keep, elim = _random_system(rng)
            eliminated = eliminate_all(sys_, elim)
            in_rows = _to_rows(sys_.bind(bindings), list(sys_.variables))
            out_rows = _to_rows(eliminated.bind(bindings), keep)
            keep_idx = [list(sys_.variables).index(v) for v in keep]
            ok, why = projection_matches(in_rows, len(sys_.variables), keep_idx, out_rows)
            assert ok, f"trial {trial}: {why}"


class TestFixtures:
    @pytest.mark.parametrize("name", fixture_names())
    def test_fixture(self, name):
        res = run_fixture(name)
        assert res.ok, res.checks

    def test_theorem1_certificate_lists_multipliers(self):
        res = run_fixture("theorem1")
        cert = res.certificates["region_equal"]
        assert all(e["implied"] for e in cert["a_implies_b"])
        assert any(e.get("multipliers") for e in cert["a_implies_b"])


FIXTURE_JSON_SHA256 = {
    "theorem1": "35047a295bac27bd2d4f9fd58380f77adeca4c06393a535aa975997028cb1f1b",
    "rate_split": "662be6332d4795aae9b8e77bd1bf54bcc5b201964aaeccbb9ea7e131d0f20ff6",
    "multilevel_case1": "9063342beb4018a1c6c4aaa30339d31036fb1477324645d740d7a78365f94d14",
    "multilevel_case2": "b679463b7d47084017a68f4e516a73a6c205804e91ad12fe5e317c5066584c4f",
    "multilevel_case3": "181bf2e5a26613dbb29fee783eb54cc5d94d13e579d62aea74d75e7e88521bff",
    "multilevel_case4": "7e5c1b9e59e606c701da1dcb2d7413ea106620e76f5d09ca2c19d44091bae1fc",
}


FIXTURE_HUMAN_SHA256 = {
    "theorem1": "2cdccf2b5e1e9a4eb4f19a89272354e805ccfd3a17d0acc172d21acf3d81e0ef",
    "rate_split": "94d9b5f8a625b48a1a8dec554903b5c096d1539ee3fb7edccd343eebf15a6932",
    "multilevel_case1": "a5a711283afb23f40e5a50c19181e088ce7e41a48b872ae86873ce63b0368c08",
    "multilevel_case2": "9913d24e2eb4cf2e7d35484567f34646b921001a921ad10ba9c545b9b1d79ff5",
    "multilevel_case3": "5ea932683a2867279fc5377c881cbdfcd0c13a03dabbe48157846cfab6d894ed",
    "multilevel_case4": "0d2431da778e6bcea9495f38dbe9eca4e64cfd778d652fdc833b0becf76c534d",
}

# sha256 of the repr of the (row, column) list of every pivot the six
# fixtures make, in fixture order: 4,700 pivots over 412 LPs
FIXTURE_PIVOTS_SHA256 = "7c62e1963f8c186b8afb13346c62a51a37101ea665edfaaad43a25a51af0b77b"


def _fixture_output_sha256(name, fmt, capsys):
    assert main(["fme", "--fixture", name, "--format", fmt]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_json_is_byte_identical(name, capsys):
    # `wiretap3 fme --fixture NAME --format json`: rows, labels, checks and
    # every certificate's multipliers, pinned byte for byte
    assert _fixture_output_sha256(name, "json", capsys) == FIXTURE_JSON_SHA256[name]


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_human_output_is_byte_identical(name, capsys):
    assert _fixture_output_sha256(name, "human", capsys) == FIXTURE_HUMAN_SHA256[name]


def test_fixture_pivot_sequence_is_pinned(monkeypatch):
    # the same pivots, not only the same printed multipliers
    pivots = []
    real = rationallp._pivot

    def record(tab, den, r, e):
        pivots.append((r, e))
        real(tab, den, r, e)

    monkeypatch.setattr(rationallp, "_pivot", record)
    for name in fixture_names():
        assert run_fixture(name).ok, name
    assert len(pivots) == 4700
    assert hashlib.sha256(repr(pivots).encode()).hexdigest() == FIXTURE_PIVOTS_SHA256


def _fields(row):
    """Everything a row carries, mapping order included (it reaches output)."""
    return (
        list(row.coeffs.items()), row.relation, list(row.rhs_atoms.items()),
        row.rhs_const, row.label, row.origin, row.elim,
    )


def _assert_same_system(got, want):
    assert got.variables == want.variables
    assert got.bindings == want.bindings
    assert [_fields(r) for r in got.inequalities] == [_fields(r) for r in want.inequalities]


def _fixture_files():
    return sorted(f.name for f in resources.files("wiretap3").joinpath("fixtures").iterdir()
                  if f.name.endswith(".ineq"))


def _recording(monkeypatch, name, calls):
    real = getattr(fme, name)

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fme, name, record)


@pytest.fixture(scope="module")
def fixture_calls():
    """The (system, var) of every elimination step and the (system,
    assumptions) of every feasibility test that the six fixtures make."""
    elims, feas = [], []
    with pytest.MonkeyPatch.context() as mp:
        _recording(mp, "eliminate", elims)
        _recording(mp, "infeasibility_certificate", feas)
        for name in fixture_names():
            assert run_fixture(name).ok, name
    return elims, feas


class TestAgainstReplacedPaths:
    """The Farkas feasibility LP, early Imbert pruning and the one-sort
    canonical key against the paths they replaced (``reference_fme``)."""

    def test_canonical_key_on_fixture_and_random_rows(self, fixture_calls):
        # the primitive integer key is not the Fraction key, but it must
        # group rows the same way, by the whole key and by the left-hand
        # side (normalize's classes), and order right-hand sides within a
        # class the same way
        rows = [r for f in _fixture_files() for r in parse_system(fixture_text(f))[0].inequalities]
        rows += [r for sys_, _ in fixture_calls[0] for r in sys_.inequalities]
        rng = np.random.default_rng(7)
        for _ in range(200):
            rows += _random_system(rng)[0].inequalities
        rows.append(LinearInequality({}, "<", {}, F(-3, 2)))
        rows.append(LinearInequality({}, "<=", {}, 0))
        rows.append(LinearInequality({"x": F(-2, 3)}, "<=", {"I(A)": 4}, F(5, 7)))
        assert len(rows) > 2000
        got = [r.canonical_key() for r in rows]
        want = [ref.canonical_key(r) for r in rows]

        def partition(keys):
            classes: dict = {}
            for i, k in enumerate(keys):
                classes.setdefault(k, set()).add(i)
            return {frozenset(c) for c in classes.values()}

        assert partition(got) == partition(want)
        lhs = partition([k[0] for k in got])
        assert lhs == partition([k[:2] for k in want])
        for members in lhs:
            pairs = sorted({(F(*got[i][1]), want[i][2]) for i in members})
            assert [w for _, w in pairs] == sorted(w for _, w in pairs)
            assert len({g for g, _ in pairs}) == len({w for _, w in pairs}) == len(pairs)

    def test_premise_matrices_match_fraction_conversion(self, monkeypatch):
        # every premise set the six fixtures and the random systems build
        # from integer rows has the matrix IntRows.of gives for the same
        # rows as Fractions, pair for pair, and the betas as its costs: the
        # LPs, and so every pivot and multiplier, are those of the Fraction rows
        built = []

        class Recording(Premises):
            def __init__(self, rows=(), *args):
                super().__init__(rows, *args)
                if not args:
                    built.append(self)

        monkeypatch.setattr(fme, "Premises", Recording)
        for name in fixture_names():
            assert run_fixture(name).ok, name
        n_fixture = len(built)
        rng = np.random.default_rng(3)
        for _ in range(400):
            infeasibility_certificate(*_random_feasibility_case(rng))
        rng = np.random.default_rng(20261018)
        for _ in range(60):
            sys_, bindings, _, elim = _random_system(rng)
            eliminated = eliminate_all(sys_, elim).bind(bindings)
            region_equal(eliminated, remove_redundant(eliminated))
        assert n_fixture == 30 and len(built) == 690
        assert sum(p.scale > 1 for p in built[:n_fixture]) >= 1
        assert sum(p.scale > 1 for p in built) > 100
        for p in built:
            rational = [[F(v, d) for v in nums] for nums, d in p]
            assert p.matrix == IntRows.of(zip(*(r[:-1] for r in rational)))
            assert [F(c, p.scale) for c in p.cost] == [r[-1] for r in rational]

    def test_fixture_eliminations_match(self, fixture_calls):
        elims = fixture_calls[0]
        assert len(elims) >= 30
        for sys_, var in elims:
            _assert_same_system(eliminate(sys_, var), ref.eliminate(sys_, var))

    def test_random_eliminations_match(self):
        rng = np.random.default_rng(20261018)
        for _ in range(60):
            sys_, _, _, elim = _random_system(rng)
            for var in elim:
                got, want = eliminate(sys_, var), ref.eliminate(sys_, var)
                _assert_same_system(got, want)
                sys_ = got

    def test_fixture_feasibility_matches(self, fixture_calls):
        feas = fixture_calls[1]
        assert len(feas) == 12
        for sys_, assumptions in feas:
            assert system_feasible(sys_, assumptions)
            assert ref.system_feasible(sys_, assumptions)

    def test_random_feasibility_matches(self):
        rng = np.random.default_rng(3)
        verdicts = {True: 0, False: 0}
        for _ in range(400):
            sys_, assumptions = _random_feasibility_case(rng)
            got = system_feasible(sys_, assumptions)
            assert got == ref.system_feasible(sys_, assumptions), (sys_.format(), assumptions)
            verdicts[got] += 1
            y = infeasibility_certificate(sys_, assumptions)
            assert (y is None) == got
            if y is not None:
                vars_, atoms = fme._joint_space([sys_], assumptions)
                vecs = Premises(fme._row_vector(r, vars_, atoms)
                                for r in (*sys_.inequalities, *assumptions))
                verify_certificate(vecs, ([0] * (len(vars_) + len(atoms)) + [-1], 1), y)
        assert min(verdicts.values()) >= 100, verdicts

    @pytest.mark.parametrize("variables, rows, feasible", [
        ((), "", True),                               # no rows at all
        ((), "0 <= 1", True),                         # no variables, no atoms
        ((), "0 < 0", True),                          # closure of 0 < 0
        ((), "1 <= 0", False),
        (("x",), "0*x <= -1", False),                 # constant-only row
        (("x",), "x < 0; -x < 0", True),              # strict rows relax
        (("x",), "x <= I(A)", True),                  # atoms are free
        ((), "I(A) <= 0; -I(A) <= -1", False),
    ])
    def test_edge_systems_match(self, variables, rows, feasible):
        parsed, _ = parse_system("vars x\n" + rows.replace("; ", "\n") + "\n")
        sys_ = InequalitySystem(variables, parsed.inequalities)
        assert system_feasible(sys_) is feasible
        assert ref.system_feasible(sys_) is feasible


def _random_feasibility_case(rng):
    """Systems of 0-3 variables and 0-2 atoms: some constant-only rows, some
    strict rows, some atom-only assumptions; about half are infeasible."""
    d, n_atoms = int(rng.integers(0, 4)), int(rng.integers(0, 3))
    names = [f"x{i}" for i in range(d)]
    atoms = [f"I(A{i})" for i in range(n_atoms)]

    def row(label, on_vars):
        coeffs = {v: F(int(rng.integers(-2, 3))) for v in names} if on_vars else {}
        ra = {a: F(int(rng.integers(-2, 3))) for a in atoms}
        const = F(int(rng.integers(-4, 3)), int(rng.integers(1, 4)))
        rel = "<" if rng.random() < 0.25 else "<="
        return LinearInequality(coeffs, rel, ra, const, label)

    rows = [row(f"r{i}", rng.random() > 0.15) for i in range(int(rng.integers(0, 7)))]
    assumptions = [row(f"a{i}", False) for i in range(int(rng.integers(0, 3)))]
    return InequalitySystem(names, rows), assumptions


def _parsed_fields(parsed):
    sys_, assumptions = parsed
    return (sys_.variables, list(sys_.bindings.items()),
            [_fields(r) for r in sys_.inequalities], [_fields(r) for r in assumptions])


class TestAgainstTokenParser:
    """The anchored term grammar reads every well-formed line as the token
    state machine it replaced (``reference_fme.parse_system``) did."""

    @pytest.mark.parametrize("name", _fixture_files())
    def test_fixture_files_match(self, name):
        text = fixture_text(name)
        assert _parsed_fields(parse_system(text)) == _parsed_fields(ref.parse_system(text))

    @pytest.mark.parametrize("name", _fixture_files())
    def test_fixture_format_round_trips(self, name):
        sys_, _ = parse_system(fixture_text(name))
        again, _ = parse_system(sys_.format())
        assert again.variables == sys_.variables
        assert [_fields(r) for r in again.inequalities] == [_fields(r) for r in sys_.inequalities]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_generated_systems_match(self, data):
        text = data.draw(_systems())
        assert _parsed_fields(parse_system(text)) == _parsed_fields(ref.parse_system(text))


_VARIABLES = ("R0", "R1", "Re", "T1'", "x_2")
_CONSTANTS = ("c", "gap'", "I(V0,V1;Y1|Q)", "I(V1;Z|V0)", "H(X|U)", "I(U;Z)")
_LITERALS = st.one_of(
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 12), st.integers(1, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.tuples(st.integers(0, 9), st.integers(0, 99)).map(lambda t: f"{t[0]}.{t[1]}"),
)


@st.composite
def _systems(draw):
    """A well-formed system: vars, an optional closed atoms namespace, and
    rows, assumptions and binds with labels, comments and spacing variants."""
    variables = draw(st.lists(st.sampled_from(_VARIABLES), min_size=1, max_size=4, unique=True))
    symbols = st.sampled_from(variables + list(_CONSTANTS))
    space = st.sampled_from(["", " ", "  "])

    def term(first):
        sign = draw(st.sampled_from(["", "-", "+"] if first else ["-", "+"]))
        body = draw(st.one_of(
            symbols, _LITERALS,
            st.tuples(_LITERALS, space, symbols).map(lambda t: f"{t[0]}{t[1]}*{t[1]}{t[2]}"),
        ))
        return f"{sign}{draw(space)}{body}"

    def side():
        rest = draw(st.integers(0, 3))
        return term(True) + "".join(f"{draw(space)}{term(False)}" for _ in range(rest))

    lines = ["vars " + " ".join(variables)]
    if draw(st.booleans()):
        lines.append("atoms " + " ".join(c for c in _CONSTANTS if not c.startswith(("I(", "H("))))
    for _ in range(draw(st.integers(1, 6))):
        label = draw(st.sampled_from(["", "r1: ", "num2': ", "_a:  "]))
        if draw(st.integers(0, 5)) == 0:
            value = draw(_LITERALS)
            sign = draw(st.sampled_from(["", "-"]))
            line = f"bind {draw(symbols)}{draw(space)}={draw(space)}{sign}{value}"
        else:
            relation = draw(st.sampled_from(["<=", "<", ">=", ">", "="]))
            line = f"{side()}{draw(space)}{relation}{draw(space)}{side()}"
            if draw(st.booleans()):
                line = "assume " + line
        comment = draw(st.sampled_from(["", "  # note", "# 1 <= 2"]))
        lines.append(f"{label}{line}{comment}")
    return "\n".join(lines) + "\n"
