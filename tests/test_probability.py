"""Information-measure core: worked examples and structural properties."""

import math
import string
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wiretap3.probability import (
    AxisError,
    ConditionalPmf,
    DistributionError,
    Factor,
    FactoredDistribution,
    JointPmf,
    Pmf,
    as_joint,
    binary_entropy,
    bsc,
    cascade,
    conditional,
    entropy,
    erase_further,
    erasure_channel,
    log2_cells,
    log2_floored,
    product_channel,
)


def brute_mi(joint_2d: np.ndarray) -> float:
    """Independent oracle: direct double summation of I(X;Y)."""
    px = joint_2d.sum(axis=1)
    py = joint_2d.sum(axis=0)
    total = 0.0
    for i in range(joint_2d.shape[0]):
        for j in range(joint_2d.shape[1]):
            p = joint_2d[i, j]
            if p > 0:
                total += p * math.log2(p / (px[i] * py[j]))
    return total


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy([F(1, 2), F(1, 2)]) == 1.0

    def test_grouped_identity_worked_value(self):
        # H(ap, 1-p, (1-a)p) = H(p) + p H(a) at a=1/3, p=1/2
        a, p = F(1, 3), F(1, 2)
        got = entropy([a * p, 1 - p, (1 - a) * p])
        expected = 1.0 + 0.5 * binary_entropy(1 / 3)
        assert got == pytest.approx(1.459148, abs=5e-7)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_deterministic(self):
        assert entropy([1, 0, 0]) == 0.0

    def test_invalid_pmf_rejected(self):
        with pytest.raises(DistributionError):
            entropy([0.5, 0.6])
        with pytest.raises(DistributionError):
            entropy([-0.1, 1.1])

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(0.0, 1.0, allow_nan=False),
        p=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_grouped_identity_random(self, a, p):
        lhs = entropy([a * p, 1 - p, (1 - a) * p])
        rhs = binary_entropy(p) + p * binary_entropy(a)
        assert abs(lhs - rhs) < 1e-10


def _log2_corpus(nonnegative=False):
    """Edge values, then random ones down to the subnormals: flat, and as a strided view."""
    tiny = np.finfo(float).tiny
    edges = np.array([
        0.0, -0.0, 5e-324, -5e-324, tiny / 3, tiny, 1e-300, 0.5, 1.0 - 2**-53, 1.0, 2.0,
        np.nan, -np.nan, np.inf, -np.inf, -1.0, -1e-300, np.finfo(float).max,
    ])
    rng = np.random.default_rng(0)
    corpus = np.concatenate([
        edges, rng.random(4096), rng.random(1024) * tiny, rng.standard_normal(1024),
        np.exp2(rng.uniform(-1074, 1023, 4096)),
    ])
    if nonnegative:
        corpus = corpus[~(corpus < 0)]  # NaN stays
    return corpus, corpus[: corpus.size // 8 * 8].reshape(-1, 1, 8)[:, :, ::-1]


def test_log2_cells_matches_the_masked_log2_bit_for_bit():
    # the unmasked form must give the masked form's bits on every edge value
    for p in _log2_corpus():
        want = np.log2(p, out=np.zeros(p.shape), where=p > 0)
        got = log2_cells(p)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_log2_floored_weighted_by_p_matches_log2_cells_but_for_the_sign_of_zeros():
    # the bounds engine's pmf cells are never negative
    for p in _log2_corpus(nonnegative=True):
        with np.errstate(over="ignore"):  # the float max times its log2
            got, want = p * log2_floored(p), p * log2_cells(p)
        assert got.shape == want.shape
        nan, zero = np.isnan(p), p == 0
        assert np.isnan(got[nan]).all()
        assert (got[zero] == 0).all() and zero.any()
        rest = ~nan & ~zero
        assert got[rest].tobytes() == want[rest].tobytes()
    # finite at 0: under flush-to-zero the floor would read 0 and 0 * log2 NaN
    assert log2_floored(np.array([0.0, -0.0])).tolist() == [-1074.0, -1074.0]


class TestMutualInformation:
    def test_independent_coins(self):
        j = JointPmf.product([("X", Pmf.uniform(2)), ("Y", Pmf.uniform(2))])
        assert j.mutual_information(("X",), ("Y",)) == 0.0

    def test_identity_channel(self):
        j = JointPmf.product([("X", Pmf.uniform(2))]).extend(
            ("X",), [("Y", 2)], ConditionalPmf.identity(2)
        )
        assert j.mutual_information(("X",), ("Y",)) == pytest.approx(1.0, abs=1e-12)

    def test_bsc_01_against_summation_oracle(self):
        j = JointPmf.product([("X", Pmf.uniform(2))]).extend(("X",), [("Y", 2)], bsc(0.1))
        got = j.mutual_information(("X",), ("Y",))
        oracle = brute_mi(j.tensor)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.531004, abs=5e-7)  # 1 - H(0.1)

    def test_overlapping_axes_error(self):
        j = JointPmf.product([("X", Pmf.uniform(2)), ("Y", Pmf.uniform(2))])
        with pytest.raises(AxisError):
            j.mutual_information(("X",), ("X",))


class TestConditionalMutualInformation:
    def test_conditioning_on_independent_axis(self):
        j = JointPmf.product(
            [("A", Pmf([0.3, 0.7])), ("C", Pmf.uniform(3))]
        ).extend(("A",), [("B", 2)], bsc(0.2))
        unconditional = j.mutual_information(("A",), ("B",))
        conditional = j.conditional_mutual_information(("A",), ("B",), ("C",))
        assert conditional == pytest.approx(unconditional, abs=1e-12)

    def test_same_axis_copies_given_c(self):
        # A = B = C, all copies of one fair bit
        j = JointPmf.product([("C", Pmf.uniform(2))])
        j = j.extend(("C",), [("A", 2)], ConditionalPmf.identity(2))
        j = j.extend(("C",), [("B", 2)], ConditionalPmf.identity(2))
        assert j.conditional_mutual_information(("A",), ("B",), ("C",)) == 0.0

    def test_markov_chain_v_x_z(self):
        # V -> X = V -> Z = BSC(0.1)(X): I(X;Z|V) = 0 since X is V
        fd = FactoredDistribution(
            [("V", 2), ("X", 2)],
            [Factor(["V"], [], [[F(1, 2), F(1, 2)]]),
             Factor(["X"], ["V"], ConditionalPmf.identity(2))],
        )
        j = fd.realization.extend(("X",), [("Z", 2)], bsc(0.1))
        assert j.conditional_mutual_information(("X",), ("Z",), ("V",)) == 0.0


class TestMarginalizeAndChannels:
    def test_marginal_of_product_is_factor(self):
        j = JointPmf.product([("X", Pmf([0.2, 0.8])), ("Y", Pmf.uniform(3))])
        m = j.marginal(("X",))
        assert np.allclose(m.tensor, [0.2, 0.8])

    def test_marginal_keep_all_is_identity(self):
        j = JointPmf.product([("X", Pmf([0.2, 0.8])), ("Y", Pmf.uniform(3))])
        m = j.marginal(("X", "Y"))
        assert np.allclose(m.tensor, j.tensor)

    def test_marginal_unknown_axis_error(self):
        j = JointPmf.product([("X", Pmf.uniform(2))])
        with pytest.raises(AxisError):
            j.marginal(("Q",))

    def test_erasure_marginal_matches_hand_sum(self):
        # X1 uniform through a half-erasure: output marginal (0, E, 1)
        j = JointPmf.product([("X1", Pmf.uniform(2))]).extend(
            ("X1",), [("Y11", 3)], erasure_channel(F(1, 2))
        )
        assert np.allclose(j.marginal(("Y11",)).tensor, [0.25, 0.5, 0.25])

    def test_cascade_identity(self):
        c = cascade(bsc(F(1, 10)), ConditionalPmf.identity(2))
        assert c.exact == bsc(F(1, 10)).exact

    def test_cascade_bsc_compose(self):
        c = cascade(bsc(F(1, 10)), bsc(F(1, 8)))
        assert c.exact == bsc(F(1, 5)).exact

    def test_cascade_erasures(self):
        c = cascade(erasure_channel(F(1, 2)), erase_further(F(2, 3)))
        assert c.exact == erasure_channel(F(5, 6)).exact

    def test_cascade_dimension_mismatch(self):
        with pytest.raises(DistributionError):
            cascade(erasure_channel(F(1, 2)), bsc(F(1, 4)))

    def test_product_single(self):
        c = product_channel([bsc(F(1, 10))])
        assert c.exact == bsc(F(1, 10)).exact

    def test_product_empty_rejected(self):
        with pytest.raises(DistributionError):
            product_channel([])

    def test_product_identities(self):
        c = product_channel([ConditionalPmf.identity(2), ConditionalPmf.identity(3)])
        assert c.exact == ConditionalPmf.identity(6).exact

    def test_product_additivity_at_independent_inputs(self):
        # Fig-1-style two components: I over the product channel at
        # independent uniform inputs equals the sum of component I's
        c1, c2 = erasure_channel(F(1, 2)), ConditionalPmf.identity(2)
        prod = product_channel([c1, c2])
        j = JointPmf.product([("X1", Pmf.uniform(2)), ("X2", Pmf.uniform(2))])
        j = j.extend(("X1", "X2"), [("Y", 6)], prod)
        lhs = j.mutual_information(("X1", "X2"), ("Y",))
        j1 = JointPmf.product([("X1", Pmf.uniform(2))]).extend(("X1",), [("Y", 3)], c1)
        j2 = JointPmf.product([("X2", Pmf.uniform(2))]).extend(("X2",), [("Y", 2)], c2)
        rhs = j1.mutual_information(("X1",), ("Y",)) + j2.mutual_information(("X2",), ("Y",))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def random_joint(rng, shape):
    t = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    return JointPmf(tuple(f"A{i}" for i in range(len(shape))), t)


class TestIdentities:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_mi_equals_entropy_drop(self, seed):
        rng = np.random.default_rng(seed)
        j = random_joint(rng, (2, 3))
        mi = j.mutual_information(("A0",), ("A1",))
        hcond = j.entropy(("A0", "A1")) - j.entropy(("A1",))
        assert abs(mi - (j.entropy(("A0",)) - hcond)) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_chain_rule(self, seed):
        rng = np.random.default_rng(seed)
        j = random_joint(rng, (2, 2, 3))
        lhs = j.mutual_information(("A0", "A1"), ("A2",))
        rhs = j.mutual_information(("A0",), ("A2",)) + j.conditional_mutual_information(
            ("A1",), ("A2",), ("A0",)
        )
        assert abs(lhs - rhs) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_data_processing_on_composed_chain(self, seed):
        rng = np.random.default_rng(seed)
        pa = Pmf(rng.dirichlet(np.ones(2)))
        w1 = ConditionalPmf(rng.dirichlet(np.ones(3), size=2))
        w2 = ConditionalPmf(rng.dirichlet(np.ones(2), size=3))
        j = JointPmf.product([("A", pa)])
        j = j.extend(("A",), [("B", 3)], w1)
        j = j.extend(("B",), [("C", 2)], w2)
        assert j.mutual_information(("A",), ("C",)) <= j.mutual_information(
            ("A",), ("B",)
        ) + 1e-10


def _einsum_extend(j, given, targets, chan):
    """``JointPmf.extend`` as it was: one lettered einsum of the joint and the factor."""
    names = tuple(n for n, _ in targets)
    letters = dict(zip(j.axes + names, string.ascii_letters))
    factor = chan.matrix.reshape(tuple(j.size(g) for g in given) + tuple(s for _, s in targets))
    lhs, new = "".join(letters[a] for a in j.axes), "".join(letters[n] for n in names)
    fac = "".join(letters[g] for g in given) + new
    return JointPmf(j.axes + names, np.einsum(f"{lhs},{fac}->{lhs}{new}", j.tensor, factor))


class TestExtendBroadcast:
    """``extend`` multiplies by broadcasting, with the lettered einsum's bits."""

    def test_matches_einsum_bitwise(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            shape = tuple(int(s) for s in rng.integers(1, 4, size=int(rng.integers(0, 5))))
            j = random_joint(rng, shape)   # size-1 axes and the empty joint included
            # given axes out of declaration order, and none at all
            k = int(rng.integers(0, len(shape) + 1))
            given = tuple(str(a) for a in rng.permutation(j.axes)[:k])
            new = rng.integers(1, 4, size=int(rng.integers(1, 3)))
            targets = [(f"T{i}", int(s)) for i, s in enumerate(new)]
            rows = math.prod(j.size(g) for g in given)
            chan = ConditionalPmf(rng.dirichlet(np.ones(math.prod(new)), size=rows))
            got, want = j.extend(given, targets, chan), _einsum_extend(j, given, targets, chan)
            assert got.axes == want.axes
            assert np.array_equal(got.tensor, want.tensor)

    def test_reversed_given_axes(self):
        rng = np.random.default_rng(5)
        j = random_joint(rng, (2, 3, 1, 2))
        chan = ConditionalPmf(rng.dirichlet(np.ones(3), size=12))
        args = (("A3", "A2", "A1", "A0"), [("T", 3)], chan)
        assert np.array_equal(j.extend(*args).tensor, _einsum_extend(j, *args).tensor)

    def test_more_axes_than_einsum_letters(self):
        # 53 axes and a new one: more than the 52 letters the einsum had
        j = JointPmf([f"A{i}" for i in range(53)], np.ones((1,) * 53))
        out = j.extend(("A52", "A0"), [("T", 2)], ConditionalPmf([[0.25, 0.75]]))
        assert out.axes[-1] == "T"
        assert out.tensor.shape == (1,) * 53 + (2,)
        assert np.array_equal(out.tensor.ravel(), [0.25, 0.75])


class TestConditional:
    def test_rows_without_mass_are_uniform(self):
        joint = np.array([[0.2, 0.1, 0.1], [0.0, 0.0, 0.0], [0.3, 0.0, 0.3]])
        got = conditional(joint, joint.sum(axis=1))
        assert np.array_equal(got[1], np.full(3, 1 / 3))
        assert np.array_equal(got[[0, 2]], joint[[0, 2]] / joint[[0, 2]].sum(axis=1)[:, None])

    def test_uniform_over_every_trailing_axis(self):
        t = np.zeros((2, 2, 3))
        t[0] = [[0.1, 0.2, 0.1], [0.0, 0.1, 0.0]]
        t[1, 0] = [0.25, 0.0, 0.25]
        p_uv = conditional(t, t.sum(axis=2))     # p(z | u, v): v = 1 at u = 1 has no mass
        assert np.array_equal(p_uv[1, 1], np.full(3, 1 / 3))
        assert np.array_equal(p_uv[0, 1], [0.0, 1.0, 0.0])
        p_u = t.sum(axis=(1, 2))
        assert np.array_equal(conditional(t, p_u), t / p_u[:, None, None])
        empty = np.zeros((1, 2, 3))
        assert np.array_equal(conditional(empty, empty.sum(axis=(1, 2))), np.full((1, 2, 3), 1 / 6))


class TestFactoredDistribution:
    def test_realization_matches_product(self):
        rng = np.random.default_rng(1)
        pq = rng.dirichlet(np.ones(2))
        pvq = rng.dirichlet(np.ones(3), size=2)
        pxv = rng.dirichlet(np.ones(2), size=3)
        fd = FactoredDistribution(
            [("Q", 2), ("V", 3), ("X", 2)],
            [Factor(["Q"], [], [pq]), Factor(["V"], ["Q"], pvq), Factor(["X"], ["V"], pxv)],
        )
        t = fd.realization.tensor
        manual = pq[:, None, None] * pvq[:, :, None] * pxv[None, :, :]
        assert np.allclose(t, manual, atol=1e-12)

    def test_condition_before_generation_rejected(self):
        with pytest.raises(AxisError):
            FactoredDistribution(
                [("A", 2), ("B", 2)],
                [Factor(["A"], ["B"], np.full((2, 2), 0.5))],
            )

    def test_declaration_order_differs_from_generation_order(self):
        # B is generated first and declared last: the realization follows the declaration
        pb, pab = np.array([0.25, 0.75]), np.array([[0.5, 0.5, 0.0], [0.1, 0.2, 0.7]])
        fd = FactoredDistribution([("A", 3), ("B", 2)],
                                  [Factor(["B"], [], [pb]), Factor(["A"], ["B"], pab)])
        assert fd.realization.axes == ("A", "B")
        assert np.array_equal(fd.realization.tensor, (pb[:, None] * pab).T)

    @pytest.mark.parametrize("sizes,factors,error,message", [
        ([("A", 2)], [Factor(["A", "C"], [], np.full((1, 4), 0.25))],
         AxisError, "factor targets undeclared axis 'C'"),
        ([("A", 2)], [Factor(["A"], [], [[0.5, 0.5]]), Factor(["A"], [], [[0.5, 0.5]])],
         AxisError, "axis 'A' generated twice"),
        ([("A", 2)], [], DistributionError, "factored distribution has no factors"),
    ])
    def test_malformed_chain_rejected(self, sizes, factors, error, message):
        with pytest.raises(error, match=message):
            FactoredDistribution(sizes, factors)

    def test_as_joint(self):
        j = JointPmf(("A",), [0.5, 0.5])
        assert as_joint(j) is j
        with pytest.raises(DistributionError, match="cannot interpret list as a distribution"):
            as_joint([0.5, 0.5])


class TestExactEntries:
    """Entries that are all ints, numpy integers or Fractions are kept exact, row by row."""

    def test_numpy_integers_become_python_int_fractions(self):
        for exact in (Pmf(np.array([0, 1])).exact,
                      ConditionalPmf(np.array([[1, 0], [0, 1]])).exact[1]):
            assert exact == (F(0), F(1))
            assert all(type(q.numerator) is int for q in exact)

    def test_one_float_entry_makes_the_table_inexact(self):
        assert Pmf([F(1, 2), 0.5]).exact is None
        assert ConditionalPmf([[F(1, 2), F(1, 2)], [1, 0.0]]).exact is None
        assert ConditionalPmf([[F(1, 2), F(1, 2)], [1, np.int8(0)]]).exact == (
            (F(1, 2), F(1, 2)), (F(1), F(0)))

    @pytest.mark.parametrize("build,message", [
        (lambda: ConditionalPmf([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 3)]]),
         "exact row 1 does not sum to 1"),
        (lambda: Pmf([]), "pmf must be a non-empty vector"),
        (lambda: ConditionalPmf([]), "conditional pmf must be a non-empty matrix"),
        (lambda: ConditionalPmf([[]]), "conditional pmf must be a non-empty matrix"),
    ])
    def test_invalid_tables_rejected(self, build, message):
        with pytest.raises(DistributionError, match=message):
            build()


class TestJointPmfChecks:
    @pytest.mark.parametrize("build,error,message", [
        (lambda: JointPmf(("A", "A"), np.full((2, 2), 0.25)), AxisError,
         r"duplicate axis names: \('A', 'A'\)"),
        (lambda: JointPmf(("A", "B"), [0.5, 0.5]), AxisError,
         "tensor has 1 dimensions for 2 axes"),
        (lambda: JointPmf(("A",), [0.5, 0.25]), DistributionError, "joint pmf sums to 0.75, not 1"),
        (lambda: JointPmf(("A", "B"), np.full((2, 2), 0.25)).marginal(("A", "A")), AxisError,
         r"duplicate axes in \('A', 'A'\)"),
        (lambda: JointPmf(("A",), [0.5, 0.5]).extend((), [("A", 2)], ConditionalPmf([[0.5, 0.5]])),
         AxisError, "target axis 'A' already present"),
        (lambda: JointPmf(("A",), [0.5, 0.5]).extend(("A",), [("B", 2)],
                                                     ConditionalPmf([[0.5, 0.5]])),
         DistributionError, "channel shape 1x2 does not match given product 2 and target"),
    ])
    def test_invalid_input_rejected(self, build, error, message):
        with pytest.raises(error, match=message):
            build()


class TestNanRejected:
    """NaN passes `x < -tol` and `|sum - 1| > tol` (both False); the checks must not."""

    def test_pmf(self):
        with pytest.raises(DistributionError, match="NaN"):
            Pmf([math.nan, 1.0])
        with pytest.raises(DistributionError):
            Pmf([math.nan, math.nan])

    def test_conditional_pmf(self):
        with pytest.raises(DistributionError, match="row 0"):
            ConditionalPmf([[math.nan, 1.0], [0.5, 0.5]])
        with pytest.raises(DistributionError, match="row 1"):
            ConditionalPmf([[0.5, 0.5], [0.5, math.nan]])

    def test_joint_pmf(self):
        with pytest.raises(DistributionError, match="NaN"):
            JointPmf(("A",), [math.nan, 1.0])
        with pytest.raises(DistributionError):
            JointPmf(("A", "B"), [[0.25, 0.25], [0.5, math.nan]])

    def test_build_factored(self):
        from wiretap3.bounds import build_factored

        with pytest.raises(DistributionError):
            build_factored("wiretap", {"V": 2, "X": 2}, [[[math.nan, 1.0]], [[1, 0], [0, 1]]])

    def test_infinity_still_rejected(self):
        with pytest.raises(DistributionError):
            Pmf([math.inf, 0.0])
        with pytest.raises(DistributionError):
            ConditionalPmf([[math.inf, 1.0]])
