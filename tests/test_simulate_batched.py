"""The batched simulator against the per-trial loops it replaced.

``reference_simulate`` keeps the old loops verbatim.  Decoding, the Marton
codebooks and conditionals and the lemma1 counts must match them bit for bit,
also where a block of trials ends inside a chunk.  Monte Carlo
scores moved to the log domain, so they must match the old product form
within 1e-12 wherever that form does not underflow, and stay inside
[0, H(M)] where it does.
"""

import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import reference_simulate as ref
from wiretap3 import simulate as sim
from wiretap3.bounds import build_factored
from wiretap3.probability import ConditionalPmf, DistributionError, bsc
from wiretap3.specfmt import parse_spec
from wiretap3.simulate import (
    MartonRates,
    TypicalityParams,
    WiretapRates,
    build_marton_codebook,
    build_wiretap_codebook,
)

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "docs" / "examples" / "multilevel_product.chan"


def cloud():
    """|V| = 2, |X| = 4, two satellites per cloud symbol: the decode example."""
    return build_factored(
        "wiretap", {"V": 2, "X": 4},
        [np.array([[0.5, 0.5]]), np.array([[0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5]])],
    )


def identity(nx=2):
    return build_factored("wiretap", {"V": nx, "X": nx}, [np.full((1, nx), 1.0 / nx), np.eye(nx)])


def satellites():
    p_xv = np.array([[0.6, 0.4], [0.3, 0.7]])
    return build_factored("wiretap", {"V": 2, "X": 2}, [np.array([[0.5, 0.5]]), p_xv])


def to_y1():
    return parse_spec(SPEC.read_text()).channel("to_y1")


def full_support():
    return ConditionalPmf([[0.7, 0.2, 0.1], [0.25, 0.5, 0.25], [0.1, 0.3, 0.6], [0.2, 0.2, 0.6]])


def new_decode_trials(cb, chan, params, trials, seed, decoder):
    """Per-trial results with the draws of ``decoding_error_rate``."""
    fn = sim.decode_direct if decoder == "direct" else sim.decode_indirect
    out = []
    for t in range(trials):
        rng = sim._rng(seed, 3, t)
        m = int(rng.integers(cb.n_messages))
        enc = sim.encode(cb, m, int(rng.integers(1 << 31)))
        y = sim.sample_given(chan.matrix, enc.x_seq, rng)
        out.append(fn(cb, y, params, chan))
    return out


def allowed(plan):
    """``plan.screen`` unpacked: [i, y, c] marks codeword c allowed at position i when y_i = y."""
    n_codewords = len(plan.bases)
    return np.unpackbits(plan.screen, axis=-1, count=n_codewords, bitorder="little").astype(bool)


class TestDecodePlan:
    @pytest.mark.parametrize("decoder", ["direct", "indirect"])
    @pytest.mark.parametrize("chan", [to_y1, full_support], ids=["to_y1", "full_support"])
    @pytest.mark.parametrize("n,eps", [(4, 2.0), (8, 2.0), (8, 0.6), (12, 1.0)])
    def test_matches_reference(self, decoder, chan, n, eps):
        chan = chan()
        params = TypicalityParams(n, eps)
        rates = WiretapRates(0.5, 0.75, 0.25)
        for seed in (1, 7, 23):
            cb = build_wiretap_codebook(cloud(), rates, params, seed)
            want = ref.decode_trials(cb, chan, params, 40, seed, decoder)
            got = new_decode_trials(cb, chan, params, 40, seed, decoder)
            assert got == want
            assert sim.decoding_error_rate(cb, chan, params, 40, seed, decoder) == (
                ref.decoding_error_rate(cb, chan, params, 40, seed, decoder)
            )

    @pytest.mark.parametrize("decoder", ["direct", "indirect"])
    @pytest.mark.parametrize("chan", [to_y1, full_support], ids=["to_y1", "full_support"])
    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_blocks_end_mid_chunk(self, monkeypatch, decoder, chan, block, chunk):
        # stream blocks of `block` trials, each decoded `chunk` trials at a time
        chan = chan()
        params = TypicalityParams(8, 1.0)
        cb = build_wiretap_codebook(cloud(), WiretapRates(0.25, 0.5, 0.25), params, 7)
        want = ref.decoding_error_rate(cb, chan, params, 40, 7, decoder)
        assert 0 < want[0] < 1
        n_cw = sim._decode_plan(cb, chan, params, decoder).bases.shape[0]
        monkeypatch.setattr(sim, "_STREAM_BLOCK", block)
        monkeypatch.setattr(sim, "_COUNT_CHUNK", chunk * n_cw)
        assert sim.decoding_error_rate(cb, chan, params, 40, 7, decoder) == want

    @pytest.mark.parametrize("decoder", ["direct", "indirect"])
    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_block_equals_rows(self, monkeypatch, decoder, chunk):
        params = TypicalityParams(8, 2.0)
        fn = ref.decode_direct if decoder == "direct" else ref.decode_indirect
        for chan, seed in ((to_y1(), 1), (full_support(), 23)):
            cb = build_wiretap_codebook(cloud(), WiretapRates(0.5, 0.75, 0.25), params, seed)
            y = np.stack([ref.transmit(chan, sim.encode(cb, t % cb.n_messages, t).x_seq, t)
                          for t in range(50)])
            plan = sim._decode_plan(cb, chan, params, decoder)
            monkeypatch.setattr(sim, "_COUNT_CHUNK", chunk * plan.bases.shape[0])
            code = {"none-typical": sim.NONE_TYPICAL, "ambiguous": sim.AMBIGUOUS}
            want = [r.l0 if r.ok else code[r.reason] for r in (fn(cb, row, params, chan) for row in y)]
            assert plan.decode_block(y).tolist() == want
            assert [plan.decode(row) for row in y] == [fn(cb, row, params, chan) for row in y]

    def test_outcomes_exercised(self):
        # every reason occurs, so equality above is not equality of constants
        reasons = set()
        for n, eps, rates in ((8, 2.0, WiretapRates(0.5, 0.75, 0.25)),
                              (4, 2.0, WiretapRates(0.75, 1.0, 0.25)),
                              (8, 0.3, WiretapRates(0.25, 0.25, 0.25))):
            params = TypicalityParams(n, eps)
            cb = build_wiretap_codebook(cloud(), rates, params, 3)
            reasons |= {r.reason for r in new_decode_trials(cb, to_y1(), params, 60, 3, "indirect")}
        assert reasons == {"ok", "ambiguous", "none-typical"}

    def test_screen_on_zero_cells_and_full_support(self):
        params = TypicalityParams(8, 2.0)
        cb = build_wiretap_codebook(cloud(), WiretapRates(0.5, 0.75, 0.25), params, 1)
        y = ref.transmit(to_y1(), sim.encode(cb, 0, 0).x_seq, 0)
        for decoder in ("direct", "indirect"):
            plan = sim._decode_plan(cb, full_support(), params, decoder)
            assert allowed(plan).all()          # every codeword survives the screen
            plan = sim._decode_plan(cb, to_y1(), params, decoder)
            alive = allowed(plan)[np.arange(8), y].all(axis=0)
            assert 0 < alive.sum() < alive.size   # the screen removes some, not all

    def test_survivors_are_exactly_the_fully_typical(self):
        # the compact support check passes the same codewords as all cells
        params = TypicalityParams(8, 2.0)
        cb = build_wiretap_codebook(cloud(), WiretapRates(0.5, 0.75, 0.25), params, 5)
        W = to_y1().matrix
        p = (cb.p_v[:, None] * cb.p_x_given_v)[:, :, None] * W[None, :, :]
        lb, ub = sim.count_bounds(p, 8, 2.0)
        plan = sim._decode_plan(cb, to_y1(), params, "indirect")
        for t in range(20):
            y = ref.transmit(to_y1(), sim.encode(cb, t % cb.n_messages, t).x_seq, t)
            full = sim.typical_mask(sim.joint_counts(plan.bases + y, p.size), lb, ub)
            cand = np.flatnonzero(allowed(plan)[np.arange(8), y].all(axis=0))
            counts = sim.joint_counts(plan.index[plan.bases[cand] + y], plan.lb.size)
            assert np.array_equal(cand[sim.typical_mask(counts, plan.lb, plan.ub)],
                                  np.flatnonzero(full))

    def test_bad_decoder_and_channel(self):
        params = TypicalityParams(4, 2.0)
        cb = build_wiretap_codebook(cloud(), WiretapRates(0.5, 0.75, 0.25), params, 1)
        with pytest.raises(ValueError, match="direct or indirect"):
            sim.decoding_error_rate(cb, to_y1(), params, 5, 1, decoder="joint")
        with pytest.raises(DistributionError, match="X alphabet"):
            sim.decoding_error_rate(cb, bsc(0.1), params, 5, 1)


def assert_no_warnings(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


SCORE_WS = [
    [[0.8, 0.2], [0.25, 0.75]],               # asymmetric, so W and W.T differ
    [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]],       # zeros: the dead-position path
    [[1.0, 0.0], [0.3, 0.7]],                 # Z channel: a zero in row 0
    [[0.7, 0.2, 0.1], [0.15, 0.25, 0.6], [0.1, 0.3, 0.6]],
    [[0.0, 0.6, 0.4], [0.5, 0.0, 0.5], [0.3, 0.3, 0.4]],   # zeros at N(0, 0) and N(1, 1)
]
SCORE_CHANNELS = pytest.mark.parametrize("W", SCORE_WS,
                                         ids=["binary", "erasure", "z", "full3", "corner3"])


class TestMonteCarloScores:
    @pytest.mark.parametrize("n", [4, 6, 10, 16])
    @pytest.mark.parametrize("dist,rates", [
        (identity, WiretapRates(0.25, 0.5)),
        (satellites, WiretapRates(0.25, 0.5, 0.25)),
    ], ids=["identity", "satellites"])
    def test_scores_match_product_form(self, n, dist, rates):
        for seed in (0, 3):
            cb = build_wiretap_codebook(dist(), rates, TypicalityParams(n, 0.5), seed)
            want = ref.mc_samples(cb, bsc(0.2), 120, seed)
            got = assert_no_warnings(sim._mc_samples, cb, bsc(0.2).matrix, 120, seed)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            assert (got >= 0).all()

    def test_chunks_do_not_change_scores(self, monkeypatch):
        # 4,096 codewords: 40 trials are several default blocks, and 7 trials a block
        # ends in a short one, and four times the default buffer is a larger block
        default, params = sim._SCORE_CHUNK, TypicalityParams(24, 0.5)
        for W in map(np.asarray, SCORE_WS):
            cb = build_wiretap_codebook(identity(len(W)), WiretapRates(0.25, 0.5), params, 2)
            monkeypatch.setattr(sim, "_SCORE_CHUNK", default)
            whole = sim._mc_samples(cb, W, 40, 4)
            folds = sim._score_tables(cb.x_seqs.reshape(-1, 24), W)[1]
            chunk, buf, _ = sim._score_buffers(folds, 24, 40)
            assert chunk < 40
            for cells in (7 * len(buf) // chunk, 4 * default):
                monkeypatch.setattr(sim, "_SCORE_CHUNK", cells)
                assert np.array_equal(sim._mc_samples(cb, W, 40, 4), whole)

    @pytest.mark.parametrize("nx,W", [
        (2, [[1.0], [1.0]]),                     # |Z| = 1: no count matrix at all
        (1, [[0.3, 0.7]]),                       # |X| = 1
        (1, [[0.0, 1.0]]),                       # |X| = 1 with a zero cell
    ], ids=["one_output", "one_input", "one_input_zero"])
    def test_one_symbol_alphabets(self, nx, W):
        chan = ConditionalPmf(W)
        params = TypicalityParams(8, 0.5)
        cb = build_wiretap_codebook(identity(nx), WiretapRates(0.25, 0.5), params, 1)
        got = assert_no_warnings(sim._mc_samples, cb, chan.matrix, 40, 1)
        np.testing.assert_allclose(got, ref.mc_samples(cb, chan, 40, 1), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("W", [
        [[1.0, 0.0], [0.3, 0.7]],          # Z channel
        [[1.0, 0.0], [0.0, 1.0]],          # noiseless: most codewords cannot emit z
        [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]],  # binary erasure
    ], ids=["z", "noiseless", "erasure"])
    def test_zero_entries_give_no_nan_and_no_warning(self, W):
        chan = ConditionalPmf(W)
        for seed in range(4):
            cb = build_wiretap_codebook(identity(), WiretapRates(0.25, 0.5), TypicalityParams(8, 0.5), seed)
            got = assert_no_warnings(sim._mc_samples, cb, chan.matrix, 80, seed)
            assert np.isfinite(got).all() and (got >= 0).all()
            np.testing.assert_allclose(got, ref.mc_samples(cb, chan, 80, seed), rtol=0, atol=1e-12)
            rep = assert_no_warnings(sim.mc_equivocation, cb, chan, 80, seed)
            assert 0.0 <= rep.equivocation_rate <= rep.message_rate

    def test_message_without_possible_codeword(self):
        # noiseless channel, one codeword per message: every other message
        # has likelihood exactly 0, so each score is exactly 0
        cb = build_wiretap_codebook(identity(), WiretapRates(0.25, 0.25), TypicalityParams(8, 0.5), 5)
        assert len({tuple(s) for s in cb.v_seqs}) == cb.v_seqs.shape[0]
        got = assert_no_warnings(sim._mc_samples, cb, np.eye(2), 40, 1)
        assert np.array_equal(got, np.zeros(40))

    def test_report_matches_reference(self):
        cb = build_wiretap_codebook(satellites(), WiretapRates(0.25, 0.5, 0.25), TypicalityParams(12, 0.5), 9)
        got = sim.mc_equivocation(cb, bsc(0.15), 300, 2)
        want = ref.mc_equivocation(cb, bsc(0.15), 300, 2)
        for field in ("equivocation_rate", "leakage_rate", "message_rate", "ci_halfwidth"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=0, abs=1e-12)
        assert (got.trials, got.exact) == (want.trials, want.exact)

    def test_plain_floats(self):
        cb = build_wiretap_codebook(identity(), WiretapRates(0.25, 0.5), TypicalityParams(8, 0.5), 1)
        rep = sim.mc_equivocation(cb, bsc(0.2), 20, 1)
        for field in ("equivocation_rate", "leakage_rate", "message_rate", "ci_halfwidth"):
            assert type(getattr(rep, field)) is float, field

    @pytest.mark.parametrize("rows", [
        [[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]],
        [[0.9, 0.1]],
    ], ids=["three_rows", "one_row"])
    def test_channel_must_have_x_rows(self, rows):
        cb = build_wiretap_codebook(identity(), WiretapRates(0.25, 0.5), TypicalityParams(8, 0.5), 1)
        with pytest.raises(DistributionError, match="channel input must be the X alphabet"):
            sim.mc_equivocation(cb, ConditionalPmf(rows), 10, 1)


def score_inputs(W, n, rates):
    """A codebook over |X| = len(W), its ``_score_tables`` and three and a bit chunks of
    outputs of random codewords, as ``_mc_samples`` scores them."""
    W = np.asarray(W)
    cb = build_wiretap_codebook(identity(len(W)), rates, TypicalityParams(n, 0.5), 3)
    flat_x = cb.x_seqs.reshape(-1, n)
    x_ind, folds = sim._score_tables(flat_x, W)
    chunk = sim._score_buffers(folds, n, sim._SCORE_CHUNK)[0]
    rng = np.random.default_rng(n)
    z = sim.sample_given(W, flat_x[rng.integers(len(flat_x), size=3 * chunk + 1)], rng)
    return W, cb, (x_ind, folds), [z[i:i + chunk] for i in range(0, len(z), chunk)]


def fresh_scores(x_ind, folds, zs, n_m):
    """``_message_log_likelihoods`` of one chunk in buffers of its own."""
    _, buf, mask = sim._score_buffers(folds, zs.shape[1], len(zs))
    return sim._message_log_likelihoods(x_ind, folds, zs, n_m, buf, mask)


class TestKernels:
    """The product-law kernel against the loop it replaced, bit for bit, and the joint-type
    scores against the one-hot log-likelihood matmul they replaced."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
    @pytest.mark.parametrize("W", [
        [[0.8, 0.2], [0.35, 0.65]],
        [[1.0, 0.0], [0.3, 0.7]],                 # Z channel: zero entries
        [[0.7, 0.2, 0.1], [0.15, 0.25, 0.6]],
        [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]],       # binary erasure: zero entries
    ], ids=["bsc", "z", "full3", "erasure"])
    def test_zn_pmf_batch(self, n, W):
        x = np.random.default_rng(n).integers(2, size=(11, n))
        rows = np.asarray(W).take(x, axis=0)
        got = sim._zn_pmf_batch(rows)
        assert got.shape == (11, len(W[0]) ** n)
        assert np.array_equal(got, ref.zn_pmf_batch(rows))

    @SCORE_CHANNELS
    @pytest.mark.parametrize("n,rates", [
        (12, WiretapRates(0.25, 0.5)),
        (16, WiretapRates(0.25, 0.5)),
        (1200, WiretapRates(0.002, 0.004)),       # few codewords, long counts
        (24, WiretapRates(0.25, 0.5)),            # 4,096 codewords
    ])
    def test_message_log_likelihoods(self, W, n, rates):
        # the folded sums round differently from a BLAS sum of n logs: a few ulps of |ll|
        W, cb, (x_ind, folds), chunks = score_inputs(W, n, rates)
        onehot, logw, dead = ref.score_tables(cb, W)
        n_finite = n_inf = 0
        for zs in chunks:
            want = ref.message_log_likelihoods(onehot, logw, dead, zs, cb.n_messages)
            got = assert_no_warnings(fresh_scores, x_ind, folds, zs, cb.n_messages)
            assert np.array_equal(np.isneginf(got), np.isneginf(want)) and not np.isnan(got).any()
            ok = np.isfinite(want)
            assert (np.abs(got[ok] - want[ok]) <= 1e-14 * np.maximum(1.0, np.abs(want[ok]))).all()
            n_finite += ok.sum()
            n_inf += (~ok).sum()
        assert n_finite and (n_inf or not (W == 0).any())   # both kinds where W has a zero

    @SCORE_CHANNELS
    @pytest.mark.parametrize("n,rates", [
        (16, WiretapRates(0.25, 0.5)),
        (1200, WiretapRates(0.002, 0.004)),
    ])
    def test_scores_do_not_depend_on_operand_layout(self, W, n, rates):
        # the counts are exact integers, so BLAS may sum them in any order its kernel picks
        _, cb, (x_ind, folds), chunks = score_inputs(W, n, rates)
        for zs in chunks:
            want = fresh_scores(x_ind, folds, zs, cb.n_messages)
            for x_op in (x_ind, np.asfortranarray(x_ind)):
                for z_op in (zs, np.asfortranarray(zs)):
                    got = fresh_scores(x_op, folds, z_op, cb.n_messages)
                    assert np.array_equal(got, want)

    @SCORE_CHANNELS
    @pytest.mark.parametrize("n,rates", [
        (16, WiretapRates(0.25, 0.5)),
        (1200, WiretapRates(0.002, 0.004)),
    ])
    def test_reused_buffers_keep_inputs_and_bits(self, W, n, rates):
        # as _mc_samples scores its blocks: every chunk, the short last one too, in one buffer
        _, cb, (x_ind, folds), chunks = score_inputs(W, n, rates)
        kept = [x_ind.copy()] + [a.copy() for f in folds for a in f[:3]]
        _, buf, mask = sim._score_buffers(folds, n, len(chunks[0]))
        for zs in chunks:
            got = sim._message_log_likelihoods(x_ind, folds, zs, cb.n_messages, buf, mask)
            assert np.array_equal(got, fresh_scores(x_ind, folds, zs, cb.n_messages))
        after = [x_ind] + [a for f in folds for a in f[:3]]
        assert all(np.array_equal(a, b) for a, b in zip(after, kept, strict=True))


UNDERFLOW = """
import numpy as np
from wiretap3.bounds import build_factored
from wiretap3.probability import bsc
from wiretap3 import simulate as sim
d = build_factored("wiretap", {"V": 2, "X": 2}, [np.array([[0.5, 0.5]]), np.eye(2)])
for n, trials in ((1200, 200), (2000, 100)):
    for seed in range(1, 6):
        cb = sim.build_wiretap_codebook(
            d, sim.WiretapRates(0.002, 0.004), sim.TypicalityParams(n, 0.5), seed)
        rep = sim.mc_equivocation(cb, bsc(0.3), trials, seed)
        if not 0.0 <= rep.equivocation_rate <= rep.message_rate:
            raise SystemExit(f"n={n} seed={seed}: {rep.equivocation_rate}")
print("ok")
"""


BLAS_THREADS = """
import hashlib
import numpy as np
from wiretap3.bounds import build_factored
from wiretap3.probability import bsc
from wiretap3 import simulate as sim
d = build_factored("wiretap", {"V": 2, "X": 2}, [np.array([[0.5, 0.5]]), np.eye(2)])
for n, rates, trials in ((24, (0.25, 0.5), 300), (1200, (0.002, 0.004), 100)):
    cb = sim.build_wiretap_codebook(d, sim.WiretapRates(*rates), sim.TypicalityParams(n, 0.5), 7)
    print(n, hashlib.sha256(sim._mc_samples(cb, bsc(0.3).matrix, trials, 7).tobytes()).hexdigest())
"""


def test_scores_do_not_depend_on_blas_threads():
    out = {}
    for threads in ("1", "2"):
        env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin",
               "OPENBLAS_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", BLAS_THREADS], env=env, capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        out[threads] = run.stdout
    assert out["1"] == out["2"] and len(out["1"].splitlines()) == 2


class TestUnderflow:
    """At n = 1200 every likelihood product underflows; log-domain scores do not."""

    @pytest.mark.parametrize("n,trials", [(1200, 200), (2000, 100)])
    def test_equivocation_in_range(self, n, trials):
        for seed in range(1, 6):
            cb = build_wiretap_codebook(identity(), WiretapRates(0.002, 0.004), TypicalityParams(n, 0.5), seed)
            assert np.prod(np.full(n, 0.7)) < 1e-180   # the old products are near or below the subnormals
            rep = assert_no_warnings(sim.mc_equivocation, cb, bsc(0.3), trials, seed)
            assert 0.0 <= rep.equivocation_rate <= rep.message_rate
            assert rep.leakage_rate <= rep.message_rate

    def test_under_python_O(self):
        env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
        out = subprocess.run(
            [sys.executable, "-O", "-c", UNDERFLOW], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"


def marton_dist(correlated=False):
    pq = np.array([[1.0]])
    pv0 = np.array([[0.5, 0.5]])
    if correlated:
        pv12 = np.array([[0.4, 0.1, 0.1, 0.4], [0.1, 0.4, 0.4, 0.1]])
    else:
        p1 = np.array([[0.7, 0.3], [0.2, 0.8]])
        p2 = np.array([[0.5, 0.5], [0.4, 0.6]])
        pv12 = (p1[:, :, None] * p2[:, None, :]).reshape(2, 4)
    px = np.zeros((8, 2))
    for v0 in range(2):
        for v1 in range(2):
            for v2 in range(2):
                px[(v0 * 2 + v1) * 2 + v2] = [0.85, 0.15] if v1 == 0 else [0.2, 0.8]
    return build_factored(
        "theorem1", {"Q": 1, "V0": 2, "V1": 2, "V2": 2, "X": 2}, [pq, pv0, pv12, px]
    )


class TestMartonConditionals:
    @pytest.mark.parametrize("correlated", [False, True])
    @pytest.mark.parametrize("rates,params,outcomes", [
        # no failures; some unpaired bins; whole messages unpaired (orphans)
        (MartonRates(0.25, 0.5, 0.5, 0.5, 0.25, 0.25), TypicalityParams(8, 8.0), {"clean"}),
        (MartonRates(0.25, 0.75, 0.5, 0.5, 0.25, 0.25), TypicalityParams(8, 1.0), {"failures"}),
        (MartonRates(1 / 6, 0.5, 0.34, 0.34, 0.17, 0.17), TypicalityParams(6, 1.0),
         {"failures", "orphan"}),
    ])
    def test_bitwise_equal(self, correlated, rates, params, outcomes):
        seen = set()
        for seed in range(6):
            cb = build_marton_codebook(marton_dist(correlated), rates, params, seed)
            try:
                want = ref.marton_conditionals(cb, bsc(0.2))
            except DistributionError as e:
                seen.add("orphan")
                with pytest.raises(DistributionError, match=f"^{e}$"):
                    sim._message_conditionals(cb, bsc(0.2), sim.DEFAULT_CAPS)
                continue
            got = sim._message_conditionals(cb, bsc(0.2), sim.DEFAULT_CAPS)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
            seen.add("failures" if want[1] > 0 else "clean")
        assert seen == outcomes

    def test_orphaned_message_same_error(self):
        rates = MartonRates(0.5, 0.5, 0.34, 0.34, 0.17, 0.17)
        raised = 0
        for seed in range(30):
            cb = build_marton_codebook(marton_dist(), rates, TypicalityParams(6, 0.8), seed)
            try:
                ref.marton_conditionals(cb, bsc(0.2))
            except DistributionError as e:
                raised += 1
                with pytest.raises(DistributionError, match=f"^{e}$"):
                    sim._message_conditionals(cb, bsc(0.2), sim.DEFAULT_CAPS)
        assert raised


def lemma1_dist():
    from wiretap3.probability import Factor, FactoredDistribution

    return FactoredDistribution(
        [("U", 2), ("V", 2), ("Z", 2)],
        [Factor(["U"], [], [[0.5, 0.5]]),
         Factor(["V"], ["U"], bsc(0.25)),
         Factor(["Z"], ["V"], bsc(0.25))],
    )


class TestMartonPairing:
    @pytest.mark.parametrize("correlated", [False, True])
    @pytest.mark.parametrize("rates,params", [
        (MartonRates(0.25, 0.5, 0.5, 0.5, 0.25, 0.25), TypicalityParams(8, 8.0)),
        (MartonRates(0.25, 0.75, 0.5, 0.5, 0.25, 0.25), TypicalityParams(8, 1.0)),
        (MartonRates(1 / 6, 0.5, 0.34, 0.34, 0.17, 0.17), TypicalityParams(6, 1.0)),
        (MartonRates(0.25, 0.5, 0.75, 0.5, 0.25, 0.5), TypicalityParams(8, 1.0)),  # 4 x 1 bins
    ])
    def test_matches_per_bin_argwhere(self, correlated, rates, params):
        paired = set()
        for seed in range(6):
            got = build_marton_codebook(marton_dist(correlated), rates, params, seed)
            want = ref.build_marton_codebook(marton_dist(correlated), rates, params, seed)
            for field in ("q_seq", "v0_seqs", "v1_seqs", "v2_seqs", "pairing"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
            paired |= set((want.pairing[..., 0] >= 0).ravel().tolist())
        assert True in paired


class TestLemma1:
    @pytest.mark.parametrize("n,s_rate", [(4, 0.443), (8, 0.443), (10, 0.6), (12, 0.3)])
    def test_bitwise_equal(self, n, s_rate):
        for seed in (1, 5):
            params = TypicalityParams(n, 2.0)
            assert sim.lemma1_experiment(lemma1_dist(), s_rate, params, 150, seed) == (
                ref.lemma1_experiment(lemma1_dist(), s_rate, params, 150, seed)
            )

    def test_chunks_do_not_change_report(self, monkeypatch):
        params = TypicalityParams(8, 1.0)
        want = ref.lemma1_experiment(lemma1_dist(), 0.5, params, 101, 3)
        monkeypatch.setattr(sim, "_COUNT_CHUNK", 16 * 8 * 10)  # 10 trials a chunk, last one short
        assert sim.lemma1_experiment(lemma1_dist(), 0.5, params, 101, 3) == want

    @pytest.mark.parametrize("p_u", [[0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [0.0, 1.0, 0.0]])
    def test_zero_in_p_u(self, monkeypatch, p_u):
        from wiretap3.probability import Factor, FactoredDistribution

        dist = FactoredDistribution(
            [("U", 3), ("V", 2), ("Z", 2)],
            [Factor(["U"], [], [p_u]),
             Factor(["V"], ["U"], [[0.75, 0.25], [0.5, 0.5], [0.25, 0.75]]),
             Factor(["Z"], ["V"], bsc(0.25))],
        )
        params = TypicalityParams(8, 2.0)
        for seed in (2, 9):
            want = ref.lemma1_experiment(dist, 0.5, params, 60, seed)
            assert sim.lemma1_experiment(dist, 0.5, params, 60, seed) == want
        monkeypatch.setattr(sim, "_COUNT_CHUNK", 16 * 8 * 7)  # 7 trials a chunk, last one short
        assert sim.lemma1_experiment(dist, 0.5, params, 60, 9) == want

    def test_iid_symbols_are_numpy_choice(self):
        for p in ([1.0], [0.5, 0.5], [0.2, 0.0, 0.8], [0.3, 0.7, 0.0, 0.0], [0.0, 0.0, 1.0],
                  [1 / 3] * 3, [0.1, 0.2, 0.3, 0.4]):
            for seed in range(4):
                got = sim._iid_symbols(np.array(p), np.random.default_rng(seed).random((5, 9)))
                want = ref.sample_iid(np.array(p), 9, np.random.default_rng(seed), size=5)
                assert got.dtype == want.dtype and np.array_equal(got, want)


class TestTrialsAtLeastOne:
    @pytest.mark.parametrize("trials", [0, -3])
    def test_rejected(self, trials):
        params = TypicalityParams(4, 2.0)
        cb = build_wiretap_codebook(identity(), WiretapRates(0.25, 0.5), params, 1)
        with pytest.raises(ValueError, match="trials"):
            sim.decoding_error_rate(cb, bsc(0.1), params, trials, 1)
        with pytest.raises(ValueError, match="trials"):
            sim.mc_equivocation(cb, bsc(0.1), trials, 1)
        with pytest.raises(ValueError, match="trials"):
            sim.lemma1_experiment(lemma1_dist(), 0.5, params, trials, 1)
