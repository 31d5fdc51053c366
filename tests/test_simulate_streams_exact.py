"""Batched trial streams and split-half exact equivocation against what they replace.

``streams.seed_states`` recomputes numpy's ``SeedSequence`` hashing for a
whole batch of streams at once, and ``streams.Streams`` draws as numpy's
PCG64 ``Generator`` does, for every stream of a block at once: every state
row and every draw must equal numpy's own generators', bit for bit.  The
wiretap conditionals are summed as one matmul of head and tail product
laws; they must match the per-message loop kept in ``reference_simulate``
within 1e-12.
"""

import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference_simulate as ref
from test_simulate_batched import cloud, identity, lemma1_dist, satellites
from wiretap3 import simulate as sim
from wiretap3 import streams
from wiretap3.probability import ConditionalPmf, DistributionError, bsc
from wiretap3.simulate import TypicalityParams, WiretapRates, build_wiretap_codebook

ROOT = Path(__file__).resolve().parents[1]

_draw = random.Random(20091)
SEEDS = [0, 1, 2**31 - 1, 2**32, 2**64 + 5] + [_draw.randrange(2**63) for _ in range(4)] + [
    _draw.randrange(2**200)
]
TS = np.array([0, 1, 2, 1023, 1024, 2**31, 2**32 - 1] + [_draw.randrange(2**32) for _ in range(9)])


def numpy_state(seed, key):
    return np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)


class TestSeedStates:
    @pytest.mark.parametrize("key", [(3,), (1,), (0,)])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_trial_index_batch(self, seed, key):
        got = streams.seed_states(seed, key + (TS,))
        want = np.array([numpy_state(seed, key + (int(t),)) for t in TS])
        assert got.dtype == np.uint64 and np.array_equal(got, want)

    def test_seed_batch(self):
        # the per-trial encoding streams: seeds vary, the key is the role alone
        seeds = np.array([0, 1, 2**31 - 1, 2**32 - 1] + [_draw.randrange(2**31) for _ in range(60)])
        for key in ((1,), (3, 7)):
            got = streams.seed_states(seeds, key)
            assert np.array_equal(got, [numpy_state(int(s), key) for s in seeds])

    def test_generators_draw_alike(self):
        for seed in (0, 2**64 + 5, 123456789):
            got = streams.Streams(seed, 3, TS)
            want = [sim._rng(seed, 3, int(t)) for t in TS]
            assert pcg_states(got) == [g.bit_generator.state["state"] for g in want]
            assert got.integers(1 << 31).tolist() == [int(g.integers(1 << 31)) for g in want]
            assert np.array_equal(got.random(5), [g.random(5) for g in want])

    def test_trial_streams_across_blocks(self, monkeypatch):
        monkeypatch.setattr(sim, "_STREAM_BLOCK", 7)   # blocks of 7 trials or whole chunks
        want = [int(sim._rng(41, 3, t).integers(1 << 31)) for t in range(24)]
        for chunk in (1, 3, 5, 10, 30):
            firsts, got = [], []
            for first, block in sim._trial_blocks(41, 24, chunk):
                firsts.append(first)
                got += block.integers(1 << 31).tolist()
            per = chunk * max(1, 7 // chunk)
            assert firsts == list(range(0, 24, per)) and got == want, chunk

    def test_out_of_range_words_raise(self):
        with pytest.raises(ValueError, match="non-negative"):
            streams.seed_states(-1, (3, np.arange(4)))
        for bad in (np.array([-1, 0]), np.array([0, 2**32])):
            with pytest.raises(ValueError, match=r"\[0, 2\^32\)"):
                streams.seed_states(5, (3, bad))


def pcg_states(block):
    """Each stream's PCG64 state as ``bit_generator.state["state"]`` reads it."""
    hi, lo, inc_hi, inc_lo = (r.tolist() for r in block.w[:4])
    return [{"state": h << 64 | lo_, "inc": ih << 64 | il}
            for h, lo_, ih, il in zip(hi, lo, inc_hi, inc_lo)]


def trial_pair(seed=2009, count=200, key=3):
    """A block of trial streams and the ``_rng`` generators it stands for."""
    return streams.Streams(seed, key, np.arange(count)), [
        sim._rng(seed, key, t) for t in range(count)]


def draw(block, gens, kind, arg):
    """One draw of every stream both ways: (block's, generators' stacked)."""
    if kind == "integers":
        return block.integers(arg), np.array([g.integers(arg) for g in gens])
    return block.random(arg), np.array([g.random(arg) for g in gens])


SHORT, LONG = streams.SHORT_RUN, streams.SHORT_RUN + 1


class TestBlockDraws:
    """Every draw kind of ``Streams`` against ``_rng(seed, key..., t)``, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 1 << 20, (1 << 20) + 3, 1 << 31,
                                   3 << 30, (1 << 32) - 5, 1 << 32])
    def test_integers(self, n):
        # 3 << 30 rejects a quarter of its first draws; 1 draws nothing
        block, gens = trial_pair()
        for _ in range(5):
            got, want = draw(block, gens, "integers", n)
            assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
        assert pcg_states(block) == [g.bit_generator.state["state"] for g in gens]

    @pytest.mark.parametrize("shape", [1, 7, SHORT, LONG, (5, 12), (65, 12), 1200])
    def test_random_both_sides_of_the_cut(self, shape):
        block, gens = trial_pair()
        for _ in range(2):
            got, want = draw(block, gens, "random", shape)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert pcg_states(block) == [g.bit_generator.state["state"] for g in gens]

    def test_uint32_carry_through_every_kind(self):
        # integers(3) leaves half of a 64-bit draw buffered; random draws around it
        block, gens = trial_pair()
        steps = [("integers", 3), ("random", 7), ("integers", 5), ("random", (3, 400)),
                 ("integers", 7), ("integers", 3 << 30), ("random", SHORT), ("integers", 1),
                 ("integers", 1 << 31), ("random", LONG), ("integers", 2)]
        for kind, arg in steps:
            got, want = draw(block, gens, kind, arg)
            assert got.tobytes() == want.tobytes(), (kind, arg)
        assert pcg_states(block) == [g.bit_generator.state["state"] for g in gens]
        assert block.w[4].tolist() == [g.bit_generator.state["has_uint32"] for g in gens]

    @pytest.mark.parametrize("shape", [6, (LONG,)])
    @pytest.mark.parametrize("chunk", [1, 7, 200, 500])
    def test_random_chunks_split_a_block(self, shape, chunk):
        # the states advance at the call, so a later draw may come before the pieces
        block, gens = trial_pair()
        pieces = block.random_chunks(shape, chunk)
        after = block.integers(5)
        want = np.array([g.random(shape) for g in gens])
        rows = []
        for piece_rows, piece in pieces:
            assert piece.tobytes() == want[piece_rows].tobytes()
            rows.append(piece_rows)
        assert rows == [slice(a, a + chunk) for a in range(0, 200, chunk)]
        assert after.tolist() == [int(g.integers(5)) for g in gens]

    def test_encoder_streams_from_drawn_seeds(self):
        cb = build_wiretap_codebook(satellites(), WiretapRates(0.25, 0.75, 0.25),
                                    TypicalityParams(8, 0.5), 4)
        assert cb.bin_size > 1 and cb.x_seqs.shape[1] > 1
        block, gens = trial_pair()
        sent, seeds = block.integers(cb.n_messages), block.integers(1 << 31)
        want = [(int(g.integers(cb.n_messages)), int(g.integers(1 << 31))) for g in gens]
        assert list(zip(sent.tolist(), seeds.tolist())) == want
        enc, encs = streams.Streams(seeds, 1), [sim._rng(int(s), 1) for s in seeds]
        assert pcg_states(enc) == [e.bit_generator.state["state"] for e in encs]
        got = np.stack(sim._wiretap_pick(cb, sent, enc), axis=1)
        want = [sim._wiretap_pick(cb, int(m), e) for m, e in zip(sent, encs)]
        assert got.tolist() == [[int(v) for v in pick] for pick in want]
        assert np.array_equal(enc.random(5), [e.random(5) for e in encs])

    def test_integers_out_of_range_raise(self):
        block, _ = trial_pair(count=3)
        for n in (0, -1, (1 << 32) + 1):
            with pytest.raises(ValueError, match="1 <= n <= 2\\^32"):
                block.integers(n)


class TestNegativeSeed:
    """A negative seed raises the ValueError numpy's SeedSequence raised."""

    def test_every_trial_loop(self):
        params = TypicalityParams(4, 2.0)
        cb = build_wiretap_codebook(identity(), WiretapRates(0.25, 0.5), params, 1)
        for call in (
            lambda: sim._rng(-1, 3, 0),
            lambda: sim.decoding_error_rate(cb, bsc(0.1), params, 5, -1),
            lambda: ref.decoding_error_rate(cb, bsc(0.1), params, 5, -1),
            lambda: sim.mc_equivocation(cb, bsc(0.1), 5, -1),
            lambda: ref.mc_equivocation(cb, bsc(0.1), 5, -1),
            lambda: sim.lemma1_experiment(lemma1_dist(), 0.5, params, 5, -1),
            lambda: ref.lemma1_experiment(lemma1_dist(), 0.5, params, 5, -1),
        ):
            with pytest.raises(ValueError, match="expected non-negative integer"):
                call()


class TestSampler:
    """The boundary-count sampler draws what the cumsum-argmax sampler drew."""

    @pytest.mark.parametrize("cols", [1, 2, 3, 5])
    def test_matches_argmax_form(self, cols):
        gen = np.random.default_rng(cols)
        chans = [gen.dirichlet(np.ones(cols), size=4), np.eye(cols)]
        if cols > 1:
            dusty = gen.dirichlet(np.ones(cols), size=3)
            dusty[0, 0] = -1e-12          # a tiny negative entry
            if cols >= 3:                 # a raw row whose cumsum dips: 0.5, 0.3, 1.0
                dusty[0] = 0.0
                dusty[0, :3] = (0.5, -0.2, 0.7)
            dusty[1, -1] += 3e-9          # the row sum overshoots 1
            dusty[2, :] = 0.0
            dusty[2, -1] = 1.0            # all mass on the last symbol
            chans.append(dusty)
        for chan in chans:
            for shape in ((12,), (6, 9), (3, 2, 40)):
                given = gen.integers(len(chan), size=shape)
                for seed in range(5):
                    got = sim.sample_given(chan, given, np.random.default_rng(seed))
                    want = ref.sample_given(chan, given, np.random.default_rng(seed))
                    assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_u_on_a_boundary(self):
        # u exactly equal to a cumulative sum falls to the next symbol in both forms
        class Fixed:
            def random(self, shape):
                return np.full(shape, 0.25)
        chan = np.array([[0.25, 0.5, 0.25], [0.5, 0.25, 0.25]])
        given = np.array([0, 1, 0])
        assert np.array_equal(sim.sample_given(chan, given, Fixed()),
                              ref.sample_given(chan, given, Fixed()))
        assert sim.sample_given(chan, given, Fixed()).tolist() == [1, 0, 1]


IMPORT_PROBE = """
import sys
import wiretap3.cli
print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
import numpy as np
from wiretap3 import streams
streams.Streams(1, 3, np.arange(2)).random(streams.SHORT_RUN + 1)
print("numpy.random.bit_generator" in sys.modules)
"""


def test_cli_import_leaves_numpy_random_unloaded():
    # loading numpy.random costs set-up time on every CLI call that never draws
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                         text=True, timeout=120)
    if out.returncode != 0:
        pytest.fail(out.stderr)
    lines = out.stdout.split()
    if lines != ["[]", "True"]:
        pytest.fail(f"numpy.random modules after import, then after a long draw: {out.stdout!r}")


CHANNELS = {
    "bsc": (identity, bsc(0.2)),
    "z": (identity, ConditionalPmf([[1.0, 0.0], [0.3, 0.7]])),
    "erasure": (satellites, ConditionalPmf([[0.6, 0.4, 0.0], [0.0, 0.4, 0.6]])),
    "cloud_4x3": (cloud, ConditionalPmf([[0.7, 0.2, 0.1], [0.25, 0.5, 0.25],
                                         [0.1, 0.3, 0.6], [0.2, 0.2, 0.6]])),
    "cloud_zero": (cloud, ConditionalPmf([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.9, 0.1]])),
}


class TestSplitHalfExact:
    @pytest.mark.parametrize("name", sorted(CHANNELS))
    @pytest.mark.parametrize("n,rates", [
        (1, WiretapRates(1.0, 1.0)),              # h = 0: the head is the empty product
        (2, WiretapRates(0.5, 1.0, 0.5)),
        (5, WiretapRates(0.2, 0.6, 0.4)),         # odd n, satellites
        (7, WiretapRates(0.3, 0.6)),
        (8, WiretapRates(0.25, 0.75, 0.25)),
    ])
    def test_matches_per_message_loop(self, name, n, rates):
        dist, chan = CHANNELS[name]
        for seed in (0, 4):
            cb = build_wiretap_codebook(dist(), rates, TypicalityParams(n, 0.5), seed)
            if rates.satellite:
                assert cb.x_seqs.shape[1] > 1
            want, _ = ref.wiretap_conditionals(cb, chan)
            got, fail = sim._message_conditionals(cb, chan, sim.DEFAULT_CAPS)
            assert fail == 0.0 and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-12)

            rep = sim.exact_equivocation(cb, chan)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sim, "_message_conditionals", lambda *a: ref.wiretap_conditionals(*a))
                old = sim.exact_equivocation(cb, chan)
            for field in ("equivocation_rate", "leakage_rate", "message_rate"):
                assert getattr(rep, field) == pytest.approx(getattr(old, field), rel=0, abs=1e-12)
            assert rep.equivocation_rate + rep.leakage_rate == pytest.approx(
                rep.message_rate, rel=0, abs=1e-12)
            assert rep.equivocation_rate >= -1e-12

    def test_caps_and_errors_unchanged(self):
        cb = build_wiretap_codebook(identity(), WiretapRates(0.25, 0.5), TypicalityParams(8, 0.5), 1)
        for caps in (sim.Caps(max_exact_outputs=255), sim.Caps(max_exact_work=256 * 15)):
            with pytest.raises(sim.CapExceededError) as new:
                sim._message_conditionals(cb, bsc(0.2), caps)
            with pytest.raises(sim.CapExceededError) as old:
                ref.wiretap_conditionals(cb, bsc(0.2), caps)
            assert str(new.value) == str(old.value)
        with pytest.raises(DistributionError, match="X alphabet"):
            sim._message_conditionals(cb, ConditionalPmf([[0.5, 0.5]] * 3), sim.DEFAULT_CAPS)


class TestCapsValidation:
    @pytest.mark.parametrize("value", [0, -1, 1.5, True, "8"])
    def test_bad_values(self, value):
        with pytest.raises(ValueError, match="max_exact_outputs must be an integer >= 1"):
            sim.Caps(max_exact_outputs=value)

    def test_smallest_cap_is_one(self):
        assert sim.Caps(1, 1, 1).max_exact_work == 1
