"""Finite-blocklength simulator: codebooks, decoding, exact equivocation."""

from fractions import Fraction

import numpy as np
import pytest

from wiretap3.bounds import build_factored
from wiretap3.probability import ConditionalPmf, bsc, cascade
from wiretap3.simulate import (
    CapExceededError,
    Caps,
    MartonRates,
    TypicalityParams,
    WiretapRates,
    _rng,
    build_marton_codebook,
    build_wiretap_codebook,
    count_bounds,
    decode_direct,
    decode_indirect,
    decoding_error_rate,
    encode,
    exact_equivocation,
    lemma1_experiment,
    mc_equivocation,
)
from reference_simulate import bin_range, message_of, transmit
from reference_simulate import sample_given as ref_sample_given


def vx_identity(nx=2):
    return build_factored(
        "wiretap", {"V": nx, "X": nx}, [np.full((1, nx), 1.0 / nx), np.eye(nx)]
    )


def vx_with_satellites():
    p_xv = np.array([[0.6, 0.4], [0.3, 0.7]])
    return build_factored("wiretap", {"V": 2, "X": 2}, [np.array([[0.5, 0.5]]), p_xv])


def marton_dist():
    pq = np.array([[1.0]])
    pv0 = np.array([[0.5, 0.5]])
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


class TestCodebookArithmetic:
    def test_one_codeword_per_bin_when_rates_equal(self):
        cb = build_wiretap_codebook(
            vx_identity(), WiretapRates(0.5, 0.5, 0.0), TypicalityParams(4, 0.5), seed=0
        )
        assert cb.bin_size == 1
        assert cb.n_messages == 4

    def test_bin_formula(self):
        # n=4, total rate 1, message rate 0.5: 16 sequences in 4 bins of 4
        cb = build_wiretap_codebook(
            vx_identity(), WiretapRates(0.5, 1.0, 0.0), TypicalityParams(4, 0.5), seed=0
        )
        assert cb.v_seqs.shape == (16, 4)
        assert cb.n_messages == 4 and cb.bin_size == 4
        assert list(bin_range(cb, 1)) == [4, 5, 6, 7]
        assert message_of(cb, 7) == 1

    def test_seed_reproducibility(self):
        a = build_wiretap_codebook(
            vx_with_satellites(), WiretapRates(0.5, 1.0, 0.5), TypicalityParams(4, 0.5), 42
        )
        b = build_wiretap_codebook(
            vx_with_satellites(), WiretapRates(0.5, 1.0, 0.5), TypicalityParams(4, 0.5), 42
        )
        assert np.array_equal(a.v_seqs, b.v_seqs)
        assert np.array_equal(a.x_seqs, b.x_seqs)
        c = build_wiretap_codebook(
            vx_with_satellites(), WiretapRates(0.5, 1.0, 0.5), TypicalityParams(4, 0.5), 43
        )
        assert not np.array_equal(a.v_seqs, c.v_seqs) or not np.array_equal(
            a.x_seqs, c.x_seqs
        )

    def test_memory_cap(self):
        with pytest.raises(CapExceededError):
            build_wiretap_codebook(
                vx_identity(), WiretapRates(1.0, 2.0, 2.0),
                TypicalityParams(16, 0.5), 0, Caps(max_codebook_entries=1000),
            )

    def test_total_below_message_rejected(self):
        with pytest.raises(ValueError):
            build_wiretap_codebook(
                vx_identity(), WiretapRates(1.0, 0.5, 0.0), TypicalityParams(4, 0.5), 0
            )

    def test_numeric_inputs_are_typed(self):
        # numpy scalars are numbers; a bool is not
        params = TypicalityParams(np.int64(4), np.float64(0.5), delta=0, delta1=Fraction(1, 10))
        cb = build_wiretap_codebook(vx_identity(), WiretapRates(0.5, np.float32(1), 0), params, 0)
        assert cb.v_seqs.shape == (16, 4)
        for bad, message in (
            (lambda: TypicalityParams(True, 0.5), "blocklength n must be an integer, got True"),
            (lambda: TypicalityParams(4, 0.5, delta=True), "delta must be a real number"),
            (lambda: build_wiretap_codebook(vx_identity(), WiretapRates(0.5, 1.0, None), params,
                                            0), "rates must be real numbers, got None"),
            (lambda: mc_equivocation(cb, bsc(0.1), np.float64(4), 0), "trials must be an integer"),
        ):
            with pytest.raises(ValueError, match=message):
                bad()


def _marton_codebook(n=4):
    return build_marton_codebook(
        marton_dist(), MartonRates(0.25, 0.5, 0.5, 0.5, 0.25, 0.25), TypicalityParams(n, 8.0), 3
    )


class TestValidation:
    @pytest.mark.parametrize("call,error,message", [
        (lambda: TypicalityParams(0), ValueError, "blocklength n must be >= 1"),
        (lambda: TypicalityParams(4, 0), ValueError, "epsilon must be positive"),
        (lambda: TypicalityParams(4, -0.5), ValueError, "epsilon must be positive"),
        (lambda: build_wiretap_codebook(vx_identity(), WiretapRates(0.5, 1.0, -0.25),
                                        TypicalityParams(4, 0.5), 0),
         ValueError, "rates must be non-negative"),
        (lambda: build_marton_codebook(vx_identity(), MartonRates(0.25, 0.5, 0.5, 0.5, 0.25, 0.25),
                                       TypicalityParams(4, 8.0), 0),
         ValueError, "Marton codebooks need a theorem1-pattern distribution"),
        (lambda: build_marton_codebook(marton_dist(), MartonRates(0.25, 0.5, 0.25, 0.5, 0.5, 0.25),
                                       TypicalityParams(4, 8.0), 0),
         ValueError, "bin exponents cannot exceed their layer exponents"),
        (lambda: build_marton_codebook(marton_dist(), MartonRates(0.25, 0.5, 0.5, 0.5, 0.25, 0.25),
                                       TypicalityParams(4, 8.0), 0, Caps(max_codebook_entries=100)),
         CapExceededError, "codebook needs 148 symbols > cap"),
        # 2^4 codewords pass the exponent check; 16 x 4 x (1 + 1) symbols do not
        (lambda: build_wiretap_codebook(vx_identity(), WiretapRates(0.25, 1.0),
                                        TypicalityParams(4), 0, Caps(max_codebook_entries=100)),
         CapExceededError, "codebook needs 128 stored symbols > cap 100"),
        (lambda: exact_equivocation(_marton_codebook(), bsc(0.1), Caps(max_exact_work=1)),
         CapExceededError, "exact equivocation work above cap"),
        (lambda: mc_equivocation(_marton_codebook(), bsc(0.1), 4, 0),
         TypeError, "mc_equivocation supports superposition codebooks"),
        (lambda: lemma1_experiment(TestLemma1().dist(), 0.5, TypicalityParams(8, 0.5), 50, 1,
                                   Caps(max_codebook_entries=100)),
         CapExceededError, "lemma1 experiment size above cap"),
    ])
    def test_out_of_range_input_raises(self, call, error, message):
        with pytest.raises(error, match=message):
            call()


class TestEncode:
    def test_single_codeword_codebook(self):
        cb = build_wiretap_codebook(
            vx_identity(), WiretapRates(0.0, 0.0, 0.0), TypicalityParams(4, 0.5), 1
        )
        for seed in range(5):
            enc = encode(cb, 0, seed)
            assert np.array_equal(enc.x_seq, cb.x_seqs[0, 0])

    def test_uniform_bin_member_choice(self):
        cb = build_wiretap_codebook(
            vx_identity(), WiretapRates(0.25, 0.75, 0.0), TypicalityParams(4, 0.5), 1
        )
        counts = np.zeros(cb.bin_size)
        trials = 4000
        for seed in range(trials):
            enc = encode(cb, 1, seed)
            counts[enc.l0 - cb.bin_size] += 1
        expected = trials / cb.bin_size
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 16.3  # chi2_{0.999, df=3}

    def test_deterministic_x_given_v(self):
        cb = build_wiretap_codebook(
            vx_identity(), WiretapRates(0.5, 0.5, 0.0), TypicalityParams(6, 0.5), 3
        )
        enc = encode(cb, 2, 7)
        assert np.array_equal(enc.x_seq, cb.v_seqs[enc.l0])

    def test_message_out_of_range(self):
        cb = build_wiretap_codebook(
            vx_identity(), WiretapRates(0.5, 0.5, 0.0), TypicalityParams(4, 0.5), 0
        )
        with pytest.raises(ValueError):
            encode(cb, 99, 0)


class TestDecode:
    def test_noiseless_distinct_codewords_decode(self):
        cb = build_wiretap_codebook(
            vx_identity(), WiretapRates(0.25, 0.25, 0.0), TypicalityParams(8, 1.0), 5
        )
        # make sure codewords are distinct for this seed
        assert len({tuple(s) for s in cb.v_seqs}) == cb.v_seqs.shape[0]
        chan = ConditionalPmf.identity(2)
        for m in range(cb.n_messages):
            enc = encode(cb, m, m)
            res = decode_direct(cb, enc.x_seq, TypicalityParams(8, 1.0), chan)
            assert res.ok and res.message == m

    def test_atypical_sequence_errors(self):
        cb = build_wiretap_codebook(
            vx_identity(), WiretapRates(0.25, 0.25, 0.0), TypicalityParams(8, 0.25), 5
        )
        y = np.zeros(8, dtype=int)  # all-zeros is atypical for a fair source
        res = decode_direct(cb, y, TypicalityParams(8, 0.25), ConditionalPmf.identity(2))
        assert not res.ok

    def test_duplicate_codewords_ambiguous(self):
        cb = build_wiretap_codebook(
            vx_identity(), WiretapRates(1.0, 1.0, 0.0), TypicalityParams(2, 2.0), 1
        )
        # find two identical v-sequences in different bins (n=2 forces collisions)
        seqs = [tuple(s) for s in cb.v_seqs]
        dup = None
        for i in range(len(seqs)):
            for j in range(i + 1, len(seqs)):
                if seqs[i] == seqs[j] and message_of(cb, i) != message_of(cb, j):
                    dup = i
        assert dup is not None
        res = decode_direct(
            cb, cb.v_seqs[dup], TypicalityParams(2, 2.0), ConditionalPmf.identity(2)
        )
        assert res.reason == "ambiguous"

    def test_indirect_with_single_satellite_matches_direct(self):
        cb = build_wiretap_codebook(
            vx_identity(), WiretapRates(0.25, 0.25, 0.0), TypicalityParams(8, 1.0), 5
        )
        chan = bsc(0.05)
        params = TypicalityParams(8, 1.0)
        agreements = 0
        for t in range(30):
            enc = encode(cb, t % cb.n_messages, t)
            y = transmit(chan, enc.x_seq, t)
            d = decode_direct(cb, y, params, chan)
            i = decode_indirect(cb, y, params, chan)
            # V = X and one satellite: the same typicality question
            assert (d.message, d.reason) == (i.message, i.reason)
            agreements += d.ok
        assert agreements > 0


class TestExactEquivocation:
    def test_single_bin_no_information(self):
        # one message: H(M) = 0 and leakage 0
        cb = build_wiretap_codebook(
            vx_identity(), WiretapRates(0.0, 0.75, 0.0), TypicalityParams(4, 0.5), 2
        )
        rep = exact_equivocation(cb, bsc(0.2))
        assert rep.message_rate == 0.0
        assert rep.leakage_rate == pytest.approx(0.0, abs=1e-12)
        assert rep.equivocation_rate == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_distinct_full_leakage(self):
        cb = build_wiretap_codebook(
            vx_identity(), WiretapRates(0.25, 0.25, 0.0), TypicalityParams(8, 0.5), 5
        )
        assert len({tuple(s) for s in cb.v_seqs}) == cb.v_seqs.shape[0]
        rep = exact_equivocation(cb, ConditionalPmf.identity(2))
        assert rep.equivocation_rate == pytest.approx(0.0, abs=1e-12)
        assert rep.leakage_rate == pytest.approx(rep.message_rate, abs=1e-12)

    def test_identity_exactness(self):
        for seed in range(5):
            cb = build_wiretap_codebook(
                vx_with_satellites(), WiretapRates(0.25, 0.5, 0.25),
                TypicalityParams(6, 0.5), seed,
            )
            rep = exact_equivocation(cb, bsc(0.15))
            assert rep.exact
            assert rep.equivocation_rate + rep.leakage_rate == pytest.approx(
                rep.message_rate, abs=1e-9
            )

    def test_degraded_leakage_monotone(self):
        W = bsc(0.2)
        chan_y = bsc(0.1)
        chan_z = cascade(chan_y, W)
        for seed in range(6):
            cb = build_wiretap_codebook(
                vx_identity(), WiretapRates(0.25, 0.625, 0.0),
                TypicalityParams(6, 0.5), seed,
            )
            ry = exact_equivocation(cb, chan_y)
            rz = exact_equivocation(cb, chan_z)
            assert rz.leakage_rate <= ry.leakage_rate + 1e-9

    def test_binning_monotone_in_bin_size(self):
        # same codeword set (same seed, same total), coarser messages leak less
        for seed in range(5):
            leaks = []
            for r_msg in (0.75, 0.5, 0.25):
                cb = build_wiretap_codebook(
                    vx_identity(), WiretapRates(r_msg, 0.75, 0.0),
                    TypicalityParams(4, 0.5), seed,
                )
                leaks.append(exact_equivocation(cb, bsc(0.2)).leakage_rate)
            assert leaks[0] >= leaks[1] - 1e-9 >= leaks[2] - 2e-9

    def test_cap_exceeded_instructs_fallback(self):
        cb = build_wiretap_codebook(
            vx_identity(), WiretapRates(0.25, 0.5, 0.0), TypicalityParams(6, 0.5), 1
        )
        with pytest.raises(CapExceededError, match="mc_equivocation"):
            exact_equivocation(cb, bsc(0.2), Caps(max_exact_outputs=4))

    def test_mc_agrees_with_exact(self):
        cb = build_wiretap_codebook(
            vx_identity(), WiretapRates(0.25, 0.625, 0.0), TypicalityParams(6, 0.5), 3
        )
        exact = exact_equivocation(cb, bsc(0.2))
        mc = mc_equivocation(cb, bsc(0.2), trials=600, seed=4)
        assert mc.ci_halfwidth is not None
        assert abs(mc.equivocation_rate - exact.equivocation_rate) < 4 * mc.ci_halfwidth + 1e-3


class TestMarton:
    def test_build_and_failure_accounting(self):
        cb = build_marton_codebook(
            marton_dist(), MartonRates(0.34, 0.5, 0.5, 0.5, 0.17, 0.17),
            TypicalityParams(6, 1.5), 5,
        )
        assert 0.0 <= cb.encoding_failure_rate <= 1.0
        assert cb.pairing.shape[:1] == (cb.v0_seqs.shape[0],)

    def test_pairing_success_monotone_in_margin(self):
        # shrinking satellite layers at fixed bins tightens the covering margin
        fails = []
        for tt in (0.2, 0.5, 0.8):
            per_seed = []
            for seed in range(4):
                cb = build_marton_codebook(
                    marton_dist(), MartonRates(0.34, 0.5, tt, tt, 0.17, 0.17),
                    TypicalityParams(6, 1.5), seed,
                )
                per_seed.append(cb.encoding_failure_rate)
            fails.append(np.mean(per_seed))
        assert fails[0] >= fails[1] >= fails[2]

    def test_covering_violation_fails_as_n_grows(self):
        # correlated satellites make the covering inequality binding:
        # margin = T1 + T2 - B1 - B2 - I(V1;V2|V0) with I = 1 - H(0.2)
        pq = np.array([[1.0]])
        pv0 = np.array([[0.5, 0.5]])
        pv12 = np.array([[0.4, 0.1, 0.1, 0.4], [0.1, 0.4, 0.4, 0.1]])
        px = np.zeros((8, 2))
        for v0 in range(2):
            for v1 in range(2):
                for v2 in range(2):
                    px[(v0 * 2 + v1) * 2 + v2] = [0.8, 0.2] if v1 == v2 else [0.2, 0.8]
        d = build_factored(
            "theorem1", {"Q": 1, "V0": 2, "V1": 2, "V2": 2, "X": 2},
            [pq, pv0, pv12, px],
        )

        def mean_failure(b, n):
            rates = MartonRates(1 / 6, 1 / 3, 0.5, 0.5, b, b)
            return np.mean([
                build_marton_codebook(d, rates, TypicalityParams(n, 1.5), seed)
                .encoding_failure_rate
                for seed in range(4)
            ])

        # margin sweep at fixed n: failure rate grows as the margin shrinks
        sweep = [mean_failure(b, 12) for b in (0.0, 0.25, 0.45)]
        assert sweep[0] <= sweep[1] <= sweep[2]
        # positive margin succeeds for large n; violated margin stays near 1
        assert mean_failure(0.0, 12) <= 0.05
        assert mean_failure(0.45, 12) >= 0.9

    def test_single_product_bin(self):
        cb = build_marton_codebook(
            marton_dist(), MartonRates(0.34, 0.5, 0.34, 0.34, 0.0, 0.0),
            TypicalityParams(6, 1.5), 2,
        )
        assert cb.pairing.shape[1] == cb.pairing.shape[2] == 1

    def test_exact_equivocation_identity(self):
        # bins of size > 1 so one atypical cloud center cannot orphan a message
        cb = build_marton_codebook(
            marton_dist(), MartonRates(1 / 6, 0.5, 0.5, 0.5, 0.17, 0.17),
            TypicalityParams(6, 2.0), 5,
        )
        rep = exact_equivocation(cb, bsc(0.2))
        assert rep.equivocation_rate + rep.leakage_rate == pytest.approx(
            rep.message_rate, abs=1e-9
        )

    def test_orphaned_message_raises(self):
        # bin size 1 with tight typicality: some cloud center is atypical and
        # its message has no successfully paired bins; refuse loudly
        from wiretap3.probability import DistributionError

        with pytest.raises(DistributionError, match="no successfully paired"):
            for seed in range(30):
                cb = build_marton_codebook(
                    marton_dist(), MartonRates(0.5, 0.5, 0.34, 0.34, 0.17, 0.17),
                    TypicalityParams(6, 0.8), seed,
                )
                exact_equivocation(cb, bsc(0.2))

    def test_erasure_encoding_flagged(self):
        # tiny satellite layers with tight typicality force failures
        cb = build_marton_codebook(
            marton_dist(), MartonRates(0.34, 0.5, 0.17, 0.17, 0.17, 0.17),
            TypicalityParams(4, 0.3), 3,
        )
        assert cb.encoding_failure_rate > 0
        found_erasure = False
        for seed in range(40):
            enc = encode(cb, 0, seed)
            if enc.erased:
                found_erasure = True
                break
        assert found_erasure

    def test_paired_encode_draws_x_at_the_pair_rows(self):
        # recomputed apart from encode: the _rng(seed, 1) draws of the bin
        # member and the product bin, then x_i from the row of p(x|v0,v1,v2)
        # at (v0_i, v1_i, v2_i), numbered row-major; every row differs
        a = np.arange(1, 9) / 9
        tables = [f.table.matrix for f in marton_dist().factors[:3]] + [np.stack([a, 1 - a], 1)]
        dist = build_factored("theorem1", {"Q": 1, "V0": 2, "V1": 2, "V2": 2, "X": 2}, tables)
        cb = build_marton_codebook(
            dist, MartonRates(1 / 6, 0.5, 0.5, 0.5, 0.17, 0.17), TypicalityParams(6, 2.0), 5,
        )
        paired = 0
        for seed in range(20):
            m = seed % cb.n_messages
            enc = encode(cb, m, seed)
            rng = _rng(seed, 1)
            l0 = m * cb.bin_size + int(rng.integers(cb.bin_size))
            b1 = int(rng.integers(cb.pairing.shape[1]))
            b2 = int(rng.integers(cb.pairing.shape[2]))
            t1, t2 = (int(t) for t in cb.pairing[l0, b1, b2])
            if t1 < 0:
                assert enc.erased
                continue
            v = (cb.v0_seqs[l0], cb.v1_seqs[l0, t1], cb.v2_seqs[l0, t2])
            rows = np.ravel_multi_index(v, cb.sizes[1:])
            assert (enc.l0, enc.satellites) == (l0, (t1, t2))
            assert np.array_equal(enc.x_seq, ref_sample_given(cb.tables[3], rows, rng))
            paired += 1
        assert paired > 0


class TestLemma1:
    def dist(self):
        from wiretap3.probability import Factor, FactoredDistribution

        return FactoredDistribution(
            [("U", 2), ("V", 2), ("Z", 2)],
            [Factor(["U"], [], [[0.5, 0.5]]),
             Factor(["V"], ["U"], bsc(0.25)),
             Factor(["Z"], ["V"], bsc(0.25))],
        )

    def test_deterministic_matching_degenerate(self):
        # V = Z = U copies: every list entry matching u is typical with z
        from wiretap3.probability import Factor, FactoredDistribution

        fd = FactoredDistribution(
            [("U", 2), ("V", 2), ("Z", 2)],
            [Factor(["U"], [], [[0.5, 0.5]]),
             Factor(["V"], ["U"], ConditionalPmf.identity(2)),
             Factor(["Z"], ["V"], ConditionalPmf.identity(2))],
        )
        rep = lemma1_experiment(fd, 0.5, TypicalityParams(8, 0.5), trials=50, seed=1)
        # the typical count concentrates near the number of list entries
        # equal to U^n itself; with V = U it is exactly N(u-typical copies)
        assert rep.max_count >= 1

    def test_exceedance_decreases_in_n(self):
        fd = self.dist()
        s = rep = None
        freqs = []
        info = None
        for n in (4, 6, 8):
            r = lemma1_experiment(
                fd, 0.443, TypicalityParams(n, 2.0), trials=300, seed=123
            )
            freqs.append(r.exceedance_frequency)
            info = r.info_rate
        assert freqs[0] >= freqs[-1]
        assert freqs[-1] < 0.05
        assert 0.443 > info  # concentration regime

    def test_threshold_monotone_in_delta1(self):
        fd = self.dist()
        lo = lemma1_experiment(
            fd, 0.443, TypicalityParams(8, 2.0, delta1=0.1), trials=200, seed=7
        )
        hi = lemma1_experiment(
            fd, 0.443, TypicalityParams(8, 2.0, delta1=1.0), trials=200, seed=7
        )
        assert hi.threshold > lo.threshold
        assert hi.exceedance_frequency <= lo.exceedance_frequency


class TestDecodingHarness:
    def test_error_rate_bounds(self):
        cb = build_wiretap_codebook(
            vx_identity(), WiretapRates(0.25, 0.25, 0.0), TypicalityParams(8, 1.5), 5
        )
        pe, trials = decoding_error_rate(
            cb, bsc(0.02), TypicalityParams(8, 1.5), trials=100, seed=3, decoder="direct"
        )
        assert 0.0 <= pe <= 1.0 and trials == 100


class TestCountBounds:
    def test_zero_cells_require_zero_counts(self):
        p = np.array([0.5, 0.5, 0.0])
        lb, ub = count_bounds(p, 8, 0.5)
        assert ub[2] == 0 and lb[2] == 0

    def test_windows_scale_with_eps(self):
        p = np.array([0.5, 0.5])
        lb1, ub1 = count_bounds(p, 8, 0.25)
        lb2, ub2 = count_bounds(p, 8, 0.75)
        assert lb2[0] <= lb1[0] and ub2[0] >= ub1[0]
