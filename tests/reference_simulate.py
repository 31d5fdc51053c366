"""The simulator's per-trial loops as they were before batching, kept verbatim.

It is the reference for the differential tests in ``test_simulate_batched.py``
and ``test_simulate_streams_exact.py``: each decode rebuilds the cell pmf and
count windows and counts all cells of every codeword; Monte Carlo
equivocation multiplies the per-symbol likelihoods of every codeword (which
underflows at large n); the wiretap conditionals build the full |Z|^n product
law of every codeword of a bin, one message at a time; the Marton
conditionals and the lemma1 counts loop over bins and trials one at a time;
the Marton codebook picks each bin's pair from its own ``argwhere`` list.
The product laws of ``zn_pmf_batch`` come from one broadcast outer product
per position, and ``message_log_likelihoods`` scores Monte Carlo outputs by
one matmul of a one-hot codeword table with the gathered log2 W (the
log-domain scoring before it counted joint types).
Every trial seeds its own ``SeedSequence`` stream through ``_rng``, every
output draw recomputes the channel's cumulative sums in ``sample_given``, and
i.i.d. draws go through ``rng.choice``.  The encoders and the wiretap
codebooks come from ``wiretap3.simulate``.  So do the small helpers that
only tests use: ``bin_range``, ``message_of`` and ``transmit``.
"""

from __future__ import annotations

import numpy as np
from numpy import log2 as LOG2

from wiretap3.probability import (
    ConditionalPmf, DistributionError, FactoredDistribution, log2_cells,
)
from wiretap3.simulate import (
    Caps,
    CapExceededError,
    DEFAULT_CAPS,
    DecodeResult,
    Lemma1Report,
    MartonCodebook,
    SimReport,
    TypicalityParams,
    WiretapCodebook,
    MartonRates,
    _channel_to,
    _exponent,
    _marton_tables,
    _rng,
    count_bounds,
    encode,
    joint_counts,
    typical_mask,
)


def bin_range(cb, m: int) -> range:
    """The codeword indices l0 of message m's bin."""
    return range(m * cb.bin_size, (m + 1) * cb.bin_size)


def message_of(cb, l0: int) -> int:
    return l0 // cb.bin_size


def transmit(chan: ConditionalPmf, x_seq: np.ndarray, seed: int) -> np.ndarray:
    return sample_given(chan.matrix, x_seq, _rng(seed, 2))


def sample_iid(p: np.ndarray, n: int, rng: np.random.Generator, size: int = 1) -> np.ndarray:
    return rng.choice(p.size, size=(size, n), p=p).astype(np.int64)


def sample_given(chan: np.ndarray, given: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One output symbol per position, rows of chan indexed by ``given``."""
    cum = np.cumsum(chan, axis=1)
    cum[:, -1] = 1.0 + 1e-9  # guard against float dust beyond the last boundary
    u = rng.random(given.shape)
    return (u[..., None] < cum[given]).argmax(axis=-1).astype(np.int64)


def decode_direct(
    cb: WiretapCodebook,
    y_seq: np.ndarray,
    params: TypicalityParams,
    chan: ConditionalPmf,
) -> DecodeResult:
    """Unique jointly typical v-sequence against the induced p(v, y)."""
    W = _channel_to(cb, chan)
    ny = W.shape[1]
    nv = cb.p_v.size
    p_y_given_v = cb.p_x_given_v @ W
    p_vy = cb.p_v[:, None] * p_y_given_v
    lb, ub = count_bounds(p_vy, cb.n, params.epsilon)
    cells = cb.v_seqs * ny + y_seq[None, :]
    ok = typical_mask(joint_counts(cells, nv * ny), lb, ub)
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        return DecodeResult(None, None, "none-typical")
    if hits.size > 1:
        return DecodeResult(None, None, "ambiguous")
    l0 = int(hits[0])
    return DecodeResult(message_of(cb, l0), l0, "ok")


def decode_indirect(
    cb: WiretapCodebook,
    y_seq: np.ndarray,
    params: TypicalityParams,
    chan: ConditionalPmf,
) -> DecodeResult:
    """Unique cloud index with *some* satellite jointly typical with y."""
    if cb.x_seqs.shape[1] < 1:
        raise DistributionError("indirect decoding needs a satellite layer")
    W = _channel_to(cb, chan)
    ny = W.shape[1]
    nv = cb.p_v.size
    nx = cb.p_x_given_v.shape[1]
    p_vxy = (cb.p_v[:, None] * cb.p_x_given_v)[:, :, None] * W[None, :, :]
    lb, ub = count_bounds(p_vxy, cb.n, params.epsilon)
    vx = cb.v_seqs[:, None, :] * nx + cb.x_seqs
    cells = vx * ny + y_seq[None, None, :]
    counts = joint_counts(cells, nv * nx * ny)
    ok = typical_mask(counts, lb, ub).any(axis=1)
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        return DecodeResult(None, None, "none-typical")
    if hits.size > 1:
        return DecodeResult(None, None, "ambiguous")
    l0 = int(hits[0])
    return DecodeResult(message_of(cb, l0), l0, "ok")


def decoding_error_rate(
    cb: WiretapCodebook,
    chan: ConditionalPmf,
    params: TypicalityParams,
    trials: int,
    seed: int,
    decoder: str = "indirect",
) -> tuple[float, int]:
    """Monte Carlo block error rate of direct or indirect decoding."""
    if decoder not in ("direct", "indirect"):
        raise ValueError("decoder must be direct or indirect")
    fn = decode_direct if decoder == "direct" else decode_indirect
    errors = 0
    for t in range(trials):
        rng = _rng(seed, 3, t)
        m = int(rng.integers(cb.n_messages))
        enc = encode(cb, m, int(rng.integers(1 << 31)))
        if enc.erased:  # encoding failures count as block errors
            errors += 1
            continue
        y = sample_given(chan.matrix, enc.x_seq, rng)
        res = fn(cb, y, params, chan)
        if not res.ok or res.message != m:
            errors += 1
    return errors / trials, trials


def decode_trials(cb, chan, params, trials, seed, decoder="indirect") -> list[DecodeResult]:
    """The per-trial results behind ``decoding_error_rate``, same draws."""
    fn = decode_direct if decoder == "direct" else decode_indirect
    out = []
    for t in range(trials):
        rng = _rng(seed, 3, t)
        m = int(rng.integers(cb.n_messages))
        enc = encode(cb, m, int(rng.integers(1 << 31)))
        y = sample_given(chan.matrix, enc.x_seq, rng)
        out.append(fn(cb, y, params, chan))
    return out


def zn_pmf_batch(rows: np.ndarray) -> np.ndarray:
    """Product distributions for a batch: (B, n, |Z|) -> (B, |Z|^n), z_1 most significant.

    With n = 0 every row is the empty product, a single 1.
    """
    if rows.shape[1] == 0:
        return np.ones((rows.shape[0], 1))
    v = rows[:, 0]
    for i in range(1, rows.shape[1]):
        v = (v[:, :, None] * rows[:, i][:, None, :]).reshape(rows.shape[0], -1)
    return v


def score_tables(cb: WiretapCodebook, W: np.ndarray):
    """(onehot, logw, dead) for ``message_log_likelihoods``: (codewords, n|X|) and (|X|, |Z|)."""
    n, nx = cb.n, W.shape[0]
    flat_x = cb.x_seqs.reshape(-1, n)
    onehot = (flat_x[:, :, None] == np.arange(nx)).reshape(len(flat_x), n * nx).astype(float)
    return onehot, log2_cells(W), (W == 0).astype(float) if (W == 0).any() else None


def message_log_likelihoods(onehot, logw, dead, z: np.ndarray, n_m: int) -> np.ndarray:
    """log2 p(z^n | m) for outputs z (T, n): (T, messages), from ``score_tables``."""
    t = len(z)
    ll = logw.T[z].reshape(t, -1) @ onehot.T
    if dead is not None:
        ll[dead.T[z].reshape(t, -1) @ onehot.T > 0] = -np.inf
    ll = ll.reshape(t, n_m, -1)
    top = ll.max(axis=2, keepdims=True)
    top[~np.isfinite(top)] = 0.0   # a message none of whose codewords can emit z
    with np.errstate(divide="ignore"):
        return np.log2(np.exp2(ll - top).mean(axis=2)) + top[..., 0]


def mc_samples(cb, chan: ConditionalPmf, trials: int, seed: int) -> np.ndarray:
    """The per-trial scores -log2 p(m|z^n) of ``mc_equivocation``, product form."""
    W = chan.matrix
    n_m = cb.n_messages
    samples = np.zeros(trials)
    n_sat = cb.x_seqs.shape[1]
    flat_x = cb.x_seqs.reshape(-1, cb.n)
    for t in range(trials):
        rng = _rng(seed, 3, t)
        m = int(rng.integers(n_m))
        l0 = m * cb.bin_size + int(rng.integers(cb.bin_size))
        l1 = int(rng.integers(n_sat))
        z = sample_given(W, cb.x_seqs[l0, l1], rng)
        # p(z | l) for every codeword, then mix per message
        pz_given_cw = W[flat_x, z[None, :]].reshape(len(flat_x), cb.n).prod(axis=1)
        per_msg = pz_given_cw.reshape(n_m, cb.bin_size * n_sat).mean(axis=1)
        tot = per_msg.mean()
        samples[t] = -LOG2(per_msg[m] / (tot * n_m)) if tot > 0 else 0.0
    return samples


def mc_equivocation(
    cb,
    chan: ConditionalPmf,
    trials: int,
    seed: int,
) -> SimReport:
    """Monte Carlo equivocation: sample (m, z^n), score -log2 p(m|z^n)."""
    if not isinstance(cb, WiretapCodebook):
        raise TypeError("mc_equivocation supports superposition codebooks")
    n_m = cb.n_messages
    samples = mc_samples(cb, chan, trials, seed)
    mean = float(samples.mean())
    half = float(1.96 * samples.std(ddof=1) / np.sqrt(trials)) if trials > 1 else None
    n = cb.n
    hm = LOG2(n_m) / n
    return SimReport(
        equivocation_rate=mean / n,
        leakage_rate=hm - mean / n,
        message_rate=hm,
        trials=trials,
        encoding_failure_rate=0.0,
        exact=False,
        ci_halfwidth=None if half is None else half / n,
    )


def wiretap_conditionals(cb: WiretapCodebook, chan: ConditionalPmf, caps: Caps = DEFAULT_CAPS):
    """p(z^n | m) for every message of a wiretap codebook, one message at a time."""
    nz = chan.cols
    n = cb.n
    out_space = nz ** n
    if out_space > caps.max_exact_outputs:
        raise CapExceededError(
            f"|Z|^n = {out_space} exceeds cap {caps.max_exact_outputs}; "
            "use mc_equivocation instead"
        )
    W = chan.matrix
    if W.shape[0] != cb.p_x_given_v.shape[1]:
        raise DistributionError("channel input must be the X alphabet")
    n_cw = cb.v_seqs.shape[0] * cb.x_seqs.shape[1]
    if out_space * n_cw > caps.max_exact_work:
        raise CapExceededError("exact equivocation work above cap")
    conds = np.zeros((cb.n_messages, out_space))
    for m in range(cb.n_messages):
        flat = cb.x_seqs[m * cb.bin_size:(m + 1) * cb.bin_size].reshape(-1, n)
        conds[m] = zn_pmf_batch(W[flat]).mean(axis=0)
    return conds, 0.0


def marton_conditionals(cb: MartonCodebook, chan: ConditionalPmf, caps: Caps = DEFAULT_CAPS):
    """p(z^n | m) for every message of a Marton codebook, one pair at a time."""
    nz = chan.cols
    n = cb.n
    out_space = nz ** n
    if out_space > caps.max_exact_outputs:
        raise CapExceededError("|Z|^n above cap")
    W = chan.matrix
    nq, n0, n1, n2 = cb.sizes
    p_x = cb.tables[3]
    if W.shape[0] != p_x.shape[1]:
        raise DistributionError("channel input must be the X alphabet")
    Wc = p_x @ W  # (n0*n1*n2, nz): symbol-wise input sampling folded in
    nb1, nb2 = cb.pairing.shape[1], cb.pairing.shape[2]
    n_cw = cb.v0_seqs.shape[0] * nb1 * nb2
    if out_space * n_cw > caps.max_exact_work:
        raise CapExceededError("exact equivocation work above cap")
    conds = np.zeros((cb.n_messages, out_space))
    failures = 0
    total = 0
    for m in range(cb.n_messages):
        acc = np.zeros(out_space)
        cnt = 0
        for l0 in range(m * cb.bin_size, (m + 1) * cb.bin_size):
            for b1 in range(nb1):
                for b2 in range(nb2):
                    t1, t2 = cb.pairing[l0, b1, b2]
                    total += 1
                    if t1 < 0:
                        failures += 1
                        continue
                    rows = (
                        cb.v0_seqs[l0] * n1 + cb.v1_seqs[l0, t1]
                    ) * n2 + cb.v2_seqs[l0, t2]
                    acc += zn_pmf_batch(Wc[rows][None])[0]
                    cnt += 1
        if cnt == 0:
            raise DistributionError(
                f"message {m} has no successfully paired bins"
            )
        conds[m] = acc / cnt
    return conds, failures / total


def lemma1_experiment(
    dist,
    s_rate: float,
    params: TypicalityParams,
    trials: int,
    seed: int,
    caps: Caps = DEFAULT_CAPS,
) -> Lemma1Report:
    """Count conditionally-i.i.d. v-sequences jointly typical with (u, z)."""
    from wiretap3.probability import JointPmf

    if isinstance(dist, FactoredDistribution):
        j = dist.realization
    elif isinstance(dist, JointPmf):
        j = dist
    else:
        raise DistributionError("need a joint distribution over (U, V, Z)")
    t = j.marginal(("U", "V", "Z")).tensor
    nu, nv, nz = t.shape
    p_u = t.sum(axis=(1, 2))
    with np.errstate(invalid="ignore", divide="ignore"):
        p_v_u = np.where(p_u[:, None] > 0, t.sum(axis=2) / p_u[:, None], 1.0 / nv)
        p_uv = t.sum(axis=2)
        p_z_uv = np.where(
            p_uv[:, :, None] > 0, t / p_uv[:, :, None], 1.0 / nz
        ).reshape(nu * nv, nz)
    info = JointPmf(("U", "V", "Z"), t).conditional_mutual_information(
        ("V",), ("Z",), ("U",)
    )
    n = params.n
    k = _exponent(n, s_rate)
    n_list = 1 << k
    if n_list * n * trials > caps.max_codebook_entries * 8:
        raise CapExceededError("lemma1 experiment size above cap")
    s_eff = k / n
    threshold = (1 + params.delta1) * 2 ** (n * (s_eff - info + params.delta))
    lb, ub = count_bounds(t, n, params.epsilon)
    n_cells = nu * nv * nz
    exceed = 0
    counts_sum = 0.0
    max_count = 0
    for tr in range(trials):
        rng = _rng(seed, 3, tr)
        u = sample_iid(p_u, n, rng)[0]
        vs = sample_given(p_v_u, np.repeat(u[None, :], n_list, axis=0), rng)
        ell = int(rng.integers(n_list))
        z = sample_given(p_z_uv, u * nv + vs[ell], rng)
        cells = (u[None, :] * nv + vs) * nz + z[None, :]
        mask = typical_mask(joint_counts(cells, n_cells), lb, ub)
        count = int(mask.sum())
        counts_sum += count
        max_count = max(max_count, count)
        if count >= threshold:
            exceed += 1
    return Lemma1Report(
        exceedance_frequency=exceed / trials,
        threshold=float(threshold),
        mean_count=counts_sum / trials,
        max_count=max_count,
        info_rate=float(info),
        s_rate=s_eff,
        in_concentration_regime=bool(s_eff > info + params.delta),
        trials=trials,
    )


def build_marton_codebook(
    dist,
    rates: MartonRates,
    params: TypicalityParams,
    seed: int,
    caps: Caps = DEFAULT_CAPS,
) -> MartonCodebook:
    """Layered codebook with a jointly typical pair chosen per product bin, bin by bin."""
    tabs, (nq, n0, n1, n2), nx = _marton_tables(dist)
    p_q, p_v0_q, p_v12_v0, _ = tabs
    n = params.n
    k_msg = _exponent(n, rates.message)
    k_total = _exponent(n, rates.total)
    k_t1, k_t2 = _exponent(n, rates.t1), _exponent(n, rates.t2)
    k_b1, k_b2 = _exponent(n, rates.b1), _exponent(n, rates.b2)
    if k_total < k_msg or k_t1 < k_b1 or k_t2 < k_b2:
        raise ValueError("bin exponents cannot exceed their layer exponents")
    n_tot, nt1, nt2 = 1 << k_total, 1 << k_t1, 1 << k_t2
    entries = n * (1 + n_tot * (1 + nt1 + nt2))
    if entries > caps.max_codebook_entries:
        raise CapExceededError(f"codebook needs {entries} symbols > cap")
    rng = _rng(seed, 0)
    q_seq = sample_iid(p_q[0] if p_q.ndim > 1 else p_q, n, rng)[0]
    v0_seqs = sample_given(p_v0_q, np.repeat(q_seq[None, :], n_tot, axis=0), rng)
    # marginals of the joint satellite factor
    p_v12 = p_v12_v0.reshape(n0, n1, n2)
    p_v1_v0 = p_v12.sum(axis=2)
    with np.errstate(invalid="ignore", divide="ignore"):
        p_v1_v0 = np.where(p_v1_v0.sum(axis=1, keepdims=True) > 0, p_v1_v0, 1.0 / n1)
    p_v2_v0 = p_v12.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        p_v2_v0 = np.where(p_v2_v0.sum(axis=1, keepdims=True) > 0, p_v2_v0, 1.0 / n2)
    v1_seqs = sample_given(
        p_v1_v0, np.repeat(v0_seqs[:, None, :], nt1, axis=1), rng
    )
    v2_seqs = sample_given(
        p_v2_v0, np.repeat(v0_seqs[:, None, :], nt2, axis=1), rng
    )
    # pairing: jointly typical (v1, v2) per product bin wrt p(q,v0,v1,v2)
    joint = (
        (p_q[0] if p_q.ndim > 1 else p_q)[:, None, None, None]
        * p_v0_q[:, :, None, None]
        * p_v12.reshape(1, n0, n1, n2)
    )
    lb, ub = count_bounds(joint, n, params.epsilon)
    n_cells = nq * n0 * n1 * n2
    nb1, nb2 = 1 << k_b1, 1 << k_b2
    bs1, bs2 = nt1 // nb1, nt2 // nb2
    pairing = np.full((n_tot, nb1, nb2, 2), -1, dtype=np.int64)
    for l0 in range(n_tot):
        # typicality of every (t1, t2) pair at once, then slice into bins
        base = (q_seq * n0 + v0_seqs[l0]) * (n1 * n2)
        cells = (
            base[None, None, :]
            + (v1_seqs[l0] * n2)[:, None, :]
            + v2_seqs[l0][None, :, :]
        )
        ok = typical_mask(joint_counts(cells, n_cells), lb, ub)
        for b1 in range(nb1):
            for b2 in range(nb2):
                block = ok[b1 * bs1:(b1 + 1) * bs1, b2 * bs2:(b2 + 1) * bs2]
                hits = np.argwhere(block)
                if hits.size:
                    pick = hits[rng.integers(len(hits))]
                    pairing[l0, b1, b2] = (b1 * bs1 + pick[0], b2 * bs2 + pick[1])
    return MartonCodebook(
        tables=tabs, sizes=(nq, n0, n1, n2), x_size=nx, n=n,
        k_msg=k_msg, k_total=k_total, k_t1=k_t1, k_t2=k_t2, k_b1=k_b1, k_b2=k_b2,
        q_seq=q_seq, v0_seqs=v0_seqs, v1_seqs=v1_seqs, v2_seqs=v2_seqs,
        pairing=pairing, seed=seed,
    )
