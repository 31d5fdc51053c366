"""Finite-blocklength realization of the random-binning coding schemes.

Everything here is honest finite-n: codebook sizes are exact integers
2^ceil(n R), bins partition index ranges exactly, and equivocation is
computed *exactly* (full enumeration of the output space) whenever the
configured caps allow, so H(M|Z^n) + I(M;Z^n) = H(M) holds to float
precision rather than estimator noise.  Above the caps a Monte Carlo
estimator with a normal-approximation confidence interval is available;
the exact routine refuses loudly and points there.

Typicality is robust (strong) typicality: a tuple sequence is eps-typical
when every joint-symbol count k(a) satisfies |k(a)/n - p(a)| <= eps p(a),
in particular k(a) = 0 wherever p(a) = 0.  Decoding builds one plan per
(codebook, channel, params, decoder) and screens by support first: a
codeword with a symbol in a zero-probability cell is atypical, so only the
others are counted, over the support cells.  The plan decodes a chunk of
outputs at once: one screen, then one count over every survivor.

Monte Carlo scores are computed in the log domain (log2 W summed over each
codeword's joint type with the output, then a max-shifted log-sum-exp over
codewords and messages), so they neither underflow nor go negative at large
n, and the type counts are exact integers, so no BLAS kernel moves a bit.

Randomness: every public operation takes an integer seed; internal
streams derive from numpy SeedSequence(seed, spawn_key=...) with fixed
role keys (0=codebook, 1=encoding, 2=channel, 3=experiment trials), so
identical (config, seed) pairs reproduce results bit for bit.  The
per-trial streams of decoding, Monte Carlo equivocation and lemma1 (and
each decode trial's encoding stream) are seeded and advanced a block at a
time in vectorized PCG64 arithmetic (``streams``), bit for bit the draws of
each trial's own Generator in a per-trial loop's order; output symbols,
decoding, counts and scores run once per block of trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import Iterator, Optional

import numpy as np

from .probability import (
    ConditionalPmf, DistributionError, FactoredDistribution, JointPmf, as_joint, conditional,
    entropy_of_vector, log2_cells,
)
from .streams import Streams


class CapExceededError(RuntimeError):
    """A requested exact computation exceeds the configured caps."""


def _require(name: str, value, kind: type, noun: str) -> None:
    """A ValueError unless ``value`` is a ``kind`` (``Integral`` or ``Real``), no bool, and a
    finite float: an int too large for a float, on which ``math.isfinite`` overflows, is not."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class TypicalityParams:
    """Blocklength and robust-typicality slack, plus threshold knobs.

    delta and delta1 are the asymptotic-slack dials of the concentration
    experiment (threshold exponent shift and multiplier); they are
    experiment inputs here, not derived quantities.
    """

    n: int
    epsilon: float = 0.5
    delta: float = 0.05
    delta1: float = 0.1

    def __post_init__(self):
        _check_count("blocklength n", self.n)
        for name in ("epsilon", "delta", "delta1"):
            _require(name, getattr(self, name), Real, "a real number")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class Caps:
    max_codebook_entries: int = 1 << 22
    max_exact_outputs: int = 1 << 14      # |Z|^n for exact equivocation
    max_exact_work: int = 1 << 28         # |Z|^n * codewords

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ValueError(f"cap {f.name} must be an integer >= 1, got {v!r}")


DEFAULT_CAPS = Caps()

# Monte Carlo scores are worked in one buffer of _SCORE_CHUNK float64 cells
# (512 KiB) per ``_mc_samples`` call, reused by every block of trials (see
# ``_score_buffers``).  _COUNT_CHUNK bounds trials x codewords per decode chunk
# and counted cells per lemma1 chunk.  The chunks set memory, not bits: Monte
# Carlo scores count joint types exactly whatever kernel BLAS picks for a shape.
_SCORE_CHUNK = 1 << 16
_COUNT_CHUNK = 1 << 16
# Trial streams are seeded and advanced a block at a time in vectorized PCG64
# arithmetic (``streams.Streams``): numpy's per-call cost is spread over the
# block, and a stream's state takes 48 bytes.
_STREAM_BLOCK = 1 << 10


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _trial_blocks(seed: int, trials: int, chunk: int = 1) -> Iterator[tuple[int, Streams]]:
    """(first, ``_rng(seed, 3, t)`` for t = first, ...) per block of whole chunks of trials."""
    per = chunk * max(1, _STREAM_BLOCK // chunk)
    for first in range(0, trials, per):
        yield first, Streams(seed, 3, np.arange(first, min(trials, first + per)))


def _check_count(name: str, value: int) -> None:
    _require(name, value, Integral, "an integer")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def _exponent(n: int, rate: float) -> int:
    """Codeword-count exponent ceil(n * rate), robust to float dust; at most 2^63, which is
    past every cap, so a rate whose n * rate overflows a float still has one."""
    _require("rates", rate, Real, "real numbers")
    if rate < 0:
        raise ValueError("rates must be non-negative")
    return int(np.ceil(min(n * rate, 2 ** 63) - 1e-9))


def _check_exponent(bits: int, cap: int, what: str) -> None:
    """A CapExceededError, raised before any 1 << k allocates 2^k, if ``what`` >= 2^bits > cap."""
    if bits >= cap.bit_length():
        raise CapExceededError(f"{what} is at least 2^{bits} > cap {cap}")


def _iid_symbols(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``Generator.choice(p.size, p=p)`` for uniform draws u: its normalized cdf, side='right'."""
    cdf = p.cumsum()
    return (cdf / cdf[-1]).searchsorted(u, side="right")


def _symbol_bounds(chan: np.ndarray) -> list[np.ndarray]:
    """The inner symbol boundaries of chan's rows, one array per column but the last.

    Boundary j is the running maximum of the row's cumulative sums up to j,
    so boundaries never decrease along a row.  The last boundary is never
    compared: it counts as past every uniform draw, which guards against
    float dust in the row sum.
    """
    cum = np.maximum.accumulate(np.cumsum(chan, axis=1), axis=1)
    return [np.ascontiguousarray(cum[:, j]) for j in range(chan.shape[1] - 1)]


def _pick_symbols(bounds: list[np.ndarray], given: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The symbols that uniform draws u pick from the channel rows ``given`` (broadcast to u).

    ``bounds`` are the channel's ``_symbol_bounds``.  A draw picks the first
    symbol whose cumulative sum exceeds it, the last symbol when none does;
    that is the number of inner boundaries at or below the draw.
    """
    out = np.zeros(u.shape, dtype=np.int64)
    for b in bounds:
        out += u >= b.take(given)
    return out


def sample_given(chan: np.ndarray, given: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One output symbol per position, rows of chan indexed by ``given``."""
    return _pick_symbols(_symbol_bounds(chan), given, rng.random(given.shape))


def count_bounds(p: np.ndarray, n: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Integer count windows [lb, ub] per cell for robust typicality."""
    p = p.ravel()
    lb = np.maximum(np.ceil(n * p * (1 - eps) - 1e-9).astype(np.int64), 0)
    ub = np.floor(n * p * (1 + eps) + 1e-9).astype(np.int64)
    lb[p <= 0] = ub[p <= 0] = 0
    return lb, ub


def joint_counts(cells: np.ndarray, n_cells: int) -> np.ndarray:
    """Count cell occurrences along the last axis: (..., n) -> (..., n_cells)."""
    lead = cells.shape[:-1]
    k = int(np.prod(lead))
    offs = cells.reshape(k, cells.shape[-1]) + n_cells * np.arange(k, dtype=np.int64)[:, None]
    return np.bincount(offs.ravel(), minlength=k * n_cells).reshape(*lead, n_cells)


def typical_mask(counts: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    return ((counts >= lb) & (counts <= ub)).all(axis=-1)


# ---------------------------------------------------------------------------
# Codebooks
# ---------------------------------------------------------------------------


class _BinnedLayer:
    """2^k_msg messages, each a bin of 2^(k_total - k_msg) first-layer codewords."""

    @property
    def n_messages(self) -> int:
        return 1 << self.k_msg

    @property
    def bin_size(self) -> int:
        return 1 << (self.k_total - self.k_msg)


@dataclass(frozen=True)
class WiretapRates:
    message: float      # R
    total: float        # R-tilde, v-layer exponent
    satellite: float = 0.0  # R-tilde-1, x-layer per cloud


@dataclass(frozen=True, eq=False)
class WiretapCodebook(_BinnedLayer):
    """Superposition codebook: i.i.d. v-layer with bins, x-satellites."""

    p_v: np.ndarray
    p_x_given_v: np.ndarray
    n: int
    k_msg: int
    k_total: int
    k_sat: int
    v_seqs: np.ndarray          # (2^k_total, n)
    x_seqs: np.ndarray          # (2^k_total, 2^k_sat, n)
    seed: int

    @property
    def x_size(self) -> int:
        return self.p_x_given_v.shape[1]


def build_wiretap_codebook(dist, rates: WiretapRates, params: TypicalityParams, seed: int,
                           caps: Caps = DEFAULT_CAPS) -> WiretapCodebook:
    """i.i.d. v-layer, conditionally i.i.d. x-satellites, exact bin split."""
    j = as_joint(dist).marginal(("V", "X")).tensor
    p_v = j.sum(axis=1)
    p_xv = conditional(j, p_v)
    n = params.n
    k_msg = _exponent(n, rates.message)
    k_total = _exponent(n, rates.total)
    k_sat = _exponent(n, rates.satellite)
    if k_total < k_msg:
        raise ValueError("total v-layer rate must be >= message rate")
    _check_exponent(k_total + k_sat, caps.max_codebook_entries, "codebook size")
    n_total, n_sat = 1 << k_total, 1 << k_sat
    entries = n_total * n * (1 + n_sat)
    if entries > caps.max_codebook_entries:
        raise CapExceededError(
            f"codebook needs {entries} stored symbols > cap {caps.max_codebook_entries}"
        )
    rng = _rng(seed, 0)
    v_seqs = _iid_symbols(p_v, rng.random((n_total, n)))
    x_seqs = sample_given(p_xv, np.repeat(v_seqs[:, None, :], n_sat, axis=1), rng)
    return WiretapCodebook(p_v=p_v, p_x_given_v=p_xv, n=n, k_msg=k_msg, k_total=k_total,
                           k_sat=k_sat, v_seqs=v_seqs, x_seqs=x_seqs, seed=seed)


@dataclass(frozen=True)
class MartonRates:
    message: float   # R on the v0-layer bins
    total: float     # R-tilde, v0-layer exponent
    t1: float        # T1, v1 satellites per cloud
    t2: float        # T2
    b1: float        # R-tilde-1, v1 bins per cloud
    b2: float        # R-tilde-2


@dataclass(frozen=True, eq=False)
class MartonCodebook(_BinnedLayer):
    """Cloud centers with per-cloud Marton-paired satellite layers."""

    tables: tuple[np.ndarray, ...]   # p(q), p(v0|q), p(v1,v2|v0), p(x|v0,v1,v2)
    sizes: tuple[int, int, int, int]  # |Q|, |V0|, |V1|, |V2|
    x_size: int
    n: int
    k_msg: int
    k_total: int
    k_t1: int
    k_t2: int
    k_b1: int
    k_b2: int
    q_seq: np.ndarray               # (n,)
    v0_seqs: np.ndarray             # (N0, n)
    v1_seqs: np.ndarray             # (N0, 2^k_t1, n)
    v2_seqs: np.ndarray             # (N0, 2^k_t2, n)
    pairing: np.ndarray             # (N0, 2^k_b1, 2^k_b2, 2), -1 marks failure
    seed: int

    @property
    def encoding_failure_rate(self) -> float:
        return float((self.pairing[..., 0] < 0).mean())

    def input_rows(self, l0, t1, t2) -> np.ndarray:
        """The rows of p(x|v0,v1,v2), row-major in (v0, v1, v2), along the pairs (l0, t1, t2)."""
        _, _, n1, n2 = self.sizes
        return (self.v0_seqs[l0] * n1 + self.v1_seqs[l0, t1]) * n2 + self.v2_seqs[l0, t2]


def _marton_tables(dist) -> tuple[tuple[np.ndarray, ...], tuple[int, int, int, int], int]:
    if not isinstance(dist, FactoredDistribution) or dist.pattern not in ("theorem1", "theorem2"):
        raise DistributionError("Marton codebooks need a theorem1-pattern distribution")
    sizes = {a: s for a, s in dist.axis_sizes}
    tabs = tuple(f.table.matrix for f in dist.factors)
    return tabs, (sizes[dist.factors[0].targets[0]], sizes["V0"], sizes["V1"], sizes["V2"]), sizes["X"]


def build_marton_codebook(dist, rates: MartonRates, params: TypicalityParams, seed: int,
                          caps: Caps = DEFAULT_CAPS) -> MartonCodebook:
    """Layered codebook with a jointly typical pair chosen per product bin.

    Pair selection is uniform over the typical pairs in the bin; a bin
    with no typical pair is recorded as an encoding failure.
    """
    tabs, (nq, n0, n1, n2), nx = _marton_tables(dist)
    p_q, p_v0_q, p_v12_v0, _ = tabs
    p_q = p_q[0] if p_q.ndim > 1 else p_q
    n = params.n
    k_msg = _exponent(n, rates.message)
    k_total = _exponent(n, rates.total)
    k_t1, k_t2 = _exponent(n, rates.t1), _exponent(n, rates.t2)
    k_b1, k_b2 = _exponent(n, rates.b1), _exponent(n, rates.b2)
    if k_total < k_msg or k_t1 < k_b1 or k_t2 < k_b2:
        raise ValueError("bin exponents cannot exceed their layer exponents")
    _check_exponent(k_total + max(k_t1, k_t2), caps.max_codebook_entries, "codebook size")
    n_tot, nt1, nt2 = 1 << k_total, 1 << k_t1, 1 << k_t2
    entries = n * (1 + n_tot * (1 + nt1 + nt2))
    if entries > caps.max_codebook_entries:
        raise CapExceededError(f"codebook needs {entries} symbols > cap")
    rng = _rng(seed, 0)
    q_seq = _iid_symbols(p_q, rng.random(n))
    v0_seqs = sample_given(p_v0_q, np.repeat(q_seq[None, :], n_tot, axis=0), rng)
    # marginals of the joint satellite factor, whose validated rows each sum to 1
    p_v12 = p_v12_v0.reshape(n0, n1, n2)
    p_v1_v0 = p_v12.sum(axis=2)
    p_v2_v0 = p_v12.sum(axis=1)
    v1_seqs = sample_given(p_v1_v0, np.repeat(v0_seqs[:, None, :], nt1, axis=1), rng)
    v2_seqs = sample_given(p_v2_v0, np.repeat(v0_seqs[:, None, :], nt2, axis=1), rng)
    # pairing: jointly typical (v1, v2) per product bin wrt p(q,v0,v1,v2)
    joint = p_q[:, None, None, None] * p_v0_q[:, :, None, None] * p_v12.reshape(1, n0, n1, n2)
    lb, ub = count_bounds(joint, n, params.epsilon)
    n_cells = nq * n0 * n1 * n2
    nb1, nb2 = 1 << k_b1, 1 << k_b2
    bs1, bs2 = nt1 // nb1, nt2 // nb2
    pairing = np.full((n_tot, nb1, nb2, 2), -1, dtype=np.int64)
    for l0 in range(n_tot):
        # typicality of every (t1, t2) pair at once, then one row per bin
        base = (q_seq * n0 + v0_seqs[l0]) * (n1 * n2)
        cells = (
            base[None, None, :]
            + (v1_seqs[l0] * n2)[:, None, :]
            + v2_seqs[l0][None, :, :]
        )
        ok = typical_mask(joint_counts(cells, n_cells), lb, ub)
        ok = ok.reshape(nb1, bs1, nb2, bs2).swapaxes(1, 2).reshape(nb1 * nb2, bs1 * bs2)
        # the typical pairs bin by bin, each bin's row-major as argwhere lists them
        hits = np.flatnonzero(ok)
        count = np.bincount(hits // (bs1 * bs2), minlength=nb1 * nb2)
        bins = np.flatnonzero(count)
        at = hits[(np.cumsum(count) - count)[bins] + rng.integers(count[bins])] % (bs1 * bs2)
        b1, b2 = np.divmod(bins, nb2)
        t1, t2 = np.divmod(at, bs2)
        pairing[l0, b1, b2] = np.stack([b1 * bs1 + t1, b2 * bs2 + t2], axis=1)
    return MartonCodebook(
        tables=tabs, sizes=(nq, n0, n1, n2), x_size=nx, n=n,
        k_msg=k_msg, k_total=k_total, k_t1=k_t1, k_t2=k_t2, k_b1=k_b1, k_b2=k_b2,
        q_seq=q_seq, v0_seqs=v0_seqs, v1_seqs=v1_seqs, v2_seqs=v2_seqs,
        pairing=pairing, seed=seed,
    )


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EncodeResult:
    x_seq: Optional[np.ndarray]   # None on a Marton encoding failure
    l0: int
    satellites: tuple[int, ...]

    @property
    def erased(self) -> bool:
        return self.x_seq is None


def _wiretap_pick(cb: WiretapCodebook, message, rng):
    """A uniform member l0 of the message's bin, then a uniform satellite l1: ints from a
    Generator, arrays from ``Streams`` (``message`` then holds one message a stream)."""
    l0 = message * cb.bin_size + rng.integers(cb.bin_size)
    return l0, rng.integers(1 << cb.k_sat)


def encode(cb, message: int, seed: int) -> EncodeResult:
    """Uniform bin-member and satellite choice; emits the input sequence."""
    if not 0 <= message < cb.n_messages:
        raise ValueError(f"message {message} out of range")
    rng = _rng(seed, 1)
    if isinstance(cb, WiretapCodebook):
        l0, l1 = map(int, _wiretap_pick(cb, message, rng))
        return EncodeResult(cb.x_seqs[l0, l1].copy(), l0, (l1,))
    l0 = message * cb.bin_size + int(rng.integers(cb.bin_size))
    b1 = int(rng.integers(cb.pairing.shape[1]))
    b2 = int(rng.integers(cb.pairing.shape[2]))
    t1, t2 = cb.pairing[l0, b1, b2]
    if t1 < 0:
        return EncodeResult(None, l0, (b1, b2))
    x = sample_given(cb.tables[3], cb.input_rows(l0, t1, t2), rng)
    return EncodeResult(x, l0, (int(t1), int(t2)))


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecodeResult:
    message: Optional[int]
    l0: Optional[int]
    reason: str   # ok | none-typical | ambiguous

    @property
    def ok(self) -> bool:
        return self.reason == "ok"


def _channel_to(cb, chan: ConditionalPmf) -> np.ndarray:
    if chan.rows != cb.x_size:
        raise DistributionError("channel input must be the X alphabet")
    return chan.matrix


NONE_TYPICAL, AMBIGUOUS = -1, -2   # what ``decode_block`` returns for an undecodable output


@dataclass(frozen=True, eq=False)
class _DecodePlan:
    """What a typicality decoder needs from (codebook, channel, params).

    Cells are the joint symbols of the cell pmf ``p`` ((v, y) for direct
    decoding, (v, x, y) for indirect), numbered row-major.  ``bases[c, i]``
    is the cell of codeword c at position i when y_i = 0, so its cell
    sequence for y is ``bases[c] + y``.  A cell outside the support has the
    window [0, 0], so a codeword that hits one is atypical: a set bit marks
    the codewords whose cell at position i is in the support when
    y_i = y, packed eight codewords a byte, lowest bit first, in
    ``screen[i, y]``.  Only codewords allowed at every position are counted,
    over the support cells alone (``index`` numbers them; ``lb``/``ub`` are
    their windows).  The same codewords pass as under a check of every cell.
    ``decode_block`` decodes a stack of outputs, ``decode`` one.
    """

    lb: np.ndarray
    ub: np.ndarray
    index: np.ndarray
    bases: np.ndarray
    screen: np.ndarray
    per_cloud: int       # codewords per v-sequence: 1 direct, the satellites indirect
    bin_size: int

    def decode_block(self, y: np.ndarray) -> np.ndarray:
        """The decoded l0 of every row of y (T, n), or NONE_TYPICAL or AMBIGUOUS.

        Survivors come out row by row, codewords ascending, so a row decodes
        when its first and last typical codewords lie in one cloud.
        """
        n_cw, n = self.bases.shape
        out = np.empty(len(y), dtype=np.int64)
        step = max(1, _COUNT_CHUNK // n_cw)
        for start in range(0, len(y), step):
            ys = y[start:start + step]
            screen = np.bitwise_and.reduce(self.screen[np.arange(n), ys], axis=1)
            rows, byte = np.nonzero(screen)
            bits = np.unpackbits(screen[rows, byte][:, None], axis=1, bitorder="little")
            hit, bit = np.nonzero(bits)
            rows, cand = rows[hit], byte[hit] * 8 + bit
            counts = joint_counts(self.index[self.bases[cand] + ys[rows]], self.lb.size)
            typical = typical_mask(counts, self.lb, self.ub)
            rows, cloud = rows[typical], cand[typical] // self.per_cloud
            edge = np.searchsorted(rows, np.arange(len(ys) + 1))   # row r's: edge[r]:edge[r + 1]
            found = edge[:-1] < edge[1:]
            lo, hi = cloud[edge[:-1][found]], cloud[edge[1:][found] - 1]
            out[start:start + len(ys)] = NONE_TYPICAL
            out[start:start + len(ys)][found] = np.where(lo == hi, lo, AMBIGUOUS)
        return out

    def decode(self, y_seq: np.ndarray) -> DecodeResult:
        l0 = int(self.decode_block(y_seq[None])[0])
        if l0 < 0:
            return DecodeResult(None, None, "none-typical" if l0 == NONE_TYPICAL else "ambiguous")
        return DecodeResult(l0 // self.bin_size, l0, "ok")


def _decode_plan(cb: WiretapCodebook, chan: ConditionalPmf, params: TypicalityParams,
                 decoder: str) -> _DecodePlan:
    if decoder not in ("direct", "indirect"):
        raise ValueError("decoder must be direct or indirect")
    W = _channel_to(cb, chan)
    ny = W.shape[1]
    if decoder == "direct":
        p = cb.p_v[:, None] * (cb.p_x_given_v @ W)   # p(v, y)
        bases, per_cloud = cb.v_seqs * ny, 1
    else:
        p = (cb.p_v[:, None] * cb.p_x_given_v)[:, :, None] * W[None, :, :]   # p(v, x, y)
        bases = ((cb.v_seqs[:, None, :] * cb.x_size + cb.x_seqs) * ny).reshape(-1, cb.n)
        per_cloud = cb.x_seqs.shape[1]
    lb, ub = count_bounds(p, cb.n, params.epsilon)
    support = p.ravel() > 0
    index = np.cumsum(support) - 1
    allowed = np.stack([support[bases.T + y] for y in range(ny)], axis=1)
    return _DecodePlan(
        lb=lb[support], ub=ub[support], index=index,
        bases=bases, screen=np.packbits(allowed, axis=-1, bitorder="little"),
        per_cloud=per_cloud, bin_size=cb.bin_size,
    )


def decode_direct(cb: WiretapCodebook, y_seq: np.ndarray, params: TypicalityParams,
                  chan: ConditionalPmf) -> DecodeResult:
    """Unique jointly typical v-sequence against the induced p(v, y)."""
    return _decode_plan(cb, chan, params, "direct").decode(y_seq)


def decode_indirect(cb: WiretapCodebook, y_seq: np.ndarray, params: TypicalityParams,
                    chan: ConditionalPmf) -> DecodeResult:
    """Unique cloud index with *some* satellite jointly typical with y."""
    return _decode_plan(cb, chan, params, "indirect").decode(y_seq)


# ---------------------------------------------------------------------------
# Exact equivocation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimReport:
    equivocation_rate: float
    leakage_rate: float
    message_rate: float            # H(M)/n
    trials: int
    encoding_failure_rate: float
    exact: bool
    ci_halfwidth: Optional[float] = None


def _zn_pmf_batch(rows: np.ndarray) -> np.ndarray:
    """Product distributions for a batch: (B, n, |Z|) -> (B, |Z|^n), z_1 most significant.

    One multiply per position and output symbol, into the symbol's slot of
    the (B, K, |Z|) result: the outer product's bits without its inner loop
    of length |Z|.  With n = 0 every row is the empty product, a single 1.
    """
    b, n, nz = rows.shape
    if n == 0:
        return np.ones((b, 1))
    v = rows[:, 0]
    for i in range(1, n):
        out = np.empty((b, v.shape[1], nz))
        for j in range(nz):
            np.multiply(v, rows[:, i, j][:, None], out=out[:, :, j])
        v = out.reshape(b, -1)
    return v


def _message_conditionals(cb, chan: ConditionalPmf, caps: Caps) -> tuple[np.ndarray, float]:
    """p(z^n | m) for every message, by exact marginalization.

    Returns (matrix of shape (n_messages, |Z|^n), encoding_failure_rate).
    A wiretap message's law is the mean over its codewords c of the product
    law of c, which splits as head_c (x) tail_c over the first h = n // 2
    positions and the other n - h; one batched matmul of (messages, |Z|^h,
    codewords) by (messages, codewords, |Z|^(n-h)) sums every message's
    outer products, rows indexed by z_1..z_h, so z_1 stays most significant.
    """
    nz = chan.cols
    n = cb.n
    out_space = nz ** n
    if out_space > caps.max_exact_outputs:
        raise CapExceededError(
            f"|Z|^n = {out_space} exceeds cap {caps.max_exact_outputs}; "
            "use mc_equivocation instead"
        )
    W = _channel_to(cb, chan)
    wiretap = isinstance(cb, WiretapCodebook)   # codewords: (l0, satellite) or (l0, b1, b2)
    n_cw = (cb.x_seqs if wiretap else cb.pairing)[..., 0].size
    if out_space * n_cw > caps.max_exact_work:
        raise CapExceededError("exact equivocation work above cap")
    if wiretap:
        n_m, h, per = cb.n_messages, n // 2, n_cw // cb.n_messages
        x = cb.x_seqs.reshape(n_cw, n)   # message by message, every bin codeword in order
        head = _zn_pmf_batch(W.take(x[:, :h], axis=0)).reshape(n_m, per, -1)
        tail = _zn_pmf_batch(W.take(x[:, h:], axis=0)).reshape(n_m, per, -1)
        conds = (head.transpose(0, 2, 1) @ tail).reshape(n_m, out_space)
        conds /= per
        return conds, 0.0
    Wc = cb.tables[3] @ W  # (n0*n1*n2, nz): symbol-wise input sampling folded in
    nb1, nb2 = cb.pairing.shape[1], cb.pairing.shape[2]
    conds = np.zeros((cb.n_messages, out_space))
    failures = 0
    per_msg = cb.bin_size * nb1 * nb2
    for m in range(cb.n_messages):
        # every (l0, b1, b2) of the bin in order, unpaired ones dropped
        l0 = np.repeat(np.arange(m * cb.bin_size, (m + 1) * cb.bin_size), nb1 * nb2)
        t1, t2 = cb.pairing[m * cb.bin_size:(m + 1) * cb.bin_size].reshape(-1, 2).T
        paired = t1 >= 0
        failures += per_msg - int(np.count_nonzero(paired))
        if not paired.any():
            raise DistributionError(f"message {m} has no successfully paired bins")
        rows = cb.input_rows(l0[paired], t1[paired], t2[paired])
        # rows add one after another, as a running sum over the pairs would
        conds[m] = _zn_pmf_batch(Wc.take(rows, axis=0)).sum(axis=0) / len(rows)
    return conds, failures / (cb.n_messages * per_msg)


def exact_equivocation(cb, chan: ConditionalPmf, caps: Caps = DEFAULT_CAPS) -> SimReport:
    """H(M|Z^n)/n and I(M;Z^n)/n by exact enumeration, uniform messages.

    The two rates are computed by independent summations, so their sum
    reconstructing H(M)/n is a real consistency check, not an identity
    of the implementation.  Marton encoding failures are excluded from
    the conditional law (conditioning on successful encoding) and
    reported via encoding_failure_rate.
    """
    conds, fail_rate = _message_conditionals(cb, chan, caps)
    n_m = conds.shape[0]
    p_m = np.full(n_m, 1.0 / n_m)
    p_z = p_m @ conds
    # both sums run over the cells where p(m, z) > 0, on each of which p(z) > 0
    joint = conds * p_m[:, None]
    cells = joint > 0
    p_mz, p_zc = joint[cells], np.broadcast_to(p_z, joint.shape)[cells]
    # equivocation: H(M|Z^n) = -sum_z sum_m p(m, z) log2 p(m|z)
    hmz = float(-(p_mz * np.log2(p_mz / p_zc)).sum())
    # leakage: I(M;Z^n) = sum_{m,z} p(m,z) log2( p(z|m) / p(z) )
    leak = float((p_mz * np.log2(conds[cells] / p_zc)).sum())
    n = cb.n
    return SimReport(equivocation_rate=hmz / n, leakage_rate=leak / n,
                     message_rate=entropy_of_vector(p_m) / n, trials=0,
                     encoding_failure_rate=fail_rate, exact=True)


def _score_tables(flat_x: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, list[tuple]]:
    """(x_ind, folds), the codebook side of ``_message_log_likelihoods``.

    With symbol 0 as reference, ``x_ind`` (n, (|X| - 1) codewords) marks x_i = a, a block
    per a >= 1, so [z = b] @ x_ind counts the joint type N(a, b), a, b >= 1, exactly in any
    summation order.  By the symbol weights w, sum_(a,b) N(a, b) M[a, b] = sum_(a,b >= 1)
    N(a, b) D[a, b] + bx[c] + bz[t], summed in this order, with r[b] = M[0, b] - M[0, 0],
    D[a, b] = (M[a, b] - M[a, 0]) - r[b], bx = sum_a w_a (M[a, 0] - M[0, 0]) and bz =
    n M[0, 0] + sum_b w_b r[b].  A fold (D, bx, r[1:], n M[0, 0]) is kept for M = log2 W
    (0 where W is 0) and, if W has a zero, for [W = 0], which counts positions on zeros.
    """
    n, marks = flat_x.shape[1], flat_x == np.arange(1, W.shape[0])[:, None, None]
    x_ind = marks.transpose(2, 0, 1).reshape(n, -1).astype(float, order="C")
    folds = []
    for m in [log2_cells(W)] + ([(W == 0).astype(float)] if (W == 0).any() else []):
        r = m[0] - m[0, 0]
        bx = sum((w * (m[a, 0] - m[0, 0]) for a, w in enumerate(marks.sum(axis=2), 1)),
                 np.zeros(len(flat_x)))
        folds.append(((m[1:, 1:] - m[1:, :1]) - r[1:], bx, r[1:], n * m[0, 0]))
    return x_ind, folds


def _score_buffers(folds: list, n: int, trials: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(chunk, buf, mask): the trials of a Monte Carlo block and the float and bool buffers
    ``_message_log_likelihoods`` scores it in.  buf holds trials x codewords slabs: the
    joint-type counts, which the fold of log2 W sums over in place (a slab where there is
    no count), and where W has a zero, the dead-position fold, with a slab for its products
    past the first.  A block fills at most _SCORE_CHUNK cells with its slabs, and with its
    output one-hots, n |Z| cells a trial."""
    (nx1, nz1), n_cw, dead = folds[0][0].shape, len(folds[0][1]), len(folds) > 1
    k, nz = nx1 * nz1, nz1 + 1
    slabs = max(k, 1) + dead * (1 + (k > 1))
    chunk = min(trials, max(1, _SCORE_CHUNK // max(slabs * n_cw, n * nz)))
    return chunk, np.empty(slabs * chunk * n_cw), np.empty(dead * chunk * n_cw, dtype=bool)


def _message_log_likelihoods(x_ind: np.ndarray, folds: list, z: np.ndarray, n_m: int,
                             buf: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """log2 p(z^n | m) for a chunk of outputs z (T, n): (T, messages).

    One matmul counts every joint type, and each fold of ``_score_tables`` is summed
    elementwise in a fixed order, so no bit depends on the BLAS kernel.  A position on a
    zero of W makes a likelihood exactly -inf.  Messages mix codewords by log-mean-exp.
    Each T x codewords array is worked in place in ``_score_buffers``' buf and mask.
    """
    t, n = z.shape
    (nx1, nz1), n_cw = folds[0][0].shape, len(folds[0][1])   # |X| - 1, |Z| - 1, codewords
    k, cells = nx1 * nz1, t * n_cw

    def slab(i):
        return buf[i * cells:(i + 1) * cells].reshape(t, n_cw)

    def fold(f, s, spare=None):
        """s = the fold's sum; each product past the first goes to spare, or over its counts."""
        d, bx, r, corner = f
        if not k:
            s[...] = 0.0
        for i, (a, b) in enumerate(np.ndindex(d.shape)):
            c = counts[b, :, a]
            if i:
                s += np.multiply(c, d[a, b], out=c if spare is None else spare)
            else:
                np.multiply(c, d[a, b], out=s)
        s += bx
        s += sum((w * rb for w, rb in zip(w_z, r)), np.full(t, corner))[:, None]
        return s

    z_ind = (z == np.arange(1, nz1 + 1)[:, None, None]).reshape(-1, n).astype(float)
    counts = np.matmul(z_ind, x_ind, out=buf[:k * cells].reshape(nz1 * t, nx1 * n_cw))
    counts = counts.reshape(nz1, t, nx1, n_cw)   # N(a, b) at [b - 1, :, a - 1]
    w_z = z_ind.reshape(nz1, t, n).sum(axis=2)
    if len(folds) > 1:   # before the fold of log2 W overwrites the counts
        dead = fold(folds[1], slab(max(k, 1)), slab(max(k, 1) + 1) if k > 1 else None)
        dead = np.greater(dead, 0, out=mask[:cells].reshape(t, n_cw))
    ll = fold(folds[0], counts[0, :, 0] if k else slab(0))
    if len(folds) > 1:
        np.copyto(ll, -np.inf, where=dead)
    ll = ll.reshape(t, n_m, -1)
    top = ll.max(axis=2, keepdims=True)
    top[~np.isfinite(top)] = 0.0   # a message none of whose codewords can emit z
    ll -= top
    with np.errstate(divide="ignore"):
        return np.log2(np.exp2(ll, out=ll).mean(axis=2)) + top[..., 0]


def _mc_samples(cb: WiretapCodebook, W: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """The per-trial scores -log2 p(m|z^n) of ``mc_equivocation``.

    Trial t draws (m, bin member, satellite, z^n) from its own stream.  With
    l_m = log2 p(z^n|m), its score is log2 sum_m' 2^(l_m' - l_m), computed
    from the largest l_m'; the sum holds the exact term 1, so a score is
    never negative, and no likelihood product underflows.
    """
    n, n_m = cb.n, cb.n_messages
    flat_x = cb.x_seqs.reshape(-1, n)
    x_ind, folds = _score_tables(flat_x, W)
    bounds = _symbol_bounds(W)
    chunk, buf, mask = _score_buffers(folds, n, trials)
    samples = np.empty(trials)
    for first, block in _trial_blocks(seed, trials, chunk):
        # each draw kind over the block's streams, in a trial's order
        sent = block.integers(n_m)
        l0, l1 = _wiretap_pick(cb, sent, block)
        cw = l0 * cb.x_seqs.shape[1] + l1
        for rows, u in block.random_chunks(n, chunk):
            z = _pick_symbols(bounds, flat_x.take(cw[rows], axis=0), u)
            ell = _message_log_likelihoods(x_ind, folds, z, n_m, buf, mask)
            top = ell.max(axis=1)
            with np.errstate(invalid="ignore"):
                score = top - ell[np.arange(len(u)), sent[rows]] + np.log2(
                    np.exp2(ell - top[:, None]).sum(axis=1)
                )
            # a z that no codeword can emit (float dust at a row's last cell) scores 0
            samples[first:][rows] = np.where(np.isfinite(top), score, 0.0)
    return samples


def mc_equivocation(cb, chan: ConditionalPmf, trials: int, seed: int) -> SimReport:
    """Monte Carlo equivocation: sample (m, z^n), score -log2 p(m|z^n).

    p(m|z^n) is computed exactly for each sampled z^n (mixture over the
    codebook, in the log domain), so the estimator is an unbiased sample
    mean of the exact conditional surprisal; the reported ci_halfwidth is
    1.96 sigma/sqrt(T).
    """
    if not isinstance(cb, WiretapCodebook):
        raise TypeError("mc_equivocation supports superposition codebooks")
    _check_count("trials", trials)
    samples = _mc_samples(cb, _channel_to(cb, chan), trials, seed)
    mean = float(samples.mean())
    half = float(1.96 * samples.std(ddof=1) / np.sqrt(trials)) if trials > 1 else None
    n = cb.n
    hm = float(np.log2(cb.n_messages)) / n
    return SimReport(equivocation_rate=mean / n, leakage_rate=hm - mean / n, message_rate=hm,
                     trials=trials, encoding_failure_rate=0.0, exact=False,
                     ci_halfwidth=None if half is None else half / n)


def decoding_error_rate(cb: WiretapCodebook, chan: ConditionalPmf, params: TypicalityParams,
                        trials: int, seed: int, decoder: str = "indirect") -> tuple[float, int]:
    """Monte Carlo block error rate of direct or indirect decoding.

    The decode plan is built once; each trial draws its message and an
    encoding seed from its own stream, encodes as ``encode`` would with that
    seed, and draws the uniforms of its channel output from its own stream
    again, as a single decode would.  Both kinds of stream are seeded, and
    the outputs decoded, a block of trials at a time.
    """
    _check_count("trials", trials)
    plan = _decode_plan(cb, chan, params, decoder)
    bounds = _symbol_bounds(chan.matrix)
    errors = 0
    for _, trial in _trial_blocks(seed, trials):
        sent = trial.integers(cb.n_messages)
        l0, l1 = _wiretap_pick(cb, sent, Streams(trial.integers(1 << 31), 1))
        l0 = plan.decode_block(_pick_symbols(bounds, cb.x_seqs[l0, l1], trial.random(cb.n)))
        errors += int(np.count_nonzero((l0 < 0) | (l0 // cb.bin_size != sent)))
    return errors / trials, trials


# ---------------------------------------------------------------------------
# Typical-count concentration experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lemma1Report:
    exceedance_frequency: float
    threshold: float
    mean_count: float
    max_count: int
    info_rate: float        # I(V;Z|U) of the driving distribution
    s_rate: float           # quantized list exponent k/n actually used
    in_concentration_regime: bool
    trials: int


def lemma1_experiment(
    dist,
    s_rate: float,
    params: TypicalityParams,
    trials: int,
    seed: int,
    caps: Caps = DEFAULT_CAPS,
) -> Lemma1Report:
    """Count conditionally-i.i.d. v-sequences jointly typical with (u, z).

    Samples U^n, a list of 2^ceil(nS) sequences V^n(l) i.i.d. from
    p(v|u), and Z^n from p(z|u, v(L)) at a uniformly chosen list index L;
    reports how often the typical count exceeds the concentration
    threshold (1 + delta1) 2^{n(S - I(V;Z|U) + delta)}.
    """
    _check_count("trials", trials)
    t = as_joint(dist).marginal(("U", "V", "Z")).tensor
    nu, nv, nz = t.shape
    p_u, p_uv = t.sum(axis=(1, 2)), t.sum(axis=2)
    p_v_u = conditional(p_uv, p_u)
    p_z_uv = conditional(t, p_uv).reshape(nu * nv, nz)
    info = JointPmf(("U", "V", "Z"), t).conditional_mutual_information(
        ("V",), ("Z",), ("U",)
    )
    n = params.n
    k = _exponent(n, s_rate)
    _check_exponent(k, caps.max_codebook_entries * 8, "lemma1 experiment size")
    n_list = 1 << k
    if n_list * n * trials > caps.max_codebook_entries * 8:
        raise CapExceededError("lemma1 experiment size above cap")
    s_eff = k / n
    threshold = (1 + params.delta1) * 2 ** (n * (s_eff - info + params.delta))
    lb, ub = count_bounds(t, n, params.epsilon)
    n_cells = nu * nv * nz
    bounds_v, bounds_z = _symbol_bounds(p_v_u), _symbol_bounds(p_z_uv)
    counts = np.empty(trials, dtype=np.int64)
    chunk = min(trials, max(1, _COUNT_CHUNK // (n_list * n)))
    for first, block in _trial_blocks(seed, trials, chunk):
        # a trial's draws in stream order: the uniforms of U^n then of the list
        # V^n(l), taken as one block of n_list + 1 rows, the index L, those of Z^n
        draws_uv = block.random_chunks((n_list + 1, n), chunk)
        ell, draw_z = block.integers(n_list), block.random(n)
        for rows, draw_uv in draws_uv:
            u = _iid_symbols(p_u, draw_uv[:, 0])
            vs = _pick_symbols(bounds_v, u[:, None, :], draw_uv[:, 1:])
            z = _pick_symbols(bounds_z, u * nv + vs[np.arange(len(u)), ell[rows]], draw_z[rows])
            cells = (u[:, None, :] * nv + vs) * nz + z[:, None, :]
            mask = typical_mask(joint_counts(cells, n_cells), lb, ub)
            counts[first:][rows] = mask.sum(axis=1)
    return Lemma1Report(
        exceedance_frequency=int(np.count_nonzero(counts >= threshold)) / trials,
        threshold=float(threshold),
        mean_count=float(counts.sum()) / trials,
        max_count=int(counts.max()),
        info_rate=float(info),
        s_rate=s_eff,
        in_concentration_regime=bool(s_eff > info + params.delta),
        trials=trials,
    )
