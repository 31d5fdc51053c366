"""numpy's seeded random streams, vectorized over a block of streams, each with
numpy's own bits: ``seed_states`` is ``SeedSequence`` hashing, ``Streams`` the
draws of a PCG64 ``Generator`` (O'Neill's 128-bit LCG with XSL-RR output, whose
state jumps k steps in closed form, and Lemire's bounded integers)."""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Iterator

import numpy as np

# numpy SeedSequence's hashing constants (a pool of four 32-bit words)
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645   # PCG64's 128-bit LCG multiplier
# A run of at most SHORT_RUN uniforms jumps every state at once; a longer one
# is drawn in C stream by stream.
SHORT_RUN = 64


def seed_states(seed, key: tuple) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)`` for a batch.

    ``seed`` and each entry of the non-empty ``key`` are an int or a 1-D array
    of ints in [0, 2^32), one per stream (a row of the result).  This is numpy's
    entropy assembly, pool mixing and output hashing, in uint32 arithmetic.
    """
    words = []
    for i, part in enumerate((seed, *key)):
        if isinstance(part, np.ndarray):
            if part.size and not (part.min() >= 0 and part.max() <= _MASK32):
                raise ValueError("batched seed words must lie in [0, 2^32)")
            words.append(part.astype(np.uint32))
        elif (x := int(part)) < 0:
            raise ValueError("expected non-negative integer")
        else:   # 32-bit words, least significant first, as numpy splits an int
            words += [x >> b & _MASK32 for b in range(0, max(x.bit_length(), 1), 32)]
        if i == 0:   # a spawn key follows, so the seed is padded to the pool size
            words += [0] * (4 - len(words))
    rows = max((w.size for w in words if isinstance(w, np.ndarray)), default=1)
    words = [np.broadcast_to(np.uint32(w), (rows,)) for w in words]
    hc = [_INIT_A]

    def hashmix(v):
        v = v ^ np.uint32(hc[0])
        hc[0] = hc[0] * _MULT_A & _MASK32
        v = v * np.uint32(hc[0])
        return v ^ (v >> 16)

    def mix(x, y):
        r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return r ^ (r >> 16)

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    state = np.empty((rows, 8), dtype=np.uint32)
    hb = _INIT_B
    for i in range(8):
        v = pool[i % 4] ^ np.uint32(hb)
        hb = hb * _MULT_B & _MASK32
        v = v * np.uint32(hb)
        state[:, i] = v ^ (v >> 16)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


@lru_cache(maxsize=32)
def _jumps(k: int) -> np.ndarray:
    """Rows (A hi, A lo, G hi, G lo) of j = 1..k: j PCG64 steps take s to A_j s + G_j inc."""
    a, g, out = 1, 0, []
    for _ in range(k):
        a, g = a * _PCG_MULT & _MASK128, (g * _PCG_MULT + 1) & _MASK128
        out.append((a >> 64, a & _MASK64, g >> 64, g & _MASK64))
    table = np.array(out, dtype=np.uint64).T
    table.flags.writeable = False   # one cached table serves every caller
    return table


def _affine(s_hi, s_lo, inc_hi, inc_lo, jump):
    """A s + G inc mod 2^128 in hi/lo uint64 words (low words multiplied in 32-bit halves)."""
    hi = lo = 0
    for ah, al, bh, bl in ((*jump[:2], s_hi, s_lo), (*jump[2:], inc_hi, inc_lo)):
        a0, a1, b0, b1 = al & _MASK32, al >> 32, bl & _MASK32, bl >> 32
        p01, p10 = a0 * b1, a1 * b0
        mid = (a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
        low = lo + al * bl
        hi = hi + a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + ah * bl + al * bh + (low < lo)
        lo = low
    return hi, lo


def _xsl_rr(hi, lo):
    """PCG64's 64-bit output of a state: hi ^ lo rotated right by the top six bits."""
    x, rot = hi ^ lo, hi >> 58
    return (x >> rot) | (x << ((64 - rot) & 63))


class Streams:
    """``Generator(PCG64(SeedSequence(seed, spawn_key=key)))`` for each stream of a
    batch (see ``seed_states``).  Rows of ``w``: each stream's state and increment
    as hi/lo uint64 words, PCG64's has_uint32 flag and its buffered word."""

    def __init__(self, seed, *key):
        s = seed_states(seed, key).T
        self.w = w = np.zeros((6, s.shape[1]), dtype=np.uint64)
        w[2], w[3] = (s[2] << 1) | (s[3] >> 63), (s[3] << 1) | 1
        low = w[3] + s[1]   # as pcg64_set_seed: from 0, a step (to inc), add s, a step
        w[0], w[1] = _affine(w[2] + s[0] + (low < s[1]), low, w[2], w[3], _jumps(1))

    def integers(self, n: int) -> np.ndarray:
        """``integers(n)`` of every stream, 1 <= n <= 2^32: nothing drawn for n = 1, else
        Lemire's method on buffered 32-bit halves, redrawing the rejected streams."""
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"integers(n) needs 1 <= n <= 2^32, got {n}")
        w, out = self.w, np.zeros(self.w.shape[1], dtype=np.int64)
        todo = np.arange(w.shape[1] if n > 1 else 0)
        while todo.size:
            x, fresh = w[5, todo], w[4, todo] == 0
            rows = todo[fresh]
            w[0, rows], w[1, rows] = _affine(*w[:4, rows], _jumps(1))
            full = _xsl_rr(w[0, rows], w[1, rows])
            x[fresh], w[5, rows], w[4, todo] = full & _MASK32, full >> 32, fresh
            m = x * np.uint64(n)
            out[todo] = m >> 32
            todo = todo[(m & _MASK32) < (1 << 32) % n]
        return out

    def random(self, shape) -> np.ndarray:
        """``random(shape)`` of every stream, stacked: (streams, *shape)."""
        return next(self.random_chunks(shape, max(1, self.w.shape[1])))[1]

    def random_chunks(self, shape, chunk: int) -> Iterator[tuple[slice, np.ndarray]]:
        """``random(shape)`` of every stream, as (rows, draws) of ``chunk`` streams a piece.
        The states advance at the call: a short run's by jumps to each of its
        states, a longer one's past it, which is drawn in C a piece at a time."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        k, w = prod(shape), self.w
        pieces = [slice(a, a + chunk) for a in range(0, w.shape[1], chunk)]
        if k <= SHORT_RUN:
            hi, lo = _affine(*w[:4, :, None], _jumps(k)[:, None, :])
            w[0], w[1] = hi[:, -1], lo[:, -1]
            out = ((_xsl_rr(hi, lo) >> 11) * 2.0**-53).reshape(w.shape[1], *shape)
            return ((rows, out[rows]) for rows in pieces)
        states, gen = w[:4].copy(), np.random.Generator(np.random.PCG64(0))
        w[0], w[1] = _affine(*w[:4], _jumps(k)[:, -1:])
        # one state dict for every stream: only its state and increment change
        pcg = {"state": 0, "inc": 0}
        full = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": pcg}

        def draw(rows: slice) -> np.ndarray:
            out = np.empty((len(states[0, rows]), *shape))
            for row, (h, l, ih, il) in zip(out, states[:, rows].T.tolist()):
                pcg["state"], pcg["inc"] = h << 64 | l, ih << 64 | il
                gen.bit_generator.state = full
                gen.random(out=row)
            return out
        return ((rows, draw(rows)) for rows in pieces)
