"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the CPU time of the same work drifts by a quarter or more
over minutes, as other tenants load the caches and cores the process
shares.  Timing this kernel next to every op, in the same process, tracks
that drift; dividing an op's CPU time by the kernel's gives a figure that
moves only when the op's own work changes.  The kernel mixes what the
program's ops spend their time on: ``Fraction`` arithmetic on small and on
big integers, dict work in the interpreter, and numpy calls on small and on
mid-sized arrays.  It uses nothing from the program, so no change to the
program can move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# The kernel's CPU seconds at the host speed that normalized times are
# expressed in.  It is a fixed scale, not a measurement: on the 2-vCPU cloud
# VM the benchmark was tuned on (Python 3.11, numpy 2.4, OpenBLAS on one
# thread) the kernel took 0.075-0.139 s, so normalized times read like CPU
# seconds on that host when it is busy.
REFERENCE_S = 0.12

# The mid-sized arrays are made once: fresh ones in every run of the kernel
# would sit on top of whatever memory the op before left resident and raise
# peak_rss_mb; these add a fixed 1.5 MiB to every workload instead.
_MID = np.sqrt(np.arange(1.0, 1.0 + 256 * 256)).reshape(256, 256)
_NORMED = np.empty_like(_MID)
_TERMS = np.empty_like(_MID)


def kernel() -> float:
    # Four parts of about 25 ms each on that host.  Short Python-level loops
    # alone swing more with the host than the ops do and would overcorrect;
    # the big-integer and larger-array parts bring the kernel's swing to
    # that of the ops.
    acc = Fraction(0)  # small fractions and a dict, interpreter-bound
    counts: dict[int, int] = {}
    for i in range(1, 9000):
        acc += Fraction(i % 97, i % 89 + 1)
        counts[i % 257] = counts.get(i % 257, 0) + i
    x = Fraction(1, 3)  # big-integer fractions, like exact simplex pivots
    for i in range(1, 1500):
        x = (x * Fraction(i + 7, i + 3) + Fraction(1, i)) / (1 + x)
        if i % 50 == 0:
            x = Fraction(x.numerator % 10**60 + 1, x.denominator % 10**60 + 1)
    s = 0.0
    # fixed arrays: np.random alone would add 5 MiB to peak_rss_mb
    a = np.sqrt(np.arange(1.0, 49.0)).reshape(6, 8)  # numpy calls on small arrays
    for _ in range(4500):
        b = a / a.sum(axis=1, keepdims=True)
        s += float((b * np.log(b)).sum())
    for _ in range(90):  # numpy calls on mid-sized arrays, like simulate's kernels
        np.divide(_MID, _MID.sum(axis=1, keepdims=True), out=_NORMED)
        np.log(_NORMED, out=_TERMS)
        np.multiply(_NORMED, _TERMS, out=_TERMS)
        s += float(_TERMS.sum())
    return float(acc) + float(x) + s + len(counts)


def cpu_seconds() -> float:
    """CPU seconds of one run of the kernel."""
    c0 = time.process_time()
    kernel()
    return time.process_time() - c0
