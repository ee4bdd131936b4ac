"""The host's speed at this moment, from a fixed kernel that does not use conedual.

On a shared 2-vCPU Xeon guest (2.1 GHz), contention from other virtual
machines slowed every instruction by up to 1.7x, in stretches that lasted
from seconds to whole minutes.  A run that fell inside such a stretch read
20-45% slower, whatever statistic it took within the run.  The kernel below
slows down with the host, so the runner times it around each operation and
scales the operation's time by `REF_S / probe()`: the result is the time the
operation would take at the reference speed, in seconds.

The kernel mixes what the workloads do: Python-object arithmetic (Fraction
sums and dict updates, as in exact projection) and small LAPACK calls (LU
solve, matrix-vector product, symmetric eigendecomposition, as in the HSDE
solver).  It is fixed: changing it, or `REF_S`, changes every time metric.
numpy and scipy are imported on the first call, so that importing this
module costs nothing in set-up time.
"""

from __future__ import annotations

import functools
import time
from fractions import Fraction

# best time of the kernel on a quiet 2-vCPU Xeon guest at 2.1 GHz (Python
# 3.11, numpy 2.4, scipy 1.17, one BLAS thread); on such a host the scaled
# times read as wall seconds
REF_S = 2.2e-3


@functools.cache
def _kernel_inputs():
    import numpy as np
    from scipy.linalg import eigh, lu_factor, lu_solve

    rng = np.random.default_rng(0)
    a = rng.standard_normal((30, 30))
    s = rng.standard_normal((6, 6))
    return (np, eigh, lu_solve, a, lu_factor(a + 30.0 * np.eye(30)),
            rng.standard_normal(30), s + s.T)


def _kernel() -> float:
    np, eigh, lu_solve, a, lu, v, sym = _kernel_inputs()
    t0 = time.perf_counter()
    total, buckets = Fraction(0), {}
    for i in range(1, 400):
        total += Fraction(i, i + 1)
        buckets[i % 17] = buckets.get(i % 17, 0) + i
    for _ in range(40):
        x = lu_solve(lu, v)
        np.maximum(a @ x, 0.0)
        eigh(sym)
    return time.perf_counter() - t0


def probe(repeats: int = 2) -> float:
    """Best of `repeats` timings of the kernel, in seconds."""
    return min(_kernel() for _ in range(repeats))
