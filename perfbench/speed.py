"""Machine-speed reference for normalising measured times.

The 2-vCPU VM this benchmark was tuned on runs beside other tenants,
and the same query list ran anywhere from 1x to 2x slower from one process
to the next.  Every query is therefore bracketed by a fixed kernel that uses
no k3moduli code: mpmath complex Horner steps at 800 digits (the shape of
j evaluation) and an enumeration of reduced forms in plain Python (the shape
of class-group work).  A time t measured between kernel times k0 and k1 is
reported as t * REFERENCE_S / ((k0 + k1) / 2): seconds at the speed where
the kernel takes REFERENCE_S.  A change to k3moduli cannot move the kernel,
so it moves the normalised figures in proportion to the raw ones.
"""

from __future__ import annotations

import time

from mpmath.ctx_mp import MPContext

from forms import reduced_forms

REFERENCE_S = 0.007  # about the kernel's median time on that VM


def kernel_seconds() -> float:
    start = time.perf_counter()
    ctx = MPContext()
    ctx.dps = 800
    z, acc = ctx.mpc(ctx.mpf(1) / 3, ctx.mpf(2) / 7), ctx.mpc(0)
    for k in range(60):
        acc = acc * z + k
    for _ in range(5):
        reduced_forms(-20003)
    return time.perf_counter() - start


def factors(kernels: list[float]) -> list[float]:
    """Per query, REFERENCE_S over the mean of the kernel times before and after it."""
    return [2 * REFERENCE_S / (k0 + k1) for k0, k1 in zip(kernels, kernels[1:])]


def normalised(times: list[float], kernels: list[float]) -> list[float]:
    """times[i] scaled by query i's factor."""
    return [t * f for t, f in zip(times, factors(kernels))]
