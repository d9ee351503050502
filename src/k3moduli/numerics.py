"""Arbitrary-precision evaluation of the modular j-function at CM points.

j is evaluated through the eta quotient h = q * (E(q^2) / E(q))^24, with
E(q) = prod(1 - q^n) and q = exp(2*pi*i*tau), as j = (1 + 256h)^3 / h.  Both
Euler products are summed by the pentagonal number theorem, so a truncation
order N costs O(sqrt N) terms; the tail beyond N is certified below the
working precision.  The arithmetic is fixed point on Python integers.

mpmath objects are made in one context per thread (`working_context`).  Its
precision is reset by each consumer, so every consumer converts its inputs
into the context on entry instead of computing on values it was handed.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from dataclasses import dataclass
from math import ceil, exp, expm1, log, pi, sqrt

from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_man_exp, from_str, mpf_neg, round_down, to_fixed, to_rational

from .errors import NotNearInteger, NotPositiveDefinite, PrecisionUnsupported

DEFAULT_SERIES_CAP = 10000
LOG2_10 = log(10, 2)
LN2 = log(2)
_GUARD_DIGITS = 15
# rounding of O(N) fixed-point products and the constants of the error
# propagation through E(q^2)/E(q), its 24th power and (1 + 256h)^3 / h
_GUARD_BITS = 64
# extra bits per unit of s = |q| / (1 - |q|)^2: |log E(q)| and |log(E(q^2)/E(q))|
# are at most s, and the error bound grows like exp(145 s)
_SPREAD_BITS = 210

_LOCAL = threading.local()


@dataclass(frozen=True)
class CMPoint:
    """tau = (-b + sqrt(disc)) / (2a) in the upper half plane."""

    a: int
    b: int
    disc: int


@dataclass(frozen=True)
class BigComplex:
    """Complex value carried at >= digits decimal digits of working precision."""

    re: object
    im: object
    digits: int


def working_context(dps: int) -> MPContext:
    """This thread's mpmath context, set to dps digits; threads stay independent."""
    ctx = getattr(_LOCAL, "ctx", None)
    if ctx is None:
        ctx = _LOCAL.ctx = MPContext()
    ctx.dps = dps
    return ctx


def _big_complex(ctx: MPContext, re: int, im: int, bits: int, digits: int) -> BigComplex:
    """BigComplex holding (re + i*im) * 2^-bits exactly."""
    return BigComplex(*(ctx.make_mpf(from_man_exp(v, -bits)) for v in (re, im)), digits)


def conjugate(z: BigComplex) -> BigComplex:
    """Exact complex conjugate."""
    return BigComplex(z.re, z.im.context.make_mpf(mpf_neg(z.im._mpf_)), z.digits)


def series_cap() -> int:
    value = os.environ.get("K3MODULI_SERIES_CAP")
    return int(value) if value else DEFAULT_SERIES_CAP


def _mul(x, y, bits):
    (xr, xi), (yr, yi) = x, y
    # three products instead of four
    k1 = yr * (xr + xi)
    return (k1 - xi * (yr + yi)) >> bits, (k1 + xr * (yi - yr)) >> bits


def _sqr(x, bits):
    xr, xi = x
    return (xr + xi) * (xr - xi) >> bits, 2 * xr * xi >> bits


def _div(x, y, bits):
    (xr, xi), (yr, yi) = x, y
    den = yr * yr + yi * yi
    return ((xr * yr + xi * yi) << bits) // den, ((xi * yr - xr * yi) << bits) // den


def _euler(q, order: int, bits: int):
    """prod(1 - q^n) = 1 + sum_k (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2)) in fixed
    point, up to at least the power q^order."""
    q2 = _sqr(q, bits)
    power, q_k, q_step = q, q, _mul(q2, q, bits)  # q^(k(3k-1)/2), q^k, q^(2k+1)
    re, im, sign, k, g = 1 << bits, 0, -1, 1, 1
    while g <= order:
        upper = _mul(power, q_k, bits)  # q^(k(3k+1)/2)
        re += sign * (power[0] + upper[0])
        im += sign * (power[1] + upper[1])
        power = _mul(upper, q_step, bits)
        q_k, q_step = _mul(q_k, q, bits), _mul(q_step, q2, bits)
        sign, g, k = -sign, g + 3 * k + 1, k + 1
    return re, im


def _series_order(log_abs_q: float, bits: int) -> int:
    """Least N with sum_{n > N} |q|^n below 2^-bits: the Euler products stop at q^N."""
    return int((bits * LN2 - log(-expm1(log_abs_q))) / -log_abs_q)


def j_invariant(point: CMPoint, digits: int) -> BigComplex:
    """j((-b + sqrt(disc)) / (2a)) to an absolute accuracy of 10^-digits.

    j(a, -b) is the exact complex conjugate of j(a, b); j is exactly real
    when a | b or |tau| = 1.
    """
    if point.a <= 0 or point.disc >= 0:
        raise NotPositiveDefinite("CM point needs a > 0 and disc < 0")
    a, b, disc = point.a, abs(point.b), point.disc
    log_abs_q = -pi * sqrt(-disc) / a
    # the result is q^-1 times O(1) factors: absolute accuracy needs the
    # bits of |q|^-1 on top of the digits
    magnitude = int(-log_abs_q / LN2) + 1
    spread = ceil(_SPREAD_BITS * exp(log_abs_q) / expm1(log_abs_q) ** 2)
    bits = ceil(digits * LOG2_10) + magnitude + _GUARD_BITS + spread
    order = _series_order(log_abs_q, bits)
    cap = series_cap()
    if order > cap:
        raise PrecisionUnsupported(
            f"{order} series terms needed, cap is {cap} (K3MODULI_SERIES_CAP)"
        )
    ctx = working_context(ceil((bits + magnitude) / LOG2_10) + 10)
    grow = ctx.exp(ctx.pi * ctx.sqrt(-disc) / a)  # |q|^-1
    turn = ctx.expjpi(ctx.mpf(-b) / a)  # q / |q|
    q = (turn.real / grow).to_fixed(bits), (turn.imag / grow).to_fixed(bits)
    q_inv = (turn.real * grow).to_fixed(bits), -(turn.imag * grow).to_fixed(bits)
    ratio = _div(_euler(_sqr(q, bits), order // 2, bits), _euler(q, order, bits), bits)
    r8 = _sqr(_sqr(_sqr(ratio, bits), bits), bits)
    w = _mul(_sqr(r8, bits), r8, bits)  # (E(q^2)/E(q))^24 = h/q
    hq = _mul(q, w, bits)
    t = (1 << bits) + 256 * hq[0], 256 * hq[1]
    re, im = _div(_mul(_mul(_sqr(t, bits), t, bits), q_inv, bits), w, bits)
    if b * b - disc == 4 * a * a:
        im = 0
    return _big_complex(ctx, re, -im if point.b < 0 else im, bits, digits)


def recognize_integer(z: BigComplex, tol) -> int:
    """Nearest integer when |Re z - round(Re z)|, |Im z| and |Re z| / 10^(digits + 15)
    are below tol: the last condition refuses a value that leaves tol no room
    in its working precision.  Exact on z; tol is read as a decimal, rounded down.
    """
    tol_p, tol_q = to_rational(from_str(str(tol), 64, round_down))
    re_p, re_q = to_rational(z.re._mpf_)
    im_p, im_q = to_rational(z.im._mpf_)
    nearest = (2 * re_p + re_q) // (2 * re_q)
    scaled = re_q * 10 ** (z.digits + _GUARD_DIGITS)
    checks = ((re_p - nearest * re_q, re_q), (im_p, im_q), (re_p, scaled))  # (p, q): |p/q| < tol
    if all(abs(p) * tol_q < tol_p * q for p, q in checks):
        return nearest
    raise NotNearInteger(f"value is not within {tol} of an integer")


def poly_from_roots(roots: list[BigComplex]) -> list[BigComplex]:
    """Coefficients of the monic prod (x - r), lowest degree first.

    A root and its exact conjugate enter as one real quadratic
    x^2 - 2 Re(z) x + |z|^2, a real root as a real linear factor, any other
    root as a complex linear factor.  Fixed point: the absolute error grows by
    at most the factor (1 + |r|) per root, which the precision covers.
    """
    digits = max((r.digits for r in roots), default=15)
    raw = [(r.re._mpf_, r.im._mpf_) for r in roots]
    # bounds log2(1 + |r|) by the binary exponents
    growth = sum(max(0, re[2] + re[3], im[2] + im[3]) + 2 for re, im in raw)
    bits = ceil((digits + _GUARD_DIGITS) * LOG2_10) + growth + len(roots).bit_length()
    factors = []
    waiting = Counter()  # roots still without their conjugate
    for re, im in raw:
        partner = (re, mpf_neg(im))
        if not im[1]:
            factors.append([-to_fixed(re, bits)])
        elif waiting[partner]:
            waiting[partner] -= 1
            zr, zi = to_fixed(re, bits), to_fixed(im, bits)
            factors.append([(zr * zr + zi * zi) >> bits, -2 * zr])
        else:
            waiting[re, im] += 1
    coeffs = [1 << bits]
    for low in factors:  # coeffs * (x^len(low) + ... + low[0])
        out = [0] * len(low) + coeffs
        for i, f in enumerate(low):
            for k, c in enumerate(coeffs):
                out[k + i] += f * c >> bits
        coeffs = out
    imag = [0] * len(coeffs)
    for re, im in waiting.elements():  # (coeffs + i*imag) * (x - z)
        zr, zi = to_fixed(re, bits), to_fixed(im, bits)
        coeffs, imag = [0] + coeffs, [0] + imag
        for k in range(len(coeffs) - 1):
            cr, ci = coeffs[k + 1], imag[k + 1]
            coeffs[k] -= (zr * cr - zi * ci) >> bits
            imag[k] -= (zr * ci + zi * cr) >> bits
    ctx = working_context(digits)
    return [_big_complex(ctx, c, i, bits, digits) for c, i in zip(coeffs, imag)]
