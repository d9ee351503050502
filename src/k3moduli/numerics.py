"""Arbitrary-precision evaluation of the modular j-function at CM points.

j is evaluated through the eta quotient h = q * (E(q^2) / E(q))^24, with
E(q) = prod(1 - q^n) and q = exp(2*pi*i*tau), as j = (1 + 256h)^3 / h.  Both
Euler products are summed by the pentagonal number theorem, so a truncation
order N costs O(sqrt N) terms; the tail beyond N is certified below the
working precision.

One number format carries every value from j to recognition: `BigComplex`,
the exact fixed-point value (re + i*im) * 2^-bits on Python integers.  Only
the three constants of q (pi*sqrt|disc|/a, its exp, and cos/sin of pi*b/a)
come from mpmath, through its context-free `libmp` functions; there is no
mpmath context and no state shared between calls or threads.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, exp, expm1, log, pi, sqrt

from mpmath.libmp import dps_to_prec, from_int, mpf_cos_sin_pi, mpf_div, mpf_exp, mpf_mul
from mpmath.libmp import mpf_pi, mpf_sqrt, round_nearest, to_fixed

from .errors import InputError, K3ModuliError, NotNearInteger, NotPositiveDefinite
from .errors import PrecisionUnsupported

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


@dataclass(frozen=True)
class CMPoint:
    """tau = (-b + sqrt(disc)) / (2a) in the upper half plane."""

    a: int
    b: int
    disc: int


@dataclass(frozen=True)
class BigComplex:
    """(re + i*im) * 2^-bits exactly, carried at >= digits decimal digits of
    working precision."""

    re: int
    im: int
    bits: int
    digits: int


def conjugate(z: BigComplex) -> BigComplex:
    """Exact complex conjugate."""
    return BigComplex(z.re, -z.im, z.bits, z.digits)


def series_cap() -> int:
    value = os.environ.get("K3MODULI_SERIES_CAP")
    if not value:
        return DEFAULT_SERIES_CAP
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise InputError(f"K3MODULI_SERIES_CAP must be a positive integer, got {value!r}")
    return cap


def _shift(v: int, by: int) -> int:
    """v * 2^by, rounded down."""
    return v << by if by >= 0 else v >> -by


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
    # the constants of q, each step rounded to nearest at the same precision
    prec, near = dps_to_prec(ceil((bits + magnitude) / LOG2_10) + 10), round_nearest
    root = mpf_mul(mpf_pi(prec, near), mpf_sqrt(from_int(-disc), prec, near), prec, near)
    grow = mpf_exp(mpf_div(root, from_int(a), prec, near), prec, near)  # |q|^-1
    turn = mpf_cos_sin_pi(mpf_div(from_int(-b), from_int(a), prec, near), prec, near)  # q / |q|
    q = tuple(to_fixed(mpf_div(t, grow, prec, near), bits) for t in turn)
    cos_grow, sin_grow = (to_fixed(mpf_mul(t, grow, prec, near), bits) for t in turn)
    q_inv = cos_grow, -sin_grow
    ratio = _div(_euler(_sqr(q, bits), order // 2, bits), _euler(q, order, bits), bits)
    r8 = _sqr(_sqr(_sqr(ratio, bits), bits), bits)
    w = _mul(_sqr(r8, bits), r8, bits)  # (E(q^2)/E(q))^24 = h/q
    hq = _mul(q, w, bits)
    t = (1 << bits) + 256 * hq[0], 256 * hq[1]
    re, im = _div(_mul(_mul(_sqr(t, bits), t, bits), q_inv, bits), w, bits)
    if b * b - disc == 4 * a * a:
        im = 0
    return BigComplex(re, -im if point.b < 0 else im, bits, digits)


def recognize_integer(z: BigComplex, tol) -> int:
    """Nearest integer when |Re z - round(Re z)|, |Im z| and |Re z| / 10^(digits + 15)
    are below tol: the last condition refuses a value that leaves tol no room
    in its working precision.  Exact on z and on tol, which is read as a decimal.
    """
    tol = Fraction(str(tol))
    nearest = (2 * z.re + (1 << z.bits)) >> (z.bits + 1)
    bound = tol.numerator << z.bits
    # |p| / (q * 2^bits) < tol
    checks = ((z.re - (nearest << z.bits), 1), (z.im, 1), (z.re, 10 ** (z.digits + _GUARD_DIGITS)))
    if all(abs(p) * tol.denominator < bound * q for p, q in checks):
        return nearest
    raise NotNearInteger(f"value is not within {tol} of an integer")


def poly_from_roots(roots: list[BigComplex]) -> list[BigComplex]:
    """Coefficients of the monic prod (x - r), lowest degree first.

    A real root enters as a real linear factor, a root and its exact
    conjugate (same bits) as one real quadratic x^2 - 2 Re(z) x + |z|^2.  A
    complex root without its conjugate raises K3ModuliError: the product
    would not be real.  Fixed point: the absolute error grows by at most the
    factor (1 + |r|) per root, which the precision covers.
    """
    digits = max((r.digits for r in roots), default=15)
    # bounds log2(1 + |r|) by the bit lengths
    growth = sum(max(0, r.re.bit_length() - r.bits, r.im.bit_length() - r.bits) + 2 for r in roots)
    bits = ceil((digits + _GUARD_DIGITS) * LOG2_10) + growth + len(roots).bit_length()
    factors = []
    waiting = Counter()  # roots still without their conjugate
    for r in roots:
        zr = _shift(r.re, bits - r.bits)
        if not r.im:
            factors.append([-zr])
        elif waiting[r.re, -r.im, r.bits]:
            waiting[r.re, -r.im, r.bits] -= 1
            zi = _shift(r.im, bits - r.bits)
            factors.append([(zr * zr + zi * zi) >> bits, -2 * zr])
        else:
            waiting[r.re, r.im, r.bits] += 1
    if any(waiting.values()):
        raise K3ModuliError("a complex root has no exact conjugate: the product is not real")
    coeffs = [1 << bits]
    for low in factors:  # coeffs * (x^len(low) + ... + low[0])
        out = [0] * len(low) + coeffs
        for i, f in enumerate(low):
            for k, c in enumerate(coeffs):
                out[k + i] += f * c >> bits
        coeffs = out
    return [BigComplex(c, 0, bits, digits) for c in coeffs]
