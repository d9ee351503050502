"""Arbitrary-precision evaluation of the modular j-function at CM points.

j is evaluated through the eta quotient h = q * (E(q^2) / E(q))^24, with
E(q) = prod(1 - q^n) and q = exp(2*pi*i*tau), as j = (1 + 256h)^3 / h.  Both
Euler products are summed by the pentagonal number theorem, so a truncation
order N costs O(sqrt N) terms; the tail beyond N is certified below the
working precision.  The same kernel gives gamma_2 = j^(1/3) = (1 + 256h) /
h^(1/3), with h^(1/3) = q^(1/3) (E(q^2) / E(q))^8: it is about |q|^(-1/3) in
size, so it runs at a third of the extra bits j needs, and its class
polynomial (used when 3 does not divide the discriminant) has a third of
the digits.

One number format carries every value from j to recognition: `BigComplex`,
the exact fixed-point value (re + i*im) * 2^-bits on Python integers, with a
rigorous bound `err` on its distance to the true value, in the same units.
`j_invariant` states the error budget it certifies, `poly_from_roots`
propagates the bounds of its roots through the product, and
`recognize_integer` returns an integer only when the bound proves it is the
true value.  Only the constants of q (pi*sqrt|disc|, exp of it over a, and
cos/sin of pi*b/a; over 3a for gamma_2) come from mpmath, through its
context-free `libmp` functions; there is no mpmath context and no state
shared between calls or threads.  One constant, MAX_DIGITS, bounds the
precision of every evaluation, and with it the length of the series.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import ceil, exp, expm1, log, pi, sqrt

from mpmath.libmp import dps_to_prec, fone, from_int, mpf_cos_sin_pi, mpf_div, mpf_exp, mpf_mul
from mpmath.libmp import mpf_pi, mpf_sqrt, round_nearest, to_fixed

from .errors import InputError, K3ModuliError, NotNearInteger, NotPositiveDefinite

# the largest precision any evaluation runs at.  moduli refuses a floor above
# it: the floor grows about like sqrt|D| log|D|, 1995 digits at D = -40004 and
# 4060 at D = -10^6.  It also bounds the series: the order N is about
# (digits*ln 10 + (guard + spread)*ln 2) / -ln|q| (the bits of |q|^-1 in the
# working precision cancel), largest where |q| is, at exp(-pi*sqrt 3) at a
# reduced point, so 3000 digits need at most 1278 q-terms
MAX_DIGITS = 3000
LOG2_10 = log(10, 2)
LN2 = log(2)
# rounding of O(N) fixed-point products and the constants of the error
# propagation through E(q^2)/E(q), its 24th power and (1 + 256h)^3 / h
_GUARD_BITS = 64
# extra bits per unit of s = |q| / (1 - |q|)^2: |log E(q)| and |log(E(q^2)/E(q))|
# are at most s, and the error bound grows like exp(145 s)
_SPREAD_BITS = 210
# the product rounds each of its O(h^2) terms by one unit; a few bits beyond
# the roots' accuracy and log2 h keep that below the propagated root errors
_PRODUCT_GUARD_BITS = 4


@dataclass(frozen=True)
class CMPoint:
    """tau = (-b + sqrt(disc)) / (2a) in the upper half plane."""

    a: int
    b: int
    disc: int


@dataclass(frozen=True)
class BigComplex:
    """(re + i*im) * 2^-bits exactly, carried at >= digits decimal digits of
    working precision.  The value it stands for lies within err * 2^-bits of
    it (complex modulus); err = 0 means the value is exact."""

    re: int
    im: int
    bits: int
    digits: int
    err: int = 0


def conjugate(z: BigComplex) -> BigComplex:
    """Exact complex conjugate, with the same error bound."""
    return BigComplex(z.re, -z.im, z.bits, z.digits, z.err)


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


def _magnitude(disc: int, a: int) -> int:
    """Bits of |q|^-1 = exp(pi*sqrt|disc| / a), rounded up."""
    return int(pi * sqrt(-disc) / a / LN2) + 1


def _constants_prec(bits: int, magnitude: int) -> int:
    """Binary precision of the constants of q: enough for q and q^-1 at scale 2^-bits."""
    return dps_to_prec(ceil((bits + magnitude) / LOG2_10) + 10)


def _working_bits(digits: int, magnitude: int, spread: int) -> int:
    return ceil(digits * LOG2_10) + magnitude + _GUARD_BITS + spread


def _pi_root(disc: int, prec: int) -> tuple[int, int, tuple]:
    near = round_nearest
    root = mpf_mul(mpf_pi(prec, near), mpf_sqrt(from_int(-disc), prec, near), prec, near)
    return disc, prec, root


def pi_root(disc: int, digits: int) -> tuple[int, int, tuple]:
    """(disc, prec, pi*sqrt|disc|), rounded to nearest at a binary precision
    prec that j_invariant needs at digits for every reduced CM point of disc
    (the most at a = 1, where |q| is smallest and the spread term is 1)."""
    magnitude = _magnitude(disc, 1)
    return _pi_root(disc, _constants_prec(_working_bits(digits, magnitude, 1), magnitude))


def j_invariant(point: CMPoint, digits: int, root: tuple | None = None) -> BigComplex:
    """j((-b + sqrt(disc)) / (2a)) to an absolute accuracy of about 10^-digits.

    The result carries its certified error bound: 2^-(bits - magnitude -
    guard - spread), the series tail and the rounding of the O(N)
    fixed-point products under the guard-bit budget, plus the rounding of the
    constants of q (see _eta_quotient).  root, from pi_root(disc, digits),
    shares pi*sqrt|disc| between the points of one discriminant; without it
    (or when it is for another disc or too coarse) it is computed here.

    j(a, -b) is the exact complex conjugate of j(a, b); j is exactly real
    when a | b or |tau| = 1.  digits above MAX_DIGITS are refused with
    InputError before any work.
    """
    return _eta_quotient(point, digits, root, 1)


def gamma2(point: CMPoint, digits: int, root: tuple | None = None) -> BigComplex:
    """gamma_2((-b + sqrt(disc)) / (2a)) = (1 + 256 r^3) / r to an absolute
    accuracy of about 10^-digits, with r = (eta(2 tau) / eta(tau))^8 =
    q^(1/3) (E(q^2)/E(q))^8 and q^(1/3) = exp(2 pi i tau / 3).

    gamma_2 = E_4 / eta^8 is the cube root of j: gamma_2^3 = j,
    gamma_2(tau + 1) = exp(-2 pi i / 3) gamma_2(tau) and gamma_2(-1/tau) =
    gamma_2(tau).  It is about |q|^(-1/3) in size, so it needs a third of the
    bits of |q|^-1 that j needs on top of the digits.  Same kernel, error
    bound, conjugate symmetry (gamma_2(a, -b) is the exact conjugate of
    gamma_2(a, b)), exactly real values at |tau| = 1 and at 3a | b, root and
    ceiling as j_invariant.
    """
    return _eta_quotient(point, digits, root, 3)


def _eta_quotient(point: CMPoint, digits: int, root: tuple | None, n: int) -> BigComplex:
    """j (n = 1) or gamma_2 (n = 3): q^(-1/n) ((1 + 256 q w) / r8)^(3/n), with
    r8 = (E(q^2)/E(q))^8 and w = r8^3."""
    if point.a <= 0 or point.disc >= 0:
        raise NotPositiveDefinite("CM point needs a > 0 and disc < 0")
    if digits > MAX_DIGITS:
        raise InputError(f"{digits} digits are above the ceiling of {MAX_DIGITS}")
    a, b, disc = point.a, abs(point.b), point.disc
    log_abs_q = -pi * sqrt(-disc) / a
    # the result is q^(-1/n) times O(1) factors: absolute accuracy needs the
    # bits of |q|^(-1/n) on top of the digits
    magnitude = -(-_magnitude(disc, a) // n)
    spread = ceil(_SPREAD_BITS * exp(log_abs_q) / expm1(log_abs_q) ** 2)
    bits = _working_bits(digits, magnitude, spread)
    order = _series_order(log_abs_q, bits)
    # the constants of q^(1/n), each step rounded to nearest at the same precision
    prec, near = _constants_prec(bits, magnitude), round_nearest
    if root is None or root[0] != disc or root[1] < prec:
        root = _pi_root(disc, prec)
    grow = mpf_exp(mpf_div(root[2], from_int(n * a), prec, near), prec, near)  # |q|^(-1/n)
    if b % (n * a) == 0:  # q^(1/n) / |q|^(1/n) = exp(-i*pi*b/(na)) = +-1 exactly
        sign = -1 if b // (n * a) % 2 else 1
        q = sign * to_fixed(mpf_div(fone, grow, prec, near), bits), 0
        q_inv = sign * to_fixed(grow, bits), 0
    else:
        turn = mpf_cos_sin_pi(mpf_div(from_int(-b), from_int(n * a), prec, near), prec, near)
        q = tuple(to_fixed(mpf_div(t, grow, prec, near), bits) for t in turn)
        cos_grow, sin_grow = (to_fixed(mpf_mul(t, grow, prec, near), bits) for t in turn)
        q_inv = cos_grow, -sin_grow
    if n == 3:
        q = _mul(_sqr(q, bits), q, bits)
    ratio = _div(_euler(_sqr(q, bits), order // 2, bits), _euler(q, order, bits), bits)
    r8 = _sqr(_sqr(_sqr(ratio, bits), bits), bits)
    w = _mul(_sqr(r8, bits), r8, bits)  # (E(q^2)/E(q))^24 = h/q
    hq = _mul(q, w, bits)
    t = (1 << bits) + 256 * hq[0], 256 * hq[1]
    if n == 3:
        re, im = _div(_mul(t, q_inv, bits), r8, bits)
    else:
        re, im = _div(_mul(_mul(_sqr(t, bits), t, bits), q_inv, bits), w, bits)
    if b * b - disc == 4 * a * a:
        im = 0
    # q^(1/n) and q^(-1/n) are within 2 units of 2^-bits in each part (the
    # rounding to nearest at prec > bits + magnitude + 30 bits, then
    # to_fixed), and q = (q^(1/3))^3 within 4 units.  At a reduced point,
    # |q| <= exp(-pi*sqrt 3), |t^3 / w| < 2^4, |t / r8| < 2^2, and at fixed
    # q^(-1/n) the result moves by less than 2^(magnitude + 13) |dq|, so
    # together they move it by less than 2^(magnitude + 16); 2^spread covers
    # the growth of both with |q| elsewhere
    err = (1 << magnitude + _GUARD_BITS + spread) + (1 << magnitude + 16 + spread)
    return BigComplex(re, -im if point.b < 0 else im, bits, digits, err)


def recognize_integer(z: BigComplex) -> int:
    """The integer n nearest Re z, certified: |Re z - n| + err < 1/2 and
    |Im z| + err < 1/2, so when z approximates an integer within its error
    bound, n is that integer.
    """
    nearest = (2 * z.re + (1 << z.bits)) >> (z.bits + 1)
    off = z.re - (nearest << z.bits)
    one = 1 << z.bits
    if 2 * (abs(off) + z.err) >= one or 2 * (abs(z.im) + z.err) >= one:
        bound = z.err.bit_length() - z.bits
        raise NotNearInteger(f"value is not certified near an integer (error bound < 2^{bound})")
    return nearest


def _rescale(v: int, err: int, by: int) -> tuple[int, int]:
    """v * 2^by rounded down, and err * 2^by rounded up plus the rounding of
    both parts of a complex value (under sqrt 2 units)."""
    if by >= 0:
        return v << by, err << by
    return v >> -by, (err >> -by) + 3


def poly_from_roots(roots: list[BigComplex]) -> list[BigComplex]:
    """Coefficients of the monic prod (x - r), lowest degree first.

    A real root enters as a real linear factor, a root and its exact
    conjugate (same bits) as one real quadratic x^2 - 2 Re(z) x + |z|^2.  A
    complex root without its conjugate raises K3ModuliError: the product
    would not be real.  Fixed point at a little more than the roots'
    accuracy: each factor multiplies the error bound E of the partial product
    by (1 + |factor coefficients|) and adds the factor's own error times the
    largest partial coefficient, plus one unit per rounded term.  Every
    coefficient carries the final bound.
    """
    digits = max((r.digits for r in roots), default=15)
    bits = ceil(digits * LOG2_10) + len(roots).bit_length() + _PRODUCT_GUARD_BITS
    factors = []  # (low coefficients, their error bound)
    waiting = Counter()  # roots still without their conjugate
    for r in roots:
        zr, e = _rescale(r.re, r.err, bits - r.bits)
        if not r.im:
            factors.append(([-zr], e))
        elif waiting[r.re, -r.im, r.bits]:
            waiting[r.re, -r.im, r.bits] -= 1
            zi, _ = _rescale(r.im, 0, bits - r.bits)
            # ||z + d|^2 - |z|^2| <= (2|z| + |d|) |d|, |z| <= |zr| + |zi|
            e2 = ((2 * (abs(zr) + abs(zi)) + e) * e >> bits) + 2
            factors.append(([(zr * zr + zi * zi) >> bits, -2 * zr], max(e2, 2 * e)))
        else:
            waiting[r.re, r.im, r.bits] += 1
    if any(waiting.values()):
        raise K3ModuliError("a complex root has no exact conjugate: the product is not real")
    coeffs, err = [1 << bits], 0
    for low, e in factors:  # coeffs * (x^len(low) + ... + low[0])
        top = max(map(abs, coeffs))
        err += sum(((abs(f) * err + e * (top + err)) >> bits) + 2 for f in low)
        out = [0] * len(low) + coeffs
        for i, f in enumerate(low):
            for k, c in enumerate(coeffs):
                out[k + i] += f * c >> bits
        coeffs = out
    return [BigComplex(c, 0, bits, digits, err) for c in coeffs]
