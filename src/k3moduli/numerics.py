"""Arbitrary-precision evaluation of the modular j-function at CM points.

j is evaluated through the eta quotient h = q * (E(q^2) / E(q))^24, with
E(q) = prod(1 - q^n) and q = exp(2*pi*i*tau), as j = (1 + 256h)^3 / h.  Both
Euler products are summed by the pentagonal number theorem, so a truncation
order N costs O(sqrt N) terms, from one table of the powers q^g at the
generalized pentagonal numbers g (_PLAN): each power takes one or two
products of earlier ones, and each term of E(q^2) is the square of one of
E(q).  The tail beyond N is certified below the working precision.  The same
kernel gives gamma_2 = j^(1/3) = (1 + 256h) / h^(1/3), with h^(1/3) = q^(1/3)
(E(q^2) / E(q))^8: it is about |q|^(-1/3) in size, so it runs at a third of
the extra bits j needs, and its class polynomial (used when 3 does not
divide the discriminant) has a third of the digits.  It also gives gamma_3 =
sqrt(j - 1728) = (1 - 512h) sqrt(1 + 64h) / h^(1/2), about |q|^(-1/2) in
size, whose class polynomial (used for odd discriminants divisible by 3)
has about two thirds of the digits.  Weber's functions f, f1 and f2, at
the reduced forms of 4D for D = 1 (mod 8), are quotients of Euler products
at -q^(1/2), q^(1/2) and q (`weber`): about |q|^(-1/48) in size, their
class polynomial is about a sixth as tall as gamma_2's, that of their cubes
(3 | D) as gamma_3's (by moduli._height, median 6.6 and 6.7 times as tall
over the 250 and 125 such D with |D| <= 3000).

The kernel runs only on the reduced domain Im tau >= sqrt(3)/2, where its
error budget is derived: _lifted moves every point there by tau + 1 and
-1/tau, under which each invariant obeys an exact transformation law.

One number format carries every value from j to recognition: `BigComplex`,
the exact fixed-point value (re + i*im) * 2^-bits on Python integers, with a
rigorous bound `err` on its distance to the true value, in the same units.
That bound is the only statement of a value's accuracy, and only this module
computes on the format (`j_from_kernel`, `part_sums` and `apart` serve the
field polynomial's roots, `vanishes` the Weber polynomial's check);
`recognize_integer` returns an integer only when the bound proves it.

The constants of q (pi*sqrt|disc|, exp of it over a, cos/sin of pi*b/a; over
3a for gamma_2) are fixed point on Python integers too, in `_q_powers`:
sqrt|disc| from math.isqrt, exp and cos/sin from one Taylor loop by Brent's
method (J. ACM 23, 1976): reduce the argument, halve it, sum the series of
exp in concurrent parts, then square back.  cos x and sin x are the real
and imaginary parts of exp(ix), signed sums of the parts by degree mod 4;
exp(r) and exp(i chi) at the halved arguments make one complex value, which
_sqr squares back.  pi and ln 2 are exact floors, summed by binary
splitting of Machin-type arctangent series and memoised (lru_cache) at
powers of two of the precision, so their values do not depend on the order
of requests.  The package needs nothing beyond the standard library.  One
constant, MAX_DIGITS, bounds the precision of every evaluation, and with it
the length of the series.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache, reduce
from itertools import combinations
from math import ceil, expm1, gcd, isqrt, log, pi, sqrt

from .errors import InputError, K3ModuliError, NotNearInteger
from .values import Value

# the largest precision any evaluation runs at.  moduli refuses a floor above
# it: the floor grows about like sqrt|D| log|D|, 1995 digits at D = -40004 and
# 4060 at D = -10^6.  It also bounds the series: the order N is about
# (digits*ln 10 + guard*ln 2) / -ln|q| (the bits of |q|^-1 in the working
# precision cancel), largest where |q| is, at exp(-pi*sqrt 3) on the reduced
# domain, so 3000 digits need at most 1274 q-terms (2549 terms of q^(1/2) for
# Weber's f, see _MAX_ORDER)
MAX_DIGITS = 3000
LOG2_10 = log(10, 2)
LN2 = log(2)
# the most bits of |q|^-1 any evaluation admits, as many as MAX_DIGITS digits
# hold: _eta_quotient refuses a larger |q|^-1 before its constants are computed
_TOP_MAGNITUDE = ceil(MAX_DIGITS * LOG2_10)
# the bits of the error budget of _eta_quotient for j, gamma_2 and gamma_3:
# the rounding of the Euler products (under 2^17 units) times its propagation
# (under 2^9 for j, the worst of the three) and the later roundings stay
# under 2^27 units of |q|^(-1/n) on the reduced domain, 6 bits below 2^33
_GUARD_BITS = 33
# the product rounds each of its O(h^2) terms by one unit; a few bits beyond
# the roots' accuracy and log2 h keep that below the propagated root errors
_PRODUCT_GUARD_BITS = 4


class CMPoint(Value, namedtuple("CMPoint", "a b disc")):
    """tau = (-b + sqrt(disc)) / (2a) in the upper half plane, for integers
    a, b and disc."""

    __slots__ = ()


class BigComplex(Value, namedtuple("BigComplex", "re im bits err", defaults=(0,))):
    """(re + i*im) * 2^-bits exactly, for integers re, im and bits.  The value
    it stands for lies within err * 2^-bits of it (complex modulus); err = 0,
    the default, means the value is exact."""

    __slots__ = ()


def conjugate(z: BigComplex) -> BigComplex:
    """Exact complex conjugate, with the same error bound."""
    return BigComplex(z.re, -z.im, z.bits, z.err)


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


def _series_order(log_abs_q: float, bits: int) -> int:
    """Least N with sum_{n > N} |q|^n below 2^-bits: the Euler products stop at q^N."""
    return int((bits * LN2 - log(-expm1(log_abs_q))) / -log_abs_q)


def _magnitude(disc: int, a: int) -> int:
    """Bits of |q|^-1 = exp(pi*sqrt|disc| / a), rounded up."""
    return int(pi * sqrt(-disc) / a / LN2) + 1


def _working_bits(digits: int, magnitude: int) -> int:
    """The bits that carry a value below 2^magnitude to about 10^-digits, for
    every kernel; digits below 1 or above MAX_DIGITS are refused here, with
    InputError, before any series."""
    if digits < 1:
        raise InputError(f"{digits} digits are below 1")
    if digits > MAX_DIGITS:
        raise InputError(f"{digits} digits are above the ceiling of {MAX_DIGITS}")
    return ceil(digits * LOG2_10) + magnitude + _GUARD_BITS


def _pentagonal_plan(order: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(g, sign, parts) for each generalized pentagonal number g = k(3k -+ 1)/2
    <= order, increasing, with sign = (-1)^k, so E(q) = 1 + sum sign q^g.

    parts indexes the earlier rows whose g sum to this one (none for g = 1, q
    itself): q^g is the square of q^(g/2) when that is in the table, else one
    product of two earlier powers, else two products (Enge, Hart and
    Johansson, "Short addition sequences for theta functions", J. Integer
    Sequences 21, 2018).
    """
    at: dict[int, int] = {}
    rows = []
    k = 1
    while k * (3 * k - 1) // 2 <= order:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g > order:
                break
            if g == 1:
                parts: tuple[int, ...] = ()
            elif g % 2 == 0 and g // 2 in at:
                parts = (at[g // 2],) * 2
            else:
                pairs = ((at[g - x], i) for x, i in at.items() if g - x in at)
                triples = (
                    (at[g - x - y], j, i)
                    for x, i in at.items()
                    for y, j in at.items()
                    if g - x - y in at
                )
                parts = next(pairs, ()) or next(triples)
            at[g] = len(rows)
            rows.append((g, -1 if k % 2 else 1, parts))
        k += 1
    return tuple(rows)


# the largest series order any evaluation reaches: at MAX_DIGITS and at the
# largest |p| an Euler product takes, exp(-pi*sqrt(3)/2) = |q|^(1/2) for
# Weber's f and f1 (see weber), whose magnitude there is under 8 bits, cube
# included; j, gamma_2 and gamma_3 stay within order 1274 (at |q| =
# exp(-pi*sqrt 3), D = -3, a = 1, for j).  One plan serves every order up
# to it
_MAX_ORDER = _series_order(-pi * sqrt(3) / 2, _working_bits(MAX_DIGITS, 8))
_PLAN = _pentagonal_plan(_MAX_ORDER)


def _euler_pair(q, order: int, bits: int):
    """E(q) = prod(1 - q^n) up to at least the power q^order, and E(q^2) up to
    at least q^(2 (order // 2)), in fixed point from one table of powers: the
    rows of _PLAN with g <= order, each term of E(q^2) the square of its q^g,
    for order <= _MAX_ORDER (an invariant _eta_quotient checks)."""
    half, one = order // 2, 1 << bits
    re, im, re2, im2 = one, 0, one, 0
    powers = []
    for g, sign, parts in _PLAN:
        if g > order:
            break
        if parts:
            i, j, *more = parts
            power = _sqr(powers[i], bits) if i == j else _mul(powers[i], powers[j], bits)
            for k in more:
                power = _mul(power, powers[k], bits)
        else:
            power = q
        powers.append(power)
        re += sign * power[0]
        im += sign * power[1]
        if g <= half:
            square = _sqr(power, bits)
            re2 += sign * square[0]
            im2 += sign * square[1]
    return (re, im), (re2, im2)


def _arccot_split(x2: int, sign: int, lo: int, hi: int) -> tuple[int, int, int, int]:
    """(P, Q, B, T) of the terms lo <= k < hi of sum sign^k / ((2k + 1) x^2k),
    x2 = x^2, by binary splitting: those terms sum to T / (B Q) times the
    product of the terms' ratios before lo."""
    if hi - lo == 1:
        p, q = (sign, x2) if lo else (1, 1)
        return p, q, 2 * lo + 1, p
    mid = (lo + hi) // 2
    p1, q1, b1, t1 = _arccot_split(x2, sign, lo, mid)
    p2, q2, b2, t2 = _arccot_split(x2, sign, mid, hi)
    return p1 * p2, q1 * q2, b1 * b2, b2 * q2 * t1 + b1 * p1 * t2


def _arccot(x: int, sign: int, prec: int) -> int:
    """arccot x (sign -1) or arccoth x (sign 1) at scale 2^-prec, for x >= 2,
    within 1.5 units: the series sum sign^k / ((2k + 1) x^(2k + 1)) summed
    exactly up to a tail under half a unit, then rounded down once."""
    terms = (prec + 2) // (2 * (x.bit_length() - 1)) + 2
    _, q, b, t = _arccot_split(x * x, sign, 0, terms)
    return (t << prec) // (b * q * x)


def _pi_series(prec: int) -> tuple[int, int]:
    """pi at scale 2^-prec and a bound on its error in units (Machin)."""
    return 16 * _arccot(5, -1, prec) - 4 * _arccot(239, -1, prec), 30


def _ln2_series(prec: int) -> tuple[int, int]:
    """ln 2 at scale 2^-prec and a bound on its error in units."""
    return 18 * _arccot(26, 1, prec) - 2 * _arccot(4801, 1, prec) + 8 * _arccot(8749, 1, prec), 42


@lru_cache(maxsize=32)
def _exact_floor(series, prec: int) -> int:
    """floor(c 2^prec) for the irrational constant c that series approximates:
    at guard bits more, the approximation and its error bound fall between
    two multiples of 2^guard, else the guard doubles."""
    guard = 32
    while True:
        x, err = series(prec + guard)
        low = x & (1 << guard) - 1
        if err <= low < (1 << guard) - err:
            return x >> guard
        guard *= 2


def _constant(series, prec: int) -> int:
    """floor(c 2^prec) for c = pi (_pi_series) or ln 2 (_ln2_series): the
    memoised floor at the least power of two >= prec, truncated.  The floor
    of a floor is the floor, so every value is the same whatever was asked
    first, and threads need no lock."""
    top = 1 << (prec - 1).bit_length()
    return _exact_floor(series, top) >> top - prec


def _taylor_quarters(x: int, w: int, count: int) -> list[int]:
    """The Taylor series of exp(t), t = x 2^-w in [0, 1), at scale 2^-w, as
    four sums: the i-th over the terms t^k / k! with k = i (mod 4).  It runs
    as count concurrent sums, count a multiple of 4, that share one running
    term t^(count j) / k!: sum i gathers the terms with k = i (mod count)
    over t^i, then is multiplied by t^i.  Every product and division rounds
    down."""
    powers = [1 << w, x]
    for _ in range(count - 1):
        powers.append(powers[-1] * x >> w)
    sums, term, k = [0] * count, 1 << w, 0  # term = t^(count j) / k!
    while term:
        for i in range(count):
            sums[i] += term
            k += 1
            term //= k
        term = term * powers[count] >> w
    parts = [s * p >> w for s, p in zip(sums, powers)]
    return [sum(parts[i::4]) for i in range(4)]


def _q_powers(a: int, b: int, disc: int, n: int, bits: int, magnitude: int):
    """q^(1/n) and q^(-1/n) at tau = (-b + sqrt(disc)) / (2a), b >= 0, in fixed
    point at scale 2^-bits, and a bound in units on the error of each part,
    for magnitude >= the bits of |q|^(-1/n) (error budget in _eta_quotient).
    Exactly real at an integer b/(na), exactly imaginary at a half-integer."""
    na = n * a
    slack = isqrt(-disc) + 8
    wp = bits + magnitude + (2 * (slack + magnitude) + 9).bit_length() + 1
    pi_fixed = _constant(_pi_series, wp)
    log_size = (pi_fixed * isqrt(-disc << 2 * wp) >> wp) // na  # L
    k, r = divmod(log_size, _constant(_ln2_series, wp))
    # theta = pi b / (na) is pi angle / (2na) mod 2 pi, = j pi/2 + chi with
    # chi = pi c / (2na), |c| <= na/2
    angle = 2 * b % (4 * na)
    j = (2 * angle + na) // (2 * na)
    c = angle - j * na
    chi = pi_fixed * abs(c) // (2 * na)
    # Brent: E = exp((r + i chi) / 2^s), s = halvings, from the series of
    # exp(r / 2^s) and exp(i chi / 2^s) at w = wp + extra bits, then squared
    # back s times
    halvings = round(wp ** (1 / 3))
    extra = halvings + 9 + wp.bit_length()
    w, count = wp + extra, 4 * max(1, round(wp**0.35 / 8))
    grow = sum(_taylor_quarters(r << extra - halvings, w, count))
    re0, im1, re2, im3 = _taylor_quarters(chi << extra - halvings, w, count)
    e = grow * (re0 - re2) >> w, grow * (im1 - im3) >> w
    for _ in range(halvings):
        e = _sqr(e, w)
    re, im = e[0] >> extra, e[1] >> extra
    im = -im if c < 0 else im
    re, im = ((re, im), (-im, re), (-re, -im), (im, -re))[j % 4]  # exp(r + i theta)
    shift, norm = wp - bits - k, re * re + im * im
    q = (re << wp + bits - k) // norm, (-im << wp + bits - k) // norm
    return q, (re >> shift, im >> shift), 2 + ((2 * (slack + k) + 9) >> shift)


def j_invariant(point: CMPoint, digits: int) -> BigComplex:
    """j((-b + sqrt(disc)) / (2a)) to an absolute accuracy of about 10^-digits.

    The result carries its certified error bound: 2^-(bits - magnitude -
    guard), the series tail and the rounding of the O(N) fixed-point
    products under the guard-bit budget, plus the rounding of the constants
    of q (see _eta_quotient).

    Every point of the upper half plane is served, as the same BigComplex as
    the reduced point it lifts to (_lifted).  j(a, -b) is the exact conjugate
    of j(a, b); j is exactly real at a reduced point with a | b or |tau| = 1.
    The only refusals, InputError before any work, are a point off the upper
    half plane, a lifted |q|^-1 above 2^_TOP_MAGNITUDE (the constants' size
    at MAX_DIGITS), and digits below 1 or above MAX_DIGITS (_working_bits).
    """
    return _eta_quotient(point, digits, 1)


def gamma2(point: CMPoint, digits: int) -> BigComplex:
    """gamma_2((-b + sqrt(disc)) / (2a)) = (1 + 256 r^3) / r to an absolute
    accuracy of about 10^-digits, with r = (eta(2 tau) / eta(tau))^8 =
    q^(1/3) (E(q^2)/E(q))^8 and q^(1/3) = exp(2 pi i tau / 3).

    gamma_2 = E_4 / eta^8 is the cube root of j: gamma_2^3 = j,
    gamma_2(tau + 1) = exp(-2 pi i / 3) gamma_2(tau) and gamma_2(-1/tau) =
    gamma_2(tau), so the value is exactly gamma_2 at the lifted point
    (_lifted).  It is about |q|^(-1/3) in size: a third of the bits of
    |q|^-1 that j needs on top of the digits.  Same kernel, error bound and
    refusals as j_invariant; exactly real at a lifted |tau| = 1 or 3a | b.
    At (a, -b) it is the conjugate within the bounds, not bit for bit.
    """
    return _eta_quotient(point, digits, 3)


def gamma3(point: CMPoint, digits: int) -> BigComplex:
    """gamma_3((-b + sqrt(disc)) / (2a)) = (1 - 512h) sqrt(1 + 64h) / h^(1/2)
    to an absolute accuracy of about 10^-digits, with h^(1/2) = q^(1/2)
    (E(q^2)/E(q))^12, q^(1/2) = exp(pi i tau) and the principal square root.

    gamma_3 = E_6 / eta^12 is a square root of j - 1728, and gamma_3(tau + 1)
    = gamma_3(-1/tau) = -gamma_3(tau): the value is exactly +- gamma_3 at the
    lifted point (_lifted), where |64h| < 0.31 makes the principal square
    root the right one.  It is about |q|^(-1/2) in size.  Same kernel, error
    bound, conjugate symmetry and refusals as j_invariant; at a reduced
    point exactly real at 2a | b, exactly imaginary at |tau| = 1 or odd b/a.
    """
    return _eta_quotient(point, digits, 2)


def weber(point: CMPoint, digits: int) -> BigComplex:
    """Weber's root x = zeta_48^k g(tau) / sqrt 2 at a reduced form (A, B, C)
    of disc = 4D, D = 1 (mod 8), cubed when 3 | D, to an absolute accuracy
    of about 10^-digits; tau = (-B + sqrt(disc)) / (2A), B = 2b, and

    - A and C odd: g = f, k = -b (A - C - AC^2), plus 24 when C = 3 or 5
      (mod 8);
    - A odd, C even: g = f1, k = -b (A - C + A^2 C);
    - A even, C odd: g = f2, k = -b (A - C - AC^2).

    These are the roots of the Weber class polynomial of D (Weber, Lehrbuch
    der Algebra III, 1908; Yui and Zagier, Math. Comp. 66, 1997), about
    |q|^(-1/48) in size, or |q|^(-1/16) cubed.  With s = q^(1/2) and E(x) =
    prod(1 - x^n), f = q^(-1/48) E(-s) / E(s^2), f1 = q^(-1/48) E(s) /
    E(s^2) and f2 = sqrt 2 q^(1/24) E(q^2) / E(q): one _euler_pair at p =
    -s, s or q.  The twist is a move of the point: zeta_48^k q^(-1/48) is
    q^(-1/48) at tau - k, and zeta_48^k q^(1/24) is q^(1/24) at tau + k/2,
    so _q_powers takes u = q^(1/48) there, and p is +-u^24 or +-u^48.

    Error budget, in units of 2^-bits, with |p| <= exp(-pi sqrt 3 / 2) (Im
    tau >= sqrt(3)/2 on a reduced form; |q| for f2 is smaller): |log E(p)|
    <= |p| / (1 - |p|)^2 < 0.0755, so E(p)^(+-1), E(p^2)^(+-1) and the
    ratio r of the two stay below 1.084, and |E'(p)| < 1.33.  u and its
    inverse are within `units` (2, _q_powers) in each part, and |u| <
    0.894, so the four squarings and one product to u^24 leave p within 3
    units + 8 (24 |u|^23 < 1.9), and u^48 within 2 more.  The Euler
    products are off by under sum(3g - 2) + sum(6g - 2) over the plan's
    rows, as in _eta_quotient, 214225 + 146220 < 2^19 units at _MAX_ORDER,
    so r, one division, is off by under 1.09 2^19 + 2 units, and 1.5 times
    p's error more.  Times u^(-1), below 2^magnitude, or u^2, below 1, and
    over sqrt 2, floor(2^bits / sqrt 2) being under a unit low, the value
    is off by under 2^(magnitude + 20) units; the bound takes (2^_GUARD_BITS
    + units 2^8) 2^magnitude.  The cube's bound is _power's, and the working
    precision then holds 3 magnitude + 2 bits of |x|^3 on top of the
    digits.

    Exactly real at B = 0 (k = 0 or 24, u real), the only ambiguous forms
    of 4D for D = 1 (mod 8); at (A, -B, C) the exact conjugate of the
    value at (A, B, C).  Refusals, InputError before any work: a form that
    is not a reduced form of such a 4D, and digits below 1 or above
    MAX_DIGITS (_working_bits).
    """
    a, b, disc = point.a, abs(point.b), point.disc
    if disc % 32 != 4 or disc >= 0 or not 0 <= b <= a <= (b * b - disc) // (4 * a):
        raise InputError(f"{point} is not a reduced form of 4D with D = 1 (mod 8)")
    c, half = (b * b - disc) // (4 * a), b // 2
    if a % 2 == 0:  # f2, at tau + k/2
        k = -half * (a - c - a * c * c)
        shift, exponent = -a * k, 2
    else:  # f or f1, at tau - k
        k = -half * (a - c + a * a * c if c % 2 == 0 else a - c - a * c * c)
        k += 24 if c % 8 in (3, 5) else 0
        shift, exponent = 2 * a * k, 1
    cube = disc % 3 == 0
    # |x| <= |q|^(-1/48) = 2^magnitude at most; its cube needs three times the bits
    magnitude = -(-_magnitude(disc, a) // 48)
    bits = _working_bits(digits, 3 * magnitude + 2 if cube else magnitude)
    order = _series_order(-pi * sqrt(-disc) / a * exponent / 2, bits)  # ln |p|
    if order > _MAX_ORDER:
        raise K3ModuliError(f"series order {order} at {point} is beyond the plan's {_MAX_ORDER}")
    u, u_inv, units = _q_powers(a, (b + shift) % (96 * a), disc, 48, bits, magnitude)
    u8 = _sqr(_sqr(_sqr(u, bits), bits), bits)
    p = _mul(_sqr(u8, bits), u8, bits)  # u^24
    sign = -1 if (k + (c % 2 and a % 2)) % 2 else 1  # p = -s for f: E(-s)
    if exponent == 2:
        p = _sqr(p, bits)
    p = sign * p[0], sign * p[1]
    euler, euler2 = _euler_pair(p, order, bits)
    if exponent == 2:  # f2 / sqrt 2 = u^2 E(q^2) / E(q)
        x = _mul(_sqr(u, bits), _div(euler2, euler, bits), bits)
    else:  # (f or f1) / sqrt 2 = u^-1 E(p) / E(p^2) / sqrt 2
        root_half = isqrt(1 << 2 * bits - 1)  # floor(2^bits / sqrt 2)
        x = _mul(u_inv, _div(euler, euler2, bits), bits)
        x = x[0] * root_half >> bits, x[1] * root_half >> bits
    value = BigComplex(*x, bits, (1 << _GUARD_BITS) + (units << 8) << magnitude)
    if cube:
        value = _rescale(_power(value, 3), bits)
    return conjugate(value) if point.b < 0 else value


def _sqrt(x, bits: int):
    """The principal square root s of x = (xr + i xi) 2^-bits, xr > 0, at
    scale 2^-bits, and a bound in units on its distance to the root: the
    half-angle formula in math.isqrt, then |sqrt x - s| = |x - s^2| /
    |sqrt x + s| <= |x - s^2| / Re s, both roots in the right half plane,
    read from the exact integer s^2 - x.  Exactly real at real x."""
    xr, xi = x
    sr = isqrt(isqrt(xr * xr + xi * xi) + xr << bits - 1)  # sqrt((|x| + Re x) / 2)
    si = (xi << bits) // (2 * sr)
    dr, di = sr * sr - si * si - (xr << bits), 2 * sr * si - (xi << bits)
    return (sr, si), isqrt(dr * dr + di * di) // sr + 1


def times_sqrt(z: BigComplex, disc: int) -> BigComplex:
    """sqrt(disc) z = i sqrt|disc| z, for disc < 0, at z's bits, rounded
    toward zero (see _rescale): at conj(z) it is minus the exact conjugate of
    it, and it is exactly real for imaginary z.  sqrt|disc| from math.isqrt
    is under a unit low, so the product is off by under err (sqrt|disc| + 1)
    + |re| + |im| units of 2^-2bits before the rounding."""
    root = isqrt(-disc << 2 * z.bits)
    err = z.err * (root + 1) + abs(z.re) + abs(z.im)
    return _rescale(BigComplex(-z.im * root, z.re * root, 2 * z.bits, err), z.bits)


def _lifted(a: int, b: int, disc: int, n: int) -> tuple[int, int, int, bool]:
    """(A, B, D, negate): kernel n's value at (-b + sqrt(disc)) / (2a) is its
    value at (-B + sqrt(D)) / (2A), Im >= sqrt(3)/2, negated if negate is
    set.  Gauss-reduces the point's primitive form, from (4a^2, 4ab, b^2 -
    disc), by tau + t and -1/tau: j is invariant under both, gamma_3 (n = 2)
    changes sign, and gamma_2 (n = 3) is invariant under -1/tau and turns by
    zeta^-t, zeta = exp(2 pi i / 3), under tau + t: it is gamma_2 at the
    reduced point minus the sum m of the t, at B + 2Am mod 6A (period 3)."""
    g = gcd(4 * a * a, 4 * a * b, b * b - disc)
    a, b, c = 4 * a * a // g, 4 * a * b // g, (b * b - disc) // g
    shift = flips = 0
    while True:
        t = (b + a - 1) // (2 * a)  # b - 2at in (-a, a]
        b, c = b - 2 * a * t, c - b * t + a * t * t
        shift += t
        if a < c or a == c and b >= 0:
            break
        a, b, c = c, -b, a
        flips += 1
    disc = b * b - 4 * a * c
    if n == 3:
        b = (b + 2 * a * shift) % (6 * a)
    return a, b, disc, n == 2 and (shift + flips) % 2 == 1


def _eta_quotient(point: CMPoint, digits: int, n: int) -> BigComplex:
    """j (n = 1), gamma_3 (n = 2) or gamma_2 (n = 3): q^(-1/n) F(rho) with rho
    = E(q^2)/E(q), h = q rho^24, t = 1 + 256h, and F = t^3 / rho^24 for j,
    (1 - 512h) sqrt(1 + 64h) / rho^12 for gamma_3, t / rho^8 for gamma_2.

    Error budget, in units of 2^-bits, on the reduced domain (where _lifted
    puts every point; gamma_2's moves keep |q|), where |q| <= q0 =
    exp(-pi sqrt 3), s = |q| / (1 - |q|)^2 < 0.00438 bounds |log E(q)| and
    |log rho|, so |rho|^(+-m) <= exp(ms) and |h| < 0.00482: |t| < 2.24,
    |1 - 512h| < 3.47 and |64h| < 0.31.

    The Euler products, against the exact series of the rounded q.  A table
    entry built from entries off by e1 and e2 is off by at most e1 + e2 + 2
    (every power is below 1 in modulus, and each part of a product rounds
    down by under a unit), so by induction from q itself the entry q^g is off
    by at most 3g - 2, also where it takes two products.  A term of E(q^2),
    the square of an entry off by e, is off by at most 2e + 2 <= 6g - 2.  The
    sums add exactly, so at the longest series, order 1274, E(q) and E(q^2)
    are off by at most sum(3g - 2) + sum(6g - 2) = 73053 + 51580 < 2^17
    units over their terms, and the tail beyond the order by under one more.
    rho, their quotient, is then off by under 1.01 2^17 units.  With
    dh/drho = 24h/rho:
    - j: F' = 24 (512h - 1) t^2 / rho^25, under 24 * 3.47 * 2.24^2 * 1.12 <
      2^9 in modulus;
    - gamma_3: F' = -12 t^2 / (rho^13 sqrt(1 + 64h)), under 2^6.3;
    - gamma_2: F' = 8 (512h - 1) / rho^9, under 2^5.
    j is the worst of the three: the products move F by under 2^26 units,
    and the two dozen later roundings, one unit per part each, carried by
    factors of the same size, by under 2^14 more, so the result moves by
    under 2^27 units of |q|^(-1/n) <= 2^magnitude, which 2^_GUARD_BITS =
    2^33 covers.  gamma_3's square root of x = 1 + 64h is off by `root`
    units (_sqrt), which the factors |1 - 512h| / |rho|^12 < 3.7 and
    q^(-1/2) carry: under root 2^(magnitude + 2) units, and the bound takes
    root 2^(magnitude + 3).

    Error budget of the constants of q (_q_powers).  q^(1/n) = exp(-L - i
    theta) with L = pi sqrt|disc| / (na) and theta = pi b / (na).  In units
    of 2^-wp, with wp = bits + magnitude + margin:
    - pi and ln 2 are exact floors, and sqrt|disc| is math.isqrt's, so each
      is under a unit low.  The product and division forming L round down,
      so L is low by under slack = isqrt|disc| + 8 units.
    - L = k ln 2 + r, 0 <= r < ln 2, and r is off by under slack + k units.
      theta = j pi/2 + chi, |chi| <= pi/4, is reduced exactly in integers,
      and chi is low by under 1.25 units.
    - One Taylor loop (_taylor_quarters) sums exp(t) at t = r / 2^s and at
      t = |chi| / 2^s, in `count` concurrent parts, in units of 2^-w, w =
      wp + extra.  The running term stays within 3 units and t^i within i,
      so the parts are off by under 3 (terms + count) + 6 <= 8w + 16 units
      in all.  exp(r / 2^s) is their sum, and cos and sin of chi / 2^s are
      signed sums of disjoint parts, so each keeps that bound.  Their
      product E = exp((r + i chi) / 2^s), between 1 and sqrt 2 in modulus,
      is off by under 4 times it.  s complex squarings (_sqr), each of a
      value between 1 and 2 in modulus, at most double its relative error
      and add under sqrt 2 units, so they grow the bound by at most
      2^(s + 2), as |exp(r + i chi)| < 2: under 2^(s + 7) (w + 2) units.
      As w + 2 < 2^(1 + the bits of wp), extra = s + 9 + the bits of wp
      leaves it under half a unit of 2^-wp, and the final rounding of each
      part under 1.5.  At an integer 2b/(na), chi is 0, the loop gives cos =
      1 and sin = 0 exactly, and E and its squares stay exactly real:
      q^(1/n) is exactly real at an integer b/(na) and exactly imaginary at
      a half-integer.
    - The errors of r and chi move exp(r + i chi) by under 2 (slack + k +
      1.25) units.  Turned by j quarter turns, it is Z = exp(r + i theta),
      so q^(-1/n) = 2^k Z, read by shifts, is off by under (2 (slack + k) +
      9) 2^(k + bits - wp) units of 2^-bits before it is rounded down.
      q^(1/n) = 2^-k conj(Z) / |Z|^2, one floor division per part, is
      2^-k / Z with |Z| >= 1, so it is off by less.  The margin puts that
      under half a unit at k <= magnitude, so each part is within units = 2
      of the truth (_q_powers returns the bound for the actual k).
    Then |dq| <= sqrt 2 units, and q = (q^(1/n))^n is within 3 sqrt 2 units
    plus two roundings, under 8 units.  On the reduced domain, at fixed
    q^(-1/n), the result moves by less than 2^(magnitude + 12.1) |dq| (for
    j, the worst), and at fixed q by less than 2^4 |dq^(-1/n)|.  So together
    they move it by less than units 2^(magnitude + 14.2), and the bound
    takes units 2^(magnitude + 18).
    """
    if point.a <= 0 or point.disc >= 0:
        raise InputError("CM point needs a > 0 and disc < 0")
    a, b, disc, negate = _lifted(point.a, point.b, point.disc, n)
    # sized in integers before any float: sqrt|disc| / a lies between
    # 2^(size - 1) and 2^(size + 1), so at size > 12, |q|^-1 has over 2^13
    # bits.  Otherwise a float holds sqrt|disc| and a once both are shifted to
    # put a below 2^64
    size = isqrt(-disc).bit_length() - a.bit_length()
    if size > 12:
        raise InputError(
            f"the lifted |q|^-1 at {point} has over 2^{size + 1} bits, "
            f"above the {_TOP_MAGNITUDE} handled"
        )
    shift = max(a.bit_length() - 64, 0)
    fa, fdisc = a >> shift, disc >> 2 * shift
    top = _magnitude(fdisc, fa)
    if top > _TOP_MAGNITUDE:
        raise InputError(
            f"the lifted |q|^-1 at {point} has {top} bits, above the {_TOP_MAGNITUDE} handled"
        )
    log_abs_q = -pi * sqrt(-fdisc) / fa
    # the result is q^(-1/n) times O(1) factors: absolute accuracy needs the
    # bits of |q|^(-1/n) on top of the digits
    magnitude = -(-top // n)
    bits = _working_bits(digits, magnitude)
    order = _series_order(log_abs_q, bits)
    if order > _MAX_ORDER:  # |q| <= exp(-pi sqrt 3) keeps every order within it
        raise K3ModuliError(f"series order {order} at {point} is beyond the plan's {_MAX_ORDER}")
    q, q_inv, units = _q_powers(a, abs(b), disc, n, bits, magnitude)
    if n == 2:
        q = _sqr(q, bits)
    elif n == 3:
        q = _mul(_sqr(q, bits), q, bits)
    euler, euler2 = _euler_pair(q, order, bits)
    ratio = _div(euler2, euler, bits)
    r4 = _sqr(_sqr(ratio, bits), bits)
    r8 = _sqr(r4, bits)
    root = 0
    if n == 2:
        r12 = _mul(r8, r4, bits)
        hq = _mul(q, _sqr(r12, bits), bits)
        one = 1 << bits
        s, root = _sqrt((one + 64 * hq[0], 64 * hq[1]), bits)
        u = one - 512 * hq[0], -512 * hq[1]
        re, im = _div(_mul(_mul(u, s, bits), q_inv, bits), r12, bits)
    else:
        w = _mul(_sqr(r8, bits), r8, bits)  # rho^24 = h/q
        hq = _mul(q, w, bits)
        t = (1 << bits) + 256 * hq[0], 256 * hq[1]
        if n == 3:
            re, im = _div(_mul(t, q_inv, bits), r8, bits)
        else:
            re, im = _div(_mul(_mul(_sqr(t, bits), t, bits), q_inv, bits), w, bits)
    if b * b - disc == 4 * a * a:  # |tau| = 1: gamma_3 imaginary, j and gamma_2 real
        re, im = (0, im) if n == 2 else (re, 0)
    if negate:
        re, im = -re, -im
    err = (1 << _GUARD_BITS) + (root << 3) + (units << 18) << magnitude
    return BigComplex(re, -im if b < 0 else im, bits, err)


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


def _rescale(z: BigComplex, bits: int) -> BigComplex:
    """z at scale 2^-bits: exact when bits >= z.bits, else each part rounded
    toward zero, so conjugates stay exactly conjugate, and the bound rounded
    up plus under sqrt 2 units for the rounding of both parts."""
    by = bits - z.bits
    if by >= 0:
        return BigComplex(z.re << by, z.im << by, bits, z.err << by)
    re = z.re >> -by if z.re >= 0 else -(-z.re >> -by)
    im = z.im >> -by if z.im >= 0 else -(-z.im >> -by)
    return BigComplex(re, im, bits, (z.err >> -by) + 3)


def _add(x: BigComplex, y: BigComplex) -> BigComplex:
    """x + y exactly, for x and y at the same bits; the bounds add."""
    return BigComplex(x.re + y.re, x.im + y.im, x.bits, x.err + y.err)


def _power(z: BigComplex, power: int) -> BigComplex:
    """z^power exactly, at power times z's bits, with the bound
    |(z + d)^p - z^p| <= (|z| + err)^p - |z|^p, |z| <= |re| + |im|."""
    x = base = z.re, z.im
    for _ in range(power - 1):
        x = _mul(x, base, 0)
    size = abs(z.re) + abs(z.im)
    return BigComplex(*x, power * z.bits, (size + z.err) ** power - size**power)


def vanishes(poly, z: BigComplex) -> bool:
    """Whether the integer polynomial poly (lowest degree first) can vanish at
    the value z stands for: whether |poly(z)|, by Horner at z's bits, is at
    most the bound that moving z within err and the roundings allow.

    With S = |re| + |im| >= |z|, moving z moves poly by at most sum |c_k|
    ((S + err)^k - S^k), the majorant of poly at S + err less that at S,
    each summed by Horner rounded outward.  A Horner step rounds each part
    down by under a unit, and later steps multiply that by at most S, so
    the roundings add up to under r, r -> r S + 2 per step.  A poly off by
    x^k from one that vanishes is |z|^k minus that bound from 0."""
    bits, size = z.bits, abs(z.re) + abs(z.im)
    value, low, high, rounding = (0, 0), 0, 0, 0
    for c in reversed(poly):
        re, im = _mul(value, (z.re, z.im), bits)
        value = re + (c << bits), im
        low = (low * size >> bits) + (abs(c) << bits)
        high = -(-high * (size + z.err) >> bits) + (abs(c) << bits)
        rounding = -(-rounding * size >> bits) + 2
    return value[0] ** 2 + value[1] ** 2 <= (high - low + rounding) ** 2


def j_from_kernel(z: BigComplex, n: int, disc: int) -> BigComplex:
    """j from kernel n's value z at disc, at z's bits: z for j (n = 1), z^3
    for gamma_2 (n = 3), 1728 + z^2 / disc for y = sqrt(disc) gamma_3 (n =
    2).  Each part is rounded toward zero (see _rescale), so exact
    conjugates map to exact conjugates, and real values (for gamma_3 also
    imaginary ones) to real values.  The bound is _power's, divided by
    |disc| for gamma_3, rounded up, plus under sqrt 2 units for the
    rounding of both parts."""
    if n == 1:
        return z
    w = _power(z, n)
    size = (-disc if n == 2 else 1) << w.bits - z.bits
    re, im = (x // size if x >= 0 else -(-x // size) for x in (w.re, w.im))
    if n == 2:  # y^2 = disc (j - 1728), disc < 0
        re, im = (1728 << z.bits) - re, -im
    return BigComplex(re, im, z.bits, w.err // size + 3)


def part_sums(values: list[BigComplex], parts) -> list[BigComplex]:
    """For each part (indices into values), the exact sum of the values over
    it, at their most bits, with the sum of their bounds: conjugate parts
    give exactly conjugate sums."""
    bits = max(v.bits for v in values)
    scaled = [_rescale(v, bits) for v in values]
    return [reduce(_add, (scaled[i] for i in part)) for part in parts]


def apart(values: list[BigComplex]) -> bool:
    """Whether every two values are farther apart than their bounds, |x - y| >
    ex + ey, so that the true values they stand for are distinct."""
    bits = max(v.bits for v in values)
    pairs = combinations([_rescale(v, bits) for v in values], 2)
    return all((x.re - y.re) ** 2 + (x.im - y.im) ** 2 > (x.err + y.err) ** 2 for x, y in pairs)


def poly_from_roots(roots: list[BigComplex]) -> list[BigComplex]:
    """Coefficients of the monic prod (x - r), lowest degree first; the empty
    product is the constant 1.

    A real root enters as a real linear factor, a root and its exact
    conjugate (same bits) as one real quadratic x^2 - 2 Re(z) x + |z|^2.  A
    complex root without its conjugate raises K3ModuliError: the product
    would not be real.  Fixed point at a little more than the roots'
    certified accuracy, the most bits any root holds below its error bound
    (none when every bound is above 1, and then no coefficient is certified):
    each factor multiplies the error bound E of the partial product
    by (1 + |factor coefficients|) and adds the factor's own error times the
    largest partial coefficient, plus one unit per rounded term.  Every
    coefficient carries the final bound.
    """
    accurate = max((r.bits - r.err.bit_length() for r in roots), default=0)
    bits = max(accurate, 0) + len(roots).bit_length() + _PRODUCT_GUARD_BITS
    factors = []  # (low coefficients, their error bound)
    waiting = Counter()  # roots still without their conjugate
    for r in roots:
        if r.im and not waiting[r.re, -r.im, r.bits]:  # waits for its conjugate
            waiting[r.re, r.im, r.bits] += 1
            continue
        z = _rescale(r, bits)
        zr, zi, e = z.re, z.im, z.err
        if not r.im:
            factors.append(([-zr], e))
        else:
            waiting[r.re, -r.im, r.bits] -= 1
            # ||z + d|^2 - |z|^2| <= (2|z| + |d|) |d|, |z| <= |zr| + |zi|
            e2 = ((2 * (abs(zr) + abs(zi)) + e) * e >> bits) + 2
            factors.append(([(zr * zr + zi * zi) >> bits, -2 * zr], max(e2, 2 * e)))
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
    return [BigComplex(c, 0, bits, err) for c in coeffs]
