import random
import sys
import threading
from collections import Counter
from math import ceil, cos, exp, gcd, isqrt, ldexp, log, pi, sin, sqrt

import pytest
from mpmath.ctx_mp import MPContext

from k3moduli import moduli, numerics
from k3moduli.classgroup import MAX_ABS_DISC, class_group
from k3moduli.errors import InputError, K3ModuliError, NotNearInteger
from k3moduli.numerics import (
    BigComplex,
    CMPoint,
    _mul,
    _sqr,
    conjugate,
    j_invariant,
    poly_from_roots,
    recognize_integer,
)

from conftest import as_mpc, certified_integer, default_digits, from_mpc, hd_floor, valid_discs


def test_j_at_i_is_1728():
    value = j_invariant(CMPoint(1, 0, -4), 50)
    assert certified_integer(value, "1e-45") == 1728


def test_j_at_rho_is_0():
    value = j_invariant(CMPoint(1, -1, -3), 50)
    assert certified_integer(value, "1e-45") == 0


def test_j_at_2i_is_66_cubed():
    # independent classical value, re-checked at two precisions
    for digits in (40, 80):
        value = j_invariant(CMPoint(1, 0, -16), digits)
        assert certified_integer(value, f"1e-{digits - 5}") == 287496


def test_j_periodic_under_translation():
    ctx = MPContext()
    ctx.dps = 70
    a, b, d = 2, 1, -23
    j1 = as_mpc(ctx, j_invariant(CMPoint(a, b, d), 60))
    j2 = as_mpc(ctx, j_invariant(CMPoint(a, b - 2 * a, d), 60))
    assert abs(j1 - j2) < ctx.mpf(10) ** -55


def test_j_s_invariance():
    # |j(tau) - j(-1/tau)| small on sampled CM points
    ctx = MPContext()
    ctx.dps = 70
    digits = 60
    for a, b, d in [(1, 1, -23), (2, 1, -23), (3, 2, -56), (1, 0, -4), (2, 0, -56)]:
        c = (b * b - d) // (4 * a)
        j1 = as_mpc(ctx, j_invariant(CMPoint(a, b, d), digits))
        j2 = as_mpc(ctx, j_invariant(CMPoint(c, -b, d), digits))
        assert abs(j1 - j2) < ctx.mpf(10) ** (-digits + 5) * (1 + abs(j1))


def test_j_rejects_lower_half_plane():
    with pytest.raises(InputError, match="CM point needs a > 0 and disc < 0"):
        j_invariant(CMPoint(-1, 0, -4), 30)
    with pytest.raises(InputError, match="CM point needs a > 0 and disc < 0"):
        j_invariant(CMPoint(1, 0, 4), 30)


def test_recognize_integer_examples():
    ctx = MPContext()
    ctx.dps = 60
    near = from_mpc(ctx, ctx.mpc("1727.9999999999999999999999", "1e-50"))
    assert certified_integer(near, "1e-20") == 1728
    half = from_mpc(ctx, ctx.mpf("0.5"))
    with pytest.raises(NotNearInteger):
        certified_integer(half, "1e-20")
    imag = from_mpc(ctx, ctx.mpc(3, "0.25"))
    with pytest.raises(NotNearInteger):
        certified_integer(imag, "1e-20")
    assert recognize_integer(imag) == 3  # the certificate alone: |Im z| + err < 1/2


def test_recognize_integer_refuses_straddling_error_bound():
    # 1728 + 10^-31, but the error bound reaches past 1/2: not a certificate
    bits = 200
    tiny = (1 << bits) // 10**31
    for err in (1 << bits - 1, (1 << bits - 1) - tiny // 2):
        for z in (
            BigComplex((1728 << bits) + tiny, 0, bits, err),
            BigComplex(1728 << bits, tiny, bits, err),
        ):
            with pytest.raises(NotNearInteger):
                recognize_integer(z)
            with pytest.raises(NotNearInteger):
                certified_integer(z, "1e-20")
    certified = BigComplex((1728 << bits) + tiny, tiny, bits, 1 << bits - 2)
    assert recognize_integer(certified) == 1728


def test_error_bounds_cover_the_true_values():
    # a value at twice the digits stands in for the true one: the carried
    # bound of each j and each product coefficient must reach it
    def covered(low, high):
        up = high.bits - low.bits
        diff_re, diff_im = (low.re << up) - high.re, (low.im << up) - high.im
        return diff_re**2 + diff_im**2 <= ((low.err << up) + high.err) ** 2

    for d in (-23, -56, -71, -231, -420):
        group = class_group(d)
        digits = hd_floor(group)
        low, high = (moduli._class_values(group, 1, x) for x in (digits, 2 * digits))
        assert all(x.err > 0 and covered(x, y) for x, y in zip(low, high)), d
        pairs = zip(poly_from_roots(low), poly_from_roots(high))
        assert all(covered(x, y) and 2 * x.err < 1 << x.bits for x, y in pairs), d

    # gamma_2 at its floor, against (1 + 256 r^3) / r with r = (eta(2 tau) /
    # eta(tau))^8 from mpmath at the forms (A, B, C) with 3 not dividing A
    # and 3 | B; -71 has the classes (3, +-1, 6), where 3 | a and 3 | c, and
    # -56 the classes (3, +-2, 5), where 3 | a only
    ctx = MPContext()
    for d in (-23, -56, -71, -95, -1555):
        group = class_group(d)
        digits = moduli.class_polynomial_floor(group)
        ctx.dps = 2 * digits + 20
        low, high = (moduli._class_values(group, 3, x) for x in (digits, 2 * digits))
        assert all(x.err > 0 and covered(x, y) for x, y in zip(low, high)), d
        for cls, x in zip(group.classes, low):
            form = _gamma2_form(*cls.rep.coefficients())
            error = abs(as_mpc(ctx, x) - _gamma2_by_eta(ctx, d, *form))
            assert error < ctx.ldexp(x.err, -x.bits), (d, cls.rep)
        pairs = zip(poly_from_roots(low), poly_from_roots(high))
        assert all(covered(x, y) and 2 * x.err < 1 << x.bits for x, y in pairs), d
    # and at points off those forms, where q^(1/3) is not real though q is
    ctx.dps = 80
    for a, b, d in [(1, 2, -4), (1, -1, -7), (2, 3, -23), (3, 8, -56), (6, 1, -143)]:
        x = numerics.gamma2(CMPoint(a, b, d), 50)
        error = abs(as_mpc(ctx, x) - _gamma2_by_eta(ctx, d, a, b))
        assert error < ctx.ldexp(x.err, -x.bits), (a, b, d)

    # the roots y = sqrt(D) gamma_3 of W3 at its floor, against sqrt(D) E_6 /
    # eta^12 from mpmath at the forms (A, B, C) with A odd and B = 1 (mod 4);
    # -15 has (2, 1, 2), where a and c are even, -87 (2, +-1, 11), where only
    # a is, and -231 and -1155 classes with b = 3 (mod 4)
    for d in (-15, -87, -231, -1155):
        group = class_group(d)
        digits = moduli.class_polynomial_floor(group)
        ctx.dps = 2 * digits + 20
        low, high = (moduli._class_values(group, 2, x) for x in (digits, 2 * digits))
        assert all(x.err > 0 and covered(x, y) for x, y in zip(low, high)), d
        for cls, x in zip(group.classes, low):
            a, b = _gamma3_form(*cls.rep.coefficients())
            error = abs(as_mpc(ctx, x) - ctx.sqrt(d) * _gamma3_by_eta(ctx, d, a, b))
            assert error < ctx.ldexp(x.err, -x.bits), (d, cls.rep)
        pairs = zip(poly_from_roots(low), poly_from_roots(high))
        assert all(covered(x, y) and 2 * x.err < 1 << x.bits for x, y in pairs), d
    # and gamma_3 itself at points off those forms, of even and odd a and b
    ctx.dps = 80
    for a, b, d in [(1, 2, -4), (1, -1, -7), (2, 3, -23), (3, 8, -56), (6, 1, -143), (4, 2, -60)]:
        x = numerics.gamma3(CMPoint(a, b, d), 50)
        error = abs(as_mpc(ctx, x) - _gamma3_by_eta(ctx, d, a, b))
        assert error < ctx.ldexp(x.err, -x.bits), (a, b, d)


def _gamma2_form(a, b, c):
    """A form (A, B) of the class of (a, b, c) with 3 not dividing A and 3 | B,
    for 3 not dividing b^2 - 4ac."""
    if a % 3 == 0:
        a, b, c = (c, -b, a) if c % 3 else (a + b + c, b + 2 * c, c)
    k = next(k for k in range(3) if (b + 2 * a * k) % 3 == 0)
    return a, b + 2 * a * k


def _gamma2_by_eta(ctx, d, a, b):
    tau = ctx.mpc(-b, ctx.sqrt(-d)) / (2 * a)
    r = (ctx.eta(2 * tau) / ctx.eta(tau)) ** 8
    return (1 + 256 * r**3) / r


def _gamma3_form(a, b, c):
    """A form (A, B) of the class of (a, b, c) with A odd and B = 1 (mod 4),
    for odd b^2 - 4ac."""
    if a % 2 == 0:
        a, b, c = (c, -b, a) if c % 2 else (a + b + c, b + 2 * c, c)
    return a, b if b % 4 == 1 else b + 2 * a


def _gamma3_by_eta(ctx, d, a, b):
    """gamma_3 = E_6 / eta^12 at (-b + sqrt d) / (2a), E_6 = 1 - 504 sum
    n^5 q^n / (1 - q^n) summed until a term is below the precision."""
    tau = ctx.mpc(-b, ctx.sqrt(-d)) / (2 * a)
    q = ctx.expjpi(2 * tau)
    total, n, power = ctx.mpc(0), 1, q
    while abs(power) * n**5 > ctx.ldexp(1, -ctx.prec - 8):
        total += n**5 * power / (1 - power)
        n, power = n + 1, power * q
    return (1 - 504 * total) / ctx.eta(tau) ** 12


def test_both_kernels_match_mpmath_at_random_points():
    # an oracle independent of the kernel: j = 1728 kleinj(tau), and gamma_2
    # and gamma_3 from mpmath's eta, at twice the working bits, must lie
    # within the certified bound.  q^(1/n) = exp(-i pi b/(na)) |q|^(1/n) is
    # real at b/(na) even and odd, purely imaginary at b/(na) = +-1/2 or 3/2,
    # and |tau| = 1 at b^2 - disc = 4a^2; the value is exactly real at real
    # q, and at |tau| = 1 exactly real for j and gamma_2 and exactly
    # imaginary for gamma_3, as at imaginary q^(1/2)
    rng = random.Random(23)
    ctx = MPContext()
    for n, evaluate in ((1, j_invariant), (3, numerics.gamma2), (2, numerics.gamma3)):
        for shape in ("even", "odd", "imaginary", "unit", "random"):
            for _ in range(3):
                # na/2 is an integer for even a; |disc| >= 3a^2 keeps the
                # point's |q| within the reduced ones' range
                a = rng.randrange(2, 13, 2) if shape == "imaginary" else rng.randrange(1, 13)
                disc = -rng.randrange(3 * a * a, 3 * a * a + 20000)
                b = {
                    "even": 2 * n * a * rng.randrange(-1, 2),
                    "odd": n * a * rng.choice((-1, 1)),
                    "imaginary": n * a // 2 * rng.choice((-1, 1, 3)),
                    "unit": rng.randrange(a + 1),
                    "random": rng.randrange(-6 * a, 6 * a),
                }[shape]
                if shape == "unit":
                    disc = b * b - 4 * a * a
                x = evaluate(CMPoint(a, b, disc), rng.randrange(20, 401))
                imaginary = n == 2 and shape in ("imaginary", "unit")
                if shape in ("even", "odd", "unit") and not imaginary:
                    assert x.im == 0, (n, a, b, disc)
                if imaginary:
                    assert x.re == 0, (n, a, b, disc)
                ctx.prec = 2 * x.bits + 64
                if n == 1:
                    truth = 1728 * ctx.kleinj(ctx.mpc(-b, ctx.sqrt(-disc)) / (2 * a))
                elif n == 2:
                    truth = _gamma3_by_eta(ctx, disc, a, b)
                else:
                    truth = _gamma2_by_eta(ctx, disc, a, b)
                error = abs(as_mpc(ctx, x) - truth)
                assert error <= ctx.ldexp(x.err, -x.bits), (n, a, b, disc)


def _weber_by_eta(ctx, a, b, c):
    """zeta_48^k g(tau) / sqrt 2 at the reduced form (a, b, c) of 4D, cubed
    when 3 | D, from mpmath's eta: f = zeta_48^-1 eta((tau + 1)/2) / eta(tau),
    f1 = eta(tau/2) / eta(tau) and f2 = sqrt 2 eta(2 tau) / eta(tau), with
    the twist k of numerics.weber (the sweep against the kernel route,
    test_weber_route_gives_todays_polynomial, checks the twist itself)."""
    disc = b * b - 4 * a * c
    tau = ctx.mpc(-b, ctx.sqrt(-disc)) / (2 * a)
    half = b // 2
    if a % 2 == 0:
        g, k = ctx.sqrt(2) * ctx.eta(2 * tau) / ctx.eta(tau), -half * (a - c - a * c * c)
    elif c % 2 == 0:
        g, k = ctx.eta(tau / 2) / ctx.eta(tau), -half * (a - c + a * a * c)
    else:
        g = ctx.eta((tau + 1) / 2) / ctx.eta(tau) / ctx.expjpi(ctx.mpf(1) / 24)
        k = -half * (a - c - a * c * c) + (24 if c % 8 in (3, 5) else 0)
    x = ctx.expjpi(ctx.mpf(k) / 24) * g / ctx.sqrt(2)
    return x**3 if disc % 3 == 0 else x


def test_weber_roots_match_mpmath_at_random_forms():
    # random reduced forms (a, b, c) of 4D, D = 1 (mod 8), of each shape:
    # f (a, c odd), f1 (c even), f2 (a even), each with and without 3 | D,
    # at random digits; the value lies within its certified bound of
    # mpmath's eta quotient at twice the working bits, is exactly real at b
    # = 0, and (a, -b, c) gives the exact conjugate
    rng = random.Random(37)
    ctx = MPContext()
    shapes = Counter()
    while min(shapes.values(), default=0) < 4 or len(shapes) < 6:
        d = -rng.randrange(7, 200000, 8)
        a = rng.randrange(1, isqrt(-4 * d // 3) + 1)
        b = 2 * rng.randrange(-(a // 2), a // 2 + 1)
        c, rest = divmod(b * b - 4 * d, 4 * a)
        if rest or c < a or gcd(a, b, c) > 1:
            continue
        shape = ("f2" if a % 2 == 0 else "f1" if c % 2 == 0 else "f", d % 3 == 0)
        if shapes[shape] == 4:
            continue
        shapes[shape] += 1
        x = numerics.weber(CMPoint(a, b, 4 * d), rng.randrange(20, 401))
        ctx.prec = 2 * x.bits + 64
        error = abs(as_mpc(ctx, x) - _weber_by_eta(ctx, a, b, c))
        assert error <= ctx.ldexp(x.err, -x.bits), (a, b, c, d)
        assert b != 0 or x.im == 0, (a, b, c, d)
    # the mirrored form gives the exact conjugate
    for d in (-23, -63, -71, -255):
        for cls in class_group(d).classes:
            point = moduli._class_point(cls.rep, d, 24)
            value = numerics.weber(point, 50)
            mirror = numerics.weber(point._replace(b=-point.b), 50)
            assert mirror == conjugate(value) and (point.b == 0) == (value.im == 0), point
    # a form that is not a reduced form of 4D, D = 1 (mod 8), is refused
    for a, b, disc in [(1, 0, -4 * 5), (2, 1, -23), (3, 4, -4 * 23), (5, 0, -4 * 7)]:
        with pytest.raises(InputError, match="not a reduced form"):
            numerics.weber(CMPoint(a, b, disc), 30)


def test_bounds_hold_below_the_reduced_domain():
    # points with Im tau from 0.12 to 0.87 are lifted to the reduced domain
    # by the invariants' laws, and their values, gamma_3's sign included,
    # lie within the bound derived there
    rng = random.Random(11)
    ctx = MPContext()
    for _ in range(10):
        a = rng.randrange(2, 40)
        disc = -rng.randrange(int((0.24 * a) ** 2) + 1, 3 * a * a)
        b, digits = rng.randrange(-2 * a, 2 * a), rng.randrange(10, 200)
        for n, evaluate in ((1, j_invariant), (3, numerics.gamma2), (2, numerics.gamma3)):
            x = evaluate(CMPoint(a, b, disc), digits)
            ctx.prec = 2 * x.bits + 64
            tau = ctx.mpc(-b, ctx.sqrt(-disc)) / (2 * a)
            if n == 1:
                truth = 1728 * ctx.kleinj(tau)
            elif n == 2:
                truth = _gamma3_by_eta(ctx, disc, a, b)
            else:
                truth = _gamma2_by_eta(ctx, disc, a, b)
            assert abs(as_mpc(ctx, x) - truth) <= ctx.ldexp(x.err, -x.bits), (n, a, b, disc)


def _moved(a, b, c, word):
    """The form (a, b, c) moved by the letters of word, "T" (tau + 1), "t"
    (tau - 1) and "S" (-1/tau), and the sum of its translations."""
    shift = 0
    for letter in word:
        if letter == "S":
            a, b, c = c, -b, a
        else:
            step = 1 if letter == "T" else -1
            a, b, c, shift = a, b - 2 * a * step, c - b * step + a, shift + step
    return a, b, c, shift


def test_moved_points_take_the_laws_values_exactly():
    # j(tau + 1) = j(-1/tau) = j(tau), gamma_2(tau + 1) = exp(-2 pi i / 3)
    # gamma_2(tau), gamma_2(-1/tau) = gamma_2(tau), gamma_3(tau + 1) =
    # gamma_3(-1/tau) = -gamma_3(tau): at a point moved by a word from a
    # reduced form, each kernel gives the law's value bit for bit, gamma_2
    # as gamma_2 at the reduced point minus the sum of the translations.
    # |disc| > 4 keeps i and rho, where a move fixes the point, out
    rng = random.Random(33)
    for _ in range(40):
        disc = -rng.randrange(5, 3000)
        if disc % 4 not in (0, 1):
            continue
        a, b, c = rng.choice(class_group(disc).classes).rep.coefficients()
        word = "".join(rng.choice("TtS") for _ in range(rng.randrange(1, 12)))
        moved_a, moved_b, _, shift = _moved(a, b, c, word)
        moved, reduced = CMPoint(moved_a, moved_b, disc), CMPoint(a, b, disc)
        digits = rng.randrange(20, 200)
        assert j_invariant(moved, digits) == j_invariant(reduced, digits), (a, b, word)
        turned = CMPoint(a, (b - 2 * a * shift) % (6 * a), disc)
        assert numerics.gamma2(moved, digits) == numerics.gamma2(turned, digits), (a, b, word)
        value = numerics.gamma3(reduced, digits)
        negated = BigComplex(-value.re, -value.im, value.bits, value.err)
        expected = negated if len(word) % 2 else value
        assert numerics.gamma3(moved, digits) == expected, (a, b, word)


def _constants_oracle(ctx, a, b, disc, n, bits):
    """q^(1/n) = exp(pi i (-b + i sqrt|disc|) / (na)) and q^(-1/n) from mpmath,
    at scale 2^-bits."""
    power = ctx.exp(ctx.pi * ctx.mpc(-ctx.sqrt(-disc), -b) / (n * a))
    return [(ctx.ldexp(z.real, bits), ctx.ldexp(z.imag, bits)) for z in (power, 1 / power)]


def test_constants_of_q_match_mpmath_within_their_bound():
    # q^(1/n) and q^(-1/n) themselves, against mpmath at twice the bits:
    # each part within the bound _q_powers returns.  Real q at an integer
    # b/(na) must be exactly real, and beside each such point q at the
    # half-integer b/(na) of twice the a exactly imaginary; |tau| = 1 at
    # b^2 - disc = 4a^2; a = 1 reaches |disc| = 10^6, the largest |q|^-1;
    # and random points
    rng = random.Random(24)
    ctx = MPContext()
    checked = 0

    def check(shape, a, b, disc, n, digits):
        magnitude = -(-numerics._magnitude(disc, a) // n)
        bits = numerics._working_bits(digits, magnitude)
        q, q_inv, units = numerics._q_powers(a, b, disc, n, bits, magnitude)
        assert units == 2, (a, b, disc, n)
        if shape == "real":
            assert q[1] == q_inv[1] == 0, (a, b, disc, n)
        if shape == "half":
            assert q[0] == q_inv[0] == 0 != q[1], (a, b, disc, n)
        ctx.prec = 2 * (bits + magnitude)
        for got, truth in zip((q, q_inv), _constants_oracle(ctx, a, b, disc, n, bits)):
            for part, value in zip(got, truth):
                assert abs(part - value) <= units, (shape, a, b, disc, n)

    for n in (1, 3, 2):
        for shape in ("real", "unit", "large", "random"):
            for _ in range(8):
                a = 1 if shape == "large" else rng.randrange(1, 40)
                disc = -rng.randrange(3 * a * a, 3 * a * a + 20000)
                b = {
                    "real": n * a * rng.randrange(0, 5),
                    "unit": rng.randrange(a + 1),
                    "large": 0,
                    "random": rng.randrange(0, 12 * n * a),
                }[shape]
                if shape == "unit":
                    disc = b * b - 4 * a * a
                if shape == "large":
                    disc = -rng.randrange(4, 10**6 + 1)
                    b = disc % 2
                digits = rng.randrange(20, 401)
                check(shape, a, b, disc, n, digits)
                checked += 1
                if shape == "real":  # b/(na) = m, so b'/(na') = m + 1/2 at a' = 2a
                    check("half", 2 * a, 2 * b + n * a, 4 * disc, n, digits)
                    checked += 1
    # the longest halving loops, 22 to 27 squarings: MAX_DIGITS at a = 1 and
    # |disc| near 10^6, the largest |q|^-1
    for n in (1, 3, 2):
        for disc in (-(10**6), 1 - 10**6):
            b = disc % 2
            check("real" if b % n == 0 else "large", 1, b, disc, n, numerics.MAX_DIGITS)
            checked += 1
    assert checked == 126


def test_constants_do_not_depend_on_what_was_asked_first():
    # pi and ln 2 at b bits from a cold memo equal the truncation of the
    # floor memoised by a request at 4b bits, kept at the power of two above
    # it, and equal what a request at b bits gives after it; all are the
    # exact floors
    ctx = MPContext()
    series = {numerics._pi_series: ctx.pi, numerics._ln2_series: ctx.ln2}
    memo = numerics._exact_floor
    for bits in (10, 333, 2500):
        ctx.prec = bits + 64
        for make, constant in series.items():
            memo.cache_clear()
            cold = numerics._constant(make, bits)
            memo.cache_clear()
            numerics._constant(make, 4 * bits)
            top = 1 << (4 * bits - 1).bit_length()
            assert memo(make, top) >> top - bits == cold
            assert memo.cache_info()[:2] == (1, 1)  # hits, misses: top is the key
            assert numerics._constant(make, bits) == cold
            assert cold == int(ctx.floor(ctx.ldexp(constant, bits)))


def test_exact_floor_doubles_its_guard_until_the_bound_clears():
    # a bound of 2^32 units straddles a multiple of 2^32 at the first 32 guard
    # bits; at 64 the floor of 16/3 is certified
    asked = []

    def series(prec):
        asked.append(prec)
        return (16 << prec) // 3, 1 << 32 if prec == 42 else 1

    assert numerics._exact_floor(series, 10) == (16 << 10) // 3
    assert asked == [42, 74]


def test_trace_of_minus_23_roots_is_integer():
    group = class_group(-23)
    for digits in (60, 120):
        ctx = MPContext()
        ctx.dps = digits + 10
        js = [
            as_mpc(ctx, j_invariant(CMPoint(c.rep.a, c.rep.b, -23), digits))
            for c in group.classes
        ]
        total = sum(js, ctx.mpc(0))
        trace = certified_integer(from_mpc(ctx, total), "1e-20")
        assert trace == -3491750  # frozen from the doubled-precision run


def test_poly_from_roots_single():
    ctx = MPContext()
    ctx.dps = 30
    coeffs = poly_from_roots([from_mpc(ctx, ctx.mpf(1728))])
    assert [certified_integer(c, "1e-10") for c in coeffs] == [-1728, 1]
    # the empty product is the constant 1, exactly
    [one] = poly_from_roots([])
    assert one.re == 1 << one.bits and one.im == one.err == 0


def test_poly_from_roots_conjugate_pair_real():
    ctx = MPContext()
    ctx.dps = 40
    r = from_mpc(ctx, ctx.mpc("2.5", "3.25"))
    rbar = from_mpc(ctx, ctx.mpc("2.5", "-3.25"))
    coeffs = poly_from_roots([r, rbar])
    for c in coeffs:
        assert abs(as_mpc(ctx, c).imag) < ctx.mpf(10) ** -25


def test_poly_from_roots_refuses_unpaired_complex():
    # (x - (1 + 2i)) (x - (3 - i)) is not real, and neither is a product with
    # a conjugate that is off in the last bit
    one_plus_2i = BigComplex(1 << 100, 2 << 100, 100)
    for partner in (
        BigComplex(3 << 100, -1 << 100, 100),
        BigComplex(1 << 100, (-2 << 100) + 1, 100),
    ):
        with pytest.raises(K3ModuliError, match="no exact conjugate"):
            poly_from_roots([one_plus_2i, partner])
    with pytest.raises(K3ModuliError, match="no exact conjugate"):
        poly_from_roots([BigComplex(5, 0, 0), one_plus_2i])
    exact = poly_from_roots([one_plus_2i, numerics.conjugate(one_plus_2i)])
    assert [certified_integer(c, "1e-20") for c in exact] == [5, -2, 1]


def test_poly_from_roots_with_bounds_above_one_certifies_nothing():
    # roots known only to within 2^20: the product is formed, and its
    # bounds refuse recognition instead of giving a wrong integer
    err = 1 << 30  # at bits = 10
    roots = [BigComplex(v << 10, 0, 10, err) for v in (1, 2)]
    roots += [BigComplex(3 << 10, 1 << 10, 10, err), BigComplex(3 << 10, -1 << 10, 10, err)]
    coeffs = poly_from_roots(roots)
    assert len(coeffs) == 5 and all(c.err >> c.bits for c in coeffs)
    for c in coeffs:
        with pytest.raises(NotNearInteger):
            recognize_integer(c)


def test_class_cubic_stable_across_precision():
    group = class_group(-23)
    results = []
    for digits in (60, 120):
        js = [j_invariant(CMPoint(c.rep.a, c.rep.b, -23), digits) for c in group.classes]
        coeffs = poly_from_roots(js)
        results.append([certified_integer(c, "1e-12") for c in coeffs])
    assert results[0] == results[1]
    assert results[0][-1] == 1


def test_terms_needed_respects_cap_bound():
    # reduced points have |q| <= exp(-pi*sqrt(3)); the truncation order N is
    # the least one whose tail sum_{n > N} |q|^n = |q|^(N+1) / (1 - |q|) is
    # below 2^-bits, and it stays linear in the digits
    log_q = -pi * sqrt(3)

    def tail_log2(m):
        return ((m + 1) * log_q - log(1 - exp(log_q))) / log(2)

    for digits in (15, 40, 100, 500, 2000, 10000):
        bits = ceil(digits * log(10, 2)) + 80
        n = numerics._series_order(log_q, bits)
        assert tail_log2(n) < -bits <= tail_log2(n - 1)
        assert n <= (digits + 10) / 2.3 + 4 * sqrt(digits + 10) + 32


def test_tail_bound_is_sound():
    # truncating one term earlier changes j by less than the certified target
    point = CMPoint(1, 1, -23)
    digits = 45
    full = j_invariant(point, digits)
    ctx = MPContext()
    ctx.dps = 80
    tighter = j_invariant(point, digits + 20)
    assert abs(as_mpc(ctx, full) - as_mpc(ctx, tighter)) < ctx.mpf(10) ** -digits


def test_series_order_bounded_at_the_ceiling():
    # the order is largest where |q| is, at exp(-pi*sqrt 3) (D = -3, a = 1),
    # the largest |q| of a lifted point: at MAX_DIGITS, every eta kernel's
    # series stays within order 1274
    for n in (1, 2, 3):
        magnitude = -(-numerics._magnitude(-3, 1) // n)
        bits = numerics._working_bits(numerics.MAX_DIGITS, magnitude)
        order = numerics._series_order(-pi * sqrt(3), bits)
        assert order <= 1274 < numerics._MAX_ORDER, n
    # Weber's f and f1 sum theirs at p = +-q^(1/2), |p| up to exp(-pi sqrt(3)
    # / 2) on a reduced form of 4D, where x^3 has 5 bits of magnitude: twice
    # the order, which the plan covers.  (71, 70, 3887) of 4D = -15548 comes
    # closest among D = 1 (mod 8), |D| < 4000: |p| = exp(-pi * 0.878)
    bits = numerics._working_bits(numerics.MAX_DIGITS, 5)
    assert numerics._series_order(-pi * sqrt(3) / 2, bits) <= numerics._MAX_ORDER < 2560
    x = numerics.weber(CMPoint(71, 70, -15548), numerics.MAX_DIGITS)
    assert x.err < 1 << x.bits - 9960


def _euler(q, order: int, bits: int):
    """Oracle: prod(1 - q^n) = 1 + sum_k (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2))
    in fixed point, truncated after the power q^order, each power on its own
    chain of products (q^k and q^(2k+1) carried along k)."""
    q2 = _sqr(q, bits)
    power, q_k, q_step = q, q, _mul(q2, q, bits)  # q^(k(3k-1)/2), q^k, q^(2k+1)
    re, im, sign, k, g = 1 << bits, 0, -1, 1, 1
    while g <= order:
        upper = _mul(power, q_k, bits)  # q^(k(3k+1)/2)
        re += sign * (power[0] + (upper[0] if g + k <= order else 0))
        im += sign * (power[1] + (upper[1] if g + k <= order else 0))
        power = _mul(upper, q_step, bits)
        q_k, q_step = _mul(q_k, q, bits), _mul(q_step, q2, bits)
        sign, g, k = -sign, g + 3 * k + 1, k + 1
    return re, im


def _pentagonal(order: int) -> list[int]:
    """The generalized pentagonal numbers k(3k -+ 1)/2 <= order, k >= 1, increasing."""
    found = (g for k in range(1, order + 1) for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2))
    return sorted(g for g in found if g <= order)


def _real_products(order: int) -> int:
    """Real multiplications of one _euler_pair at order: 3 per _mul, 2 per _sqr."""
    count = 0
    for g, _, parts in numerics._PLAN:
        if g > order:
            break
        if parts:  # q^g: a square or a product, and maybe a second product
            count += (2 if parts[0] == parts[1] else 3) + 3 * (len(parts) == 3)
        count += 2 * (g <= order // 2)  # its square, the term of E(q^2)
    return count


def test_plan_covers_every_pentagonal_exponent_up_to_the_ceiling():
    assert numerics._MAX_ORDER == 2549  # test_series_order_bounded_at_the_ceiling
    plan = numerics._PLAN
    assert [g for g, _, _ in plan] == _pentagonal(2549)
    assert plan[0] == (1, -1, ())
    for row, (g, sign, parts) in enumerate(plan[1:], 1):
        k = next(k for k in range(1, 50) if g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2))
        assert sign == (-1) ** k, g
        # one product of two earlier powers, or two products
        assert len(parts) in (2, 3) and all(0 <= i < row for i in parts), g
        assert sum(plan[i][0] for i in parts) == g, g
    assert sum(len(parts) == 3 for _, _, parts in plan) == 26
    assert sum(len(parts) == 3 for g, _, parts in plan if g <= 1274) == 19
    assert (_real_products(2549), _real_products(1274), _real_products(20)) == (429, 300, 27)
    # a point whose series would pass the plan, at exp(-pi), is served at
    # its lifted point: i/2 goes to 2i by -1/tau
    at_max = numerics.MAX_DIGITS
    assert j_invariant(CMPoint(2, 0, -4), at_max) == j_invariant(CMPoint(1, 0, -16), at_max)


def test_table_matches_the_chained_oracle_within_its_bound():
    # |q| from exp(-pi*sqrt 3), the largest at a reduced point, down to 2^-200;
    # 64 bits below |q|^order, so a wrong power anywhere is far outside the bound
    rng = random.Random(5)
    orders = [1, 2, 5, 20, 200, 1274] + rng.sample(range(3, 1274), 6)
    for order in orders:
        pentagonal = _pentagonal(order)
        bound = sum(3 * g - 2 for g in pentagonal)
        bound2 = sum(6 * g - 2 for g in pentagonal if g <= order // 2)
        for shape in ("complex", "real", "imaginary"):
            ln_q = -rng.uniform(pi * sqrt(3), min(200 * log(2), 12000 * log(2) / order))
            bits = ceil(-ln_q * order / log(2)) + 64
            m, t = ldexp(exp(ln_q), 60), rng.uniform(0, 2 * pi)  # |q| 2^60, an angle
            unit = {"complex": (cos(t), sin(t)), "real": (1 if t < pi else -1, 0), "imaginary": (0, 1)}[shape]
            q = tuple(int(m * u) << bits - 60 for u in unit)
            euler, euler2 = numerics._euler_pair(q, order, bits)
            fine = tuple(x << 64 for x in q)
            oracles = (
                _euler(fine, order, bits + 64),
                _euler(_sqr(fine, bits + 64), order // 2, bits + 64),
            )
            for got, oracle, allowed in zip((euler, euler2), oracles, (bound, bound2)):
                # the oracle 64 bits finer is off by under a unit here, and its shift by one more
                off = max(abs(x - (y >> 64)) for x, y in zip(got, oracle))
                assert off <= allowed + 2, (order, shape)


def test_j_refuses_digits_above_the_ceiling():
    assert moduli.MAX_DIGITS is numerics.MAX_DIGITS
    # 10^9 digits would run for hours: refused before any work
    for digits in (numerics.MAX_DIGITS + 1, 10**9):
        with pytest.raises(InputError, match=f"ceiling of {numerics.MAX_DIGITS}"):
            j_invariant(CMPoint(1, 0, -4), digits)
        with pytest.raises(InputError, match=f"ceiling of {numerics.MAX_DIGITS}"):
            numerics.gamma2(CMPoint(1, 0, -4), digits)
        with pytest.raises(InputError, match=f"ceiling of {numerics.MAX_DIGITS}"):
            numerics.gamma3(CMPoint(1, 0, -4), digits)
    assert recognize_integer(j_invariant(CMPoint(1, 0, -4), numerics.MAX_DIGITS)) == 1728


def test_kernels_refuse_digits_below_1():
    # -50 digits made a negative shift count, and 0 or -1 a value whose bound
    # exceeds its scale: all refused before any series, pi and ln 2 unasked
    numerics._exact_floor.cache_clear()
    kernels = (
        (j_invariant, CMPoint(1, 0, -4)),
        (numerics.gamma2, CMPoint(1, 0, -4)),
        (numerics.gamma3, CMPoint(1, 0, -4)),
        (numerics.weber, CMPoint(1, 0, -28)),
    )
    for evaluate, point in kernels:
        for digits in (0, -1, -50):
            with pytest.raises(InputError, match=f"^{digits} digits are below 1$"):
                evaluate(point, digits)
    assert numerics._exact_floor.cache_info()[:2] == (0, 0)
    for evaluate, point in kernels:
        value = evaluate(point, 1)
        assert value.err < 1 << value.bits - 3, evaluate


def test_out_of_domain_points_are_refused_before_any_work():
    # a lifted point whose |q|^-1 is longer than the constants were sized for
    # (3.2 s of pi and ln 2 at |D| = 4*10^8) is refused before the constants
    # of q are computed; no CLI input reaches it, as |D| <= MAX_ABS_DISC
    # keeps |q|^-1 under the ceiling
    assert numerics._magnitude(-MAX_ABS_DISC, 1) < numerics._TOP_MAGNITUDE
    numerics._exact_floor.cache_clear()
    for evaluate in (j_invariant, numerics.gamma2, numerics.gamma3):
        # the 10^400 points are sized in integers: no float holds them, and
        # |q| near 1 at (10^400, 1, -3) lifts to |q|^-1 of over 2^(10^400)
        far = (CMPoint(1, 0, -4 * 10**8), CMPoint(1, 0, -4 * 10**400), CMPoint(10**400, 1, -3))
        for point in far:
            with pytest.raises(InputError, match=f"above the {numerics._TOP_MAGNITUDE} handled"):
                evaluate(point, 10)
        # sqrt|D| = 8000 passes the integer sizing, and the float one refuses it
        with pytest.raises(InputError, match=f"has 36259 bits, above the {numerics._TOP_MAGNITUDE}"):
            evaluate(CMPoint(1, 0, -4 * 4000**2), 10)
    assert numerics._exact_floor.cache_info()[:2] == (0, 0)  # pi and ln 2 never asked
    # |q| near 1 at i/100 is served as 100i, bit for bit
    at_max = numerics.MAX_DIGITS
    assert j_invariant(CMPoint(100, 0, -4), at_max) == j_invariant(CMPoint(1, 0, -40000), at_max)
    # i and rho scaled past a float's range are in the domain, and evaluated
    n = 2**600
    assert recognize_integer(j_invariant(CMPoint(n, 0, -4 * n * n), 20)) == 1728
    assert recognize_integer(numerics.gamma2(CMPoint(n, n, -3 * n * n), 20)) == 0


def test_gamma3_serves_points_below_the_reduced_domain():
    # the principal square root is gamma_3's only where |64h| < 1: a point
    # below Im tau = sqrt(3)/2 is lifted by the laws to one where it is, and
    # its value, with the sign of the moves, matches mpmath's
    ctx = MPContext()
    for a, b, d in ((3, 1, -23), (5, -2, -56), (100, 0, -4), (2, 0, -11)):
        value = numerics.gamma3(CMPoint(a, b, d), 30)
        ctx.prec = 2 * value.bits + 64
        error = abs(as_mpc(ctx, value) - _gamma3_by_eta(ctx, d, a, b))
        assert error <= ctx.ldexp(value.err, -value.bits), (a, b, d)
    # at rho, on the boundary and at |tau| = 1, gamma_3^2 = j - 1728 = -1728
    value = numerics.gamma3(CMPoint(1, 1, -3), 30)
    ctx.dps = 40
    assert value.re == 0 and abs(as_mpc(ctx, value) ** 2 + 1728) < ctx.mpf(10) ** -25


def test_times_sqrt_keeps_conjugates_and_its_bound():
    # sqrt(disc) z: minus the exact conjugate at the conjugate of z (sqrt(disc)
    # is imaginary), exactly real for imaginary z, and within its bound of the
    # exact product (z exact here)
    rng = random.Random(7)
    ctx = MPContext()
    ctx.prec = 600
    for disc in (-15, -87, -1155, -999867):
        for _ in range(8):
            bits = rng.randrange(40, 200)
            re, im = (rng.randrange(-(1 << 250), 1 << 250) for _ in range(2))
            z = BigComplex(re, im, bits)
            y = numerics.times_sqrt(z, disc)
            assert y.bits == z.bits
            mirror = numerics.times_sqrt(numerics.conjugate(z), disc)
            assert mirror == BigComplex(-y.re, y.im, y.bits, y.err)
            assert numerics.times_sqrt(BigComplex(0, z.im, bits), disc).im == 0
            error = abs(as_mpc(ctx, y) - ctx.sqrt(disc) * as_mpc(ctx, z))
            assert error <= ctx.ldexp(y.err, -y.bits), disc


def test_j_expansion_coefficients():
    # j = 1/q + 744 + 196884 q + ...: at tau = 11i, |q| = exp(-22 pi) ~ 1e-30,
    # peel the coefficients off one power of q at a time
    ctx = MPContext()
    ctx.dps = 260
    value = as_mpc(ctx, j_invariant(CMPoint(1, 0, -484), 240))
    q = ctx.exp(-22 * ctx.pi)
    known = [1, 744, 196884, 21493760, 864299970, 20245856256, 333202640600, 4252023300096]
    found = []
    rest = value.real
    for k in range(-1, len(known) - 1):
        coeff = int(ctx.nint(rest / q**k))
        found.append(coeff)
        rest -= coeff * q**k
    assert found == known
    assert value.imag == 0


def test_threads_at_different_digits_match_serial():
    # the memo of pi and ln 2 (numerics._exact_floor) holds exact floors, so
    # what it holds at a call does not change the call's result: results
    # must not depend on what the other threads compute at the same time,
    # with 9 (disc, digits) pairs asking for different precisions of a memo
    # emptied before they start
    plan = [(d, digits) for d in (-23, -56, -84) for digits in (30, 90, 270)]

    def compute(d, digits):
        group = class_group(d)
        js = moduli._class_values(group, 1, digits)
        roots = moduli._separated_roots(js, group._torsion_cosets)
        values = js + roots + poly_from_roots(js) + poly_from_roots(roots)
        return [(z.re, z.im) for z in values]

    expected = [compute(d, dg) for d, dg in plan]
    numerics._exact_floor.cache_clear()
    out = {idx: [] for idx in range(len(plan))}

    def worker(i):
        for _ in range(3):
            for k in range(len(plan)):
                idx = (k + i) % len(plan)
                out[idx].append(compute(*plan[idx]))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for idx, values in enumerate(expected):
        assert out[idx] == [values] * 18


def test_j_conjugate_for_negative_b():
    for a, b, d in [(2, 1, -23), (3, 2, -56), (4, 3, -71)]:
        z = j_invariant(CMPoint(a, b, d), 60)
        assert j_invariant(CMPoint(a, -b, d), 60) == numerics.conjugate(z)
        assert z.im != 0


def test_real_product_matches_complex_product():
    # reference: the plain complex product prod (x - r) at high precision
    ctx = MPContext()
    for d in valid_discs(500):
        group = class_group(d)
        digits = default_digits(group.h)
        js = moduli._class_values(group, 1, digits)
        fast = [certified_integer(c, "1e-10") for c in poly_from_roots(js)]
        ctx.dps = 2 * digits + 40 * group.h
        coeffs = [ctx.mpc(1)]
        for z in js:
            r = as_mpc(ctx, z)
            coeffs = [-r * coeffs[0]] + [
                coeffs[k - 1] - r * coeffs[k] for k in range(1, len(coeffs))
            ] + [coeffs[-1]]
        slow = [certified_integer(from_mpc(ctx, c), "1e-10") for c in coeffs]
        assert fast == slow, d


def test_parallel_j_matches_serial():
    point = CMPoint(2, 1, -23)
    expected = j_invariant(point, 80)
    out = [None] * 6

    def worker(i):
        out[i] = j_invariant(point, 80)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for got in out:
        assert got.re == expected.re and got.im == expected.im
