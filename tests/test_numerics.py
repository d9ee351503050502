import sys
import threading
from math import ceil, exp, log, pi, sqrt

import pytest
from mpmath.ctx_mp import MPContext

from k3moduli import moduli, numerics
from k3moduli.classgroup import class_group
from k3moduli.errors import InputError, K3ModuliError, NotNearInteger, NotPositiveDefinite
from k3moduli.numerics import (
    BigComplex,
    CMPoint,
    j_invariant,
    poly_from_roots,
    recognize_integer,
)

from conftest import as_mpc, certified_integer, default_digits, from_mpc, valid_discs


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
    with pytest.raises(NotPositiveDefinite):
        j_invariant(CMPoint(-1, 0, -4), 30)
    with pytest.raises(NotPositiveDefinite):
        j_invariant(CMPoint(1, 0, 4), 30)


def test_recognize_integer_examples():
    ctx = MPContext()
    ctx.dps = 60
    near = from_mpc(ctx, ctx.mpc("1727.9999999999999999999999", "1e-50"), 40)
    assert certified_integer(near, "1e-20") == 1728
    half = from_mpc(ctx, ctx.mpf("0.5"), 40)
    with pytest.raises(NotNearInteger):
        certified_integer(half, "1e-20")
    imag = from_mpc(ctx, ctx.mpc(3, "0.25"), 40)
    with pytest.raises(NotNearInteger):
        certified_integer(imag, "1e-20")
    assert recognize_integer(imag) == 3  # the certificate alone: |Im z| + err < 1/2


def test_recognize_integer_refuses_straddling_error_bound():
    # 1728 + 10^-31, but the error bound reaches past 1/2: not a certificate
    bits = 200
    tiny = (1 << bits) // 10**31
    for err in (1 << bits - 1, (1 << bits - 1) - tiny // 2):
        for z in (
            BigComplex((1728 << bits) + tiny, 0, bits, 60, err),
            BigComplex(1728 << bits, tiny, bits, 60, err),
        ):
            with pytest.raises(NotNearInteger):
                recognize_integer(z)
            with pytest.raises(NotNearInteger):
                certified_integer(z, "1e-20")
    certified = BigComplex((1728 << bits) + tiny, tiny, bits, 60, 1 << bits - 2)
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
        digits = moduli.precision_floor(group)
        low, high = moduli._j_values(group, digits), moduli._j_values(group, 2 * digits)
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
        low, high = moduli._gamma2_values(group, digits), moduli._gamma2_values(group, 2 * digits)
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
        trace = certified_integer(from_mpc(ctx, total, digits), "1e-20")
        assert trace == -3491750  # frozen from the doubled-precision run


def test_poly_from_roots_single():
    ctx = MPContext()
    ctx.dps = 30
    coeffs = poly_from_roots([from_mpc(ctx, ctx.mpf(1728), 25)])
    assert [certified_integer(c, "1e-10") for c in coeffs] == [-1728, 1]


def test_poly_from_roots_conjugate_pair_real():
    ctx = MPContext()
    ctx.dps = 40
    r = from_mpc(ctx, ctx.mpc("2.5", "3.25"), 30)
    rbar = from_mpc(ctx, ctx.mpc("2.5", "-3.25"), 30)
    coeffs = poly_from_roots([r, rbar])
    for c in coeffs:
        assert abs(as_mpc(ctx, c).imag) < ctx.mpf(10) ** -25


def test_poly_from_roots_refuses_unpaired_complex():
    # (x - (1 + 2i)) (x - (3 - i)) is not real, and neither is a product with
    # a conjugate that is off in the last bit
    one_plus_2i = BigComplex(1 << 100, 2 << 100, 100, 30)
    for partner in (
        BigComplex(3 << 100, -1 << 100, 100, 30),
        BigComplex(1 << 100, (-2 << 100) + 1, 100, 30),
    ):
        with pytest.raises(K3ModuliError, match="no exact conjugate"):
            poly_from_roots([one_plus_2i, partner])
    with pytest.raises(K3ModuliError, match="no exact conjugate"):
        poly_from_roots([BigComplex(5, 0, 0, 30), one_plus_2i])
    exact = poly_from_roots([one_plus_2i, numerics.conjugate(one_plus_2i)])
    assert [certified_integer(c, "1e-20") for c in exact] == [5, -2, 1]


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
    # the order is largest where |q| is, at exp(-pi*sqrt 3) (D = -3, a = 1,
    # where the spread term is 1): MAX_DIGITS bounds every series
    bits = numerics._working_bits(numerics.MAX_DIGITS, numerics._magnitude(-3, 1), 1)
    assert numerics._series_order(-pi * sqrt(3), bits) < 1300


def test_j_refuses_digits_above_the_ceiling():
    assert moduli.MAX_DIGITS is numerics.MAX_DIGITS
    # 10^9 digits would run for hours: refused before any work
    for digits in (numerics.MAX_DIGITS + 1, 10**9):
        with pytest.raises(InputError, match=f"ceiling of {numerics.MAX_DIGITS}"):
            j_invariant(CMPoint(1, 0, -4), digits)
        with pytest.raises(InputError, match=f"ceiling of {numerics.MAX_DIGITS}"):
            numerics.gamma2(CMPoint(1, 0, -4), digits)
    assert recognize_integer(j_invariant(CMPoint(1, 0, -4), numerics.MAX_DIGITS)) == 1728


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
    # nothing is shared between calls: results must not depend on what the
    # other threads compute at the same time
    plan = [(d, digits) for d in (-23, -56, -84) for digits in (30, 90, 270)]

    def compute(d, digits):
        group = class_group(d)
        js = moduli._j_values(group, digits)
        roots, _ = moduli._separated_roots(js, moduli._torsion_cosets(group), digits)
        values = js + roots + poly_from_roots(js) + poly_from_roots(roots)
        return [(z.re, z.im) for z in values]

    expected = [compute(d, dg) for d, dg in plan]
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
        js = moduli._j_values(group, digits)
        fast = [certified_integer(c, "1e-10") for c in poly_from_roots(js)]
        ctx.dps = 2 * digits + 40 * group.h
        coeffs = [ctx.mpc(1)]
        for z in js:
            r = as_mpc(ctx, z)
            coeffs = [-r * coeffs[0]] + [
                coeffs[k - 1] - r * coeffs[k] for k in range(1, len(coeffs))
            ] + [coeffs[-1]]
        slow = [certified_integer(from_mpc(ctx, c, digits), "1e-10") for c in coeffs]
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
