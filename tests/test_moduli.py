import hashlib
import os
import subprocess
import sys
from collections import Counter
from functools import cache, lru_cache
from itertools import permutations
from math import comb, gcd, log10
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest
from mpmath.ctx_mp import MPContext

from k3moduli import classgroup, moduli, numerics, qforms
from k3moduli.k3 import from_gram, lattice_from_class, scale
from k3moduli.moduli import class_polynomial, field_of_Q_moduli, moduli_report, mq_is_galois
from k3moduli.errors import K3ModuliError, NotNearInteger, PrecisionError, TracesNotApart
from k3moduli.numerics import BigComplex, CMPoint, conjugate, j_invariant, poly_from_roots
from k3moduli.qforms import form_class

from conftest import as_mpc, default_digits, empty_field_cache, hd_floor, kernel_floor, run_cli
from conftest import valid_discs

LATTICE_23 = from_gram(((2, 1), (1, 12)))
LATTICE_4 = from_gram(((2, 0), (0, 2)))
LATTICE_56 = lattice_from_class(1, form_class(3, 2, 5))

H23 = (12771880859375, -5151296875, 3491750, 1)  # frozen two-precision golden


def galois_model(group):
    """Gal(H/Q) of the class group as a brute-force moduli.GaloisModel: its
    elements, C[2] (fixing M_K) and <C[2], conjugation> (fixing M_Q)."""
    torsion = sorted(classgroup.two_torsion(group))
    elements = tuple((i, e) for e in (0, 1) for i in range(group.h))
    mk = frozenset((i, 0) for i in torsion)
    mq = frozenset((i, e) for i in torsion for e in (0, 1))
    return moduli.GaloisModel(group, elements, mk, mq)


@pytest.fixture(scope="session")
def sweep():
    """The class groups, class polynomials (with their digits) and field
    polynomials (with theirs) of the sweeps over |D| <= 3000, each built on
    first use and kept for the session: the library keeps 32 discriminants,
    so every sweep rebuilt what the one before it had built."""
    return SimpleNamespace(
        group=cache(lambda d: classgroup.class_group(d)),
        class_polynomial=cache(lambda d: moduli.class_polynomial_with_precision(d)),
        field_polynomials=cache(lambda d: moduli._field_polynomials(d)),
    )


def class_poly_at(group, digits: int) -> tuple[int, ...]:
    """H_D certified at digits through the kernel of _class_kernel."""
    return moduli._class_polynomial_at(group, moduli._class_kernel(group.disc), digits)[0]


def classpoly_start(group) -> int:
    """The digits of class_polynomial's first attempt: the Weber floor for D
    = 1 (mod 8), below class_polynomial_floor, else that floor."""
    floor = moduli.class_polynomial_floor(group)
    if group.disc % 8 != 1:
        return floor
    weber = moduli.class_polynomial_floor(group, weber_kernel(group.disc))
    assert weber < floor, group.disc
    return weber


def weber_kernel(d: int) -> int:
    """n of Weber's roots at d = 1 (mod 8): x (n = 24), or its cube (n = 8)
    when 3 | d."""
    return 24 if d % 3 else 8


def weber_polynomial(group) -> tuple[int, ...]:
    """The Weber polynomial of group, certified at the Weber floor."""
    n = weber_kernel(group.disc)
    values = moduli._class_values(group, n, moduli.class_polynomial_floor(group, n))
    return moduli._recognize_int_poly(poly_from_roots(values))


def test_moduli_degree():
    # [M_K : K] = [M_Q : Q] = the genus order of the primitive part
    for lattice, g in ((LATTICE_23, 3), (LATTICE_4, 1), (LATTICE_56, 2), (scale(LATTICE_23, 4), 3)):
        assert classgroup.genus_order(classgroup.class_group(lattice.disc0)) == g


def test_galois_model_shapes():
    m23 = galois_model(classgroup.class_group(LATTICE_23.disc0))
    assert len(m23.elements) == 6
    assert len(m23.subgroup_mk) == 1
    assert len(m23.subgroup_mq) == 2

    m4 = galois_model(classgroup.class_group(LATTICE_4.disc0))
    assert len(m4.elements) == 2

    m56 = galois_model(classgroup.class_group(LATTICE_56.disc0))
    assert len(m56.elements) == 8
    assert len(m56.subgroup_mk) == 2
    assert len(m56.subgroup_mq) == 4


def test_galois_model_relations():
    for lattice in (LATTICE_23, LATTICE_56):
        model = galois_model(classgroup.class_group(lattice.disc0))
        group = model.cg
        e = (group.principal_index, 0)
        iota = (group.principal_index, 1)
        assert model.mul(iota, iota) == e
        for i in range(group.h):
            x = (i, 0)
            conj = model.mul(model.mul(iota, x), model.inv(iota))
            assert conj == (group.inverse_index(i), 0)
        assert model.is_normal(model.subgroup_mk)
        h = group.h
        assert len(model.elements) == 2 * h
        g = classgroup.genus_order(group)
        assert h // len(model.subgroup_mk) == g
        assert len(model.elements) // len(model.subgroup_mq) == g


def test_mq_is_galois():
    assert mq_is_galois(LATTICE_23) is False
    assert mq_is_galois(LATTICE_4) is True
    # frozen by the normality brute force; consistent with g = 2 (any
    # quadratic extension is Galois)
    assert mq_is_galois(LATTICE_56) is True


def test_class_polynomial_examples():
    assert class_polynomial(-4) == (-1728, 1)
    assert class_polynomial(-3) == (0, 1)
    assert class_polynomial(-23) == H23


def test_class_polynomial_minus_23_root_pattern():
    b, c, d = H23[2], H23[1], H23[0]
    disc = 18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d
    assert disc < 0  # one real root and a complex-conjugate pair


def test_class_polynomial_minus_56_stable():
    group = classgroup.class_group(-56)
    first = class_poly_at(group, 70)
    second = class_poly_at(group, 140)
    assert first == second
    assert len(first) == 5 and first[-1] == 1


def test_real_roots_exactly_at_ambiguous_classes():
    ctx = MPContext()
    ctx.dps = 70
    for d in (-23, -56, -84, -231):
        group = classgroup.class_group(d)
        for cls in group.classes:
            rep = cls.rep
            value = j_invariant(CMPoint(rep.a, rep.b, d), 60)
            ambiguous = rep.b == 0 or rep.a == rep.b or rep.a == rep.c
            assert (abs(as_mpc(ctx, value).imag) < ctx.mpf("1e-50")) == ambiguous
    # gamma_2 at the forms of the class polynomial W: (3, 1, 3) of -35 and
    # (6, 1, 6) of -143 are ambiguous with 3 | a; (3, +-1, 6) of -71 and
    # (3, +-2, 5) of -56 are not
    for d in (-23, -35, -56, -71, -143):
        group = classgroup.class_group(d)
        for cls, value in zip(group.classes, moduli._class_values(group, 3, 60)):
            rep = cls.rep
            ambiguous = rep.b == 0 or rep.a == rep.b or rep.a == rep.c
            assert (abs(as_mpc(ctx, value).imag) < ctx.mpf("1e-50")) == ambiguous, (d, rep)
            assert (value.im == 0) == ambiguous, (d, rep)
    # y = sqrt(D) gamma_3 at the forms of W3, for odd D: b = a at (1, 1, .)
    # and (3, 3, 8) of -87, a = c at (2, 1, 2) of -15; (2, +-1, 11) of -87
    # and the classes of -231 with b = 3 (mod 4) are not ambiguous
    for d in (-15, -87, -231, -255):
        group = classgroup.class_group(d)
        for cls, value in zip(group.classes, moduli._class_values(group, 2, 60)):
            rep = cls.rep
            ambiguous = rep.a == rep.b or rep.a == rep.c
            assert (abs(as_mpc(ctx, value).imag) < ctx.mpf("1e-40")) == ambiguous, (d, rep)
            assert (value.im == 0) == ambiguous, (d, rep)


def test_j_values_conjugate_pairs_exactly():
    for d in (-71, -231, -479):
        group = classgroup.class_group(d)
        reps = [c.rep.coefficients() for c in group.classes]
        js = dict(zip(reps, moduli._class_values(group, 1, 60)))
        negative = [(a, b, c) for a, b, c in js if b < 0]
        assert negative
        for a, b, c in negative:
            assert js[a, b, c] == conjugate(js[a, -b, c])
    # gamma_2 at mirrored forms; -71 has (3, +-1, 6) and -56 (3, +-2, 5), where 3 | a
    for d in (-56, -71, -479):
        group = classgroup.class_group(d)
        reps = [c.rep.coefficients() for c in group.classes]
        values = dict(zip(reps, moduli._class_values(group, 3, 60)))
        negative = [(a, b, c) for a, b, c in values if b < 0]
        assert negative
        for a, b, c in negative:
            assert values[a, b, c] == conjugate(values[a, -b, c])
            assert values[a, b, c].im != 0
    # sqrt(D) gamma_3 at mirrored classes of odd D
    for d in (-87, -231, -255):
        group = classgroup.class_group(d)
        reps = [c.rep.coefficients() for c in group.classes]
        values = dict(zip(reps, moduli._class_values(group, 2, 60)))
        negative = [(a, b, c) for a, b, c in values if b < 0]
        assert negative
        for a, b, c in negative:
            assert values[a, b, c] == conjugate(values[a, -b, c])
            assert values[a, b, c].im != 0


def test_kernel_values_map_to_j_within_the_bounds(sweep):
    # j_from_kernel at every class is j within the sum of the two bounds, for
    # gamma_2 (3 not dividing D) and sqrt(D) gamma_3 (D odd, 3 | D); it keeps
    # exact conjugates exactly conjugate, and a value that is real (for
    # gamma_3 also one that is imaginary) maps to a real j, as j is there
    counts = Counter()
    for d in valid_discs(600):
        n = moduli._class_kernel(d)
        if n == 1:
            continue
        group = sweep.group(d)
        for z, j in zip(moduli._class_values(group, n, 60), moduli._class_values(group, 1, 60)):
            x = numerics.j_from_kernel(z, n, d)
            assert x.bits == z.bits and numerics.j_from_kernel(conjugate(z), n, d) == conjugate(x)
            real = z.im == 0 or n == 2 and z.re == 0
            assert (x.im == 0) == real == (j.im == 0), (d, z)
            assert numerics.j_from_kernel(j, 1, d) is j
            bits = max(x.bits, j.bits)
            u, v = (
                (w.re << bits - w.bits, w.im << bits - w.bits, w.err << bits - w.bits)
                for w in (x, j)
            )
            assert (u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2 <= (u[2] + v[2]) ** 2, (d, z)
            counts[n] += 1
    # the classes of the 200 discriminants prime to 3, and of the 50 odd ones
    # divisible by 3
    assert counts == {3: 1417, 2: 363}


def test_analyze_evaluates_only_the_class_kernel(monkeypatch):
    # one set of invariant values per disc0: moduli_report evaluates one
    # invariant once at each class of b >= 0, and no other: at odd h
    # classpoly's, Weber's x at -23 (D = 1 mod 8), at even h that of
    # _class_kernel.  At -39 (h = 4, two cosets of C[2], D = 1 mod 8 too)
    # the coset sums take j from sqrt(D) gamma_3
    empty_field_cache(monkeypatch)
    calls = Counter()
    for name in ("j_invariant", "gamma2", "gamma3", "weber"):

        def counted(point, digits, name=name, evaluate=getattr(moduli, name)):
            calls[name] += 1
            return evaluate(point, digits)

        monkeypatch.setattr(moduli, name, counted)
    # (D, invariant, cosets of C[2]): h = 3, 4 and 2
    for d, kernel, cosets in ((-23, "weber", 3), (-39, "gamma3", 2), (-24, "j_invariant", 1)):
        group = classgroup.class_group(d)
        if group.h % 2 == 0:
            assert {3: "gamma2", 2: "gamma3", 1: "j_invariant"}[moduli._class_kernel(d)] == kernel
        assert len(group._torsion_cosets) == cosets
        calls.clear()
        report = moduli_report(lattice_from_class(1, group.classes[0]))
        assert calls == {kernel: sum(cls.rep.b >= 0 for cls in group.classes)}, d
        assert report.class_polynomial == class_polynomial(d), d


def test_cold_field_report_builds_the_cosets_of_c2_once(monkeypatch):
    # the field polynomial's floor and its attempt both read C[2]'s cosets:
    # a cold disc0 builds them once, on its group, and a warm one not again
    empty_field_cache(monkeypatch)
    fresh = lru_cache(maxsize=32)(classgroup.class_group.__wrapped__)
    monkeypatch.setattr(classgroup, "class_group", fresh)
    built = Counter()

    def counted(group, key, fibres=classgroup.fibres):
        built[group.disc] += 1
        return fibres(group, key)

    monkeypatch.setattr(classgroup, "fibres", counted)
    for d in (-23, -56, -84, -260):  # h = 3, 4, 4 and 8
        moduli.field_report(d)
        moduli.field_report(d)
    assert built == {-23: 1, -56: 1, -84: 1, -260: 1}


def test_gamma2_class_polynomial_rebuilds_h(sweep):
    # for 3 not dividing D, W is monic and integral at its floor, and the
    # norm identity gives the product over j at H_D's floor exactly
    count = 0
    for d in valid_discs(1000):
        if d % 3 == 0:
            continue
        group = sweep.group(d)
        digits = moduli.class_polynomial_floor(group)
        w = moduli._recognize_int_poly(poly_from_roots(moduli._class_values(group, 3, digits)))
        assert len(w) == group.h + 1 and w[-1] == 1, d
        js = moduli._class_values(group, 1, hd_floor(group))
        oracle = moduli._recognize_int_poly(poly_from_roots(js))
        assert moduli._norm_from_gamma2(w) == oracle and oracle[0] == w[0] ** 3, d
        assert sweep.class_polynomial(d)[0] == oracle, d
        count += 1
    assert count == 333


def test_gamma3_class_polynomial_rebuilds_h(sweep):
    # for odd D with 3 | D, W3 is monic and integral at its floor, every
    # division by a power of D in the conversion is exact, and it gives the
    # product over j at H_D's floor exactly
    count = 0
    for d in valid_discs(1000):
        if d % 6 != 3:
            continue
        group = sweep.group(d)
        digits = moduli.class_polynomial_floor(group)
        assert digits < hd_floor(group), d
        w3 = moduli._recognize_int_poly(poly_from_roots(moduli._class_values(group, 2, digits)))
        assert len(w3) == group.h + 1 and w3[-1] == 1, d
        js = moduli._class_values(group, 1, hd_floor(group))
        oracle = moduli._recognize_int_poly(poly_from_roots(js))
        assert moduli._norm_from_gamma3(w3, d) == oracle, d
        assert sweep.class_polynomial(d) == (oracle, classpoly_start(group)), d
        count += 1
    assert count == 84


def test_weber_route_gives_todays_polynomial(sweep):
    # every D = 1 (mod 8) with |D| <= 3000: classpoly's Weber route, at the
    # Weber floor in one attempt, gives the H_D that analyze's kernel route
    # (W, W3) certifies at its own floor
    count = Counter()
    for d in valid_discs(3000):
        if d % 8 != 1:
            continue
        group = sweep.group(d)
        coeffs, digits = sweep.class_polynomial(d)
        assert digits == classpoly_start(group), d
        assert coeffs == sweep.field_polynomials(d)[0].class_poly, d
        count[d % 3 == 0] += 1
    assert count == {False: 250, True: 125}


def _doctored(monkeypatch, i: int, off: int) -> None:
    """Make moduli's recognized polynomials off by off in coefficient i."""
    recognize = moduli._recognize_int_poly

    def doctored(coeffs):
        poly = recognize(coeffs)
        return poly[:i] + (poly[i] + off,) + poly[i + 1 :]

    monkeypatch.setattr(moduli, "_recognize_int_poly", doctored)


def test_doctored_weber_polynomial_is_refused(monkeypatch):
    # the Weber polynomial off by +-1 in any coefficient below the top, at
    # every D = 1 (mod 8) with |D| <= 600: refused by one of the exact
    # checks, never a polynomial.  P(0) = +-1 throughout, so the division by
    # P(0)^2 alone passes most of them: at -15 and -55 some give a power of
    # H_-7 = x + 3375, which Gross-Zagier and the square check pass too, and
    # which the principal root refuses
    refused, cases = Counter(), 0
    for d in valid_discs(600):
        if d % 8 != 1:
            continue
        group = classgroup.class_group(d)
        digits = moduli.class_polynomial_floor(group, weber_kernel(d))
        assert abs(weber_polynomial(group)[0]) == 1, d
        for i in range(group.h):
            for off in (1, -1):
                cases += 1
                with monkeypatch.context() as patch:
                    _doctored(patch, i, off)
                    with pytest.raises(K3ModuliError) as exc:
                        moduli._class_polynomial_at(group, weber_kernel(d), digits)
                refused[str(exc.value).split(": ", 1)[1][:24]] += 1
    # by each of the five refusals: the principal root, a zero or a
    # non-dividing P(0), Gross-Zagier and the square
    assert sum(refused.values()) == cases == 1728 and len(refused) == 5, refused
    # and the CLI exits with code 2 on one, without a polynomial
    empty_field_cache(monkeypatch)
    _doctored(monkeypatch, 1, 1)
    code, out = run_cli(["classpoly", "--", "-15"])
    assert code == 2 and out == ""


def test_weber_norm_refuses_an_inexact_division():
    # the polynomial of t = x^8 (x^24) off in its constant term: N is then
    # not divisible by P(0)^2, or P has the root 0
    for d in (-23, -47, -63, -71, -135, -2351):
        group = classgroup.class_group(d)
        t = moduli._graeffe(moduli._graeffe(moduli._graeffe(weber_polynomial(group))))
        if d % 3:  # W, at its own floor
            digits = moduli.class_polynomial_floor(group)
            w = moduli._recognize_int_poly(poly_from_roots(moduli._class_values(group, 3, digits)))
            assert moduli._norm_from_weber(t, d, weber_kernel(d)) == w, d
        else:
            assert moduli._norm_from_weber(t, d, weber_kernel(d)) == class_polynomial(d), d
        for off in (1, -1, 2 * t[0]):
            doctored = (t[0] + off,) + t[1:]
            with pytest.raises(K3ModuliError, match=r"divisible by P\(0\)\^2|root 0"):
                moduli._norm_from_weber(doctored, d, weber_kernel(d))


def test_graeffe_squares_the_roots():
    # against the product over the squared roots, at h = 1, 2, 3 and with
    # a zero root
    for roots in ((3,), (-2, 5), (1, -1, 7), (0, 4, -4), (2, 3, -5, 11)):
        poly = (1,)
        for r in roots:  # times (x - r)
            poly = tuple(a - r * b for a, b in zip((0,) + poly, poly + (0,)))
        squares = (1,)
        for r in roots:
            squares = tuple(a - r * r * b for a, b in zip((0,) + squares, squares + (0,)))
        assert moduli._graeffe(poly) == squares, roots


def _schoolbook_norm(poly, n: int, r, q, lift: int) -> list[int]:
    """The norm of poly(sigma) over (sigma - lift)^n = q (sigma - lift) + r,
    for linear forms q and r given as (m, k) = m X + k: the determinant of
    multiplication by poly on the basis 1, sigma, ..., sigma^(n - 1), over
    integer polynomials in X, lowest degree first."""

    def plus(f, g):
        return [a + b for a, b in zip(f + [0] * len(g), g + [0] * len(f))][: max(len(f), len(g))]

    def times(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] += a * b
        return out

    # sigma^n = low[0] + low[1] sigma + ...: expand the modulus
    low = [[-comb(n, i) * (-lift) ** (n - i)] for i in range(n)]
    low[1] = plus(low[1], [q[1], q[0]])
    low[0] = plus(low[0], plus([-lift * q[1], -lift * q[0]], [r[1], r[0]]))

    def times_sigma(v):
        return [plus(v[i - 1] if i else [0], times(v[-1], low[i])) for i in range(n)]

    column = [[0] for _ in range(n)]
    for coeff in reversed(poly):
        column = times_sigma(column)
        column[0] = plus(column[0], [coeff])
    columns = [column]
    while len(columns) < n:
        columns.append(times_sigma(columns[-1]))
    det = [0]
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = [sign]
        for j, i in enumerate(perm):
            term = times(term, columns[j][i])
        det = plus(det, term)
    while len(det) > 1 and det[-1] == 0:
        det.pop()
    return det


def test_norm_matches_the_schoolbook_resultant():
    # _norm on each modulus of the exact steps (Graeffe's, gamma_3's, the
    # cube's and Weber's two cubics) against a determinant in plain integer
    # polynomials, for random monic P of degree h, read at the least slot,
    # and divided exactly; a divisor that leaves a remainder is refused
    rng = Random(38)
    for h in (1, 2, 3, 5, 8):
        d = -rng.randrange(3, 10**6, 8)  # d = 5 (mod 8)
        cases = [
            (2, (1, 0), (0, 0), 0),
            (2, (d, -1728 * d), (0, 0), 0),
            (3, (1, 0), (0, 0), 0),
            (3, (0, 16), (1, 0), 0),
            (3, (16, 0), (1, 0), 16),
        ]
        for n, r, q, lift in cases:
            poly = tuple(rng.randint(-(2**40), 2**40) for _ in range(h)) + (1,)
            norm = _schoolbook_norm(poly, n, r, q, lift)
            assert len(norm) <= h + 1, (h, n, r)
            norm += [0] * (h + 1 - len(norm))
            s = 3 * -(-(max(abs(c).bit_length() for c in norm) + 1) // 3)
            divisor = rng.choice((1, -1)) * gcd(*norm)
            quotient = tuple(c // divisor for c in norm)
            assert moduli._norm(poly, s, n, r, q, lift, divisor, "") == quotient, (h, n, r)
            with pytest.raises(K3ModuliError, match="a remainder"):
                moduli._norm(poly, s, n, r, q, lift, 7 * divisor, "a remainder")
    # P(sqrt X) P(-sqrt X) = (X - 2)^2 - 9X for P = y^2 + 3y - 2
    assert _schoolbook_norm((-2, 3, 1), 2, (1, 0), (0, 0), 0) == [4, -13, 1]


def _horner(poly, x: int) -> int:
    value = 0
    for coeff in reversed(poly):
        value = value * x + coeff
    return value


def test_pack_and_unpack_round_trip():
    # signed base-2^s digits, below 2^(s - 1) in size, at every count from 1
    # to 70 (the middle splits odd counts unevenly): _pack against Horner,
    # at 2^s and at D (2^s - 1728), and _unpack back, with the extreme
    # digits +-(2^(s - 1) - 1), zeros, and a zero or negative top digit
    rng = Random(39)
    assert moduli._pack((), 5) == 0  # the cube's empty slice at h = 1
    for count in range(1, 71):
        for s in (2, 3, 17, 64, 131):
            top = (1 << s - 1) - 1
            for last in (0, -1, -top, rng.randint(-top, top)):
                pick = (top, -top, 0, rng.randint(-top, top))
                digits = tuple(rng.choice(pick) for _ in range(count - 1)) + (last,)
                value = _horner(digits, 2**s)
                assert moduli._pack(digits, s) == value, (count, s)
                at_d = _horner(digits, -23 * (2**s - 1728))
                assert moduli._pack(digits, s, (-23, 1728 * 23)) == at_d, (count, s)
                assert moduli._unpack(value, s, count, 1, "") == digits, (count, s)
                assert moduli._unpack(-value, s, count, -1, "") == digits, (count, s)
    # exact division per digit, by a divisor of either sign; a digit it
    # leaves a remainder in is refused, the lowest or the top one
    for count in (1, 2, 5, 17, 70):
        s, divisor = 40, rng.choice((7, -7))
        quotients = [rng.randint(-(2**36), 2**36) for _ in range(count)]
        digits = [q * divisor for q in quotients]
        assert moduli._unpack(moduli._pack(digits, s), s, count, divisor, "") == tuple(quotients)
        for i in {0, count - 1}:
            off = digits[:i] + [digits[i] + 1] + digits[i + 1 :]
            with pytest.raises(K3ModuliError, match="^not exact$"):
                moduli._unpack(moduli._pack(off, s), s, count, divisor, "not exact")


def test_doctored_gamma2_polynomial_is_refused(monkeypatch):
    # W off by +-1 in any coefficient below the top, at every odd D with 3
    # not dividing D, h >= 2 and |D| <= 1000 (D = 5 mod 8: the others take
    # the Weber route): Gross-Zagier reads W(0) alone and passes most of
    # them, and the square refuses every one it passes
    refused, cases = Counter(), 0
    for d in valid_discs(1000):
        if d % 8 != 5 or d % 3 == 0 or classgroup.class_group(d).h < 2:
            continue
        group = classgroup.class_group(d)
        digits = moduli.class_polynomial_floor(group)
        for i in range(group.h):
            for off in (1, -1):
                cases += 1
                with monkeypatch.context() as patch:
                    _doctored(patch, i, off)
                    with pytest.raises(K3ModuliError) as exc:
                        class_poly_at(group, digits)
                refused[str(exc.value).split(": ", 1)[1][:24]] += 1
    assert cases == 900 and refused == {"(-D)^h H_D(1728) is not ": 754, "the class polynomial's n": 146}
    # and the CLI exits with code 2 on one, without a polynomial
    _doctored(monkeypatch, 1, 1)
    code, out = run_cli(["classpoly", "--", "-35"])
    assert code == 2 and out == ""


def test_doctored_gamma3_polynomial_is_refused_at_the_exact_division(monkeypatch):
    # W3 off by +-1 in any coefficient below the top leaves some coefficient
    # of N(z) indivisible by its power of D
    for d in (-15, -87, -255):
        group = classgroup.class_group(d)
        digits = moduli.class_polynomial_floor(group)
        w3 = moduli._recognize_int_poly(poly_from_roots(moduli._class_values(group, 2, digits)))
        for i in range(group.h):
            for off in (1, -1):
                doctored = w3[:i] + (w3[i] + off,) + w3[i + 1 :]
                with pytest.raises(K3ModuliError, match="not divisible by D"):
                    moduli._norm_from_gamma3(doctored, d)
    # and the CLI exits with code 2 on it, without a polynomial
    recognize = moduli._recognize_int_poly

    def doctored(coeffs):
        poly = recognize(coeffs)
        return (poly[0] + 1,) + poly[1:]

    monkeypatch.setattr(moduli, "_recognize_int_poly", doctored)
    code, out = run_cli(["classpoly", "--", "-87"])
    assert code == 2 and out == ""


def test_doctored_report_raises_under_optimize():
    # the consistency checks must survive python -O, which strips asserts
    script = """
from k3moduli import moduli
from k3moduli.errors import K3ModuliError
lattice = moduli.k3.from_gram(((2, 1), (1, 12)))
moduli.moduli_report(lattice)  # caches field_report(-23)
field_polynomials, galois_orbit = moduli._field_polynomials, moduli.k3.galois_orbit

def doctored(disc0):
    polys, digits = field_polynomials(disc0)
    return polys._replace(class_poly=polys.class_poly[:-1]), digits

moduli._field_polynomials = doctored
try:
    moduli.field_report.__wrapped__(-23)
except K3ModuliError as exc:
    print("raised:", exc)
moduli.k3.galois_orbit = lambda lattice: galois_orbit(lattice)[1:]
try:
    moduli.moduli_report(lattice)
except K3ModuliError as exc:
    print("raised:", exc)
"""
    src = Path(moduli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "raised: inconsistent report for -23: class polynomial",
        "raised: inconsistent report for -23: orbit",
    ]


def test_field_polynomials_minus_23():
    mq = field_of_Q_moduli(LATTICE_23)
    assert mq == H23
    # irreducible over Q: a rational root of a monic integer cubic would be an
    # integer, necessarily the single real root (cubic discriminant < 0);
    # bracket that root exactly and see that it falls strictly between
    # consecutive integers
    lo, hi = -(10**9), 10**9
    assert _poly_eval(H23, lo) < 0 < _poly_eval(H23, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        value = _poly_eval(H23, mid)
        assert value != 0, "integer root found; cubic is reducible"
        if value < 0:
            lo = mid
        else:
            hi = mid


def _poly_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_field_polynomials_minus_4():
    assert field_of_Q_moduli(LATTICE_4) == (-1728, 1)


def test_field_polynomials_minus_56():
    mq = field_of_Q_moduli(LATTICE_56)
    assert len(mq) == 3 and mq[-1] == 1
    # roots are the two-torsion coset traces; their sum is the full trace
    assert mq[1] == H56_TRACE


H56_TRACE = -16220384512  # frozen: sum of the four j-values of disc -56


def test_report_minus_23():
    report = moduli_report(LATTICE_23)
    assert (report.h, report.g) == (3, 3)
    assert report.mq_is_galois is False
    assert report.class_polynomial == H23
    assert report.mq_min_poly == H23
    assert report.precision_used == 6  # Weber's floor of D = -23, where h is odd
    assert len(report.orbit) == 3


def test_report_trivial():
    report = moduli_report(LATTICE_4)
    assert (report.h, report.g) == (1, 1)
    assert report.mq_min_poly == (-1728, 1)
    assert report.mq_is_galois is True


@pytest.mark.parametrize("n", [2, 3, 5])
def test_scaling_invariance(n):
    base = moduli_report(LATTICE_23)
    scaled = moduli_report(scale(LATTICE_23, n))
    assert scaled.h == base.h
    assert scaled.g == base.g
    assert scaled.class_polynomial == base.class_polynomial
    assert scaled.mq_min_poly == base.mq_min_poly
    assert scaled.mq_is_galois == base.mq_is_galois
    assert scaled.disc == n * n * base.disc
    assert scaled.m == n


def test_class_group_mates_share_field_data():
    a = moduli_report(lattice_from_class(1, form_class(1, 1, 6)))
    b = moduli_report(lattice_from_class(1, form_class(2, 1, 3)))
    assert a.g == b.g
    assert a.mq_min_poly == b.mq_min_poly


def test_lattices_of_one_disc0_share_their_polynomials(monkeypatch):
    # the second lattice of D0 = -56, and a rescaling of it, make no attempt
    # (each attempt calls _class_values once, whatever its kernel); their
    # reports equal ones computed from an empty cache
    empty_field_cache(monkeypatch)
    calls = []
    values = moduli._class_values

    def counting(*args):
        calls.append(args)
        return values(*args)

    monkeypatch.setattr(moduli, "_class_values", counting)
    first = moduli_report(LATTICE_56)
    assert calls
    lattices = (lattice_from_class(1, form_class(1, 0, 14)), scale(LATTICE_56, 3))
    calls.clear()
    reports = [moduli_report(lattice) for lattice in lattices]
    assert calls == [] and {r.disc0 for r in reports} == {first.disc0}
    for lattice, report in zip(lattices, reports):
        moduli.field_report.cache_clear()
        assert moduli_report(lattice) == report
    assert calls


def _recognition_failing(monkeypatch, fails):
    """Make moduli's recognition fail at every precision where fails(digits)
    holds; returns the list it fills with the digits of each attempt, read
    from moduli._class_values, which every attempt calls once."""
    attempts = []
    certify, values = moduli.recognize_integer, moduli._class_values
    empty_field_cache(monkeypatch)  # a cached report would skip recognition

    def class_values(group, n, digits):
        attempts.append(digits)
        return values(group, n, digits)

    def recognize(z):
        if fails(attempts[-1]):
            raise NotNearInteger("forced")
        return certify(z)

    monkeypatch.setattr(moduli, "_class_values", class_values)
    monkeypatch.setattr(moduli, "recognize_integer", recognize)
    return attempts


def test_failed_certificate_doubles_the_precision(monkeypatch):
    # recognition fails at the first attempt, on every route.  At -23 and
    # -15 (D = 1 mod 8) classpoly certifies the Weber polynomial at its
    # floor, 6 and 7 digits; at -23 analyze takes classpoly's route from its
    # start, as h = 3 is odd and the field polynomial is H_D, and at -15
    # (h = 2) certifies the gamma_3 polynomial W3 at the field polynomial's
    # floor, 12.  At -35 both certify W, classpoly at its floor, 9 digits,
    # and analyze at 14; at -51 both certify W3, at 14 and 16
    attempts = _recognition_failing(monkeypatch, lambda digits: digits == attempts[0])
    h15, lattice_15 = (-121287375, 191025, 1), from_gram(((2, 1), (1, 8)))
    h35, lattice_35 = (-134217728000, 117964800, 1), from_gram(((2, 1), (1, 18)))
    h51, lattice_51 = (6262062317568, 5541101568, 1), from_gram(((2, 1), (1, 26)))
    cases = (
        (-23, H23, LATTICE_23, (6, 6)),
        (-15, h15, lattice_15, (7, 12)),
        (-35, h35, lattice_35, (9, 14)),
        (-51, h51, lattice_51, (14, 16)),
    )
    for d, poly, lattice, floors in cases:
        group = classgroup.class_group(d)
        cp_floor = classpoly_start(group)
        floor = cp_floor if group.h % 2 else moduli.precision_floor(group)
        assert (cp_floor, floor) == floors
        attempts.clear()
        assert moduli.class_polynomial_with_precision(d) == (poly, 2 * cp_floor)
        assert attempts == [cp_floor, 2 * cp_floor]

        attempts.clear()
        report = moduli_report(lattice)
        assert (report.class_polynomial, report.precision_used) == (poly, 2 * floor)
        assert attempts == [floor, 2 * floor]


def test_doubling_stops_at_the_ceiling(monkeypatch):
    attempts = _recognition_failing(monkeypatch, lambda digits: True)
    # 6, 12, ..., 1536: the floor of the Weber polynomial of -23, doubled;
    # 7, 14, ..., 1792: that of -15; 9, 18, ..., 2304: that of the gamma_2
    # polynomial of -35; 14, 28, ..., 1792: that of the gamma_3 polynomial
    # of -51
    for d, first, top in ((-23, 6, 1536), (-15, 7, 1792), (-35, 9, 2304), (-51, 14, 1792)):
        attempts.clear()
        with pytest.raises(PrecisionError, match=f"failed at {top} digits") as exc:
            class_polynomial(d)
        assert attempts == [first << k for k in range(top.bit_length() - first.bit_length() + 1)]
        assert attempts[0] == classpoly_start(classgroup.class_group(d))
        assert max(attempts) <= moduli.MAX_DIGITS < 2 * attempts[-1]
        assert f"ceiling of {moduli.MAX_DIGITS}" in str(exc.value)
    # a floor above half the ceiling gets one attempt; 3 | D = -92376, so
    # this is H_D's own floor
    attempts.clear()
    floor = moduli.class_polynomial_floor(classgroup.class_group(-92376))
    assert floor == moduli.precision_floor(classgroup.class_group(-92376)) > 1500
    with pytest.raises(PrecisionError, match=f"failed at {floor} digits"):
        class_polynomial(-92376)
    assert attempts == [floor]


def test_precision_failure_is_not_cached(monkeypatch):
    failing = True
    _recognition_failing(monkeypatch, lambda digits: failing)
    with pytest.raises(PrecisionError, match="forced: failed at 1536 digits"):
        moduli_report(LATTICE_23)
    assert moduli.field_report.cache_info().currsize == 0
    failing = False
    report = moduli_report(LATTICE_23)
    assert (report.class_polynomial, report.precision_used) == (H23, 6)


def test_coset_collision_at_the_floor_doubles_the_precision(monkeypatch):
    # coset invariants whose bounds are too wide at the floor are retried at
    # twice the digits, like a failed recognition; a collision at every
    # precision ends in PrecisionError
    expected = moduli_report(LATTICE_56)
    floor = moduli.precision_floor(classgroup.class_group(-56))
    attempts = _recognition_failing(monkeypatch, lambda digits: False)
    separate = moduli._separated_roots

    def colliding(js, cosets):
        if attempts[-1] in collides_at:
            raise TracesNotApart("forced")
        return separate(js, cosets)

    monkeypatch.setattr(moduli, "_separated_roots", colliding)
    collides_at = {floor}
    report = moduli_report(LATTICE_56)
    assert (report.precision_used, attempts) == (2 * floor, [floor, 2 * floor])
    assert (report.class_polynomial, report.mq_min_poly) == (
        expected.class_polynomial,
        expected.mq_min_poly,
    )
    collides_at = range(moduli.MAX_DIGITS + 1)
    moduli.field_report.cache_clear()
    with pytest.raises(PrecisionError, match="forced: failed at"):
        moduli_report(LATTICE_56)


def _right_or_refused(attempt, expected, label) -> bool:
    """Whether attempt() certifies expected; a refusal must be NotNearInteger,
    and any other polynomial fails the test."""
    try:
        got = attempt()
    except NotNearInteger:
        return False
    assert got == expected, label
    return True


def test_low_digits_give_the_right_polynomial():
    # precisions far below the floor that once gave a wrong polynomial: coarse_j
    # when j was accurate only to its digits, no_room when recognition accepted
    # values that left the tolerance no room in the working precision
    coarse_j = [(-23, 1), (-23, 2), (-23, 3), (-31, 1), (-31, 2), (-31, 3), (-31, 4), (-52, 1)]
    coarse_j += [(-52, 2), (-52, 3), (-64, 1), (-64, 2), (-64, 4), (-64, 5), (-75, 1), (-75, 2)]
    no_room = [(-47, 1), (-68, 3), (-128, 8), (-136, 10), (-235, 4), (-307, 11), (-379, 4)]
    for d, digits in coarse_j + no_room:
        group = classgroup.class_group(d)
        assert digits < moduli.class_polynomial_floor(group), (d, digits)
        attempt = lambda: class_poly_at(group, digits)  # noqa: E731
        _right_or_refused(attempt, class_polynomial(d), (d, digits))


def test_sub_floor_sweep_never_gives_a_wrong_polynomial(sweep):
    # every precision from 1 to 39 digits, mostly below the floor: the
    # certificate either holds or refuses, on the class and the field path of
    # the gamma_2 kernel (3 not dividing D), the gamma_3 kernel (D odd and
    # 3 | D) and the j kernel (D even and 3 | D)
    outcomes = Counter()
    for d in valid_discs(399):
        group = sweep.group(d)
        cosets = group._torsion_cosets
        class_poly, mq = sweep.class_polynomial(d)[0], sweep.field_polynomials(d)[0].mq
        cp_floor, floor = moduli.class_polynomial_floor(group), moduli.precision_floor(group)
        kernel = {1: "j", 2: "gamma_3", 3: "gamma_2"}[moduli._class_kernel(d)]
        for digits in range(1, 40):
            attempt = lambda: class_poly_at(group, digits)  # noqa: E731
            ok = _right_or_refused(attempt, class_poly, (d, digits))
            outcomes["class", kernel, digits < cp_floor, ok] += 1
            attempt = lambda: moduli._attempt_polynomials(group, cosets, digits).mq  # noqa: E731
            ok = _right_or_refused(attempt, mq, (d, digits))
            outcomes["field", kernel, digits < floor, ok] += 1
    # no refusal at or above the floor; below it, both outcomes on both
    # paths of every kernel
    for path in ("class", "field"):
        for kernel in ("gamma_2", "gamma_3", "j"):
            assert outcomes[path, kernel, False, False] == 0, (path, kernel)
            below = outcomes[path, kernel, True, True], outcomes[path, kernel, True, False]
            assert min(below) > 100, (path, kernel, below)


def test_minus_2083_settles_at_default_digits():
    # h = 7: the first attempt runs at the floor, W's, 36 digits, where the
    # class and the field polynomial are both recognized
    lattice = from_gram(((2, 1), (1, 1042)))
    report = moduli_report(lattice)
    assert (report.disc0, report.h, report.precision_used) == (-2083, 7, 36)
    group = classgroup.class_group(-2083)
    assert report.class_polynomial == class_poly_at(group, 200)
    cosets = group._torsion_cosets
    assert report.mq_min_poly == moduli._attempt_polynomials(group, cosets, 200).mq


def test_every_polynomial_settles_at_its_floor(sweep):
    # one certified attempt: a failed one would double the precision
    for d in valid_discs(1000):
        group = sweep.group(d)
        assert sweep.class_polynomial(d)[1] == classpoly_start(group), d


def test_floors_in_order(sweep):
    # at even h analyze starts between classpoly's floor and H_D's own: at
    # H_D's own exactly on the j kernel, strictly below it on the gamma_3
    # kernel; the field polynomial's height, with the log10 3 of the step to
    # j, never exceeds H_D's (at odd h analyze starts where classpoly does)
    for d in valid_discs(3000) + [-40004, -199999, -499996, -(10**6)]:
        group = sweep.group(d)
        cosets = group._torsion_cosets
        if len(cosets) == group.h:
            continue
        floor, own = moduli.precision_floor(group), hd_floor(group)
        assert moduli.class_polynomial_floor(group) <= floor <= own, d
        kernel = moduli._class_kernel(d)
        assert kernel != 1 or floor == own, d
        assert kernel != 2 or floor < own, d
        assert moduli._height(group, cosets) + log10(3) <= moduli._height(group), d


# sha256 over (d, class polynomial, field polynomial, (), digits) of every
# |d| <= 3000, frozen at the digits of field_report; the () stands where
# the reports' warnings, always empty, were hashed when the digests were pinned
FIELD_SWEEP_SHA256 = "73c1fe0e215f75b9cc80222c2429d1cab6674daa3fe376f78df7d77c79c44088"
# the same without the digits: a change of precision alone leaves it as it is
POLYNOMIAL_SWEEP_SHA256 = "a414290bd8ae51511a9f1c23fec91a64b3f54458d8c63cbd1c823a4569890eab"


def test_field_polynomials_settle_at_their_floor(sweep):
    # every class and field polynomial is certified in one attempt, at
    # precision_floor when h is even and at classpoly's start when it is odd;
    # the polynomials are pinned with and without their digits
    digest, polynomials = hashlib.sha256(), hashlib.sha256()
    for d in valid_discs(3000):
        group = sweep.group(d)
        polys, digits = sweep.field_polynomials(d)
        start = classpoly_start if group.h % 2 else moduli.precision_floor
        assert digits == start(group), d
        digest.update(repr((d, polys.class_poly, polys.mq, (), digits)).encode())
        polynomials.update(repr((d, polys.class_poly, polys.mq, ())).encode())
    assert digest.hexdigest() == FIELD_SWEEP_SHA256
    assert polynomials.hexdigest() == POLYNOMIAL_SWEEP_SHA256


# sha256 over every field of every value of _class_values, |d| < 1000, at
# each kernel's floor: j at every d, gamma_2 where 3 does not divide d and
# sqrt(d) gamma_3 where d is odd
KERNEL_SWEEP_SHA256 = "ed44cc71f287b6b3412ccf01b9b7c8ae3542a9a9cbc19ce95a8544913956225b"


def test_class_values_are_pinned_bit_for_bit(sweep):
    # the kernels' values themselves, not only the polynomials they certify:
    # a change of where or how a value is taken shows here
    digest = hashlib.sha256()
    for d in valid_discs(999):
        group = sweep.group(d)
        for n in (1, 3, 2):
            if n == 1 or n == 3 and d % 3 or n == 2 and d % 2:
                values = moduli._class_values(group, n, kernel_floor(group, n))
                digest.update(repr((d, n, [tuple(v) for v in values])).encode())
    assert digest.hexdigest() == KERNEL_SWEEP_SHA256


# sha256 over every point and every field of every Weber root (_class_values
# of Weber's kernel) of each D = 1 (mod 8), |D| < 1000, at the Weber floor
WEBER_SWEEP_SHA256 = "3b64b4ab151495c432dface8e13ec16dbdf13300bd9f375b7f9c1b9debf61dc2"


def test_weber_values_are_pinned_bit_for_bit(sweep):
    # Weber's roots themselves, beside the kernels' (KERNEL_SWEEP_SHA256):
    # a change of where or how a root is taken shows here
    digest = hashlib.sha256()
    for d in valid_discs(999):
        if d % 8 == 1:
            group, n = sweep.group(d), weber_kernel(d)
            points = [moduli._class_point(cls.rep, d, n) for cls in group.classes]
            values = moduli._class_values(group, n, moduli.class_polynomial_floor(group, n))
            digest.update(repr((d, [tuple(p) for p in points], [tuple(v) for v in values])).encode())
    assert digest.hexdigest() == WEBER_SWEEP_SHA256


def test_odd_class_number_field_polynomial_is_class_polynomial(sweep):
    # C[2] is trivial: every coset is one class, so the coset path over j at
    # H_D's own floor, skipped by moduli_report, would give the class
    # polynomial
    odd = 0
    for d in valid_discs(1500):
        group = sweep.group(d)
        if group.h % 2 == 0:
            continue
        odd += 1
        report = moduli_report(lattice_from_class(1, group.classes[0]))
        assert report.mq_min_poly == report.class_polynomial, d
        js = moduli._class_values(group, 1, hd_floor(group))
        roots = moduli._separated_roots(js, group._torsion_cosets)
        assert moduli._recognize_int_poly(poly_from_roots(roots)) == report.class_polynomial, d
    assert odd > 50


def test_odd_class_number_report_takes_classpolys_route(sweep):
    # one route to H_D: at odd h field_report takes H_D, as both of its
    # polynomials, and its digits from class_polynomial_with_precision, so
    # D = 1 (mod 8) settles at the Weber floor
    odd = Counter()
    for d in valid_discs(3000):
        if sweep.group(d).h % 2 == 0:
            continue
        odd[d % 8 == 1] += 1
        fields = moduli.field_report(d)
        assert fields.class_polynomial == fields.mq_min_poly, d
        assert (fields.class_polynomial, fields.precision_used) == sweep.class_polynomial(d), d
    assert min(odd.values()) > 100, odd

def test_gross_zagier_checks_refuse_doctored_constant_terms():
    # H_-23(0) = (5^3 * 11 * 17)^3: no prime above 3 * 23 / 4
    moduli._check_gross_zagier(-23, H23)
    with pytest.raises(K3ModuliError, match="prime factor above"):
        moduli._check_gross_zagier(-23, (19**3 * H23[0],) + H23[1:])
    # 3 | D: only the prime bound applies; D = -15 is fundamental
    h15 = class_polynomial(-15)
    moduli._check_gross_zagier(-15, (2 * h15[0],) + h15[1:])
    with pytest.raises(K3ModuliError, match="prime factor above"):
        moduli._check_gross_zagier(-15, (13 * h15[0],) + h15[1:])
    # the cofactor left when trial division stops: 17 = floor(3 * 23 / 4) is
    # at the bound and passes, 19 just above it is refused, beside a smooth part
    smooth = 2**40 * 3**5 * 5**3 * 7 * 11 * 13
    for norm in (17, smooth * 17, -smooth * 17, 17**2 * 13):
        moduli._check_gross_zagier(-23, (norm, 1))
    for norm in (19, smooth * 19, -smooth * 19, smooth * 19 * 17):
        with pytest.raises(K3ModuliError, match="prime factor above"):
            moduli._check_gross_zagier(-23, (norm, 1))


def test_gamma2_path_checks_the_prime_bound_on_w0(monkeypatch):
    # H_D(0) = W(0)^3 by the norm identity, so only the prime bound can fail
    # on the gamma_2 path; it runs on W(0), which has the primes of H_D(0)
    group = classgroup.class_group(-23)
    digits = moduli.class_polynomial_floor(group)
    w = moduli._recognize_int_poly(poly_from_roots(moduli._class_values(group, 3, digits)))
    assert moduli._norm_from_gamma2(w)[0] == w[0] ** 3 and abs(w[0]) == 5**3 * 11 * 17
    assert moduli._check_gross_zagier(-23, w) == w
    recognize = moduli._recognize_int_poly

    def doctored(coeffs):
        poly = recognize(coeffs)
        return (19 * poly[0],) + poly[1:]  # 19 > 3 * 23 / 4

    monkeypatch.setattr(moduli, "_recognize_int_poly", doctored)
    with pytest.raises(K3ModuliError, match="prime factor above"):
        class_poly_at(group, digits)


def test_field_polynomial_roots_sum_to_the_class_polynomials_power_sum(monkeypatch):
    # roots 1, 2, 3, 4 of H in the cosets {1, 4} and {2, 3}: the two coset
    # traces 5 and 5 sum to the trace 10 over all four roots
    cp = (24, -50, 35, -10, 1)
    assert moduli._check_trace(cp, (25, -10, 1)) == (25, -10, 1)
    with pytest.raises(K3ModuliError, match="do not sum to the trace"):
        moduli._check_trace(cp, (25, -9, 1))
    # a doctored top coefficient of H_D is caught as well
    with pytest.raises(K3ModuliError, match="do not sum to the trace"):
        moduli._check_trace((24, -50, 35, -11, 1), (25, -10, 1))
    # and analyze refuses a class polynomial whose top coefficient was doctored
    certified = moduli._class_polynomial_at

    def doctored(group, n, digits):
        cp, values = certified(group, n, digits)
        return cp[:-2] + (cp[-2] + 1, 1), values

    empty_field_cache(monkeypatch)
    monkeypatch.setattr(moduli, "_class_polynomial_at", doctored)
    with pytest.raises(K3ModuliError, match="do not sum to the trace"):
        moduli_report(LATTICE_56)


def test_class_polynomial_composes_no_forms(monkeypatch):
    # the class polynomial reads the classes of C(D), never their coordinates
    fresh = lru_cache(maxsize=32)(classgroup.class_group.__wrapped__)
    monkeypatch.setattr(classgroup, "class_group", fresh)
    kernel, calls = qforms._compose, []
    monkeypatch.setattr(qforms, "_compose", lambda *args: calls.append(args) or kernel(*args))
    coeffs, _ = moduli.class_polynomial_with_precision(-3299)
    assert len(coeffs) == 28 and calls == []
    assert fresh.cache_info().currsize == 1
    assert fresh(-3299).elementary_divisors == (3, 9) and calls


def test_mq_galois_exactly_when_invariant_factors_divide_4(sweep):
    # conjugating complex conjugation by x gives (x^2, conjugation), so
    # <C[2], conjugation> is normal iff C^2 lies in C[2]
    galois = 0
    for d in valid_discs(1500):
        group = sweep.group(d)
        model = galois_model(group)
        expected = all(4 % n == 0 for n in group.elementary_divisors)
        assert model.is_normal(model.subgroup_mq) == expected, d
        lattice = lattice_from_class(1, group.classes[-1])
        assert mq_is_galois(lattice) == expected, d
        assert moduli_report(lattice).mq_is_galois == expected, d
        galois += expected
    assert 0 < galois < len(valid_discs(1500))


def test_galois_answer_builds_no_model(monkeypatch):
    # the brute-force GaloisModel is only the tests' reference
    monkeypatch.setattr(moduli, "GaloisModel", None)
    assert mq_is_galois(LATTICE_56) and moduli_report(LATTICE_56).mq_is_galois
    assert not mq_is_galois(LATTICE_23) and not moduli_report(LATTICE_23).mq_is_galois


def test_coefficient_stability_small_sweep(sweep):
    for d in valid_discs(100):
        group = sweep.group(d)
        digits = 2 * default_digits(group.h)
        assert sweep.class_polynomial(d)[0] == class_poly_at(group, digits)


def test_model_index_bookkeeping_sweep(sweep):
    # [C : C[2]] = g and [group : <C[2], iota>] = g across discriminants
    for d in valid_discs(300):
        group = sweep.group(d)
        model = galois_model(group)
        g = classgroup.genus_order(group)
        assert group.h // len(model.subgroup_mk) == g
        assert len(model.elements) // len(model.subgroup_mq) == g
        assert len(model.elements) == 2 * group.h


def test_field_roots_closed_under_conjugation():
    # the coset-trace root multiset equals its conjugate bit for bit, so both
    # field polynomials have real (here integer) coefficients and
    # poly_from_roots pairs every complex root
    for d in (-23, -56, -84, -119):
        group = classgroup.class_group(d)
        js = moduli._class_values(group, 1, 60)
        roots = moduli._separated_roots(js, group._torsion_cosets)
        assert Counter(roots) == Counter(conjugate(r) for r in roots)


def _reals(*values: int) -> list[BigComplex]:
    return [BigComplex(v << 80, 0, 80) for v in values]


def test_colliding_coset_traces_are_refused():
    # traces 1 + 4 = 2 + 3 collide: no other invariant is tried
    with pytest.raises(TracesNotApart, match="coset traces"):
        moduli._separated_roots(_reals(1, 4, 2, 3), ((0, 1), (2, 3)))


def test_equal_coset_multisets_are_refused():
    # the same j-values 1, 4 | 4, 1 on both cosets: every symmetric function
    # of a coset collides, so the traces are refused like any collision
    with pytest.raises(TracesNotApart, match="coset traces"):
        moduli._separated_roots(_reals(1, 4, 4, 1), ((0, 1), (2, 3)))


EPS = 1 << 40  # units of 2^-80: ~ 9.1e-13


def _traces_apart_by(delta: int) -> list[BigComplex]:
    """j-values 1, 4 | 2, 3 + delta (units of 2^-80), each bound EPS: coset
    traces 5 and 5 + delta, each bound 2 EPS."""
    values = [BigComplex(v << 80, 0, 80, EPS) for v in (1, 4, 2)]
    return values + [BigComplex((3 << 80) + delta, 0, 80, EPS)]


def test_coset_traces_within_their_bounds_are_refused():
    # traces 5 and 5 + delta lie within their error bounds of one another:
    # the true traces could be equal, so they are refused, although delta
    # (~ 1.8e-12) is far above 10^-15, the old fixed threshold at 30 digits
    with pytest.raises(TracesNotApart, match="coset traces"):
        moduli._separated_roots(_traces_apart_by(2 * EPS), ((0, 1), (2, 3)))


def test_coset_traces_apart_by_more_than_their_bounds_are_certified():
    delta = 4 * EPS + 1
    roots = moduli._separated_roots(_traces_apart_by(delta), ((0, 1), (2, 3)))
    assert [(r.re, r.im, r.bits) for r in roots] == [(5 << 80, 0, 80), ((5 << 80) + delta, 0, 80)]
    assert [r.err for r in roots] == [2 * EPS, 2 * EPS]
