import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from mpmath.ctx_mp import MPContext

from k3moduli import classgroup, moduli
from k3moduli.k3 import from_gram, lattice_from_class, scale
from k3moduli.moduli import (
    class_polynomial,
    field_of_K_moduli,
    field_of_Q_moduli,
    galois_model,
    moduli_degree,
    moduli_report,
    mq_is_galois,
)
from k3moduli.errors import InputError, K3ModuliError, NotNearInteger, PrecisionExhausted
from k3moduli.errors import ResolventDegenerate
from k3moduli.numerics import BigComplex, CMPoint, conjugate, j_invariant, poly_from_roots
from k3moduli.qforms import form_class

from conftest import as_mpc, default_digits, valid_discs

LATTICE_23 = from_gram(((2, 1), (1, 12)))
LATTICE_4 = from_gram(((2, 0), (0, 2)))
LATTICE_56 = lattice_from_class(1, form_class(3, 2, 5))

H23 = (12771880859375, -5151296875, 3491750, 1)  # frozen two-precision golden


def test_moduli_degree():
    assert moduli_degree(LATTICE_23) == 3
    assert moduli_degree(LATTICE_4) == 1
    assert moduli_degree(LATTICE_56) == 2
    assert moduli_degree(scale(LATTICE_23, 4)) == 3


def test_galois_model_shapes():
    m23 = galois_model(LATTICE_23)
    assert len(m23.elements) == 6
    assert len(m23.subgroup_mk) == 1
    assert len(m23.subgroup_mq) == 2

    m4 = galois_model(LATTICE_4)
    assert len(m4.elements) == 2

    m56 = galois_model(LATTICE_56)
    assert len(m56.elements) == 8
    assert len(m56.subgroup_mk) == 2
    assert len(m56.subgroup_mq) == 4


def test_galois_model_relations():
    for lattice in (LATTICE_23, LATTICE_56):
        model = galois_model(lattice)
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
    first = class_polynomial(-56, 70)
    second = class_polynomial(-56, 140)
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
        for cls, value in zip(group.classes, moduli._gamma2_values(group, 60)):
            rep = cls.rep
            ambiguous = rep.b == 0 or rep.a == rep.b or rep.a == rep.c
            assert (abs(as_mpc(ctx, value).imag) < ctx.mpf("1e-50")) == ambiguous, (d, rep)
            assert (value.im == 0) == ambiguous, (d, rep)


def test_j_values_conjugate_pairs_exactly():
    for d in (-71, -231, -479):
        group = classgroup.class_group(d)
        js = dict(zip((c.rep.coefficients() for c in group.classes), moduli._j_values(group, 60)))
        negative = [(a, b, c) for a, b, c in js if b < 0]
        assert negative
        for a, b, c in negative:
            assert js[a, b, c] == conjugate(js[a, -b, c])
    # gamma_2 at mirrored forms; -71 has (3, +-1, 6) and -56 (3, +-2, 5), where 3 | a
    for d in (-56, -71, -479):
        group = classgroup.class_group(d)
        reps = [c.rep.coefficients() for c in group.classes]
        values = dict(zip(reps, moduli._gamma2_values(group, 60)))
        negative = [(a, b, c) for a, b, c in values if b < 0]
        assert negative
        for a, b, c in negative:
            assert values[a, b, c] == conjugate(values[a, -b, c])
            assert values[a, b, c].im != 0


def test_gamma2_class_polynomial_rebuilds_h():
    # for 3 not dividing D, W is monic and integral at its floor, and the
    # norm identity gives the class polynomial of the j path exactly
    count = 0
    for d in valid_discs(1000):
        if d % 3 == 0:
            continue
        group = classgroup.class_group(d)
        digits = moduli.class_polynomial_floor(group)
        w = moduli._recognize_int_poly(poly_from_roots(moduli._gamma2_values(group, digits)))
        assert len(w) == group.h + 1 and w[-1] == 1, d
        oracle = moduli._class_poly(group, moduli._j_values(group, moduli.precision_floor(group)))
        assert moduli._norm_from_gamma2(w) == oracle, d
        assert class_polynomial(d) == oracle, d
        count += 1
    assert count == 333


def test_nonpositive_digits_rejected():
    for digits in (0, -5):
        with pytest.raises(InputError):
            class_polynomial(-23, digits)
        with pytest.raises(InputError):
            moduli_report(LATTICE_23, digits)
        with pytest.raises(InputError):
            field_of_K_moduli(LATTICE_23, digits)
        with pytest.raises(InputError):
            field_of_Q_moduli(LATTICE_23, digits)


def test_doctored_report_raises_under_optimize():
    # the consistency checks must survive python -O, which strips asserts
    script = """
import dataclasses
from k3moduli import classgroup, moduli
from k3moduli.errors import K3ModuliError
report = moduli.moduli_report(moduli.k3.from_gram(((2, 1), (1, 12))))
group = classgroup.class_group(report.disc0)
moduli._check_report(report, group)
bad = dataclasses.replace(report, class_polynomial=report.class_polynomial[:-1])
try:
    moduli._check_report(bad, group)
except K3ModuliError as exc:
    print("raised:", exc)
"""
    src = Path(moduli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised:") and "class polynomial" in done.stdout


def test_field_polynomials_minus_23():
    mq = field_of_Q_moduli(LATTICE_23)
    assert mq == H23
    assert field_of_K_moduli(LATTICE_23) == mq
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
    assert field_of_K_moduli(LATTICE_4) == (-1728, 1)


def test_field_polynomials_minus_56():
    mq = field_of_Q_moduli(LATTICE_56)
    assert len(mq) == 3 and mq[-1] == 1
    assert field_of_K_moduli(LATTICE_56) == mq
    # roots are the two-torsion coset traces; their sum is the full trace
    assert mq[1] == H56_TRACE


H56_TRACE = -16220384512  # frozen: sum of the four j-values of disc -56


def test_report_minus_23():
    report = moduli_report(LATTICE_23)
    assert (report.h, report.g) == (3, 3)
    assert report.degree_mk_over_k == report.degree_mq_over_q == 3
    assert report.mq_is_galois is False
    assert report.class_polynomial == H23
    assert report.mq_min_poly == H23
    assert report.precision_used == 19  # the precision floor of D = -23
    assert report.warnings == ()
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
    assert scaled.mk_min_poly == base.mk_min_poly
    assert scaled.mq_min_poly == base.mq_min_poly
    assert scaled.mq_is_galois == base.mq_is_galois
    assert scaled.disc == n * n * base.disc
    assert scaled.m == n


def test_class_group_mates_share_field_data():
    a = moduli_report(lattice_from_class(1, form_class(1, 1, 6)))
    b = moduli_report(lattice_from_class(1, form_class(2, 1, 3)))
    assert a.g == b.g
    assert a.mk_min_poly == b.mk_min_poly
    assert a.mq_min_poly == b.mq_min_poly


def test_precision_ladder_escalates():
    # --digits is only a minimum: a run asked to start absurdly low starts at
    # the floor, so nothing escalates, and the result matches the
    # default-policy run
    coeffs, used = moduli.class_polynomial_with_precision(-479, 5)
    assert used > 5
    assert coeffs == class_polynomial(-479)

    report = moduli_report(lattice_from_class(1, form_class(5, 1, 24)), digits=5)
    assert report.precision_used > 5
    assert report.disc0 == -479
    assert report.class_polynomial == class_polynomial(-479)


def _recognition_failing(monkeypatch, fails):
    """Make moduli's recognition fail at every precision where fails(digits)
    holds; returns the list it fills with the digits of each attempt."""
    attempts = []
    certify = moduli.recognize_integer

    def recognize(z):
        if not attempts or attempts[-1] != z.digits:
            attempts.append(z.digits)
        if fails(z.digits):
            raise NotNearInteger("forced")
        return certify(z)

    monkeypatch.setattr(moduli, "recognize_integer", recognize)
    return attempts


def test_failed_certificate_doubles_the_precision(monkeypatch):
    # classpoly certifies the gamma_2 polynomial W at its floor, 10 digits at
    # -23; analyze certifies j's polynomials at H_D's floor, 19 digits
    group = classgroup.class_group(-23)
    cp_floor, floor = moduli.class_polynomial_floor(group), moduli.precision_floor(group)
    assert (cp_floor, floor) == (10, 19)
    attempts = _recognition_failing(monkeypatch, lambda digits: digits in (cp_floor, floor))
    assert moduli.class_polynomial_with_precision(-23) == (H23, 2 * cp_floor)
    assert attempts == [cp_floor, 2 * cp_floor]

    attempts.clear()
    report = moduli_report(LATTICE_23)
    assert (report.class_polynomial, report.precision_used) == (H23, 2 * floor)
    assert attempts == [floor, 2 * floor]


def test_doubling_stops_at_the_ceiling(monkeypatch):
    attempts = _recognition_failing(monkeypatch, lambda digits: True)
    with pytest.raises(PrecisionExhausted, match="failed at 2560 digits") as exc:
        class_polynomial(-23)
    # 10, 20, ..., 2560: the floor of the gamma_2 polynomial of -23, doubled
    assert attempts == [10 << k for k in range(9)]
    assert attempts[0] == moduli.class_polynomial_floor(classgroup.class_group(-23))
    assert max(attempts) <= moduli.MAX_DIGITS < 2 * attempts[-1]
    assert f"ceiling of {moduli.MAX_DIGITS}" in str(exc.value)
    # a floor above half the ceiling gets one attempt; 3 | D = -92376, so
    # this is H_D's own floor
    attempts.clear()
    floor = moduli.class_polynomial_floor(classgroup.class_group(-92376))
    assert floor == moduli.precision_floor(classgroup.class_group(-92376)) > 1500
    with pytest.raises(PrecisionExhausted, match=f"failed at {floor} digits"):
        class_polynomial(-92376)
    assert attempts == [floor]


def test_low_digits_give_the_right_polynomial():
    # tiny --digits that printed a wrong polynomial with exit 0: coarse_j when
    # j was accurate only to its digits, no_room when recognition accepted
    # values that left the tolerance no room in the working precision
    coarse_j = [(-23, 1), (-23, 2), (-23, 3), (-31, 1), (-31, 2), (-31, 3), (-31, 4), (-52, 1)]
    coarse_j += [(-52, 2), (-52, 3), (-64, 1), (-64, 2), (-64, 4), (-64, 5), (-75, 1), (-75, 2)]
    no_room = [(-47, 1), (-68, 3), (-128, 8), (-136, 10), (-235, 4), (-307, 11), (-379, 4)]
    for d, digits in coarse_j + no_room:
        assert class_polynomial(d, digits) == class_polynomial(d), (d, digits)


def test_minus_2083_settles_at_default_digits():
    # h = 7: the first attempt runs at the floor, 93 digits, where the class
    # and the field polynomial are both recognized
    lattice = from_gram(((2, 1), (1, 1042)))
    report = moduli_report(lattice)
    assert (report.disc0, report.h, report.precision_used) == (-2083, 7, 93)
    assert report.class_polynomial == class_polynomial(-2083, 200)
    assert report.mq_min_poly == field_of_Q_moduli(lattice, 200)
    assert report.mk_min_poly == report.mq_min_poly


def test_every_polynomial_settles_at_its_floor():
    # one certified attempt: a failed one would double the precision
    for d in valid_discs(1000):
        group = classgroup.class_group(d)
        cp_floor = moduli.class_polynomial_floor(group)
        assert moduli.class_polynomial_with_precision(d)[1] == cp_floor, d
        floor = moduli.precision_floor(group)
        field_floor = max(floor, moduli.precision_floor(group, moduli._torsion_cosets(group)))
        assert moduli._field_polynomials(group, None).digits == field_floor, d


def test_odd_class_number_field_polynomial_is_class_polynomial():
    # C[2] is trivial: every coset is one class, so the coset path, skipped
    # by moduli_report, would give the class polynomial without warnings
    odd = 0
    for d in valid_discs(1500):
        group = classgroup.class_group(d)
        if group.h % 2 == 0:
            continue
        odd += 1
        report = moduli_report(lattice_from_class(1, group.classes[0]))
        assert report.mq_min_poly == report.class_polynomial and report.warnings == (), d
        js = moduli._j_values(group, report.precision_used)
        cosets = moduli._torsion_cosets(group)
        roots, warnings = moduli._separated_roots(js, cosets, report.precision_used)
        assert warnings == (), d
        assert moduli._recognize_int_poly(poly_from_roots(roots)) == report.class_polynomial, d
    assert odd > 50


def test_gross_zagier_checks_refuse_doctored_constant_terms():
    # H_-23(0) = (5^3 * 11 * 17)^3: a cube with no prime above 3 * 23 / 4
    moduli._check_gross_zagier(-23, H23)
    with pytest.raises(K3ModuliError, match="not a cube"):
        moduli._check_gross_zagier(-23, (2 * H23[0],) + H23[1:])
    with pytest.raises(K3ModuliError, match="prime factor above"):
        moduli._check_gross_zagier(-23, (19**3 * H23[0],) + H23[1:])
    # 3 | D: only the prime bound applies; D = -15 is fundamental
    h15 = class_polynomial(-15)
    moduli._check_gross_zagier(-15, (2 * h15[0],) + h15[1:])
    with pytest.raises(K3ModuliError, match="prime factor above"):
        moduli._check_gross_zagier(-15, (13 * h15[0],) + h15[1:])


def test_mq_galois_exactly_when_invariant_factors_divide_4():
    # conjugating complex conjugation by x gives (x^2, conjugation), so
    # <C[2], conjugation> is normal iff C^2 lies in C[2]
    galois = 0
    for d in valid_discs(1500):
        group = classgroup.class_group(d)
        model = moduli._model(group)
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


def test_coefficient_stability_small_sweep():
    for d in valid_discs(100):
        assert class_polynomial(d) == class_polynomial(d, 2 * default_digits(classgroup.class_group(d).h))


def test_model_index_bookkeeping_sweep():
    # [C : C[2]] = g and [group : <C[2], iota>] = g across discriminants
    for d in valid_discs(300):
        group = classgroup.class_group(d)
        model = moduli._model(group)
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
        js = moduli._j_values(group, 60)
        roots, _ = moduli._separated_roots(js, moduli._torsion_cosets(group), 60)
        assert Counter(roots) == Counter(conjugate(r) for r in roots)


def _reals(*values: int) -> list[BigComplex]:
    return [BigComplex(v << 80, 0, 80, 30) for v in values]


def test_resolvent_ladder_falls_back_to_square_sum():
    # traces 1 + 4 = 2 + 3 collide, square sums 17 and 13 do not
    roots, warnings = moduli._separated_roots(_reals(1, 4, 2, 3), ((0, 1), (2, 3)), 30)
    assert warnings == ("resolvent fallback used: square sum",)
    assert [(r.re, r.im) for r in roots] == [(17 << 160, 0), (13 << 160, 0)]
    assert all(r.bits == 160 for r in roots)


def test_resolvent_ladder_degenerate_when_every_rung_collides():
    # equal multisets on both cosets: every symmetric resolvent collides
    with pytest.raises(ResolventDegenerate):
        moduli._separated_roots(_reals(1, 4, 4, 1), ((0, 1), (2, 3)), 30)
