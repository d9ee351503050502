import pytest

from k3moduli import classgroup, orders, qforms
from k3moduli.errors import InputError
from k3moduli.k3 import (
    cm_field,
    complex_conjugate,
    conjugate_lattice,
    from_gram,
    galois_orbit,
    lattice_from_class,
    scale,
    shioda_mitani,
)
from k3moduli.numerics import CMPoint
from k3moduli.orders import compose_general
from k3moduli.qforms import compose, form_class, inverse

from conftest import valid_discs


def test_from_gram_examples():
    t = from_gram(((2, 1), (1, 12)))
    assert (t.m, t.q0, t.disc, t.disc0) == (1, form_class(1, 1, 6), -23, -23)
    t = from_gram(((4, 1), (1, 6)))
    assert (t.m, t.q0, t.disc) == (1, form_class(2, 1, 3), -23)
    t = from_gram(((4, 2), (2, 24)))
    assert (t.m, t.q0, t.disc, t.disc0) == (2, form_class(1, 1, 6), -92, -23)


def test_from_gram_rejects():
    with pytest.raises(InputError, match="is not a symmetric even Gram matrix"):
        from_gram(((1, 1), (1, 12)))
    with pytest.raises(InputError, match="is not a symmetric even Gram matrix"):
        from_gram(((2, 1), (2, 12)))
    with pytest.raises(InputError, match="is not positive definite"):
        from_gram(((2, 10), (10, 2)))
    with pytest.raises(InputError, match="is not positive definite"):
        from_gram(((-2, 0), (0, -2)))


def test_lattice_from_class_refuses_a_non_positive_index():
    # m = 0 gives the zero Gram matrix and m = -1 a negative definite one,
    # which from_gram refuses too
    cls = form_class(1, 1, 6)
    for m in (0, -1):
        with pytest.raises(InputError, match=f"index of primitivity {m} is not positive"):
            lattice_from_class(m, cls)
        with pytest.raises(InputError, match="is not positive definite"):
            from_gram(((2 * m, m), (m, 12 * m)))


def test_cm_field():
    assert cm_field(from_gram(((2, 1), (1, 12)))) == -23
    assert cm_field(from_gram(((2, 0), (0, 2)))) == -4
    assert cm_field(from_gram(((4, 2), (2, 24)))) == -23


def test_cm_field_matches_primitive_part():
    # read from disc0, d_K is the field of the full discriminant m^2 disc0
    for d0 in valid_discs(150):
        for cls in classgroup.class_group(d0).classes:
            t = lattice_from_class(1, cls)
            for n in (2, 3):
                assert cm_field(scale(t, n)) == cm_field(t)
                assert cm_field(t) == orders.order_of_disc(scale(t, n).disc).d_k


def test_cm_field_does_not_factor_the_index(monkeypatch):
    # a prime index m near 10^12: trial division over m^2 disc0 would take
    # days, while d_K is read from disc0 alone
    m = 10**12 + 39
    seen = []
    order_of_disc = orders.order_of_disc
    monkeypatch.setattr(orders, "order_of_disc", lambda d: seen.append(d) or order_of_disc(d))
    for d0 in (-4, -56, -23):
        cls = classgroup.class_group(d0).classes[-1]
        big = lattice_from_class(m, cls)
        assert big.disc == m * m * d0
        assert cm_field(big) == cm_field(lattice_from_class(1, cls))
    assert seen and all(-d <= 56 for d in seen)


def test_shioda_mitani_examples():
    sm = shioda_mitani(from_gram(((4, 1), (1, 6))))
    assert sm.tau == CMPoint(2, 1, -23)  # tau = (-1 + sqrt(-23)) / 4
    assert sm.q1 == form_class(2, 1, 3)
    assert sm.q2 == form_class(1, 1, 6)

    sm = shioda_mitani(from_gram(((2, 0), (0, 2))))
    assert sm.q1 == sm.q2 == form_class(1, 0, 1)

    sm = shioda_mitani(from_gram(((4, 2), (2, 24))))
    assert sm.q1 == form_class(1, 1, 6)
    assert sm.q1.disc == -23
    assert sm.q2 == qforms.principal_class(-92)
    assert sm.tau == CMPoint(2, 2, -92)


def test_shioda_mitani_composition_recovers_primitive_class():
    for d0 in (-23, -56, -84):
        for cls in classgroup.class_group(d0).classes:
            for m in (1, 2):
                t = lattice_from_class(m, cls)
                sm = shioda_mitani(t)
                assert sm.tau.a > 0 and sm.tau.disc < 0  # positive imaginary part
                assert compose_general(sm.q1, sm.q2) == t.q0


def test_conjugate_lattice_examples():
    t = from_gram(((2, 1), (1, 12)))
    principal = form_class(1, 1, 6)
    assert conjugate_lattice(t, principal).q0 == t.q0
    g = form_class(2, 1, 3)
    assert conjugate_lattice(t, g).q0 == form_class(2, 1, 3)

    scaled = from_gram(((4, 2), (2, 24)))
    conj = conjugate_lattice(scaled, g)
    assert (conj.m, conj.q0) == (2, form_class(2, 1, 3))

    with pytest.raises(InputError, match="fingerprint discriminant -56 differs from -23"):
        conjugate_lattice(t, form_class(3, 2, 5))


def test_complex_conjugate_examples():
    t = from_gram(((4, 1), (1, 6)))
    assert complex_conjugate(t).q0 == form_class(2, -1, 3)
    assert complex_conjugate(t).gram == ((4, -1), (-1, 6))
    p = from_gram(((2, 1), (1, 12)))
    assert complex_conjugate(p).key() == lattice_from_class(1, p.q0).key()
    scaled = from_gram(((4, 2), (2, 24)))
    assert complex_conjugate(scaled).key() == lattice_from_class(2, scaled.q0).key()


def test_galois_orbit_examples():
    orbit = galois_orbit(from_gram(((2, 1), (1, 12))))
    assert {t.q0 for t in orbit} == set(classgroup.class_group(-23).classes)
    assert all(t.m == 1 for t in orbit)

    assert [t.key() for t in galois_orbit(from_gram(((2, 0), (0, 2))))] == [
        (1, (1, 0, 1), -4)
    ]

    orbit = galois_orbit(from_gram(((4, 2), (2, 24))))
    assert len(orbit) == 3
    assert all(t.m == 2 and t.disc == -92 for t in orbit)


def test_orbit_equals_fingerprint_conjugates():
    # { g^-2 * q0 : g in C } is exactly the genus coset q0 * C^2
    for d0 in valid_discs(200):
        group = classgroup.class_group(d0)
        for q0 in group.classes:
            t = lattice_from_class(1, q0)
            via_conjugation = {conjugate_lattice(t, g).q0 for g in group.classes}
            via_genus = {u.q0 for u in galois_orbit(t)}
            assert via_conjugation == via_genus


def test_conjugate_then_complex_conjugate():
    # matches m * (g^2 * (q1 * q2)^-1) for the composed primitive class
    for d0 in (-23, -56, -84):
        group = classgroup.class_group(d0)
        for q0 in group.classes:
            for g in group.classes:
                for m in (1, 3):
                    t = lattice_from_class(m, q0)
                    got = complex_conjugate(conjugate_lattice(t, g))
                    expected = compose(compose(g, g), inverse(q0))
                    assert got.q0 == expected
                    assert got.m == m


def test_lattice_keys_identify_up_to_isomorphism():
    a = from_gram(((2, 1), (1, 12)))
    b = lattice_from_class(1, form_class(1, 1, 6))
    assert a.key() == b.key()
    assert a.form() == qforms.QuadForm(1, 1, 6)
    c = scale(a, 2)
    assert c.key() == (2, (1, 1, 6), -92)
