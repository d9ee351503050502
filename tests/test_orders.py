import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3moduli import orders
from k3moduli.classgroup import class_group, reduced_representatives
from k3moduli.errors import InputError, K3ModuliError
from k3moduli.orders import (
    IdealLattice,
    QuadOrder,
    compose_general,
    contains,
    form_to_ideal,
    ideal_lattice,
    ideal_to_form,
    multiply,
    order_of_disc,
    reduction_map,
)
from k3moduli.qforms import FormClass, compose, form_class, inverse, principal_class

from conftest import valid_discs


@pytest.mark.parametrize(
    "d,d_k,f",
    [(-23, -23, 1), (-92, -23, 2), (-16, -4, 2), (-4, -4, 1), (-207, -23, 3), (-75, -3, 5)],
)
def test_order_of_disc(d, d_k, f):
    order = order_of_disc(d)
    assert (order.d_k, order.f) == (d_k, f)
    assert order.disc == d
    assert orders.is_fundamental(order.d_k)


def test_is_fundamental_matches_the_definition():
    # d = 1 (mod 4) squarefree, or d = 4m with m = 2, 3 (mod 4) squarefree
    bound = 10**5
    squarefree = [True] * (bound + 1)
    for p in range(2, 317):
        for k in range(p * p, bound + 1, p * p):
            squarefree[k] = False
    for d in range(-bound, 0):
        if d % 4 == 1:
            expected = squarefree[-d]
        elif d % 4 == 0:
            expected = (d // 4) % 4 in (2, 3) and squarefree[-d // 4]
        else:
            expected = False
        assert orders.is_fundamental(d) == expected, d
    assert not orders.is_fundamental(0) and not orders.is_fundamental(5)


@pytest.mark.parametrize("d", [-5, -6, 0, 9])
def test_order_of_disc_rejects(d):
    with pytest.raises(InputError, match="is not a negative quadratic discriminant"):
        order_of_disc(d)


def test_form_to_ideal_examples():
    # principal class of -4: the Gaussian integers up to scale
    l1 = form_to_ideal(form_class(1, 0, 1))
    assert l1.order == QuadOrder(-4, 1)
    assert ideal_to_form(l1) == form_class(1, 0, 1)

    l2 = form_to_ideal(form_class(2, 1, 3))
    assert l2.order == QuadOrder(-23, 1)
    assert ideal_to_form(l2) == form_class(2, 1, 3)

    l3 = form_to_ideal(form_class(3, 2, 5))
    assert l3.order == QuadOrder(-56, 1)
    assert ideal_to_form(l3) == form_class(3, 2, 5)


def test_ideal_to_form_examples():
    # <1, (1+sqrt(-23))/2> is the full maximal order: principal class
    full = ideal_lattice(-23, ((2, 0), (1, 1)), 2)
    assert full.order.f == 1
    assert ideal_to_form(full) == form_class(1, 1, 6)
    # <2, sqrt(-56)/2>
    half = ideal_lattice(-56, ((4, 0), (0, 1)), 2)
    assert ideal_to_form(half) == form_class(2, 0, 7)


def test_ideal_to_form_degenerate():
    with pytest.raises(InputError, match="generators do not span a rank-2 lattice"):
        ideal_lattice(-23, ((2, 0), (4, 0)), 1)
    # d_K must be fundamental, and the denominator positive
    with pytest.raises(InputError, match="-92 is not a fundamental discriminant"):
        ideal_lattice(-92, ((2, 0), (1, 1)), 2)
    for den in (0, -2):
        with pytest.raises(InputError, match="denominator must be positive"):
            ideal_lattice(-23, ((2, 0), (1, 1)), den)


def test_ideal_to_form_orients_the_basis():
    # a basis of negative determinant names the same class
    for d in (-23, -92, -84, -207):
        for cls in class_group(d).classes:
            lattice = form_to_ideal(cls)
            (x1, y1), (x2, y2) = lattice.gens
            swapped = IdealLattice(lattice.order, lattice.den, ((x2, y2), (x1, y1)))
            assert x2 * y1 - y2 * x1 < 0
            assert ideal_to_form(swapped) == ideal_to_form(lattice) == cls


def test_ideal_to_form_rejects_a_wrong_order():
    # the stored conductor must be the multiplier ring's: -92 = 2^2 * -23
    lattice = form_to_ideal(form_class(3, 2, 8))
    assert lattice.order == QuadOrder(-23, 2)
    for f in (1, 3, 4):
        wrong = IdealLattice(QuadOrder(-23, f), lattice.den, lattice.gens)
        with pytest.raises(K3ModuliError, match="wrong discriminant"):
            ideal_to_form(wrong)


def test_ideal_to_form_rejects_a_dependent_basis():
    for gens in (((2, 1), (4, 2)), ((0, 0), (1, 1)), ((3, 0), (-6, 0))):
        with pytest.raises(InputError, match="basis is linearly dependent"):
            ideal_to_form(IdealLattice(QuadOrder(-23, 1), 2, gens))


def _hnf_rank2(rows):
    """Reference: Hermite-form basis ((a, 0), (b, g)) of the row lattice by
    sort-and-subtract row reduction, a, g > 0, 0 <= b < a; None when the rows
    span no rank-2 lattice."""
    rows = [list(r) for r in rows if r != (0, 0)]
    while True:
        nz = [r for r in rows if r[1] != 0]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda r: abs(r[1]))
        w = nz[0]
        for r in nz[1:]:
            k = r[1] // w[1]
            r[0] -= k * w[0]
            r[1] -= k * w[1]
        rows = [r for r in rows if r != [0, 0]]
    pivot = next((r for r in rows if r[1] != 0), None)
    rational = [r[0] for r in rows if r[1] == 0]
    if pivot is None or not any(rational):
        return None
    a = gcd(*rational)
    b, g = pivot
    if g < 0:
        b, g = -b, -g
    b %= a
    return ((a, 0), (b, g))


@settings(deadline=None, max_examples=500)
@given(
    st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=1, max_size=4),
    st.integers(1, 6),
    st.integers(-3, 3),
    st.booleans(),
)
def test_normalize_matches_row_reduction(rows, den, m, dependent):
    if dependent and len(rows) > 1:
        rows[-1] = (m * rows[0][0], m * rows[0][1])  # a multiple of row 0, zero at m = 0
    hnf = _hnf_rank2(rows)
    if hnf is None:
        with pytest.raises(InputError, match="generators do not span a rank-2 lattice"):
            orders._normalize(rows, den)
        return
    (a, _), (b, g) = hnf
    common = gcd(a, b, g, den)
    expected = ((a // common, 0), (b // common, g // common)), den // common
    assert orders._normalize(rows, den) == expected


def test_round_trip_all_classes_small():
    for d in valid_discs(400):
        for cls in class_group(d).classes:
            lattice = form_to_ideal(cls)
            assert lattice.order.disc == d
            assert ideal_to_form(lattice) == cls


def test_multiply_identity_with_maximal_order():
    ok = ideal_lattice(-23, ((2, 0), (1, 1)), 2)  # O_K for d_K = -23
    for cls in class_group(-23).classes:
        lattice = form_to_ideal(cls)
        assert ideal_to_form(multiply(lattice, ok)) == cls


def test_multiply_inverse_pair():
    l1 = form_to_ideal(form_class(2, 1, 3))
    l2 = form_to_ideal(form_class(2, -1, 3))
    assert ideal_to_form(multiply(l1, l2)) == form_class(1, 1, 6)


def test_multiply_conductor_gcd():
    # proper O_{K,2}-ideal times proper O_{K,3}-ideal for d_K = -23
    c92 = class_group(-92).classes[1]
    c207 = class_group(-207).classes[1]
    prod = multiply(form_to_ideal(c92), form_to_ideal(c207))
    assert prod.order == QuadOrder(-23, 1)


def test_product_ring_from_theory_is_the_norm_forms():
    # multiply takes a product's ring as O_gcd(f1, f2); _lattice reads it off
    # the norm form: they agree on every product of acceptance criterion 3
    # (every pair of classes, |D| <= 2000) and across conductors f1, f2 <= 6
    families = [[form_to_ideal(c) for c in class_group(d).classes] for d in valid_discs(2000)]
    for d_k in (-3, -4, -7, -8, -15, -23):
        families.append(
            [form_to_ideal(c) for f in range(1, 7) for c in class_group(f * f * d_k).classes]
        )
    for ideals in families:
        for x, y in itertools.product(ideals, repeat=2):
            product = multiply(x, y)
            assert product.order == orders._lattice(x.order.d_k, product.gens, product.den).order


def test_multiplier_ring_is_exact():
    # f*w_K maps the lattice into itself, (f/p)*w_K does not for any prime p | f:
    # the conductor read off the norm form, or a product's taken from theory,
    # checked by membership alone
    lattices = [form_to_ideal(cls) for d in valid_discs(400) for cls in class_group(d).classes]
    for d_k in (-3, -4, -7, -8, -23):
        ideals = [form_to_ideal(c) for f in range(1, 7) for c in class_group(f * f * d_k).classes]
        lattices += [multiply(x, y) for x in ideals for y in ideals]
    assert {lattice.order.f for lattice in lattices} >= set(range(1, 12))
    for lattice in lattices:
        f = lattice.order.f
        d_k = lattice.order.d_k

        def maps_into_itself(t):
            # t*w_K*(x + y*sqrt(d)) over den 2: t*(d(x+y), x+dy)
            return all(
                contains(lattice, (d_k * (x + y) * t, (x + d_k * y) * t), 2 * lattice.den)
                for x, y in lattice.gens
            )

        assert maps_into_itself(f), lattice
        for p in range(2, f + 1):
            if f % p == 0 and all(p % q for q in range(2, p)):
                assert not maps_into_itself(f // p), (lattice, p)


def test_compose_general_identity():
    for d in (-23, -56, -92):
        for x in class_group(d).classes:
            assert compose_general(x, principal_class(d)) == x


def test_compose_general_matches_compose():
    for d in valid_discs(250):
        classes = class_group(d).classes
        for x in classes:
            for y in classes:
                assert compose_general(x, y) == compose(x, y)


@pytest.mark.parametrize("d", [-40004, -60060, -255255, -999999, -999479])
def test_compose_matches_compose_general_at_large_discriminants(d):
    # the other oracles stop at |D| <= 2000, where a <= 25; here a reaches 562
    # (-999479 has h = 1644, the largest h in [999000, 10^6])
    classes = [FormClass(q, d) for q in reduced_representatives(d)]
    rng = random.Random(d)
    pairs = []
    for x in rng.sample(classes[1:], 40):  # classes[0] = (1, ., .) shares no factor
        shared = [y for y in classes if gcd(x.rep.a, y.rep.a) > 1]
        pairs += [(x, x), (x, inverse(x)), (x, rng.choice(classes)), (x, rng.choice(shared))]
    for x, y in pairs:
        assert compose(x, y) == compose_general(x, y), (x, y)
    # both branches of the kernel: gcd(a1, a2) = 1 and gcd(a1, a2) > 1
    assert any(gcd(x.rep.a, y.rep.a) == 1 for x, y in pairs)
    assert any(gcd(x.rep.a, y.rep.a) > 1 for x, y in pairs)
    # some pairs need d1 = gcd(a1, a2, (b1 + b2)/2) > 1, the united case
    assert any(gcd(x.rep.a, y.rep.a, (x.rep.b + y.rep.b) // 2) > 1 for x, y in pairs)


def test_compose_general_cross_conductor():
    got = compose_general(form_class(3, 0, 5), form_class(1, 1, 4))
    assert got == form_class(2, 1, 2)
    assert got.disc == -15
    # agrees with same-discriminant composition after reduction
    assert compose_general(form_class(2, 1, 3), form_class(2, 1, 3)) == form_class(2, -1, 3)


def test_compose_general_field_mismatch():
    with pytest.raises(InputError, match="fundamental discriminants -23 and -4 differ"):
        compose_general(form_class(1, 1, 6), form_class(1, 0, 1))


def test_reduction_map_examples():
    assert reduction_map(principal_class(-60), 1) == principal_class(-15)
    assert reduction_map(form_class(3, 0, 5), 1) == form_class(2, 1, 2)
    image = {reduction_map(c, 1) for c in class_group(-92).classes}
    assert image == set(class_group(-23).classes)  # surjective, h(-92) = 3
    assert reduction_map(form_class(3, 2, 8), 2) == form_class(3, 2, 8)  # identity at f' = f


def test_reduction_map_bad_conductor():
    with pytest.raises(InputError, match="^4 does not divide the conductor 2$"):
        reduction_map(form_class(3, 0, 5), 4)
    with pytest.raises(InputError, match="^0 does not divide the conductor 2$"):
        reduction_map(form_class(3, 0, 5), 0)


FUNDAMENTALS = (-3, -4, -7, -8, -15, -23)


def test_reduction_map_is_homomorphism_small():
    for d_k in FUNDAMENTALS:
        for f in (2, 3, 4):
            d = f * f * d_k
            classes = class_group(d).classes
            for f0 in (1, f):
                if f % f0:
                    continue
                for x in classes:
                    for y in classes:
                        lhs = reduction_map(compose(x, y), f0)
                        rhs = compose(reduction_map(x, f0), reduction_map(y, f0))
                        assert lhs == rhs


def test_reduction_compatibility_small():
    # acting through the reduction equals acting by generalized composition
    for d_k in (-3, -4, -23):
        for f in (2, 3):
            d = f * f * d_k
            for g in class_group(d).classes:
                for q in class_group(d_k).classes:
                    direct = compose_general(inverse(g), q)
                    through = compose(inverse(reduction_map(g, 1)), q)
                    assert direct == through


def test_multiply_commutative_associative_sampled():
    classes = class_group(-231).classes  # h = 12
    sample = classes[:4]
    for x, y in itertools.product(sample, repeat=2):
        lx, ly = form_to_ideal(x), form_to_ideal(y)
        assert ideal_to_form(multiply(lx, ly)) == ideal_to_form(multiply(ly, lx))
    for x, y, z in itertools.product(sample, repeat=3):
        lx, ly, lz = form_to_ideal(x), form_to_ideal(y), form_to_ideal(z)
        left = multiply(multiply(lx, ly), lz)
        right = multiply(lx, multiply(ly, lz))
        assert ideal_to_form(left) == ideal_to_form(right)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(valid_discs(200)), st.data())
def test_round_trip_hypothesis(d, data):
    classes = class_group(d).classes
    cls = data.draw(st.sampled_from(list(classes)))
    assert ideal_to_form(form_to_ideal(cls)) == cls


def test_gens_linearly_independent():
    for cls in class_group(-84).classes:
        (x1, y1), (x2, y2) = form_to_ideal(cls).gens
        assert x1 * y2 - y1 * x2 != 0
