import functools
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3moduli.errors import InputError
from k3moduli.qforms import (
    FormClass,
    QuadForm,
    compose,
    discriminant,
    form_class,
    inverse,
    is_primitive,
    is_reduced,
    primitive_part,
    principal_class,
    principal_form,
    reduce,
    transform,
)


@pytest.mark.parametrize(
    "form,disc",
    [((1, 1, 6), -23), ((1, 0, 1), -4), ((3, 2, 5), -56)],
)
def test_discriminant(form, disc):
    assert discriminant(QuadForm(*form)) == disc


def test_reduce_keeps_a_reduced_form():
    assert reduce(QuadForm(1, 1, 6)) == FormClass(QuadForm(1, 1, 6), -23)


def test_reduce_swap():
    assert reduce(QuadForm(6, 1, 1)) == form_class(1, 1, 6)


def sl2_equivalent_brute(src: QuadForm, dst: QuadForm, bound: int = 6) -> bool:
    """Independent oracle: search all SL2 matrices with entries in [-bound, bound]."""
    rng = range(-bound, bound + 1)
    for p, u, r, s in itertools.product(rng, repeat=4):
        if p * s - u * r == 1 and transform(src, ((p, u), (r, s))) == dst:
            return True
    return False


def test_reduce_4_5_3():
    # golden fixed by the brute-force oracle below: (4,5,3) ~ (2,-1,3), not (2,1,3)
    assert reduce(QuadForm(4, 5, 3)) == form_class(2, -1, 3)
    assert sl2_equivalent_brute(QuadForm(2, -1, 3), QuadForm(4, 5, 3))
    assert not sl2_equivalent_brute(QuadForm(2, 1, 3), QuadForm(4, 5, 3))


@pytest.mark.parametrize("form", [(-1, 0, 1), (0, 1, 1), (1, 0, -1), (1, 2, 1), (1, 3, 1)])
def test_reduce_rejects_non_positive_definite(form):
    with pytest.raises(InputError, match="is not positive definite"):
        reduce(QuadForm(*form))


@pytest.mark.parametrize(
    "form,m,part",
    [((2, 2, 12), 2, (1, 1, 6)), ((1, 1, 6), 1, (1, 1, 6)), ((6, 3, 9), 3, (2, 1, 3))],
)
def test_primitive_part(form, m, part):
    q = QuadForm(*form)
    got_m, got = primitive_part(q)
    assert (got_m, got) == (m, QuadForm(*part))
    assert is_primitive(got)
    assert is_primitive(q) == (m == 1)


@pytest.mark.parametrize(
    "d,form",
    [(-4, (1, 0, 1)), (-23, (1, 1, 6)), (-56, (1, 0, 14)), (-3, (1, 1, 1))],
)
def test_principal_form(d, form):
    assert principal_form(d) == QuadForm(*form)


@pytest.mark.parametrize("d", [-5, -6, 0, 4, -1, -2])
def test_principal_form_bad_discriminant(d):
    with pytest.raises(InputError, match="is not a negative quadratic discriminant"):
        principal_form(d)


@pytest.mark.parametrize(
    "cls,inv",
    [((2, 1, 3), (2, -1, 3)), ((1, 1, 6), (1, 1, 6)), ((3, 2, 5), (3, -2, 5))],
)
def test_inverse(cls, inv):
    assert inverse(form_class(*cls)) == form_class(*inv)
    assert inverse(inverse(form_class(*cls))) == form_class(*cls)


def test_compose_examples():
    assert compose(form_class(1, 1, 6), form_class(2, 1, 3)) == form_class(2, 1, 3)
    assert compose(form_class(2, 1, 3), form_class(2, 1, 3)) == form_class(2, -1, 3)
    assert compose(form_class(3, 2, 5), form_class(3, -2, 5)) == form_class(1, 0, 14)


def test_compose_errors():
    with pytest.raises(InputError, match="discriminants -23 and -56 differ"):
        compose(form_class(1, 1, 6), form_class(1, 0, 14))
    bad = FormClass(QuadForm(2, 2, 12), -92)
    with pytest.raises(InputError, match="composition needs primitive classes"):
        compose(bad, bad)


positive_definite_forms = st.builds(
    QuadForm,
    st.integers(1, 40),
    st.integers(-60, 60),
    st.integers(1, 80),
).filter(lambda q: discriminant(q) < 0)


@settings(deadline=None)
@given(positive_definite_forms)
def test_reduce_idempotent(q):
    cls = reduce(q)
    assert is_reduced(cls.rep) and cls.disc == discriminant(q)
    assert reduce(cls.rep) == cls


reduced_forms = st.builds(
    QuadForm,
    st.integers(1, 40),
    st.integers(-40, 40),
    st.integers(1, 80),
).filter(is_reduced)


def _matmul(m, n):
    (p, u), (r, s) = m
    (p2, u2), (r2, s2) = n
    return ((p * p2 + u * r2, p * u2 + u * s2), (r * p2 + s * r2, r * u2 + s * s2))


def _word(ks):
    """T^k1 S T^k2 S ... for T^k = ((1, k), (0, 1)) and S = ((0, -1), (1, 0)),
    which generate SL2(Z)."""
    return functools.reduce(_matmul, (((k, -1), (1, 0)) for k in ks), ((1, 0), (0, 1)))


sl2_matrices = st.lists(st.integers(-6, 6), max_size=8).map(_word)


@settings(deadline=None)
@given(reduced_forms, sl2_matrices)
@example(QuadForm(2, 1, 2), ((0, -1), (1, 0)))  # a = c: S gives (2, -1, 2)
@example(QuadForm(2, 2, 3), ((1, -1), (0, 1)))  # b = a: T^-1 gives (2, -2, 3)
def test_reduce_undoes_any_sl2_substitution(r, m):
    # the reduced representative is unique in its class: every SL2(Z)
    # substitute of a reduced form reduces back to it
    (p, u), (v, s) = m
    assert p * s - u * v == 1
    assert reduce(transform(r, m)).rep == r


def small_sl2_matrices(bound: int = 5):
    rng = range(-bound, bound + 1)
    return [
        ((p, u), (r, s))
        for p, u, r, s in itertools.product(rng, repeat=4)
        if p * s - u * r == 1
    ]


SL2_SAMPLE = small_sl2_matrices()


@pytest.mark.parametrize("form", [(1, 1, 6), (2, 1, 3), (3, 2, 5), (1, 0, 14), (2, -1, 3)])
def test_class_well_defined_under_sl2(form):
    q = QuadForm(*form)
    cls = reduce(q)
    for m in SL2_SAMPLE[::7]:  # sampled, still ~1900 matrices
        assert reduce(transform(q, m)) == cls


DISCS = [-23, -56, -84, -120, -231, -260]


@pytest.mark.parametrize("d", DISCS)
def test_group_laws(d):
    from k3moduli.classgroup import class_group

    group = class_group(d)
    classes = group.classes
    e = principal_class(d)
    for x in classes:
        assert compose(x, e) == x
        assert compose(x, inverse(x)) == e
        for y in classes:
            assert compose(x, y) == compose(y, x)
    for x, y, z in itertools.product(classes, repeat=3):
        assert compose(compose(x, y), z) == compose(x, compose(y, z))
