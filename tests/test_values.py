"""The value types: immutable, equal by class and fields, with a fixed repr."""

import pytest

from k3moduli.classgroup import ClassGroup, class_group
from k3moduli.numerics import BigComplex, CMPoint
from k3moduli.orders import order_of_disc
from k3moduli.qforms import FormClass, QuadForm, form_class


def test_value_semantics():
    # a plain namedtuple would equal another class's value and a bare tuple
    form, point = QuadForm(1, 0, 1), CMPoint(1, 0, 1)
    assert form != point and not form == point
    assert form != (1, 0, 1) and (1, 0, 1) != form and point != (1, 0, 1)
    assert {form, point, (1, 0, 1)} == {QuadForm(1, 0, 1), CMPoint(1, 0, 1), (1, 0, 1)}
    pairs = [
        (QuadForm(2, 1, 3), QuadForm(a=2, b=1, c=3)),
        (form_class(2, 1, 3), FormClass(QuadForm(2, 1, 3), -23)),
        (order_of_disc(-92), order_of_disc(-92)),
        (CMPoint(2, 1, -23), CMPoint(2, 1, -23)),
        (BigComplex(5, -2, 3), BigComplex(5, -2, 3, 0)),
    ]
    for x, y in pairs:
        assert x == y and not x != y and hash(x) == hash(y), x
    assert BigComplex(5, -2, 3) != BigComplex(5, -2, 3, 1)
    # the error messages on stderr print these
    assert [repr(x) for x, _ in pairs] == [
        "(2,1,3)",
        "[2,1,3]",
        "O(-23;2)",
        "CMPoint(a=2, b=1, disc=-23)",
        "BigComplex(re=5, im=-2, bits=3, err=0)",
    ]
    # cached_property keeps its caches in the instance, which never compares
    group = class_group(-56)
    assert group.coords and "coords" in vars(group)
    fresh = ClassGroup(group.disc, group.forms)
    assert "coords" not in vars(fresh)
    assert group == fresh and hash(group) == hash(fresh)
    assert fresh.elementary_divisors == group.elementary_divisors == (4,)
    assigned = [(form, "a"), (point, "disc"), (group, "disc"), (group, "h"), (group, "extra")]
    for value, name in assigned:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    assert form == QuadForm(1, 0, 1) and group.disc == -56 and "extra" not in vars(group)
