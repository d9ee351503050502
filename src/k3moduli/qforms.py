"""Exact arithmetic of integral binary quadratic forms.

A form (a, b, c) stands for a*x^2 + b*x*y + c*y^2.  Only positive definite
forms are handled (a > 0, b^2 - 4ac < 0).  Proper equivalence is equivalence
under SL2(Z) substitutions Q(p*x + q*y, r*x + s*y); every class is named by
its unique reduced representative.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .errors import InputError
from .values import Value

Matrix = tuple[tuple[int, int], tuple[int, int]]


class QuadForm(Value, namedtuple("QuadForm", "a b c")):
    """Integral binary quadratic form with integer coefficients (a, b, c)."""

    __slots__ = ()

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def coefficients(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __repr__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


class FormClass(Value, namedtuple("FormClass", "rep disc")):
    """Proper-equivalence class, named by its unique reduced representative
    rep (a QuadForm) of discriminant disc."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"[{self.rep.a},{self.rep.b},{self.rep.c}]"


def discriminant(q: QuadForm) -> int:
    return q.b * q.b - 4 * q.a * q.c


def is_positive_definite(q: QuadForm) -> bool:
    return q.a > 0 and discriminant(q) < 0


def _require_positive_definite(q: QuadForm) -> None:
    if not is_positive_definite(q):
        raise InputError(f"form {q} is not positive definite")


def check_discriminant(d: int) -> int:
    """Validate d < 0 and d = 0, 1 (mod 4); return d."""
    if d >= 0 or d % 4 not in (0, 1):
        raise InputError(f"{d} is not a negative quadratic discriminant")
    return d


def is_reduced(q: QuadForm) -> bool:
    """|b| <= a <= c, with b >= 0 on either boundary."""
    a, b, c = q.a, q.b, q.c
    if not (abs(b) <= a <= c):
        return False
    if (abs(b) == a or a == c) and b < 0:
        return False
    return True


def transform(q: QuadForm, m: Matrix) -> QuadForm:
    """Apply the substitution Q(p*x + q*y, r*x + s*y) for m = ((p, q), (r, s))."""
    (p, u), (r, s) = m
    a2 = q(p, r)
    c2 = q(u, s)
    b2 = 2 * q.a * p * u + q.b * (p * s + u * r) + 2 * q.c * r * s
    return QuadForm(a2, b2, c2)


def _reduce(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Gauss reduction of the positive definite (a, b, c) (Cohen, A Course in
    Computational Algebraic Number Theory, 5.4): the reduced (a, b, c)."""
    while True:
        if not -a < b <= a:
            # translate: b -> b + 2ka lands in (-a, a]
            k = (a - b) // (2 * a)
            b, c = b + 2 * k * a, (a * k + b) * k + c
        if a > c or (a == c and b < 0):
            # swap generators: (a, b, c) -> (c, -b, a)
            a, b, c = c, -b, a
        else:
            return a, b, c


def reduce(q: QuadForm) -> FormClass:
    """The class of q, named by its Gauss-reduced representative."""
    _require_positive_definite(q)
    rep = QuadForm(*_reduce(q.a, q.b, q.c))
    return FormClass(rep, discriminant(rep))


def form_class(a: int, b: int, c: int) -> FormClass:
    """Class of the form (a, b, c)."""
    return reduce(QuadForm(a, b, c))


def is_primitive(q: QuadForm) -> bool:
    return gcd(q.a, q.b, q.c) == 1


def primitive_part(q: QuadForm) -> tuple[int, QuadForm]:
    """Split q = m * q0 with q0 primitive; returns (m, q0)."""
    _require_positive_definite(q)
    m = gcd(q.a, q.b, q.c)
    return m, QuadForm(q.a // m, q.b // m, q.c // m)


def principal_form(d: int) -> QuadForm:
    """Identity representative of C(d): (1, 0, -d/4) or (1, 1, (1-d)/4)."""
    check_discriminant(d)
    if d % 4 == 0:
        return QuadForm(1, 0, -d // 4)
    return QuadForm(1, 1, (1 - d) // 4)


def principal_class(d: int) -> FormClass:
    return reduce(principal_form(d))


def inverse(cls: FormClass) -> FormClass:
    """Class of (a, -b, c); inverse for composition."""
    rep = cls.rep
    return reduce(QuadForm(rep.a, -rep.b, rep.c))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, s, t with a*s + b*t = g = gcd(a, b)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        qt, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - qt * s1
        t0, t1 = t1, t0 - qt * t1
    if a < 0:
        a, s0, t0 = -a, -s0, -t0
    return a, s0, t0


def _compose(a1: int, b1: int, a2: int, b2: int, c2: int, disc: int) -> tuple[int, int, int]:
    """Reduced product of the primitive forms (a1, b1, .) and (a2, b2, c2) of
    discriminant disc, as coefficients.

    Shanks' formula (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 5.4.7): with s = (b1 + b2)/2, d = gcd(a1, a2) = u*a2 + (.)*a1 and
    d1 = gcd(s, d) = v*s + w*d, the product is (a1*a2/d1^2, b2 + 2*(a2/d1)*r, .)
    for r = -(u*w*(b2 - s) + v*c2) mod a1/d1.  Any Bezout cofactors serve, so
    a1 | a2 and d | s need no case of their own, and d = 1 takes d1, v, w =
    1, 0, 1 without a second extended gcd.  No form or class is built;
    the class-group walk calls this directly.
    """
    s = (b1 + b2) // 2
    d, u, _ = _xgcd(a2, a1)
    d1, v, w = (1, 0, 1) if d == 1 else _xgcd(s, d)
    r = -(u * w * (b2 - s) + v * c2) % (a1 // d1)
    a = a1 // d1 * (a2 // d1)
    b = b2 + 2 * (a2 // d1) * r
    return _reduce(a, b, (b * b - disc) // (4 * a))


def compose(x: FormClass, y: FormClass) -> FormClass:
    """Reduced composition of two primitive classes of one discriminant:
    _compose on their representatives.  The product needs no positivity check,
    since a1*a2/d1^2 > 0 and disc < 0."""
    if x.disc != y.disc:
        raise InputError(f"discriminants {x.disc} and {y.disc} differ")
    if not (is_primitive(x.rep) and is_primitive(y.rep)):
        raise InputError("composition needs primitive classes")
    rep = _compose(x.rep.a, x.rep.b, y.rep.a, y.rep.b, y.rep.c, x.disc)
    return FormClass(QuadForm(*rep), x.disc)

