"""Orders in imaginary quadratic fields and exact ideal-lattice arithmetic.

A lattice in K = Q(sqrt(d_K)) is stored as two generators (x + y*sqrt(d_K))/den
with integer x, y and one positive denominator.  Generators are reduced to a
two-generator Hermite basis in closed form, and the multiplier ring
{z in K : z*L in L} is read off exactly from the discriminant of the
primitive norm form (Cox, Lemma 7.5), or for a product from its factors'
(see multiply); this realizes the generalized Dirichlet composition of form
classes across conductors.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from itertools import combinations
from math import gcd, isqrt, lcm

from . import qforms
from .errors import InputError, K3ModuliError
from .qforms import FormClass, QuadForm, check_discriminant
from .values import Value

Gens = tuple[tuple[int, int], tuple[int, int]]


class QuadOrder(Value, namedtuple("QuadOrder", "d_k f")):
    """Order of conductor f in the field of fundamental discriminant d_k."""

    __slots__ = ()

    @property
    def disc(self) -> int:
        return self.f * self.f * self.d_k

    def __repr__(self) -> str:
        return f"O({self.d_k};{self.f})"


class IdealLattice(Value, namedtuple("IdealLattice", "order den gens")):
    """Rank-2 lattice in K with its multiplier ring order (a QuadOrder).

    gens (Gens) are the numerator pairs (coefficient of 1, coefficient of
    sqrt(d_K)) of the two generators over the common positive denominator den.
    """

    __slots__ = ()


def is_fundamental(d: int) -> bool:
    """Whether d is the discriminant of a maximal order: conductor 1."""
    return d < 0 and d % 4 in (0, 1) and order_of_disc(d).f == 1


def factorization(n: int) -> list[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing n >= 1, p increasing,
    by trial division."""
    found, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            found.append((p, e))
        p += 1 if p == 2 else 2
    return found + [(n, 1)] * (n > 1)


def order_of_disc(d: int) -> QuadOrder:
    """Unique (d_K, f) with d = f^2 * d_K and d_K fundamental."""
    check_discriminant(d)
    # squarefree kernel: d = d0 * s^2 with d0 squarefree
    d0, s = -1, 1
    for p, e in factorization(-d):
        d0 *= p ** (e % 2)
        s *= p ** (e // 2)
    if d0 % 4 == 1:
        return QuadOrder(d0, s)
    # s is even: d = 0, 1 (mod 4) and d0 = 2, 3 (mod 4), while odd s would
    # give s^2 = 1 and d = d0 (mod 4)
    return QuadOrder(4 * d0, s // 2)


def _normalize(rows: Sequence[tuple[int, int]], den: int) -> tuple[Gens, int]:
    """Hermite basis ((a, 0), (b, g)), a, g > 0, 0 <= b < a, of the row lattice
    over den, with the factor common to the basis and den cancelled.

    g = gcd of the y_i, and (b, g) is the row combination that qforms._xgcd
    accumulates for it; a*g is the lattice's index in Z^2, the gcd of the 2x2
    minors.
    """
    g = b = 0
    for x, y in rows:
        g, s, t = qforms._xgcd(g, y)
        b = s * b + t * x
    minors = gcd(*(x1 * y2 - y1 * x2 for (x1, y1), (x2, y2) in combinations(rows, 2)))
    if minors == 0:
        raise InputError("generators do not span a rank-2 lattice")
    a = minors // g
    b %= a
    common = gcd(a, b, g, den)
    return ((a // common, 0), (b // common, g // common)), den // common


def _norm_form(d_k: int, gens: Gens) -> tuple[int, int, int]:
    """Primitive form proportional to N(x*alpha + y*beta), with the basis
    oriented to positive determinant and b negated, so that ideal_to_form
    inverts form_to_ideal on classes.

    Its discriminant is 4*d_K*det^2/content^2 = f^2*d_K, where f is the
    conductor of the multiplier ring {z in K : z*L in L} (Cox, Primes of the
    form x^2 + ny^2, Lemma 7.5).
    """
    (x1, y1), (x2, y2) = gens
    det = x1 * y2 - y1 * x2
    if det == 0:
        raise InputError("basis is linearly dependent")
    if det < 0:
        (x1, y1), (x2, y2) = (x2, y2), (x1, y1)
    a = x1 * x1 - d_k * y1 * y1
    b = 2 * (d_k * y1 * y2 - x1 * x2)
    c = x2 * x2 - d_k * y2 * y2
    content = gcd(a, b, c)
    return a // content, b // content, c // content


def _lattice(d_k: int, rows: Sequence[tuple[int, int]], den: int) -> IdealLattice:
    """ideal_lattice for a d_k known to be fundamental and den > 0."""
    basis, den = _normalize(rows, den)
    a, b, c = _norm_form(d_k, basis)
    f = isqrt((b * b - 4 * a * c) // d_k)
    return IdealLattice(QuadOrder(d_k, f), den, basis)


def ideal_lattice(d_k: int, gens: Sequence[tuple[int, int]], den: int = 1) -> IdealLattice:
    """Lattice spanned by any number of generators, with its multiplier ring."""
    if not is_fundamental(d_k):
        raise InputError(f"{d_k} is not a fundamental discriminant")
    if den <= 0:
        raise InputError("denominator must be positive")
    return _lattice(d_k, gens, den)


def contains(lattice: IdealLattice, num: tuple[int, int], den: int = 1) -> bool:
    """Exact membership of (num[0] + num[1]*sqrt(d_K))/den in the lattice."""
    (x1, y1), (x2, y2) = lattice.gens
    scale = lcm(lattice.den, den)
    u = num[0] * (scale // den)
    v = num[1] * (scale // den)
    k = scale // lattice.den
    a1, b1, a2, b2 = x1 * k, y1 * k, x2 * k, y2 * k
    det = a1 * b2 - b1 * a2
    return (u * b2 - v * a2) % det == 0 and (v * a1 - u * b1) % det == 0


def form_to_ideal(cls: FormClass) -> IdealLattice:
    """Proper ideal <a, (-b + sqrt(disc))/2> of the class (a, b, c)."""
    order = order_of_disc(cls.disc)
    a, b = cls.rep.a, cls.rep.b
    lattice = _lattice(order.d_k, ((2 * a, 0), (-b, order.f)), 2)
    if lattice.order != order:
        raise K3ModuliError(f"{cls} gives an ideal that is not proper for its order")
    return lattice


def ideal_to_form(lattice: IdealLattice) -> FormClass:
    """Reduced class of the norm form N(x*alpha + y*beta)/N(L), checked to lie
    in C(D) for the stored multiplier ring: the exact post-check of the ring
    multiply takes from theory."""
    a, b, c = _norm_form(lattice.order.d_k, lattice.gens)
    if b * b - 4 * a * c != lattice.order.disc:
        raise K3ModuliError(f"norm form ({a},{b},{c}) has the wrong discriminant")
    return qforms.reduce(QuadForm(a, b, c))


def multiply(l1: IdealLattice, l2: IdealLattice) -> IdealLattice:
    """Product lattice, generated by the four pairwise generator products.
    Its ring is O_f1 O_f2 = O_gcd(f1, f2) by theory: every lattice is an
    invertible ideal a of its ring O1, and ab a^-1 b^-1 = O1 O2, so z ab in ab
    gives z O1 O2 in O1 O2.  ideal_to_form checks the ring exactly."""
    if l1.order.d_k != l2.order.d_k:
        raise InputError(f"fundamental discriminants {l1.order.d_k} and {l2.order.d_k} differ")
    d = l1.order.d_k
    rows = [
        (x1 * x2 + y1 * y2 * d, x1 * y2 + y1 * x2)
        for x1, y1 in l1.gens
        for x2, y2 in l2.gens
    ]
    basis, den = _normalize(rows, l1.den * l2.den)
    return IdealLattice(QuadOrder(d, gcd(l1.order.f, l2.order.f)), den, basis)


def compose_general(x: FormClass, y: FormClass) -> FormClass:
    """Generalized Dirichlet composition across conductors.

    The result lives in C(f0^2 * d_K) with f0 = gcd(f1, f2); for equal
    discriminants it agrees with qforms.compose. Classes of different
    fields raise InputError from multiply.
    """
    return ideal_to_form(multiply(form_to_ideal(x), form_to_ideal(y)))


def reduction_map(x: FormClass, f_target: int) -> FormClass:
    """Homomorphism C(f^2 d_K) -> C(f'^2 d_K) for f' | f: multiply by the
    principal class of the target order."""
    order = order_of_disc(x.disc)
    if f_target <= 0 or order.f % f_target:
        raise InputError(f"{f_target} does not divide the conductor {order.f}")
    target = qforms.principal_class(f_target * f_target * order.d_k)
    return compose_general(x, target)
