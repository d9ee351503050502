"""Orders in imaginary quadratic fields and exact ideal-lattice arithmetic.

A lattice in K = Q(sqrt(d_K)) is stored as two generators (x + y*sqrt(d_K))/den
with integer x, y and one positive denominator.  Products are reduced to a
two-generator basis by integer Hermite normal form, and the multiplier ring
{z in K : z*L in L} is computed exactly; this realizes the generalized
Dirichlet composition of form classes across conductors.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import gcd, lcm

from . import qforms
from .errors import BadConductor, BadDiscriminant, DegenerateLattice, FieldMismatch, K3ModuliError
from .qforms import FormClass, QuadForm, check_discriminant

Gens = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class QuadOrder:
    """Order of conductor f in the field of fundamental discriminant d_k."""

    d_k: int
    f: int

    @property
    def disc(self) -> int:
        return self.f * self.f * self.d_k

    def __repr__(self) -> str:
        return f"O({self.d_k};{self.f})"


@dataclass(frozen=True)
class IdealLattice:
    """Rank-2 lattice in K with its multiplier ring.

    gens are the numerator pairs (coefficient of 1, coefficient of sqrt(d_K))
    of the two generators over the common denominator den.
    """

    order: QuadOrder
    den: int
    gens: Gens


def is_fundamental(d: int) -> bool:
    """Whether d is the discriminant of a maximal order: conductor 1."""
    return d < 0 and d % 4 in (0, 1) and order_of_disc(d).f == 1


def order_of_disc(d: int) -> QuadOrder:
    """Unique (d_K, f) with d = f^2 * d_K and d_K fundamental."""
    check_discriminant(d)
    # squarefree kernel: d = d0 * s^2 with d0 squarefree
    n, d0, s, p = -d, -1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            d0 *= p
        s *= p ** (e // 2)
        p += 1 if p == 2 else 2
    d0 *= n
    if d0 % 4 == 1:
        return QuadOrder(d0, s)
    if s % 2:
        raise BadDiscriminant(f"{d} is not a quadratic discriminant")
    return QuadOrder(4 * d0, s // 2)


def _hnf_rank2(rows: Sequence[tuple[int, int]]) -> Gens:
    """Hermite-form basis ((a, 0), (b, g)) of the row lattice, a, g > 0, 0 <= b < a."""
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
        raise DegenerateLattice("generators do not span a rank-2 lattice")
    a = gcd(*rational)
    b, g = pivot
    if g < 0:
        b, g = -b, -g
    b %= a
    return ((a, 0), (b, g))


def _normalize(rows: Sequence[tuple[int, int]], den: int) -> tuple[Gens, int]:
    (a, _), (b, g) = _hnf_rank2(rows)
    common = gcd(a, b, g, den)
    return ((a // common, 0), (b // common, g // common)), den // common


def _conductor(d_k: int, gens: Gens, den: int) -> int:
    """Conductor of the multiplier ring {z : z*L in L}.

    f is the least t > 0 with t*w_K*alpha and t*w_K*beta in L, found by
    clearing the denominators of the rational coordinates of w_K*gen in the
    basis (alpha, beta); den cancels throughout.
    """
    (x1, y1), (x2, y2) = gens
    det = x1 * y2 - y1 * x2
    m2 = 2 * abs(det)
    f = 1
    for x, y in gens:
        # w_K*(x + y*sqrt(d)) = (d(x+y) + (x+dy)*sqrt(d)) / 2
        u = d_k * (x + y)
        v = x + d_k * y
        p = u * y2 - v * x2
        q = v * x1 - u * y1
        f = lcm(f, m2 // gcd(m2, p, q))
    return f


def ideal_lattice(d_k: int, gens: Sequence[tuple[int, int]], den: int = 1) -> IdealLattice:
    """Lattice spanned by any number of generators, with its multiplier ring."""
    if not is_fundamental(d_k):
        raise BadDiscriminant(f"{d_k} is not a fundamental discriminant")
    if den <= 0:
        raise DegenerateLattice("denominator must be positive")
    basis, den = _normalize(gens, den)
    f = _conductor(d_k, basis, den)
    return IdealLattice(QuadOrder(d_k, f), den, basis)


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
    lattice = ideal_lattice(order.d_k, ((2 * a, 0), (-b, order.f)), 2)
    if lattice.order != order:
        raise K3ModuliError(f"{cls} gives an ideal that is not proper for its order")
    return lattice


def ideal_to_form(lattice: IdealLattice) -> FormClass:
    """Reduced class of the norm form N(x*alpha + y*beta)/N(L).

    The basis is oriented to positive determinant; the form is conjugated so
    that this map inverts form_to_ideal on classes.
    """
    (x1, y1), (x2, y2) = lattice.gens
    det = x1 * y2 - y1 * x2
    if det == 0:
        raise DegenerateLattice("basis is linearly dependent")
    if det < 0:
        (x1, y1), (x2, y2) = (x2, y2), (x1, y1)
        det = -det
    d, f = lattice.order.d_k, lattice.order.f
    num_a = (x1 * x1 - d * y1 * y1) * f
    num_b = (x1 * x2 - d * y1 * y2) * f
    num_c = (x2 * x2 - d * y2 * y2) * f
    if num_a % (2 * det) or num_b % det or num_c % (2 * det):
        raise DegenerateLattice("norm form is not integral for the multiplier ring")
    a = num_a // (2 * det)
    b = -(num_b // det)
    c = num_c // (2 * det)
    if b * b - 4 * a * c != lattice.order.disc:
        raise K3ModuliError(f"norm form ({a},{b},{c}) has the wrong discriminant")
    return qforms.reduce(QuadForm(a, b, c))


def multiply(l1: IdealLattice, l2: IdealLattice) -> IdealLattice:
    """Product lattice, generated by the four pairwise generator products."""
    if l1.order.d_k != l2.order.d_k:
        raise FieldMismatch("lattices live in different quadratic fields")
    d = l1.order.d_k
    rows = [
        (x1 * x2 + y1 * y2 * d, x1 * y2 + y1 * x2)
        for x1, y1 in l1.gens
        for x2, y2 in l2.gens
    ]
    return ideal_lattice(d, rows, l1.den * l2.den)


def compose_general(x: FormClass, y: FormClass) -> FormClass:
    """Generalized Dirichlet composition across conductors.

    The result lives in C(f0^2 * d_K) with f0 = gcd(f1, f2); for equal
    discriminants it agrees with qforms.compose.
    """
    o1 = order_of_disc(x.disc)
    o2 = order_of_disc(y.disc)
    if o1.d_k != o2.d_k:
        raise FieldMismatch(f"fundamental discriminants {o1.d_k} and {o2.d_k} differ")
    return ideal_to_form(multiply(form_to_ideal(x), form_to_ideal(y)))


def reduction_map(x: FormClass, f_target: int) -> FormClass:
    """Homomorphism C(f^2 d_K) -> C(f'^2 d_K) for f' | f: multiply by the
    principal class of the target order."""
    order = order_of_disc(x.disc)
    if f_target <= 0 or order.f % f_target:
        raise BadConductor(f"{f_target} does not divide the conductor {order.f}")
    target = qforms.principal_class(f_target * f_target * order.d_k)
    return compose_general(x, target)
