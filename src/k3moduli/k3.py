"""Transcendental lattices of singular K3/abelian surfaces.

A positive definite even Gram matrix ((2a, b), (b, 2c)) is identified with the
form (a, b, c) = m * q0 (m the index of primitivity, q0 the primitive part).
Galois conjugation acts through the class group of disc(q0): a conjugate with
fingerprint g has primitive part g^-2 * q0, complex conjugation inverts the
class, and the full orbit is the genus of q0, scaled by m.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from . import classgroup, orders, qforms
from .errors import InputError
from .numerics import CMPoint
from .qforms import FormClass, QuadForm
from .values import Value

Gram = tuple[tuple[int, int], tuple[int, int]]


class TranscLattice(Value, namedtuple("TranscLattice", "gram m q0 disc disc0")):
    """Lattice with Gram matrix gram (a Gram), index of primitivity m,
    primitive part q0 (a FormClass), discriminant disc and primitive
    discriminant disc0 = disc / m^2."""

    __slots__ = ()

    def form(self) -> QuadForm:
        """The (possibly imprimitive) reduced form m * q0."""
        rep = self.q0.rep
        return QuadForm(self.m * rep.a, self.m * rep.b, self.m * rep.c)

    def key(self) -> tuple[int, tuple[int, int, int], int]:
        """Isomorphism invariant: lattices agree iff these triples agree."""
        return (self.m, self.q0.rep.coefficients(), self.disc)


class SMDecomposition(Value, namedtuple("SMDecomposition", "tau q1 q2")):
    """Product decomposition E_tau x E_(a*tau+b), tau a CMPoint: q1 the
    primitive-part class of the first curve, q2 the principal class of the
    full discriminant (both FormClass)."""

    __slots__ = ()


def lattice_from_class(m: int, cls: FormClass) -> TranscLattice:
    """Canonical lattice m * (reduced representative of cls), for m >= 1: at
    m <= 0 the Gram matrix is not positive definite, and InputError is
    raised."""
    if m < 1:
        raise InputError(f"index of primitivity {m} is not positive")
    a, b, c = cls.rep.coefficients()
    gram = ((2 * m * a, m * b), (m * b, 2 * m * c))
    return TranscLattice(gram, m, cls, m * m * cls.disc, cls.disc)


def from_gram(matrix: Gram) -> TranscLattice:
    """Validate an even positive definite Gram matrix and split off its
    primitive part."""
    ((g11, g12), (g21, g22)) = matrix
    if g12 != g21 or g11 % 2 or g22 % 2:
        raise InputError(f"{matrix} is not a symmetric even Gram matrix")
    a, b, c = g11 // 2, g12, g22 // 2
    form = QuadForm(a, b, c)
    if not qforms.is_positive_definite(form):
        raise InputError(f"{matrix} is not positive definite")
    m = gcd(a, b, c)
    q0 = qforms.reduce(QuadForm(a // m, b // m, c // m))
    return TranscLattice(matrix, m, q0, qforms.discriminant(form), q0.disc)


def scale(lattice: TranscLattice, n: int) -> TranscLattice:
    """The lattice n * T."""
    ((g11, g12), (_, g22)) = lattice.gram
    return from_gram(((n * g11, n * g12), (n * g12, n * g22)))


def cm_field(lattice: TranscLattice) -> int:
    """Fundamental discriminant of K = Q(sqrt(disc)); equal for T and m*T,
    so it is read from disc0, whose factorization does not grow with m."""
    return orders.order_of_disc(lattice.disc0).d_k


def shioda_mitani(lattice: TranscLattice) -> SMDecomposition:
    """Decomposition attached to tau = (-b + sqrt(disc)) / (2a) of the full form."""
    a, b, _ = lattice.form().coefficients()
    tau = CMPoint(a, b, lattice.disc)
    return SMDecomposition(tau, lattice.q0, qforms.principal_class(lattice.disc))


def conjugate_lattice(lattice: TranscLattice, g: FormClass) -> TranscLattice:
    """Conjugate by a Galois element with class-group fingerprint g: the
    primitive part becomes g^-2 * q0; m is preserved."""
    if g.disc != lattice.disc0:
        raise InputError(f"fingerprint discriminant {g.disc} differs from {lattice.disc0}")
    g_inv = qforms.inverse(g)
    twist = qforms.compose(g_inv, g_inv)
    return lattice_from_class(lattice.m, qforms.compose(twist, lattice.q0))


def complex_conjugate(lattice: TranscLattice) -> TranscLattice:
    """Mirror lattice ((2a, -b), (-b, 2c)): inverse primitive part, same m."""
    return lattice_from_class(lattice.m, qforms.inverse(lattice.q0))


def galois_orbit(lattice: TranscLattice) -> tuple[TranscLattice, ...]:
    """All conjugate lattices up to isomorphism: m times the genus of q0, in (a, b) order."""
    group = classgroup.class_group(lattice.disc0)
    genus = classgroup.genus_of(group, lattice.q0)
    return tuple(lattice_from_class(lattice.m, group.classes[i]) for i in sorted(genus))
