"""Fields of moduli of singular K3 surfaces.

Everything is driven by the class group C of disc0 (the primitive part's
discriminant) and the ring class field H it cuts out: the field of K-moduli M_K
is the subfield of H fixed by the 2-torsion C[2], the absolute field of moduli
M_Q is additionally fixed by complex conjugation.  Both are generated by the
trace of j over C[2].  That trace is real, and complex conjugation only
permutes its conjugates (the traces over the other cosets of C[2]), so
[M_K : K] = [M_Q : Q] = g (the genus order) and the minimal polynomial of the
generator over K lies in Z[x] and is the one over Q.  One integer polynomial,
recognized exactly via certified rounding, serves both fields.

Galois-ness of the absolute field is decided purely group-theoretically inside
the semidirect product C x <complex conjugation>, never numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from . import classgroup, k3, orders
from .classgroup import ClassGroup
from .errors import InputError, K3ModuliError, NotNearInteger, PrecisionExhausted
from .errors import ResolventDegenerate
from .k3 import TranscLattice
from .numerics import BigComplex, CMPoint, _mul, _sqr, conjugate, j_invariant
from .numerics import poly_from_roots, recognize_integer

MAX_DOUBLINGS = 8

Element = tuple[int, int]  # (class index, conjugation bit)


def default_digits(h: int) -> int:
    return 30 + 10 * h


@dataclass(frozen=True)
class GaloisModel:
    """Gal(H/Q) as C(disc0) extended by class inversion.

    Elements are (class index, bit); the bit marks the complex-conjugation
    coset.  subgroup_mk (= C[2]) fixes the field of K-moduli, subgroup_mq
    (= <C[2], conjugation>) fixes the absolute field of moduli.
    """

    cg: ClassGroup
    elements: tuple[Element, ...]
    subgroup_mk: frozenset[Element]
    subgroup_mq: frozenset[Element]

    def mul(self, x: Element, y: Element) -> Element:
        i, e = x
        j, f = y
        if e:
            j = self.cg.inverse_index(j)
        return (self.cg.mul(i, j), e ^ f)

    def inv(self, x: Element) -> Element:
        i, e = x
        if e:
            return x
        return (self.cg.inverse_index(i), 0)

    def is_normal(self, subgroup: frozenset[Element]) -> bool:
        return all(
            self.mul(self.mul(x, s), self.inv(x)) in subgroup
            for x in self.elements
            for s in subgroup
        )


@dataclass(frozen=True)
class ModuliReport:
    disc: int
    disc0: int
    m: int
    d_k: int
    h: int
    g: int
    orbit: tuple[TranscLattice, ...]
    mq_is_galois: bool
    class_polynomial: tuple[int, ...]
    mq_min_poly: tuple[int, ...]
    precision_used: int
    warnings: tuple[str, ...]

    @property
    def degree_mk_over_k(self) -> int:
        return self.g

    @property
    def degree_mq_over_q(self) -> int:
        return self.g

    @property
    def mk_min_poly(self) -> tuple[int, ...]:
        """The minimal polynomial of M_K over K: the one over Q (see the module docstring)."""
        return self.mq_min_poly


def _model(group: ClassGroup) -> GaloisModel:
    torsion = sorted(classgroup.two_torsion(group))
    elements = tuple((i, e) for e in (0, 1) for i in range(group.h))
    mk = frozenset((i, 0) for i in torsion)
    mq = frozenset((i, e) for i in torsion for e in (0, 1))
    return GaloisModel(group, elements, mk, mq)


def galois_model(lattice: TranscLattice) -> GaloisModel:
    return _model(classgroup.class_group(lattice.disc0))


def moduli_degree(lattice: TranscLattice) -> int:
    """[M_K : K] = [M_Q : Q] = order of the genus of the primitive part."""
    return classgroup.genus_order(classgroup.class_group(lattice.disc0))


def mq_is_galois(lattice: TranscLattice) -> bool:
    """Whether M_Q / Q is Galois: normality of <C[2], conjugation> in the model.

    Conjugating complex conjugation by a class x gives (x^2, conjugation), so
    the subgroup is normal exactly when every square lies in C[2], that is,
    when every invariant factor of C divides 4.  The model decides it by brute
    force.
    """
    model = galois_model(lattice)
    return model.is_normal(model.subgroup_mq)


# ---------------------------------------------------------------------------
# polynomial constructions


def _j_values(group: ClassGroup, digits: int) -> list[BigComplex]:
    """j at every class; (a, -b, c) takes the exact conjugate of j at (a, b, c)."""
    reps = [cls.rep for cls in group.classes]
    upper = {
        (r.a, r.b): j_invariant(CMPoint(r.a, r.b, group.disc), digits) for r in reps if r.b >= 0
    }
    return [upper[r.a, r.b] if r.b >= 0 else conjugate(upper[r.a, -r.b]) for r in reps]


def _torsion_cosets(group: ClassGroup) -> tuple[tuple[int, ...], ...]:
    """Cosets of C[2] in C, g of them, each listed and ordered deterministically."""
    torsion = sorted(classgroup.two_torsion(group))
    seen: set[int] = set()
    cosets = []
    for i in range(group.h):
        if i in seen:
            continue
        coset = tuple(sorted(group.cayley[i][t] for t in torsion))
        seen.update(coset)
        cosets.append(coset)
    cosets.sort()
    return tuple(cosets)


def _resolvent_ladder(one: int):
    """(name, power, f): f maps z at scale 2^-bits, with one = 2^bits, to its
    resolvent at scale 2^-(power * bits) without rounding, so conjugates map
    to exact conjugates."""
    yield "trace", 1, lambda z: z
    yield "square sum", 2, lambda z: _sqr(z, 0)
    yield "cube sum", 3, lambda z: _mul(_sqr(z, 0), z, 0)
    for k in range(1, 7):
        yield f"shift-{k} square sum", 2, lambda z, k=k: _sqr((z[0] + k * one, z[1]), 0)


def _separated_roots(
    js: list[BigComplex], cosets, digits: int
) -> tuple[list[BigComplex], tuple[str, ...]]:
    """Coset invariants distinct at the 10^-(digits/2) threshold.

    Starts from plain traces; on collision walks the resolvent ladder and
    flags the fallback in the returned warnings.  Exact integer sums: a
    conjugate coset gives the exact conjugate, a self-conjugate one an
    exactly real value.
    """
    bits = max(j.bits for j in js)
    values = [(j.re << bits - j.bits, j.im << bits - j.bits) for j in js]
    tens = 100 ** (digits // 2)
    for name, power, fn in _resolvent_ladder(1 << bits):
        resolved = [fn(v) for v in values]
        roots = [
            (sum(resolved[i][0] for i in coset), sum(resolved[i][1] for i in coset))
            for coset in cosets
        ]
        # |x - y| >= 10^-(digits // 2) for roots x, y at scale 2^-scale, squared
        scale = power * bits
        limit = 1 << 2 * scale
        separated = all(
            ((xr - yr) ** 2 + (xi - yi) ** 2) * tens >= limit
            for i, (xr, xi) in enumerate(roots)
            for yr, yi in roots[i + 1 :]
        )
        if separated:
            warnings = () if name == "trace" else (f"resolvent fallback used: {name}",)
            return [BigComplex(re, im, scale, digits) for re, im in roots], warnings
    raise ResolventDegenerate("all resolvents collide across the 2-torsion cosets")


def _recognize_int_poly(coeffs: list[BigComplex], digits: int) -> tuple[int, ...]:
    tol = f"1e-{max(digits // 4, 1)}"
    return tuple(recognize_integer(c, tol) for c in coeffs)


@dataclass(frozen=True)
class _Polynomials:
    class_poly: tuple[int, ...]
    mq: tuple[int, ...]
    digits: int
    warnings: tuple[str, ...]


def _attempt_polynomials(group: ClassGroup, digits: int) -> _Polynomials:
    js = _j_values(group, digits)
    class_poly = _recognize_int_poly(poly_from_roots(js), digits)
    roots, warnings = _separated_roots(js, _torsion_cosets(group), digits)
    mq = _recognize_int_poly(poly_from_roots(roots), digits)
    return _Polynomials(class_poly, mq, digits, warnings)


def _escalate(group: ClassGroup, digits: int | None, attempt):
    """Run attempt(digits), from default_digits(h) unless given, doubling the
    precision on failed recognition."""
    if digits is None:
        digits = default_digits(group.h)
    elif digits <= 0:
        raise InputError(f"digits must be positive, got {digits}")
    for _ in range(MAX_DOUBLINGS + 1):
        try:
            return attempt(digits)
        except NotNearInteger:
            digits *= 2
    raise PrecisionExhausted(f"recognition failed up to {digits} digits")


def class_polynomial(d: int, digits: int | None = None) -> tuple[int, ...]:
    """Monic integer polynomial with roots j(tau(Q)) over the classes of C(d),
    lowest-degree coefficient first."""
    coeffs, _ = class_polynomial_with_precision(d, digits)
    return coeffs


def class_polynomial_with_precision(
    d: int, digits: int | None = None
) -> tuple[tuple[int, ...], int]:
    group = classgroup.class_group(d)

    def attempt(dg):
        return _recognize_int_poly(poly_from_roots(_j_values(group, dg)), dg), dg

    return _escalate(group, digits, attempt)


def field_of_K_moduli(lattice: TranscLattice, digits: int | None = None) -> tuple[int, ...]:
    """Degree-g minimal polynomial of the coset-trace generator of M_K over K.

    The generator is real and complex conjugation permutes its conjugates, so
    this polynomial has integer coefficients and is field_of_Q_moduli's.
    """
    return field_of_Q_moduli(lattice, digits)


def field_of_Q_moduli(lattice: TranscLattice, digits: int | None = None) -> tuple[int, ...]:
    """Degree-g integer polynomial whose root field is the absolute field of
    moduli."""
    group = classgroup.class_group(lattice.disc0)
    return _escalate(group, digits, lambda dg: _attempt_polynomials(group, dg)).mq


def moduli_report(lattice: TranscLattice, digits: int | None = None) -> ModuliReport:
    """Assemble degrees, orbit, Galois data and all minimal polynomials."""
    group = classgroup.class_group(lattice.disc0)
    polys = _escalate(group, digits, lambda dg: _attempt_polynomials(group, dg))
    model = _model(group)
    report = ModuliReport(
        disc=lattice.disc,
        disc0=lattice.disc0,
        m=lattice.m,
        d_k=orders.order_of_disc(lattice.disc0).d_k,
        h=group.h,
        g=classgroup.genus_order(group),
        orbit=k3.galois_orbit(lattice),
        mq_is_galois=model.is_normal(model.subgroup_mq),
        class_polynomial=polys.class_poly,
        mq_min_poly=polys.mq,
        precision_used=polys.digits,
        warnings=polys.warnings,
    )
    _check_report(report, group)
    return report


def _check_report(report: ModuliReport, group: ClassGroup) -> None:
    # consistency guaranteed by the theory; re-checked before emission
    g, h, cp, mq = report.g, report.h, report.class_polynomial, report.mq_min_poly
    checks = {
        "class polynomial": len(cp) == h + 1 and cp[-1] == 1,
        "M_Q polynomial": len(mq) == g + 1 and mq[-1] == 1,
        "orbit": len(report.orbit) == g,
        "elementary divisors": prod(group.elementary_divisors) == h,
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise K3ModuliError(f"inconsistent report for {report.disc}: {', '.join(failed)}")
