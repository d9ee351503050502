"""Fields of moduli of singular K3 surfaces.

Everything is driven by the class group C of disc0 (the primitive part's
discriminant) and the ring class field H it cuts out: the field of K-moduli is
the subfield of H fixed by the 2-torsion C[2], the absolute field of moduli is
additionally fixed by complex conjugation.  Both have degree g (the genus
order); explicit minimal polynomials are built from traces of j-values over
the cosets of C[2], recognized exactly via certified rounding.

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
from .numerics import BigComplex, CMPoint, j_invariant, poly_from_roots, recognize_integer
from .numerics import conjugate, working_context

MAX_DOUBLINGS = 8

Element = tuple[int, int]  # (class index, conjugation bit)


def default_digits(h: int) -> int:
    return 30 + 10 * h


@dataclass(frozen=True)
class KElement:
    """Algebraic integer (u2 + v2*sqrt(d_k)) / 2 in the maximal order of K."""

    u2: int
    v2: int
    d_k: int

    @property
    def is_rational_integer(self) -> bool:
        return self.v2 == 0 and self.u2 % 2 == 0

    def __str__(self) -> str:
        if self.v2 == 0:
            return _half(self.u2)
        root = f"{_half(abs(self.v2))}*sqrt({self.d_k})"
        if self.u2 == 0:
            return f"-{root}" if self.v2 < 0 else root
        sign = "-" if self.v2 < 0 else "+"
        return f"{_half(self.u2)} {sign} {root}"


def _half(n: int) -> str:
    return str(n // 2) if n % 2 == 0 else f"{n}/2"


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
    degree_mk_over_k: int
    degree_mq_over_q: int
    orbit: tuple[TranscLattice, ...]
    mq_is_galois: bool
    class_polynomial: tuple[int, ...]
    mk_min_poly: tuple[KElement, ...]
    mq_min_poly: tuple[int, ...]
    precision_used: int
    warnings: tuple[str, ...]


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
    """Whether M_Q / Q is Galois: normality of <C[2], conjugation> in the model."""
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


def _resolvent_ladder():
    yield "trace", lambda z: z
    yield "square sum", lambda z: z * z
    yield "cube sum", lambda z: z * z * z
    for k in range(1, 7):
        yield f"shift-{k} square sum", lambda z, k=k: (z + k) * (z + k)


def _separated_roots(
    js: list[BigComplex], cosets, digits: int
) -> tuple[list[BigComplex], tuple[str, ...]]:
    """Coset invariants distinct at the 10^-(digits/2) threshold.

    Starts from plain traces; on collision walks the resolvent ladder and
    flags the fallback in the returned warnings.
    """
    ctx = working_context(digits + 10)
    threshold = ctx.mpf(10) ** -(digits // 2)
    values = [ctx.mpc(j.re, j.im) for j in js]
    for name, fn in _resolvent_ladder():
        roots = [sum(fn(values[i]) for i in coset) for coset in cosets]
        separated = all(
            abs(roots[i] - roots[j]) >= threshold
            for i in range(len(roots))
            for j in range(i + 1, len(roots))
        )
        if separated:
            warnings = () if name == "trace" else (f"resolvent fallback used: {name}",)
            return [BigComplex(r.real, r.imag, digits) for r in roots], warnings
    raise ResolventDegenerate("all resolvents collide across the 2-torsion cosets")


def _int_tol(digits: int) -> str:
    return f"1e-{max(digits // 4, 1)}"


def _recognize_int_poly(coeffs: list[BigComplex], digits: int) -> tuple[int, ...]:
    tol = _int_tol(digits)
    return tuple(recognize_integer(c, tol) for c in coeffs)


def _recognize_k_poly(
    coeffs: list[BigComplex], digits: int, d_k: int
) -> tuple[KElement, ...]:
    """Write each coefficient as (u2 + v2*sqrt(d_k))/2 with integer u2, v2."""
    ctx = working_context(digits + 10)
    sqrt_abs = ctx.sqrt(-d_k)
    tol = _int_tol(digits)
    out = []
    for c in coeffs:
        u2 = BigComplex(2 * ctx.mpf(c.re), ctx.mpf(0), digits)
        v2 = BigComplex(2 * ctx.mpf(c.im) / sqrt_abs, ctx.mpf(0), digits)
        out.append(KElement(recognize_integer(u2, tol), recognize_integer(v2, tol), d_k))
    return tuple(out)


@dataclass(frozen=True)
class _Polynomials:
    class_poly: tuple[int, ...]
    mk: tuple[KElement, ...]
    mq: tuple[int, ...]
    digits: int
    warnings: tuple[str, ...]


def _attempt_polynomials(group: ClassGroup, d_k: int, digits: int) -> _Polynomials:
    js = _j_values(group, digits)
    class_poly = _recognize_int_poly(poly_from_roots(js), digits)
    roots, warnings = _separated_roots(js, _torsion_cosets(group), digits)
    field_coeffs = poly_from_roots(roots)
    mk = _recognize_k_poly(field_coeffs, digits, d_k)
    mq = _recognize_int_poly(field_coeffs, digits)
    return _Polynomials(class_poly, mk, mq, digits, warnings)


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


def field_of_K_moduli(
    lattice: TranscLattice, digits: int | None = None
) -> tuple[KElement, ...]:
    """Degree-g minimal polynomial of M_K over K, coefficients in the maximal
    order of K (here always rational: the coset-trace multiset is closed under
    conjugation)."""
    group = classgroup.class_group(lattice.disc0)
    d_k = orders.order_of_disc(lattice.disc0).d_k

    def attempt(dg):
        js = _j_values(group, dg)
        roots, _ = _separated_roots(js, _torsion_cosets(group), dg)
        return _recognize_k_poly(poly_from_roots(roots), dg, d_k)

    return _escalate(group, digits, attempt)


def field_of_Q_moduli(lattice: TranscLattice, digits: int | None = None) -> tuple[int, ...]:
    """Degree-g integer polynomial whose root field is the absolute field of
    moduli."""
    group = classgroup.class_group(lattice.disc0)

    def attempt(dg):
        js = _j_values(group, dg)
        roots, _ = _separated_roots(js, _torsion_cosets(group), dg)
        return _recognize_int_poly(poly_from_roots(roots), dg)

    return _escalate(group, digits, attempt)


def moduli_report(lattice: TranscLattice, digits: int | None = None) -> ModuliReport:
    """Assemble degrees, orbit, Galois data and all minimal polynomials."""
    group = classgroup.class_group(lattice.disc0)
    d_k = orders.order_of_disc(lattice.disc0).d_k
    polys = _escalate(group, digits, lambda dg: _attempt_polynomials(group, d_k, dg))
    g = classgroup.genus_order(group)
    model = _model(group)
    report = ModuliReport(
        disc=lattice.disc,
        disc0=lattice.disc0,
        m=lattice.m,
        d_k=d_k,
        h=group.h,
        g=g,
        degree_mk_over_k=g,
        degree_mq_over_q=g,
        orbit=k3.galois_orbit(lattice),
        mq_is_galois=model.is_normal(model.subgroup_mq),
        class_polynomial=polys.class_poly,
        mk_min_poly=polys.mk,
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
        "degrees": report.degree_mk_over_k == report.degree_mq_over_q == g,
        "class polynomial": len(cp) == h + 1 and cp[-1] == 1,
        "M_K polynomial": len(report.mk_min_poly) == g + 1,
        "M_Q polynomial": len(mq) == g + 1 and mq[-1] == 1,
        "orbit": len(report.orbit) == g,
        "elementary divisors": prod(group.elementary_divisors) == h,
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise K3ModuliError(f"inconsistent report for {report.disc}: {', '.join(failed)}")
